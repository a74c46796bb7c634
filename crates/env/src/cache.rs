//! The content-addressed display cache (DESIGN.md §4i) and the LRU
//! substrate it shares with the server's response cache.
//!
//! Every display is a pure function of `(base dataset, DisplaySpec)`: the
//! spec is the exact operation path from the root, and materialization is
//! deterministic. So a display computed once — by any rollout lane, any
//! worker thread, or any server request — can be reused verbatim wherever
//! the same `(dataset fingerprint, spec)` pair recurs. BACK-heavy sessions,
//! thousands of episodes replaying identical prefixes on one dataset, and
//! the server's greedy decode all hit the same small set of displays.
//!
//! **Determinism contract.** The cache is pure memoization: a hit returns a
//! display bit-identical to what recomputation would produce, so cache size
//! and sharding change speed, never transcripts. Which entries are
//! *resident* at any moment is schedule-dependent (lanes race to insert),
//! but residency only decides hit-or-recompute — both paths yield the same
//! bits. See `display_cache_equivalence` in the env test suite and
//! `tests/determinism.rs` at the workspace root, which pin this down.

use crate::display::{Display, DisplaySpec};
use atena_dataframe::StableHasher;
use atena_runtime::Sharded;
use atena_telemetry::MetricsRegistry;
// atena-lint: allow(hash-order) — HashMap below backs the LRU's key→slot lookups
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Least-recently-used cache with a hard entry capacity: a `HashMap` from
/// key to slot index plus an intrusive doubly-linked recency list threaded
/// through a slab of entries. O(1) lookup, insert, and eviction; no
/// allocation churn on steady state — evicted slots are reused in place.
///
/// This is the substrate of both the [`DisplayCache`] shards and the HTTP
/// server's response cache (re-exported there), so eviction semantics are
/// identical across the two.
pub struct LruCache<K, V> {
    // Keys are only ever probed; recency order lives in the intrusive list
    // and eviction order is therefore independent of map iteration order.
    // atena-lint: allow(hash-order) — lookup-only key→slot map
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create with room for `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            // atena-lint: allow(hash-order) — lookup-only key→slot map
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &slot = self.map.get(key)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(&self.slab[slot].value)
    }

    /// Insert (or overwrite) `key`, evicting the least recently used entry
    /// when full. Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return None;
        }
        if self.map.len() < self.capacity {
            let slot = self.slab.len();
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, slot);
            self.attach_front(slot);
            return None;
        }
        // Full: reuse the LRU slot in place.
        let slot = self.tail;
        self.detach(slot);
        let entry = &mut self.slab[slot];
        let old_key = std::mem::replace(&mut entry.key, key.clone());
        let old_value = std::mem::replace(&mut entry.value, value);
        self.map.remove(&old_key);
        self.map.insert(key, slot);
        self.attach_front(slot);
        Some((old_key, old_value))
    }

    /// Remove `key`, returning its value. The last slab entry moves into
    /// the freed slot, so the slab stays dense.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.detach(slot);
        let removed = self.slab.swap_remove(slot);
        if slot < self.slab.len() {
            let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
            if prev == NIL {
                self.head = slot;
            } else {
                self.slab[prev].next = slot;
            }
            if next == NIL {
                self.tail = slot;
            } else {
                self.slab[next].prev = slot;
            }
            self.map.insert(self.slab[slot].key.clone(), slot);
        }
        Some(removed.value)
    }

    /// Remove every entry whose value `keep` rejects; returns how many.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let doomed: Vec<K> = self
            .slab
            .iter()
            .filter(|e| !keep(&e.value))
            .map(|e| e.key.clone())
            .collect();
        for key in &doomed {
            self.remove(key);
        }
        doomed.len()
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// The content-addressed cache key: a stable 64-bit hash of the dataset
/// fingerprint and the **exact** operation path (predicates in application
/// order, group keys and aggregations in stacking order).
///
/// Exact-path keying (rather than the order-insensitive
/// [`DisplaySpec::canonical`] form) is deliberate: the result-table column
/// order of a grouped display depends on stacking order, so two orderings
/// of the same operations are *different* displays. Structured hashing
/// (tags + length prefixes, canonical float bits via
/// [`StableHasher::write_value`]) rules out the textual ambiguities a
/// formatted key would have.
pub fn display_key(dataset_fingerprint: u64, spec: &DisplaySpec) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(dataset_fingerprint);
    h.write_usize(spec.predicates.len());
    for p in &spec.predicates {
        h.write_str(&p.attr);
        h.write_u8(cmp_op_tag(p.op));
        h.write_owned_value(&p.term);
    }
    h.write_usize(spec.group_keys.len());
    for k in &spec.group_keys {
        h.write_str(k);
    }
    h.write_usize(spec.aggregations.len());
    for (func, attr) in &spec.aggregations {
        h.write_u8(agg_func_tag(*func));
        h.write_str(attr);
    }
    h.finish()
}

fn cmp_op_tag(op: atena_dataframe::CmpOp) -> u8 {
    atena_dataframe::CmpOp::ALL
        .iter()
        .position(|o| *o == op)
        .expect("CmpOp::ALL is exhaustive") as u8
}

fn agg_func_tag(func: atena_dataframe::AggFunc) -> u8 {
    atena_dataframe::AggFunc::ALL
        .iter()
        .position(|f| *f == func)
        .expect("AggFunc::ALL is exhaustive") as u8
}

/// Hit/miss/eviction totals of a [`DisplayCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisplayCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to materialization.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
}

impl DisplayCacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Telemetry handles, cached so the lookup hot path never touches the
/// registry mutex; swappable as a unit when rerouting to a private registry.
struct CacheTelemetry {
    hit: atena_telemetry::Counter,
    miss: atena_telemetry::Counter,
    eviction: atena_telemetry::Counter,
    lookup_secs: atena_telemetry::Histogram,
}

impl CacheTelemetry {
    fn from_registry(reg: &MetricsRegistry) -> Self {
        Self {
            hit: reg.counter("env.cache.hit"),
            miss: reg.counter("env.cache.miss"),
            eviction: reg.counter("env.cache.eviction"),
            lookup_secs: reg.histogram("env.cache.lookup_secs"),
        }
    }
}

/// A sharded, deterministic LRU of materialized displays, shared across
/// rollout lanes (and server requests) behind an `Arc`.
///
/// * **Content-addressed**: entries are keyed by [`display_key`]; a stored
///   display's spec is compared on lookup, so a 64-bit collision degrades to
///   a miss instead of returning the wrong display.
/// * **Lock-sharded**: the capacity is spread over up to 16 independently
///   locked LRU shards ([`atena_runtime::Sharded`]) so parallel lanes don't
///   serialize on one mutex. Shard choice is a pure function of the key.
/// * **Pure memoization**: hits return clones of the stored display.
///   Cloned frames share the per-frame statistics memo, so a distribution
///   computed by one lane is reused by every lane that hits the entry —
///   that sharing, like the cache itself, is invisible to results.
///
/// Capacity 0 disables the cache (every lookup misses, nothing is stored);
/// the environment layer simply doesn't attach one in that case.
pub struct DisplayCache {
    /// Each display beside the fingerprint of the dataset it was
    /// materialized from, so that [`DisplayCache::purge`] can find it.
    shards: Sharded<LruCache<u64, (u64, Display)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    lookup_tick: AtomicU64,
    telemetry: RwLock<CacheTelemetry>,
}

impl std::fmt::Debug for DisplayCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisplayCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.n_shards())
            .finish()
    }
}

impl DisplayCache {
    /// Create a cache holding at most `capacity` displays in total,
    /// reporting `env.cache.*` metrics to the global registry.
    ///
    /// The capacity is distributed exactly over `min(capacity, 16)` shards
    /// (rounded down to a power of two), earlier shards taking the
    /// remainder — total residency never exceeds `capacity`.
    pub fn new(capacity: usize) -> Self {
        let n_shards = match capacity {
            0 => 1,
            c => {
                let mut s = 1usize;
                while s * 2 <= c.min(16) {
                    s *= 2;
                }
                s
            }
        };
        let base = capacity / n_shards;
        let extra = capacity % n_shards;
        let mut next = 0usize;
        let shards = Sharded::new(n_shards, || {
            let cap = base + usize::from(next < extra);
            next += 1;
            LruCache::new(cap)
        });
        Self {
            shards,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            lookup_tick: AtomicU64::new(0),
            telemetry: RwLock::new(CacheTelemetry::from_registry(atena_telemetry::global())),
        }
    }

    /// Latency-histogram sampling period (first lookup is always timed, so
    /// the histogram is never empty once a lookup has happened).
    const LOOKUP_SAMPLE: u64 = 32;

    /// Total entry capacity across shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident displays (locks each shard in turn).
    pub fn len(&self) -> usize {
        self.shards.fold(0, |acc, shard| acc + shard.len())
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the display for `(dataset fingerprint, spec)`. On a hit the
    /// entry is refreshed in its shard's recency order and a clone is
    /// returned; the clone shares column data and statistics memos with the
    /// stored display (frames are `Arc`-backed).
    pub fn get(&self, dataset_fingerprint: u64, spec: &DisplaySpec) -> Option<Display> {
        if self.capacity == 0 {
            return None;
        }
        // Timing every lookup would cost more than many lookups do (two
        // clock reads plus a shared-histogram lock); sample 1 in
        // LOOKUP_SAMPLE instead. Counters stay exact.
        let tick = self.lookup_tick.fetch_add(1, Ordering::Relaxed);
        // atena-lint: allow(wall-clock) — sampled latency telemetry; never affects results
        let start = tick.is_multiple_of(Self::LOOKUP_SAMPLE).then(Instant::now);
        let key = display_key(dataset_fingerprint, spec);
        let found = self.shards.with(key, |shard| {
            shard
                .get(&key)
                // Guard against 64-bit key collisions: a mismatched dataset
                // or spec is treated as a miss, never returned as someone
                // else's display.
                .filter(|(fp, d)| *fp == dataset_fingerprint && d.spec == *spec)
                .map(|(_, d)| d.clone())
        });
        let t = self.telemetry.read().unwrap();
        if let Some(start) = start {
            t.lookup_secs.record_duration(start.elapsed());
        }
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                t.hit.inc();
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                t.miss.inc();
            }
        }
        found
    }

    /// Store a display under its own spec (keyed against
    /// `dataset_fingerprint`), possibly evicting an LRU entry in its shard.
    pub fn put(&self, dataset_fingerprint: u64, display: &Display) {
        if self.capacity == 0 {
            return;
        }
        let key = display_key(dataset_fingerprint, &display.spec);
        let evicted = self.shards.with(key, |shard| {
            shard.insert(key, (dataset_fingerprint, display.clone()))
        });
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.telemetry.read().unwrap().eviction.inc();
        }
    }

    /// Drop every display materialized from the dataset with this
    /// fingerprint, returning how many. Each one holds a copy of its
    /// filtered frame, so a deleted or evicted dataset's displays would
    /// otherwise stay resident until LRU pressure pushed them out. Purging
    /// only decides residency, never results; a decode still running on
    /// the dataset may store displays again after the purge.
    pub fn purge(&self, dataset_fingerprint: u64) -> usize {
        self.shards.fold(0, |purged, shard| {
            purged + shard.retain(|(fp, _)| *fp != dataset_fingerprint)
        })
    }

    /// Hit/miss/eviction totals since construction (independent of any
    /// telemetry rerouting).
    pub fn stats(&self) -> DisplayCacheStats {
        DisplayCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Route `env.cache.*` metrics to `registry` instead of the global one
    /// (tests with private registries; mirrors `Runtime::with_telemetry`).
    pub fn reroute_telemetry(&self, registry: &MetricsRegistry) {
        *self.telemetry.write().unwrap() = CacheTelemetry::from_registry(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::DisplaySpec;
    use atena_dataframe::{AggFunc, AttrRole, CmpOp, DataFrame, Predicate};

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // refresh a; b is now LRU
        assert_eq!(c.insert("c", 3), Some(("b", 2)));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_refreshes_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.insert("a", 10), None); // overwrite, refresh
        assert_eq!(c.insert("c", 3), Some(("b", 2))); // b was LRU
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn capacity_one_and_zero() {
        let mut one = LruCache::new(1);
        assert_eq!(one.insert("a", 1), None);
        assert_eq!(one.insert("b", 2), Some(("a", 1)));
        assert_eq!(one.get(&"b"), Some(&2));

        let mut zero: LruCache<&str, i32> = LruCache::new(0);
        assert_eq!(zero.insert("a", 1), None);
        assert_eq!(zero.get(&"a"), None);
        assert!(zero.is_empty());
    }

    #[test]
    fn long_churn_keeps_exactly_capacity() {
        let mut c = LruCache::new(8);
        for i in 0..1000usize {
            // With strictly sequential inserts the eviction order is FIFO.
            let evicted = c.insert(i, i * 2);
            if i >= 8 {
                assert_eq!(evicted, Some((i - 8, (i - 8) * 2)));
            } else {
                assert_eq!(evicted, None);
            }
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.capacity(), 8);
        // Exactly the last 8 keys survive.
        for i in 992..1000 {
            assert_eq!(c.get(&i), Some(&(i * 2)));
        }
        assert_eq!(c.get(&991), None);
    }

    #[test]
    fn remove_unlinks_and_frees_capacity() {
        let mut c = LruCache::new(3);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            c.insert(k, v);
        }
        // Removing the first slab entry moves "c" into its slot.
        assert_eq!(c.remove(&"a"), Some(1));
        assert_eq!(c.remove(&"a"), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert("d", 4), None, "the freed capacity is reused");
        // Recency order survives the move: "b" is now least recent.
        assert_eq!(c.insert("e", 5), Some(("b", 2)));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.retain(|v| v % 2 == 1), 1, "drops d");
        assert_eq!(c.get(&"d"), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert("f", 6), None);
        assert_eq!(c.insert("g", 7), Some(("e", 5)));
    }

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "airline",
                AttrRole::Categorical,
                vec![Some("AA"), Some("DL"), Some("AA"), Some("UA")],
            )
            .int(
                "delay",
                AttrRole::Numeric,
                vec![Some(10), Some(20), Some(30), Some(40)],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn display_key_depends_on_path_and_dataset() {
        let root = DisplaySpec::default();
        let filtered = root.with_predicate(Predicate::new("delay", CmpOp::Gt, 15i64));
        let grouped = root.with_grouping("airline".into(), AggFunc::Avg, "delay".into());
        assert_eq!(display_key(1, &root), display_key(1, &root));
        assert_ne!(display_key(1, &root), display_key(2, &root));
        assert_ne!(display_key(1, &root), display_key(1, &filtered));
        assert_ne!(display_key(1, &filtered), display_key(1, &grouped));
        // Exact-path keying: predicate order matters.
        let p1 = Predicate::new("delay", CmpOp::Gt, 15i64);
        let p2 = Predicate::new("airline", CmpOp::Eq, "AA");
        let ab = root.with_predicate(p1.clone()).with_predicate(p2.clone());
        let ba = root.with_predicate(p2).with_predicate(p1);
        assert_ne!(display_key(1, &ab), display_key(1, &ba));
    }

    #[test]
    fn display_cache_round_trips_bit_identical() {
        let b = base();
        let fp = b.fingerprint();
        let cache = DisplayCache::new(8);
        let spec = DisplaySpec::default().with_predicate(Predicate::new("delay", CmpOp::Ge, 20i64));
        assert!(cache.get(fp, &spec).is_none(), "cold cache misses");
        let display = Display::materialize(&b, spec.clone()).unwrap();
        cache.put(fp, &display);
        let hit = cache.get(fp, &spec).expect("warm cache hits");
        assert_eq!(hit.spec, display.spec);
        assert_eq!(hit.vector, display.vector);
        assert_eq!(hit.frame.n_rows(), display.frame.n_rows());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_distributed_exactly() {
        for cap in [0usize, 1, 3, 7, 16, 100] {
            let cache = DisplayCache::new(cap);
            assert_eq!(cache.capacity(), cap);
            let total: usize = cache.shards.fold(0, |acc, s| acc + s.capacity());
            assert_eq!(total, cap, "shard capacities must sum to {cap}");
        }
    }

    #[test]
    fn eviction_counts_under_pressure() {
        let b = base();
        let fp = b.fingerprint();
        let cache = DisplayCache::new(1);
        for term in [10i64, 20, 30] {
            let spec =
                DisplaySpec::default().with_predicate(Predicate::new("delay", CmpOp::Ge, term));
            cache.put(fp, &Display::materialize(&b, spec).unwrap());
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn purge_drops_one_datasets_displays_and_keeps_anothers() {
        let a = base();
        let b = a
            .filter(&Predicate::new("delay", CmpOp::Gt, 10i64))
            .unwrap();
        let cache = DisplayCache::new(64);
        let specs: Vec<DisplaySpec> = [10i64, 20, 30]
            .map(|t| DisplaySpec::default().with_predicate(Predicate::new("delay", CmpOp::Ge, t)))
            .into();
        for frame in [&a, &b] {
            for spec in &specs {
                cache.put(
                    frame.fingerprint(),
                    &Display::materialize(frame, spec.clone()).unwrap(),
                );
            }
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.purge(a.fingerprint()), 3);
        assert_eq!(cache.purge(a.fingerprint()), 0);
        assert_eq!(cache.len(), 3);
        for spec in &specs {
            assert!(cache.get(a.fingerprint(), spec).is_none());
            assert!(cache.get(b.fingerprint(), spec).is_some());
        }
        assert_eq!(cache.stats().evictions, 0, "a purge is not an eviction");
    }

    #[test]
    fn zero_capacity_is_inert() {
        let b = base();
        let fp = b.fingerprint();
        let cache = DisplayCache::new(0);
        let spec = DisplaySpec::default();
        cache.put(fp, &Display::root(&b));
        assert!(cache.get(fp, &spec).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), DisplayCacheStats::default());
    }

    #[test]
    fn reroute_sends_counters_to_private_registry() {
        let b = base();
        let fp = b.fingerprint();
        let cache = DisplayCache::new(4);
        let reg = MetricsRegistry::new();
        cache.reroute_telemetry(&reg);
        cache.put(fp, &Display::root(&b));
        cache.get(fp, &DisplaySpec::default());
        cache.get(
            fp,
            &DisplaySpec::default().with_predicate(Predicate::new("delay", CmpOp::Gt, 0i64)),
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("env.cache.hit"), Some(1));
        assert_eq!(snap.counter("env.cache.miss"), Some(1));
        // Lookup latency is sampled; the first lookup is always timed.
        assert!(reg.histogram("env.cache.lookup_secs").count() >= 1);
    }
}
