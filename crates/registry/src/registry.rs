//! Fingerprint-keyed, budgeted dataset registry.

use atena_dataframe::{CsvLimits, CsvStreamError, CsvStreamParser, DataFrame};
use atena_telemetry::{Counter, Gauge, MetricsRegistry};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

/// Sizing and quota knobs for a [`DatasetRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Total resident-byte budget for *unpinned* datasets. Pinned entries
    /// (the checkpoint's baked-in dataset) are reported in `registry.bytes`
    /// but exempt from eviction and budget math, so a small budget can
    /// never brick the default serving path.
    pub budget_bytes: usize,
    /// Maximum number of unpinned datasets resident at once.
    pub max_datasets: usize,
    /// Per-tenant cap on resident bytes attributed to that tenant.
    pub tenant_quota_bytes: usize,
    /// Caps applied to each individual upload during parsing.
    pub limits: CsvLimits,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            budget_bytes: 256 << 20,
            max_datasets: 1024,
            tenant_quota_bytes: 64 << 20,
            limits: CsvLimits {
                max_bytes: 8 << 20,
                max_rows: 200_000,
                max_cols: 256,
            },
        }
    }
}

/// Public metadata for a registered dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Content-derived id (`ds-<16 hex digits>` of the fingerprint).
    pub dataset_id: String,
    /// Human-readable name supplied at upload (or the bundle dataset id).
    pub name: String,
    /// Number of data rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Approximate resident bytes charged against the budget.
    pub bytes: usize,
    /// The stable content fingerprint.
    pub fingerprint: u64,
    /// Pinned entries are never evicted or deleted.
    pub pinned: bool,
    /// Tenants that have uploaded this dataset.
    pub tenants: Vec<String>,
}

/// Result of an ingest call: the dataset metadata, whether the upload
/// deduplicated onto an already-resident entry, and which entries it
/// evicted to make room.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Metadata of the (possibly pre-existing) entry.
    pub info: DatasetInfo,
    /// True when an identical dataset was already resident.
    pub deduplicated: bool,
    /// Fingerprints of the datasets this insert evicted, least recently
    /// used first, so callers can drop state derived from them.
    pub evicted: Vec<u64>,
}

/// Errors from registry operations; the server maps these onto HTTP codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The CSV payload was malformed (→ 400).
    Malformed(CsvStreamError),
    /// The payload exceeded a per-upload cap (→ 413).
    UploadTooLarge(CsvStreamError),
    /// The parsed dataset alone exceeds the whole registry budget (→ 413).
    ExceedsBudget {
        /// Bytes the dataset would occupy.
        bytes: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Admitting the dataset would push the tenant over its byte quota
    /// (→ 429, retryable after the tenant deletes something).
    TenantQuotaExceeded {
        /// The offending tenant.
        tenant: String,
        /// Bytes currently attributed to the tenant.
        used: usize,
        /// The configured per-tenant quota.
        quota: usize,
    },
    /// No dataset with this id is resident (→ 404).
    NotFound {
        /// The id that failed to resolve.
        dataset_id: String,
    },
    /// The entry is pinned and cannot be deleted (→ 409).
    Pinned {
        /// The pinned dataset's id.
        dataset_id: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Malformed(e) => write!(f, "malformed csv: {e}"),
            RegistryError::UploadTooLarge(e) => write!(f, "upload too large: {e}"),
            RegistryError::ExceedsBudget { bytes, budget } => {
                write!(
                    f,
                    "dataset of {bytes} bytes exceeds registry budget of {budget}"
                )
            }
            RegistryError::TenantQuotaExceeded {
                tenant,
                used,
                quota,
            } => write!(
                f,
                "tenant {tenant} over byte quota ({used} used of {quota})"
            ),
            RegistryError::NotFound { dataset_id } => {
                write!(f, "dataset {dataset_id} not found")
            }
            RegistryError::Pinned { dataset_id } => {
                write!(f, "dataset {dataset_id} is pinned and cannot be deleted")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// `ds-<16 lowercase hex digits>` of the content fingerprint.
pub fn dataset_id_for_fingerprint(fingerprint: u64) -> String {
    format!("ds-{fingerprint:016x}")
}

/// Inverse of [`dataset_id_for_fingerprint`]; `None` for malformed ids.
pub fn parse_dataset_id(id: &str) -> Option<u64> {
    let hex = id.strip_prefix("ds-")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Parse CSV bytes into a typed frame under the given caps, classifying
/// failures into "malformed" vs "too large" for HTTP mapping.
pub fn ingest_csv(bytes: &[u8], limits: CsvLimits) -> Result<DataFrame, RegistryError> {
    let mut parser = CsvStreamParser::new(limits);
    parser.push(bytes).map_err(classify_csv_error)?;
    parser.finish().map_err(classify_csv_error)
}

fn classify_csv_error(e: CsvStreamError) -> RegistryError {
    match e {
        CsvStreamError::Csv { .. } => RegistryError::Malformed(e),
        CsvStreamError::TooManyBytes { .. }
        | CsvStreamError::TooManyRows { .. }
        | CsvStreamError::TooManyColumns { .. } => RegistryError::UploadTooLarge(e),
    }
}

/// Cached metric handles so registry operations never take the metrics
/// mutex on the hot path (same idiom as the env display cache).
struct RegistryTelemetry {
    bytes: Gauge,
    entries: Gauge,
    inflight: Gauge,
    uploads: Counter,
    dedup_hits: Counter,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    deletes: Counter,
    rejected: Counter,
}

impl RegistryTelemetry {
    fn from_registry(reg: &MetricsRegistry) -> Self {
        Self {
            bytes: reg.gauge("registry.bytes"),
            entries: reg.gauge("registry.entries"),
            inflight: reg.gauge("registry.ingest.inflight"),
            uploads: reg.counter("registry.uploads"),
            dedup_hits: reg.counter("registry.dedup_hits"),
            hits: reg.counter("registry.hits"),
            misses: reg.counter("registry.misses"),
            evictions: reg.counter("registry.evictions"),
            deletes: reg.counter("registry.deletes"),
            rejected: reg.counter("registry.ingest.rejected"),
        }
    }
}

enum PinAction {
    Inserted,
    Promoted,
    AlreadyPinned,
}

struct Entry {
    frame: Arc<DataFrame>,
    name: String,
    bytes: usize,
    pinned: bool,
    /// Monotone logical timestamp of the last touch (upload, hit).
    last_used: u64,
    /// Tenants charged for this entry; credited back on evict/delete.
    owners: BTreeSet<String>,
}

#[derive(Default)]
struct Inner {
    /// Keyed by fingerprint; `BTreeMap` keeps iteration deterministic.
    entries: BTreeMap<u64, Entry>,
    /// Resident bytes of unpinned entries (budget domain).
    unpinned_bytes: usize,
    /// Resident bytes including pinned entries (reporting domain).
    total_bytes: usize,
    /// Bytes attributed per tenant.
    tenant_bytes: BTreeMap<String, usize>,
    /// Logical clock driving LRU order.
    clock: u64,
}

/// Point-in-time registry totals, for tests and the `/v1/datasets` listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Resident bytes including pinned entries.
    pub total_bytes: usize,
    /// Resident bytes of unpinned (evictable) entries.
    pub unpinned_bytes: usize,
    /// Number of resident datasets (pinned included).
    pub entries: usize,
    /// The configured unpinned-byte budget.
    pub budget_bytes: usize,
}

/// Content-addressed dataset store with budgeted, deterministic LRU
/// eviction and per-tenant byte accounting. Thread-safe behind one mutex —
/// operations are metadata-sized (parsing happens outside the lock).
pub struct DatasetRegistry {
    config: RegistryConfig,
    inner: Mutex<Inner>,
    telemetry: RwLock<RegistryTelemetry>,
}

impl fmt::Debug for DatasetRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("DatasetRegistry")
            .field("entries", &snap.entries)
            .field("total_bytes", &snap.total_bytes)
            .field("budget_bytes", &snap.budget_bytes)
            .finish()
    }
}

impl DatasetRegistry {
    /// Create an empty registry reporting `registry.*` metrics to the
    /// global telemetry registry.
    pub fn new(config: RegistryConfig) -> Self {
        DatasetRegistry {
            config,
            inner: Mutex::new(Inner::default()),
            telemetry: RwLock::new(RegistryTelemetry::from_registry(atena_telemetry::global())),
        }
    }

    /// Re-point telemetry at a private registry (tests, embedded servers).
    pub fn reroute_telemetry(&self, reg: &MetricsRegistry) {
        let mut t = self.telemetry.write().expect("telemetry lock poisoned");
        *t = RegistryTelemetry::from_registry(reg);
    }

    /// The configured limits (the server consults `limits.max_bytes` to
    /// refuse oversized Content-Length before buffering).
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    fn with_telemetry<R>(&self, f: impl FnOnce(&RegistryTelemetry) -> R) -> R {
        f(&self.telemetry.read().expect("telemetry lock poisoned"))
    }

    /// Register the checkpoint's baked-in dataset. Pinned entries are never
    /// evicted, never deletable, exempt from budget and tenant quotas.
    pub fn insert_pinned(&self, name: &str, frame: Arc<DataFrame>) -> DatasetInfo {
        let fingerprint = frame.fingerprint();
        let bytes = frame.approx_bytes();
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        let action = match inner.entries.get_mut(&fingerprint) {
            None => {
                inner.entries.insert(
                    fingerprint,
                    Entry {
                        frame,
                        name: name.to_string(),
                        bytes,
                        pinned: true,
                        last_used: clock,
                        owners: BTreeSet::new(),
                    },
                );
                PinAction::Inserted
            }
            Some(entry) if !entry.pinned => {
                // An identical dataset was uploaded earlier: promote it and
                // release its budget charge.
                entry.pinned = true;
                entry.last_used = clock;
                PinAction::Promoted
            }
            Some(_) => PinAction::AlreadyPinned,
        };
        match action {
            PinAction::Inserted => inner.total_bytes += bytes,
            PinAction::Promoted => inner.unpinned_bytes -= bytes,
            PinAction::AlreadyPinned => {}
        }
        let info = info_of(fingerprint, &inner.entries[&fingerprint]);
        self.publish_gauges(&inner);
        info
    }

    /// Ingest an upload for `tenant`: parse under the per-upload caps,
    /// dedupe by fingerprint, charge quotas, and evict LRU unpinned entries
    /// until the budget holds.
    pub fn ingest(
        &self,
        tenant: &str,
        name: &str,
        body: &[u8],
    ) -> Result<IngestOutcome, RegistryError> {
        self.with_telemetry(|t| t.inflight.set(t.inflight.get() + 1.0));
        let result = self.ingest_inner(tenant, name, body);
        self.with_telemetry(|t| {
            t.inflight.set((t.inflight.get() - 1.0).max(0.0));
            match &result {
                Ok(o) => {
                    t.uploads.inc();
                    if o.deduplicated {
                        t.dedup_hits.inc();
                    }
                }
                Err(_) => t.rejected.inc(),
            }
        });
        result
    }

    fn ingest_inner(
        &self,
        tenant: &str,
        name: &str,
        body: &[u8],
    ) -> Result<IngestOutcome, RegistryError> {
        let frame = ingest_csv(body, self.config.limits)?;
        self.insert(tenant, name, Arc::new(frame))
    }

    /// Insert an already-parsed frame (used by ingest and by offline CLI
    /// inspection paths that parse elsewhere).
    pub fn insert(
        &self,
        tenant: &str,
        name: &str,
        frame: Arc<DataFrame>,
    ) -> Result<IngestOutcome, RegistryError> {
        let fingerprint = frame.fingerprint();
        let bytes = frame.approx_bytes();
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.clock += 1;
        let clock = inner.clock;

        if inner.entries.contains_key(&fingerprint) {
            let (newly_owned, entry_bytes) = {
                let entry = inner.entries.get_mut(&fingerprint).expect("entry present");
                entry.last_used = clock;
                let newly_owned = !entry.pinned && entry.owners.insert(tenant.to_string());
                (newly_owned, entry.bytes)
            };
            if newly_owned {
                let used = inner.tenant_bytes.get(tenant).copied().unwrap_or(0);
                if used + entry_bytes > self.config.tenant_quota_bytes {
                    // Roll the ownership back; the dataset stays resident
                    // for its existing owners.
                    inner
                        .entries
                        .get_mut(&fingerprint)
                        .expect("entry present")
                        .owners
                        .remove(tenant);
                    return Err(RegistryError::TenantQuotaExceeded {
                        tenant: tenant.to_string(),
                        used,
                        quota: self.config.tenant_quota_bytes,
                    });
                }
                *inner.tenant_bytes.entry(tenant.to_string()).or_insert(0) += entry_bytes;
            }
            let info = info_of(fingerprint, &inner.entries[&fingerprint]);
            self.publish_gauges(&inner);
            return Ok(IngestOutcome {
                info,
                deduplicated: true,
                evicted: Vec::new(),
            });
        }

        if bytes > self.config.budget_bytes {
            return Err(RegistryError::ExceedsBudget {
                bytes,
                budget: self.config.budget_bytes,
            });
        }

        // Plan deterministic LRU evictions first (least-recent unpinned
        // entry, fingerprint as tie-break), then check the tenant quota
        // against the *post-eviction* attribution so a tenant whose own
        // stale datasets are about to be evicted is not double-charged.
        // Nothing is removed until the insert is known to succeed.
        let mut candidates: Vec<(u64, u64)> = inner
            .entries
            .iter()
            .filter(|(_, e)| !e.pinned)
            .map(|(fp, e)| (e.last_used, *fp))
            .collect();
        candidates.sort_unstable();
        let unpinned_count = candidates.len();
        let mut victims: Vec<u64> = Vec::new();
        let mut freed = 0usize;
        for &(_, fp) in &candidates {
            let fits_bytes = inner.unpinned_bytes - freed + bytes <= self.config.budget_bytes;
            let fits_count = unpinned_count - victims.len() < self.config.max_datasets;
            if fits_bytes && fits_count {
                break;
            }
            freed += inner.entries[&fp].bytes;
            victims.push(fp);
        }
        if inner.unpinned_bytes - freed + bytes > self.config.budget_bytes
            || unpinned_count - victims.len() + 1 > self.config.max_datasets
        {
            // Nothing evictable left; with bytes <= budget this is only
            // reachable via max_datasets == 0.
            return Err(RegistryError::ExceedsBudget {
                bytes,
                budget: self.config.budget_bytes,
            });
        }
        let credit: usize = victims
            .iter()
            .filter(|fp| inner.entries[fp].owners.contains(tenant))
            .map(|fp| inner.entries[fp].bytes)
            .sum();
        let used = inner.tenant_bytes.get(tenant).copied().unwrap_or(0);
        if used.saturating_sub(credit) + bytes > self.config.tenant_quota_bytes {
            return Err(RegistryError::TenantQuotaExceeded {
                tenant: tenant.to_string(),
                used,
                quota: self.config.tenant_quota_bytes,
            });
        }
        for &fp in &victims {
            Self::remove_entry(&mut inner, fp);
        }

        let mut owners = BTreeSet::new();
        owners.insert(tenant.to_string());
        inner.entries.insert(
            fingerprint,
            Entry {
                frame,
                name: name.to_string(),
                bytes,
                pinned: false,
                last_used: clock,
                owners,
            },
        );
        inner.unpinned_bytes += bytes;
        inner.total_bytes += bytes;
        *inner.tenant_bytes.entry(tenant.to_string()).or_insert(0) += bytes;

        let info = info_of(fingerprint, &inner.entries[&fingerprint]);
        self.publish_gauges(&inner);
        if !victims.is_empty() {
            self.with_telemetry(|t| t.evictions.add(victims.len() as u64));
        }
        Ok(IngestOutcome {
            info,
            deduplicated: false,
            evicted: victims,
        })
    }

    /// Remove `fp` from the maps, crediting owners. Caller updates gauges.
    fn remove_entry(inner: &mut Inner, fp: u64) -> Option<Entry> {
        let entry = inner.entries.remove(&fp)?;
        if !entry.pinned {
            inner.unpinned_bytes -= entry.bytes;
        }
        inner.total_bytes -= entry.bytes;
        for owner in &entry.owners {
            if let Some(used) = inner.tenant_bytes.get_mut(owner) {
                *used = used.saturating_sub(entry.bytes);
            }
        }
        Some(entry)
    }

    /// Resolve a dataset id to its frame, bumping LRU recency.
    pub fn get(&self, dataset_id: &str) -> Option<(Arc<DataFrame>, DatasetInfo)> {
        let fp = match parse_dataset_id(dataset_id) {
            Some(fp) => fp,
            None => {
                self.with_telemetry(|t| t.misses.inc());
                return None;
            }
        };
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(&fp) {
            Some(entry) => {
                entry.last_used = clock;
                let out = (entry.frame.clone(), info_of(fp, entry));
                drop(inner);
                self.with_telemetry(|t| t.hits.inc());
                Some(out)
            }
            None => {
                drop(inner);
                self.with_telemetry(|t| t.misses.inc());
                None
            }
        }
    }

    /// Delete an unpinned dataset by id.
    pub fn delete(&self, dataset_id: &str) -> Result<DatasetInfo, RegistryError> {
        let fp = parse_dataset_id(dataset_id).ok_or_else(|| RegistryError::NotFound {
            dataset_id: dataset_id.to_string(),
        })?;
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        match inner.entries.get(&fp) {
            None => Err(RegistryError::NotFound {
                dataset_id: dataset_id.to_string(),
            }),
            Some(entry) if entry.pinned => Err(RegistryError::Pinned {
                dataset_id: dataset_id.to_string(),
            }),
            Some(_) => {
                let entry = Self::remove_entry(&mut inner, fp).expect("entry present");
                let info = info_of(fp, &entry);
                self.publish_gauges(&inner);
                self.with_telemetry(|t| t.deletes.inc());
                Ok(info)
            }
        }
    }

    /// All resident datasets, ordered by id (deterministic).
    pub fn list(&self) -> Vec<DatasetInfo> {
        let inner = self.inner.lock().expect("registry lock poisoned");
        inner
            .entries
            .iter()
            .map(|(fp, e)| info_of(*fp, e))
            .collect()
    }

    /// Current totals.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry lock poisoned");
        RegistrySnapshot {
            total_bytes: inner.total_bytes,
            unpinned_bytes: inner.unpinned_bytes,
            entries: inner.entries.len(),
            budget_bytes: self.config.budget_bytes,
        }
    }

    /// Bytes currently attributed to `tenant`.
    pub fn tenant_bytes(&self, tenant: &str) -> usize {
        let inner = self.inner.lock().expect("registry lock poisoned");
        inner.tenant_bytes.get(tenant).copied().unwrap_or(0)
    }

    fn publish_gauges(&self, inner: &Inner) {
        self.with_telemetry(|t| {
            t.bytes.set(inner.total_bytes as f64);
            t.entries.set(inner.entries.len() as f64);
        });
    }
}

fn info_of(fp: u64, entry: &Entry) -> DatasetInfo {
    DatasetInfo {
        dataset_id: dataset_id_for_fingerprint(fp),
        name: entry.name.clone(),
        rows: entry.frame.n_rows(),
        cols: entry.frame.n_cols(),
        bytes: entry.bytes,
        fingerprint: fp,
        pinned: entry.pinned,
        tenants: entry.owners.iter().cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv(rows: usize, tag: &str) -> String {
        let mut s = String::from("k,v\n");
        for i in 0..rows {
            s.push_str(&format!("{tag}{i},{i}\n"));
        }
        s
    }

    fn small_registry(budget: usize) -> DatasetRegistry {
        DatasetRegistry::new(RegistryConfig {
            budget_bytes: budget,
            max_datasets: 64,
            tenant_quota_bytes: budget,
            limits: CsvLimits::unlimited(),
        })
    }

    #[test]
    fn upload_then_get_round_trips() {
        let reg = small_registry(1 << 20);
        let out = reg.ingest("t1", "demo", csv(10, "a").as_bytes()).unwrap();
        assert!(!out.deduplicated);
        let (frame, info) = reg.get(&out.info.dataset_id).unwrap();
        assert_eq!(frame.n_rows(), 10);
        assert_eq!(info.fingerprint, frame.fingerprint());
        assert_eq!(
            info.dataset_id,
            dataset_id_for_fingerprint(info.fingerprint)
        );
    }

    #[test]
    fn duplicate_upload_dedupes_to_one_entry() {
        let reg = small_registry(1 << 20);
        let a = reg.ingest("t1", "demo", csv(10, "a").as_bytes()).unwrap();
        let b = reg
            .ingest("t2", "other-name", csv(10, "a").as_bytes())
            .unwrap();
        assert!(b.deduplicated);
        assert_eq!(a.info.dataset_id, b.info.dataset_id);
        assert_eq!(reg.snapshot().entries, 1);
        // Both tenants are charged for their reference.
        assert_eq!(reg.tenant_bytes("t1"), a.info.bytes);
        assert_eq!(reg.tenant_bytes("t2"), a.info.bytes);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_budget_holds() {
        let one = csv(50, "a");
        let size = ingest_csv(one.as_bytes(), CsvLimits::unlimited())
            .unwrap()
            .approx_bytes();
        // Budget fits two datasets of this shape but not three.
        let reg = small_registry(size * 2 + size / 2);
        let a = reg.ingest("t", "a", csv(50, "a").as_bytes()).unwrap();
        let b = reg.ingest("t", "b", csv(50, "b").as_bytes()).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        assert!(reg.get(&a.info.dataset_id).is_some());
        let c = reg.ingest("t", "c", csv(50, "c").as_bytes()).unwrap();
        assert!(reg.get(&b.info.dataset_id).is_none(), "b was LRU, evicted");
        assert!(reg.get(&a.info.dataset_id).is_some());
        assert!(reg.get(&c.info.dataset_id).is_some());
        let snap = reg.snapshot();
        assert!(snap.unpinned_bytes <= snap.budget_bytes);
        // The evicted dataset's bytes were credited back to the tenant.
        assert_eq!(reg.tenant_bytes("t"), a.info.bytes + c.info.bytes);
    }

    #[test]
    fn insert_reports_the_fingerprints_it_evicts() {
        let size = ingest_csv(csv(50, "a").as_bytes(), CsvLimits::unlimited())
            .unwrap()
            .approx_bytes();
        // Room for two datasets of this shape: the fourth upload evicts
        // the two least recently used at once.
        let reg = small_registry(size * 2 + size / 2);
        let a = reg.ingest("t", "a", csv(50, "a").as_bytes()).unwrap();
        let b = reg.ingest("t", "b", csv(50, "b").as_bytes()).unwrap();
        assert!(a.evicted.is_empty() && b.evicted.is_empty());
        let c = reg.ingest("t", "c", csv(50, "c").as_bytes()).unwrap();
        assert_eq!(c.evicted, vec![a.info.fingerprint]);
        let big = reg.ingest("t", "d", csv(100, "d").as_bytes()).unwrap();
        assert_eq!(big.evicted, vec![b.info.fingerprint, c.info.fingerprint]);
        let again = reg.ingest("u", "d", csv(100, "d").as_bytes()).unwrap();
        assert!(again.deduplicated && again.evicted.is_empty());
    }

    #[test]
    fn pinned_entries_survive_pressure_and_refuse_delete() {
        let frame = Arc::new(DataFrame::from_csv_str(&csv(50, "pin")).unwrap());
        let size = frame.approx_bytes();
        let reg = small_registry(size);
        let pinned = reg.insert_pinned("baked", frame);
        // Fill the budget with uploads; the pinned entry must survive.
        for tag in ["x", "y", "z"] {
            reg.ingest("t", tag, csv(50, tag).as_bytes()).unwrap();
        }
        assert!(reg.get(&pinned.dataset_id).is_some());
        assert!(matches!(
            reg.delete(&pinned.dataset_id),
            Err(RegistryError::Pinned { .. })
        ));
        let snap = reg.snapshot();
        assert!(snap.unpinned_bytes <= snap.budget_bytes);
    }

    #[test]
    fn tenant_quota_rejects_without_evicting() {
        let one = csv(50, "a");
        let size = ingest_csv(one.as_bytes(), CsvLimits::unlimited())
            .unwrap()
            .approx_bytes();
        let reg = DatasetRegistry::new(RegistryConfig {
            budget_bytes: size * 10,
            max_datasets: 64,
            tenant_quota_bytes: size + size / 2,
            limits: CsvLimits::unlimited(),
        });
        reg.ingest("t", "a", csv(50, "a").as_bytes()).unwrap();
        let err = reg.ingest("t", "b", csv(50, "b").as_bytes()).unwrap_err();
        assert!(matches!(err, RegistryError::TenantQuotaExceeded { .. }));
        // Another tenant is unaffected.
        reg.ingest("u", "b", csv(50, "b").as_bytes()).unwrap();
        assert_eq!(reg.snapshot().entries, 2);
    }

    #[test]
    fn quota_applies_to_dedup_references_too() {
        let one = csv(50, "a");
        let size = ingest_csv(one.as_bytes(), CsvLimits::unlimited())
            .unwrap()
            .approx_bytes();
        let reg = DatasetRegistry::new(RegistryConfig {
            budget_bytes: size * 10,
            max_datasets: 64,
            tenant_quota_bytes: size + size / 2,
            limits: CsvLimits::unlimited(),
        });
        reg.ingest("t", "a", csv(50, "a").as_bytes()).unwrap();
        reg.ingest("u", "b", csv(50, "b").as_bytes()).unwrap();
        // `t` referencing `b`'s dataset would exceed `t`'s quota.
        let err = reg.ingest("t", "b", csv(50, "b").as_bytes()).unwrap_err();
        assert!(matches!(err, RegistryError::TenantQuotaExceeded { .. }));
        // The rollback left `u`'s ownership intact.
        assert_eq!(reg.tenant_bytes("u"), size);
    }

    #[test]
    fn delete_then_get_is_miss() {
        let reg = small_registry(1 << 20);
        let out = reg.ingest("t", "a", csv(5, "a").as_bytes()).unwrap();
        reg.delete(&out.info.dataset_id).unwrap();
        assert!(reg.get(&out.info.dataset_id).is_none());
        assert!(matches!(
            reg.delete(&out.info.dataset_id),
            Err(RegistryError::NotFound { .. })
        ));
        assert_eq!(reg.tenant_bytes("t"), 0);
    }

    #[test]
    fn upload_caps_classify_as_too_large() {
        let reg = DatasetRegistry::new(RegistryConfig {
            budget_bytes: 1 << 20,
            max_datasets: 64,
            tenant_quota_bytes: 1 << 20,
            limits: CsvLimits {
                max_bytes: 64,
                max_rows: 1000,
                max_cols: 16,
            },
        });
        let err = reg
            .ingest("t", "big", csv(100, "a").as_bytes())
            .unwrap_err();
        assert!(matches!(err, RegistryError::UploadTooLarge(_)));
        let err = reg.ingest("t", "bad", b"a,b\n\"oops\n").unwrap_err();
        assert!(matches!(err, RegistryError::Malformed(_)));
    }

    #[test]
    fn telemetry_counters_are_monotone() {
        let metrics = MetricsRegistry::new();
        let reg = small_registry(1 << 20);
        reg.reroute_telemetry(&metrics);
        reg.ingest("t", "a", csv(5, "a").as_bytes()).unwrap();
        reg.ingest("t", "a2", csv(5, "a").as_bytes()).unwrap();
        reg.ingest("t", "bad", b"\"oops\n").unwrap_err();
        let id = dataset_id_for_fingerprint(
            ingest_csv(csv(5, "a").as_bytes(), CsvLimits::unlimited())
                .unwrap()
                .fingerprint(),
        );
        reg.get(&id);
        reg.get("ds-0000000000000000");
        reg.delete(&id).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("registry.uploads"), Some(2));
        assert_eq!(snap.counter("registry.dedup_hits"), Some(1));
        assert_eq!(snap.counter("registry.ingest.rejected"), Some(1));
        assert_eq!(snap.counter("registry.hits"), Some(1));
        assert_eq!(snap.counter("registry.misses"), Some(1));
        assert_eq!(snap.counter("registry.deletes"), Some(1));
    }

    #[test]
    fn dataset_id_round_trip() {
        assert_eq!(parse_dataset_id(&dataset_id_for_fingerprint(0)), Some(0));
        assert_eq!(
            parse_dataset_id(&dataset_id_for_fingerprint(u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(parse_dataset_id("ds-zz"), None);
        assert_eq!(parse_dataset_id("nope"), None);
        assert_eq!(parse_dataset_id("ds-00000000000000001"), None);
    }
}
