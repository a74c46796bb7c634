//! Stable content hashing for frames and scalar values.
//!
//! The display cache (DESIGN.md §4i) keys entries by a hash of the dataset
//! content plus the exact operation path. `std::collections::hash_map::DefaultHasher`
//! is explicitly not guaranteed stable across releases, so cache keys use
//! this hand-rolled FNV-1a/splitmix construction instead: the same bytes
//! hash to the same 64-bit key on every platform, toolchain, and run.

use crate::column::Column;
use crate::frame::DataFrame;
use crate::value::{canonical_f64_bits, Value, ValueRef};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic, platform-independent 64-bit hasher (FNV-1a over bytes,
/// finished with a splitmix64-style avalanche).
///
/// Unlike [`std::hash::Hasher`] implementations, the output is part of this
/// crate's compatibility contract: it feeds content-addressed cache keys.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one byte (used as a variant/discriminant tag).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize` (widened to `u64` so 32/64-bit targets agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb a string: length prefix plus UTF-8 bytes, so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Absorb a scalar value: a variant tag followed by a canonical payload
    /// (floats via the same bit canonicalization as [`crate::ValueKey`], so
    /// `-0.0` and `0.0` — and all NaNs — hash alike, matching key equality).
    pub fn write_value(&mut self, v: ValueRef<'_>) {
        match v {
            ValueRef::Null => self.write_u8(0),
            ValueRef::Bool(b) => {
                self.write_u8(1);
                self.write_u8(u8::from(b));
            }
            ValueRef::Int(i) => {
                self.write_u8(2);
                self.write_u64(i as u64);
            }
            ValueRef::Float(f) => {
                self.write_u8(3);
                self.write_u64(canonical_f64_bits(f));
            }
            ValueRef::Str(s) => {
                self.write_u8(4);
                self.write_str(s);
            }
        }
    }

    /// Absorb an owned scalar value.
    pub fn write_owned_value(&mut self, v: &Value) {
        self.write_value(v.as_ref());
    }

    /// Final avalanche (splitmix64 finalizer) so that short inputs still
    /// spread over all 64 bits — cache shards select on the low bits.
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn hash_column(h: &mut StableHasher, col: &Column) {
    h.write_usize(col.len());
    for i in 0..col.len() {
        h.write_value(col.get(i));
    }
}

impl DataFrame {
    /// A stable 64-bit fingerprint of the frame's full content: schema
    /// (names, dtypes, roles) and every cell value, row by row.
    ///
    /// Two frames with equal content always fingerprint equally regardless
    /// of how they were built (dictionary encoding order, filter history).
    /// The value is memoized per frame and shared across clones, so repeated
    /// calls are O(1).
    pub fn fingerprint(&self) -> u64 {
        *self.memo().fingerprint.get_or_init(|| {
            let mut h = StableHasher::new();
            h.write_usize(self.n_rows());
            h.write_usize(self.n_cols());
            for (i, field) in self.schema().fields().iter().enumerate() {
                h.write_str(&field.name);
                h.write_u8(field.dtype as u8);
                h.write_u8(field.role as u8);
                hash_column(&mut h, self.column_at(i));
            }
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CmpOp, Predicate};
    use crate::schema::AttrRole;

    fn sample() -> DataFrame {
        DataFrame::builder()
            .str(
                "k",
                AttrRole::Categorical,
                vec![Some("b"), Some("a"), Some("b"), None],
            )
            .float(
                "x",
                AttrRole::Numeric,
                vec![Some(1.5), Some(-0.0), Some(f64::NAN), Some(2.0)],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn fingerprint_is_stable_across_clones_and_calls() {
        let df = sample();
        let f1 = df.fingerprint();
        assert_eq!(df.fingerprint(), f1);
        assert_eq!(df.clone().fingerprint(), f1);
    }

    #[test]
    fn fingerprint_ignores_dictionary_encoding_order() {
        // Same content, different row construction order after a sort: the
        // sorted frames have identical rows, so identical fingerprints, even
        // though their string dictionaries were built in different orders.
        let a = sample().sort_by("k", false).unwrap();
        let b = sample()
            .sort_by("k", true)
            .unwrap()
            .sort_by("k", false)
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        let df = sample();
        let filtered = df.filter(&Predicate::new("k", CmpOp::Eq, "b")).unwrap();
        assert_ne!(df.fingerprint(), filtered.fingerprint());
        // Canonical float handling: -0.0 hashes like 0.0.
        let mut h1 = StableHasher::new();
        h1.write_value(ValueRef::Float(-0.0));
        let mut h2 = StableHasher::new();
        h2.write_value(ValueRef::Float(0.0));
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn hasher_separates_string_boundaries() {
        let mut h1 = StableHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StableHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }
}
