//! Logarithmic frequency binning of filter terms (paper §5).
//!
//! The filter `term` domain — all tokens in the current display — is far too
//! large for a dedicated output node per token. Instead the agent picks one
//! of `B` *frequency ranges*; a concrete token whose frequency of appearance
//! falls in that range is then sampled uniformly at random. Token
//! frequencies are heavy-tailed (Zipfian), so the ranges are logarithmic.

use atena_dataframe::{Column, Value};
use rand::Rng;

/// Partition of a column's distinct tokens into `B` logarithmic frequency
/// bins. Bin `B-1` holds the most frequent tokens, bin `0` the rarest.
#[derive(Debug, Clone)]
pub struct FrequencyBins {
    bins: Vec<Vec<Value>>,
}

impl FrequencyBins {
    /// Bin the distinct non-null tokens of `column` by frequency.
    ///
    /// A token with frequency `f` (out of max frequency `f_max`) lands in
    /// bin `floor(B · ln(f) / ln(f_max + 1))`, clamped to `B-1` — a
    /// logarithmic division as suggested by Zipf's-law-distributed token
    /// frequencies (paper cites \[31\]).
    pub fn build(column: &Column, n_bins: usize) -> Self {
        assert!(n_bins > 0, "need at least one bin");
        let counts = column.value_counts();
        let mut bins = vec![Vec::new(); n_bins];
        let f_max = counts.values().copied().max().unwrap_or(0);
        if f_max == 0 {
            return Self { bins };
        }
        let denom = ((f_max + 1) as f64).ln();
        // Deterministic iteration order: sort tokens.
        let mut entries: Vec<(Value, usize)> =
            counts.into_iter().map(|(k, c)| (k.to_value(), c)).collect();
        entries.sort_by(|a, b| a.0.to_string().cmp(&b.0.to_string()).then(a.1.cmp(&b.1)));
        for (value, f) in entries {
            let idx = if denom <= 0.0 {
                0
            } else {
                (((f as f64).ln() / denom) * n_bins as f64).floor() as usize
            };
            bins[idx.min(n_bins - 1)].push(value);
        }
        Self { bins }
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Tokens in bin `idx`.
    pub fn bin(&self, idx: usize) -> &[Value] {
        &self.bins[idx]
    }

    /// True if every bin is empty (column was all nulls / empty).
    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(Vec::is_empty)
    }

    /// Sample a token uniformly at random from bin `idx`.
    ///
    /// If the requested bin is empty, the nearest non-empty bin is used
    /// (ties resolved toward lower-frequency bins), so a valid action always
    /// produces a term as long as the column has any values. Returns `None`
    /// only when all bins are empty.
    pub fn sample<R: Rng + ?Sized>(&self, idx: usize, rng: &mut R) -> Option<Value> {
        let idx = idx.min(self.bins.len().saturating_sub(1));
        let chosen = if self.bins[idx].is_empty() {
            self.nearest_non_empty(idx)?
        } else {
            idx
        };
        let bin = &self.bins[chosen];
        Some(bin[rng.gen_range(0..bin.len())].clone())
    }

    fn nearest_non_empty(&self, idx: usize) -> Option<usize> {
        let n = self.bins.len();
        for d in 1..n {
            if idx >= d && !self.bins[idx - d].is_empty() {
                return Some(idx - d);
            }
            if idx + d < n && !self.bins[idx + d].is_empty() {
                return Some(idx + d);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::ValueRef;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A column with Zipf-ish frequencies: "a"×64, "b"×8, "c"×2, "d"×1.
    fn zipf_column() -> Column {
        let mut vals = Vec::new();
        for _ in 0..64 {
            vals.push(Some("a"));
        }
        for _ in 0..8 {
            vals.push(Some("b"));
        }
        vals.push(Some("c"));
        vals.push(Some("c"));
        vals.push(Some("d"));
        Column::from_strs(vals)
    }

    #[test]
    fn frequent_tokens_land_in_high_bins() {
        let bins = FrequencyBins::build(&zipf_column(), 4);
        // "a" (f=64) must be in the top bin, "d" (f=1) in bin 0.
        assert!(bins.bin(3).contains(&Value::Str("a".into())));
        assert!(bins.bin(0).contains(&Value::Str("d".into())));
        // "b" strictly between.
        let b_bin = (0..4)
            .find(|&i| bins.bin(i).contains(&Value::Str("b".into())))
            .unwrap();
        assert!(b_bin > 0 && b_bin < 3, "b in bin {b_bin}");
    }

    #[test]
    fn all_tokens_assigned_exactly_once() {
        let bins = FrequencyBins::build(&zipf_column(), 4);
        let total: usize = (0..4).map(|i| bins.bin(i).len()).sum();
        assert_eq!(total, 4); // 4 distinct tokens
    }

    #[test]
    fn uniform_column_single_bin() {
        let col = Column::from_ints((0..10).map(Some));
        let bins = FrequencyBins::build(&col, 5);
        // All tokens have frequency 1 -> ln(1)=0 -> bin 0.
        assert_eq!(bins.bin(0).len(), 10);
        assert!(!bins.is_empty());
    }

    #[test]
    fn sampling_falls_back_to_nearest_bin() {
        let col = Column::from_ints((0..10).map(Some));
        let bins = FrequencyBins::build(&col, 5);
        let mut rng = StdRng::seed_from_u64(1);
        // Bin 4 is empty; fallback should find bin 0.
        let v = bins.sample(4, &mut rng).unwrap();
        assert!(matches!(v.as_ref(), ValueRef::Int(_)));
    }

    #[test]
    fn empty_column_yields_none() {
        let col = Column::from_strs(vec![None, None]);
        let bins = FrequencyBins::build(&col, 3);
        assert!(bins.is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(bins.sample(0, &mut rng).is_none());
    }

    #[test]
    fn sample_is_uniform_within_bin() {
        let col = Column::from_ints((0..4).map(Some));
        let bins = FrequencyBins::build(&col, 2);
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            if let Some(Value::Int(v)) = bins.sample(0, &mut rng) {
                seen.insert(v);
            }
        }
        assert_eq!(seen.len(), 4, "all tokens should be sampled eventually");
    }

    #[test]
    fn out_of_range_bin_is_clamped() {
        let bins = FrequencyBins::build(&zipf_column(), 4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(bins.sample(99, &mut rng).is_some());
    }
}
