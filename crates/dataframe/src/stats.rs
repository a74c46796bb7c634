//! Column statistics backing the observation-vector encoding and the
//! interestingness rewards: entropy, distinct counts, null counts, value
//! probability distributions, and numeric summaries.

use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::value::ValueKey;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Descriptive statistics of a single column, as consumed by the
/// observation-vector encoder (paper §4.1: "three descriptive features for
/// each attribute: its values' entropy, number of distinct values, and the
/// number of null values").
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Shannon entropy (bits) of the non-null value distribution.
    pub entropy: f64,
    /// Number of distinct non-null values.
    pub n_distinct: usize,
    /// Number of null entries.
    pub n_nulls: usize,
    /// Number of rows.
    pub n_rows: usize,
}

impl ColumnStats {
    /// Entropy normalized to \[0,1\] by the maximum achievable entropy
    /// (`log2(n_distinct)`), or 0 for constant columns.
    pub fn normalized_entropy(&self) -> f64 {
        if self.n_distinct <= 1 {
            0.0
        } else {
            self.entropy / (self.n_distinct as f64).log2()
        }
    }

    /// Fraction of rows that are distinct values (unique ratio).
    pub fn distinct_ratio(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.n_distinct as f64 / self.n_rows as f64
        }
    }

    /// Fraction of rows that are null.
    pub fn null_ratio(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.n_nulls as f64 / self.n_rows as f64
        }
    }
}

/// Shannon entropy (bits) of a frequency table.
///
/// Counts are sorted before accumulation so the result does not depend on
/// hash-map iteration order (bit-exact reproducibility of rewards). Equal
/// counts are adjacent once sorted, so each run computes its term once.
pub fn entropy_of_counts<'a, I: IntoIterator<Item = &'a usize>>(counts: I) -> f64 {
    let mut counts: Vec<usize> = counts.into_iter().copied().filter(|&c| c > 0).collect();
    counts.sort_unstable();
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    let mut last: Option<(usize, f64)> = None;
    counts
        .iter()
        .map(|&c| match last {
            Some((prev, term)) if prev == c => term,
            _ => {
                let p = c as f64 / total;
                let term = -p * p.log2();
                last = Some((c, term));
                term
            }
        })
        .sum()
}

/// A discrete probability distribution over values of one attribute,
/// used by the KL-divergence interestingness reward for filters.
#[derive(Debug, Clone, Default)]
pub struct ValueDistribution {
    probs: BTreeMap<ValueKey, f64>,
}

impl ValueDistribution {
    /// Build from value counts.
    pub fn from_counts(counts: &BTreeMap<ValueKey, usize>) -> Self {
        let total: usize = counts.values().sum();
        if total == 0 {
            return Self::default();
        }
        let total = total as f64;
        let probs = counts
            .iter()
            .map(|(k, &c)| (k.clone(), c as f64 / total))
            .collect();
        Self { probs }
    }

    /// True if the distribution has no support.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Number of distinct values in the support.
    pub fn support_size(&self) -> usize {
        self.probs.len()
    }

    /// Probability of a value (0 if absent).
    pub fn prob(&self, key: &ValueKey) -> f64 {
        self.probs.get(key).copied().unwrap_or(0.0)
    }

    /// Kullback–Leibler divergence `D_KL(self ‖ other)` in bits.
    ///
    /// The reference distribution is smoothed with `epsilon` mass on values
    /// present in `self` but absent in `other`, so the divergence is finite
    /// — the filtered subset always has values drawn from the parent display
    /// in the EDA setting, but aggregates can produce genuinely new values.
    pub fn kl_divergence(&self, other: &ValueDistribution) -> f64 {
        const EPSILON: f64 = 1e-6;
        if self.is_empty() {
            return 0.0;
        }
        // BTreeMap iterates in key order, so the float accumulation order
        // is deterministic by construction (bit-exact reward reproducibility;
        // this used to sort a HashMap's entries before accumulating).
        let mut kl = 0.0;
        for (k, &p) in &self.probs {
            if p <= 0.0 {
                continue;
            }
            let q = other.prob(k).max(EPSILON);
            kl += p * (p / q).log2();
        }
        kl.max(0.0)
    }
}

impl DataFrame {
    /// Statistics for every column as a borrowed slice, computed once per
    /// frame and shared by clones (see `memo.rs` for the soundness argument).
    fn stats_slice(&self) -> &[ColumnStats] {
        self.memo().stats.get_or_init(|| {
            (0..self.n_cols())
                .map(|i| stats_of(self.column_at(i)))
                .collect()
        })
    }

    /// Descriptive statistics for one column.
    pub fn column_stats(&self, name: &str) -> Result<ColumnStats> {
        let idx = self.schema().index_of(name)?;
        Ok(self.stats_slice()[idx].clone())
    }

    /// Statistics for every column, in schema order.
    pub fn all_column_stats(&self) -> Vec<ColumnStats> {
        self.stats_slice().to_vec()
    }

    /// Value probability distribution of one column (non-null values).
    pub fn value_distribution(&self, name: &str) -> Result<ValueDistribution> {
        Ok((*self.value_distribution_shared(name)?).clone())
    }

    /// Like [`DataFrame::value_distribution`], but returns the memoized,
    /// `Arc`-shared distribution — the hot path for the KL-divergence
    /// interestingness reward, which queries the same (frame, attribute)
    /// pair once per step of every episode that visits the display.
    pub fn value_distribution_shared(&self, name: &str) -> Result<Arc<ValueDistribution>> {
        if let Some(d) = self.memo().distributions.lock().unwrap().get(name) {
            return Ok(Arc::clone(d));
        }
        let col = self.column(name)?;
        let dist = Arc::new(ValueDistribution::from_counts(&col.value_counts()));
        self.memo()
            .distributions
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Arc::clone(&dist));
        Ok(dist)
    }

    /// A per-column summary table (name, dtype, rows, nulls, distinct,
    /// entropy, mean, min, max) — the `describe()` overview an analyst
    /// opens a session with.
    pub fn describe(&self) -> DataFrame {
        use crate::column::Column;
        use crate::schema::{AttrRole, Field};
        use crate::value::DType;
        let n = self.n_cols();
        let mut names = Vec::with_capacity(n);
        let mut dtypes = Vec::with_capacity(n);
        let mut nulls = Vec::with_capacity(n);
        let mut distinct = Vec::with_capacity(n);
        let mut entropies = Vec::with_capacity(n);
        let mut means = Vec::with_capacity(n);
        let mut mins = Vec::with_capacity(n);
        let mut maxs = Vec::with_capacity(n);
        for (i, field) in self.schema().fields().iter().enumerate() {
            let col = self.column_at(i);
            let st = stats_of(col);
            names.push(Some(field.name.clone()));
            dtypes.push(Some(field.dtype.name()));
            nulls.push(Some(st.n_nulls as i64));
            distinct.push(Some(st.n_distinct as i64));
            entropies.push(Some(st.entropy));
            let summary = {
                let vals: Vec<f64> = col.iter().filter_map(|v| v.as_f64()).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(NumericSummary::from_values(&vals))
                }
            };
            means.push(summary.map(|s| s.mean));
            mins.push(summary.map(|s| s.min));
            maxs.push(summary.map(|s| s.max));
        }
        DataFrame::new(vec![
            (Field::new("column", DType::Str, AttrRole::Text), {
                let mut c = crate::column::StrColumn::new();
                for v in &names {
                    c.push(v.as_deref());
                }
                Column::Str(c)
            }),
            (
                Field::new("dtype", DType::Str, AttrRole::Categorical),
                Column::from_strs(dtypes.into_iter()),
            ),
            (
                Field::new("nulls", DType::Int, AttrRole::Numeric),
                Column::from_ints(nulls),
            ),
            (
                Field::new("distinct", DType::Int, AttrRole::Numeric),
                Column::from_ints(distinct),
            ),
            (
                Field::new("entropy", DType::Float, AttrRole::Numeric),
                Column::from_floats(entropies),
            ),
            (
                Field::new("mean", DType::Float, AttrRole::Numeric),
                Column::from_floats(means),
            ),
            (
                Field::new("min", DType::Float, AttrRole::Numeric),
                Column::from_floats(mins),
            ),
            (
                Field::new("max", DType::Float, AttrRole::Numeric),
                Column::from_floats(maxs),
            ),
        ])
        .expect("describe schema is consistent")
    }

    /// Numeric summary (mean, variance) of one numeric column; `None` for
    /// non-numeric columns or when all values are null.
    pub fn numeric_summary(&self, name: &str) -> Result<Option<NumericSummary>> {
        let col = self.column(name)?;
        let vals: Vec<f64> = col.iter().filter_map(|v| v.as_f64()).collect();
        if vals.is_empty() {
            return Ok(None);
        }
        Ok(Some(NumericSummary::from_values(&vals)))
    }
}

/// Mean / variance / min / max of a numeric sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample size.
    pub n: usize,
}

impl NumericSummary {
    /// Compute from a non-empty slice.
    pub fn from_values(vals: &[f64]) -> Self {
        let n = vals.len();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let variance = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            mean,
            variance,
            min,
            max,
            n,
        }
    }
}

fn stats_of(col: &Column) -> ColumnStats {
    let counts = col.distinct_counts();
    ColumnStats {
        entropy: entropy_of_counts(&counts),
        n_distinct: counts.len(),
        n_nulls: col.null_count(),
        n_rows: col.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrRole;

    #[test]
    fn entropy_uniform_and_constant() {
        // Uniform over 4 values: entropy = 2 bits.
        let h = entropy_of_counts([10usize, 10, 10, 10].iter());
        assert!((h - 2.0).abs() < 1e-12);
        // Constant: 0 bits.
        let h = entropy_of_counts([42usize].iter());
        assert_eq!(h, 0.0);
        // Empty: 0 bits.
        assert_eq!(entropy_of_counts([].iter()), 0.0);
    }

    #[test]
    fn entropy_terms_are_reused_without_changing_bits() {
        // The sum every term computed afresh, in sorted-count order.
        let direct = |counts: &[usize]| -> f64 {
            let mut sorted = counts.to_vec();
            sorted.sort_unstable();
            let total = sorted.iter().sum::<usize>() as f64;
            sorted
                .iter()
                .map(|&c| -(c as f64 / total) * (c as f64 / total).log2())
                .sum()
        };
        for counts in [vec![1, 1, 1, 3, 1, 7, 3], vec![5; 9], vec![2, 9, 4]] {
            assert_eq!(
                entropy_of_counts(&counts).to_bits(),
                direct(&counts).to_bits()
            );
        }
    }

    #[test]
    fn column_stats_counts() {
        let df = DataFrame::builder()
            .str(
                "s",
                AttrRole::Categorical,
                vec![Some("a"), Some("a"), Some("b"), None],
            )
            .build()
            .unwrap();
        let st = df.column_stats("s").unwrap();
        assert_eq!(st.n_distinct, 2);
        assert_eq!(st.n_nulls, 1);
        assert_eq!(st.n_rows, 4);
        assert!(st.entropy > 0.0);
        assert!(st.normalized_entropy() <= 1.0);
        assert!((st.null_ratio() - 0.25).abs() < 1e-12);
        assert!((st.distinct_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_entropy_of_constant_is_zero() {
        let st = ColumnStats {
            entropy: 0.0,
            n_distinct: 1,
            n_nulls: 0,
            n_rows: 5,
        };
        assert_eq!(st.normalized_entropy(), 0.0);
    }

    #[test]
    fn kl_divergence_identical_is_zero() {
        let mut c = BTreeMap::new();
        c.insert(ValueKey::Int(1), 5usize);
        c.insert(ValueKey::Int(2), 5usize);
        let d = ValueDistribution::from_counts(&c);
        assert!(d.kl_divergence(&d) < 1e-12);
    }

    #[test]
    fn kl_divergence_detects_shift() {
        let mut base = BTreeMap::new();
        base.insert(ValueKey::Int(1), 50usize);
        base.insert(ValueKey::Int(2), 50usize);
        let p_base = ValueDistribution::from_counts(&base);

        let mut skew = BTreeMap::new();
        skew.insert(ValueKey::Int(1), 99usize);
        skew.insert(ValueKey::Int(2), 1usize);
        let p_skew = ValueDistribution::from_counts(&skew);

        let kl = p_skew.kl_divergence(&p_base);
        assert!(kl > 0.5, "skewed vs uniform should diverge, got {kl}");
    }

    #[test]
    fn kl_divergence_missing_support_is_finite() {
        let mut a = BTreeMap::new();
        a.insert(ValueKey::Str("only-here".into()), 10usize);
        let pa = ValueDistribution::from_counts(&a);
        let empty = ValueDistribution::default();
        let kl = pa.kl_divergence(&empty);
        assert!(kl.is_finite());
        assert!(kl > 0.0);
    }

    #[test]
    fn numeric_summary_basics() {
        let s = NumericSummary::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.n, 4);
        assert!((s.variance - 1.25).abs() < 1e-12);
    }

    #[test]
    fn numeric_summary_of_string_column_is_none() {
        let df = DataFrame::builder()
            .str("s", AttrRole::Text, vec![Some("a")])
            .build()
            .unwrap();
        assert!(df.numeric_summary("s").unwrap().is_none());
    }

    #[test]
    fn describe_covers_all_columns() {
        let df = DataFrame::builder()
            .str("name", AttrRole::Text, vec![Some("a"), Some("b"), None])
            .int("x", AttrRole::Numeric, vec![Some(1), Some(5), Some(3)])
            .build()
            .unwrap();
        let d = df.describe();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(
            d.schema().names(),
            vec!["column", "dtype", "nulls", "distinct", "entropy", "mean", "min", "max"]
        );
        // String column: no numeric summary.
        assert!(d.value(0, "mean").unwrap().is_null());
        assert_eq!(d.value(0, "nulls").unwrap().as_f64(), Some(1.0));
        // Int column stats.
        assert_eq!(d.value(1, "mean").unwrap().as_f64(), Some(3.0));
        assert_eq!(d.value(1, "min").unwrap().as_f64(), Some(1.0));
        assert_eq!(d.value(1, "max").unwrap().as_f64(), Some(5.0));
        assert_eq!(d.value(1, "distinct").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn value_distribution_probs_sum_to_one() {
        let df = DataFrame::builder()
            .int("x", AttrRole::Numeric, (0..10).map(|i| Some(i % 3)))
            .build()
            .unwrap();
        let d = df.value_distribution("x").unwrap();
        let total: f64 = [0, 1, 2].iter().map(|&i| d.prob(&ValueKey::Int(i))).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.support_size(), 3);
    }
}
