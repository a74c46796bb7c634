//! Group-by and aggregation: the `GROUP(g_attr, agg_func, agg_attr)`
//! operation of the EDA action space.
//!
//! The paper's environment groups by a *single* attribute per operation;
//! multi-attribute groupings arise from stacking consecutive GROUP
//! operations, so the engine here supports arbitrary key lists.
//!
//! Grouping runs on dense per-row key codes, never on per-row values: a
//! string's dictionary code, a boolean's slot, an integer's offset in its
//! range, a float's first-appearance code. Group ids are refined one key
//! column at a time, and the action-space aggregates are one pass over the
//! group ids into per-group accumulators.

use crate::column::{dense_limit, number_dense, number_hashed, Column};
use crate::error::{DataFrameError, Result};
use crate::frame::DataFrame;
use crate::schema::{AttrRole, Field};
use crate::value::{canonical_f64, DType, ValueKey};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregation function applied to grouped rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// Number of non-null values (COUNT).
    Count,
    /// Sum of numeric values.
    Sum,
    /// Arithmetic mean of numeric values.
    Avg,
    /// Minimum value (numeric or string).
    Min,
    /// Maximum value (numeric or string).
    Max,
    /// Median of numeric values (not part of the EDA action space; see
    /// [`AggFunc::ALL`]).
    Median,
    /// Population standard deviation of numeric values (not part of the
    /// EDA action space).
    Std,
}

impl AggFunc {
    /// The canonical *action-space* order — the aggregate functions the
    /// paper's environment exposes to the agent (§4.1). `Median` and `Std`
    /// are available through the dataframe API but are deliberately outside
    /// the action space, so that results stay comparable with the paper's.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// Uppercase name used in notebook captions (e.g. `AVG`).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Median => "MEDIAN",
            AggFunc::Std => "STD",
        }
    }

    /// Whether the function is defined for a column of type `dtype`.
    pub fn supports(self, dtype: DType) -> bool {
        match self {
            AggFunc::Count => true,
            AggFunc::Sum | AggFunc::Avg | AggFunc::Median | AggFunc::Std => dtype.is_numeric(),
            AggFunc::Min | AggFunc::Max => dtype.is_numeric() || dtype == DType::Str,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of partitioning a frame by one or more key columns.
///
/// Groups are ordered by first appearance, making results deterministic for
/// a given input frame.
#[derive(Debug, Clone)]
pub struct Groups {
    /// Each group's key tuple, flattened group-major.
    keys: Vec<ValueKey>,
    n_keys: usize,
    partition: Partition,
}

impl Groups {
    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.partition.n_groups()
    }

    /// Number of rows in the grouped source frame.
    pub fn n_source_rows(&self) -> usize {
        self.partition.ids.len()
    }

    /// Sizes of each group, in group order.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.partition.sizes().collect()
    }

    /// Iterate over `(key-tuple, row-indices)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[ValueKey], &[usize])> {
        let n_keys = self.n_keys;
        (0..self.n_groups()).map(move |g| {
            (
                &self.keys[g * n_keys..(g + 1) * n_keys],
                self.partition.rows_of(g),
            )
        })
    }
}

/// Rows partitioned by key tuple. Group ids number the distinct key tuples
/// in order of first appearance; each group's rows are ascending.
#[derive(Debug, Clone)]
struct Partition {
    /// Group id of every row.
    ids: Vec<u32>,
    /// `rows[offsets[g]..offsets[g + 1]]` are the rows of group `g`.
    offsets: Vec<usize>,
    rows: Vec<usize>,
}

impl Partition {
    /// Refine one all-rows group by each key column in turn, then gather
    /// each group's rows with one counting sort.
    fn new(key_cols: &[&Column], n_rows: usize) -> Self {
        let mut ids = vec![0u32; n_rows];
        let mut n_groups = usize::from(n_rows > 0);
        for col in key_cols {
            n_groups = refine(&mut ids, n_groups, col);
        }
        let mut offsets = vec![0usize; n_groups + 1];
        for &g in &ids {
            offsets[g as usize + 1] += 1;
        }
        for g in 0..n_groups {
            offsets[g + 1] += offsets[g];
        }
        let mut next = offsets.clone();
        let mut rows = vec![0usize; n_rows];
        for (r, &g) in ids.iter().enumerate() {
            rows[next[g as usize]] = r;
            next[g as usize] += 1;
        }
        Self { ids, offsets, rows }
    }

    fn n_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    fn rows_of(&self, g: usize) -> &[usize] {
        &self.rows[self.offsets[g]..self.offsets[g + 1]]
    }

    /// The first row of every group, in group order.
    fn first_rows(&self) -> Vec<usize> {
        self.offsets[..self.n_groups()]
            .iter()
            .map(|&o| self.rows[o])
            .collect()
    }
}

/// Split every group by the key codes of `col`. The new ids number the
/// distinct `(group, code)` pairs in row order, so they stay in
/// first-appearance order of the key tuples. Returns the new group count.
fn refine(ids: &mut Vec<u32>, n_groups: usize, col: &Column) -> usize {
    let (codes, cardinality) = col.key_codes();
    let pairs = ids.iter().zip(&codes);
    let cells = n_groups.saturating_mul(cardinality);
    let (refined, n_refined) = if cells <= dense_limit(codes.len()) {
        number_dense(
            pairs.map(|(&g, &c)| g as usize * cardinality + c as usize),
            cells,
        )
    } else {
        number_hashed(pairs.map(|(&g, &c)| (g, c)))
    };
    *ids = refined;
    n_refined
}

impl DataFrame {
    fn key_columns(&self, keys: &[&str]) -> Result<Vec<&Column>> {
        if keys.is_empty() {
            return Err(DataFrameError::InvalidAggregate(
                "group_by requires at least one key".into(),
            ));
        }
        keys.iter().map(|&k| self.column(k)).collect()
    }

    /// Partition rows by the distinct value combinations of `keys`.
    ///
    /// Null key values form their own group, mirroring `dropna=False`
    /// group-by semantics: an EDA user wants to *see* the null bucket.
    pub fn group_by(&self, keys: &[&str]) -> Result<Groups> {
        let key_cols = self.key_columns(keys)?;
        let partition = Partition::new(&key_cols, self.n_rows());
        let keys = partition
            .first_rows()
            .into_iter()
            .flat_map(|r| key_cols.iter().map(move |c| c.get(r).key()))
            .collect();
        Ok(Groups {
            keys,
            n_keys: key_cols.len(),
            partition,
        })
    }

    /// Group by `keys` and aggregate `agg_attr` with `func`, producing a new
    /// frame with one row per group: the key columns, a `count` column, and
    /// the aggregate column named `{FUNC}({attr})`.
    pub fn group_aggregate(
        &self,
        keys: &[&str],
        func: AggFunc,
        agg_attr: &str,
    ) -> Result<DataFrame> {
        self.group_aggregate_multi(keys, &[(func, agg_attr)])
    }

    /// Group by `keys` and compute several aggregates at once — used by the
    /// EDA environment when consecutive GROUP operations stack. Duplicate
    /// `(func, attr)` pairs produce a single column.
    pub fn group_aggregate_multi(
        &self,
        keys: &[&str],
        aggs: &[(AggFunc, &str)],
    ) -> Result<DataFrame> {
        let key_cols = self.key_columns(keys)?;
        let mut seen: Vec<(AggFunc, &str)> = Vec::new();
        for &(func, attr) in aggs {
            let agg_col = self.column(attr)?;
            if !func.supports(agg_col.dtype()) {
                return Err(DataFrameError::IncompatibleOp {
                    column: attr.to_string(),
                    op: func.name().to_string(),
                    dtype: agg_col.dtype().name(),
                });
            }
            if !seen.contains(&(func, attr)) {
                seen.push((func, attr));
            }
        }

        let partition = Partition::new(&key_cols, self.n_rows());
        let first_rows = partition.first_rows();
        let mut pairs: Vec<(Field, Column)> = Vec::with_capacity(keys.len() + 1 + seen.len());
        for (&k, col) in keys.iter().zip(&key_cols) {
            // Keys are emitted as their `ValueKey`s: floats canonicalized.
            let out = match col {
                Column::Float(v) => {
                    Column::from_floats(first_rows.iter().map(|&r| v[r].map(canonical_f64)))
                }
                _ => col.take(&first_rows),
            };
            pairs.push((self.schema().field(k)?.clone(), out));
        }
        pairs.push((
            Field::new("count", DType::Int, AttrRole::Numeric),
            Column::from_ints(partition.sizes().map(|n| Some(n as i64))),
        ));
        for &(func, attr) in &seen {
            let col = self.column(attr)?;
            let agg_name = format!("{}({})", func.name(), attr);
            let agg_dtype = aggregate_dtype(func, col.dtype());
            let out = aggregate(col, &partition, func);
            pairs.push((Field::new(agg_name, agg_dtype, AttrRole::Numeric), out));
        }
        DataFrame::new(pairs)
    }
}

/// Output physical type of an aggregate.
fn aggregate_dtype(func: AggFunc, input: DType) -> DType {
    match func {
        AggFunc::Count => DType::Int,
        AggFunc::Avg | AggFunc::Median | AggFunc::Std => DType::Float,
        AggFunc::Sum => {
            if input == DType::Int {
                DType::Int
            } else {
                DType::Float
            }
        }
        AggFunc::Min | AggFunc::Max => input,
    }
}

/// One aggregate column over a partition, one value per group. COUNT,
/// SUM, AVG, MIN and MAX are one pass over the rows into per-group
/// accumulators, visiting each group's rows in ascending order as a
/// per-group loop would; MEDIAN and STD work on each group's row list.
fn aggregate(col: &Column, partition: &Partition, func: AggFunc) -> Column {
    let ids = &partition.ids;
    let n_groups = partition.n_groups();
    match (func, col) {
        (AggFunc::Count, Column::Int(v)) => count_present(ids, v, n_groups),
        (AggFunc::Count, Column::Float(v)) => count_present(ids, v, n_groups),
        (AggFunc::Count, Column::Bool(v)) => count_present(ids, v, n_groups),
        (AggFunc::Count, Column::Str(s)) => count_present(ids, s.codes(), n_groups),
        (AggFunc::Sum, Column::Int(v)) => {
            let mut sums = vec![0i64; n_groups];
            for (&g, x) in ids.iter().zip(v) {
                if let Some(x) = x {
                    sums[g as usize] += x;
                }
            }
            Column::from_ints(sums.into_iter().map(Some))
        }
        (AggFunc::Sum, _) => {
            let (sums, _) = float_sums(ids, col, n_groups);
            Column::from_floats(sums.into_iter().map(Some))
        }
        (AggFunc::Avg, _) => {
            let (sums, counts) = float_sums(ids, col, n_groups);
            Column::from_floats(
                sums.into_iter()
                    .zip(counts)
                    .map(|(s, n)| (n > 0).then(|| s / n as f64)),
            )
        }
        (AggFunc::Min | AggFunc::Max, Column::Int(v)) => {
            Column::Int(extremes(ids, v, n_groups, func, |x| x))
        }
        (AggFunc::Min | AggFunc::Max, Column::Float(v)) => {
            let best = extremes(ids, v, n_groups, func, |x| x);
            Column::from_floats(best.into_iter().map(|x| x.map(canonical_f64)))
        }
        (AggFunc::Min | AggFunc::Max, Column::Str(s)) => {
            // Rank the dictionary once: its strings are distinct, so
            // comparing ranks is comparing strings.
            let dict = s.dictionary();
            let mut by_string: Vec<usize> = (0..dict.len()).collect();
            by_string.sort_unstable_by(|&a, &b| dict[a].cmp(&dict[b]));
            let mut rank = vec![0usize; dict.len()];
            for (r, code) in by_string.into_iter().enumerate() {
                rank[code] = r;
            }
            let best = extremes(ids, s.codes(), n_groups, func, |c| rank[c as usize]);
            Column::from_strs(
                best.into_iter()
                    .map(|c| c.map(|c| dict[c as usize].as_str())),
            )
        }
        (AggFunc::Median, _) => per_group(col, partition, |mut vals| {
            // NaN sorts after every number: `partial_cmp` alone is not a
            // total order once a NaN is present, and the sort may panic.
            vals.sort_by(|a, b| {
                a.partial_cmp(b)
                    .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
            });
            let n = vals.len();
            if n % 2 == 1 {
                vals[n / 2]
            } else {
                (vals[n / 2 - 1] + vals[n / 2]) / 2.0
            }
        }),
        (AggFunc::Std, _) => per_group(col, partition, |vals| {
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            var.sqrt()
        }),
        (AggFunc::Min | AggFunc::Max, Column::Bool(_)) => {
            unreachable!("MIN and MAX are validated against bool columns")
        }
    }
}

/// Non-null values per group.
fn count_present<T>(ids: &[u32], values: &[Option<T>], n_groups: usize) -> Column {
    let mut counts = vec![0i64; n_groups];
    for (&g, x) in ids.iter().zip(values) {
        counts[g as usize] += i64::from(x.is_some());
    }
    Column::from_ints(counts.into_iter().map(Some))
}

/// Per-group `f64` sums and counts of a numeric column's non-null values,
/// summed in row order from the neutral element `Iterator::sum` starts
/// from (−0.0 on current toolchains), so each sum is bit-identical to
/// summing the group's values with `Iterator::sum` (but for the sign and
/// payload of a NaN, which Rust leaves unspecified).
fn float_sums(ids: &[u32], col: &Column, n_groups: usize) -> (Vec<f64>, Vec<usize>) {
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut sums = vec![zero; n_groups];
    let mut counts = vec![0usize; n_groups];
    let mut add = |g: u32, x: f64| {
        sums[g as usize] += x;
        counts[g as usize] += 1;
    };
    match col {
        Column::Int(v) => ids
            .iter()
            .zip(v)
            .filter_map(|(&g, x)| Some((g, (*x)?)))
            .for_each(|(g, x)| add(g, x as f64)),
        Column::Float(v) => ids
            .iter()
            .zip(v)
            .filter_map(|(&g, x)| Some((g, (*x)?)))
            .for_each(|(g, x)| add(g, x)),
        Column::Bool(_) | Column::Str(_) => {
            unreachable!("SUM and AVG are validated against non-numeric columns")
        }
    }
    (sums, counts)
}

/// MIN or MAX per group: the first non-null value, replaced only by a
/// value whose `key` is strictly smaller (larger), as a left-to-right scan
/// in `ValueKey` order does. A float NaN compares false both ways, so it
/// never replaces and is never replaced.
fn extremes<T: Copy, K: PartialOrd>(
    ids: &[u32],
    values: &[Option<T>],
    n_groups: usize,
    func: AggFunc,
    key: impl Fn(T) -> K,
) -> Vec<Option<T>> {
    let wins = |x: &K, best: &K| {
        if func == AggFunc::Min {
            x < best
        } else {
            x > best
        }
    };
    let mut best: Vec<Option<T>> = vec![None; n_groups];
    for (&g, &x) in ids.iter().zip(values) {
        if let Some(x) = x {
            let slot = &mut best[g as usize];
            let replace = match *slot {
                None => true,
                Some(b) => wins(&key(x), &key(b)),
            };
            if replace {
                *slot = Some(x);
            }
        }
    }
    best
}

/// Apply `f` to each group's non-null values, in row order; groups with no
/// values get null.
fn per_group(col: &Column, partition: &Partition, f: impl Fn(Vec<f64>) -> f64) -> Column {
    Column::from_floats((0..partition.n_groups()).map(|g| {
        let vals: Vec<f64> = partition
            .rows_of(g)
            .iter()
            .filter_map(|&r| col.get(r).as_f64())
            .collect();
        (!vals.is_empty()).then(|| f(vals))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueRef;

    fn df() -> DataFrame {
        DataFrame::builder()
            .str(
                "airline",
                AttrRole::Categorical,
                vec![
                    Some("AA"),
                    Some("DL"),
                    Some("AA"),
                    Some("DL"),
                    None,
                    Some("AA"),
                ],
            )
            .str(
                "day",
                AttrRole::Categorical,
                vec![
                    Some("Mon"),
                    Some("Mon"),
                    Some("Tue"),
                    Some("Tue"),
                    Some("Mon"),
                    Some("Mon"),
                ],
            )
            .int(
                "delay",
                AttrRole::Numeric,
                vec![Some(10), Some(20), Some(30), None, Some(50), Some(14)],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn groups_ordered_by_first_appearance() {
        let g = df().group_by(&["airline"]).unwrap();
        assert_eq!(g.n_groups(), 3); // AA, DL, null
        let keys: Vec<_> = g.iter().map(|(k, _)| k[0].clone()).collect();
        assert_eq!(keys[0], ValueKey::Str("AA".into()));
        assert_eq!(keys[1], ValueKey::Str("DL".into()));
        assert_eq!(keys[2], ValueKey::Null);
        assert_eq!(g.group_sizes(), vec![3, 2, 1]);
        assert_eq!(g.n_source_rows(), 6);
    }

    #[test]
    fn multi_key_grouping() {
        let g = df().group_by(&["airline", "day"]).unwrap();
        assert_eq!(g.n_groups(), 5); // AA/Mon, DL/Mon, AA/Tue, DL/Tue, null/Mon
    }

    #[test]
    fn avg_aggregate_skips_nulls() {
        let out = df()
            .group_aggregate(&["airline"], AggFunc::Avg, "delay")
            .unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(out.schema().names(), vec!["airline", "count", "AVG(delay)"]);
        // AA: (10 + 30 + 14) / 3 = 18
        assert_eq!(out.value(0, "AVG(delay)").unwrap(), ValueRef::Float(18.0));
        // DL: only 20 (null dropped)
        assert_eq!(out.value(1, "AVG(delay)").unwrap(), ValueRef::Float(20.0));
        // count column is group size (including null-agg rows)
        assert_eq!(out.value(1, "count").unwrap(), ValueRef::Int(2));
    }

    #[test]
    fn count_aggregate_counts_non_null() {
        let out = df()
            .group_aggregate(&["airline"], AggFunc::Count, "delay")
            .unwrap();
        assert_eq!(out.value(1, "COUNT(delay)").unwrap(), ValueRef::Int(1)); // DL
    }

    #[test]
    fn sum_int_stays_int() {
        let out = df()
            .group_aggregate(&["day"], AggFunc::Sum, "delay")
            .unwrap();
        assert_eq!(out.value(0, "SUM(delay)").unwrap(), ValueRef::Int(94)); // Mon: 10+20+50+14
        assert_eq!(out.value(1, "SUM(delay)").unwrap(), ValueRef::Int(30)); // Tue: 30 (null dropped)
    }

    #[test]
    fn min_max_on_strings() {
        let out = df()
            .group_aggregate(&["day"], AggFunc::Max, "airline")
            .unwrap();
        assert_eq!(out.value(0, "MAX(airline)").unwrap(), ValueRef::Str("DL"));
        let out = df()
            .group_aggregate(&["day"], AggFunc::Min, "airline")
            .unwrap();
        assert_eq!(out.value(0, "MIN(airline)").unwrap(), ValueRef::Str("AA"));
    }

    #[test]
    fn median_and_std() {
        let d = DataFrame::builder()
            .str("k", AttrRole::Categorical, vec![Some("a"); 5])
            .int(
                "v",
                AttrRole::Numeric,
                vec![Some(1), Some(3), Some(100), Some(2), None],
            )
            .build()
            .unwrap();
        let out = d.group_aggregate(&["k"], AggFunc::Median, "v").unwrap();
        // Median of {1, 2, 3, 100} = 2.5 (robust against the outlier).
        assert_eq!(out.value(0, "MEDIAN(v)").unwrap(), ValueRef::Float(2.5));
        let out = d.group_aggregate(&["k"], AggFunc::Std, "v").unwrap();
        let std = out.value(0, "STD(v)").unwrap().as_f64().unwrap();
        assert!((std - 42.44113570582201).abs() < 1e-6, "std {std}");
        // Not part of the action space.
        assert!(!AggFunc::ALL.contains(&AggFunc::Median));
        assert!(!AggFunc::ALL.contains(&AggFunc::Std));
        // Type gating.
        assert!(!AggFunc::Median.supports(DType::Str));
    }

    #[test]
    fn sum_on_string_rejected() {
        let err = df()
            .group_aggregate(&["day"], AggFunc::Sum, "airline")
            .unwrap_err();
        assert!(matches!(err, DataFrameError::IncompatibleOp { .. }));
    }

    #[test]
    fn empty_keys_rejected() {
        let err = df().group_by(&[]).unwrap_err();
        assert!(matches!(err, DataFrameError::InvalidAggregate(_)));
    }

    #[test]
    fn multi_aggregate_dedups_and_stacks() {
        let out = df()
            .group_aggregate_multi(
                &["airline"],
                &[
                    (AggFunc::Avg, "delay"),
                    (AggFunc::Max, "delay"),
                    (AggFunc::Avg, "delay"),
                ],
            )
            .unwrap();
        assert_eq!(
            out.schema().names(),
            vec!["airline", "count", "AVG(delay)", "MAX(delay)"]
        );
        assert_eq!(out.value(0, "MAX(delay)").unwrap(), ValueRef::Int(30));
    }

    #[test]
    fn all_null_group_aggregate_is_null() {
        let d = DataFrame::builder()
            .str("k", AttrRole::Categorical, vec![Some("a"), Some("a")])
            .float("v", AttrRole::Numeric, vec![None, None])
            .build()
            .unwrap();
        let out = d.group_aggregate(&["k"], AggFunc::Avg, "v").unwrap();
        assert!(out.value(0, "AVG(v)").unwrap().is_null());
        let out = d.group_aggregate(&["k"], AggFunc::Max, "v").unwrap();
        assert!(out.value(0, "MAX(v)").unwrap().is_null());
    }
}
