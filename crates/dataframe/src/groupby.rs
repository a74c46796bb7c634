//! Group-by and aggregation: the `GROUP(g_attr, agg_func, agg_attr)`
//! operation of the EDA action space.
//!
//! The paper's environment groups by a *single* attribute per operation;
//! multi-attribute groupings arise from stacking consecutive GROUP
//! operations, so the engine here supports arbitrary key lists.

use crate::column::Column;
use crate::error::{DataFrameError, Result};
use crate::frame::DataFrame;
use crate::schema::{AttrRole, Field};
use crate::value::{DType, Value, ValueKey};
use serde::{Deserialize, Serialize};
// atena-lint: allow(hash-order) — HashMap below is a lookup-only group index
use std::collections::HashMap;
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
    groups: Vec<(Vec<ValueKey>, Vec<usize>)>,
    n_source_rows: usize,
}

impl Groups {
    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of rows in the grouped source frame.
    pub fn n_source_rows(&self) -> usize {
        self.n_source_rows
    }

    /// Sizes of each group, in group order.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|(_, rows)| rows.len()).collect()
    }

    /// Iterate over `(key-tuple, row-indices)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[ValueKey], &[usize])> {
        self.groups
            .iter()
            .map(|(k, r)| (k.as_slice(), r.as_slice()))
    }
}

impl DataFrame {
    /// Partition rows by the distinct value combinations of `keys`.
    ///
    /// Null key values form their own group, mirroring `dropna=False`
    /// group-by semantics: an EDA user wants to *see* the null bucket.
    pub fn group_by(&self, keys: &[&str]) -> Result<Groups> {
        if keys.is_empty() {
            return Err(DataFrameError::InvalidAggregate(
                "group_by requires at least one key".into(),
            ));
        }
        let mut key_cols = Vec::with_capacity(keys.len());
        for &k in keys {
            key_cols.push(self.column(k)?);
        }
        let mut order: Vec<Vec<ValueKey>> = Vec::new();
        // Group emission order is first-appearance order, tracked in `order`;
        // the map is only ever probed by exact key, never iterated.
        // atena-lint: allow(hash-order) — lookup-only group index
        let mut index: HashMap<Vec<ValueKey>, usize> = HashMap::new();
        let mut rows_per_group: Vec<Vec<usize>> = Vec::new();
        for row in 0..self.n_rows() {
            let key: Vec<ValueKey> = key_cols.iter().map(|c| c.get(row).key()).collect();
            match index.get(&key) {
                Some(&g) => rows_per_group[g].push(row),
                None => {
                    let g = order.len();
                    index.insert(key.clone(), g);
                    order.push(key);
                    rows_per_group.push(vec![row]);
                }
            }
        }
        let groups = order.into_iter().zip(rows_per_group).collect();
        Ok(Groups {
            groups,
            n_source_rows: self.n_rows(),
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
        let groups = self.group_by(keys)?;
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

        // Key output columns.
        let mut key_builders: Vec<Column> = keys
            .iter()
            .map(|&k| Column::empty(self.column(k).expect("validated").dtype()))
            .collect();
        let mut sizes: Vec<Option<i64>> = Vec::with_capacity(groups.n_groups());
        let mut agg_values: Vec<Vec<Value>> =
            vec![Vec::with_capacity(groups.n_groups()); seen.len()];

        for (key, rows) in groups.iter() {
            for (builder, kv) in key_builders.iter_mut().zip(key) {
                builder
                    .push(kv.to_value())
                    .expect("key type matches source column");
            }
            sizes.push(Some(rows.len() as i64));
            for (slot, &(func, attr)) in agg_values.iter_mut().zip(&seen) {
                let col = self.column(attr).expect("validated");
                slot.push(aggregate_rows(col, rows, func));
            }
        }

        let mut pairs: Vec<(Field, Column)> = Vec::with_capacity(keys.len() + 1 + seen.len());
        for (i, &k) in keys.iter().enumerate() {
            let src = self.schema().field(k)?;
            pairs.push((
                src.clone(),
                std::mem::replace(&mut key_builders[i], Column::empty(DType::Int)),
            ));
        }
        pairs.push((
            Field::new("count", DType::Int, AttrRole::Numeric),
            Column::from_ints(sizes),
        ));
        for (values, &(func, attr)) in agg_values.into_iter().zip(&seen) {
            let agg_name = format!("{}({})", func.name(), attr);
            let agg_dtype = aggregate_dtype(func, self.column(attr).expect("validated").dtype());
            let mut out_col = Column::empty(agg_dtype);
            for v in values {
                out_col
                    .push(v)
                    .expect("aggregate value type matches output dtype");
            }
            pairs.push((Field::new(agg_name, agg_dtype, AttrRole::Numeric), out_col));
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

/// Compute one aggregate over the given source rows.
fn aggregate_rows(col: &Column, rows: &[usize], func: AggFunc) -> Value {
    match func {
        AggFunc::Count => {
            let n = rows.iter().filter(|&&r| !col.get(r).is_null()).count();
            Value::Int(n as i64)
        }
        AggFunc::Sum => match col {
            Column::Int(v) => Value::Int(rows.iter().filter_map(|&r| v[r]).sum()),
            _ => {
                let s: f64 = rows.iter().filter_map(|&r| col.get(r).as_f64()).sum();
                Value::Float(s)
            }
        },
        AggFunc::Avg => {
            let vals: Vec<f64> = rows.iter().filter_map(|&r| col.get(r).as_f64()).collect();
            if vals.is_empty() {
                Value::Null
            } else {
                Value::Float(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        }
        AggFunc::Median => {
            let mut vals: Vec<f64> = rows.iter().filter_map(|&r| col.get(r).as_f64()).collect();
            if vals.is_empty() {
                return Value::Null;
            }
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let n = vals.len();
            let median = if n % 2 == 1 {
                vals[n / 2]
            } else {
                (vals[n / 2 - 1] + vals[n / 2]) / 2.0
            };
            Value::Float(median)
        }
        AggFunc::Std => {
            let vals: Vec<f64> = rows.iter().filter_map(|&r| col.get(r).as_f64()).collect();
            if vals.is_empty() {
                return Value::Null;
            }
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            Value::Float(var.sqrt())
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<ValueKey> = None;
            for &r in rows {
                let v = col.get(r);
                if v.is_null() {
                    continue;
                }
                let k = v.key();
                best = Some(match best {
                    None => k,
                    Some(b) => {
                        let better = if func == AggFunc::Min { k < b } else { k > b };
                        if better {
                            k
                        } else {
                            b
                        }
                    }
                });
            }
            best.map_or(Value::Null, |k| k.to_value())
        }
    }
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
