//! The row-at-a-time GROUP, FILTER and statistics paths that the
//! dictionary-code operators replaced, kept as test oracles: every new
//! result must equal theirs bit for bit.
//!
//! Grouping hashes a `Vec<ValueKey>` per row and aggregates each group's
//! collected values; filtering calls [`Predicate::matches`] on every row and
//! gathers rows by pushing values one at a time; statistics count values
//! in a `BTreeMap<ValueKey, usize>`. Only the public API is used.
//!
//! Shared by `crates/dataframe/tests/proptests.rs` and the Cyber #1 sweep
//! in `crates/data/tests/operator_oracle.rs`.

#![allow(dead_code)]

use atena_dataframe::{
    entropy_of_counts, AggFunc, AttrRole, Column, ColumnStats, DType, DataFrame, Field, Predicate,
    Result, Value, ValueKey, ValueRef,
};
use std::collections::{BTreeMap, HashMap};

/// Groups as `(key tuple, rows)` in first-appearance order of the tuples.
pub fn group_by(df: &DataFrame, keys: &[&str]) -> Result<Vec<(Vec<ValueKey>, Vec<usize>)>> {
    if keys.is_empty() {
        return Err(atena_dataframe::DataFrameError::InvalidAggregate(
            "group_by requires at least one key".into(),
        ));
    }
    let key_cols = keys
        .iter()
        .map(|&k| df.column(k))
        .collect::<Result<Vec<_>>>()?;
    let mut order: Vec<Vec<ValueKey>> = Vec::new();
    let mut index: HashMap<Vec<ValueKey>, usize> = HashMap::new();
    let mut rows_per_group: Vec<Vec<usize>> = Vec::new();
    for row in 0..df.n_rows() {
        let key: Vec<ValueKey> = key_cols.iter().map(|c| c.get(row).key()).collect();
        match index.get(&key) {
            Some(&g) => rows_per_group[g].push(row),
            None => {
                index.insert(key.clone(), order.len());
                order.push(key);
                rows_per_group.push(vec![row]);
            }
        }
    }
    Ok(order.into_iter().zip(rows_per_group).collect())
}

/// `DataFrame::group_aggregate_multi` over [`group_by`] and
/// [`aggregate_rows`], building every output column value by value.
pub fn group_aggregate_multi(
    df: &DataFrame,
    keys: &[&str],
    aggs: &[(AggFunc, &str)],
) -> Result<DataFrame> {
    let groups = group_by(df, keys)?;
    let mut seen: Vec<(AggFunc, &str)> = Vec::new();
    for &(func, attr) in aggs {
        let agg_col = df.column(attr)?;
        if !func.supports(agg_col.dtype()) {
            return Err(atena_dataframe::DataFrameError::IncompatibleOp {
                column: attr.to_string(),
                op: func.name().to_string(),
                dtype: agg_col.dtype().name(),
            });
        }
        if !seen.contains(&(func, attr)) {
            seen.push((func, attr));
        }
    }
    let mut pairs: Vec<(Field, Column)> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        let mut out = Column::empty(df.column(k)?.dtype());
        for (key, _) in &groups {
            out.push(key[i].to_value()).expect("key type matches");
        }
        pairs.push((df.schema().field(k)?.clone(), out));
    }
    pairs.push((
        Field::new("count", DType::Int, AttrRole::Numeric),
        Column::from_ints(groups.iter().map(|(_, rows)| Some(rows.len() as i64))),
    ));
    for &(func, attr) in &seen {
        let col = df.column(attr)?;
        let dtype = aggregate_dtype(func, col.dtype());
        let mut out = Column::empty(dtype);
        for (_, rows) in &groups {
            out.push(aggregate_rows(col, rows, func))
                .expect("aggregate type matches");
        }
        let name = format!("{}({})", func.name(), attr);
        pairs.push((Field::new(name, dtype, AttrRole::Numeric), out));
    }
    DataFrame::new(pairs)
}

fn aggregate_dtype(func: AggFunc, input: DType) -> DType {
    match func {
        AggFunc::Count => DType::Int,
        AggFunc::Avg | AggFunc::Median | AggFunc::Std => DType::Float,
        AggFunc::Sum if input == DType::Int => DType::Int,
        AggFunc::Sum => DType::Float,
        AggFunc::Min | AggFunc::Max => input,
    }
}

/// One aggregate over the given rows, from the collected values.
pub fn aggregate_rows(col: &Column, rows: &[usize], func: AggFunc) -> Value {
    let floats = || -> Vec<f64> { rows.iter().filter_map(|&r| col.get(r).as_f64()).collect() };
    match func {
        AggFunc::Count => {
            Value::Int(rows.iter().filter(|&&r| !col.get(r).is_null()).count() as i64)
        }
        AggFunc::Sum => match col {
            Column::Int(v) => Value::Int(rows.iter().filter_map(|&r| v[r]).sum()),
            _ => Value::Float(floats().iter().sum()),
        },
        AggFunc::Avg => {
            let vals = floats();
            if vals.is_empty() {
                Value::Null
            } else {
                Value::Float(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        }
        AggFunc::Median => {
            let mut vals = floats();
            if vals.is_empty() {
                return Value::Null;
            }
            // NaN last, as the code path sorts; the original
            // `unwrap_or(Equal)` comparator is not a total order with NaN
            // and made this sort panic.
            vals.sort_by(|a, b| {
                a.partial_cmp(b)
                    .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
            });
            let n = vals.len();
            Value::Float(if n % 2 == 1 {
                vals[n / 2]
            } else {
                (vals[n / 2 - 1] + vals[n / 2]) / 2.0
            })
        }
        AggFunc::Std => {
            let vals = floats();
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

/// Rows satisfying `pred`, one `matches` call per row.
pub fn filter_indices(df: &DataFrame, pred: &Predicate) -> Result<Vec<usize>> {
    let col = df.column(&pred.attr)?;
    pred.validate(col.dtype())?;
    Ok((0..col.len())
        .filter(|&i| pred.matches(col.get(i)))
        .collect())
}

/// `DataFrame::filter`, gathering every column value by value (a string
/// column's dictionary is then in first-appearance order of the kept rows).
pub fn filter(df: &DataFrame, pred: &Predicate) -> Result<DataFrame> {
    let rows = filter_indices(df, pred)?;
    let pairs = df
        .schema()
        .fields()
        .iter()
        .enumerate()
        .map(|(i, field)| {
            let src = df.column_at(i);
            let mut out = Column::empty(field.dtype);
            for &r in &rows {
                out.push(src.get(r).to_owned()).expect("same dtype");
            }
            (field.clone(), out)
        })
        .collect();
    DataFrame::new(pairs)
}

/// Column statistics from a `BTreeMap<ValueKey, usize>` of value counts.
pub fn column_stats(col: &Column) -> ColumnStats {
    let mut counts: BTreeMap<ValueKey, usize> = BTreeMap::new();
    for v in col.iter().filter(|v| !v.is_null()) {
        *counts.entry(v.key()).or_insert(0) += 1;
    }
    ColumnStats {
        entropy: entropy_of_counts(counts.values()),
        n_distinct: counts.len(),
        n_nulls: col.null_count(),
        n_rows: col.len(),
    }
}

/// A cell compared by bits: floats by `to_bits`, so `-0.0 != 0.0`. NaNs
/// are the exception: Rust leaves the sign and payload of a NaN produced by
/// arithmetic unspecified (x86 keeps one operand's, and which operand is
/// up to code generation: `inf + -inf` or a sum over `NaN` and `-NaN`
/// differs between two compilations of one loop), so every NaN compares
/// equal to every other, as it does everywhere downstream (`ValueKey`,
/// `StableHasher`, `Display`).
#[derive(Debug, PartialEq)]
enum Cell<'a> {
    Null,
    Int(i64),
    Float(u64),
    Bool(bool),
    Str(&'a str),
}

fn cells(col: &Column) -> Vec<Cell<'_>> {
    col.iter()
        .map(|v| match v {
            ValueRef::Null => Cell::Null,
            ValueRef::Int(x) => Cell::Int(x),
            ValueRef::Float(x) if x.is_nan() => Cell::Float(f64::NAN.to_bits()),
            ValueRef::Float(x) => Cell::Float(x.to_bits()),
            ValueRef::Bool(x) => Cell::Bool(x),
            ValueRef::Str(x) => Cell::Str(x),
        })
        .collect()
}

/// Assert two frames are identical: schema, every cell bit for bit, and
/// every string column's dictionary order.
pub fn assert_same_frame(actual: &DataFrame, expected: &DataFrame, context: &str) {
    assert_eq!(actual.schema(), expected.schema(), "{context}: schema");
    assert_eq!(actual.n_rows(), expected.n_rows(), "{context}: rows");
    for (i, field) in expected.schema().fields().iter().enumerate() {
        let (a, e) = (actual.column_at(i), expected.column_at(i));
        assert_eq!(cells(a), cells(e), "{context}: column {}", field.name);
        if let (Column::Str(a), Column::Str(e)) = (a, e) {
            assert_eq!(
                a.dictionary(),
                e.dictionary(),
                "{context}: dictionary of {}",
                field.name
            );
        }
    }
}

/// Assert two statistics are identical, entropy bit for bit.
pub fn assert_same_stats(actual: &ColumnStats, expected: &ColumnStats, context: &str) {
    assert_eq!(
        (
            actual.entropy.to_bits(),
            actual.n_distinct,
            actual.n_nulls,
            actual.n_rows
        ),
        (
            expected.entropy.to_bits(),
            expected.n_distinct,
            expected.n_nulls,
            expected.n_rows
        ),
        "{context}: {actual:?} vs {expected:?}"
    );
}
