//! Property-based tests for the dataframe engine's core invariants, and
//! for the dictionary-code operators against the row-at-a-time oracle.

mod oracle;

use atena_dataframe::{
    entropy_of_counts, AggFunc, AttrRole, CmpOp, DataFrame, Predicate, Value, ValueDistribution,
    ValueKey,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn int_frame(values: Vec<Option<i64>>, cats: Vec<u8>) -> DataFrame {
    let n = values.len().min(cats.len());
    let cat_strs: Vec<Option<String>> = cats
        .iter()
        .take(n)
        .map(|c| Some(format!("c{}", c % 5)))
        .collect();
    DataFrame::builder()
        .int("x", AttrRole::Numeric, values.into_iter().take(n))
        .str_owned("cat", AttrRole::Categorical, cat_strs)
        .build()
        .expect("valid frame")
}

proptest! {
    /// Filtering never invents rows, and filter + complement partition the frame.
    #[test]
    fn filter_partitions_rows(
        values in prop::collection::vec(prop::option::of(-50i64..50), 1..200),
        cats in prop::collection::vec(any::<u8>(), 1..200),
        term in -50i64..50,
    ) {
        let df = int_frame(values, cats);
        let gt = df.filter(&Predicate::new("x", CmpOp::Gt, term)).unwrap();
        let le = df.filter(&Predicate::new("x", CmpOp::Le, term)).unwrap();
        let nulls = df.filter(&Predicate::new("x", CmpOp::Eq, Value::Null)).unwrap();
        prop_assert_eq!(gt.n_rows() + le.n_rows() + nulls.n_rows(), df.n_rows());
    }

    /// Eq and Neq are complementary for non-null values.
    #[test]
    fn eq_neq_complementary(
        values in prop::collection::vec(prop::option::of(-10i64..10), 1..100),
        cats in prop::collection::vec(any::<u8>(), 1..100),
        term in -10i64..10,
    ) {
        let df = int_frame(values, cats);
        let eq = df.filter(&Predicate::new("x", CmpOp::Eq, term)).unwrap();
        let neq = df.filter(&Predicate::new("x", CmpOp::Neq, term)).unwrap();
        // Neq includes nulls under our semantics; Eq excludes them.
        prop_assert_eq!(eq.n_rows() + neq.n_rows(), df.n_rows());
    }

    /// Group sizes always sum to the number of source rows.
    #[test]
    fn group_sizes_sum_to_rows(
        values in prop::collection::vec(prop::option::of(-5i64..5), 1..150),
        cats in prop::collection::vec(any::<u8>(), 1..150),
    ) {
        let df = int_frame(values, cats);
        let g = df.group_by(&["cat"]).unwrap();
        let total: usize = g.group_sizes().iter().sum();
        prop_assert_eq!(total, df.n_rows());
        prop_assert!(g.n_groups() <= 5);
    }

    /// COUNT aggregates sum to the number of non-null aggregated values.
    #[test]
    fn count_aggregate_conservation(
        values in prop::collection::vec(prop::option::of(-5i64..5), 1..150),
        cats in prop::collection::vec(any::<u8>(), 1..150),
    ) {
        let df = int_frame(values, cats);
        let out = df.group_aggregate(&["cat"], AggFunc::Count, "x").unwrap();
        let col = out.column("COUNT(x)").unwrap();
        let total: i64 = col.iter().filter_map(|v| v.as_f64()).sum::<f64>() as i64;
        let non_null = df.n_rows() - df.column("x").unwrap().null_count();
        prop_assert_eq!(total, non_null as i64);
    }

    /// AVG of each group lies between the group's MIN and MAX.
    #[test]
    fn avg_bounded_by_min_max(
        values in prop::collection::vec(-100i64..100, 2..100),
        cats in prop::collection::vec(any::<u8>(), 2..100),
    ) {
        let df = int_frame(values.into_iter().map(Some).collect(), cats);
        let avg = df.group_aggregate(&["cat"], AggFunc::Avg, "x").unwrap();
        let min = df.group_aggregate(&["cat"], AggFunc::Min, "x").unwrap();
        let max = df.group_aggregate(&["cat"], AggFunc::Max, "x").unwrap();
        for r in 0..avg.n_rows() {
            let a = avg.value(r, "AVG(x)").unwrap().as_f64().unwrap();
            let lo = min.value(r, "MIN(x)").unwrap().as_f64().unwrap();
            let hi = max.value(r, "MAX(x)").unwrap().as_f64().unwrap();
            prop_assert!(lo - 1e-9 <= a && a <= hi + 1e-9, "{lo} <= {a} <= {hi}");
        }
    }

    /// `take` preserves values at the gathered indices.
    #[test]
    fn take_preserves_values(
        values in prop::collection::vec(prop::option::of(-50i64..50), 1..100),
        cats in prop::collection::vec(any::<u8>(), 1..100),
    ) {
        let df = int_frame(values, cats);
        let idx: Vec<usize> = (0..df.n_rows()).rev().collect();
        let rev = df.take(&idx);
        for (new_row, &old_row) in idx.iter().enumerate() {
            prop_assert_eq!(
                rev.value(new_row, "x").unwrap().to_owned(),
                df.value(old_row, "x").unwrap().to_owned()
            );
        }
    }

    /// Entropy is non-negative and bounded by log2 of support size.
    #[test]
    fn entropy_bounds(counts in prop::collection::vec(1usize..1000, 1..30)) {
        let h = entropy_of_counts(counts.iter());
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (counts.len() as f64).log2() + 1e-9);
    }

    /// KL divergence is non-negative (Gibbs' inequality) and zero on self.
    #[test]
    fn kl_nonnegative(counts_p in prop::collection::vec(1usize..100, 1..20),
                      counts_q in prop::collection::vec(1usize..100, 1..20)) {
        let to_dist = |cs: &[usize]| {
            let map: BTreeMap<ValueKey, usize> =
                cs.iter().enumerate().map(|(i, &c)| (ValueKey::Int(i as i64), c)).collect();
            ValueDistribution::from_counts(&map)
        };
        let p = to_dist(&counts_p);
        let q = to_dist(&counts_q);
        prop_assert!(p.kl_divergence(&q) >= 0.0);
        prop_assert!(p.kl_divergence(&p) < 1e-9);
    }

    /// CSV round-trips preserve shape and values.
    #[test]
    fn csv_round_trip(
        values in prop::collection::vec(prop::option::of(-1000i64..1000), 1..50),
        cats in prop::collection::vec(any::<u8>(), 1..50),
    ) {
        let df = int_frame(values, cats);
        let back = DataFrame::from_csv_str(&df.to_csv_string()).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        prop_assert_eq!(back.n_cols(), df.n_cols());
        for r in 0..df.n_rows() {
            prop_assert_eq!(
                back.value(r, "x").unwrap().to_owned(),
                df.value(r, "x").unwrap().to_owned()
            );
        }
    }

    /// Sorting is a permutation and is ordered on the sort key.
    #[test]
    fn sort_is_ordered_permutation(
        values in prop::collection::vec(prop::option::of(-50i64..50), 1..100),
        cats in prop::collection::vec(any::<u8>(), 1..100),
    ) {
        let df = int_frame(values, cats);
        let sorted = df.sort_by("x", false).unwrap();
        prop_assert_eq!(sorted.n_rows(), df.n_rows());
        let mut prev: Option<f64> = None;
        let mut seen_null = false;
        for r in 0..sorted.n_rows() {
            match sorted.value(r, "x").unwrap().as_f64() {
                Some(v) => {
                    prop_assert!(!seen_null, "non-null after null");
                    if let Some(p) = prev {
                        prop_assert!(p <= v);
                    }
                    prev = Some(v);
                }
                None => seen_null = true,
            }
        }
    }

    /// Row permutation invariance: `value_counts` iterates in `ValueKey`
    /// order (BTreeMap) and distributions/KL are bit-identical regardless
    /// of the order rows arrived in — the property the hash-order lint
    /// rule exists to protect.
    #[test]
    fn value_counts_order_is_row_permutation_invariant(
        values in prop::collection::vec(prop::option::of(-8i64..8), 2..80),
        cats in prop::collection::vec(any::<u8>(), 2..80),
        rotate in 1usize..40,
    ) {
        let df = int_frame(values.clone(), cats.clone());
        let n = df.n_rows();
        let rows: Vec<usize> = (0..n).map(|r| (r + rotate) % n).collect();
        let permuted = df.take(&rows);

        for col in ["x", "cat"] {
            let a = df.column(col).unwrap().value_counts();
            let b = permuted.column(col).unwrap().value_counts();
            // Same multiset of counts, and iteration yields sorted keys.
            prop_assert_eq!(&a, &b);
            let keys: Vec<&ValueKey> = a.keys().collect();
            let mut sorted = keys.clone();
            sorted.sort();
            prop_assert_eq!(keys, sorted);

            // Distributions built from the two orderings are bit-identical:
            // same support, same probability bits, same KL against a shared
            // reference.
            let da = ValueDistribution::from_counts(&a);
            let db = ValueDistribution::from_counts(&b);
            prop_assert_eq!(da.support_size(), db.support_size());
            for k in a.keys() {
                prop_assert_eq!(da.prob(k).to_bits(), db.prob(k).to_bits());
            }
            let reference = ValueDistribution::from_counts(&df.column(col).unwrap().value_counts());
            prop_assert_eq!(
                da.kl_divergence(&reference).to_bits(),
                db.kl_divergence(&reference).to_bits()
            );
        }
    }
}

/// One row of [`mixed_frame`].
type Row = (Option<&'static str>, Option<i64>, Option<f64>, Option<bool>);

const MIXED_COLUMNS: [&str; 4] = ["s", "i", "f", "b"];

const ALL_AGGS: [AggFunc; 7] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Median,
    AggFunc::Std,
];

fn mixed_row() -> impl Strategy<Value = Row> {
    let strs = (0usize..6).prop_map(|i| ["", "a", "ab", "b", "ba", "c"][i]);
    let floats = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (-3i64..4).prop_map(|x| x as f64 * 0.5),
        -1e3f64..1e3,
    ];
    (
        prop::option::of(strs),
        prop::option::of(-4i64..4),
        prop::option::of(floats),
        prop::option::of(any::<bool>()),
    )
}

/// A frame with one column of each dtype. `int_scale` spreads the integers
/// so that wide ranges (hashed key codes) are drawn as well as narrow ones.
fn mixed_frame(rows: &[Row], int_scale: i64) -> DataFrame {
    DataFrame::builder()
        .str("s", AttrRole::Categorical, rows.iter().map(|r| r.0))
        .int(
            "i",
            AttrRole::Numeric,
            rows.iter().map(|r| r.1.map(|x| x * int_scale)),
        )
        .float("f", AttrRole::Numeric, rows.iter().map(|r| r.2))
        .bool("b", AttrRole::Categorical, rows.iter().map(|r| r.3))
        .build()
        .expect("valid frame")
}

/// Key names from column picks, first occurrence kept.
fn key_list(picks: &[usize]) -> Vec<&'static str> {
    let mut keys: Vec<&'static str> = Vec::new();
    for &p in picks {
        if !keys.contains(&MIXED_COLUMNS[p]) {
            keys.push(MIXED_COLUMNS[p]);
        }
    }
    keys
}

/// Every (aggregate, column) pair the dtype supports.
fn supported_aggs(df: &DataFrame) -> Vec<(AggFunc, &'static str)> {
    ALL_AGGS
        .iter()
        .flat_map(|&f| MIXED_COLUMNS.iter().map(move |&c| (f, c)))
        .filter(|&(f, c)| f.supports(df.column(c).unwrap().dtype()))
        .collect()
}

/// The same frame plus two views whose first-appearance orders and
/// dictionaries differ: rows reversed, and the rows kept by a filter.
fn frame_and_views(df: DataFrame) -> Vec<DataFrame> {
    let reversed: Vec<usize> = (0..df.n_rows()).rev().collect();
    let reversed = df.take(&reversed);
    let filtered = df
        .filter(&Predicate::new("s", CmpOp::Neq, "a"))
        .expect("valid predicate");
    vec![df, reversed, filtered]
}

/// Filter terms per column: matching and mismatched types, null included.
fn terms_for(column: &str) -> Vec<Value> {
    let mut terms = vec![Value::Null];
    terms.extend(match column {
        "s" => vec![
            Value::from(""),
            Value::from("a"),
            Value::from("b"),
            Value::from("zz"),
            Value::Int(1),
        ],
        "i" => vec![
            Value::Int(0),
            Value::Int(-3),
            Value::Int(3_000_009),
            Value::Float(0.5),
            Value::Float(f64::NAN),
            Value::from("a"),
        ],
        "f" => vec![
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(0.5),
            Value::Int(1),
            Value::Bool(true),
        ],
        _ => vec![Value::Bool(true), Value::Bool(false), Value::Int(1)],
    });
    terms
}

proptest! {
    /// GROUP on codes equals the per-row `ValueKey` path bit for bit, for
    /// every aggregate over every supported column, on 1–3 mixed-dtype keys.
    #[test]
    fn group_aggregate_multi_matches_the_oracle(
        rows in prop::collection::vec(mixed_row(), 0..150),
        int_scale in prop_oneof![Just(1i64), Just(1_000_003i64)],
        picks in prop::collection::vec(0usize..4, 1..4),
        extra in (0usize..7, 0usize..4),
    ) {
        let keys = key_list(&picks);
        for df in frame_and_views(mixed_frame(&rows, int_scale)) {
            let aggs = supported_aggs(&df);
            let actual = df.group_aggregate_multi(&keys, &aggs).unwrap();
            let expected = oracle::group_aggregate_multi(&df, &keys, &aggs).unwrap();
            oracle::assert_same_frame(&actual, &expected, &format!("keys {keys:?}"));
            // One aggregate on its own, unsupported pairs included.
            let single = [(ALL_AGGS[extra.0], MIXED_COLUMNS[extra.1])];
            match (
                df.group_aggregate_multi(&keys, &single),
                oracle::group_aggregate_multi(&df, &keys, &single),
            ) {
                (Ok(a), Ok(e)) => oracle::assert_same_frame(&a, &e, &format!("{single:?}")),
                (a, e) => prop_assert_eq!(a.err(), e.err()),
            }
        }
    }

    /// `group_by` yields the oracle's key tuples and row lists, in order.
    #[test]
    fn group_by_matches_the_oracle(
        rows in prop::collection::vec(mixed_row(), 0..150),
        int_scale in prop_oneof![Just(1i64), Just(1_000_003i64)],
        picks in prop::collection::vec(0usize..4, 1..4),
    ) {
        let keys = key_list(&picks);
        for df in frame_and_views(mixed_frame(&rows, int_scale)) {
            let groups = df.group_by(&keys).unwrap();
            let actual: Vec<(Vec<ValueKey>, Vec<usize>)> =
                groups.iter().map(|(k, r)| (k.to_vec(), r.to_vec())).collect();
            prop_assert_eq!(actual, oracle::group_by(&df, &keys).unwrap());
            prop_assert_eq!(groups.n_source_rows(), df.n_rows());
        }
    }

    /// `filter_indices` equals the per-row `Predicate::matches` scan for
    /// every operator and term, and the filtered frame equals one gathered
    /// value by value (dictionary order included).
    #[test]
    fn filter_matches_the_row_scan(
        rows in prop::collection::vec(mixed_row(), 0..150),
        int_scale in prop_oneof![Just(1i64), Just(1_000_003i64)],
    ) {
        for df in frame_and_views(mixed_frame(&rows, int_scale)) {
            for column in MIXED_COLUMNS {
                for term in terms_for(column) {
                    for op in CmpOp::ALL {
                        let pred = Predicate::new(column, op, term.clone());
                        prop_assert_eq!(
                            df.filter_indices(&pred),
                            oracle::filter_indices(&df, &pred),
                            "{}", pred
                        );
                        if let Ok(expected) = oracle::filter(&df, &pred) {
                            let actual = df.filter(&pred).unwrap();
                            oracle::assert_same_frame(&actual, &expected, &pred.to_string());
                        }
                    }
                }
            }
        }
    }

    /// Column statistics and distinct counts equal the `BTreeMap`-built ones.
    #[test]
    fn column_stats_match_the_btreemap_stats(
        rows in prop::collection::vec(mixed_row(), 0..150),
        int_scale in prop_oneof![Just(1i64), Just(1_000_003i64)],
    ) {
        for df in frame_and_views(mixed_frame(&rows, int_scale)) {
            for column in MIXED_COLUMNS {
                let col = df.column(column).unwrap();
                let expected = oracle::column_stats(col);
                oracle::assert_same_stats(&df.column_stats(column).unwrap(), &expected, column);
                prop_assert_eq!(col.n_distinct(), expected.n_distinct);
            }
        }
    }
}
