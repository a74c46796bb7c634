//! Deterministic sweep of the dictionary-code operators against the
//! row-at-a-time oracle on Cyber #1: every 1- and 2-key grouping with every
//! action-space aggregate of every attribute, plus the column statistics,
//! on the base frame and on a filtered view. The random-frame proptests in
//! `crates/dataframe/tests/proptests.rs` cover nulls and special floats;
//! this covers the real dataset's shapes, including key spaces wide enough
//! to take the hashed paths.

#[path = "../../dataframe/tests/oracle/mod.rs"]
mod oracle;

use atena_dataframe::{AggFunc, CmpOp, DataFrame, Predicate};

#[test]
fn cyber1_group_filter_and_stats_match_the_oracle() {
    let base = atena_data::cyber1().frame;
    // The background traffic: the rows the ICMP sweep does not drown.
    let not_icmp = Predicate::new("protocol", CmpOp::Neq, "icmp");
    let view = base.filter(&not_icmp).unwrap();
    oracle::assert_same_frame(&view, &oracle::filter(&base, &not_icmp).unwrap(), "view");

    let names = base.schema().names();
    let mut key_lists: Vec<Vec<&str>> = names.iter().map(|&k| vec![k]).collect();
    for (i, &a) in names.iter().enumerate() {
        for &b in &names[i + 1..] {
            key_lists.push(vec![a, b]);
        }
    }
    let aggs: Vec<(AggFunc, &str)> = AggFunc::ALL
        .iter()
        .flat_map(|&f| names.iter().map(move |&a| (f, a)))
        .filter(|&(f, a)| f.supports(base.column(a).unwrap().dtype()))
        .collect();

    for (label, frame) in [("base", &base), ("view", &view)] {
        for keys in &key_lists {
            let actual = frame.group_aggregate_multi(keys, &aggs).unwrap();
            let expected = oracle::group_aggregate_multi(frame, keys, &aggs).unwrap();
            oracle::assert_same_frame(&actual, &expected, &format!("{label} {keys:?}"));
        }
        check_stats(label, frame);
    }
}

fn check_stats(label: &str, frame: &DataFrame) {
    for (i, field) in frame.schema().fields().iter().enumerate() {
        let col = frame.column_at(i);
        let expected = oracle::column_stats(col);
        let context = format!("{label} {}", field.name);
        oracle::assert_same_stats(
            &frame.column_stats(&field.name).unwrap(),
            &expected,
            &context,
        );
        assert_eq!(col.n_distinct(), expected.n_distinct, "{context}");
    }
}
