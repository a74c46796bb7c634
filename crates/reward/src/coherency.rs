//! Coherency classification (paper §4.2): a weak-supervision classifier
//! built from heuristic labeling rules — general rules that apply to any
//! dataset plus data-dependent rules parameterized by the schema's semantic
//! roles and the user's focal attributes. The rules' votes are combined by
//! the generative [`LabelModel`].

use crate::labelmodel::{LabelModel, Vote};
use atena_dataframe::AttrRole;
use atena_env::{OpOutcome, OpType, ResolvedOp, StepInfo};
use serde::{Deserialize, Serialize};

/// A labeling rule: inspects a step in context and votes.
pub trait CoherencyRule: Send + Sync {
    /// Stable rule name (diagnostics / reports).
    fn name(&self) -> &'static str;
    /// Vote on a step.
    fn vote(&self, info: &StepInfo<'_>) -> Vote;
}

/// Configuration for the data-dependent rules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoherencyConfig {
    /// Focal attributes the user cares about (paper §3): operations that
    /// involve them are preferred.
    pub focal_attrs: Vec<String>,
    /// Group-by keys with more distinct values than this are incoherent.
    pub max_group_cardinality: usize,
    /// Stacking more group-by attributes than this is incoherent.
    pub max_group_attrs: usize,
}

impl CoherencyConfig {
    /// Defaults matching the paper's examples (4 group attributes max).
    pub fn with_focal_attrs(focal_attrs: Vec<String>) -> Self {
        Self {
            focal_attrs,
            max_group_cardinality: 50,
            max_group_attrs: 4,
        }
    }
}

/// Attribute names referenced by an operation.
fn op_attrs(op: &ResolvedOp) -> Vec<&str> {
    match op {
        ResolvedOp::Filter(p) => vec![p.attr.as_str()],
        ResolvedOp::Group { key, agg, .. } => vec![key.as_str(), agg.as_str()],
        ResolvedOp::Back => vec![],
    }
}

fn role_of(info: &StepInfo<'_>, attr: &str) -> Option<AttrRole> {
    info.base.schema().field(attr).ok().map(|f| f.role)
}

macro_rules! rule {
    ($struct_name:ident, $name:literal, $info:ident, $body:expr) => {
        /// See the rule table in the module docs.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $struct_name;
        impl CoherencyRule for $struct_name {
            fn name(&self) -> &'static str {
                $name
            }
            fn vote(&self, $info: &StepInfo<'_>) -> Vote {
                $body
            }
        }
    };
}

rule!(InvalidOpRule, "invalid-op", info, {
    match info.outcome {
        OpOutcome::Invalid(_) => Vote::Incoherent,
        _ => Vote::Abstain,
    }
});

rule!(TooManyGroupAttrsRule, "group-on-many-attrs", info, {
    // Paper: "a group-by employed on more than four attributes is incoherent".
    if info.op.op_type() == OpType::Group && info.new_display.spec.group_keys.len() > 4 {
        Vote::Incoherent
    } else {
        Vote::Abstain
    }
});

rule!(
    GroupOnContinuousRule,
    "group-on-continuous-numeric",
    info,
    {
        // Paper: "a group-by on a continuous, numerical attribute is incoherent".
        // The rule only flags the violation; voting Coherent for every
        // categorical grouping would saturate the posterior and drown the
        // rarer churn signals.
        if let ResolvedOp::Group { key, .. } = info.op {
            if role_of(info, key) == Some(AttrRole::Numeric) {
                return Vote::Incoherent;
            }
        }
        Vote::Abstain
    }
);

rule!(RepeatedOpRule, "repeated-op", info, {
    let recent = info.past_ops.iter().rev().take(3);
    for prev in recent {
        if &prev.op == info.op && info.op.op_type() != OpType::Back {
            return Vote::Incoherent;
        }
    }
    Vote::Abstain
});

rule!(EmptyResultRule, "empty-result", info, {
    if info.outcome.is_applied()
        && info.op.op_type() == OpType::Filter
        && info.new_display.n_data_rows() == 0
    {
        Vote::Incoherent
    } else {
        Vote::Abstain
    }
});

rule!(BackAfterBackRule, "back-after-back", info, {
    if info.op.op_type() == OpType::Back {
        match info.past_ops.last() {
            Some(prev) if prev.op.op_type() == OpType::Back => Vote::Incoherent,
            Some(_) => Vote::Abstain,
            None => Vote::Incoherent, // BACK as the very first operation
        }
    } else {
        Vote::Abstain
    }
});

rule!(UselessFilterRule, "useless-filter", info, {
    if info.op.op_type() != OpType::Filter || !info.outcome.is_applied() {
        return Vote::Abstain;
    }
    let before = info.prev_display.n_data_rows();
    let after = info.new_display.n_data_rows();
    if before == 0 {
        return Vote::Abstain;
    }
    let kept = after as f64 / before as f64;
    if kept > 0.97 {
        Vote::Incoherent // filter changed (almost) nothing
    } else {
        // Selectivity alone is not evidence of coherence — voting Coherent
        // for every somewhat-selective filter lets this blunt heuristic
        // outvote the surgical churn rules once the label model inflates
        // its accuracy. The positive signal comes from the pattern rules.
        Vote::Abstain
    }
});

rule!(SingletonGroupsRule, "singleton-groups", info, {
    if info.op.op_type() != OpType::Group || !info.outcome.is_applied() {
        return Vote::Abstain;
    }
    match &info.new_display.grouping {
        Some(g) if g.n_groups > 0 => {
            let rows = info.new_display.n_data_rows().max(1);
            if g.n_groups == rows && rows > 8 {
                Vote::Incoherent // group-by on a (near-)unique key
            } else {
                Vote::Abstain
            }
        }
        _ => Vote::Abstain,
    }
});

rule!(DrillDownRule, "drill-down-pattern", info, {
    // Filtering on an attribute that the previous display grouped by is the
    // canonical drill-down and reads naturally in a notebook.
    if let ResolvedOp::Filter(p) = info.op {
        if info.prev_display.spec.group_keys.contains(&p.attr) {
            return Vote::Coherent;
        }
    }
    Vote::Abstain
});

rule!(DrillIntoExtremeRule, "drill-into-extreme-group", info, {
    // The paper's Example 1.1 narrative: group by month, *see* that June is
    // worst, then filter to June. Filtering the previous grouped display to
    // its dominant or extreme-aggregate group is the most coherent move in
    // an EDA notebook; filtering it to a value that is not even among the
    // groups reads as a non sequitur.
    let ResolvedOp::Filter(p) = info.op else {
        return Vote::Abstain;
    };
    if p.op != atena_dataframe::CmpOp::Eq {
        return Vote::Abstain;
    }
    let prev = info.prev_display;
    if !prev.spec.group_keys.contains(&p.attr) {
        return Vote::Abstain;
    }
    let result = &prev.result;
    let Ok(key_col) = result.column(&p.attr) else {
        return Vote::Abstain;
    };
    let term_key = p.term.as_ref().key();
    let mut found = false;
    let mut is_top_count = false;
    let mut is_extreme_agg = false;
    // Largest group by count.
    if let Ok(count_col) = result.column("count") {
        let mut best: Option<(f64, usize)> = None;
        for r in 0..result.n_rows() {
            let c = count_col.get(r).as_f64().unwrap_or(0.0);
            if best.is_none_or(|(b, _)| c > b) {
                best = Some((c, r));
            }
            if key_col.get(r).key() == term_key {
                found = true;
            }
        }
        if let Some((_, r)) = best {
            is_top_count = key_col.get(r).key() == term_key;
        }
    }
    // Extreme (max) row of any aggregate column.
    for field in result.schema().fields() {
        if field.name == "count" || !field.name.contains('(') {
            continue;
        }
        let Ok(agg_col) = result.column(&field.name) else {
            continue;
        };
        let mut best: Option<(f64, usize)> = None;
        for r in 0..result.n_rows() {
            if let Some(v) = agg_col.get(r).as_f64() {
                if best.is_none_or(|(b, _)| v > b) {
                    best = Some((v, r));
                }
            }
        }
        if let Some((_, r)) = best {
            if key_col.get(r).key() == term_key {
                is_extreme_agg = true;
            }
        }
    }
    if is_top_count || is_extreme_agg {
        Vote::Coherent
    } else if !found {
        Vote::Incoherent
    } else {
        Vote::Abstain
    }
});

rule!(AggregateCategoricalRule, "aggregate-categorical", info, {
    // MIN/MAX/SUM/AVG over a categorical or free-text column is
    // syntactically valid but reads as noise ("MAX(source_ip)"); the
    // natural aggregate over non-measures is COUNT.
    if let ResolvedOp::Group { agg, func, .. } = info.op {
        if *func != atena_dataframe::AggFunc::Count {
            match role_of(info, agg) {
                Some(AttrRole::Categorical) | Some(AttrRole::Text) => {
                    return Vote::Incoherent;
                }
                _ => {}
            }
        }
    }
    Vote::Abstain
});

rule!(RefilterSameAttrRule, "refilter-same-attr", info, {
    // Stacking a second range/equality filter on an attribute the current
    // display is already filtered by (time <= 858, then time < 269, then
    // time > 50 ...) narrows the same sliver over and over — churn, not
    // exploration.
    if let ResolvedOp::Filter(p) = info.op {
        if info
            .prev_display
            .spec
            .predicates
            .iter()
            .any(|q| q.attr == p.attr)
        {
            return Vote::Incoherent;
        }
    }
    Vote::Abstain
});

rule!(RegroupSameKeyRule, "regroup-same-key", info, {
    // Re-issuing a GROUP whose key the current display is already grouped
    // by (only the aggregate changes) churns the same view — the
    // degenerate loop a reward-hacking agent falls into.
    if let ResolvedOp::Group { key, .. } = info.op {
        if info.prev_display.spec.group_keys.contains(key) {
            return Vote::Incoherent;
        }
    }
    Vote::Abstain
});

rule!(NoNovelViewRule, "no-novel-view", info, {
    // An operation whose resulting display is (numerically) almost
    // indistinguishable from one already seen adds nothing to the
    // notebook. BACK is navigation, not content — exempt.
    if info.op.op_type() == OpType::Back || !info.outcome.is_applied() {
        return Vote::Abstain;
    }
    const EPS: f64 = 0.02;
    let v = &info.new_display.vector;
    let dim = v.dim().max(1) as f64;
    for earlier in &info.earlier_vectors {
        if v.euclidean_distance(earlier) / dim.sqrt() < EPS {
            return Vote::Incoherent;
        }
    }
    Vote::Abstain
});

rule!(GroupOnIdentifierRule, "group-on-identifier", info, {
    // Data-dependent rule family from the paper: operations keyed on an
    // identifier column (e.g. 'flight-number') are largely incoherent.
    if let ResolvedOp::Group { key, .. } = info.op {
        if role_of(info, key) == Some(AttrRole::Identifier) {
            return Vote::Incoherent;
        }
    }
    Vote::Abstain
});

rule!(GroupAfterFilterRule, "group-after-filter", info, {
    // Grouping right after narrowing the data is the classic explore step.
    if info.op.op_type() == OpType::Group && info.outcome.is_applied() {
        if let Some(prev) = info.past_ops.last() {
            if prev.op.op_type() == OpType::Filter {
                return Vote::Coherent;
            }
        }
    }
    Vote::Abstain
});

/// Data-dependent rule: aggregations over identifier-like columns with a
/// numeric function are meaningless (paper's example: "aggregating on the
/// column 'flight-number' is largely incoherent").
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregateIdentifierRule;
impl CoherencyRule for AggregateIdentifierRule {
    fn name(&self) -> &'static str {
        "aggregate-identifier"
    }
    fn vote(&self, info: &StepInfo<'_>) -> Vote {
        if let ResolvedOp::Group { agg, func, .. } = info.op {
            if role_of(info, agg) == Some(AttrRole::Identifier)
                && *func != atena_dataframe::AggFunc::Count
            {
                return Vote::Incoherent;
            }
        }
        Vote::Abstain
    }
}

/// Data-dependent rule: operations that touch a focal attribute are
/// preferred (paper: "if the user focuses on flight delays, aggregating on
/// 'departure-delay time' is preferred").
#[derive(Debug, Clone, Default)]
pub struct FocalAttrRule {
    focal: Vec<String>,
}
impl FocalAttrRule {
    /// Create from the configured focal attributes.
    pub fn new(focal: Vec<String>) -> Self {
        Self { focal }
    }
}
impl CoherencyRule for FocalAttrRule {
    fn name(&self) -> &'static str {
        "focal-attribute"
    }
    fn vote(&self, info: &StepInfo<'_>) -> Vote {
        if self.focal.is_empty() || !info.outcome.is_applied() {
            return Vote::Abstain;
        }
        if op_attrs(info.op)
            .iter()
            .any(|a| self.focal.iter().any(|f| f == a))
        {
            Vote::Coherent
        } else {
            Vote::Abstain
        }
    }
}

/// Data-dependent rule: group-by keys with huge cardinality are unreadable.
#[derive(Debug, Clone, Copy)]
pub struct HighCardinalityKeyRule {
    max: usize,
}
impl HighCardinalityKeyRule {
    /// Create with the configured cardinality cap.
    pub fn new(max: usize) -> Self {
        Self { max }
    }
}
impl CoherencyRule for HighCardinalityKeyRule {
    fn name(&self) -> &'static str {
        "high-cardinality-key"
    }
    fn vote(&self, info: &StepInfo<'_>) -> Vote {
        if let Some(g) = &info.new_display.grouping {
            // Only shattered groupings are incoherent: many groups AND
            // barely more rows than groups. A 254-group breakdown of a
            // 5000-row scan is exactly what an analyst wants to see.
            let rows = info.new_display.n_data_rows();
            if info.op.op_type() == OpType::Group && g.n_groups > self.max && g.n_groups * 2 >= rows
            {
                return Vote::Incoherent;
            }
        }
        Vote::Abstain
    }
}

/// The full coherency classifier: the rule set plus the fitted label model.
pub struct CoherencyClassifier {
    rules: Vec<Box<dyn CoherencyRule>>,
    model: LabelModel,
}

impl CoherencyClassifier {
    /// Build the standard rule set (general + data-dependent) for a
    /// configuration, with an untrained (majority-vote) label model.
    pub fn new(config: &CoherencyConfig) -> Self {
        let rules: Vec<Box<dyn CoherencyRule>> = vec![
            Box::new(InvalidOpRule),
            Box::new(TooManyGroupAttrsRule),
            Box::new(GroupOnContinuousRule),
            Box::new(RepeatedOpRule),
            Box::new(EmptyResultRule),
            Box::new(BackAfterBackRule),
            Box::new(UselessFilterRule),
            Box::new(SingletonGroupsRule),
            Box::new(DrillDownRule),
            Box::new(DrillIntoExtremeRule),
            Box::new(GroupOnIdentifierRule),
            Box::new(RegroupSameKeyRule),
            Box::new(RefilterSameAttrRule),
            Box::new(AggregateCategoricalRule),
            Box::new(NoNovelViewRule),
            Box::new(GroupAfterFilterRule),
            Box::new(AggregateIdentifierRule),
            Box::new(FocalAttrRule::new(config.focal_attrs.clone())),
            Box::new(HighCardinalityKeyRule::new(
                config.max_group_cardinality.max(1),
            )),
        ];
        let model = LabelModel::untrained(rules.len());
        Self { rules, model }
    }

    /// Rule names in vote order.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Collect one vote row for a step.
    pub fn votes(&self, info: &StepInfo<'_>) -> Vec<Vote> {
        self.rules.iter().map(|r| r.vote(info)).collect()
    }

    /// Fit the generative label model from unlabeled vote rows (collected by
    /// probing the environment with a random policy).
    pub fn fit(&mut self, vote_rows: &[Vec<Vote>]) {
        if !vote_rows.is_empty() {
            self.model = LabelModel::fit(vote_rows);
        }
    }

    /// Coherency confidence in `[0, 1]` for a step.
    pub fn score(&self, info: &StepInfo<'_>) -> f64 {
        self.model.posterior_coherent(&self.votes(info))
    }

    /// Access the underlying label model.
    pub fn model(&self) -> &LabelModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::{AttrRole, DataFrame};
    use atena_env::{EdaAction, EdaEnv, EnvConfig};

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "airline",
                AttrRole::Categorical,
                (0..60).map(|i| Some(["AA", "DL", "UA"][i % 3])),
            )
            .float(
                "delay",
                AttrRole::Numeric,
                (0..60).map(|i| Some(i as f64 * 1.37)),
            )
            .int(
                "flight_no",
                AttrRole::Identifier,
                (0..60).map(|i| Some(1000 + i as i64)),
            )
            .build()
            .unwrap()
    }

    fn env() -> EdaEnv {
        EdaEnv::new(
            base(),
            EnvConfig {
                episode_len: 12,
                n_bins: 5,
                history_window: 3,
                seed: 3,
            },
        )
    }

    fn classifier() -> CoherencyClassifier {
        CoherencyClassifier::new(&CoherencyConfig::with_focal_attrs(vec!["delay".into()]))
    }

    #[test]
    fn back_as_first_op_is_incoherent() {
        let mut e = env();
        e.reset();
        let c = classifier();
        let op = e.resolve(&EdaAction::Back);
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let votes = c.votes(&info);
        assert!(votes.contains(&Vote::Incoherent));
        assert!(c.score(&info) < 0.5);
    }

    #[test]
    fn categorical_group_is_coherent() {
        let mut e = env();
        e.reset();
        let c = classifier();
        // Group by airline (categorical), AVG delay (focal!).
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 2,
            agg: 1,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let score = c.score(&info);
        assert!(score > 0.5, "got {score}");
    }

    #[test]
    fn group_on_continuous_numeric_is_incoherent() {
        let mut e = env();
        e.reset();
        let c = classifier();
        // Group by delay (continuous float).
        let op = e.resolve(&EdaAction::Group {
            key: 1,
            func: 0,
            agg: 0,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let score = c.score(&info);
        assert!(score < 0.5, "got {score}");
    }

    #[test]
    fn aggregate_identifier_is_incoherent() {
        let mut e = env();
        e.reset();
        let c = classifier();
        // AVG(flight_no) grouped by airline.
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 2,
            agg: 2,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let votes = c.votes(&info);
        let idx = c
            .rule_names()
            .iter()
            .position(|&n| n == "aggregate-identifier")
            .unwrap();
        assert_eq!(votes[idx], Vote::Incoherent);
    }

    #[test]
    fn repeated_op_detected() {
        let mut e = env();
        e.reset();
        let c = classifier();
        let action = EdaAction::Group {
            key: 0,
            func: 2,
            agg: 1,
        };
        e.step(&action);
        // Applying the identical grouping again (spec dedups, so the display
        // is unchanged but the op repeats).
        let op = e.resolve(&action);
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let idx = c
            .rule_names()
            .iter()
            .position(|&n| n == "repeated-op")
            .unwrap();
        assert_eq!(c.votes(&info)[idx], Vote::Incoherent);
    }

    #[test]
    fn fitting_on_probe_votes_changes_model() {
        let mut e = env();
        e.reset();
        let mut c = classifier();
        let mut rows = Vec::new();
        let mut rng_actions = vec![
            EdaAction::Group {
                key: 0,
                func: 2,
                agg: 1,
            },
            EdaAction::Back,
            EdaAction::Filter {
                attr: 0,
                op: 0,
                bin: 4,
            },
            EdaAction::Group {
                key: 1,
                func: 0,
                agg: 0,
            },
            EdaAction::Back,
            EdaAction::Back,
        ];
        rng_actions.extend_from_within(..);
        for a in &rng_actions {
            let op = e.resolve(a);
            let p = e.preview(&op);
            let info = e.step_info(&p);
            rows.push(c.votes(&info));
            e.commit(p);
            if e.done() {
                e.reset();
            }
        }
        let before = c.model().accuracies().to_vec();
        c.fit(&rows);
        assert_ne!(before, c.model().accuracies());
    }

    #[test]
    fn drill_into_extreme_group_rule() {
        let mut e = env();
        e.reset();
        let c = classifier();
        // Group by airline with AVG(delay): the last airline index has the
        // largest delays in our ramp (delay grows with row index), so the
        // extreme group is deterministic. First apply the grouping.
        e.step(&EdaAction::Group {
            key: 0,
            func: 2,
            agg: 1,
        });
        let grouped = e.session().current();
        // Find the extreme airline from the actual result.
        let result = &grouped.result;
        let mut best: Option<(f64, String)> = None;
        for r in 0..result.n_rows() {
            let v = result.value(r, "AVG(delay)").unwrap().as_f64().unwrap();
            let k = result
                .value(r, "airline")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            if best.as_ref().is_none_or(|(b, _)| v > *b) {
                best = Some((v, k));
            }
        }
        let extreme = best.unwrap().1;
        let idx = c
            .rule_names()
            .iter()
            .position(|&n| n == "drill-into-extreme-group")
            .unwrap();

        // Filtering into the extreme group: coherent.
        let op = atena_env::ResolvedOp::Filter(atena_dataframe::Predicate::new(
            "airline",
            atena_dataframe::CmpOp::Eq,
            extreme.as_str(),
        ));
        let p = e.preview(&op);
        let info = e.step_info(&p);
        assert_eq!(c.votes(&info)[idx], Vote::Coherent);

        // Filtering into a value that is not a group at all: incoherent.
        let op = atena_env::ResolvedOp::Filter(atena_dataframe::Predicate::new(
            "airline",
            atena_dataframe::CmpOp::Eq,
            "NOPE",
        ));
        let p = e.preview(&op);
        let info = e.step_info(&p);
        assert_eq!(c.votes(&info)[idx], Vote::Incoherent);
    }

    #[test]
    fn group_on_identifier_rule() {
        let mut e = env();
        e.reset();
        let c = classifier();
        // Group by flight_no (Identifier).
        let op = e.resolve(&EdaAction::Group {
            key: 2,
            func: 0,
            agg: 1,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let idx = c
            .rule_names()
            .iter()
            .position(|&n| n == "group-on-identifier")
            .unwrap();
        assert_eq!(c.votes(&info)[idx], Vote::Incoherent);
    }

    #[test]
    fn high_cardinality_only_fires_on_shattered_groupings() {
        use atena_dataframe::DataFrame;
        // 400 rows, 200 distinct keys -> shattered (2 rows per group).
        let shattered = DataFrame::builder()
            .int(
                "k",
                AttrRole::Categorical,
                (0..400).map(|i| Some((i / 2) as i64)),
            )
            .int("v", AttrRole::Numeric, (0..400).map(|i| Some(i as i64)))
            .build()
            .unwrap();
        let mut e = EdaEnv::new(
            shattered,
            EnvConfig {
                episode_len: 4,
                ..Default::default()
            },
        );
        e.reset();
        let c = classifier();
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 0,
            agg: 1,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let idx = c
            .rule_names()
            .iter()
            .position(|&n| n == "high-cardinality-key")
            .unwrap();
        assert_eq!(c.votes(&info)[idx], Vote::Incoherent);

        // 4000 rows over 200 groups (20 each): a legitimate breakdown.
        let dense = DataFrame::builder()
            .int(
                "k",
                AttrRole::Categorical,
                (0..4000).map(|i| Some((i % 200) as i64)),
            )
            .int("v", AttrRole::Numeric, (0..4000).map(|i| Some(i as i64)))
            .build()
            .unwrap();
        let mut e = EdaEnv::new(
            dense,
            EnvConfig {
                episode_len: 4,
                ..Default::default()
            },
        );
        e.reset();
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 0,
            agg: 1,
        });
        let p = e.preview(&op);
        let info = e.step_info(&p);
        assert_eq!(c.votes(&info)[idx], Vote::Abstain);
    }

    #[test]
    fn useless_filter_rule() {
        let mut e = env();
        e.reset();
        let c = classifier();
        // delay >= 0 keeps everything -> useless.
        let op = atena_env::ResolvedOp::Filter(atena_dataframe::Predicate::new(
            "delay",
            atena_dataframe::CmpOp::Ge,
            0i64,
        ));
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let idx = c
            .rule_names()
            .iter()
            .position(|&n| n == "useless-filter")
            .unwrap();
        assert_eq!(c.votes(&info)[idx], Vote::Incoherent);
    }
}
