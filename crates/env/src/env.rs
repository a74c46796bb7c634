//! The episodic EDA environment (paper §3–4): the agent performs `N`
//! operations on a dataset, observing a fixed-size encoding of the recent
//! displays after each one.

use crate::action::{ActionSpace, EdaAction, FlatTermAction, ResolvedOp};
use crate::cache::DisplayCache;
use crate::display::{Display, DisplaySpec, DisplayVector};
use crate::session::{AppliedOp, OpOutcome, SessionTree};
use atena_dataframe::{AggFunc, CmpOp, DataFrame, Predicate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Environment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Episode length `N` — number of operations per notebook.
    pub episode_len: usize,
    /// Number of frequency bins `B` for the filter term parameter.
    pub n_bins: usize,
    /// How many recent display vectors the observation concatenates
    /// (paper: current display plus the two before it).
    pub history_window: usize,
    /// RNG seed for term sampling.
    pub seed: u64,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            episode_len: 12,
            n_bins: 10,
            history_window: 3,
            seed: 0,
        }
    }
}

/// Result of resolving + previewing an action before committing it.
#[derive(Debug, Clone)]
pub struct PreviewedStep {
    /// The resolved operation.
    pub op: ResolvedOp,
    /// Outcome classification.
    pub outcome: OpOutcome,
    /// The display the session would land on.
    pub display: Display,
    /// For BACK: the existing node id to return to.
    back_target: Option<usize>,
}

/// Everything a reward model needs to score one step.
pub struct StepInfo<'a> {
    /// The resolved operation.
    pub op: &'a ResolvedOp,
    /// Its outcome.
    pub outcome: &'a OpOutcome,
    /// Display before the operation.
    pub prev_display: &'a Display,
    /// Display after the operation.
    pub new_display: &'a Display,
    /// Vectors of every display seen strictly before the new one,
    /// in chronological order (the diversity reward minimizes over these).
    pub earlier_vectors: Vec<&'a DisplayVector>,
    /// Operations applied before this one, chronological.
    pub past_ops: &'a [AppliedOp],
    /// Zero-based step index of this operation.
    pub step: usize,
    /// The base dataset (schema/roles for coherency rules).
    pub base: &'a DataFrame,
}

/// One committed environment step.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation after the step (f32, ready for the policy network).
    pub observation: Vec<f32>,
    /// The resolved operation that was applied.
    pub op: ResolvedOp,
    /// Outcome classification.
    pub outcome: OpOutcome,
    /// Zero-based index of the step just taken.
    pub step: usize,
    /// True when the episode has reached `episode_len` operations.
    pub done: bool,
}

/// Reward breakdown per step (the compound signal of paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RewardBreakdown {
    /// Interestingness component (weighted).
    pub interestingness: f64,
    /// Diversity component (weighted).
    pub diversity: f64,
    /// Coherency component (weighted).
    pub coherency: f64,
    /// Penalty for invalid / degenerate operations.
    pub penalty: f64,
    /// Total reward.
    pub total: f64,
}

impl std::ops::AddAssign for RewardBreakdown {
    /// Component-wise accumulation (used to aggregate a per-episode
    /// decomposition from per-step breakdowns).
    fn add_assign(&mut self, rhs: Self) {
        self.interestingness += rhs.interestingness;
        self.diversity += rhs.diversity;
        self.coherency += rhs.coherency;
        self.penalty += rhs.penalty;
        self.total += rhs.total;
    }
}

/// A reward model scores individual steps given their [`StepInfo`].
pub trait RewardModel: Send + Sync {
    /// Score one step.
    fn score(&self, info: &StepInfo<'_>) -> RewardBreakdown;
}

/// A reward model that always returns zero (placeholder/testing).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullReward;

impl RewardModel for NullReward {
    fn score(&self, _info: &StepInfo<'_>) -> RewardBreakdown {
        RewardBreakdown::default()
    }
}

/// Cached telemetry handles so the per-step hot path never touches the
/// registry's lookup mutex (handles update lock-free).
#[derive(Debug, Clone)]
struct EnvTelemetry {
    ops_filter: atena_telemetry::Counter,
    ops_group: atena_telemetry::Counter,
    ops_back: atena_telemetry::Counter,
    ops_invalid: atena_telemetry::Counter,
    step_secs: atena_telemetry::Histogram,
}

impl EnvTelemetry {
    fn from_registry(reg: &atena_telemetry::MetricsRegistry) -> Self {
        Self {
            ops_filter: reg.counter("env.op.filter"),
            ops_group: reg.counter("env.op.group"),
            ops_back: reg.counter("env.op.back"),
            ops_invalid: reg.counter("env.op.invalid"),
            step_secs: reg.histogram("env.step_secs"),
        }
    }
}

/// A lane's handle to a shared [`DisplayCache`]: the cache plus the base
/// dataset's fingerprint, computed once at attach time so the per-step hot
/// path never re-hashes the column data.
#[derive(Debug, Clone)]
struct CacheHandle {
    cache: Arc<DisplayCache>,
    base_fp: u64,
}

/// The episodic EDA environment.
#[derive(Debug)]
pub struct EdaEnv {
    base: Arc<DataFrame>,
    space: ActionSpace,
    config: EnvConfig,
    session: SessionTree,
    step: usize,
    rng: StdRng,
    telemetry: EnvTelemetry,
    cache: Option<CacheHandle>,
}

impl EdaEnv {
    /// Create an environment over a dataset.
    pub fn new(base: DataFrame, config: EnvConfig) -> Self {
        Self::with_shared_base(Arc::new(base), config)
    }

    /// Create an environment over an already-shared dataset.
    ///
    /// The frame is refcounted, not copied, so a fleet of environments
    /// over the same dataset (e.g. rollout lanes) pays for one copy of
    /// the column data total rather than one per environment.
    pub fn with_shared_base(base: Arc<DataFrame>, config: EnvConfig) -> Self {
        let space = ActionSpace::from_frame(&base, config.n_bins);
        let root = Display::root(&base);
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            base,
            space,
            config,
            session: SessionTree::new(root),
            step: 0,
            rng,
            telemetry: EnvTelemetry::from_registry(atena_telemetry::global()),
            cache: None,
        }
    }

    /// Attach a shared display cache (DESIGN.md §4i) and restart the
    /// session so the root display itself goes through it. Subsequent
    /// previews look up `(base fingerprint, spec)` before materializing and
    /// publish what they compute; forks inherit the handle, so every lane
    /// over this dataset shares one cache.
    ///
    /// The cache is pure memoization — hits are bit-identical to
    /// recomputation — so attaching one changes speed, never transcripts.
    pub fn with_display_cache(mut self, cache: Arc<DisplayCache>) -> Self {
        let base_fp = self.base.fingerprint();
        self.cache = Some(CacheHandle { cache, base_fp });
        self.session = SessionTree::new(self.root_display());
        self.step = 0;
        self
    }

    /// Count this environment's `env.op.*` and `env.step_secs` metrics in
    /// `registry` instead of the process-wide one. Forks inherit the route.
    pub fn reroute_telemetry(&mut self, registry: &atena_telemetry::MetricsRegistry) {
        self.telemetry = EnvTelemetry::from_registry(registry);
    }

    /// The attached display cache, if any.
    pub fn display_cache(&self) -> Option<&Arc<DisplayCache>> {
        self.cache.as_ref().map(|h| &h.cache)
    }

    /// The root display, via the cache when one is attached (a reset is the
    /// most frequent cache customer of all: every episode needs the root).
    fn root_display(&self) -> Display {
        let spec = DisplaySpec::default();
        if let Some(h) = &self.cache {
            if let Some(d) = h.cache.get(h.base_fp, &spec) {
                return d;
            }
        }
        let root = Display::root(&self.base);
        self.cache_put(&root);
        root
    }

    fn cache_get(&self, spec: &DisplaySpec) -> Option<Display> {
        let h = self.cache.as_ref()?;
        h.cache.get(h.base_fp, spec)
    }

    fn cache_put(&self, display: &Display) {
        if let Some(h) = &self.cache {
            h.cache.put(h.base_fp, display);
        }
    }

    /// Cheaply fork this environment for another rollout lane: shares the
    /// base frame and the (immutable) action space, starts a fresh
    /// session at step 0 with `seed`. Unlike re-running [`EdaEnv::new`],
    /// no column data is copied and the action space is not rebuilt.
    pub fn fork_with_seed(&self, seed: u64) -> Self {
        let mut config = self.config.clone();
        config.seed = seed;
        Self {
            base: Arc::clone(&self.base),
            space: self.space.clone(),
            config,
            session: SessionTree::new(self.root_display()),
            step: 0,
            rng: StdRng::seed_from_u64(seed),
            telemetry: self.telemetry.clone(),
            cache: self.cache.clone(),
        }
    }

    /// The action space.
    pub fn action_space(&self) -> &ActionSpace {
        &self.space
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The base dataset.
    pub fn base(&self) -> &DataFrame {
        &self.base
    }

    /// The refcounted base dataset (lets callers verify or reuse sharing
    /// across forked environments).
    pub fn base_arc(&self) -> &Arc<DataFrame> {
        &self.base
    }

    /// The session tree (displays + operation log).
    pub fn session(&self) -> &SessionTree {
        &self.session
    }

    /// Observation dimensionality: `history_window ×` display-vector dim.
    pub fn observation_dim(&self) -> usize {
        self.config.history_window * DisplayVector::dim_for(self.base.n_cols())
    }

    /// Current step index (number of operations performed so far).
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// True once `episode_len` operations have been performed.
    pub fn done(&self) -> bool {
        self.step >= self.config.episode_len
    }

    /// Reset to a fresh episode; returns the initial observation.
    pub fn reset(&mut self) -> Vec<f32> {
        let root = self.root_display();
        self.session = SessionTree::new(root);
        self.step = 0;
        self.rng = StdRng::seed_from_u64(self.config.seed);
        self.observation()
    }

    /// Reset with a different term-sampling seed (used between episodes so
    /// exploration does not replay identical token draws).
    pub fn reset_with_seed(&mut self, seed: u64) -> Vec<f32> {
        let obs = self.reset();
        self.rng = StdRng::seed_from_u64(seed);
        obs
    }

    /// Resolve an index-form action into a concrete operation, sampling the
    /// filter term from the chosen frequency bin.
    pub fn resolve(&mut self, action: &EdaAction) -> ResolvedOp {
        match *action {
            EdaAction::Back => ResolvedOp::Back,
            EdaAction::Group { key, func, agg } => {
                let key_name = self.space.attr_name(key).unwrap_or("<invalid>").to_string();
                let agg_name = self.space.attr_name(agg).unwrap_or("<invalid>").to_string();
                let func = AggFunc::ALL[func.min(AggFunc::ALL.len() - 1)];
                ResolvedOp::Group {
                    key: key_name,
                    func,
                    agg: agg_name,
                }
            }
            EdaAction::Filter { attr, op, bin } => {
                let attr_name = self
                    .space
                    .attr_name(attr)
                    .unwrap_or("<invalid>")
                    .to_string();
                let op = CmpOp::ALL[op.min(CmpOp::ALL.len() - 1)];
                // Bins are memoized on the display (and shared through the
                // display cache); building them is RNG-free, so the memo
                // cannot perturb the sampling stream.
                let term = self
                    .session
                    .current()
                    .frequency_bins(&attr_name, self.config.n_bins)
                    .and_then(|bins| bins.sample(bin, &mut self.rng));
                match term {
                    Some(term) => ResolvedOp::Filter(Predicate {
                        attr: attr_name,
                        op,
                        term,
                    }),
                    // No tokens available (empty/all-null column): keep a
                    // syntactically complete op so the notebook and the
                    // penalty path have something to show.
                    None => ResolvedOp::Filter(Predicate {
                        attr: attr_name,
                        op,
                        term: atena_dataframe::Value::Null,
                    }),
                }
            }
        }
    }

    /// Resolve a flat-enumeration action with an explicit term (OTS-DRL).
    pub fn resolve_flat_term(&self, action: &FlatTermAction) -> ResolvedOp {
        match action {
            FlatTermAction::Back => ResolvedOp::Back,
            FlatTermAction::Group { key, func, agg } => {
                let key_name = self
                    .space
                    .attr_name(*key)
                    .unwrap_or("<invalid>")
                    .to_string();
                let agg_name = self
                    .space
                    .attr_name(*agg)
                    .unwrap_or("<invalid>")
                    .to_string();
                ResolvedOp::Group {
                    key: key_name,
                    func: AggFunc::ALL[(*func).min(AggFunc::ALL.len() - 1)],
                    agg: agg_name,
                }
            }
            FlatTermAction::Filter { attr, op, term } => {
                let attr_name = self
                    .space
                    .attr_name(*attr)
                    .unwrap_or("<invalid>")
                    .to_string();
                ResolvedOp::Filter(Predicate {
                    attr: attr_name,
                    op: CmpOp::ALL[(*op).min(CmpOp::ALL.len() - 1)],
                    term: term.clone(),
                })
            }
        }
    }

    /// Compute what applying `op` would do, without mutating the session.
    pub fn preview(&self, op: &ResolvedOp) -> PreviewedStep {
        match op {
            ResolvedOp::Back => match self.session.parent_of(self.session.current_id()) {
                Some(p) => PreviewedStep {
                    op: op.clone(),
                    outcome: OpOutcome::Applied,
                    display: self.session.display(p).clone(),
                    back_target: Some(p),
                },
                None => PreviewedStep {
                    op: op.clone(),
                    outcome: OpOutcome::BackAtRoot,
                    display: self.session.current().clone(),
                    back_target: None,
                },
            },
            ResolvedOp::Filter(pred) => {
                if pred.term.is_null() {
                    return self.invalid_preview(op, "no tokens available for term".into());
                }
                let current = self.session.current();
                let spec = current.spec.with_predicate(pred.clone());
                // Only successful materializations are ever cached, and a
                // spec's validity depends only on the schema, so a hit
                // proves this op would apply — skip straight to its result.
                if let Some(display) = self.cache_get(&spec) {
                    return PreviewedStep {
                        op: op.clone(),
                        outcome: OpOutcome::Applied,
                        display,
                        back_target: None,
                    };
                }
                // Incremental path: predicates are conjunctive, so filter
                // the parent's already-narrowed frame instead of the base.
                let built = current
                    .frame
                    .filter(pred)
                    .and_then(|frame| Display::from_parts(&self.base, spec, frame));
                match built {
                    Ok(display) => {
                        self.cache_put(&display);
                        PreviewedStep {
                            op: op.clone(),
                            outcome: OpOutcome::Applied,
                            display,
                            back_target: None,
                        }
                    }
                    Err(e) => self.invalid_preview(op, e.to_string()),
                }
            }
            ResolvedOp::Group { key, func, agg } => {
                let current = self.session.current();
                let spec = current.spec.with_grouping(key.clone(), *func, agg.clone());
                if let Some(display) = self.cache_get(&spec) {
                    return PreviewedStep {
                        op: op.clone(),
                        outcome: OpOutcome::Applied,
                        display,
                        back_target: None,
                    };
                }
                // Grouping does not change the data view: reuse the frame.
                match Display::from_parts(&self.base, spec, current.frame.clone()) {
                    Ok(display) => {
                        self.cache_put(&display);
                        PreviewedStep {
                            op: op.clone(),
                            outcome: OpOutcome::Applied,
                            display,
                            back_target: None,
                        }
                    }
                    Err(e) => self.invalid_preview(op, e.to_string()),
                }
            }
        }
    }

    fn invalid_preview(&self, op: &ResolvedOp, reason: String) -> PreviewedStep {
        PreviewedStep {
            op: op.clone(),
            outcome: OpOutcome::Invalid(reason),
            display: self.session.current().clone(),
            back_target: None,
        }
    }

    /// Assemble the [`StepInfo`] a reward model scores for a previewed step.
    pub fn step_info<'a>(&'a self, preview: &'a PreviewedStep) -> StepInfo<'a> {
        StepInfo {
            op: &preview.op,
            outcome: &preview.outcome,
            prev_display: self.session.current(),
            new_display: &preview.display,
            earlier_vectors: self
                .session
                .history()
                .iter()
                .map(|&id| &self.session.display(id).vector)
                .collect(),
            past_ops: self.session.ops(),
            step: self.step,
            base: &self.base,
        }
    }

    /// Commit a previewed step, advancing the episode.
    pub fn commit(&mut self, preview: PreviewedStep) -> Transition {
        let PreviewedStep {
            op,
            outcome,
            display,
            back_target,
        } = preview;
        match &op {
            ResolvedOp::Filter(_) => self.telemetry.ops_filter.inc(),
            ResolvedOp::Group { .. } => self.telemetry.ops_group.inc(),
            ResolvedOp::Back => self.telemetry.ops_back.inc(),
        }
        if matches!(outcome, OpOutcome::Invalid(_)) {
            self.telemetry.ops_invalid.inc();
        }
        match &outcome {
            OpOutcome::Applied => match back_target {
                Some(_) => {
                    self.session.go_back();
                }
                None => {
                    self.session.push_display(op.clone(), display);
                }
            },
            OpOutcome::BackAtRoot => {
                self.session.go_back();
            }
            OpOutcome::Invalid(reason) => {
                self.session.record_invalid(op.clone(), reason.clone());
            }
        }
        self.step += 1;
        Transition {
            observation: self.observation(),
            op,
            outcome,
            step: self.step - 1,
            done: self.done(),
        }
    }

    /// Resolve, preview, and commit in one call (the plain RL interface).
    pub fn step(&mut self, action: &EdaAction) -> Transition {
        // atena-lint: allow(wall-clock) — step-latency telemetry; never affects results
        let start = std::time::Instant::now();
        let op = self.resolve(action);
        let preview = self.preview(&op);
        let t = self.commit(preview);
        self.telemetry.step_secs.record_duration(start.elapsed());
        t
    }

    /// The step-latency histogram (resolve + preview + commit), shared with
    /// callers that drive the three phases separately and still want their
    /// steps timed into the same metric.
    pub fn step_latency_histogram(&self) -> &atena_telemetry::Histogram {
        &self.telemetry.step_secs
    }

    /// The observation: the current display vector concatenated with the
    /// `history_window - 1` preceding ones (zeros where history is short),
    /// most recent first.
    pub fn observation(&self) -> Vec<f32> {
        let dim = DisplayVector::dim_for(self.base.n_cols());
        let mut obs = Vec::with_capacity(self.config.history_window * dim);
        let history = self.session.history();
        for k in 0..self.config.history_window {
            if history.len() > k {
                let id = history[history.len() - 1 - k];
                obs.extend(
                    self.session
                        .display(id)
                        .vector
                        .as_slice()
                        .iter()
                        .map(|&v| v as f32),
                );
            } else {
                obs.extend(std::iter::repeat_n(0.0f32, dim));
            }
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::AttrRole;

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "airline",
                AttrRole::Categorical,
                vec![
                    Some("AA"),
                    Some("DL"),
                    Some("AA"),
                    Some("UA"),
                    Some("AA"),
                    Some("DL"),
                ],
            )
            .int(
                "delay",
                AttrRole::Numeric,
                vec![Some(10), Some(20), Some(30), Some(40), Some(50), Some(60)],
            )
            .build()
            .unwrap()
    }

    fn env() -> EdaEnv {
        EdaEnv::new(
            base(),
            EnvConfig {
                episode_len: 5,
                n_bins: 4,
                history_window: 3,
                seed: 7,
            },
        )
    }

    #[test]
    fn reset_observation_shape() {
        let mut e = env();
        let obs = e.reset();
        assert_eq!(obs.len(), e.observation_dim());
        // Last two display slots are zero padding.
        let dim = DisplayVector::dim_for(2);
        assert!(obs[dim..].iter().all(|&v| v == 0.0));
        // First slot is the root vector (rows ratio = 1 somewhere).
        assert!(obs[..dim].iter().any(|&v| v > 0.0));
    }

    #[test]
    fn filter_step_applies() {
        let mut e = env();
        e.reset();
        // attr 1 = delay, op 0 = Eq, some bin.
        let t = e.step(&EdaAction::Filter {
            attr: 1,
            op: 0,
            bin: 0,
        });
        assert!(t.outcome.is_applied(), "outcome: {:?}", t.outcome);
        assert_eq!(t.step, 0);
        assert!(!t.done);
        assert_eq!(e.session().n_displays(), 2);
        assert!(e.session().current().n_data_rows() < 6);
    }

    #[test]
    fn group_step_applies() {
        let mut e = env();
        e.reset();
        // key 0 = airline, func 2 = Avg, agg 1 = delay.
        let t = e.step(&EdaAction::Group {
            key: 0,
            func: 2,
            agg: 1,
        });
        assert!(t.outcome.is_applied());
        let d = e.session().current();
        assert!(d.grouping.is_some());
        assert_eq!(d.grouping.as_ref().unwrap().n_groups, 3);
    }

    #[test]
    fn invalid_group_is_penalized_not_fatal() {
        let mut e = env();
        e.reset();
        // SUM over the string column "airline" (func 1 = Sum, agg 0 = airline).
        let t = e.step(&EdaAction::Group {
            key: 0,
            func: 1,
            agg: 0,
        });
        assert!(matches!(t.outcome, OpOutcome::Invalid(_)));
        assert_eq!(e.session().n_displays(), 1);
        assert_eq!(e.step_count(), 1);
    }

    #[test]
    fn invalid_filter_op_on_string() {
        let mut e = env();
        e.reset();
        // Gt (op index 2) on the string column "airline".
        let t = e.step(&EdaAction::Filter {
            attr: 0,
            op: 2,
            bin: 0,
        });
        assert!(matches!(t.outcome, OpOutcome::Invalid(_)));
    }

    #[test]
    fn back_and_back_at_root() {
        let mut e = env();
        e.reset();
        let t = e.step(&EdaAction::Back);
        assert_eq!(t.outcome, OpOutcome::BackAtRoot);
        e.step(&EdaAction::Group {
            key: 0,
            func: 0,
            agg: 1,
        });
        let t = e.step(&EdaAction::Back);
        assert!(t.outcome.is_applied());
        assert_eq!(e.session().current_id(), 0);
    }

    #[test]
    fn episode_terminates() {
        let mut e = env();
        e.reset();
        let mut done = false;
        for i in 0..5 {
            let t = e.step(&EdaAction::Back);
            done = t.done;
            assert_eq!(t.step, i);
        }
        assert!(done);
        assert!(e.done());
    }

    #[test]
    fn preview_does_not_mutate() {
        let mut e = env();
        e.reset();
        let op = e.resolve(&EdaAction::Group {
            key: 0,
            func: 2,
            agg: 1,
        });
        let p = e.preview(&op);
        assert!(p.outcome.is_applied());
        assert_eq!(e.session().n_displays(), 1);
        assert_eq!(e.step_count(), 0);
        let info = e.step_info(&p);
        assert_eq!(info.step, 0);
        assert_eq!(info.earlier_vectors.len(), 1);
        e.commit(p);
        assert_eq!(e.session().n_displays(), 2);
    }

    #[test]
    fn determinism_same_seed_same_terms() {
        let run = || {
            let mut e = env();
            e.reset();
            let t = e.step(&EdaAction::Filter {
                attr: 0,
                op: 0,
                bin: 3,
            });
            t.op
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observation_window_tracks_history() {
        let mut e = env();
        e.reset();
        e.step(&EdaAction::Group {
            key: 0,
            func: 2,
            agg: 1,
        });
        let obs = e.observation();
        let dim = DisplayVector::dim_for(2);
        // Slot 0 is the grouped display; slot 1 is the root; slot 2 zeros.
        assert!(obs[..dim].iter().any(|&v| v > 0.0));
        assert!(obs[dim..2 * dim].iter().any(|&v| v > 0.0));
        assert!(obs[2 * dim..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn incremental_preview_matches_full_materialization() {
        let mut e = env();
        e.reset();
        // Drill two levels deep, then group.
        e.step(&EdaAction::Group {
            key: 0,
            func: 2,
            agg: 1,
        });
        e.step(&EdaAction::Filter {
            attr: 1,
            op: 4,
            bin: 1,
        }); // delay >= term
        e.step(&EdaAction::Group {
            key: 0,
            func: 0,
            agg: 1,
        });
        let incremental = e.session().current();
        let full = crate::display::Display::materialize(e.base(), incremental.spec.clone())
            .expect("full path materializes");
        assert_eq!(incremental.frame.n_rows(), full.frame.n_rows());
        assert_eq!(incremental.result.n_rows(), full.result.n_rows());
        assert_eq!(incremental.vector, full.vector);
        assert_eq!(
            incremental.grouping.as_ref().map(|g| g.n_groups),
            full.grouping.as_ref().map(|g| g.n_groups)
        );
    }

    #[test]
    fn null_reward_is_zero() {
        let mut e = env();
        e.reset();
        let op = e.resolve(&EdaAction::Back);
        let p = e.preview(&op);
        let info = e.step_info(&p);
        let r = NullReward.score(&info);
        assert_eq!(r.total, 0.0);
    }
}
