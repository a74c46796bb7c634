//! The inference engine: a [`PolicyBundle`] loaded once at startup, shared
//! read-only across worker threads, decoding notebooks greedily (near-zero
//! Boltzmann temperature) from the trained policy.
//!
//! The engine serves its bundle's baked-in dataset by default, but any
//! frame with a policy-compatible shape (same observation layout, which is
//! a pure function of the column count) can be decoded via
//! [`Engine::decode_with_frame`] — that is how registry-uploaded datasets
//! are served. The display cache is keyed by dataset fingerprint, so
//! serving many datasets through one engine composes soundly with the
//! determinism contract.

use atena_core::{Notebook, NotebookSummary, PolicyBundle};
use atena_dataframe::DataFrame;
use atena_env::{DisplayCache, EdaEnv};
use atena_nn::Tensor;
use atena_rl::{Policy, TwofoldPolicy};
use atena_telemetry::SpanGuard;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;

/// Near-deterministic decode temperature: low enough that the argmax of
/// every softmax segment is selected with overwhelming probability.
const DECODE_TEMPERATURE: f32 = 1e-3;

/// Capacity of the engine's display cache, in entries. Requests against
/// one bundle mostly share a handful of datasets, and greedy decodes at
/// nearby seeds replay mostly the same operation paths, so cross-request
/// reuse is high. The cap counts entries, not bytes: a filtered display
/// holds its own copy of every column (`DataFrame::filter` gathers each
/// one with `take`), so a full cache costs up to this many frame copies.
/// Entries are keyed by dataset fingerprint, so multiple registry datasets
/// share the cache without interference.
const DISPLAY_CACHE_CAPACITY: usize = 4096;

/// Ceiling on per-request episode length, to bound worst-case work.
pub const MAX_EPISODE_LEN: usize = 64;

/// A validated notebook-generation request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NotebookRequest {
    /// Dataset label: the bundle's dataset id, or a registry `ds-…` id.
    pub dataset: String,
    /// Content fingerprint of the frame being decoded. Part of the cache
    /// key so a re-uploaded (different) dataset under a recycled label can
    /// never alias a stale cached response.
    pub fingerprint: u64,
    /// Operations to decode (defaults to the bundle's training value).
    pub episode_len: usize,
    /// Environment seed for term sampling (default 0). Responses are
    /// deterministic per seed.
    pub seed: u64,
}

/// What the engine serves for one request.
#[derive(Debug, Clone, Serialize)]
pub struct NotebookResponse {
    /// Dataset id echoed back.
    pub dataset: String,
    /// Episode length used.
    pub episode_len: usize,
    /// Seed used.
    pub seed: u64,
    /// Strategy name of the loaded policy.
    pub strategy: String,
    /// The decoded notebook.
    pub notebook: NotebookSummary,
}

/// Engine failures, mapped by the server onto HTTP statuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Requested dataset is not the one the policy was trained on → 404.
    UnknownDataset {
        /// The dataset the request named.
        requested: String,
        /// The dataset the engine serves.
        served: String,
    },
    /// The dataset exists but its shape is incompatible with the loaded
    /// policy's observation layout → 409.
    IncompatibleDataset(String),
    /// Request parameters out of range → 400.
    InvalidRequest(String),
    /// An invariant the engine relies on failed mid-decode → 500. Returned
    /// instead of panicking so one bad decode cannot poison a pool worker.
    Internal(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDataset { requested, served } => write!(
                f,
                "dataset {requested:?} is not served; this server's policy was trained on {served:?}"
            ),
            EngineError::IncompatibleDataset(m) => write!(f, "incompatible dataset: {m}"),
            EngineError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            EngineError::Internal(m) => write!(f, "internal decode error: {m}"),
        }
    }
}

/// The shared inference state: an immutable policy plus its dataset.
pub struct Engine {
    bundle: PolicyBundle,
    policy: Arc<TwofoldPolicy>,
    frame: Arc<DataFrame>,
    display_cache: Arc<DisplayCache>,
}

impl Engine {
    /// Build from a loaded bundle and the dataset frame it was trained on.
    ///
    /// Runs one probe forward over a zero observation so a bundle whose
    /// stored weights are internally inconsistent (layer widths that don't
    /// chain) is rejected here with a typed error instead of panicking a
    /// worker thread on the first request.
    pub fn new(bundle: PolicyBundle, frame: DataFrame) -> Result<Self, String> {
        let policy = bundle
            .build_policy()
            .map_err(|e| format!("cannot rebuild policy from bundle: {e}"))?;
        bundle.frame_compatible(&frame)?;
        policy
            .forward_rows(&Tensor::zeros(1, policy.obs_dim()), DECODE_TEMPERATURE)
            .map_err(|e| format!("bundle weights are inconsistent: {e}"))?;
        Ok(Self {
            bundle,
            policy: Arc::new(policy),
            frame: Arc::new(frame),
            display_cache: Arc::new(DisplayCache::new(DISPLAY_CACHE_CAPACITY)),
        })
    }

    /// The display cache shared across this engine's decode requests.
    pub fn display_cache(&self) -> &Arc<DisplayCache> {
        &self.display_cache
    }

    /// The dataset id this engine serves by default.
    pub fn dataset(&self) -> &str {
        &self.bundle.dataset
    }

    /// The baked-in dataset frame (shared, not copied).
    pub fn frame(&self) -> &Arc<DataFrame> {
        &self.frame
    }

    /// The loaded bundle's metadata.
    pub fn bundle(&self) -> &PolicyBundle {
        &self.bundle
    }

    /// Default episode length (the bundle's training value).
    pub fn default_episode_len(&self) -> usize {
        self.bundle.env.episode_len
    }

    /// Whether a frame's shape can be decoded by this engine's policy.
    pub fn check_frame(&self, frame: &DataFrame) -> Result<(), EngineError> {
        self.bundle
            .frame_compatible(frame)
            .map_err(EngineError::IncompatibleDataset)
    }

    /// Validate raw request fields into a [`NotebookRequest`] against the
    /// bundle's baked-in dataset.
    pub fn validate(
        &self,
        dataset: &str,
        episode_len: Option<usize>,
        seed: Option<u64>,
    ) -> Result<NotebookRequest, EngineError> {
        if dataset != self.bundle.dataset {
            return Err(EngineError::UnknownDataset {
                requested: dataset.to_string(),
                served: self.bundle.dataset.clone(),
            });
        }
        let frame = Arc::clone(&self.frame);
        self.validate_for_frame(dataset, &frame, episode_len, seed)
    }

    /// Validate raw request fields into a [`NotebookRequest`] against an
    /// explicit frame (the registry-dataset path). Checks policy/shape
    /// compatibility and episode bounds; the frame's fingerprint becomes
    /// part of the request identity.
    pub fn validate_for_frame(
        &self,
        dataset: &str,
        frame: &Arc<DataFrame>,
        episode_len: Option<usize>,
        seed: Option<u64>,
    ) -> Result<NotebookRequest, EngineError> {
        self.check_frame(frame)?;
        let episode_len = episode_len.unwrap_or_else(|| self.default_episode_len());
        if episode_len == 0 || episode_len > MAX_EPISODE_LEN {
            return Err(EngineError::InvalidRequest(format!(
                "episode_len must be in 1..={MAX_EPISODE_LEN}, got {episode_len}"
            )));
        }
        Ok(NotebookRequest {
            dataset: dataset.to_string(),
            fingerprint: frame.fingerprint(),
            episode_len,
            seed: seed.unwrap_or(0),
        })
    }

    /// Greedy-decode one notebook over the baked-in dataset. Deterministic
    /// for a given request: the environment seed is fixed and the decode
    /// temperature is ≈0.
    pub fn decode(&self, request: &NotebookRequest) -> Result<NotebookResponse, EngineError> {
        let frame = Arc::clone(&self.frame);
        self.decode_with_frame(&frame, request, None)
    }

    /// Greedy-decode one notebook over an explicit frame (which must have
    /// passed [`Engine::check_frame`]). The engine's display cache is
    /// shared across datasets — cache keys include the dataset fingerprint,
    /// so entries from different datasets can never alias.
    ///
    /// When `parent` is an open span, each decode step records `nn.forward`
    /// (policy inference) and `env.step` (display materialization) children
    /// under it. Tracing is execution-only — the decoded notebook is
    /// identical either way.
    pub fn decode_with_frame(
        &self,
        frame: &Arc<DataFrame>,
        request: &NotebookRequest,
        parent: Option<&SpanGuard<'_, '_>>,
    ) -> Result<NotebookResponse, EngineError> {
        let mut env_config = self.bundle.env.clone();
        env_config.episode_len = request.episode_len;
        env_config.seed = request.seed;
        // The frame is refcounted, so every request's environment shares
        // one copy of the column data and statistics memo, and — through
        // the attached cache — the displays materialized by earlier
        // requests against the same dataset.
        let mut env = EdaEnv::with_shared_base(Arc::clone(frame), env_config)
            .with_display_cache(Arc::clone(&self.display_cache));
        env.reset_with_seed(request.seed);
        let mut rng = StdRng::seed_from_u64(request.seed);
        while !env.done() {
            let obs = env.observation();
            let step = {
                let _s = parent.map(|p| p.child("nn.forward"));
                self.policy.act(&obs, DECODE_TEMPERATURE, &mut rng)
            };
            let action = step.choice.to_eda_action().ok_or_else(|| {
                EngineError::Internal("twofold policy emitted a non-twofold choice".into())
            })?;
            let _s = parent.map(|p| p.child("env.step"));
            env.step(&action);
        }
        let ops: Vec<_> = env.session().ops().iter().map(|o| o.op.clone()).collect();
        let notebook = Notebook::replay(&request.dataset, frame, &ops);
        Ok(NotebookResponse {
            dataset: request.dataset.clone(),
            episode_len: request.episode_len,
            seed: request.seed,
            strategy: self.bundle.strategy.name().to_string(),
            notebook: notebook.summary(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_core::{train_policy_bundle, AtenaConfig, Strategy};
    use atena_dataframe::AttrRole;

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..60).map(|i| Some(if i % 5 == 0 { "udp" } else { "tcp" })),
            )
            .int(
                "len",
                AttrRole::Numeric,
                (0..60).map(|i| Some((i * 13 % 31) as i64)),
            )
            .build()
            .unwrap()
    }

    fn engine() -> Engine {
        let mut config = AtenaConfig::quick();
        config.train_steps = 300;
        config.probe_steps = 60;
        config.env.episode_len = 4;
        let bundle = train_policy_bundle("tiny", base(), vec![], config, Strategy::Atena).unwrap();
        Engine::new(bundle, base()).unwrap()
    }

    #[test]
    fn decode_is_deterministic_per_request() {
        let e = engine();
        let req = e.validate("tiny", Some(3), Some(7)).unwrap();
        let a = e.decode(&req).unwrap();
        let b = e.decode(&req).unwrap();
        assert_eq!(a.notebook.cells.len(), 3);
        assert_eq!(
            serde_json::to_string(&a.notebook).unwrap(),
            serde_json::to_string(&b.notebook).unwrap()
        );
        // A different seed may (and usually does) draw different filter
        // terms; at minimum it must still decode a full notebook.
        let other = e
            .decode(&e.validate("tiny", Some(3), Some(8)).unwrap())
            .unwrap();
        assert_eq!(other.notebook.cells.len(), 3);
    }

    #[test]
    fn validate_rejects_wrong_dataset_and_bad_lengths() {
        let e = engine();
        assert!(matches!(
            e.validate("flights1", None, None),
            Err(EngineError::UnknownDataset { .. })
        ));
        assert!(matches!(
            e.validate("tiny", Some(0), None),
            Err(EngineError::InvalidRequest(_))
        ));
        assert!(matches!(
            e.validate("tiny", Some(MAX_EPISODE_LEN + 1), None),
            Err(EngineError::InvalidRequest(_))
        ));
        let defaulted = e.validate("tiny", None, None).unwrap();
        assert_eq!(defaulted.episode_len, e.default_episode_len());
        assert_eq!(defaulted.seed, 0);
        assert_eq!(defaulted.fingerprint, base().fingerprint());
    }

    #[test]
    fn mismatched_frame_rejected_at_startup() {
        let mut config = AtenaConfig::quick();
        config.train_steps = 200;
        config.probe_steps = 50;
        config.env.episode_len = 3;
        let bundle = train_policy_bundle("tiny", base(), vec![], config, Strategy::Atena).unwrap();
        // A frame with a different column count changes the observation dim.
        let other = DataFrame::builder()
            .int("only", AttrRole::Numeric, (0..10).map(|i| Some(i as i64)))
            .build()
            .unwrap();
        assert!(Engine::new(bundle, other).is_err());
    }

    #[test]
    fn uploaded_frame_decodes_like_a_sibling_engine() {
        let e = engine();
        // A different same-shape dataset: two columns, same layout.
        let uploaded = Arc::new(
            DataFrame::from_csv_str(
                &(String::from("kind,score\n")
                    + &(0..40)
                        .map(|i| format!("k{},{}\n", i % 4, i * 7 % 23))
                        .collect::<String>()),
            )
            .unwrap(),
        );
        let req = e
            .validate_for_frame("ds-test", &uploaded, Some(3), Some(11))
            .unwrap();
        assert_eq!(req.fingerprint, uploaded.fingerprint());
        let a = e.decode_with_frame(&uploaded, &req, None).unwrap();
        let b = e.decode_with_frame(&uploaded, &req, None).unwrap();
        assert_eq!(a.dataset, "ds-test");
        assert_eq!(a.notebook.cells.len(), 3);
        assert_eq!(
            serde_json::to_string(&a.notebook).unwrap(),
            serde_json::to_string(&b.notebook).unwrap()
        );
        // An incompatible shape is rejected before any decode.
        let narrow = Arc::new(DataFrame::from_csv_str("only\n1\n2\n").unwrap());
        assert!(matches!(
            e.validate_for_frame("ds-bad", &narrow, None, None),
            Err(EngineError::IncompatibleDataset(_))
        ));
    }
}
