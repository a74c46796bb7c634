//! Transcript pin: hashes of two fixed-seed trainings (Cyber #1 at the
//! quick width, Flights #4 at the default width) and of a fixed grid of
//! served notebooks, committed so that a change which moves any byte of
//! them fails here instead of shifting every leg of the determinism grid
//! together.
//!
//! Both hashes are [`StableHasher`] digests, which are stable across
//! platforms and toolchains (std's `DefaultHasher` is not). A change that
//! moves a pinned hash on purpose updates the constant in the same commit
//! and says why in CHANGES.md; the failure message prints the new values.

use atena_core::{train_policy_bundle, AtenaConfig, PolicyBundle, Strategy};
use atena_dataframe::{DataFrame, StableHasher};
use atena_server::Engine;
use std::sync::Arc;

/// `PolicyBundle` JSON of the training in [`pinned_bundle`].
const BUNDLE_PIN: u64 = 0x3496_d297_ae08_5a55;
/// `/v1/notebook` bodies of the decode grid in [`decode_grid_hash`].
const DECODE_PIN: u64 = 0x24a9_3696_58ad_df51;
/// `PolicyBundle` JSON of the Flights #4 training in
/// [`flights4_training_matches_the_pinned_hash`].
const FLIGHTS4_BUNDLE_PIN: u64 = 0x50ed_ae3a_5bd7_cddd;

/// ATENA on Cyber #1: the quick schedule cut to 512 steps of 6-op
/// episodes over 2 workers, with a 64-step coherency probe.
fn pinned_bundle(frame: &DataFrame, focal_attrs: Vec<String>) -> PolicyBundle {
    let mut config = AtenaConfig::quick();
    config.train_steps = 512;
    config.probe_steps = 64;
    config.env.episode_len = 6;
    config.trainer.n_workers = 2;
    train_policy_bundle(
        "cyber1",
        frame.clone(),
        focal_attrs,
        config,
        Strategy::Atena,
    )
    .expect("the pinned training succeeds")
}

/// [`StableHasher`] digest of a bundle's JSON.
fn bundle_hash(bundle: &PolicyBundle) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&bundle.to_json().expect("bundles serialize"));
    h.finish()
}

/// Hash the response bodies for seeds 0..16 × episode lengths {3, 8}
/// over `frames`, in that order.
fn decode_grid_hash(engine: &Engine, frames: &[Arc<DataFrame>]) -> u64 {
    let mut h = StableHasher::new();
    for frame in frames {
        for seed in 0..16 {
            for episode_len in [3, 8] {
                let request = engine
                    .validate_for_frame("cyber1", frame, Some(episode_len), Some(seed))
                    .expect("the grid's requests are valid");
                let response = engine
                    .decode_with_frame(frame, &request, None)
                    .expect("the grid decodes");
                h.write_str(&serde_json::to_string(&response).expect("responses serialize"));
            }
        }
    }
    h.finish()
}

#[test]
fn training_and_served_notebooks_match_the_pinned_hashes() {
    let ds = atena_data::cyber1();
    let bundle = pinned_bundle(&ds.frame, ds.focal_attrs());
    let bundle_hash = bundle_hash(&bundle);

    // Reversing the rows changes every first-appearance order (group
    // order, dictionary codes) the way an upload of the same data would.
    let reversed: Vec<usize> = (0..ds.frame.n_rows()).rev().collect();
    let frames = [
        Arc::new(ds.frame.clone()),
        Arc::new(ds.frame.take(&reversed)),
    ];
    let engine = Engine::new(bundle, ds.frame.clone()).expect("the bundle loads");
    let decode_hash = decode_grid_hash(&engine, &frames);

    assert_eq!(
        (bundle_hash, decode_hash),
        (BUNDLE_PIN, DECODE_PIN),
        "transcript pin moved: bundle {bundle_hash:#018x}, decodes {decode_hash:#018x}"
    );
}

/// ATENA on Flights #4 at the default width: hidden [128, 128] and
/// 96-step rollouts over 4 lanes, the trunk and head shapes of a default
/// training, cut to 768 steps with a 64-step coherency probe over 2
/// workers.
#[test]
fn flights4_training_matches_the_pinned_hash() {
    let ds = atena_data::flights4();
    let mut config = AtenaConfig {
        train_steps: 768,
        probe_steps: 64,
        ..AtenaConfig::default()
    };
    config.trainer.n_workers = 2;
    let bundle = train_policy_bundle(
        "flights4",
        ds.frame.clone(),
        ds.focal_attrs(),
        config,
        Strategy::Atena,
    )
    .expect("the pinned training succeeds");
    let hash = bundle_hash(&bundle);
    assert_eq!(
        hash, FLIGHTS4_BUNDLE_PIN,
        "Flights #4 transcript pin moved: bundle {hash:#018x}"
    );
}
