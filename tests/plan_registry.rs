//! The plan registry across the public API: a plan saved by one
//! "process" and loaded by another compiles to a session that serves
//! bit-identically to a freshly planned one, and broken artifacts fail
//! with the right typed error instead of a wrong plan.

use proptest::prelude::*;
use smartpaf::{Objective, PlanRegistry, RegistryError, Session, SessionBuilder, FORMAT_VERSION};
use smartpaf_ckks::CkksParams;
use smartpaf_nn::Linear;
use smartpaf_tensor::Rng64;
use std::path::PathBuf;

/// A fresh registry directory unique to this test invocation.
fn registry_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartpaf-it-registry-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `blocks` affine→ReLU blocks over a flat 4-vector on the toy ring.
fn blocks_builder(blocks: usize, scale: f64, layer_seed: u64) -> SessionBuilder {
    let mut rng = Rng64::new(layer_seed);
    let mut b = Session::builder(&[4]).params(CkksParams::toy());
    for _ in 0..blocks {
        b = b.affine(Linear::new(4, 4, &mut rng)).relu(scale);
    }
    b
}

fn inputs() -> Vec<Vec<f64>> {
    (0..3)
        .map(|i| (0..4).map(|j| ((i * 4 + j) as f64).sin()).collect())
        .collect()
}

#[test]
fn shipped_plan_serves_bit_identically() {
    let dir = registry_dir("bit-identical");
    let build = || {
        blocks_builder(2, 2.0, 17)
            .objective(Objective::MinBootstraps)
            .seed(17)
    };

    // "Process A": plan, serve, publish.
    let writer = PlanRegistry::open(&dir).expect("open writer");
    let fresh_plan = build().plan().expect("plan");
    let key = writer.save_plan(&fresh_plan).expect("save");
    let mut fresh = fresh_plan.compile().expect("compile fresh");

    // "Process B": a separate registry handle on the same directory
    // (the in-process stand-in for a second invocation; the CI
    // registry-smoke job and `registry_demo` do it across two real
    // processes).
    let reader = PlanRegistry::open(&dir).expect("open reader");
    let loaded_plan = reader.load_plan(build()).expect("load");
    assert_eq!(loaded_plan.dry_runs_used(), 0, "loading must not plan");
    assert_eq!(
        loaded_plan.chosen().forms,
        build().plan().expect("replan").chosen().forms
    );
    let mut loaded = loaded_plan.compile().expect("compile loaded");

    for x in inputs() {
        let a = fresh.infer(&x).expect("fresh infer");
        let b = loaded.infer(&x).expect("loaded infer");
        assert_eq!(a, b, "shipped plan must serve bit-identically");
    }
    assert_eq!(reader.list().expect("list")[0].content_key, key);
}

#[test]
fn corrupt_envelopes_are_rejected() {
    let dir = registry_dir("corrupt");
    let build = || blocks_builder(1, 2.0, 23).seed(23);
    let registry = PlanRegistry::open(&dir).expect("open");
    let key = registry
        .save_plan(&build().plan().expect("plan"))
        .expect("save");

    // Flip a stored planning input: the artifact still parses but
    // contradicts the model it is addressed to.
    let path = dir.join(format!("{key}.json"));
    let text = std::fs::read_to_string(&path).expect("read artifact");
    let edited = text.replace("\"depth\": 12", "\"depth\": 11");
    assert_ne!(text, edited, "fixture must actually edit the envelope");
    std::fs::write(&path, edited).expect("write edited");
    match registry.load_plan(build()) {
        Err(RegistryError::Corrupt { .. }) => {}
        other => panic!("edited envelope must be Corrupt, got {other:?}"),
    }

    // Broken JSON is a parse error, not a wrong plan.
    std::fs::write(&path, "{ not json").expect("write broken");
    match registry.load_plan(build()) {
        Err(RegistryError::Parse { .. }) => {}
        other => panic!("broken JSON must be Parse, got {other:?}"),
    }
}

#[test]
fn future_format_versions_are_rejected() {
    let dir = registry_dir("version");
    let build = || blocks_builder(1, 2.0, 29).seed(29);
    let registry = PlanRegistry::open(&dir).expect("open");
    let key = registry
        .save_plan(&build().plan().expect("plan"))
        .expect("save");

    let path = dir.join(format!("{key}.json"));
    let text = std::fs::read_to_string(&path).expect("read artifact");
    let needle = format!("\"format_version\": {FORMAT_VERSION}");
    let edited = text.replace(&needle, "\"format_version\": 999");
    assert_ne!(text, edited, "fixture must actually bump the version");
    std::fs::write(&path, edited).expect("write edited");

    match registry.load_plan(build()) {
        Err(RegistryError::VersionMismatch {
            found: 999,
            supported,
        }) => {
            assert_eq!(supported, FORMAT_VERSION)
        }
        other => panic!("future version must be VersionMismatch, got {other:?}"),
    }
}

#[test]
fn missing_artifacts_are_not_found() {
    let dir = registry_dir("missing");
    let registry = PlanRegistry::open(&dir).expect("open");
    match registry.load_plan(blocks_builder(1, 2.0, 31)) {
        Err(RegistryError::NotFound { key }) => assert_eq!(key.len(), 16),
        other => panic!("empty registry must be NotFound, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any small model / objective / seed: save_plan → load_plan
    /// → compile serves bit-identically to the freshly planned
    /// session, with zero dry runs spent on the load side.
    #[test]
    fn round_trip_is_bit_identical_for_any_model(
        layer_seed in 0u64..200,
        session_seed in 0u64..200,
        blocks in 1usize..3,
        scale in 1.0f64..5.0,
        objective_pick in 0usize..2,
    ) {
        let min_latency = objective_pick == 1;
        let objective = if min_latency {
            Objective::MinLatency { max_acc_drop: 0.9 }
        } else {
            Objective::MinBootstraps
        };
        let dir = registry_dir(&format!("prop-{layer_seed}-{session_seed}-{blocks}-{min_latency}"));
        let registry = PlanRegistry::open(&dir).expect("open");
        let build = || blocks_builder(blocks, scale, layer_seed)
            .objective(objective)
            .seed(session_seed);

        let fresh_plan = build().plan().expect("plan");
        registry.save_plan(&fresh_plan).expect("save");
        let loaded_plan = registry.load_plan(build()).expect("load");
        prop_assert_eq!(loaded_plan.dry_runs_used(), 0);

        let mut fresh = fresh_plan.compile().expect("compile fresh");
        let mut loaded = loaded_plan.compile().expect("compile loaded");
        for x in inputs() {
            let a = fresh.infer(&x).expect("fresh infer");
            let b = loaded.infer(&x).expect("loaded infer");
            prop_assert_eq!(a, b);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
