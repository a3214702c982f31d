//! The plan registry across process boundaries: `save` plans a model
//! and publishes the artifact, `load` (typically a *second* process)
//! compiles and serves from that artifact without running the planner,
//! and the default round-trip mode does both and lists the registry.
//!
//! Run with:
//!
//! ```text
//! cargo run -p smartpaf-examples --release --bin registry_demo -- save /tmp/reg
//! cargo run -p smartpaf-examples --release --bin registry_demo -- load /tmp/reg
//! ```
//!
//! Both invocations print the same `output:` line — the loaded plan
//! serves bit-identically to the freshly planned one (same builder
//! seed, same keys, same ciphertext arithmetic). The CI
//! `registry-smoke` job diffs exactly those lines. Set
//! `SMARTPAF_SCALE=test` for the toy ring.

use smartpaf::{Objective, Plan, PlanRegistry, Session, SessionBuilder};
use smartpaf_examples::section;
use smartpaf_nn::Linear;
use smartpaf_tensor::Rng64;
use std::path::PathBuf;

const SEED: u64 = 41;
const INPUT: [f64; 4] = [0.5, -0.5, 0.25, -0.25];

/// The deployment being shipped: weights, plan and keys all derive
/// from `layer_seed`, so every process reconstructs the same model.
fn builder(layer_seed: u64) -> SessionBuilder {
    let mut rng = Rng64::new(layer_seed);
    Session::builder(&[4])
        .affine(Linear::new(4, 4, &mut rng))
        .relu(2.0)
        .affine(Linear::new(4, 4, &mut rng))
        .relu(2.0)
        .params(smartpaf_examples::scale_params())
        .objective(Objective::MinBootstraps)
        .seed(SEED)
}

fn serve(plan: Plan) -> Vec<f64> {
    let mut session = plan.compile().expect("compile");
    session.infer(&INPUT).expect("infer")
}

fn report(tag: &str, plan: &Plan) {
    println!(
        "{tag}: {} dry run(s), chosen forms {:?}",
        plan.dry_runs_used(),
        plan.chosen().forms
    );
}

fn save(registry: &PlanRegistry) {
    section("save: cold plan, publish artifact");
    let plan = builder(SEED).plan().expect("plan");
    report("cold plan", &plan);
    let key = registry.save_plan(&plan).expect("save_plan");
    println!(
        "artifact: {}",
        registry.root().join(format!("{key}.json")).display()
    );
    println!("output: {:?}", serve(plan));
}

fn load(registry: &PlanRegistry) {
    section("load: compile from artifact, no planning");
    let plan = registry.load_plan(builder(SEED)).expect("load_plan");
    report("loaded plan", &plan);
    assert_eq!(plan.dry_runs_used(), 0, "loading must not run the planner");
    println!("output: {:?}", serve(plan));
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| "roundtrip".to_string());
    let dir = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("smartpaf-registry-demo"));
    let registry = PlanRegistry::open(&dir).expect("open registry");

    match mode.as_str() {
        "save" => save(&registry),
        "load" => load(&registry),
        "roundtrip" => {
            save(&registry);
            load(&registry);
            for info in registry.list().expect("list") {
                println!(
                    "registry entry {}: {} dry run(s) banked",
                    info.content_key, info.dry_runs
                );
            }
        }
        other => {
            eprintln!("usage: registry_demo [save|load|roundtrip] [dir] (got {other:?})");
            std::process::exit(2);
        }
    }
}
