//! Workspace surface smoke test: constructs at least one object from
//! every public crate in the workspace, so a future manifest or
//! dependency-DAG regression fails fast with an obvious error instead
//! of deep inside an experiment binary.

use smartpaf::{TechniqueSet, TrainConfig, Workbench};
use smartpaf_bench::{scale_from_env, train_config, Scale};
use smartpaf_ckks::{CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_datasets::{Split, SynthDataset, SynthSpec};
use smartpaf_heinfer::PipelineBuilder;
use smartpaf_hybrid::{scheme_cost, NetworkConfig, Scheme, WorkloadSpec};
use smartpaf_nn::{mini_cnn, Mode};
use smartpaf_polyfit::{CompositePaf, PafForm, Polynomial};
use smartpaf_tensor::{Rng64, Tensor};

/// params → context → keys → evaluator, and one encrypt/decrypt trip.
#[test]
fn ckks_stack_constructs() {
    let ctx = CkksParams::toy().build();
    let mut rng = Rng64::new(7);
    let keys = KeyChain::generate(&ctx, &mut rng);
    let pe = PafEvaluator::new(Evaluator::new(&keys));
    let ct = pe.evaluator().encrypt_values(&[0.25], &mut rng);
    let out = pe.evaluator().decrypt_values(&ct, 1);
    assert!(
        (out[0] - 0.25).abs() < 1e-2,
        "round trip drifted: {}",
        out[0]
    );
}

/// tensor → mini_cnn → one forward pass over a synthetic batch.
#[test]
fn nn_stack_forward_pass() {
    let spec = SynthSpec::tiny(3);
    let dataset = SynthDataset::new(spec);
    let (x, labels) = dataset.batch(Split::Train, 0, 2);
    let mut rng = Rng64::new(3);
    let mut model = mini_cnn(spec.classes, 0.25, &mut rng);
    let logits = model.forward(&x, Mode::Eval);
    assert_eq!(logits.data().len(), labels.len() * spec.classes);
}

/// polyfit PAFs and polynomials evaluate; heinfer compiles a pipeline.
#[test]
fn polyfit_and_heinfer_construct() {
    let p = Polynomial::new(vec![0.0, 1.0]);
    assert_eq!(p.eval(0.5), 0.5);

    let paf = CompositePaf::from_form(PafForm::F1G2);
    let pipe = PipelineBuilder::new(&[1, 4, 4])
        .paf_relu(&paf, 1.0)
        .try_compile()
        .unwrap();
    let x = vec![0.25f64; 16];
    let y = pipe.eval_plain(&x);
    assert_eq!(y.len(), 16);
}

/// smartpaf core: a Workbench builds (zero pretrain epochs) and a
/// tensor flows through its dataset accessor.
#[test]
fn smartpaf_workbench_constructs() {
    let spec = SynthSpec::tiny(5);
    let dataset = SynthDataset::new(spec);
    let mut rng = Rng64::new(5);
    let model = mini_cnn(spec.classes, 0.25, &mut rng);
    let wb = Workbench::new(model, dataset, TrainConfig::test_scale(5), 0);
    let (x, _) = wb.dataset().batch(Split::Val, 0, 1);
    let t: &Tensor = &x;
    assert!(!t.data().is_empty());
    let ts = TechniqueSet::smartpaf();
    assert!(ts.ct || ts.pa || ts.at, "smartpaf set enables techniques");
}

/// hybrid cost model and bench harness helpers stay callable.
#[test]
fn hybrid_and_bench_helpers_construct() {
    let cost = scheme_cost(
        Scheme::SmartPaf,
        &WorkloadSpec::resnet18_imagenet(),
        &NetworkConfig::lan(),
    );
    assert!(cost.latency_sec >= 0.0, "negative latency");

    std::env::remove_var("SMARTPAF_SCALE");
    assert_eq!(scale_from_env(), Scale::Test);
    let cfg = train_config(Scale::Test, 0);
    assert!(cfg.batches_per_epoch > 0);
}
