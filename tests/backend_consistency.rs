//! Cross-crate integration: the `InferenceBackend` stack end to end.
//!
//! One compiled pipeline runs through all three backends and the
//! threaded batch runner; the plain, encrypted, and traced views must
//! agree — outputs within the noise bound, level/bootstrap schedules
//! exactly, and trace ct-mult counts against the polyfit exact
//! schedule.

use smartpaf::{Objective, Session};
use smartpaf_ckks::{Bootstrapper, CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_heinfer::{BatchRunner, HePipeline, PipelineBuilder, RunError};
use smartpaf_nn::{Conv2d, Flatten, Linear};
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Rng64;

fn cnn_pipeline(seed: u64) -> HePipeline {
    let mut rng = Rng64::new(seed);
    let relu = CompositePaf::from_form(PafForm::F1G2);
    PipelineBuilder::new(&[1, 4, 4])
        .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .paf_relu(&relu, 6.0)
        .affine(Flatten::new())
        .affine(Linear::new(32, 4, &mut rng))
        .try_compile()
        .unwrap()
        .fold_scales()
}

#[test]
fn all_backends_agree_end_to_end() {
    let pipe = cnn_pipeline(71);
    let ctx = CkksParams::toy().build();
    let mut rng = Rng64::new(71);
    let keys = KeyChain::generate(&ctx, &mut rng);
    let pe = PafEvaluator::new(Evaluator::new(&keys));

    let x: Vec<f64> = (0..16).map(|i| ((i % 5) as f64 - 2.0) / 2.0).collect();
    let plain = pipe.eval_plain(&x);

    // Encrypted path through the shared interpreter.
    let ct = pe
        .evaluator()
        .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
    let (out_ct, enc_stats) = pipe.try_eval_encrypted(&pe, None, &ct).unwrap();
    let dec = pe.evaluator().decrypt_values(&out_ct, 4);
    for (p, d) in plain.iter().zip(&dec) {
        assert!((p - d).abs() < 0.1, "plain {p} vs decrypted {d}");
    }

    // Trace path replays the identical schedule without arithmetic.
    let report = pipe.trace(&CkksParams::toy(), false).expect("fits");
    let stage_levels: Vec<usize> = report.stages.iter().map(|s| s.levels).collect();
    assert_eq!(stage_levels, enc_stats.stage_levels);
    assert_eq!(report.final_level, enc_stats.final_level);

    // Exact ct-mult acceptance: the traced ReLU stage equals the
    // polyfit exact-ladder count plus the ReLU product.
    let relu = CompositePaf::from_form(PafForm::F1G2);
    let relu_stage = report
        .stages
        .iter()
        .find(|s| s.label.starts_with("paf-relu"))
        .expect("relu stage traced");
    assert_eq!(relu_stage.ct_mults, relu.prepare().exact_ct_mults() + 1);
}

#[test]
fn batch_runner_is_deterministic_across_thread_counts() {
    let pipe = cnn_pipeline(72);
    let inputs: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..16)
                .map(|j| (((i + j) * 13) % 9) as f64 / 4.5 - 1.0)
                .collect()
        })
        .collect();
    let seq = BatchRunner::new(1).run_plain(&pipe, &inputs).unwrap();
    for threads in [2usize, 4, 8] {
        let par = BatchRunner::new(threads).run_plain(&pipe, &inputs).unwrap();
        assert_eq!(seq.outputs, par.outputs, "{threads} threads diverged");
    }
}

#[test]
fn typed_errors_replace_panics_on_the_result_path() {
    let mut rng = Rng64::new(73);
    let paf = CompositePaf::from_form(PafForm::F1G2);
    let mut b = PipelineBuilder::new(&[4]);
    for _ in 0..3 {
        b = b.affine(Linear::new(4, 4, &mut rng)).paf_relu(&paf, 2.0);
    }
    let pipe = b.try_compile().unwrap();

    let ctx = CkksParams::toy().build();
    let keys = KeyChain::generate(&ctx, &mut rng);
    let pe = PafEvaluator::new(Evaluator::new(&keys));
    let ct = pe
        .evaluator()
        .encrypt_replicated(&pipe.try_pad_input(&[0.1; 4]).unwrap(), &mut rng);
    // Without a bootstrapper: typed OutOfLevels instead of a panic.
    let err = pipe.try_eval_encrypted(&pe, None, &ct).unwrap_err();
    assert!(matches!(err, RunError::OutOfLevels { .. }));
    // With one: the same pipeline completes.
    let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 5);
    let (_, stats) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
    assert!(stats.bootstraps >= 1);

    // Compilation errors are typed too.
    let err = PipelineBuilder::new(&[4]).try_compile().err().unwrap();
    assert_eq!(err, RunError::EmptyPipeline);
    let err = PipelineBuilder::new(&[1, 5, 5])
        .paf_maxpool(2, 2, &paf, 1.0)
        .try_compile()
        .err()
        .unwrap();
    assert!(matches!(err, RunError::PoolUntileable { .. }));
}

#[test]
fn scheduler_cost_oracle_orders_forms() {
    // One ReLU on a 12-level chain fits leveled under every form, so
    // the traced cost rows order by exact ct-mults: f1∘g2 cheapest, the
    // 27-degree comparator dearest.
    let plan = Session::builder(&[4])
        .relu(1.0)
        .params(CkksParams::toy())
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("12-level chain fits all");
    let mut ranked: Vec<_> = plan.candidates().iter().collect();
    ranked.sort_by_key(|c| (c.cost.bootstraps, c.cost.ct_mults, c.cost.relu_levels));
    assert_eq!(ranked.len(), 6);
    assert_eq!(ranked[0].uniform_form(), Some(PafForm::F1G2));
    assert_eq!(ranked[5].uniform_form(), Some(PafForm::MinimaxDeg27));
    assert_eq!(plan.chosen().uniform_form(), Some(PafForm::F1G2));
    // Each row is the exact ladder count + the ReLU product.
    for c in ranked {
        let paf = CompositePaf::from_form(c.uniform_form().expect("one slot"));
        assert_eq!(c.cost.bootstraps, 0);
        assert_eq!(c.cost.ct_mults, paf.prepare().exact_ct_mults() + 1);
        assert_eq!(c.cost.relu_levels, paf.mult_depth() + 1);
    }
}
