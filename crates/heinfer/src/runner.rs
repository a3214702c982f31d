//! Encrypted execution of a compiled pipeline with level management —
//! a thin wrapper over the shared interpreter ([`HePipeline::run`])
//! driving the [`CkksBackend`]. The threaded batch driver is
//! [`crate::BatchRunner`] (defined in [`crate::batch`]).

use crate::backends::CkksBackend;
use crate::exec::{RunError, RunStats};
use crate::pipeline::HePipeline;
use smartpaf_ckks::{Bootstrapper, Ciphertext, PafEvaluator};

impl HePipeline {
    /// Runs the pipeline on an encrypted (replicated, padded) input.
    ///
    /// Pass a [`Bootstrapper`] to refresh the ciphertext when a stage
    /// needs more levels than remain; without one, running out of
    /// levels is a [`RunError::OutOfLevels`] — exactly the constraint
    /// that makes high-degree PAFs expensive in the paper. A stage
    /// that needs more levels than the whole chain offers is a
    /// [`RunError::AtomicDepthExceeded`], and a packing mismatch a
    /// [`RunError::SlotMismatch`].
    pub fn try_eval_encrypted(
        &self,
        pe: &PafEvaluator,
        bootstrapper: Option<&Bootstrapper>,
        ct: &Ciphertext,
    ) -> Result<(Ciphertext, RunStats), RunError> {
        let mut backend = CkksBackend::new(pe, bootstrapper);
        self.run(&mut backend, ct.clone())
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::RunError;
    use crate::pipeline::PipelineBuilder;
    use smartpaf_ckks::{Bootstrapper, CkksParams, Evaluator, KeyChain, PafEvaluator};
    use smartpaf_nn::{Conv2d, Flatten, Linear};
    use smartpaf_polyfit::{CompositePaf, PafForm};
    use smartpaf_tensor::Rng64;

    fn setup(seed: u64) -> (PafEvaluator, Rng64) {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        (PafEvaluator::new(Evaluator::new(&keys)), rng)
    }

    #[test]
    fn encrypted_affine_matches_plain() {
        let (pe, mut rng) = setup(61);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, 8, &mut rng))
            .compile();
        let x: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) / 4.0).collect();
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.pad_input(&x), &mut rng);
        let (out_ct, stats) = pipe.try_eval_encrypted(&pe, None, &ct).unwrap();
        let got = pe.evaluator().decrypt_values(&out_ct, 8);
        let want = pipe.eval_plain(&x);
        for i in 0..8 {
            assert!(
                (got[i] - want[i]).abs() < 2e-2,
                "slot {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
        assert_eq!(stats.total_levels(), 1);
        assert_eq!(stats.bootstraps, 0);
    }

    #[test]
    fn encrypted_relu_pipeline_matches_plain() {
        let (pe, mut rng) = setup(62);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, 8, &mut rng))
            .paf_relu(&paf, 4.0)
            .affine(Linear::new(8, 4, &mut rng))
            .compile()
            .fold_scales();
        let x: Vec<f64> = (0..8).map(|i| (i as f64 - 3.0) / 3.0).collect();
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.pad_input(&x), &mut rng);
        let (out_ct, stats) = pipe.try_eval_encrypted(&pe, None, &ct).unwrap();
        let got = pe.evaluator().decrypt_values(&out_ct, 4);
        let want = pipe.eval_plain(&x);
        for i in 0..4 {
            assert!(
                (got[i] - want[i]).abs() < 6e-2,
                "slot {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
        assert_eq!(stats.total_levels(), pipe.total_levels());
    }

    #[test]
    fn encrypted_cnn_with_conv_matches_plain() {
        let (pe, mut rng) = setup(63);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
            .paf_relu(&paf, 6.0)
            .affine(Flatten::new())
            .affine(Linear::new(32, 4, &mut rng))
            .compile()
            .fold_scales();
        let x: Vec<f64> = (0..16).map(|i| ((i % 5) as f64 - 2.0) / 2.0).collect();
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.pad_input(&x), &mut rng);
        let (out_ct, _) = pipe.try_eval_encrypted(&pe, None, &ct).unwrap();
        let got = pe.evaluator().decrypt_values(&out_ct, 4);
        let want = pipe.eval_plain(&x);
        for i in 0..4 {
            assert!(
                (got[i] - want[i]).abs() < 0.1,
                "slot {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn bootstrap_triggers_when_chain_runs_dry() {
        let (pe, mut rng) = setup(64);
        let paf = CompositePaf::from_form(PafForm::F1G2); // depth 5
                                                          // Three PAF blocks at depth 7 each + affines exceed the toy
                                                          // chain (12 levels), forcing at least one refresh.
        let mut b = PipelineBuilder::new(&[4]);
        for _ in 0..3 {
            b = b.affine(Linear::new(4, 4, &mut rng)).paf_relu(&paf, 2.0);
        }
        let pipe = b.compile().fold_scales();
        assert!(pipe.total_levels() > 12);
        let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 5);
        let x = [0.2, -0.4, 0.6, -0.8];
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.pad_input(&x), &mut rng);
        let (out_ct, stats) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
        assert!(stats.bootstraps >= 1);
        assert_eq!(stats.bootstraps, bs.refresh_count());
        let got = pe.evaluator().decrypt_values(&out_ct, 4);
        let want = pipe.eval_plain(&x);
        for i in 0..4 {
            assert!(
                (got[i] - want[i]).abs() < 0.15,
                "slot {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn no_bootstrapper_is_out_of_levels_at_a_stage_boundary() {
        let (pe, mut rng) = setup(65);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let mut b = PipelineBuilder::new(&[4]);
        for _ in 0..3 {
            b = b.affine(Linear::new(4, 4, &mut rng)).paf_relu(&paf, 2.0);
        }
        let pipe = b.compile();
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.pad_input(&[0.1; 4]), &mut rng);
        let err = pipe.try_eval_encrypted(&pe, None, &ct).unwrap_err();
        assert!(
            matches!(
                err,
                RunError::OutOfLevels {
                    mid_stage: false,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn encrypted_maxpool_matches_plain() {
        let (pe, mut rng) = setup(66);
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .paf_maxpool(2, 2, &paf, 4.0)
            .compile();
        let x: Vec<f64> = (0..16).map(|i| ((i * 3) % 7) as f64 / 2.0 - 1.5).collect();
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.pad_input(&x), &mut rng);
        // Scale, two shifts, selection: 1 + 2·(depth+1) + 1 = 16 levels
        // > the toy chain's 12, so the fold must refresh mid-stage.
        let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 3);
        let (out_ct, stats) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
        assert!(stats.bootstraps >= 1);
        let got = pe.evaluator().decrypt_values(&out_ct, 4);
        let want = pipe.eval_plain(&x);
        for i in 0..4 {
            assert!(
                (got[i] - want[i]).abs() < 0.15,
                "slot {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }
}
