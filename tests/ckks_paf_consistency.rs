//! Integration: the CKKS evaluator and the plaintext PAF machinery
//! must compute the same function, form by form.

use smartpaf_ckks::{CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_heinfer::PipelineBuilder;
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Rng64;

fn rig(seed: u64) -> (PafEvaluator, Rng64) {
    let ctx = CkksParams::toy().build();
    let mut rng = Rng64::new(seed);
    let keys = KeyChain::generate(&ctx, &mut rng);
    (PafEvaluator::new(Evaluator::new(&keys)), rng)
}

#[test]
fn every_form_relu_matches_plaintext() {
    let (pe, mut rng) = rig(201);
    let xs: Vec<f64> = vec![-0.8, -0.4, -0.1, 0.2, 0.6, 0.9];
    for form in PafForm::all() {
        let paf = CompositePaf::from_form(form);
        let ct = pe.evaluator().encrypt_values(&xs, &mut rng);
        let out = pe.evaluator().decrypt_values(&pe.relu(&ct, &paf), xs.len());
        for (x, got) in xs.iter().zip(&out) {
            let want = paf.relu(*x);
            assert!(
                (got - want).abs() < 3e-7,
                "{form}: relu({x}) = {got}, want {want}"
            );
        }
    }
}

#[test]
fn depth_consumption_matches_analysis() {
    let (pe, mut rng) = rig(202);
    for form in PafForm::all() {
        let paf = CompositePaf::from_form(form);
        let ct = pe.evaluator().encrypt_values(&[0.5], &mut rng);
        let out = pe.relu(&ct, &paf);
        assert_eq!(
            ct.level() - out.level(),
            PafEvaluator::relu_depth(&paf),
            "{form}: depth mismatch"
        );
    }
}

#[test]
fn static_scale_folding_matches_encrypted_path() {
    // SS puts a slot's `1/s` into the affine stage before its PAF and
    // its `s` into the one after it — here scaled identities, since the
    // ReLU is the whole model — and the PAF runs on its input alone.
    // The encrypted run must match the plain PAF on x/s, times s.
    let (pe, mut rng) = rig(203);
    let paf = CompositePaf::from_form(PafForm::F2G2);
    let s = 4.0;
    let pipe = PipelineBuilder::new(&[8])
        .paf_relu(&paf, s)
        .try_compile()
        .unwrap();
    assert_eq!(pipe.total_levels(), PafEvaluator::relu_depth(&paf) + 2);
    let xs = vec![-3.0, -1.0, 0.5, 2.0, 3.5];
    let ct = pe
        .evaluator()
        .encrypt_replicated(&pipe.try_pad_input(&xs).unwrap(), &mut rng);
    let (out, _) = pipe.try_eval_encrypted(&pe, None, &ct).unwrap();
    let got = pe.evaluator().decrypt_values(&out, xs.len());
    for (x, got) in xs.iter().zip(&got) {
        let want = s * paf.relu(x / s);
        assert!((got - want).abs() < 3e-7, "x={x}: {got} vs {want}");
    }
}
