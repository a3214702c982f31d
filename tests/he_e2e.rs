//! Cross-crate integration: the full private-inference story — train-
//! side artifacts (CT-tuned PAFs, static scales) flowing into the
//! rotation-based encrypted inference pipeline, and search-derived
//! composites running under real CKKS.

use smartpaf_ckks::{Bootstrapper, CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_heinfer::PipelineBuilder;
use smartpaf_nn::{BatchNorm2d, Conv2d, Flatten, Layer, Linear, Mode};
use smartpaf_polyfit::{
    min_depth_composite, tune_composite, ActivationProfile, CompositePaf, PafForm, SearchConfig,
    TuneConfig,
};
use smartpaf_tensor::{Rng64, Tensor};

fn setup_he(seed: u64) -> (PafEvaluator, Rng64) {
    let ctx = CkksParams::toy().build();
    let mut rng = Rng64::new(seed);
    let keys = KeyChain::generate(&ctx, &mut rng);
    (PafEvaluator::new(Evaluator::new(&keys)), rng)
}

/// A CT-tuned PAF (fit to a profiled activation distribution, the
/// paper's §4.2) must survive the trip into the encrypted pipeline:
/// encrypted outputs match the plaintext PAF reference, and the tuned
/// PAF beats the untuned one on the profiled distribution.
#[test]
fn ct_tuned_paf_runs_encrypted() {
    // Profile: activations concentrated in [-0.3, 0.3] (post-BN conv
    // outputs scaled by the running max).
    let mut rng = Rng64::new(71);
    let samples: Vec<f32> = (0..4096).map(|_| (rng.next_f32() - 0.5) * 0.6).collect();
    let profile = ActivationProfile::from_samples(&samples, 64);
    let base = CompositePaf::from_form(PafForm::F1G2);
    let (tuned, _) = tune_composite(&base, &profile, &TuneConfig::default());

    // The tuned PAF should fit the profiled (narrow) range better.
    let err = |paf: &CompositePaf| -> f64 {
        (0..200)
            .map(|i| {
                let x = -0.3 + 0.6 * i as f64 / 199.0;
                let want = if x > 0.0 { x } else { 0.0 };
                (paf.relu(x) - want).abs()
            })
            .fold(0.0f64, f64::max)
    };
    // CT minimises the histogram-weighted mean error, so the max error
    // on the profiled range may wiggle slightly; it must not degrade
    // materially.
    assert!(
        err(&tuned) <= err(&base) * 1.15,
        "CT degraded the profiled range: {} vs {}",
        err(&tuned),
        err(&base)
    );

    // Encrypted evaluation of the tuned PAF.
    let (pe, mut rng) = setup_he(72);
    let xs: Vec<f64> = vec![-0.28, -0.1, 0.05, 0.22];
    let ct = pe.evaluator().encrypt_values(&xs, &mut rng);
    let out = pe
        .evaluator()
        .decrypt_values(&pe.relu(&ct, &tuned), xs.len());
    for (x, got) in xs.iter().zip(&out) {
        let want = tuned.relu(*x);
        assert!((got - want).abs() < 5e-9, "relu({x}) = {got}, want {want}");
    }
}

/// A search-derived minimal-depth composite evaluates correctly under
/// CKKS: the encrypted sign approximation stays within the search
/// tolerance plus ciphertext noise.
#[test]
fn searched_composite_signs_under_encryption() {
    let cfg = SearchConfig {
        max_stages: 3,
        samples: 101,
        ..SearchConfig::default()
    };
    let cand = min_depth_composite(&cfg, 0.25).expect("tolerance reachable");
    let paf = cand.to_composite();
    assert!(
        paf.mult_depth() <= 8,
        "search should find a shallow composite"
    );

    let (pe, mut rng) = setup_he(73);
    let xs: Vec<f64> = vec![-0.9, -0.5, -0.1, 0.1, 0.5, 0.9];
    let ct = pe.evaluator().encrypt_values(&xs, &mut rng);
    let out = pe
        .evaluator()
        .decrypt_values(&pe.eval_composite(&ct, &paf), xs.len());
    for (x, got) in xs.iter().zip(&out) {
        let sign = if *x > 0.0 { 1.0 } else { -1.0 };
        assert!(
            (got - sign).abs() < cand.max_error + 0.05,
            "sign({x}) = {got} (cand error {})",
            cand.max_error
        );
    }
}

/// End-to-end: an eval-mode CNN (conv + BN + PAF-ReLU + FC) compiled
/// into the encrypted pipeline classifies like its plaintext PAF
/// reference, and that reference tracks the exact-ReLU network.
#[test]
fn encrypted_cnn_matches_plain_and_exact() {
    let mut rng = Rng64::new(74);
    let paf = CompositePaf::from_form(PafForm::Alpha7);
    let scale = 6.0;

    // Exact-ReLU reference network (same weights via same seed).
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut Rng64::new(74));
    let mut bn = BatchNorm2d::new(2);
    let mut flat = Flatten::new();
    let mut lin = Linear::new(2 * 16, 4, &mut {
        let mut r = Rng64::new(74);
        let _ = Conv2d::new(1, 2, 3, 1, 1, &mut r); // burn the same stream
        r
    });
    let x = Tensor::rand_normal(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
    let h = conv.forward(&x, Mode::Eval);
    let h = bn.forward(&h, Mode::Eval);
    let h_exact = h.map(|v| v.max(0.0));
    let h_exact = flat.forward(&h_exact, Mode::Eval);
    let exact_logits = lin.forward(&h_exact, Mode::Eval);

    // PAF pipeline with the identical weight stream.
    let mut stream = Rng64::new(74);
    let conv2 = Conv2d::new(1, 2, 3, 1, 1, &mut stream);
    let lin2 = Linear::new(2 * 16, 4, &mut stream);
    let pipe = PipelineBuilder::new(&[1, 4, 4])
        .affine(conv2)
        .affine(BatchNorm2d::new(2))
        .paf_relu(&paf, scale)
        .affine(Flatten::new())
        .affine(lin2)
        .try_compile()
        .unwrap();

    let flat_x: Vec<f64> = x.data().iter().map(|&v| v as f64).collect();
    let plain = pipe.eval_plain(&flat_x);

    // Plain PAF logits track the exact-ReLU logits.
    for (p, e) in plain.iter().zip(exact_logits.data()) {
        assert!(
            (p - *e as f64).abs() < 0.35,
            "PAF-vs-exact drift: {p} vs {e}"
        );
    }

    // Encrypted logits track the plain PAF logits tightly.
    let (pe, mut rng) = setup_he(75);
    let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 9);
    let ct = pe
        .evaluator()
        .encrypt_replicated(&pipe.try_pad_input(&flat_x).unwrap(), &mut rng);
    let (out_ct, stats) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
    let enc = pe.evaluator().decrypt_values(&out_ct, pipe.output_dim());
    for (g, p) in enc.iter().zip(&plain) {
        assert!((g - p).abs() < 2e-8, "encrypted {g} vs plain {p}");
    }
    assert!(stats.final_level <= pe.evaluator().context().max_level());
}

/// MaxPool under encryption propagates approximation error through the
/// nested fold but stays close to true max pooling — §5.4.3's claim,
/// measured end to end.
#[test]
fn encrypted_maxpool_error_bounded() {
    let paf = CompositePaf::from_form(PafForm::Alpha7);
    let pipe = PipelineBuilder::new(&[1, 4, 4])
        .paf_maxpool(2, 2, &paf, 4.0)
        .try_compile()
        .unwrap();
    let x: Vec<f64> = (0..16).map(|i| ((i * 5) % 9) as f64 / 3.0 - 1.2).collect();
    // True max pooling.
    let mut want = [f64::NEG_INFINITY; 4];
    for oy in 0..2 {
        for ox in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let v = x[(oy * 2 + dy) * 4 + ox * 2 + dx];
                    want[oy * 2 + ox] = want[oy * 2 + ox].max(v);
                }
            }
        }
    }
    let (pe, mut rng) = setup_he(76);
    let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 11);
    let ct = pe
        .evaluator()
        .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
    let (out_ct, _) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
    let got = pe.evaluator().decrypt_values(&out_ct, 4);
    for i in 0..4 {
        assert!(
            (got[i] - want[i]).abs() < 0.3,
            "window {i}: {} vs true max {}",
            got[i],
            want[i]
        );
    }
}
