//! Fully encrypted CNN inference — the paper's Fig. 2 pipeline end to
//! end on a single packed ciphertext.
//!
//! Unlike `private_inference` (CryptoNets batching: one neuron across a
//! batch, no rotations), this example packs *one* image into one
//! ciphertext and runs every layer homomorphically:
//!
//! * convolution / batch-norm / pooling / linear → probed into
//!   Halevi–Shoup diagonal matrices, evaluated with baby-step/giant-step
//!   rotations (1 level each);
//! * ReLU → PAF with Static Scaling, the `1/s` and `s` multiplications
//!   folded into the neighbouring affine stages;
//! * MaxPool → the nested PAF-max fold of §5.4.3 as rotate-and-max on
//!   the one ciphertext (two rotations and two PAF-max for a 2×2
//!   window), its anchor selection absorbed by the linear head.
//!
//! Run with: `cargo run -p smartpaf-examples --release --bin encrypted_cnn`

use smartpaf_ckks::{CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_heinfer::PipelineBuilder;
use smartpaf_nn::{BatchNorm2d, Conv2d, Flatten, Linear};
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Rng64;

fn main() {
    let mut rng = Rng64::new(2024);
    let paf = CompositePaf::from_form(PafForm::Alpha7);

    // A small CHW CNN: conv3x3 -> BN -> PAF-ReLU -> maxpool -> FC.
    println!("compiling pipeline (probing affine segments into diagonal matrices)...");
    let pipeline = PipelineBuilder::new(&[1, 8, 8])
        .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .affine(BatchNorm2d::new(2))
        .paf_relu(&paf, 8.0)
        .paf_maxpool(2, 2, &paf, 8.0)
        .affine(Flatten::new())
        .affine(Linear::new(2 * 4 * 4, 10, &mut rng))
        .compile()
        .fold_scales();
    println!(
        "  {} stages, padded dim {}, total depth {} levels",
        pipeline.stages().len(),
        pipeline.dim(),
        pipeline.total_levels()
    );
    for s in pipeline.stages() {
        println!("    - {:<34} {} level(s)", s.label(), s.levels());
    }

    // CKKS context deep enough for one inference without bootstrapping
    // would need ~26 levels; depth 12 forces refreshes, which is
    // exactly the paper's "deep PAF chains need bootstrapping". The
    // 45-bit scale primes keep the noise floor comfortably below the
    // logit gaps after the dense final layer amplifies it.
    let ctx = CkksParams {
        scale_prime_bits: 45,
        ..CkksParams::default_params()
    }
    .build();
    let keys = KeyChain::generate(&ctx, &mut rng);
    let pe = PafEvaluator::new(Evaluator::new(&keys));
    let bootstrapper = smartpaf_ckks::Bootstrapper::new(pe.evaluator().clone(), pipeline.dim(), 7);

    // A synthetic 8×8 "image".
    let image: Vec<f64> = (0..64)
        .map(|i| {
            let (y, x) = (i / 8, i % 8);
            (((x as f64 - 3.5).powi(2) + (y as f64 - 3.5).powi(2)).sqrt() / 5.0 - 0.5).tanh()
        })
        .collect();

    println!(
        "\nencrypting one {}-pixel image into one ciphertext...",
        image.len()
    );
    let ct = pe
        .evaluator()
        .encrypt_replicated(&pipeline.pad_input(&image), &mut rng);

    let t0 = std::time::Instant::now();
    let (out_ct, stats) = pipeline
        .try_eval_encrypted(&pe, Some(&bootstrapper), &ct)
        .expect("the bootstrapper refreshes before the chain runs dry");
    let wall = t0.elapsed();

    let enc_logits = pe
        .evaluator()
        .decrypt_values(&out_ct, pipeline.output_dim());
    let plain_logits = pipeline.eval_plain(&image);

    println!(
        "encrypted inference: {wall:.2?} ({} simulated bootstraps)",
        stats.bootstraps
    );
    println!(
        "\n{:>5} {:>14} {:>14} {:>10}",
        "class", "plain logit", "enc logit", "abs err"
    );
    let mut max_err = 0.0f64;
    for (i, (p, e)) in plain_logits.iter().zip(&enc_logits).enumerate() {
        let err = (p - e).abs();
        max_err = max_err.max(err);
        println!("{i:>5} {p:>14.5} {e:>14.5} {err:>10.2e}");
    }
    let plain_pred = argmax(&plain_logits);
    let enc_pred = argmax(&enc_logits);
    println!(
        "\nplain argmax = {plain_pred}, encrypted argmax = {enc_pred} ({}), max |err| = {max_err:.2e}",
        if plain_pred == enc_pred { "match" } else { "MISMATCH" }
    );
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}
