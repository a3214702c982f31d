//! End-to-end private inference through the Session API: a small
//! PAF-approximated CNN head (conv → PAF-ReLU → PAF-maxpool → linear)
//! served under CKKS, with the batch sharded across machine-sized
//! worker threads.
//!
//! The deployment model is the paper's: weights public, inputs
//! private. Features come from a plaintext extractor (a 4×4 grid of
//! regional means); the head — where the non-polynomial operators
//! live — runs encrypted. The planner chooses a per-slot *form
//! vector* for the fewest refreshes; the pool folds on the one
//! ciphertext, so every op is one ciphertext wide, shallower never
//! refreshes more, and on this conv+pool head the plan settles on
//! f1∘g2 in both slots — printed below as the per-slot table.
//!
//! Run with: `cargo run -p smartpaf-examples --release --bin private_inference`

use smartpaf::{Objective, Session};
use smartpaf_datasets::{Split, SynthDataset, SynthSpec};
use smartpaf_nn::{Conv2d, Flatten, Linear};
use smartpaf_tensor::{Rng64, Tensor};

const GRID: usize = 4;

fn main() {
    println!("Private inference demo: encrypted PAF head over a synthetic task\n");
    let spec = SynthSpec::tiny(9);
    let dataset = SynthDataset::new(spec);
    let batch = 8;
    let (x, labels) = dataset.batch(Split::Val, 0, batch);
    let feats = plain_features(&x); // [batch, 1, GRID, GRID]

    // Plan + compile the head; min-bootstraps chooses the per-slot
    // form vector (uniform rows traced, then one exact dynamic program).
    let mut rng = Rng64::new(77);
    let plan = Session::builder(&[1, GRID, GRID])
        .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .relu(4.0)
        .maxpool(2, 2, 6.0)
        .affine(Flatten::new())
        .affine(Linear::new(
            2 * (GRID / 2) * (GRID / 2),
            spec.classes,
            &mut rng,
        ))
        .params(smartpaf_examples::scale_params())
        .objective(Objective::MinBootstraps)
        .seed(77)
        .plan()
        .expect("the candidate forms fit the chain");
    println!(
        "planned {}: {} exact ct-mults, {} traced bootstraps per inference",
        plan.chosen().label(),
        plan.chosen().cost.ct_mults,
        plan.chosen().cost.bootstraps
    );

    // The per-slot form table (which form each ReLU/maxpool slot
    // got), straight from the plan report's rendering.
    print!(
        "\n{}",
        plan.report()
            .per_slot_table()
            .expect("this pipeline has PAF slots")
    );
    let mut session = plan.compile().expect("slot layout fits the ring");

    // Serve the whole batch encrypted; outputs come back in input order.
    let dim = GRID * GRID;
    let inputs: Vec<Vec<f64>> = (0..batch)
        .map(|b| (0..dim).map(|f| feats.data()[b * dim + f] as f64).collect())
        .collect();
    let run = session.infer_batch(&inputs).expect("valid batch");
    println!(
        "\nencrypted batch of {batch} served in {:?} on {} thread(s)\n",
        run.wall, run.threads
    );

    println!(
        "{:>6} {:>6} {:>11} {:>9} {:>6}",
        "sample", "label", "plain pred", "enc pred", "match"
    );
    let mut agree = 0;
    for (b, (input, enc_logits)) in inputs.iter().zip(&run.outputs).enumerate() {
        let plain_pred = argmax(&session.infer_plain(input).expect("valid input"));
        let enc_pred = argmax(enc_logits);
        agree += (plain_pred == enc_pred) as usize;
        println!(
            "{b:>6} {:>6} {plain_pred:>11} {enc_pred:>9} {:>6}",
            labels[b],
            if plain_pred == enc_pred { "yes" } else { "NO" }
        );
    }
    println!("\n{agree}/{batch} encrypted predictions match the plaintext PAF model.");
}

/// Plaintext feature extractor: a GRID×GRID map of regional means over
/// all channels — affine in the input, so the interesting
/// (non-polynomial) work all happens in the encrypted head.
fn plain_features(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (rh, rw) = (h / GRID, w / GRID);
    let mut out = Tensor::zeros(&[n, 1, GRID, GRID]);
    for b in 0..n {
        for gy in 0..GRID {
            for gx in 0..GRID {
                let mut sum = 0.0f32;
                for ci in 0..c {
                    for dy in 0..rh.max(1) {
                        for dx in 0..rw.max(1) {
                            let y = (gy * rh + dy).min(h - 1);
                            let xx = (gx * rw + dx).min(w - 1);
                            sum += x.data()[((b * c + ci) * h + y) * w + xx];
                        }
                    }
                }
                let count = (c * rh.max(1) * rw.max(1)) as f32;
                out.set(&[b, 0, gy, gx], sum / count);
            }
        }
    }
    out
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}
