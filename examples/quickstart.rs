//! Quickstart: the Session API in one screen — plan a PAF form on the
//! trace-priced Pareto frontier, compile the CKKS runtime once, serve
//! encrypted inference, and compare against the plaintext reference.
//!
//! Run with: `cargo run -p smartpaf-examples --release --bin quickstart`

use smartpaf::{Objective, Session};
use smartpaf_nn::Linear;
use smartpaf_tensor::Rng64;

fn main() {
    println!("SMART-PAF quickstart: plan -> compile -> serve\n");
    let mut rng = Rng64::new(2024);

    // Plan: trace-price every candidate PAF form on this chain and pick
    // the cheapest whose sign fidelity is within 0.3 of the best.
    let plan = Session::builder(&[8])
        .affine(Linear::new(8, 8, &mut rng))
        .relu(4.0)
        .params(smartpaf_examples::scale_params())
        .objective(Objective::MinLatency { max_acc_drop: 0.3 })
        .seed(2024)
        .plan()
        .expect("at least one form fits the chain");
    print!("{}", plan.report());

    // Compile: CKKS context, keys, engines — the one-time setup.
    let mut session = plan.compile().expect("slot layout fits the ring");

    // Serve: encrypted inference against the exact plaintext twin.
    let x: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) / 4.0).collect();
    let t0 = std::time::Instant::now();
    let enc = session.infer(&x).expect("input fits the pipeline");
    let wall = t0.elapsed();
    let plain = session.infer_plain(&x).expect("same input");

    println!(
        "\nencrypted inference with {} took {wall:?} ({} bootstraps)",
        session.chosen().label(),
        session.total_bootstraps()
    );
    println!(
        "{:>6} {:>12} {:>14} {:>10}",
        "slot", "plain", "encrypted", "abs err"
    );
    for (i, (p, e)) in plain.iter().zip(&enc).enumerate() {
        println!("{i:>6} {p:>12.6} {e:>14.6} {:>10.2e}", (p - e).abs());
    }
    println!("\nDone. The encrypted results match the plaintext PAF model up to CKKS noise.");
}
