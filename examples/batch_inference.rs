//! One Session, three ways to serve it: the traced dry-run cost
//! oracle, a plaintext batch sharded across machine-sized workers, and
//! an encrypted batch — all through the compiled session.
//!
//! Run with: `cargo run -p smartpaf-examples --release --bin batch_inference`

use smartpaf::{Objective, Session};
use smartpaf_nn::{Conv2d, Flatten, Linear};
use smartpaf_tensor::Rng64;

fn main() {
    println!("Session batch demo: plan once, serve plain and encrypted\n");
    let mut rng = Rng64::new(7);
    let plan = Session::builder(&[1, 8, 8])
        .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .relu(6.0)
        .maxpool(2, 2, 8.0)
        .affine(Flatten::new())
        .affine(Linear::new(32, 10, &mut rng))
        .params(smartpaf_examples::scale_params())
        .objective(Objective::MinBootstraps)
        .seed(7)
        .plan()
        .expect("at least one form fits the chain");
    print!("{}", plan.report());
    let mut session = plan.compile().expect("slot layout fits the ring");

    // 1. The instant cost oracle: per-stage schedule, no arithmetic.
    //    The form column shows the per-slot assignment — on this
    //    conv+pool pipeline f1∘g2 in both slots: with the pool folded
    //    on one ciphertext the shallowest form never refreshes more.
    let report = session.chosen_trace();
    println!(
        "\n[trace] per-stage schedule with {}:",
        session.chosen_label()
    );
    //    A pool enters once per shift, and a refresh can fall between
    //    two of them.
    let forms = session.chosen_forms();
    for s in &report.stages {
        let form = s.slot.map(|i| forms[i].short_name()).unwrap_or("-");
        let entries: Vec<String> = s.op_levels.iter().map(usize::to_string).collect();
        println!(
            "  {:<30} form {:<8} enters at {:>5}  levels {:>2}  bootstraps {}  exact ct-mults {}  relins {}",
            s.label, form, entries.join(","), s.levels, s.bootstraps, s.ct_mults, s.relins
        );
    }

    // 2. Plain batch across the machine's worker threads
    //    (SMARTPAF_THREADS overrides the detected width).
    let inputs: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            (0..64)
                .map(|j| (((i + j) * 31) % 17) as f64 / 8.5 - 1.0)
                .collect()
        })
        .collect();
    let run = session.infer_batch_plain(&inputs).expect("valid batch");
    println!(
        "\n[plain] {} inputs on {} thread(s): {:>8.1} inferences/s ({:?} wall)",
        inputs.len(),
        run.threads,
        run.throughput(),
        run.wall
    );

    // 3. Encrypted batch: same runner, one evaluator clone per worker.
    let small: Vec<Vec<f64>> = inputs.iter().take(2).cloned().collect();
    let enc = session.infer_batch(&small).expect("encrypted batch");
    println!(
        "\n[ckks] encrypted batch of {}: {:?} wall, {} bootstraps",
        enc.outputs.len(),
        enc.wall,
        enc.total_bootstraps()
    );
    for (i, (x, out)) in small.iter().zip(&enc.outputs).enumerate() {
        let plain = session.infer_plain(x).expect("valid input");
        let max_err = out
            .iter()
            .zip(&plain)
            .map(|(d, p)| (d - p).abs())
            .fold(0.0f64, f64::max);
        println!("  input {i}: max |encrypted - plain| = {max_err:.4}");
    }
    println!("\ndone.");
}
