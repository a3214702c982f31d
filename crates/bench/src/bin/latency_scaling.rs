//! Extension experiment: PAF-ReLU latency versus ring dimension.
//!
//! Tab. 4's absolute numbers depend on CKKS parameters; this binary
//! shows that the *speedup ordering* of the PAF forms is stable across
//! ring dimensions and matches the analytic model's projection at the
//! paper's N = 32768. A measured cell is one encrypted inference of a
//! one-ReLU `Session` (`smartpaf_bench::measure_relu`), so it includes
//! the request's encrypt + decrypt (≈ 4 ms at n = 4096).
//!
//! Run with: `cargo run -p smartpaf-bench --release --bin latency_scaling`

use smartpaf::SECONDS_PER_MODMUL;
use smartpaf_bench::measure_relu;
use smartpaf_ckks::cost::{project_seconds, relu_op_counts};
use smartpaf_ckks::CkksParams;
use smartpaf_polyfit::{CompositePaf, PafForm};

fn main() {
    let forms = PafForm::all();
    let ns = [1024usize, 2048, 4096];
    println!("PAF-ReLU latency vs ring dimension (measured, 1 iter each)");
    print!("{:<20}", "form");
    for n in ns {
        print!(" {:>12}", format!("N={n}"));
    }
    println!(" {:>14} {:>9}", "proj N=32768", "speedup");

    // Analytic projection at paper scale, at the assumed cost per modmul.
    let paper = CkksParams::paper_scale();
    let baseline_proj = project_seconds(
        &relu_op_counts(&paper, &CompositePaf::from_form(PafForm::MinimaxDeg27)),
        SECONDS_PER_MODMUL,
    );

    for form in forms {
        print!("{:<20}", form.paper_name());
        for n in ns {
            let params = CkksParams {
                n,
                ..CkksParams::default_params()
            };
            let (_, latency) = measure_relu(&params, form, 7, 1);
            print!(" {:>11.1}ms", latency.as_secs_f64() * 1e3);
        }
        let proj = project_seconds(
            &relu_op_counts(&paper, &CompositePaf::from_form(form)),
            SECONDS_PER_MODMUL,
        );
        println!(" {:>13.2}s {:>8.2}x", proj, baseline_proj / proj);
    }
    println!("\npaper Tab. 4 speedups over the 27-degree PAF: 6.79x – 14.9x;");
    println!("the ordering (f1∘g2 fastest … α=10 slowest) must hold at every N.");
}
