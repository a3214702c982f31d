//! Sweeps every PAF form, pricing and measuring CKKS ReLU latency and
//! plaintext sign-approximation error, and prints the Pareto frontier —
//! the structure behind the paper's Fig. 1. The frontier is picked on
//! the planner's traced price of a one-ReLU `Session`
//! (`PlannedCandidate::priced_ms`), so two runs print the same
//! frontier. The measured latency is one encrypted inference of that
//! session (`smartpaf_bench::measure_relu`), so it includes ≈ 4 ms of
//! encrypt + decrypt at n = 4096.
//!
//! Run with: `cargo run -p smartpaf-examples --release --bin pareto_sweep`

use smartpaf::{pareto_frontier, ParetoPoint};
use smartpaf_bench::measure_relu;
use smartpaf_ckks::CkksParams;
use smartpaf_polyfit::{CompositePaf, PafForm};

fn main() {
    println!("PAF latency / fidelity sweep under CKKS (N = 4096, depth 12)\n");
    let params = CkksParams::default_params();

    let mut points = Vec::new();
    println!(
        "{:<20} {:>7} {:>9} {:>11} {:>14} {:>12}",
        "form", "depth", "ct-mults", "priced", "measured", "sign error"
    );
    for form in PafForm::all() {
        let (chosen, measured) = measure_relu(&params, form, 11, 3);
        let paf = CompositePaf::from_form(form);
        let err = paf.sign_error(0.05, 400);
        println!(
            "{:<20} {:>7} {:>9} {:>8.1} ms {:>14?} {:>12.4}",
            form.paper_name(),
            chosen.cost.relu_levels,
            chosen.cost.ct_mults,
            chosen.priced_ms,
            measured,
            err
        );
        points.push(ParetoPoint {
            latency_ms: chosen.priced_ms,
            accuracy: 1.0 - err, // fidelity proxy for the demo
        });
    }

    let frontier = pareto_frontier(&points);
    println!("\nPareto frontier on priced latency (fastest to most accurate):");
    for i in frontier {
        println!(
            "  {:<20} {:>10.1} ms   fidelity {:.4}",
            PafForm::all()[i].paper_name(),
            points[i].latency_ms,
            points[i].accuracy
        );
    }
    println!("\nThe low-degree forms dominate on latency; only the deepest forms");
    println!("buy extra fidelity — exactly the tradeoff SMART-PAF's training exploits.");
}
