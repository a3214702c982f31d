//! Regenerates paper Fig. 1: the latency–accuracy Pareto frontier of
//! PAF forms on ResNet-18, SMART-PAF vs prior work (baseline + SS).
//! The frontier's latency axis is the planner's traced price of a
//! one-ReLU `Session` (`PlannedCandidate::priced_ms`), so it does not
//! move with host timing. The measured column is one encrypted
//! inference of that session (`smartpaf_bench::measure_relu`), so it
//! includes ≈ 4 ms of encrypt + decrypt at n = 4096.

use smartpaf::{pareto_frontier, ParetoPoint, TechniqueSet};
use smartpaf_bench::{measure_relu, pct, resnet_workbench, scale_from_env};
use smartpaf_ckks::CkksParams;
use smartpaf_polyfit::PafForm;

fn main() {
    let scale = scale_from_env();
    println!("Fig. 1 — latency vs accuracy Pareto frontier ({scale:?} scale)\n");

    let params = CkksParams::default_params();
    let mut wb = resnet_workbench(scale, 7);
    println!(
        "ResNet-18 on synth-imagenet, original accuracy {}\n",
        pct(wb.original_acc())
    );

    let mut smart = Vec::new();
    println!(
        "{:<14} {:>11} {:>12} {:>16} {:>16}",
        "PAF", "priced", "measured", "SMART-PAF acc", "prior (SS) acc"
    );
    for form in PafForm::smartpaf_set() {
        let (chosen, measured) = measure_relu(&params, form, 8, 3);
        let ours = wb.run_cell(TechniqueSet::smartpaf(), form, false);
        let them = wb.run_cell(TechniqueSet::baseline_ss(), form, false);
        println!(
            "{:<14} {:>8.1} ms {:>9.1} ms {:>16} {:>16}",
            form.paper_name(),
            chosen.priced_ms,
            measured.as_secs_f64() * 1e3,
            pct(ours.final_acc),
            pct(them.final_acc)
        );
        smart.push((form, chosen.priced_ms, ours.final_acc));
    }

    let points: Vec<ParetoPoint> = smart
        .iter()
        .map(|&(_, ms, acc)| ParetoPoint {
            latency_ms: ms,
            accuracy: acc as f64,
        })
        .collect();
    println!("\nSMART-PAF Pareto frontier (priced latency):");
    for i in pareto_frontier(&points) {
        println!(
            "  {:<14} {:>8.1} ms  {}",
            smart[i].0.paper_name(),
            smart[i].1,
            pct(smart[i].2)
        );
    }
    println!("\npaper shape: SMART-PAF dominates prior work at every latency point;");
    println!("the 14-degree f1²∘g1² reaches comparator-level accuracy ~7.8x faster.");
}
