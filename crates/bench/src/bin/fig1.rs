//! Regenerates paper Fig. 1: the latency–accuracy Pareto frontier of
//! PAF forms on ResNet-18, SMART-PAF vs prior work (baseline + SS).
//! The latency axis is one encrypted inference of a one-ReLU `Session`
//! (`smartpaf_bench::measure_relu`), so it includes ≈ 4 ms of encrypt +
//! decrypt at n = 4096.

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
    let mut prior = Vec::new();
    println!(
        "{:<14} {:>14} {:>16} {:>16}",
        "PAF", "latency", "SMART-PAF acc", "prior (SS) acc"
    );
    for form in PafForm::smartpaf_set() {
        let ms = measure_relu(&params, form, 8, 3).1.as_secs_f64() * 1e3;
        let ours = wb.run_cell(TechniqueSet::smartpaf(), form, false);
        let them = wb.run_cell(TechniqueSet::baseline_ss(), form, false);
        println!(
            "{:<14} {:>11.1} ms {:>16} {:>16}",
            form.paper_name(),
            ms,
            pct(ours.final_acc),
            pct(them.final_acc)
        );
        smart.push((form, ms, ours.final_acc));
        prior.push((form, ms, them.final_acc));
    }

    let points: Vec<ParetoPoint> = smart
        .iter()
        .map(|&(_, ms, acc)| ParetoPoint {
            latency_ms: ms,
            accuracy: acc as f64,
        })
        .collect();
    println!("\nSMART-PAF Pareto frontier:");
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
