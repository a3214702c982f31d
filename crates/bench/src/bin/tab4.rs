//! Regenerates paper Tab. 4: SMART-PAF vs the 27-degree minimax PAF
//! (Lee et al.) — validation accuracy, ReLU latency under CKKS, and
//! speedup. The latency column is one encrypted inference of a
//! one-ReLU `Session` (`smartpaf_bench::measure_relu`), so it includes
//! ≈ 4 ms of encrypt + decrypt at n = 4096.

use smartpaf::TechniqueSet;
use smartpaf_bench::{measure_relu, pct, scale_from_env, vgg_workbench};
use smartpaf_ckks::CkksParams;
use smartpaf_polyfit::PafForm;

fn main() {
    let scale = scale_from_env();
    println!("Tab. 4 — SMART-PAF vs 27-degree comparator ({scale:?} scale)\n");

    // Latency column: CKKS PAF-ReLU wall-clock per form.
    println!("timing the 27-degree comparator under CKKS (N = 4096, depth 12)...");
    let params = CkksParams::default_params();
    let relu_ms = |form| measure_relu(&params, form, 5, 5).1.as_secs_f64() * 1e3;
    let comparator_ms = relu_ms(PafForm::MinimaxDeg27);

    // Accuracy column: VGG-19 on synth-cifar with full SMART-PAF.
    let mut wb = vgg_workbench(scale, 6);
    println!(
        "VGG-19 workbench ready (original accuracy {})\n",
        pct(wb.original_acc())
    );

    println!(
        "{:<20} {:>12} {:>16} {:>10}",
        "PAF format", "val acc", "ReLU latency", "speedup"
    );
    for form in [
        PafForm::F1G2,
        PafForm::F2G2,
        PafForm::F2G3,
        PafForm::Alpha7,
        PafForm::F1SqG1Sq,
    ] {
        let ms = relu_ms(form);
        let acc = wb.run_cell(TechniqueSet::smartpaf(), form, false);
        println!(
            "{:<20} {:>12} {:>13.1} ms {:>9.2}x",
            form.paper_name(),
            pct(acc.final_acc),
            ms,
            comparator_ms / ms
        );
    }
    println!(
        "{:<20} {:>12} {:>13.1} ms {:>9.2}x",
        "α=10/27-deg (Lee)", "(baseline)", comparator_ms, 1.0
    );
    println!("\npaper shape: 6.8–14.9x speedups for the low-degree forms, with");
    println!("f1²∘g1² and α=7 keeping accuracy at or above the comparator's.");
}
