//! §7 comparison with AESPA's claim: a depth-2 quadratic activation
//! (`(x + x²)/2`, expressible as a degree-1 composite PAF) preserves
//! accuracy on easy tasks but degrades on harder ones, where SMART-PAF's
//! low-degree sign composites hold up — the paper's argument for why
//! quadratic-only replacement does not generalise to ImageNet-scale.
//!
//! Run with: `cargo run -p smartpaf-bench --release --bin aespa_compare`

use smartpaf::{evaluate, pretrain, replace_all_with, train_epoch, TrainConfig};
use smartpaf_bench::{pretrain_epochs, scale_from_env, train_config, width};
use smartpaf_datasets::{SynthDataset, SynthSpec};
use smartpaf_nn::{mini_cnn, Adam};
use smartpaf_polyfit::{quadratic_paf, CompositePaf, PafForm};
use smartpaf_tensor::Rng64;

fn run_variant(
    label: &str,
    paf: Option<&CompositePaf>,
    spec: SynthSpec,
    config: &TrainConfig,
    pre_epochs: usize,
    ft_epochs: usize,
    w: f32,
) -> (f32, f32, f32) {
    let dataset = SynthDataset::new(spec);
    let mut rng = Rng64::new(config.seed);
    let mut model = mini_cnn(spec.classes, w, &mut rng);
    pretrain(&mut model, &dataset, config, pre_epochs);
    let exact = evaluate(&mut model, &dataset, config);
    let Some(paf) = paf else {
        return (exact, exact, exact);
    };
    replace_all_with(&mut model, std::slice::from_ref(paf), false);
    let dropped = evaluate(&mut model, &dataset, config);
    let mut opt = Adam::new(config.optim);
    model.set_batch_norm_tracking(false);
    for e in 0..ft_epochs {
        let _ = train_epoch(&mut model, &dataset, &mut opt, config, e);
    }
    let tuned = evaluate(&mut model, &dataset, config);
    let _ = label;
    (exact, dropped, tuned)
}

fn main() {
    let scale = scale_from_env();
    let seed = 47u64;
    let config = train_config(scale, seed);
    let w = width(scale);
    let pre = pretrain_epochs(scale);
    let ft = config.epochs_per_group * 2;

    let quad = quadratic_paf();
    let f1g2 = CompositePaf::from_form(PafForm::F1G2);
    let alpha7 = CompositePaf::from_form(PafForm::Alpha7);
    let variants: [(&str, Option<&CompositePaf>); 3] = [
        ("quadratic (AESPA-style)", Some(&quad)),
        ("f1∘g2 (depth 5)", Some(&f1g2)),
        ("α=7 (depth 6)", Some(&alpha7)),
    ];

    println!("AESPA quadratic vs low-degree sign composites (MiniCNN, scale {scale:?})");
    for (task, spec) in [
        ("easy (cifar-like)", SynthSpec::tiny(seed)),
        ("hard (imagenet-like)", {
            let mut s = SynthSpec::tiny(seed);
            s.noise_std = 0.45;
            s.jitter = 0.6;
            s.distractor = 0.5;
            s
        }),
    ] {
        println!("\n== task: {task} ==");
        println!(
            "{:<26} {:>11} {:>13} {:>13} {:>8}",
            "activation", "exact acc", "post-replace", "post-finetune", "drop"
        );
        for (label, paf) in variants {
            let (exact, dropped, tuned) = run_variant(label, paf, spec, &config, pre, ft, w);
            println!(
                "{:<26} {:>10.1}% {:>12.1}% {:>12.1}% {:>7.1}%",
                label,
                exact * 100.0,
                dropped * 100.0,
                tuned * 100.0,
                (exact - tuned) * 100.0
            );
        }
    }
    println!("\nReading: on the easy task every activation recovers; on the hard task");
    println!("the quadratic's drop should exceed the sign composites' — the paper's");
    println!("§7 caveat about AESPA (quadratic ≠ free lunch beyond TinyImageNet).");
}
