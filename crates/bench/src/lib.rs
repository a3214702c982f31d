//! Shared harness helpers for the table/figure regeneration binaries.
//!
//! Every binary honours the `SMARTPAF_SCALE` environment variable:
//!
//! * `test` (default) — minutes-scale runs exercising every code path
//!   with tiny models and few epochs;
//! * `harness` — mid-scale models and epoch counts (tens of minutes);
//! * `paper` — paper-faithful epoch counts (E = 20; hours).

use smartpaf::{Objective, PlannedCandidate, Session, TrainConfig, Workbench};
use smartpaf_ckks::CkksParams;
use smartpaf_datasets::{SynthDataset, SynthSpec};
use smartpaf_nn::{resnet18, vgg19, Model};
use smartpaf_polyfit::PafForm;
use smartpaf_tensor::Rng64;
use std::time::{Duration, Instant};

/// Which experiment scale to run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny CI-friendly runs.
    Test,
    /// Mid-scale models and epoch counts.
    Harness,
    /// Paper-faithful epochs.
    Paper,
}

/// Reads `SMARTPAF_SCALE` (default `test`).
pub fn scale_from_env() -> Scale {
    match std::env::var("SMARTPAF_SCALE").as_deref() {
        Ok("paper") => Scale::Paper,
        Ok("harness") => Scale::Harness,
        _ => Scale::Test,
    }
}

/// Training config for a scale.
pub fn train_config(scale: Scale, seed: u64) -> TrainConfig {
    match scale {
        // More data than the unit-test config: the width-scaled models
        // must clear chance accuracy for the figures to be meaningful.
        Scale::Test => TrainConfig {
            batches_per_epoch: 8,
            val_batches: 12,
            ..TrainConfig::test_scale(seed)
        },
        Scale::Harness => TrainConfig::harness_scale(seed),
        Scale::Paper => TrainConfig::paper_scale(seed),
    }
}

/// Pretraining epochs for a scale.
pub fn pretrain_epochs(scale: Scale) -> usize {
    match scale {
        Scale::Test => 25,
        Scale::Harness => 25,
        Scale::Paper => 40,
    }
}

/// Model width multiplier for a scale.
pub fn width(scale: Scale) -> f32 {
    match scale {
        Scale::Test => 0.0625,
        Scale::Harness => 0.125,
        Scale::Paper => 1.0,
    }
}

/// The synthetic ImageNet substitute, class count reduced below paper
/// scale so the width-scaled models can learn it.
pub fn imagenet_like(scale: Scale, seed: u64) -> SynthSpec {
    let mut spec = SynthSpec::imagenet_like(seed);
    spec.classes = match scale {
        Scale::Test => 8,
        Scale::Harness => 20,
        Scale::Paper => 100,
    };
    if scale == Scale::Test {
        // Soften the task so the width-0.0625 models clear chance
        // while keeping it harder than the CIFAR-like task.
        spec.jitter = 0.5;
        spec.distractor = 0.2;
        spec.noise_std = 0.35;
    }
    spec
}

/// The synthetic CIFAR substitute.
pub fn cifar_like(scale: Scale, seed: u64) -> SynthSpec {
    let mut spec = SynthSpec::cifar_like(seed);
    if scale == Scale::Test {
        spec.classes = 8;
    }
    spec
}

/// ResNet-18 workbench on the ImageNet-like task (the paper's primary
/// evaluation target).
pub fn resnet_workbench(scale: Scale, seed: u64) -> Workbench {
    let spec = imagenet_like(scale, seed);
    let dataset = SynthDataset::new(spec);
    let mut rng = Rng64::new(seed);
    let model: Model = resnet18(spec.classes, width(scale), &mut rng);
    Workbench::new(
        model,
        dataset,
        train_config(scale, seed),
        pretrain_epochs(scale),
    )
}

/// VGG-19 workbench on the CIFAR-like task.
pub fn vgg_workbench(scale: Scale, seed: u64) -> Workbench {
    let spec = cifar_like(scale, seed);
    let dataset = SynthDataset::new(spec);
    let mut rng = Rng64::new(seed);
    let model: Model = vgg19(spec.classes, width(scale), &mut rng);
    Workbench::new(
        model,
        dataset,
        train_config(scale, seed),
        pretrain_epochs(scale),
    )
}

/// Times `form` as a one-ReLU [`Session`] over 64 slots — the measured
/// latency column of Fig. 1 and the latency columns of Tab. 4. Returns
/// the plan's chosen candidate (its traced cost and `priced_ms`, the
/// planner's reproducible latency axis) and the median of `iters`
/// `infer` calls after a warm-up that generates the lazy keys. A
/// request is encrypted at the level the ReLU consumes and the timing
/// includes its encrypt and decrypt (≈ 4 ms at n = 4096).
///
/// # Panics
///
/// Panics if the form does not fit the chain.
pub fn measure_relu(
    params: &CkksParams,
    form: PafForm,
    seed: u64,
    iters: usize,
) -> (PlannedCandidate, Duration) {
    let mut session = Session::builder(&[64])
        .relu(1.0)
        .params(params.clone())
        .objective(Objective::FixedForm(form))
        .seed(seed)
        .plan()
        .and_then(|plan| plan.compile())
        .expect("the form fits the chain");
    let x: Vec<f64> = (0..64).map(|i| i as f64 / 32.0 - 1.0).collect();
    session.infer(&x).expect("serves");
    let mut times: Vec<Duration> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(session.infer(&x).expect("serves"));
            t0.elapsed()
        })
        .collect();
    times.sort();
    (session.chosen().clone(), times[times.len() / 2])
}

/// Prints a percentage cell.
pub fn pct(v: f32) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_test() {
        std::env::remove_var("SMARTPAF_SCALE");
        assert_eq!(scale_from_env(), Scale::Test);
    }

    #[test]
    fn scales_monotone() {
        assert!(pretrain_epochs(Scale::Paper) > pretrain_epochs(Scale::Test));
        assert!(width(Scale::Paper) > width(Scale::Test));
        assert!(imagenet_like(Scale::Paper, 1).classes > imagenet_like(Scale::Test, 1).classes);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.694), "69.4%");
    }
}
