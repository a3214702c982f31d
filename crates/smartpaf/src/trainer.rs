//! Basic training and evaluation loops shared by all experiments.

use crate::config::TrainConfig;
use smartpaf_datasets::{Split, SynthDataset};
use smartpaf_nn::{cross_entropy, AccuracyMeter, Adam, Mode, Model, OptimConfig};

/// Runs one epoch of training; returns `(mean loss, train accuracy)`.
pub fn train_epoch(
    model: &mut Model,
    dataset: &SynthDataset,
    opt: &mut Adam,
    config: &TrainConfig,
    epoch: usize,
) -> (f32, f32) {
    let mut meter = AccuracyMeter::new();
    let mut total_loss = 0.0f64;
    for b in 0..config.batches_per_epoch {
        let start = (epoch * config.batches_per_epoch + b) * config.batch_size;
        let (x, labels) = dataset.batch(Split::Train, start, config.batch_size);
        let logits = model.forward(&x, Mode::Train);
        let (loss, grad) = cross_entropy(&logits, &labels);
        meter.update(&logits, &labels);
        total_loss += loss as f64;
        model.backward(&grad);
        opt.step(&mut model.params_mut());
    }
    (
        (total_loss / config.batches_per_epoch as f64) as f32,
        meter.accuracy(),
    )
}

/// Evaluates validation accuracy over `config.val_batches` batches.
pub fn evaluate(model: &mut Model, dataset: &SynthDataset, config: &TrainConfig) -> f32 {
    let mut meter = AccuracyMeter::new();
    for b in 0..config.val_batches {
        let (x, labels) = dataset.batch(Split::Val, b * config.batch_size, config.batch_size);
        let logits = model.forward(&x, Mode::Eval);
        meter.update(&logits, &labels);
    }
    meter.accuracy()
}

/// Pre-trains a model (all operators exact) for `epochs` epochs and
/// returns the final validation accuracy. This stands in for the
/// paper's pretrained VGG-19/ResNet-18 checkpoints, so batch-norm
/// layers track their running statistics.
pub fn pretrain(
    model: &mut Model,
    dataset: &SynthDataset,
    config: &TrainConfig,
    epochs: usize,
) -> f32 {
    // Pretraining uses a conventional lr, not the fine-tuning Tab. 5 lr.
    let mut opt = Adam::new(OptimConfig {
        paf: smartpaf_nn::GroupConfig {
            lr: 1e-3,
            weight_decay: 0.0,
        },
        other: smartpaf_nn::GroupConfig {
            lr: 1e-3,
            weight_decay: 1e-4,
        },
    });
    model.set_batch_norm_tracking(true);
    for e in 0..epochs {
        train_epoch(model, dataset, &mut opt, config, e);
    }
    evaluate(model, dataset, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpaf_datasets::SynthSpec;
    use smartpaf_nn::mini_cnn;
    use smartpaf_tensor::Rng64;

    #[test]
    fn pretraining_beats_chance() {
        let spec = SynthSpec::tiny(11);
        let dataset = SynthDataset::new(spec);
        let config = TrainConfig {
            batches_per_epoch: 6,
            ..TrainConfig::test_scale(11)
        };
        let mut rng = Rng64::new(11);
        let mut model = mini_cnn(spec.classes, 0.25, &mut rng);
        let acc = pretrain(&mut model, &dataset, &config, 8);
        // 4 classes -> chance is 0.25.
        assert!(acc > 0.5, "pretrain accuracy {acc} not above chance");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let spec = SynthSpec::tiny(3);
        let dataset = SynthDataset::new(spec);
        let config = TrainConfig::test_scale(3);
        let mut rng = Rng64::new(3);
        let mut model = mini_cnn(spec.classes, 0.125, &mut rng);
        let a = evaluate(&mut model, &dataset, &config);
        let b = evaluate(&mut model, &dataset, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn train_epoch_reduces_loss() {
        let spec = SynthSpec::tiny(5);
        let dataset = SynthDataset::new(spec);
        let config = TrainConfig {
            batches_per_epoch: 6,
            ..TrainConfig::test_scale(5)
        };
        let mut rng = Rng64::new(5);
        let mut model = mini_cnn(spec.classes, 0.25, &mut rng);
        let mut opt = Adam::new(OptimConfig {
            paf: smartpaf_nn::GroupConfig {
                lr: 1e-3,
                weight_decay: 0.0,
            },
            other: smartpaf_nn::GroupConfig {
                lr: 1e-3,
                weight_decay: 0.0,
            },
        });
        let (first_loss, _) = train_epoch(&mut model, &dataset, &mut opt, &config, 0);
        let mut last_loss = first_loss;
        for e in 1..6 {
            let (l, _) = train_epoch(&mut model, &dataset, &mut opt, &config, e);
            last_loss = l;
        }
        assert!(
            last_loss < first_loss,
            "loss did not decrease: {first_loss} -> {last_loss}"
        );
    }
}
