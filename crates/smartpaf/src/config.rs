//! Experiment configuration.

use smartpaf_nn::OptimConfig;

/// Configuration of the SMART-PAF training framework (paper §4.6 and
/// Tab. 5, plus the experiment-scale knobs our substitution needs).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Epochs per training group (paper: E = 20).
    pub epochs_per_group: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Batches per epoch (defines the synthetic train-set size).
    pub batches_per_epoch: usize,
    /// Validation batches per accuracy measurement.
    pub val_batches: usize,
    /// Optimiser hyperparameters (paper Tab. 5).
    pub optim: OptimConfig,
    /// Overfitting trigger: train acc > val acc + this margin
    /// (paper: 10%).
    pub overfit_margin: f32,
    /// Maximum training groups per replacement step before giving up.
    pub max_groups_per_step: usize,
    /// Master seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's configuration at experiment-harness scale: E is
    /// reduced from 20 to keep CPU-only runs tractable, everything
    /// else follows Tab. 5.
    pub fn harness_scale(seed: u64) -> Self {
        TrainConfig {
            epochs_per_group: 3,
            batch_size: 16,
            batches_per_epoch: 8,
            val_batches: 8,
            optim: OptimConfig::paper_tab5(),
            overfit_margin: 0.10,
            max_groups_per_step: 3,
            seed,
        }
    }

    /// Paper-faithful group length (E = 20); slow, opt-in.
    pub fn paper_scale(seed: u64) -> Self {
        TrainConfig {
            epochs_per_group: 20,
            batch_size: 32,
            batches_per_epoch: 32,
            val_batches: 32,
            optim: OptimConfig::paper_tab5(),
            overfit_margin: 0.10,
            max_groups_per_step: 4,
            seed,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn test_scale(seed: u64) -> Self {
        TrainConfig {
            epochs_per_group: 1,
            batch_size: 8,
            batches_per_epoch: 3,
            val_batches: 3,
            optim: OptimConfig::paper_tab5(),
            overfit_margin: 0.10,
            max_groups_per_step: 2,
            seed,
        }
    }
}

/// Which SMART-PAF techniques an experiment enables — the rows of the
/// Tab. 3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TechniqueSet {
    /// Coefficient Tuning.
    pub ct: bool,
    /// Progressive Approximation (false = direct replacement).
    pub pa: bool,
    /// Alternate Training (false = joint training).
    pub at: bool,
    /// Convert Dynamic Scaling to Static Scaling after training
    /// (the FHE-deployable configuration).
    pub static_scale: bool,
    /// Run fine-tuning at all (false = w/o fine-tune rows).
    pub fine_tune: bool,
}

impl TechniqueSet {
    /// `baseline + DS` (fine-tune, no CT/PA/AT, dynamic scale).
    pub fn baseline_ds() -> Self {
        TechniqueSet {
            ct: false,
            pa: false,
            at: false,
            static_scale: false,
            fine_tune: true,
        }
    }

    /// `baseline + SS` — the prior-work configuration (Lee et al.).
    pub fn baseline_ss() -> Self {
        TechniqueSet {
            static_scale: true,
            ..Self::baseline_ds()
        }
    }

    /// Full SMART-PAF: `CT + PA + AT + SS`.
    pub fn smartpaf() -> Self {
        TechniqueSet {
            ct: true,
            pa: true,
            at: true,
            static_scale: true,
            fine_tune: true,
        }
    }

    /// Full techniques but still dynamic scale (the grey rows of
    /// Tab. 3 before the HE-compatible SS conversion).
    pub fn smartpaf_ds() -> Self {
        TechniqueSet {
            static_scale: false,
            ..Self::smartpaf()
        }
    }

    /// Short label like `"CT+PA+AT+SS"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.ct {
            parts.push("CT");
        }
        if self.pa {
            parts.push("PA");
        }
        if self.at {
            parts.push("AT");
        }
        if !self.fine_tune {
            parts.push("w/o-finetune");
        }
        parts.push(if self.static_scale { "SS" } else { "DS" });
        format!("baseline+{}", parts.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_tab5() {
        let c = TrainConfig::paper_scale(1);
        assert_eq!(c.epochs_per_group, 20);
        assert_eq!(c.optim.paf.lr, 1e-4);
        assert_eq!(c.overfit_margin, 0.10);
    }

    #[test]
    fn technique_labels() {
        assert_eq!(TechniqueSet::baseline_ds().label(), "baseline+DS");
        assert_eq!(TechniqueSet::smartpaf().label(), "baseline+CT+PA+AT+SS");
    }
}
