//! The experiment workbench: pretrain once, run many ablation cells.

use crate::config::{TechniqueSet, TrainConfig};
use crate::replace::{coefficient_tune_all, num_slots, replace_all_with};
use crate::scheduler::{Scheduler, TrainEvent};
use crate::trainer::{evaluate, pretrain};
use smartpaf_datasets::SynthDataset;
use smartpaf_nn::Model;
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Tensor;

/// Result of one ablation cell (one row-column of Tab. 3).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Technique label, e.g. `"baseline+CT+PA+AT+SS"`.
    pub label: String,
    /// The PAF form used.
    pub form: PafForm,
    /// Validation accuracy of the unmodified pretrained model.
    pub original_acc: f32,
    /// Accuracy right after replacement, before any fine-tuning.
    pub post_replacement_acc: f32,
    /// Final accuracy after the scheduled training (and SS conversion
    /// when enabled).
    pub final_acc: f32,
    /// Full training timeline (Fig. 9).
    pub events: Vec<TrainEvent>,
}

/// A reusable experiment bench: owns a pretrained model and restores
/// it between ablation cells so every cell starts from the identical
/// checkpoint (as the paper does with its pretrained networks).
pub struct Workbench {
    model: Model,
    dataset: SynthDataset,
    config: TrainConfig,
    pretrained: Vec<Tensor>,
    original_acc: f32,
}

impl Workbench {
    /// Pretrains `model` on `dataset` for `pretrain_epochs` and
    /// snapshots the checkpoint.
    pub fn new(
        mut model: Model,
        dataset: SynthDataset,
        config: TrainConfig,
        pretrain_epochs: usize,
    ) -> Self {
        let original_acc = pretrain(&mut model, &dataset, &config, pretrain_epochs);
        let pretrained = model.snapshot();
        Workbench {
            model,
            dataset,
            config,
            pretrained,
            original_acc,
        }
    }

    /// Validation accuracy of the pretrained (exact) model.
    pub fn original_acc(&self) -> f32 {
        self.original_acc
    }

    /// The shared dataset.
    pub fn dataset(&self) -> &SynthDataset {
        &self.dataset
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Restores the pretrained checkpoint and reverts every slot to
    /// its exact operator.
    pub fn reset(&mut self) {
        for mut s in self.model.slots_mut() {
            s.restore_exact();
        }
        self.model.restore(&self.pretrained);
        for p in self.model.params_mut() {
            p.zero_grad();
        }
    }

    /// Runs one ablation cell: replacement of `form` with the given
    /// technique set. `relu_only` selects the Tab. 3 "Replace ReLU"
    /// block; otherwise all non-polynomial operators are replaced.
    pub fn run_cell(
        &mut self,
        techniques: TechniqueSet,
        form: PafForm,
        relu_only: bool,
    ) -> ExperimentResult {
        self.reset();
        let base = CompositePaf::from_form(form);
        // CT happens offline, before any replacement (Fig. 6).
        let pafs: Vec<CompositePaf> = if techniques.ct {
            coefficient_tune_all(&mut self.model, &self.dataset, &self.config, &base)
        } else {
            vec![base.clone(); num_slots(&mut self.model).max(1)]
        };

        // Post-replacement accuracy without fine-tuning (Fig. 7).
        replace_all_with(&mut self.model, &pafs, relu_only);
        let post_replacement_acc = evaluate(&mut self.model, &self.dataset, &self.config);

        // Reset replacement state; the scheduler owns the real run.
        for mut s in self.model.slots_mut() {
            s.restore_exact();
        }

        let mut sched = Scheduler::new(self.config, techniques);
        let final_acc = sched.run(&mut self.model, &self.dataset, &pafs, relu_only);
        ExperimentResult {
            label: techniques.label(),
            form,
            original_acc: self.original_acc,
            post_replacement_acc,
            final_acc: if techniques.fine_tune {
                final_acc
            } else {
                post_replacement_acc.max(final_acc)
            },
            events: sched.events().to_vec(),
        }
    }

    /// Collects the trained per-layer ReLU PAFs of the current model
    /// state (App. B tables).
    pub fn current_relu_pafs(&mut self) -> Vec<CompositePaf> {
        crate::replace::collect_relu_pafs(&mut self.model)
    }

    /// Runs a cell, then perturbs every frozen static scale by
    /// `factor` and re-evaluates — the §4.5 scale-sensitivity sweep.
    /// Returns the perturbed-scale validation accuracy.
    pub fn run_cell_with_scale_factor(
        &mut self,
        techniques: TechniqueSet,
        form: PafForm,
        relu_only: bool,
        factor: f32,
    ) -> f32 {
        let _ = self.run_cell(techniques, form, relu_only);
        crate::replace::scale_static_scales(&mut self.model, factor);
        evaluate(&mut self.model, &self.dataset, &self.config)
    }

    /// The "direct replacement + progressive training" ablation (the
    /// green bars of Fig. 8): every operator is replaced up front, and
    /// the progressive schedule then fine-tunes step by step with the
    /// full approximation error present from the start.
    pub fn run_cell_direct_replace_progressive(
        &mut self,
        form: PafForm,
        relu_only: bool,
    ) -> ExperimentResult {
        self.reset();
        let base = CompositePaf::from_form(form);
        let pafs = vec![base.clone(); num_slots(&mut self.model).max(1)];
        // Direct replacement first ...
        replace_all_with(&mut self.model, &pafs, relu_only);
        let post_replacement_acc = evaluate(&mut self.model, &self.dataset, &self.config);
        // ... then the progressive (per-slot) training schedule. Each
        // PA step re-installs the slot's PAF, which is a no-op here
        // because the same coefficients are already in place.
        let techniques = TechniqueSet {
            pa: true,
            ..TechniqueSet::baseline_ds()
        };
        let mut sched = Scheduler::new(self.config, techniques);
        let final_acc = sched.run(&mut self.model, &self.dataset, &pafs, relu_only);
        ExperimentResult {
            label: "direct-replacement+progressive-training+DS".to_string(),
            form,
            original_acc: self.original_acc,
            post_replacement_acc,
            final_acc,
            events: sched.events().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::EventKind;
    use smartpaf_datasets::SynthSpec;
    use smartpaf_nn::mini_cnn;
    use smartpaf_tensor::Rng64;

    fn bench(seed: u64) -> Workbench {
        let spec = SynthSpec::tiny(seed);
        let dataset = SynthDataset::new(spec);
        let config = TrainConfig::test_scale(seed);
        let mut rng = Rng64::new(seed);
        let model = mini_cnn(spec.classes, 0.25, &mut rng);
        Workbench::new(model, dataset, config, 4)
    }

    #[test]
    fn reset_restores_accuracy() {
        let mut wb = bench(41);
        let base_acc = wb.original_acc();
        let _ = wb.run_cell(TechniqueSet::baseline_ds(), PafForm::F1G2, false);
        wb.reset();
        let acc = evaluate(&mut wb.model, &wb.dataset.clone(), &wb.config.clone());
        assert_eq!(acc, base_acc);
    }

    #[test]
    fn a_cell_leaves_batch_norm_running_stats_untouched() {
        // Tab. 5 fine-tunes with tracking off: every cell starts from
        // the pretrained statistics, since `reset` restores parameters
        // only.
        fn running_stats(model: &mut Model) -> Vec<u32> {
            let mut bits = Vec::new();
            for bn in model.batch_norms_mut() {
                let (mean, var) = bn.running_stats();
                bits.extend(mean.iter().chain(var).map(|v| v.to_bits()));
            }
            bits
        }
        let mut wb = bench(45);
        let before = running_stats(&mut wb.model);
        assert!(!before.is_empty(), "mini_cnn has batch-norm layers");
        let r = wb.run_cell(TechniqueSet::baseline_ds(), PafForm::F1G2, false);
        assert!(r.events.iter().any(|e| e.kind == EventKind::Epoch));
        assert_eq!(running_stats(&mut wb.model), before);
    }

    #[test]
    fn cell_produces_complete_result() {
        let mut wb = bench(42);
        let r = wb.run_cell(TechniqueSet::baseline_ds(), PafForm::F1G2, false);
        assert_eq!(r.label, "baseline+DS");
        assert!(r.original_acc > 0.0);
        assert!(!r.events.is_empty());
    }

    #[test]
    fn identical_cells_are_deterministic() {
        let mut wb = bench(43);
        let a = wb.run_cell(TechniqueSet::baseline_ds(), PafForm::F1G2, true);
        let b = wb.run_cell(TechniqueSet::baseline_ds(), PafForm::F1G2, true);
        assert_eq!(a.final_acc, b.final_acc);
        assert_eq!(a.post_replacement_acc, b.post_replacement_acc);
    }

    #[test]
    fn ct_cell_differs_from_baseline() {
        let mut wb = bench(44);
        let base = wb.run_cell(
            TechniqueSet {
                fine_tune: false,
                ..TechniqueSet::baseline_ds()
            },
            PafForm::F1G2,
            false,
        );
        let ct = wb.run_cell(
            TechniqueSet {
                ct: true,
                fine_tune: false,
                ..TechniqueSet::baseline_ds()
            },
            PafForm::F1G2,
            false,
        );
        // CT changes coefficients, so post-replacement accuracy moves.
        assert_ne!(base.post_replacement_acc, ct.post_replacement_acc);
    }
}
