//! The SMART-PAF training scheduler (paper Fig. 6).
//!
//! One *step* per non-polynomial slot, executed in inference order
//! (Progressive Approximation). Within a step, *training groups* of E
//! epochs run with SWA; the framework detects accuracy improvement,
//! responds to overfitting, toggles Alternate Training, and keeps the
//! best model seen (the "pick the branch providing higher accuracy"
//! box).
//!
//! Overfitting response: the paper inserts Dropout; our layer graphs
//! have no pre-placed dropout slots, so the scheduler boosts weight
//! decay instead — same regularising role, recorded in the event log.

use crate::config::{TechniqueSet, TrainConfig};
use crate::replace::{freeze_scales, num_slots, replace_all_with, replace_slot};
use crate::trainer::{evaluate, train_epoch};
use smartpaf_datasets::SynthDataset;
use smartpaf_nn::{Adam, Model, SlotRef, Swa};
use smartpaf_polyfit::CompositePaf;

/// What happened at a point of the training timeline (Fig. 9 markers).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A slot was replaced by a PAF.
    Replacement(usize),
    /// An epoch finished (the curve itself).
    Epoch,
    /// SWA was applied at a group boundary.
    SwaApplied,
    /// AT switched to training PAF coefficients.
    AtTrainPaf,
    /// AT switched to training the other layers.
    AtTrainOther,
    /// Overfitting detected; regularisation boosted.
    OverfitDetected,
    /// A replacement step finished.
    StepEnd,
}

/// One timeline entry.
#[derive(Debug, Clone)]
pub struct TrainEvent {
    /// Global epoch counter.
    pub epoch: usize,
    /// Validation accuracy at this point.
    pub val_acc: f32,
    /// Event kind.
    pub kind: EventKind,
}

/// The Fig. 6 scheduler.
pub struct Scheduler {
    config: TrainConfig,
    techniques: TechniqueSet,
    events: Vec<TrainEvent>,
    epoch: usize,
}

impl Scheduler {
    /// Creates a scheduler.
    pub fn new(config: TrainConfig, techniques: TechniqueSet) -> Self {
        Scheduler {
            config,
            techniques,
            events: Vec::new(),
            epoch: 0,
        }
    }

    /// The recorded timeline (for Fig. 9).
    pub fn events(&self) -> &[TrainEvent] {
        &self.events
    }

    fn record(&mut self, val_acc: f32, kind: EventKind) {
        self.events.push(TrainEvent {
            epoch: self.epoch,
            val_acc,
            kind,
        });
    }

    /// Runs the full replacement + fine-tuning schedule. `pafs` holds
    /// one PAF per slot (post-CT when CT is enabled; copies of the
    /// base PAF otherwise). Returns the final validation accuracy
    /// (after DS→SS conversion when the technique set asks for it).
    /// Fine-tuning leaves batch-norm running statistics as pretraining
    /// left them (Tab. 5: `BatchNorm Tracking = False`), so every
    /// parameter snapshot, the restored best one included, is
    /// evaluated with the same statistics.
    pub fn run(
        &mut self,
        model: &mut Model,
        dataset: &SynthDataset,
        pafs: &[CompositePaf],
        relu_only: bool,
    ) -> f32 {
        let total = num_slots(model);
        assert!(!pafs.is_empty(), "no PAFs supplied");
        model.set_batch_norm_tracking(false);
        if self.techniques.pa {
            // Progressive: replace one slot per step, fine-tune after
            // each replacement.
            for pos in 0..total {
                if relu_only && !matches!(model.slots_mut()[pos], SlotRef::Relu(_)) {
                    continue;
                }
                replace_slot(model, pos, &pafs[pos % pafs.len()]);
                let acc = evaluate(model, dataset, &self.config);
                self.record(acc, EventKind::Replacement(pos));
                if self.techniques.fine_tune {
                    self.run_step(model, dataset);
                }
            }
        } else {
            // Direct replacement of everything at once.
            replace_all_with(model, pafs, relu_only);
            let acc = evaluate(model, dataset, &self.config);
            self.record(acc, EventKind::Replacement(usize::MAX));
            if self.techniques.fine_tune {
                self.run_step(model, dataset);
            }
        }
        if self.techniques.static_scale {
            freeze_scales(model);
        }
        evaluate(model, dataset, &self.config)
    }

    /// One replacement step: training groups until no improvement.
    fn run_step(&mut self, model: &mut Model, dataset: &SynthDataset) {
        let mut best_acc = evaluate(model, dataset, &self.config);
        let mut best_params = model.snapshot();
        let mut optim = self.config.optim;
        let mut at_phase_paf = true; // AT starts by training PAFs
        let mut opt = Adam::new(if self.techniques.at {
            self.record(best_acc, EventKind::AtTrainPaf);
            optim.freeze_other()
        } else {
            optim
        });

        for _group in 0..self.config.max_groups_per_step {
            let mut swa = Swa::new();
            let mut group_best = f32::NEG_INFINITY;
            let mut last_train_acc = 0.0;
            for e in 0..self.config.epochs_per_group {
                let (_, train_acc) =
                    train_epoch(model, dataset, &mut opt, &self.config, self.epoch + e);
                last_train_acc = train_acc;
                swa.record(&model.params_mut());
                let val = evaluate(model, dataset, &self.config);
                self.epoch += 1;
                self.record(val, EventKind::Epoch);
                if val > group_best {
                    group_best = val;
                }
                if val > best_acc {
                    best_acc = val;
                    best_params = model.snapshot();
                }
            }
            // Apply SWA; keep it only if it helps.
            let pre_swa = model.snapshot();
            swa.apply(&mut model.params_mut());
            let swa_acc = evaluate(model, dataset, &self.config);
            if swa_acc >= group_best {
                self.record(swa_acc, EventKind::SwaApplied);
                if swa_acc > best_acc {
                    best_acc = swa_acc;
                    best_params = model.snapshot();
                }
                group_best = swa_acc;
            } else {
                model.restore(&pre_swa);
            }

            let improved = group_best >= best_acc;
            let val_now = evaluate(model, dataset, &self.config);
            if last_train_acc > val_now + self.config.overfit_margin {
                // Overfitting: boost regularisation (dropout stand-in).
                optim.paf.weight_decay *= 2.0;
                optim.other.weight_decay *= 2.0;
                self.record(val_now, EventKind::OverfitDetected);
            } else if !improved && self.techniques.at {
                // Swap AT phase.
                at_phase_paf = !at_phase_paf;
                let cfg = if at_phase_paf {
                    self.record(val_now, EventKind::AtTrainPaf);
                    optim.freeze_other()
                } else {
                    self.record(val_now, EventKind::AtTrainOther);
                    optim.freeze_paf()
                };
                opt = Adam::new(cfg);
                continue;
            } else if !improved {
                break;
            }
            opt.set_config(if self.techniques.at {
                if at_phase_paf {
                    optim.freeze_other()
                } else {
                    optim.freeze_paf()
                }
            } else {
                optim
            });
        }
        // Keep the best model seen during this step.
        model.restore(&best_params);
        let final_acc = evaluate(model, dataset, &self.config);
        self.record(final_acc, EventKind::StepEnd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::pretrain;
    use smartpaf_datasets::SynthSpec;
    use smartpaf_nn::mini_cnn;
    use smartpaf_polyfit::PafForm;
    use smartpaf_tensor::Rng64;

    fn setup(seed: u64) -> (Model, SynthDataset, TrainConfig) {
        let spec = SynthSpec::tiny(seed);
        let dataset = SynthDataset::new(spec);
        let config = TrainConfig::test_scale(seed);
        let mut rng = Rng64::new(seed);
        let mut model = mini_cnn(spec.classes, 0.25, &mut rng);
        pretrain(&mut model, &dataset, &config, 4);
        (model, dataset, config)
    }

    #[test]
    fn scheduler_runs_direct_replacement() {
        let (mut model, dataset, config) = setup(31);
        let mut sched = Scheduler::new(config, TechniqueSet::baseline_ds());
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let acc = sched.run(&mut model, &dataset, &[paf], false);
        assert!((0.0..=1.0).contains(&acc));
        assert!(sched
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Replacement(_))));
        assert!(sched
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::StepEnd)));
    }

    #[test]
    fn pa_produces_one_replacement_per_slot() {
        let (mut model, dataset, config) = setup(32);
        let mut sched = Scheduler::new(config, TechniqueSet::smartpaf_ds());
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let _ = sched.run(&mut model, &dataset, &[paf], false);
        let replacements = sched
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Replacement(_)))
            .count();
        assert_eq!(replacements, 8); // 6 ReLU + 2 MaxPool in mini_cnn
    }

    #[test]
    fn at_events_logged_when_enabled() {
        let (mut model, dataset, config) = setup(33);
        let mut sched = Scheduler::new(
            config,
            TechniqueSet {
                at: true,
                ..TechniqueSet::baseline_ds()
            },
        );
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let _ = sched.run(&mut model, &dataset, &[paf], false);
        assert!(sched
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::AtTrainPaf)));
    }

    #[test]
    fn static_scale_freezes_model() {
        let (mut model, dataset, config) = setup(34);
        let mut sched = Scheduler::new(config, TechniqueSet::smartpaf());
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let _ = sched.run(&mut model, &dataset, &[paf], false);
        for s in model.slots_mut() {
            if let (SlotRef::Relu(_), Some(mode)) = (&s, s.scale_mode()) {
                assert!(matches!(mode, smartpaf_nn::ScaleMode::Static(_)));
            }
        }
    }

    #[test]
    fn no_finetune_skips_training_epochs() {
        let (mut model, dataset, config) = setup(35);
        let mut sched = Scheduler::new(
            config,
            TechniqueSet {
                fine_tune: false,
                ..TechniqueSet::baseline_ds()
            },
        );
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let _ = sched.run(&mut model, &dataset, &[paf], false);
        assert!(!sched.events().iter().any(|e| e.kind == EventKind::Epoch));
    }
}
