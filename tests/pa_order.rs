//! Extension experiment: Progressive Approximation's
//! replacement order, plus scheduler robustness checks.

use smartpaf::{EventKind, TechniqueSet};
use smartpaf_integration_tests::mini_workbench;
use smartpaf_polyfit::PafForm;

#[test]
fn pa_replaces_in_inference_order() {
    let mut wb = mini_workbench(301);
    let r = wb.run_cell(
        TechniqueSet {
            pa: true,
            ..TechniqueSet::baseline_ds()
        },
        PafForm::F1G2,
        false,
    );
    let order: Vec<usize> = r
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Replacement(i) => Some(i),
            _ => None,
        })
        .collect();
    let sorted: Vec<usize> = (0..order.len()).collect();
    assert_eq!(order, sorted, "PA must follow inference order");
}

#[test]
fn relu_only_skips_maxpool_slots() {
    let mut wb = mini_workbench(302);
    let r = wb.run_cell(
        TechniqueSet {
            pa: true,
            ..TechniqueSet::baseline_ds()
        },
        PafForm::F1G2,
        true,
    );
    let replacements = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Replacement(_)))
        .count();
    // MiniCNN: 6 ReLU (replaced) + 2 MaxPool (skipped).
    assert_eq!(replacements, 6);
}

#[test]
fn every_step_ends_with_best_model_restored() {
    let mut wb = mini_workbench(303);
    let r = wb.run_cell(
        TechniqueSet {
            pa: true,
            at: true,
            ..TechniqueSet::baseline_ds()
        },
        PafForm::F2G2,
        true,
    );
    let steps = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StepEnd))
        .count();
    assert_eq!(steps, 6, "one step per replaced slot");
    // The step-end accuracy must never be below the accuracy recorded
    // right after that step's replacement (best-model restoration).
    let mut last_replacement_acc = None;
    for e in &r.events {
        match e.kind {
            EventKind::Replacement(_) => last_replacement_acc = Some(e.val_acc),
            EventKind::StepEnd => {
                let base = last_replacement_acc.expect("replacement before step end");
                assert!(
                    e.val_acc >= base - 1e-6,
                    "step ended below its post-replacement accuracy: {} < {base}",
                    e.val_acc
                );
            }
            _ => {}
        }
    }
}

#[test]
fn events_epochs_are_monotonic() {
    let mut wb = mini_workbench(304);
    let r = wb.run_cell(TechniqueSet::smartpaf_ds(), PafForm::F1G2, false);
    let mut prev = 0;
    for e in &r.events {
        assert!(e.epoch >= prev, "epoch counter went backwards");
        prev = e.epoch;
    }
}
