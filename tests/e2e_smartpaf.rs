//! End-to-end integration: the full SMART-PAF pipeline on a trained
//! CNN, checking the paper's headline *relative* claims.

use smartpaf::TechniqueSet;
use smartpaf_integration_tests::mini_workbench;
use smartpaf_polyfit::PafForm;

#[test]
fn pretrained_model_beats_chance() {
    let wb = mini_workbench(101);
    assert!(
        wb.original_acc() > 0.4,
        "pretraining failed: {}",
        wb.original_acc()
    );
}

#[test]
fn replacement_without_finetune_costs_accuracy_on_average() {
    // Replacing every non-polynomial operator with the cheapest PAF
    // must hurt before any recovery technique runs. A single tiny
    // validation set (24 samples) is too noisy — the PAF's smoothing
    // can flip a few samples either way — so assert on the mean over
    // seeds.
    let mut orig = 0.0;
    let mut post = 0.0;
    for seed in [102, 112, 122] {
        let mut wb = mini_workbench(seed);
        let r = wb.run_cell(
            TechniqueSet {
                fine_tune: false,
                ..TechniqueSet::baseline_ds()
            },
            PafForm::F1G2,
            false,
        );
        orig += r.original_acc / 3.0;
        post += r.post_replacement_acc / 3.0;
    }
    assert!(
        post <= orig + 0.10,
        "replacement should not improve mean accuracy: {post} vs {orig}"
    );
}

#[test]
fn smartpaf_not_worse_than_prior_work_static_scale() {
    // The paper's central comparison: SMART-PAF (CT+PA+AT, DS in
    // training, SS at deployment) vs prior work (baseline + SS).
    let mut wb = mini_workbench(103);
    let prior = wb.run_cell(TechniqueSet::baseline_ss(), PafForm::F1G2, false);
    let ours = wb.run_cell(TechniqueSet::smartpaf(), PafForm::F1G2, false);
    assert!(
        ours.final_acc >= prior.final_acc - 0.05,
        "SMART-PAF {} should not trail prior work {}",
        ours.final_acc,
        prior.final_acc
    );
}

#[test]
fn results_are_deterministic_across_workbenches() {
    let mut a = mini_workbench(104);
    let mut b = mini_workbench(104);
    let ra = a.run_cell(TechniqueSet::smartpaf_ds(), PafForm::F2G2, true);
    let rb = b.run_cell(TechniqueSet::smartpaf_ds(), PafForm::F2G2, true);
    assert_eq!(ra.final_acc, rb.final_acc);
    assert_eq!(ra.post_replacement_acc, rb.post_replacement_acc);
}

#[test]
fn trained_pafs_have_per_layer_coefficients() {
    // After PA + fine-tuning, replaced layers should no longer share
    // identical coefficients (the App. B signature).
    let mut wb = mini_workbench(105);
    let _ = wb.run_cell(TechniqueSet::smartpaf_ds(), PafForm::F1G2, true);
    let pafs = wb.current_relu_pafs();
    assert_eq!(pafs.len(), 6, "all six ReLUs replaced");
    let first = pafs[0].stages()[0].coeffs().to_vec();
    let any_differs = pafs
        .iter()
        .skip(1)
        .any(|p| p.stages()[0].coeffs() != first.as_slice());
    assert!(any_differs, "per-layer coefficients should diverge");
}

#[test]
fn higher_degree_paf_degrades_less_without_finetune() {
    // Tab. 3 / Fig. 7 shape: without fine-tuning, the 14-degree PAF
    // should lose no more accuracy than the cheapest 5-depth PAF.
    let mut wb = mini_workbench(106);
    let no_ft = TechniqueSet {
        fine_tune: false,
        ..TechniqueSet::baseline_ds()
    };
    let rich = wb.run_cell(no_ft, PafForm::F1SqG1Sq, false);
    let cheap = wb.run_cell(no_ft, PafForm::F1G2, false);
    assert!(
        rich.post_replacement_acc >= cheap.post_replacement_acc - 0.05,
        "14-degree {} vs f1g2 {}",
        rich.post_replacement_acc,
        cheap.post_replacement_acc
    );
}
