//! ReLU reduction (DeepReDuce, Jha et al. 2021) combined with
//! SMART-PAF — the "orthogonal" combination the paper's §7 points at.
//!
//! DeepReDuce observes that many ReLUs contribute little to accuracy
//! and can be culled (replaced by the identity) before private
//! inference. Each culled slot costs **zero** multiplicative depth
//! under FHE, so culling composes multiplicatively with SMART-PAF's
//! low-degree replacement of the surviving slots: fewer slots × a
//! cheaper PAF per slot.
//!
//! This module ranks ReLU slots by a leave-one-out sensitivity score,
//! culls the `k` least sensitive, replaces the survivors with PAFs,
//! and reports accuracy plus the FHE depth saved.

use crate::config::TrainConfig;
use crate::trainer::evaluate;
use smartpaf_datasets::SynthDataset;
use smartpaf_nn::{Model, ScaleMode, SlotRef};
use smartpaf_polyfit::CompositePaf;

/// Leave-one-out sensitivity of every ReLU slot: the validation
/// accuracy drop when that slot alone becomes an identity. Returned in
/// slot order (MaxPool slots get `f32::INFINITY` — never culled).
pub fn relu_sensitivity(
    model: &mut Model,
    dataset: &SynthDataset,
    config: &TrainConfig,
) -> Vec<f32> {
    let baseline = evaluate(model, dataset, config);
    let n = crate::replace::num_slots(model);
    let mut out = Vec::with_capacity(n);
    for pos in 0..n {
        if let SlotRef::Relu(r) = &mut model.slots_mut()[pos] {
            r.cull();
        } else {
            out.push(f32::INFINITY);
            continue;
        }
        let acc = evaluate(model, dataset, config);
        out.push(baseline - acc);
        model.slots_mut()[pos].restore_exact();
    }
    out
}

/// Culls the `k` ReLU slots with the smallest sensitivity. Returns the
/// culled slot positions (inference order).
///
/// # Panics
///
/// Panics if `k` exceeds the number of ReLU slots.
pub fn cull_least_sensitive(model: &mut Model, sensitivity: &[f32], k: usize) -> Vec<usize> {
    let mut ranked: Vec<(usize, f32)> = sensitivity
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, s)| s.is_finite())
        .collect();
    assert!(
        k <= ranked.len(),
        "cannot cull {k} of {} ReLUs",
        ranked.len()
    );
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite sensitivity"));
    let mut targets: Vec<usize> = ranked[..k].iter().map(|&(i, _)| i).collect();
    targets.sort_unstable();
    let mut slots = model.slots_mut();
    for &i in &targets {
        if let SlotRef::Relu(r) = &mut slots[i] {
            r.cull();
        }
    }
    targets
}

/// Replaces every *surviving* (non-culled) ReLU slot with a PAF and
/// every MaxPool slot too, leaving culled slots as identities.
pub fn replace_survivors(model: &mut Model, paf: &CompositePaf) {
    for mut s in model.slots_mut() {
        if !matches!(&s, SlotRef::Relu(r) if r.is_culled()) {
            s.replace_with(paf, ScaleMode::Dynamic);
        }
    }
}

/// Outcome of a ReLU-reduction + PAF-replacement combination.
#[derive(Debug, Clone)]
pub struct ComboReport {
    /// Number of ReLU slots culled.
    pub culled: usize,
    /// Positions culled (inference order).
    pub culled_positions: Vec<usize>,
    /// Validation accuracy of the exact model.
    pub exact_acc: f32,
    /// Validation accuracy after culling only.
    pub culled_acc: f32,
    /// Validation accuracy after culling + PAF replacement.
    pub combo_acc: f32,
    /// Fraction of per-inference PAF-ReLU work avoided by culling
    /// (depth-weighted: culled slots cost zero sign evaluations).
    pub work_saved: f32,
}

/// Runs the full combination experiment: sensitivity ranking → cull
/// `k` → PAF-replace the survivors → measure.
pub fn deepreduce_combo(
    model: &mut Model,
    dataset: &SynthDataset,
    config: &TrainConfig,
    paf: &CompositePaf,
    k: usize,
) -> ComboReport {
    let exact_acc = evaluate(model, dataset, config);
    let sens = relu_sensitivity(model, dataset, config);
    let relu_count = sens.iter().filter(|s| s.is_finite()).count();
    let culled_positions = cull_least_sensitive(model, &sens, k);
    let culled_acc = evaluate(model, dataset, config);
    replace_survivors(model, paf);
    let combo_acc = evaluate(model, dataset, config);
    ComboReport {
        culled: k,
        culled_positions,
        exact_acc,
        culled_acc,
        combo_acc,
        work_saved: k as f32 / relu_count.max(1) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::pretrain;
    use smartpaf_datasets::{SynthDataset, SynthSpec};
    use smartpaf_nn::mini_cnn;
    use smartpaf_polyfit::PafForm;
    use smartpaf_tensor::Rng64;

    fn setup() -> (Model, SynthDataset, TrainConfig) {
        let spec = SynthSpec::tiny(31);
        let dataset = SynthDataset::new(spec);
        let config = TrainConfig::test_scale(31);
        let mut rng = Rng64::new(31);
        let mut model = mini_cnn(spec.classes, 0.25, &mut rng);
        pretrain(&mut model, &dataset, &config, 2);
        (model, dataset, config)
    }

    #[test]
    fn sensitivity_marks_pools_infinite() {
        let (mut model, dataset, config) = setup();
        let sens = relu_sensitivity(&mut model, &dataset, &config);
        assert_eq!(sens.len(), 8); // 6 ReLU + 2 MaxPool
        let infinite = sens.iter().filter(|s| s.is_infinite()).count();
        assert_eq!(infinite, 2);
    }

    #[test]
    fn sensitivity_restores_model() {
        let (mut model, dataset, config) = setup();
        let before = evaluate(&mut model, &dataset, &config);
        let _ = relu_sensitivity(&mut model, &dataset, &config);
        let after = evaluate(&mut model, &dataset, &config);
        assert_eq!(
            before, after,
            "sensitivity probing must be side-effect free"
        );
    }

    #[test]
    fn cull_marks_expected_count() {
        let (mut model, dataset, config) = setup();
        let sens = relu_sensitivity(&mut model, &dataset, &config);
        let culled = cull_least_sensitive(&mut model, &sens, 3);
        assert_eq!(culled.len(), 3);
        let mut n_culled = 0;
        for s in model.slots_mut() {
            if let SlotRef::Relu(r) = s {
                n_culled += r.is_culled() as usize;
            }
        }
        assert_eq!(n_culled, 3);
    }

    #[test]
    #[should_panic(expected = "cannot cull")]
    fn cull_rejects_oversized_k() {
        let (mut model, dataset, config) = setup();
        let sens = relu_sensitivity(&mut model, &dataset, &config);
        let _ = cull_least_sensitive(&mut model, &sens, 7);
    }

    #[test]
    fn survivors_get_pafs_culled_stay_identity() {
        let (mut model, dataset, config) = setup();
        let sens = relu_sensitivity(&mut model, &dataset, &config);
        let _ = cull_least_sensitive(&mut model, &sens, 2);
        replace_survivors(&mut model, &CompositePaf::from_form(PafForm::F1G2));
        let (mut culled, mut replaced) = (0, 0);
        for s in model.slots_mut() {
            if let SlotRef::Relu(r) = s {
                culled += r.is_culled() as usize;
                replaced += r.is_replaced() as usize;
            }
        }
        assert_eq!(culled, 2);
        assert_eq!(replaced, 4);
    }

    #[test]
    fn combo_reports_consistent_fields() {
        let (mut model, dataset, config) = setup();
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let report = deepreduce_combo(&mut model, &dataset, &config, &paf, 2);
        assert_eq!(report.culled, 2);
        assert_eq!(report.culled_positions.len(), 2);
        assert!((report.work_saved - 2.0 / 6.0).abs() < 1e-6);
        assert!(report.exact_acc >= 0.0 && report.exact_acc <= 1.0);
        assert!(report.culled_acc >= 0.0 && report.combo_acc >= 0.0);
    }

    #[test]
    fn culling_least_sensitive_hurts_less_than_most_sensitive() {
        // Core DeepReDuce premise: the ranking is informative. Culling
        // the k *least* sensitive slots should not hurt more than
        // culling the k *most* sensitive ones.
        let (mut model, dataset, config) = setup();
        let sens = relu_sensitivity(&mut model, &dataset, &config);
        let k = 2;
        let _ = cull_least_sensitive(&mut model, &sens, k);
        let least_acc = evaluate(&mut model, &dataset, &config);
        // Restore, then cull the most sensitive instead.
        for s in model.slots_mut() {
            if let SlotRef::Relu(r) = s {
                if r.is_culled() {
                    r.restore_exact();
                }
            }
        }
        let mut inverted: Vec<f32> = sens
            .iter()
            .map(|&s| if s.is_finite() { -s } else { s })
            .collect();
        // MaxPools stay infinite (never culled) in the inverted list.
        for v in inverted.iter_mut() {
            if v.is_infinite() && *v < 0.0 {
                *v = f32::INFINITY;
            }
        }
        let _ = cull_least_sensitive(&mut model, &inverted, k);
        let most_acc = evaluate(&mut model, &dataset, &config);
        assert!(
            least_acc >= most_acc - 1e-6,
            "least-sensitive cull {least_acc} vs most-sensitive cull {most_acc}"
        );
    }
}
