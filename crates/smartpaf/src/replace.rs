//! The replacement engine: swapping non-polynomial slots for PAFs,
//! Coefficient Tuning, and DS→SS conversion.

use crate::config::TrainConfig;
use smartpaf_datasets::{Split, SynthDataset};
use smartpaf_nn::{Mode, Model, PafActivation, ScaleMode, SlotRef};
use smartpaf_polyfit::{tune_composite, ActivationProfile, CompositePaf, TuneConfig};

/// Number of non-polynomial slots in a model.
pub fn num_slots(model: &mut Model) -> usize {
    model.slots_mut().len()
}

/// Replaces the slot at `position` (inference order) with a PAF in
/// Dynamic Scaling mode. Returns `true` when a slot was replaced.
pub fn replace_slot(model: &mut Model, position: usize, paf: &CompositePaf) -> bool {
    if let Some(s) = model.slots_mut().get_mut(position) {
        s.replace_with(paf, ScaleMode::Dynamic);
        true
    } else {
        false
    }
}

/// Replaces slot `i` with `pafs[i % pafs.len()]` — one PAF for every
/// slot is the "direct replacement" the paper's baselines use, one per
/// slot what follows CT. `relu_only` restricts the replacement to ReLU
/// slots (Tab. 3's "Replace ReLU" block).
pub fn replace_all_with(model: &mut Model, pafs: &[CompositePaf], relu_only: bool) {
    for (i, mut s) in model.slots_mut().into_iter().enumerate() {
        if !relu_only || matches!(s, SlotRef::Relu(_)) {
            s.replace_with(&pafs[i % pafs.len()], ScaleMode::Dynamic);
        }
    }
}

/// Converts every replaced slot from Dynamic to Static Scaling at its
/// running max — the DS→SS conversion required for FHE deployment.
pub fn freeze_scales(model: &mut Model) {
    for mut s in model.slots_mut() {
        s.freeze_scale();
    }
}

/// Multiplies every frozen static scale by `factor` — the §4.5
/// sensitivity experiment: accuracy should peak at `factor = 1.0`
/// (the running max) and fall off in both directions.
pub fn scale_static_scales(model: &mut Model, factor: f32) {
    for mut s in model.slots_mut() {
        s.scale_static_by(factor);
    }
}

/// Collects the (possibly fine-tuned) PAF of every replaced ReLU slot
/// in inference order — the data behind the App. B coefficient tables.
pub fn collect_relu_pafs(model: &mut Model) -> Vec<CompositePaf> {
    model
        .slots_mut()
        .into_iter()
        .filter_map(|s| match s {
            SlotRef::Relu(r) => r.paf().map(PafActivation::to_composite),
            SlotRef::MaxPool(_) => None,
        })
        .collect()
}

/// Profiles the input distribution of slot `position` by running
/// validation batches with a probe attached (paper Fig. 3 step 2).
///
/// Samples are normalised by their abs-max (the PAF sees `x / s` under
/// Dynamic Scaling) before histogramming.
pub fn profile_slot(
    model: &mut Model,
    dataset: &SynthDataset,
    config: &TrainConfig,
    position: usize,
) -> ActivationProfile {
    model.slots_mut()[position].start_probe();
    for b in 0..config.val_batches.max(2) {
        let (x, _) = dataset.batch(Split::Train, b * config.batch_size, config.batch_size);
        let _ = model.forward(&x, Mode::Eval);
    }
    let mut samples = model.slots_mut()[position].take_probe();
    let max = samples.iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    for v in &mut samples {
        *v /= max;
    }
    ActivationProfile::from_samples(&samples, 64)
}

/// Coefficient Tuning for one slot: profile, tune, return the post-CT
/// PAF (paper §4.2).
pub fn coefficient_tune(
    model: &mut Model,
    dataset: &SynthDataset,
    config: &TrainConfig,
    position: usize,
    base_paf: &CompositePaf,
) -> CompositePaf {
    let profile = profile_slot(model, dataset, config, position);
    let (tuned, _report) = tune_composite(base_paf, &profile, &TuneConfig::default());
    tuned
}

/// Coefficient Tuning for every slot (offline, before any training —
/// the framework applies CT once up front, Fig. 6).
pub fn coefficient_tune_all(
    model: &mut Model,
    dataset: &SynthDataset,
    config: &TrainConfig,
    base_paf: &CompositePaf,
) -> Vec<CompositePaf> {
    let n = num_slots(model);
    (0..n)
        .map(|i| coefficient_tune(model, dataset, config, i, base_paf))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpaf_datasets::SynthSpec;
    use smartpaf_nn::mini_cnn;
    use smartpaf_polyfit::PafForm;
    use smartpaf_tensor::Rng64;

    fn setup() -> (Model, SynthDataset, TrainConfig) {
        let spec = SynthSpec::tiny(21);
        let dataset = SynthDataset::new(spec);
        let config = TrainConfig::test_scale(21);
        let mut rng = Rng64::new(21);
        let model = mini_cnn(spec.classes, 0.25, &mut rng);
        (model, dataset, config)
    }

    #[test]
    fn slot_count_mini_cnn() {
        let (mut model, ..) = setup();
        assert_eq!(num_slots(&mut model), 8); // 6 ReLU + 2 MaxPool
    }

    #[test]
    fn replace_single_slot() {
        let (mut model, ..) = setup();
        let paf = CompositePaf::from_form(PafForm::F1G2);
        assert!(replace_slot(&mut model, 0, &paf));
        let mut replaced = 0;
        for s in model.slots_mut() {
            if let SlotRef::Relu(r) = s {
                if r.is_replaced() {
                    replaced += 1;
                }
            }
        }
        assert_eq!(replaced, 1);
        // Out-of-range position replaces nothing.
        assert!(!replace_slot(&mut model, 99, &paf));
    }

    #[test]
    fn replace_all_relu_only() {
        let (mut model, ..) = setup();
        let paf = CompositePaf::from_form(PafForm::F1G2);
        replace_all_with(&mut model, &[paf], true);
        let mut pools_replaced = 0;
        let mut relus_replaced = 0;
        for s in model.slots_mut() {
            match s {
                SlotRef::Relu(r) => relus_replaced += r.is_replaced() as usize,
                SlotRef::MaxPool(p) => pools_replaced += p.is_replaced() as usize,
            }
        }
        assert_eq!(relus_replaced, 6);
        assert_eq!(pools_replaced, 0);
    }

    #[test]
    fn profile_reflects_activations() {
        let (mut model, dataset, config) = setup();
        let profile = profile_slot(&mut model, &dataset, &config, 0);
        let total: f64 = profile.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Normalised samples must occupy more than one bin.
        let nonzero = profile.weights().iter().filter(|&&w| w > 0.0).count();
        assert!(nonzero > 4, "{nonzero} bins");
    }

    #[test]
    fn ct_produces_different_coefficients() {
        let (mut model, dataset, config) = setup();
        let base = CompositePaf::from_form(PafForm::F1G2);
        let tuned = coefficient_tune(&mut model, &dataset, &config, 0, &base);
        assert_ne!(
            tuned.stages()[0].coeffs(),
            base.stages()[0].coeffs(),
            "CT should move the coefficients"
        );
    }

    #[test]
    fn freeze_scales_converts_to_static() {
        let (mut model, dataset, config) = setup();
        let paf = CompositePaf::from_form(PafForm::F1G2);
        replace_all_with(&mut model, &[paf], false);
        // Run a training-mode forward so running maxima are populated.
        let (x, _) = dataset.batch(Split::Train, 0, config.batch_size);
        let _ = model.forward(&x, Mode::Train);
        freeze_scales(&mut model);
        for s in model.slots_mut() {
            if let (SlotRef::Relu(_), Some(mode)) = (&s, s.scale_mode()) {
                assert!(matches!(mode, ScaleMode::Static(_)));
            }
        }
    }

    #[test]
    fn freeze_scales_converts_pool_slots_too() {
        let (mut model, dataset, config) = setup();
        let paf = CompositePaf::from_form(PafForm::F1G2);
        replace_all_with(&mut model, &[paf], false);
        let (x, _) = dataset.batch(Split::Train, 0, config.batch_size);
        let dynamic = model.forward(&x, Mode::Train);
        freeze_scales(&mut model);
        let frozen: Vec<f32> = model
            .slots_mut()
            .iter()
            .map(|s| match s.scale_mode() {
                Some(ScaleMode::Static(v)) => v,
                other => panic!("slot {} reads {other:?}", s.index()),
            })
            .collect();
        assert_eq!(frozen.len(), 8); // 6 ReLU + 2 MaxPool
                                     // After one batch every running max is that batch's statistic,
                                     // so scales frozen there reproduce the dynamic forward exactly.
        assert_eq!(model.forward(&x, Mode::Train), dynamic);
        scale_static_scales(&mut model, 2.0);
        let doubled: Vec<_> = model.slots_mut().iter().map(SlotRef::scale_mode).collect();
        let expect: Vec<_> = frozen
            .iter()
            .map(|&v| Some(ScaleMode::Static(2.0 * v)))
            .collect();
        assert_eq!(doubled, expect);
    }

    #[test]
    fn collect_pafs_roundtrip() {
        let (mut model, ..) = setup();
        let paf = CompositePaf::from_form(PafForm::F2G2);
        replace_all_with(&mut model, std::slice::from_ref(&paf), true);
        let collected = collect_relu_pafs(&mut model);
        assert_eq!(collected.len(), 6);
        for c in &collected {
            assert_eq!(c.num_stages(), paf.num_stages());
        }
    }
}
