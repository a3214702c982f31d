//! Coefficient Tuning (CT) — paper §4.2.
//!
//! CT re-fits a PAF's coefficients to the *profiled input distribution*
//! of the specific non-polynomial layer it replaces, producing a
//! closer-to-optimal initialisation (Eq. 3) before any fine-tuning.
//!
//! The pipeline is exactly the paper's four steps:
//! 1. start from coefficients given by a traditional approximation
//!    (minimax, see [`crate::minimax_sign`]);
//! 2. profile the layer's input distribution ([`ActivationProfile`]);
//! 3. tune the coefficients to minimise the distribution-weighted
//!    approximation error ([`tune_composite`], Adam in `f64`);
//! 4. install the tuned PAF at that layer.

use crate::composite::{sign_exact, CompositePaf};

/// A histogram summary of a layer's (scaled) input distribution.
///
/// Bin centres and probability weights over `[-1, 1]`; built from raw
/// activation samples that Dynamic Scaling has already normalised.
#[derive(Debug, Clone)]
pub struct ActivationProfile {
    centers: Vec<f64>,
    weights: Vec<f64>,
}

impl ActivationProfile {
    /// Builds a profile from raw samples using `bins` histogram bins
    /// over `[-1, 1]`. Samples outside the range are clamped into the
    /// edge bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `samples` is empty.
    pub fn from_samples(samples: &[f32], bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(!samples.is_empty(), "empty sample set");
        let mut counts = vec![0.0f64; bins];
        for &s in samples {
            let t = ((s as f64 + 1.0) / 2.0).clamp(0.0, 1.0 - 1e-12);
            counts[(t * bins as f64) as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let centers = (0..bins)
            .map(|i| -1.0 + 2.0 * (i as f64 + 0.5) / bins as f64)
            .collect();
        let weights = counts.iter().map(|c| c / total).collect();
        ActivationProfile { centers, weights }
    }

    /// A uniform profile over `[-1, 1]` — what the untuned baseline
    /// implicitly assumes.
    pub fn uniform(bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        let centers = (0..bins)
            .map(|i| -1.0 + 2.0 * (i as f64 + 0.5) / bins as f64)
            .collect();
        let weights = vec![1.0 / bins as f64; bins];
        ActivationProfile { centers, weights }
    }

    /// Probability weight per bin (sums to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Distribution-weighted squared sign-approximation error of a PAF.
    fn weighted_error(&self, paf: &CompositePaf) -> f64 {
        self.centers
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| {
                let d = paf.eval(x) - sign_exact(x);
                w * d * d
            })
            .sum()
    }
}

/// Hyperparameters for coefficient tuning.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Adam iterations.
    pub iters: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Points within `|x| < dead_zone` are excluded from the loss:
    /// `sign` is discontinuous there and chasing it destabilises tuning.
    pub dead_zone: f64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            iters: 400,
            lr: 5e-3,
            dead_zone: 0.02,
        }
    }
}

/// Result of a tuning run.
#[derive(Debug, Clone, Copy)]
pub struct TuneReport {
    /// Weighted error before tuning.
    pub error_before: f64,
    /// Weighted error after tuning.
    pub error_after: f64,
}

impl TuneReport {
    /// Multiplicative improvement (`before / after`).
    pub fn improvement(&self) -> f64 {
        if self.error_after == 0.0 {
            f64::INFINITY
        } else {
            self.error_before / self.error_after
        }
    }
}

/// Tunes a composite PAF's odd coefficients against `sign(x)` weighted
/// by an activation profile, using full-batch Adam on the analytic
/// gradient (chain rule through the stage tape).
///
/// Returns the tuned PAF and before/after errors. The input PAF is not
/// modified.
pub fn tune_composite(
    paf: &CompositePaf,
    profile: &ActivationProfile,
    config: &TuneConfig,
) -> (CompositePaf, TuneReport) {
    let mut tuned = paf.clone();
    let error_before = profile.weighted_error(&tuned);

    // Collect (power index within stage, stage index) parameter layout.
    let layout: Vec<(usize, usize)> = tuned
        .stages()
        .iter()
        .enumerate()
        .flat_map(|(s, p)| (0..p.odd_coeffs().len()).map(move |j| (s, j)))
        .collect();
    let nparam = layout.len();
    let mut m = vec![0.0f64; nparam];
    let mut v = vec![0.0f64; nparam];
    let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);

    for it in 1..=config.iters {
        let mut grad = vec![0.0f64; nparam];
        for (&x, &w) in profile.centers.iter().zip(profile.weights()) {
            if x.abs() < config.dead_zone || w == 0.0 {
                continue;
            }
            let zs = tuned.eval_trace(x);
            let out = *zs.last().expect("trace non-empty");
            let dl_dout = 2.0 * w * (out - sign_exact(x));
            // Backward through stages, accumulating d out / d z.
            let mut gchain = dl_dout;
            for s in (0..tuned.num_stages()).rev() {
                let z_in = zs[s];
                let stage = &tuned.stages()[s];
                // Gradients for this stage's odd coefficients.
                let n_odd = stage.odd_coeffs().len();
                let base = layout
                    .iter()
                    .position(|&(ls, _)| ls == s)
                    .expect("stage in layout");
                for j in 0..n_odd {
                    grad[base + j] += gchain * z_in.powi(2 * j as i32 + 1);
                }
                gchain *= stage.derivative().eval(z_in);
            }
        }
        // Adam step.
        let bc1 = 1.0 - b1.powi(it as i32);
        let bc2 = 1.0 - b2.powi(it as i32);
        for (k, &(s, j)) in layout.iter().enumerate() {
            m[k] = b1 * m[k] + (1.0 - b1) * grad[k];
            v[k] = b2 * v[k] + (1.0 - b2) * grad[k] * grad[k];
            let step = config.lr * (m[k] / bc1) / ((v[k] / bc2).sqrt() + eps);
            let c = tuned.stages()[s].odd_coeffs()[j] - step;
            tuned.stages_mut()[s].coeffs_mut()[2 * j + 1] = c;
        }
    }

    let error_after = profile.weighted_error(&tuned);
    (
        tuned,
        TuneReport {
            error_before,
            error_after,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::PafForm;

    fn gaussian_samples(mean: f32, std: f32, n: usize) -> Vec<f32> {
        // Deterministic pseudo-gaussian via sum of uniforms.
        let mut state = 0x1234_5678_u64;
        (0..n)
            .map(|_| {
                let mut s = 0.0f32;
                for _ in 0..12 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    s += (state >> 40) as f32 / (1u64 << 24) as f32;
                }
                mean + std * (s - 6.0)
            })
            .collect()
    }

    #[test]
    fn profile_weights_sum_to_one() {
        let p = ActivationProfile::from_samples(&gaussian_samples(0.0, 0.3, 5000), 64);
        let s: f64 = p.weights().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(p.centers.len(), 64);
    }

    #[test]
    fn profile_concentrates_near_mean() {
        let p = ActivationProfile::from_samples(&gaussian_samples(0.5, 0.05, 5000), 32);
        let peak = p
            .weights()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| p.centers[i])
            .expect("non-empty");
        assert!((peak - 0.5).abs() < 0.15, "peak at {peak}");
    }

    #[test]
    fn ct_improves_concentrated_distribution() {
        // Inputs concentrated in a narrow band: CT should beat the
        // generic full-range coefficients (paper Fig. 7).
        let samples = gaussian_samples(0.0, 0.12, 4000);
        let profile = ActivationProfile::from_samples(&samples, 64);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let (_tuned, report) = tune_composite(&paf, &profile, &TuneConfig::default());
        assert!(
            report.error_after < report.error_before,
            "CT failed: {} -> {}",
            report.error_before,
            report.error_after
        );
        assert!(report.improvement() > 1.0);
    }

    #[test]
    fn ct_larger_gain_for_lower_degree() {
        // Paper Fig. 7: CT helps low-degree PAFs more than high-degree.
        let samples = gaussian_samples(0.0, 0.1, 4000);
        let profile = ActivationProfile::from_samples(&samples, 64);
        let cfg = TuneConfig::default();
        let (_, low) = tune_composite(&CompositePaf::from_form(PafForm::F1G2), &profile, &cfg);
        let (_, high) = tune_composite(&CompositePaf::from_form(PafForm::F1SqG1Sq), &profile, &cfg);
        assert!(
            low.improvement() > high.improvement() * 0.5,
            "low {} vs high {}",
            low.improvement(),
            high.improvement()
        );
    }

    #[test]
    fn tuning_preserves_oddness() {
        let samples = gaussian_samples(0.0, 0.2, 2000);
        let profile = ActivationProfile::from_samples(&samples, 32);
        let paf = CompositePaf::from_form(PafForm::F2G2);
        let (tuned, _) = tune_composite(&paf, &profile, &TuneConfig::default());
        for stage in tuned.stages() {
            assert!(stage.is_odd_function());
        }
    }

    #[test]
    fn uniform_profile_keeps_good_paf_stable() {
        // A PAF already near-optimal for the uniform distribution should
        // not get much worse.
        let profile = ActivationProfile::uniform(64);
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let (_, report) = tune_composite(
            &paf,
            &profile,
            &TuneConfig {
                iters: 100,
                ..TuneConfig::default()
            },
        );
        assert!(report.error_after <= report.error_before * 1.5);
    }

    #[test]
    fn improvement_metric_sane() {
        let r = TuneReport {
            error_before: 4.0,
            error_after: 2.0,
        };
        assert_eq!(r.improvement(), 2.0);
    }
}
