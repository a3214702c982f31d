//! Leveled evaluation of composite PAFs on ciphertexts.
//!
//! Follows the paper's depth-optimal schedule (App. C, Fig. 10):
//! per stage, build the even power ladder `x², x⁴, x⁸, …` by repeated
//! squaring and assemble each odd term `a_k·x^{2k+1}` as
//! `(a_k·x) · Π x^{2^{j+1}}` over the set bits `j` of `k`. Total level
//! consumption per stage is `ceil(log2(deg+1))`, matching Tab. 2.

use crate::cipher::{Ciphertext, Evaluator};
use smartpaf_polyfit::{CompositePaf, OddPowerSchedule, Polynomial};

/// Evaluates composite PAFs, PAF-ReLU and PAF-Max on ciphertexts.
#[derive(Debug, Clone)]
pub struct PafEvaluator {
    ev: Evaluator,
}

impl PafEvaluator {
    /// Wraps an [`Evaluator`].
    pub fn new(ev: Evaluator) -> Self {
        PafEvaluator { ev }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    /// Levels a ReLU evaluation with this PAF will consume (sign depth
    /// plus one for the `x·sign(x)` product). A PAF-Max costs the same
    /// — sign of the difference plus the `(x−y)·sign(x−y)` product —
    /// so this is also the atomic depth of each round of an encrypted
    /// max-pool fold (`smartpaf-heinfer`'s level schedule reads it).
    pub fn relu_depth(paf: &CompositePaf) -> usize {
        paf.mult_depth() + 1
    }

    /// Evaluates one odd polynomial stage on a ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the stage is not an odd function, is constant, or the
    /// ciphertext lacks the required levels.
    pub fn eval_odd_stage(&self, x: &Ciphertext, stage: &Polynomial) -> Ciphertext {
        // The packed coefficients and ladder shape come from the shared
        // evaluation engine, so the plaintext and ciphertext paths
        // execute the same schedule.
        let sched = OddPowerSchedule::new(stage);
        let odd = sched.odd_coeffs();

        // Degree-1 stage: a0 * x, one level.
        if sched.k_max() == 0 {
            return self.ev.mul_const(x, odd[0]);
        }

        // Even power ladder: ladder[j] = x^(2^(j+1)).
        let bits_needed = sched.ladder_bits();
        let mut ladder: Vec<Ciphertext> = Vec::with_capacity(bits_needed as usize);
        let mut x2 = self.ev.square(x);
        self.ev.rescale(&mut x2);
        ladder.push(x2);
        for _ in 1..bits_needed {
            let prev = ladder.last().expect("ladder non-empty");
            let mut next = self.ev.square(prev);
            self.ev.rescale(&mut next);
            ladder.push(next);
        }

        // Assemble terms a_k x^(2k+1).
        let mut terms: Vec<Ciphertext> = Vec::new();
        for (k, &a) in odd.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let mut t = self.ev.mul_const(x, a);
            for (j, rung) in ladder.iter().enumerate() {
                if (k >> j) & 1 == 1 {
                    let mut r = self.ev.mul(&t, rung);
                    self.ev.rescale(&mut r);
                    t = r;
                }
            }
            terms.push(t);
        }

        // Sum at the deepest term's level.
        let min_limbs = terms
            .iter()
            .map(Ciphertext::num_limbs)
            .min()
            .expect("at least one non-zero term");
        let mut acc: Option<Ciphertext> = None;
        for mut t in terms {
            t.drop_to(min_limbs);
            acc = Some(match acc {
                None => t,
                Some(a) => self.ev.add(&a, &t),
            });
        }
        acc.expect("non-empty sum")
    }

    /// Evaluates a full composite PAF (sign approximation) on a
    /// ciphertext.
    pub fn eval_composite(&self, x: &Ciphertext, paf: &CompositePaf) -> Ciphertext {
        let mut acc = x.clone();
        for stage in paf.stages() {
            acc = self.eval_odd_stage(&acc, stage);
        }
        acc
    }

    /// PAF-ReLU: `(x + x·paf(x)) / 2`, computed as
    /// `x·(paf(x)·0.5) + 0.5x` by folding the 1/2 into the final stage
    /// so no extra level is consumed.
    pub fn relu(&self, x: &Ciphertext, paf: &CompositePaf) -> Ciphertext {
        let half_paf = scale_last_stage(paf, 0.5);
        let half_sign = self.eval_composite(x, &half_paf);
        let mut xd = x.clone();
        xd.drop_to(half_sign.num_limbs());
        let mut prod = self.ev.mul(&xd, &half_sign);
        self.ev.rescale(&mut prod);
        // The linear term is scaled on the limbs the product runs on,
        // so both addends leave through the same prime.
        let half_x = self.ev.mul_const(&xd, 0.5);
        self.ev.add(&prod, &half_x)
    }

    /// PAF-Max: `((x+y) + (x−y)·paf(x−y)) / 2`.
    pub fn max(&self, x: &Ciphertext, y: &Ciphertext, paf: &CompositePaf) -> Ciphertext {
        let d = self.ev.sub(x, y);
        let half_paf = scale_last_stage(paf, 0.5);
        let half_sign = self.eval_composite(&d, &half_paf);
        let mut dd = d.clone();
        dd.drop_to(half_sign.num_limbs());
        let mut prod = self.ev.mul(&dd, &half_sign);
        self.ev.rescale(&mut prod);
        // As in `relu`: the linear term on the product's limbs.
        let mut sum = self.ev.add(x, y);
        sum.drop_to(dd.num_limbs());
        let half_sum = self.ev.mul_const(&sum, 0.5);
        self.ev.add(&prod, &half_sum)
    }
}

/// Returns a copy of `paf` with the last stage's coefficients scaled.
fn scale_last_stage(paf: &CompositePaf, alpha: f64) -> CompositePaf {
    let mut stages: Vec<Polynomial> = paf.stages().to_vec();
    let last = stages.last_mut().expect("non-empty composite");
    *last = last.scale(alpha);
    CompositePaf::new(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyChain;
    use crate::params::CkksParams;
    use smartpaf_polyfit::PafForm;
    use smartpaf_tensor::Rng64;

    fn setup(seed: u64) -> (PafEvaluator, Rng64) {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        (PafEvaluator::new(Evaluator::new(&keys)), rng)
    }

    fn test_inputs() -> Vec<f64> {
        vec![-0.9, -0.6, -0.3, -0.1, 0.1, 0.25, 0.5, 0.75, 0.95]
    }

    #[test]
    fn single_stage_matches_plaintext() {
        let (pe, mut rng) = setup(11);
        let stage = Polynomial::from_odd(&[1.5, -0.5]); // f1
        let xs = test_inputs();
        let ct = pe.evaluator().encrypt_values(&xs, &mut rng);
        let out_ct = pe.eval_odd_stage(&ct, &stage);
        let out = pe.evaluator().decrypt_values(&out_ct, xs.len());
        for (x, got) in xs.iter().zip(&out) {
            let want = stage.eval(*x);
            assert!((got - want).abs() < 2e-2, "f1({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn degree7_stage_matches_plaintext() {
        let (pe, mut rng) = setup(12);
        let stage = Polynomial::from_odd(&[2.4, -2.63, 1.55, -0.33]);
        let xs = test_inputs();
        let ct = pe.evaluator().encrypt_values(&xs, &mut rng);
        let out_ct = pe.eval_odd_stage(&ct, &stage);
        let out = pe.evaluator().decrypt_values(&out_ct, xs.len());
        for (x, got) in xs.iter().zip(&out) {
            let want = stage.eval(*x);
            assert!((got - want).abs() < 2e-2, "p({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn stage_consumes_expected_levels() {
        let (pe, mut rng) = setup(13);
        let ct = pe.evaluator().encrypt_values(&[0.5], &mut rng);
        let before = ct.level();
        // degree 3 -> 2 levels
        let out = pe.eval_odd_stage(&ct, &Polynomial::from_odd(&[1.5, -0.5]));
        assert_eq!(before - out.level(), 2);
        // degree 5 -> 3 levels
        let out = pe.eval_odd_stage(&ct, &Polynomial::from_odd(&[1.0, -1.0, 0.2]));
        assert_eq!(before - out.level(), 3);
        // degree 7 -> 3 levels
        let out = pe.eval_odd_stage(&ct, &Polynomial::from_odd(&[1.0, -1.0, 0.2, -0.01]));
        assert_eq!(before - out.level(), 3);
    }

    #[test]
    fn composite_f1g2_matches_plaintext() {
        let (pe, mut rng) = setup(14);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let xs = test_inputs();
        let ct = pe.evaluator().encrypt_values(&xs, &mut rng);
        let before = ct.level();
        let out_ct = pe.eval_composite(&ct, &paf);
        assert_eq!(before - out_ct.level(), paf.mult_depth());
        let out = pe.evaluator().decrypt_values(&out_ct, xs.len());
        for (x, got) in xs.iter().zip(&out) {
            let want = paf.eval(*x);
            assert!((got - want).abs() < 3e-2, "paf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn relu_f1sq_g1sq_matches_plaintext() {
        let (pe, mut rng) = setup(15);
        let paf = CompositePaf::from_form(PafForm::F1SqG1Sq);
        let xs = test_inputs();
        let ct = pe.evaluator().encrypt_values(&xs, &mut rng);
        let out_ct = pe.relu(&ct, &paf);
        let out = pe.evaluator().decrypt_values(&out_ct, xs.len());
        for (x, got) in xs.iter().zip(&out) {
            let want = paf.relu(*x);
            assert!((got - want).abs() < 3e-2, "relu({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn relu_depth_accounting() {
        let (pe, mut rng) = setup(16);
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let ct = pe.evaluator().encrypt_values(&[0.4], &mut rng);
        let before = ct.level();
        let out = pe.relu(&ct, &paf);
        assert_eq!(before - out.level(), PafEvaluator::relu_depth(&paf));
        assert_eq!(PafEvaluator::relu_depth(&paf), 7); // 6 + 1
    }

    #[test]
    fn max_matches_plaintext() {
        let (pe, mut rng) = setup(17);
        let paf = CompositePaf::from_form(PafForm::F2G2);
        let xs = vec![0.3, -0.2, 0.8, -0.6];
        let ys = vec![0.5, -0.5, 0.1, -0.1];
        let cx = pe.evaluator().encrypt_values(&xs, &mut rng);
        let cy = pe.evaluator().encrypt_values(&ys, &mut rng);
        let out_ct = pe.max(&cx, &cy, &paf);
        let out = pe.evaluator().decrypt_values(&out_ct, xs.len());
        for i in 0..xs.len() {
            let want = paf.max(xs[i], ys[i]);
            assert!(
                (out[i] - want).abs() < 4e-2,
                "max({}, {}) = {}, want {want}",
                xs[i],
                ys[i],
                out[i]
            );
        }
    }

    #[test]
    fn zero_coefficients_are_skipped() {
        let (pe, mut rng) = setup(18);
        // x^5 only (a0 = a1 = 0).
        let stage = Polynomial::from_odd(&[0.0, 0.0, 1.0]);
        let ct = pe.evaluator().encrypt_values(&[0.8], &mut rng);
        let out = pe.eval_odd_stage(&ct, &stage);
        let got = pe.evaluator().decrypt_values(&out, 1)[0];
        assert!((got - 0.8f64.powi(5)).abs() < 2e-2, "{got}");
    }
}
