//! Leveled evaluation of composite PAFs on ciphertexts.
//!
//! Follows the paper's depth-optimal schedule (App. C, Fig. 10):
//! per stage, build the even power ladder `x², x⁴, x⁸, …` by repeated
//! squaring and assemble each odd term `a_k·x^{2k+1}` as
//! `(a_k·x) · Π x^{2^{j+1}}` over the set bits `j` of `k`. Total level
//! consumption per stage is `ceil(log2(deg+1))`, matching Tab. 2.
//!
//! # One division per product, one key switch per sum
//!
//! Every product that is used on its own — a ladder rung, a term's
//! inner products, the final `x·sign(x)` — is
//! `relinearize_rescale(tensor(..))`: the key switch's division by `P`
//! and the rescale's by `q_last` are one base conversion. A term's
//! **last** product is not used on its own, only summed, so it stays a
//! [`Product`]: the stage adds the three-component products and
//! relinearises the sum once
//! (`OddPowerSchedule::{exact_ct_mults, exact_relins}` count the two).
//!
//! # Scale management
//!
//! Un-rescaled products can only be summed at *equal* scales, and a
//! rescale divides by a prime, not by Δ, so two terms that took
//! different paths down the chain sit up to ~1e-4 apart per level.
//! Adding them anyway costs that relative error in every slot — it
//! was the evaluator's precision floor. Instead each term's constant
//! `a_k` is encoded at the scale `c_k = target / f_k`, where `f_k` is
//! the factor the term's own chain of products and primes multiplies
//! its scale by: every addend of a stage then lands on `target`
//! exactly. Stages hand each other `ctx.scale()`; the last stage's
//! target is chosen so that `x·½sign(x)` and `½x` — and therefore
//! [`PafEvaluator::relu`] and [`PafEvaluator::max`] — come out at
//! exactly `ctx.scale()` whatever scale the input arrived at. What the
//! `f64` bookkeeping leaves is rounding in the last place
//! ([`settle`]).

use crate::cipher::{Ciphertext, Evaluator, Product};
use smartpaf_polyfit::{CompositePaf, OddPowerSchedule, Polynomial};

/// Evaluates composite PAFs, PAF-ReLU and PAF-Max on ciphertexts.
#[derive(Debug, Clone)]
pub struct PafEvaluator {
    ev: Evaluator,
}

/// Declares `scale`, which a chain of `f64` products and quotients
/// steered at `want`, to be `want`: the two name the same real number
/// and differ by the rounding of that chain, a few units in the last
/// place (a scale *bug* is off by 1e-6 or more — ten orders of
/// magnitude).
fn settle(scale: &mut f64, want: f64) {
    debug_assert!(
        (*scale - want).abs() <= 16.0 * f64::EPSILON * want,
        "scale {scale} was steered at {want}"
    );
    *scale = want;
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

    /// Evaluates one odd polynomial stage on a ciphertext; the result
    /// is at exactly `ctx.scale()`.
    ///
    /// # Panics
    ///
    /// Panics if the stage is not an odd function, is constant, or the
    /// ciphertext lacks the required levels.
    pub fn eval_odd_stage(&self, x: &Ciphertext, stage: &Polynomial) -> Ciphertext {
        self.odd_stage_at(x, stage, self.ev.context().scale())
    }

    /// [`Self::eval_odd_stage`] with the result at exactly `target`.
    fn odd_stage_at(&self, x: &Ciphertext, stage: &Polynomial, target: f64) -> Ciphertext {
        // The packed coefficients and ladder shape come from the shared
        // evaluation engine, so the plaintext and ciphertext paths
        // execute the same schedule.
        let sched = OddPowerSchedule::new(stage);
        let odd = sched.odd_coeffs();
        let ev = &self.ev;
        let prime = |limbs: usize| ev.context().primes()[limbs - 1] as f64;

        // a_0·x at `target`, one level below `x`.
        let linear = || {
            let const_scale = target * prime(x.num_limbs()) / x.scale;
            let mut t = ev.mul_const_at(x, odd[0], const_scale);
            settle(&mut t.scale, target);
            t
        };
        if sched.k_max() == 0 {
            return linear();
        }

        // Even power ladder: ladder[j] = x^(2^(j+1)), one limb lower
        // per rung.
        let bits = sched.ladder_bits() as usize;
        let mut ladder: Vec<Ciphertext> = Vec::with_capacity(bits);
        ladder.push(ev.relinearize_rescale(ev.tensor_square(x)));
        for _ in 1..bits {
            let prev = ladder.last().expect("ladder non-empty");
            ladder.push(ev.relinearize_rescale(ev.tensor_square(prev)));
        }

        // Terms a_k·x^(2k+1), k ≥ 1: `a_k·x` times the rungs of k's set
        // bits, lowest first. A product runs on its rung's limbs (the
        // running term is never lower), and the last one — on the
        // highest rung — is left un-switched for the sum, which runs on
        // the top rung's limbs and at the scale whose rescale there is
        // `target`.
        let sum_limbs = ladder[bits - 1].num_limbs();
        let sum_scale = target * prime(sum_limbs);
        let mut sum: Option<Product> = None;
        for (k, _) in odd.iter().enumerate().skip(1).filter(|(_, &a)| a != 0.0) {
            let mut rungs: Vec<&Ciphertext> = (0..bits)
                .filter(|j| (k >> j) & 1 == 1)
                .map(|j| &ladder[j])
                .collect();
            let last = rungs.pop().expect("k >= 1 has a set bit");
            // f_k, by the arithmetic the operations below repeat.
            let mut factor = x.scale / prime(x.num_limbs());
            for rung in &rungs {
                factor = factor * rung.scale / prime(rung.num_limbs());
            }
            factor *= last.scale;
            let mut t = ev.mul_const_at(x, odd[k], sum_scale / factor);
            for rung in rungs {
                t = ev.relinearize_rescale(ev.tensor(&t, rung));
            }
            let mut product = ev.tensor(&t, last);
            settle(&mut product.scale, sum_scale);
            product.drop_to(sum_limbs);
            sum = Some(match sum {
                None => product,
                Some(mut sum) => {
                    sum.add_assign(&product);
                    sum
                }
            });
        }
        let mut out = ev.relinearize_rescale(sum.expect("a non-constant stage has a term k >= 1"));
        settle(&mut out.scale, target);
        if odd[0] != 0.0 {
            let mut lin = linear();
            lin.drop_to(out.num_limbs());
            out = ev.add(&out, &lin);
        }
        out
    }

    /// Evaluates a full composite PAF (sign approximation) on a
    /// ciphertext; the result is at exactly `ctx.scale()`.
    pub fn eval_composite(&self, x: &Ciphertext, paf: &CompositePaf) -> Ciphertext {
        self.composite_at(x, paf.stages(), self.ev.context().scale())
    }

    /// The stages in order, handing each other `ctx.scale()`, with the
    /// last one's result at exactly `target`.
    fn composite_at(&self, x: &Ciphertext, stages: &[Polynomial], target: f64) -> Ciphertext {
        let (last, inner) = stages.split_last().expect("non-empty composite");
        let mut acc = x.clone();
        for stage in inner {
            acc = self.eval_odd_stage(&acc, stage);
        }
        self.odd_stage_at(&acc, last, target)
    }

    /// PAF-ReLU: `(x + x·paf(x)) / 2`, computed as
    /// `x·(paf(x)·0.5) + 0.5x` by folding the 1/2 into the final stage
    /// so no extra level is consumed. The result is at exactly
    /// `ctx.scale()`.
    pub fn relu(&self, x: &Ciphertext, paf: &CompositePaf) -> Ciphertext {
        self.half_sum_plus_abs(x, x, paf)
    }

    /// PAF-Max: `((x+y) + (x−y)·paf(x−y)) / 2`, at exactly
    /// `ctx.scale()`.
    pub fn max(&self, x: &Ciphertext, y: &Ciphertext, paf: &CompositePaf) -> Ciphertext {
        self.half_sum_plus_abs(&self.ev.add(x, y), &self.ev.sub(x, y), paf)
    }

    /// `(sum + d·paf(d)) / 2` for `sum` and `d` at one scale.
    fn half_sum_plus_abs(
        &self,
        sum: &Ciphertext,
        d: &Ciphertext,
        paf: &CompositePaf,
    ) -> Ciphertext {
        let ev = &self.ev;
        let ctx = ev.context();
        debug_assert_eq!(sum.scale.to_bits(), d.scale.to_bits());
        // The product `d·½sign(d)` leaves through the prime the sign
        // ends on; the sign's scale is the one that brings it — and the
        // linear term, whose ½ is encoded at that same scale — to Δ.
        let sign_limbs = d.num_limbs() - paf.mult_depth();
        let sign_scale = ctx.scale() * ctx.primes()[sign_limbs - 1] as f64 / d.scale;
        let mut half_stages = paf.stages().to_vec();
        let last = half_stages.last_mut().expect("non-empty composite");
        *last = last.scale(0.5);
        let half_sign = self.composite_at(d, &half_stages, sign_scale);
        let (mut d, mut sum) = (d.clone(), sum.clone());
        d.drop_to(sign_limbs);
        sum.drop_to(sign_limbs);
        let mut prod = ev.relinearize_rescale(ev.tensor(&d, &half_sign));
        let mut half_sum = ev.mul_const_at(&sum, 0.5, sign_scale);
        settle(&mut prod.scale, ctx.scale());
        settle(&mut half_sum.scale, ctx.scale());
        ev.add(&prod, &half_sum)
    }
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
            assert!((got - want).abs() < 3e-8, "f1({x}) = {got}, want {want}");
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
            assert!((got - want).abs() < 3e-8, "p({x}) = {got}, want {want}");
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
            assert!((got - want).abs() < 3e-8, "paf({x}) = {got}, want {want}");
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
            assert!((got - want).abs() < 3e-8, "relu({x}) = {got}, want {want}");
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
                (out[i] - want).abs() < 3e-8,
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
        assert!((got - 0.8f64.powi(5)).abs() < 3e-8, "{got}");
    }

    /// Worst-slot agreement, in bits, of `got` with `want`.
    fn bits(got: &[f64], want: &[f64]) -> f64 {
        let worst = got
            .iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        -worst.log2()
    }

    #[test]
    fn relu_and_max_leave_at_exactly_the_context_scale() {
        // Whatever scale the input arrives at — here up to 1e-4 off Δ,
        // more than any chain of rescales leaves — the outputs carry
        // Δ bit for bit, and the values are the plaintext PAF's.
        let (pe, mut rng) = setup(19);
        let ev = pe.evaluator();
        let delta = ev.context().scale();
        let xs = test_inputs();
        // |x − y| ≤ 1: the PAF's domain.
        let ys: Vec<f64> = xs.iter().rev().map(|v| v * 0.05).collect();
        for form in [PafForm::F1G2, PafForm::F1SqG1Sq, PafForm::Alpha7] {
            let paf = CompositePaf::from_form(form);
            for off in [0.0, 1e-4, -1e-4, 3.3e-5] {
                let scale = delta * (1.0 + off);
                let enc = |v: &[f64], rng: &mut Rng64| {
                    ev.encrypt(&ev.encoder().encode(v, scale, 13), rng)
                };
                let (cx, cy) = (enc(&xs, &mut rng), enc(&ys, &mut rng));
                let relu = pe.relu(&cx, &paf);
                let max = pe.max(&cx, &cy, &paf);
                assert_eq!(relu.scale.to_bits(), delta.to_bits(), "{form} {off}");
                assert_eq!(max.scale.to_bits(), delta.to_bits(), "{form} {off}");
                let want: Vec<f64> = xs.iter().map(|&x| paf.relu(x)).collect();
                let b = bits(&ev.decrypt_values(&relu, xs.len()), &want);
                assert!(b > 18.0, "{form} {off}: relu {b} bits");
                let want: Vec<f64> = xs.iter().zip(&ys).map(|(&x, &y)| paf.max(x, y)).collect();
                let b = bits(&ev.decrypt_values(&max, xs.len()), &want);
                assert!(b > 18.0, "{form} {off}: max {b} bits");
            }
        }
    }

    #[test]
    fn default_ring_precision_is_noise_not_scale_drift() {
        // On the default ring the scale primes sit up to 1.5e-6 off Δ
        // and a depth-6 evaluation used to add terms up to 4.5e-4
        // apart: 16.2 bits for this ReLU, 12.0 for these two chained
        // PAF-max from 13 limbs. With every addend on one scale what is
        // left is noise (24.7 and 24.2).
        let ctx = CkksParams::default_params().build();
        let mut rng = Rng64::new(20);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let ev = pe.evaluator();
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let slots = ctx.slots();
        // |x − y| ≤ 1: the PAF's domain.
        let xs: Vec<f64> = (0..slots).map(|_| rng.next_f64() - 0.5).collect();
        let ys: Vec<f64> = (0..slots).map(|_| rng.next_f64() - 0.5).collect();
        let zs: Vec<f64> = (0..slots).map(|_| rng.next_f64() - 0.5).collect();
        let cx = ev.encrypt_values(&xs, &mut rng);
        let cy = ev.encrypt_values(&ys, &mut rng);
        let cz = ev.encrypt_values(&zs, &mut rng);
        let relu = ev.decrypt_values(&pe.relu(&cx, &paf), slots);
        let want: Vec<f64> = xs.iter().map(|&x| paf.relu(x)).collect();
        let relu_bits = bits(&relu, &want);
        let two = pe.max(&pe.max(&cx, &cy, &paf), &cz, &paf);
        assert_eq!(two.level(), 0);
        let want: Vec<f64> = (0..slots)
            .map(|i| paf.max(paf.max(xs[i], ys[i]), zs[i]))
            .collect();
        let max_bits = bits(&ev.decrypt_values(&two, slots), &want);
        assert!(relu_bits >= 23.0, "ReLU: {relu_bits} bits");
        assert!(max_bits >= 22.0, "two chained max: {max_bits} bits");
    }

    #[test]
    fn relu_op_counts_are_the_executed_operations() {
        // The analytic mirror against the evaluator, form by form:
        // key switches executed = relinearisations counted (fewer than
        // the products), transform passes executed = `ntts`.
        use crate::cost::relu_op_counts;
        use crate::ntt::NTT_PASSES;
        let params = CkksParams::toy();
        let (pe, mut rng) = setup(21);
        let ct = pe.evaluator().encrypt_values(&[0.3, -0.6], &mut rng);
        for form in PafForm::all() {
            let paf = CompositePaf::from_form(form);
            let _ = pe.relu(&ct, &paf); // lazy relin keys
            let (passes, key_switches) = crate::par::with_thread_budget(1, || {
                NTT_PASSES.with(|c| c.set(0));
                crate::cipher::take_key_switch_counts();
                std::hint::black_box(pe.relu(&ct, &paf));
                (
                    NTT_PASSES.with(|c| c.get()),
                    crate::cipher::take_key_switch_counts(),
                )
            });
            let counts = relu_op_counts(&params, &paf);
            assert_eq!(key_switches, (counts.relins, counts.relins), "{form}");
            assert_eq!(passes, counts.ntts, "{form}");
            assert!(counts.relins <= counts.ct_mults, "{form}");
        }
    }
}
