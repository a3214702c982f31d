//! The unified polynomial-evaluation engine.
//!
//! Plaintext consumers of a [`Polynomial`] decide dense-vs-odd Horner
//! once, behind a prepared plan, instead of at each call site:
//!
//! - [`EvalPlan`] names the backend: Horner over the dense
//!   coefficients, or Horner in `y = x²` over the packed odd ones.
//!   [`EvalPlan::select`] picks one from the polynomial's symmetry.
//!   Every PAF stage has degree ≤ 27 (≤ 14 packed odd coefficients),
//!   where Horner's short chain is all a stage needs.
//! - [`PolyEval`] packs the coefficient vector once (odd coefficients
//!   extracted up front for odd functions) and offers scalar
//!   ([`PolyEval::eval`]) and batch ([`PolyEval::eval_slice`])
//!   evaluation. The batch path runs a fixed-width lane loop, so
//!   per-element dependency chains interleave across `LANES` explicit
//!   accumulators.
//! - [`OddPowerSchedule`] is the ciphertext-side twin: the packed odd
//!   coefficients plus the even-power-ladder shape that
//!   `smartpaf-ckks`'s `PafEvaluator` and cost model both consume.
//! - [`CompositeEval`] prepares one plan per stage of a
//!   [`CompositePaf`] and exposes composite / ReLU / max evaluation
//!   over scalars and slices.

use crate::composite::CompositePaf;
use crate::poly::Polynomial;

/// Width of the batch lane loop in [`PolyEval::eval_slice`]. Eight
/// independent accumulators are enough for the FMA latency×throughput
/// product on current x86/aarch64 cores.
const LANES: usize = 8;

/// The evaluation strategy a [`PolyEval`] was prepared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPlan {
    /// Horner over the full ascending coefficient vector.
    DenseHorner,
    /// Horner in `y = x²` over the packed odd coefficients, then one
    /// multiply by `x`. Roughly halves the multiply count for the
    /// odd sign bases (paper App. B).
    OddHorner,
}

impl EvalPlan {
    /// Picks the backend for a polynomial: odd non-constant functions
    /// use the packed-odd plan, everything else dense Horner.
    pub fn select(p: &Polynomial) -> EvalPlan {
        if p.is_odd_function() && p.degree() >= 1 {
            EvalPlan::OddHorner
        } else {
            EvalPlan::DenseHorner
        }
    }

    /// True for the plan that evaluates in `y = x²` over packed odd
    /// coefficients.
    pub fn is_odd(self) -> bool {
        self == EvalPlan::OddHorner
    }
}

/// A prepared evaluation plan for one polynomial: coefficients packed
/// once, backend fixed, no per-call allocation.
///
/// # Example
///
/// ```
/// use smartpaf_polyfit::{EvalPlan, PolyEval, Polynomial};
///
/// let p = Polynomial::from_odd(&[1.5, -0.5]); // f1
/// let pe = PolyEval::new(&p);
/// assert_eq!(pe.plan(), EvalPlan::OddHorner);
/// assert_eq!(pe.eval(1.0), 1.0);
///
/// let xs = [-1.0, 0.0, 0.5, 1.0];
/// let mut out = [0.0; 4];
/// pe.eval_slice(&xs, &mut out);
/// assert_eq!(out[3], 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PolyEval {
    /// Dense ascending coefficients, or odd-packed (`packed[i]`
    /// multiplies `x^(2i+1)`) for the odd plan.
    packed: Vec<f64>,
    plan: EvalPlan,
    degree: usize,
}

impl PolyEval {
    /// Prepares a polynomial with the auto-selected plan.
    pub fn new(p: &Polynomial) -> Self {
        Self::with_plan(p, EvalPlan::select(p))
    }

    /// Prepares a polynomial with an explicit plan.
    ///
    /// # Panics
    ///
    /// Panics if the odd plan is requested for a non-odd polynomial.
    pub fn with_plan(p: &Polynomial, plan: EvalPlan) -> Self {
        let packed = if plan.is_odd() {
            assert!(
                p.is_odd_function(),
                "odd evaluation plan on a non-odd polynomial"
            );
            p.odd_coeffs()
        } else {
            p.coeffs().to_vec()
        };
        PolyEval {
            packed,
            plan,
            degree: p.degree(),
        }
    }

    /// The backend this plan was prepared with.
    pub fn plan(&self) -> EvalPlan {
        self.plan
    }

    /// Degree of the prepared polynomial.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Evaluates at one point.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        match self.plan {
            EvalPlan::DenseHorner => horner(&self.packed, x),
            EvalPlan::OddHorner => horner(&self.packed, x * x) * x,
        }
    }

    /// Batch evaluation: `out[i] = p(xs[i])`.
    ///
    /// Both backends run the same fixed-width lane loop: `LANES`
    /// independent accumulators per chunk so the per-element
    /// dependency chains overlap (explicit-lane code on stable Rust —
    /// no `std::simd`). Each lane executes the scalar backend's exact
    /// operation sequence, so batch output is bit-identical to
    /// [`PolyEval::eval`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn eval_slice(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "eval_slice length mismatch");
        match self.plan {
            EvalPlan::DenseHorner => {
                lanes(
                    xs,
                    out,
                    |x| horner(&self.packed, x),
                    |lane| {
                        let mut acc = [0.0; LANES];
                        for &c in self.packed.iter().rev() {
                            for (a, &x) in acc.iter_mut().zip(lane) {
                                *a = *a * x + c;
                            }
                        }
                        acc
                    },
                );
            }
            EvalPlan::OddHorner => {
                lanes(
                    xs,
                    out,
                    |x| horner(&self.packed, x * x) * x,
                    |lane| {
                        let mut y = [0.0; LANES];
                        for (yi, &x) in y.iter_mut().zip(lane) {
                            *yi = x * x;
                        }
                        let mut acc = [0.0; LANES];
                        for &c in self.packed.iter().rev() {
                            for (a, &yi) in acc.iter_mut().zip(&y) {
                                *a = *a * yi + c;
                            }
                        }
                        for (a, &x) in acc.iter_mut().zip(lane) {
                            *a *= x;
                        }
                        acc
                    },
                );
            }
        }
    }

    /// In-place batch evaluation: `xs[i] = p(xs[i])`.
    pub fn eval_slice_in_place(&self, xs: &mut [f64]) {
        // Each output depends only on its own input, so staging through
        // a fixed stack buffer keeps this allocation-free while still
        // hitting eval_slice's lane loop.
        const STAGE: usize = 8 * LANES;
        let mut staged = [0.0; STAGE];
        let mut i = 0;
        while i < xs.len() {
            let end = (i + STAGE).min(xs.len());
            let n = end - i;
            self.eval_slice(&xs[i..end], &mut staged[..n]);
            xs[i..end].copy_from_slice(&staged[..n]);
            i = end;
        }
    }

    /// Allocating convenience wrapper over [`PolyEval::eval_slice`].
    pub fn eval_vec(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; xs.len()];
        self.eval_slice(xs, &mut out);
        out
    }
}

/// Horner over an ascending packed coefficient slice — an index-free
/// reverse walk, no iterator adaptors.
///
/// Deliberately seeds the accumulator with `0.0` and walks the whole
/// slice: the uniform loop optimises measurably better than a
/// peel-the-top-coefficient variant (benchmarked at ~2x on the deg-7
/// scalar path), at the cost of one bootstrap `0·x` fma.
#[inline]
fn horner(packed: &[f64], x: f64) -> f64 {
    let mut acc = 0.0;
    for &c in packed.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

/// Runs `f` over full [`LANES`]-wide chunks and `tail` over the rest.
#[inline]
fn lanes(
    xs: &[f64],
    out: &mut [f64],
    mut tail: impl FnMut(f64) -> f64,
    mut f: impl FnMut(&[f64; LANES]) -> [f64; LANES],
) {
    let mut chunks_out = out.chunks_exact_mut(LANES);
    let mut chunks_in = xs.chunks_exact(LANES);
    for (o, i) in chunks_out.by_ref().zip(chunks_in.by_ref()) {
        let lane: &[f64; LANES] = i.try_into().expect("exact chunk");
        o.copy_from_slice(&f(lane));
    }
    for (o, &x) in chunks_out
        .into_remainder()
        .iter_mut()
        .zip(chunks_in.remainder())
    {
        *o = tail(x);
    }
}

/// The even-power-ladder schedule the CKKS `PafEvaluator` executes for
/// one odd stage: packed odd coefficients plus the ladder shape. Owning
/// this here keeps the ciphertext evaluator, the analytic cost model,
/// and the plaintext engine agreeing on one schedule.
#[derive(Debug, Clone)]
pub struct OddPowerSchedule {
    odd: Vec<f64>,
    ladder_bits: u32,
}

impl OddPowerSchedule {
    /// Builds the schedule for one odd stage.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not an odd function or is constant.
    pub fn new(p: &Polynomial) -> Self {
        assert!(p.is_odd_function(), "stage must be odd");
        let odd = p.odd_coeffs();
        assert!(!odd.is_empty(), "constant stage");
        let k_max = odd.len() - 1;
        let ladder_bits = if k_max == 0 {
            0
        } else {
            usize::BITS - k_max.leading_zeros()
        };
        OddPowerSchedule { odd, ladder_bits }
    }

    /// Packed odd coefficients `[a0, a1, ...]` (`a_k` multiplies
    /// `x^(2k+1)`).
    pub fn odd_coeffs(&self) -> &[f64] {
        &self.odd
    }

    /// Highest packed index `k_max`.
    pub fn k_max(&self) -> usize {
        self.odd.len() - 1
    }

    /// Squarings in the even power ladder (`x² … x^(2^bits)`).
    pub fn ladder_bits(&self) -> u32 {
        self.ladder_bits
    }

    /// Exact ciphertext-ciphertext multiplication count of the ladder
    /// schedule — tensor products: every ladder squaring, plus one
    /// product per set bit of each non-zero term's packed index.
    pub fn exact_ct_mults(&self) -> usize {
        self.ladder_bits as usize + self.term_products().sum::<usize>()
    }

    /// Exact relinearisation count of the same schedule: every ladder
    /// squaring and every term product but each term's last, which
    /// stays in degree-2 form — the stage sums those and relinearises
    /// the sum once.
    pub fn exact_relins(&self) -> usize {
        let inner: usize = self.term_products().map(|products| products - 1).sum();
        self.ladder_bits as usize + inner + usize::from(self.term_products().next().is_some())
    }

    /// Products in the chain of each non-zero term `k ≥ 1`.
    fn term_products(&self) -> impl Iterator<Item = usize> + '_ {
        let terms = self.odd.iter().enumerate().skip(1);
        terms
            .filter(|(_, &a)| a != 0.0)
            .map(|(k, _)| k.count_ones() as usize)
    }
}

/// A prepared evaluator for a whole [`CompositePaf`]: one [`PolyEval`]
/// per stage, plus the sign → ReLU / max constructions over scalars and
/// slices.
///
/// # Example
///
/// ```
/// use smartpaf_polyfit::{CompositeEval, CompositePaf, PafForm};
///
/// let paf = CompositePaf::from_form(PafForm::F1G2);
/// let eng = CompositeEval::new(&paf);
/// assert!((eng.eval(0.5) - paf.eval(0.5)).abs() < 1e-15);
/// let mut out = [0.0; 2];
/// eng.relu_slice(&[-0.5, 0.5], &mut out);
/// assert!(out[0].abs() < 0.05 && (out[1] - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct CompositeEval {
    stages: Vec<PolyEval>,
    /// One ciphertext-side schedule per odd non-constant stage (`None`
    /// for stages the even-power ladder cannot express), prepared once
    /// so cost oracles pay no per-query schedule construction.
    schedules: Vec<Option<OddPowerSchedule>>,
}

impl CompositeEval {
    /// Prepares every stage of a composite.
    pub fn new(paf: &CompositePaf) -> Self {
        CompositeEval {
            stages: paf.stages().iter().map(PolyEval::new).collect(),
            schedules: paf
                .stages()
                .iter()
                .map(|p| (p.is_odd_function() && p.degree() >= 1).then(|| OddPowerSchedule::new(p)))
                .collect(),
        }
    }

    /// The prepared per-stage plans.
    pub fn stages(&self) -> &[PolyEval] {
        &self.stages
    }

    /// The prepared ciphertext-side schedules, parallel to
    /// [`CompositeEval::stages`].
    pub fn schedules(&self) -> &[Option<OddPowerSchedule>] {
        &self.schedules
    }

    /// Exact ciphertext-ciphertext multiplications of one composite
    /// (sign) evaluation under the even-power-ladder schedule — the sum
    /// of [`OddPowerSchedule::exact_ct_mults`] over the stages.
    pub fn exact_ct_mults(&self) -> usize {
        self.schedules
            .iter()
            .flatten()
            .map(OddPowerSchedule::exact_ct_mults)
            .sum()
    }

    /// Exact relinearisations of one composite (sign) evaluation
    /// ([`OddPowerSchedule::exact_relins`] summed): fewer than
    /// [`CompositeEval::exact_ct_mults`], a stage relinearising the
    /// sum of its terms once.
    pub fn exact_relins(&self) -> usize {
        self.schedules
            .iter()
            .flatten()
            .map(OddPowerSchedule::exact_relins)
            .sum()
    }

    /// Composite sign approximation at one point.
    pub fn eval(&self, x: f64) -> f64 {
        self.stages.iter().fold(x, |acc, s| s.eval(acc))
    }

    /// Batch composite evaluation, stage by stage over the buffer.
    pub fn eval_slice(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "eval_slice length mismatch");
        out.copy_from_slice(xs);
        for stage in &self.stages {
            stage.eval_slice_in_place(out);
        }
    }

    /// ReLU approximation `(x + x·paf(x))/2` at one point.
    pub fn relu(&self, x: f64) -> f64 {
        (x + x * self.eval(x)) / 2.0
    }

    /// Batch ReLU: `out[i] = (x + x·paf(x))/2` for `x = xs[i]`.
    pub fn relu_slice(&self, xs: &[f64], out: &mut [f64]) {
        self.eval_slice(xs, out);
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = (x + x * *o) / 2.0;
        }
    }

    /// Max approximation `((x+y) + (x−y)·paf(x−y))/2` at one point.
    pub fn max(&self, x: f64, y: f64) -> f64 {
        ((x + y) + (x - y) * self.eval(x - y)) / 2.0
    }

    /// Batch max over paired slices.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn max_slice(&self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), ys.len(), "max_slice length mismatch");
        let diffs: Vec<f64> = xs.iter().zip(ys).map(|(&x, &y)| x - y).collect();
        self.eval_slice(&diffs, out);
        for i in 0..out.len() {
            out[i] = ((xs[i] + ys[i]) + diffs[i] * out[i]) / 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::PafForm;
    use crate::paper_coeffs;

    fn naive_eval(p: &Polynomial, x: f64) -> f64 {
        p.coeffs()
            .iter()
            .enumerate()
            .map(|(i, &c)| c * x.powi(i as i32))
            .sum()
    }

    #[test]
    fn plan_selection_by_symmetry_and_degree() {
        let f1 = Polynomial::from_odd(&[1.5, -0.5]);
        assert_eq!(EvalPlan::select(&f1), EvalPlan::OddHorner);
        let deg27 = Polynomial::from_odd(&[1.0; 14]);
        assert_eq!(EvalPlan::select(&deg27), EvalPlan::OddHorner);
        // Symmetry alone decides: no degree moves the plan off Horner.
        let deg_odd_huge = Polynomial::from_odd(&[1.0; 64]);
        assert_eq!(EvalPlan::select(&deg_odd_huge), EvalPlan::OddHorner);
        let dense7 = Polynomial::new(vec![1.0; 8]);
        assert_eq!(EvalPlan::select(&dense7), EvalPlan::DenseHorner);
        let dense160 = Polynomial::new(vec![1.0; 160]);
        assert_eq!(EvalPlan::select(&dense160), EvalPlan::DenseHorner);
        // Constants (the zero polynomial included) are never odd plans.
        assert_eq!(EvalPlan::select(&Polynomial::zero()), EvalPlan::DenseHorner);
    }

    #[test]
    fn every_paf_stage_takes_odd_horner() {
        let per_layer = (0..paper_coeffs::RESNET18_RELU_LAYERS).flat_map(|l| {
            [
                paper_coeffs::f1g2_layer(l),
                paper_coeffs::f1sq_g1sq_layer(l),
                paper_coeffs::f2g3_layer(l),
                paper_coeffs::f2g2_layer(l),
            ]
        });
        let composites = PafForm::all()
            .into_iter()
            .map(CompositePaf::from_form)
            .chain(per_layer)
            .chain([paper_coeffs::alpha7_paf()]);
        for paf in composites {
            for stage in paf.prepare().stages() {
                assert_eq!(stage.plan(), EvalPlan::OddHorner, "{paf:?}");
            }
        }
    }

    #[test]
    fn all_backends_agree_on_odd_poly() {
        // The second input zeroes the top odd coefficient without
        // trimming it: the packed walk must still read it as zero.
        let mut zeroed_top = Polynomial::from_odd(&[1.5, -0.5]);
        zeroed_top.coeffs_mut()[3] = 0.0;
        let p = Polynomial::from_odd(&[7.3, -34.7, 59.9, -31.9]);
        for p in [&p, &zeroed_top] {
            for plan in [EvalPlan::DenseHorner, EvalPlan::OddHorner] {
                let pe = PolyEval::with_plan(p, plan);
                for i in -20..=20 {
                    let x = i as f64 / 10.0;
                    let want = naive_eval(p, x);
                    let got = pe.eval(x);
                    assert!(
                        (got - want).abs() < 1e-9 * (1.0 + want.abs()),
                        "{plan:?} at {x}: {got} vs {want}"
                    );
                }
            }
        }
        let pe = PolyEval::with_plan(&zeroed_top, EvalPlan::OddHorner);
        assert!((pe.eval(0.5) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn eval_slice_matches_scalar_across_lane_boundaries() {
        // Lengths straddling the lane width exercise both the chunk
        // loop and the remainder loop.
        let p = Polynomial::from_odd(&[2.4, -2.63, 1.55, -0.33]);
        let pe = PolyEval::new(&p);
        for len in [0, 1, 7, 8, 9, 16, 31] {
            let xs: Vec<f64> = (0..len).map(|i| i as f64 / 16.0 - 0.9).collect();
            let mut out = vec![0.0; len];
            pe.eval_slice(&xs, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, pe.eval(x), "len {len}, x {x}");
            }
        }
    }

    #[test]
    fn lane_backends_bit_identical_to_scalar() {
        // The explicit-lane Horner chunks must reproduce the scalar
        // backends exactly (same per-element operation order), across
        // chunk and remainder paths, at long coefficient vectors too.
        let odd_big =
            Polynomial::from_odd(&(0..40).map(|i| 0.01 * i as f64 - 0.2).collect::<Vec<_>>());
        let dense_big = Polynomial::new(
            (0..160)
                .map(|i| ((i * 37) % 19) as f64 / 19.0 - 0.5)
                .collect(),
        );
        for (p, plan) in [
            (&odd_big, EvalPlan::OddHorner),
            (&odd_big, EvalPlan::DenseHorner),
            (&dense_big, EvalPlan::DenseHorner),
        ] {
            let pe = PolyEval::with_plan(p, plan);
            for len in [1, 7, 8, 9, 16, 23, 64] {
                let xs: Vec<f64> = (0..len).map(|i| i as f64 / len as f64 - 0.45).collect();
                let mut out = vec![0.0; len];
                pe.eval_slice(&xs, &mut out);
                for (&x, &o) in xs.iter().zip(&out) {
                    assert_eq!(o, pe.eval(x), "{plan:?} len {len}, x {x}");
                }
            }
        }
    }

    #[test]
    fn eval_slice_in_place_matches() {
        let p = Polynomial::new(vec![0.5, -1.0, 0.25, 2.0, -0.125]);
        let pe = PolyEval::new(&p);
        let xs: Vec<f64> = (0..37).map(|i| i as f64 / 18.0 - 1.0).collect();
        let mut buf = xs.clone();
        pe.eval_slice_in_place(&mut buf);
        for (&x, &b) in xs.iter().zip(&buf) {
            assert_eq!(b, pe.eval(x));
        }
    }

    #[test]
    fn odd_power_schedule_counts() {
        let deg7 = Polynomial::from_odd(&[7.3, -34.7, 59.9, -31.9]);
        let s = OddPowerSchedule::new(&deg7);
        assert_eq!(s.k_max(), 3);
        assert_eq!(s.ladder_bits(), 2);
        // Exact ladder: 2 squarings + popcounts(1,2,3 -> 1+1+2) + k=0 free.
        assert_eq!(s.exact_ct_mults(), 6);
        // Two of the six are ladder squarings and one is the inner
        // product of k = 3; the three terms' last products share a key
        // switch.
        assert_eq!(s.exact_relins(), 4);
        let g2 = OddPowerSchedule::new(&Polynomial::from_odd(&[2.0, -1.5, 0.4]));
        assert_eq!((g2.exact_ct_mults(), g2.exact_relins()), (4, 3));
        // x^5-only stage: ladder 2, single term popcount(2) = 1 — and
        // a lone product has nothing to share its key switch with.
        let sparse = OddPowerSchedule::new(&Polynomial::from_odd(&[0.0, 0.0, 1.0]));
        assert_eq!(sparse.exact_ct_mults(), 3);
        assert_eq!(sparse.exact_relins(), 3);
        // Degree-1 stage needs no ladder at all.
        let lin = OddPowerSchedule::new(&Polynomial::from_odd(&[2.0]));
        assert_eq!(lin.ladder_bits(), 0);
        assert_eq!(lin.exact_ct_mults(), 0);
        assert_eq!(lin.exact_relins(), 0);
    }

    #[test]
    fn composite_eval_schedule_accessors() {
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let eng = CompositeEval::new(&paf);
        assert_eq!(eng.schedules().len(), eng.stages().len());
        assert!(eng.schedules().iter().all(Option::is_some));
        let exact: usize = paf
            .stages()
            .iter()
            .map(|p| OddPowerSchedule::new(p).exact_ct_mults())
            .sum();
        assert_eq!(eng.exact_ct_mults(), exact);
        let relins: usize = paf
            .stages()
            .iter()
            .map(|p| OddPowerSchedule::new(p).exact_relins())
            .sum();
        assert_eq!(eng.exact_relins(), relins);
        assert!(relins < exact);
    }

    #[test]
    fn composite_eval_matches_unprepared() {
        for form in PafForm::all() {
            let paf = CompositePaf::from_form(form);
            let eng = CompositeEval::new(&paf);
            for i in -8..=8 {
                let x = i as f64 / 8.0;
                assert!((eng.eval(x) - paf.eval(x)).abs() < 1e-12, "{form} at {x}");
                assert!((eng.relu(x) - paf.relu(x)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn composite_slices_match_scalars() {
        let paf = CompositePaf::from_form(PafForm::F1SqG1Sq);
        let eng = CompositeEval::new(&paf);
        let xs: Vec<f64> = (0..41).map(|i| i as f64 / 20.0 - 1.0).collect();
        let ys: Vec<f64> = xs.iter().rev().copied().collect();
        let mut sign = vec![0.0; xs.len()];
        let mut relu = vec![0.0; xs.len()];
        let mut max = vec![0.0; xs.len()];
        eng.eval_slice(&xs, &mut sign);
        eng.relu_slice(&xs, &mut relu);
        eng.max_slice(&xs, &ys, &mut max);
        for i in 0..xs.len() {
            assert_eq!(sign[i], eng.eval(xs[i]));
            assert_eq!(relu[i], eng.relu(xs[i]));
            assert_eq!(max[i], eng.max(xs[i], ys[i]));
        }
    }

    #[test]
    #[should_panic(expected = "non-odd")]
    fn odd_plan_rejects_dense_poly() {
        let _ = PolyEval::with_plan(&Polynomial::new(vec![1.0, 1.0]), EvalPlan::OddHorner);
    }

    #[test]
    fn zero_and_constant_polynomials() {
        let zero = Polynomial::zero();
        for plan in [EvalPlan::DenseHorner, EvalPlan::OddHorner] {
            let pe = PolyEval::with_plan(&zero, plan);
            assert_eq!(pe.eval(3.0), 0.0);
            assert_eq!(pe.eval(0.7), 0.0);
            assert_eq!(pe.eval_vec(&[0.7; 9]), vec![0.0; 9]);
        }
        let c = Polynomial::new(vec![4.25]);
        assert_eq!(PolyEval::new(&c).eval(-2.0), 4.25);
    }
}
