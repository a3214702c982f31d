//! The unified polynomial-evaluation engine.
//!
//! Every plaintext consumer of a [`Polynomial`] used to re-decide
//! dense-vs-odd Horner at each call site (and the odd path paid a
//! `skip(1).step_by(2).rev()` iterator chain per call). This module
//! centralises that decision behind a prepared plan:
//!
//! - [`EvalPlan`] names the backend: dense or odd-packed Horner,
//!   Estrin's log-depth splitting, or Paterson–Stockmeyer baby/giant
//!   steps. [`EvalPlan::select`] picks one from the polynomial's
//!   symmetry and degree.
//! - [`PolyEval`] packs the coefficient vector once (odd coefficients
//!   extracted up front for odd functions) and offers scalar
//!   ([`PolyEval::eval`]) and batch ([`PolyEval::eval_slice`])
//!   evaluation. The batch path runs a fixed-width lane loop — for
//!   every backend, Horner and Estrin / Paterson–Stockmeyer alike — so
//!   per-element dependency chains interleave across `LANES`
//!   explicit accumulators.
//! - [`OddPowerSchedule`] is the ciphertext-side twin: the packed odd
//!   coefficients plus the even-power-ladder shape that
//!   `smartpaf-ckks`'s `PafEvaluator` and cost model both consume.
//! - [`CompositeEval`] prepares one plan per stage of a
//!   [`CompositePaf`] and exposes composite / ReLU / max evaluation
//!   over scalars and slices.

use crate::composite::CompositePaf;
use crate::poly::Polynomial;
use crate::ps::ps_plan;

/// Width of the batch lane loop in [`PolyEval::eval_slice`]. Eight
/// independent accumulators are enough for the FMA latency×throughput
/// product on current x86/aarch64 cores.
const LANES: usize = 8;

/// Packed length at which Estrin's shorter dependency chain starts to
/// pay for its extra squarings on the odd path. Re-calibrated for the
/// explicit-lane batch loop (`calibrate_thresholds` harness, x86-64):
/// eight interleaved Horner chains hide FMA latency so thoroughly that
/// batched Horner beats batched Estrin at every measured size, and
/// scalar Horner holds through packed 48 (33 vs 37 ns/point). From
/// packed 64 the scalar chain's latency dominates (Estrin 42 vs Horner
/// 53 ns/point), so the odd plans switch there. Every PAF stage in the
/// paper stays far below this (packed ≤ 14).
const ESTRIN_MIN_PACKED: usize = 64;

/// Packed length at which Paterson–Stockmeyer's baby/giant blocks take
/// over on the dense path. Re-calibrated alongside the lane loop: PS
/// wins batch from packed 64 (12.2 vs Horner 13.4 / Estrin 17.5
/// ns/point) and scalar from 96, so dense selection now goes straight
/// Horner → PS and `DenseEstrin` remains an explicit-plan backend only
/// (the lane interleave subsumes its depth advantage below 64, PS wins
/// above).
const PS_MIN_PACKED: usize = 64;

/// The evaluation strategy a [`PolyEval`] was prepared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPlan {
    /// Horner over the full ascending coefficient vector.
    DenseHorner,
    /// Horner in `y = x²` over the packed odd coefficients, then one
    /// multiply by `x`. Roughly halves the multiply count for the
    /// odd sign bases (paper App. B).
    OddHorner,
    /// Estrin's scheme over the full coefficient vector: pairwise
    /// combine with `x`, `x²`, `x⁴`, … in `ceil(log2(n))` rounds.
    DenseEstrin,
    /// Estrin's scheme in `y = x²` over the packed odd coefficients.
    OddEstrin,
    /// Paterson–Stockmeyer baby-step/giant-step blocks over the full
    /// coefficient vector (the schedule [`crate::ps_plan`] describes).
    DensePs,
}

impl EvalPlan {
    /// Picks the backend for a polynomial: odd functions use the
    /// packed-odd plans, and Estrin / Paterson–Stockmeyer take over
    /// from Horner once the packed vector grows past the latency
    /// break-even points.
    pub fn select(p: &Polynomial) -> EvalPlan {
        let odd = p.is_odd_function() && p.degree() >= 1;
        let packed = if odd {
            p.degree().div_ceil(2)
        } else {
            p.degree() + 1
        };
        match (odd, packed) {
            (true, n) if n < ESTRIN_MIN_PACKED => EvalPlan::OddHorner,
            (true, _) => EvalPlan::OddEstrin,
            (false, n) if n < PS_MIN_PACKED => EvalPlan::DenseHorner,
            (false, _) => EvalPlan::DensePs,
        }
    }

    /// True for the plans that evaluate in `y = x²` over packed odd
    /// coefficients.
    pub fn is_odd(self) -> bool {
        matches!(self, EvalPlan::OddHorner | EvalPlan::OddEstrin)
    }
}

/// A prepared evaluation plan for one polynomial: coefficients packed
/// once, backend fixed, no per-call allocation on the Horner paths.
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
    /// multiplies `x^(2i+1)`) for the odd plans.
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
    /// Panics if an odd plan is requested for a non-odd polynomial.
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

    /// The packed coefficient vector (dense ascending, or odd-packed
    /// for the odd plans).
    pub fn packed_coeffs(&self) -> &[f64] {
        &self.packed
    }

    /// `f64` multiplications one scalar evaluation executes — the
    /// plaintext cost model the micro-benchmarks assert against. The
    /// Horner counts include the bootstrap `0·x` fma the uniform
    /// internal Horner loop performs (one per chain), so the model
    /// matches the instruction stream, not the algebraic minimum.
    pub fn mults_per_eval(&self) -> usize {
        let n = self.packed.len();
        match self.plan {
            EvalPlan::DenseHorner => n,
            // x·x, Horner in y (n fmas), final ·x.
            EvalPlan::OddHorner => {
                if n == 0 {
                    0
                } else {
                    1 + n + 1
                }
            }
            EvalPlan::DenseEstrin => estrin_mults(n),
            EvalPlan::OddEstrin => {
                if n == 0 {
                    0
                } else {
                    1 + estrin_mults(n) + 1
                }
            }
            EvalPlan::DensePs => {
                if n <= 1 {
                    0
                } else {
                    let plan = ps_plan(n - 1);
                    // Baby powers + x^k, one mult per coefficient term,
                    // one per giant Horner step.
                    plan.block + (n - plan.blocks) + plan.blocks.saturating_sub(1)
                }
            }
        }
    }

    /// Evaluates at one point.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        match self.plan {
            EvalPlan::DenseHorner => horner(&self.packed, x),
            EvalPlan::OddHorner => horner(&self.packed, x * x) * x,
            EvalPlan::DenseEstrin => estrin(&self.packed, x),
            EvalPlan::OddEstrin => estrin(&self.packed, x * x) * x,
            EvalPlan::DensePs => ps_packed(&self.packed, x),
        }
    }

    /// Batch evaluation: `out[i] = p(xs[i])`.
    ///
    /// Every backend runs the same fixed-width lane loop: `LANES`
    /// independent accumulator arrays per chunk so the per-element
    /// dependency chains overlap (explicit-lane code on stable Rust —
    /// no `std::simd`). The Estrin backends reuse one array-of-lanes
    /// scratch buffer across the whole slice. Each lane executes the
    /// scalar backend's exact operation sequence, so batch output is
    /// bit-identical to [`PolyEval::eval`] per element.
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
            EvalPlan::DenseEstrin => {
                let mut wide = vec![[0.0; LANES]; self.packed.len()];
                let mut scratch = vec![0.0; self.packed.len()];
                lanes(
                    xs,
                    out,
                    |x| estrin_with(&self.packed, x, &mut scratch),
                    |lane| estrin_lanes(&self.packed, lane, &mut wide),
                );
            }
            EvalPlan::OddEstrin => {
                let mut wide = vec![[0.0; LANES]; self.packed.len()];
                let mut scratch = vec![0.0; self.packed.len()];
                lanes(
                    xs,
                    out,
                    |x| estrin_with(&self.packed, x * x, &mut scratch) * x,
                    |lane| {
                        let mut y = [0.0; LANES];
                        for (yi, &x) in y.iter_mut().zip(lane) {
                            *yi = x * x;
                        }
                        let mut acc = estrin_lanes(&self.packed, &y, &mut wide);
                        for (a, &x) in acc.iter_mut().zip(lane) {
                            *a *= x;
                        }
                        acc
                    },
                );
            }
            EvalPlan::DensePs => {
                lanes(
                    xs,
                    out,
                    |x| ps_packed(&self.packed, x),
                    |lane| ps_lanes(&self.packed, lane),
                );
            }
        }
    }

    /// In-place batch evaluation: `xs[i] = p(xs[i])`.
    pub fn eval_slice_in_place(&self, xs: &mut [f64]) {
        // Each output depends only on its own input, so staging through
        // a fixed stack buffer keeps this allocation-free on the Horner
        // paths while still hitting eval_slice's lane loop; the buffer
        // spans several lane widths so the Estrin backends amortise
        // their scratch allocation too.
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
/// scalar path), at the cost of one bootstrap `0·x` fma that
/// [`PolyEval::mults_per_eval`] counts as executed.
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

/// Estrin evaluation without heap traffic: scalar calls stage through a
/// stack buffer up to degree 63 and only spill to the heap beyond.
#[inline]
fn estrin(packed: &[f64], x: f64) -> f64 {
    if packed.len() <= 64 {
        let mut scratch = [0.0; 64];
        estrin_with(packed, x, &mut scratch)
    } else {
        let mut scratch = vec![0.0; packed.len()];
        estrin_with(packed, x, &mut scratch)
    }
}

/// Estrin evaluation reusing `scratch` (`scratch.len() >= packed.len()`).
fn estrin_with(packed: &[f64], x: f64, scratch: &mut [f64]) -> f64 {
    match packed.len() {
        0 => return 0.0,
        1 => return packed[0],
        _ => {}
    }
    let mut len = packed.len();
    scratch[..len].copy_from_slice(packed);
    let mut p = x;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            scratch[i] = scratch[2 * i] + scratch[2 * i + 1] * p;
        }
        if len % 2 == 1 {
            scratch[half] = scratch[len - 1];
        }
        len = half + len % 2;
        if len > 1 {
            p *= p; // next round's power; skipped once reduced to one value
        }
    }
    scratch[0]
}

/// Estrin reduction over [`LANES`] points at once. `wide` is the
/// array-of-lanes scratch (`wide.len() >= packed.len()`), reused across
/// the whole slice. Per element this performs exactly the operation
/// sequence of [`estrin_with`], so batch results stay bit-identical to
/// the scalar path; the lane structure exists purely so the compiler
/// can keep [`LANES`] independent reductions in flight (auto-vectorised
/// on stable Rust, no `std::simd`).
fn estrin_lanes(packed: &[f64], lane: &[f64; LANES], wide: &mut [[f64; LANES]]) -> [f64; LANES] {
    match packed.len() {
        0 => return [0.0; LANES],
        1 => return [packed[0]; LANES],
        _ => {}
    }
    let mut len = packed.len();
    for (w, &c) in wide.iter_mut().zip(packed) {
        *w = [c; LANES];
    }
    let mut p = *lane;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let lo = wide[2 * i];
            let hi = wide[2 * i + 1];
            let dst = &mut wide[i];
            for l in 0..LANES {
                dst[l] = lo[l] + hi[l] * p[l];
            }
        }
        if len % 2 == 1 {
            wide[half] = wide[len - 1];
        }
        len = half + len % 2;
        if len > 1 {
            for pl in &mut p {
                *pl *= *pl;
            }
        }
    }
    wide[0]
}

/// Multiplications one Estrin reduction of `n` packed coefficients
/// performs (pair combines + power squarings).
fn estrin_mults(n: usize) -> usize {
    let mut len = n;
    let mut mults = 0;
    while len > 1 {
        mults += len / 2; // pair combines
        len = len / 2 + len % 2;
        if len > 1 {
            mults += 1; // next power squaring
        }
    }
    mults
}

/// Paterson–Stockmeyer over a dense ascending coefficient slice. Baby
/// powers live on the stack up to degree 255 (block ≈ sqrt(d+1) ≤ 16).
fn ps_packed(coeffs: &[f64], x: f64) -> f64 {
    let d = coeffs.len() - 1;
    if d == 0 {
        return coeffs[0];
    }
    let plan = ps_plan(d);
    let k = plan.block;
    let mut baby_stack = [1.0; 16];
    let mut baby_heap;
    let baby: &mut [f64] = if k <= 16 {
        &mut baby_stack[..k]
    } else {
        baby_heap = vec![1.0; k];
        &mut baby_heap
    };
    for i in 1..k {
        baby[i] = baby[i - 1] * x;
    }
    let xk = baby[k - 1] * x;
    // baby[0] is 1, so each block's lowest coefficient needs no
    // multiply, and the top block seeds the giant-step Horner without
    // the zero-accumulator product — this is exactly the multiply
    // count `mults_per_eval` models for `DensePs`.
    let block_val = |blk: usize| {
        let start = blk * k;
        let mut v = coeffs[start];
        for (i, &pow) in baby.iter().enumerate().skip(1) {
            if let Some(&c) = coeffs.get(start + i) {
                v += c * pow;
            }
        }
        v
    };
    let top = plan.blocks - 1;
    let mut acc = block_val(top);
    for blk in (0..top).rev() {
        acc = acc * xk + block_val(blk);
    }
    acc
}

/// Paterson–Stockmeyer over [`LANES`] points at once: the baby-power
/// table holds one [`LANES`]-wide row per power, and the giant-step
/// Horner runs all lanes in lockstep. Same per-element operation
/// sequence as [`ps_packed`], so results are bit-identical to scalar.
fn ps_lanes(coeffs: &[f64], lane: &[f64; LANES]) -> [f64; LANES] {
    let d = coeffs.len() - 1;
    if d == 0 {
        return [coeffs[0]; LANES];
    }
    let plan = ps_plan(d);
    let k = plan.block;
    let mut baby_stack = [[1.0; LANES]; 16];
    let mut baby_heap;
    let baby: &mut [[f64; LANES]] = if k <= 16 {
        &mut baby_stack[..k]
    } else {
        baby_heap = vec![[1.0; LANES]; k];
        &mut baby_heap
    };
    for i in 1..k {
        let prev = baby[i - 1];
        for l in 0..LANES {
            baby[i][l] = prev[l] * lane[l];
        }
    }
    let mut xk = [0.0; LANES];
    for l in 0..LANES {
        xk[l] = baby[k - 1][l] * lane[l];
    }
    let block_val = |blk: usize, baby: &[[f64; LANES]]| -> [f64; LANES] {
        let start = blk * k;
        let mut v = [coeffs[start]; LANES];
        for (i, pow) in baby.iter().enumerate().skip(1) {
            if let Some(&c) = coeffs.get(start + i) {
                for l in 0..LANES {
                    v[l] += c * pow[l];
                }
            }
        }
        v
    };
    let top = plan.blocks - 1;
    let mut acc = block_val(top, baby);
    for blk in (0..top).rev() {
        let bv = block_val(blk, baby);
        for l in 0..LANES {
            acc[l] = acc[l] * xk[l] + bv[l];
        }
    }
    acc
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

    /// The coarse non-scalar multiplication model used throughout the
    /// latency accounting (`CompositePaf::ct_mult_count`,
    /// `ps::squaring_schedule_mults`): one squaring plus one product
    /// per odd term beyond the first.
    pub fn modelled_ct_mults(&self) -> usize {
        let n_odd = self.odd.len();
        if n_odd <= 1 {
            0
        } else {
            n_odd
        }
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
/// let out = eng.relu_vec(&[-0.5, 0.5]);
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

    /// Coarse modelled ciphertext multiplications of one composite
    /// evaluation ([`OddPowerSchedule::modelled_ct_mults`] summed).
    pub fn modelled_ct_mults(&self) -> usize {
        self.schedules
            .iter()
            .flatten()
            .map(OddPowerSchedule::modelled_ct_mults)
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

    /// Allocating wrapper over [`CompositeEval::relu_slice`].
    pub fn relu_vec(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; xs.len()];
        self.relu_slice(xs, &mut out);
        out
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
    use crate::ps::squaring_schedule_mults;

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
        // Every PAF stage degree in the paper stays in Horner range.
        let deg27 = Polynomial::from_odd(&[1.0; 14]);
        assert_eq!(EvalPlan::select(&deg27), EvalPlan::OddHorner);
        // The lane loop keeps Horner ahead well past the old Estrin
        // break-even (packed 33); the switch now sits at packed 64.
        let deg_odd_40 = Polynomial::from_odd(&[1.0; 40]);
        assert_eq!(EvalPlan::select(&deg_odd_40), EvalPlan::OddHorner);
        let deg_odd_huge = Polynomial::from_odd(&[1.0; 64]);
        assert_eq!(EvalPlan::select(&deg_odd_huge), EvalPlan::OddEstrin);
        let dense7 = Polynomial::new(vec![1.0; 8]);
        assert_eq!(EvalPlan::select(&dense7), EvalPlan::DenseHorner);
        let dense48 = Polynomial::new(vec![1.0; 48]);
        assert_eq!(EvalPlan::select(&dense48), EvalPlan::DenseHorner);
        // Dense selection goes straight Horner → PS: the explicit-lane
        // batch loop subsumes Estrin's depth advantage below the PS
        // crossover, so DenseEstrin is explicit-plan-only now.
        let dense64 = Polynomial::new(vec![1.0; 64]);
        assert_eq!(EvalPlan::select(&dense64), EvalPlan::DensePs);
        let dense160 = Polynomial::new(vec![1.0; 160]);
        assert_eq!(EvalPlan::select(&dense160), EvalPlan::DensePs);
    }

    #[test]
    fn all_backends_agree_on_odd_poly() {
        let p = Polynomial::from_odd(&[7.3, -34.7, 59.9, -31.9]);
        for plan in [
            EvalPlan::DenseHorner,
            EvalPlan::OddHorner,
            EvalPlan::DenseEstrin,
            EvalPlan::OddEstrin,
            EvalPlan::DensePs,
        ] {
            let pe = PolyEval::with_plan(&p, plan);
            for i in -20..=20 {
                let x = i as f64 / 10.0;
                let want = naive_eval(&p, x);
                let got = pe.eval(x);
                assert!(
                    (got - want).abs() < 1e-9 * (1.0 + want.abs()),
                    "{plan:?} at {x}: {got} vs {want}"
                );
            }
        }
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
        // The explicit-lane Estrin / Paterson–Stockmeyer chunks must
        // reproduce the scalar backends exactly (same per-element
        // operation order), across chunk and remainder paths.
        let odd_big =
            Polynomial::from_odd(&(0..40).map(|i| 0.01 * i as f64 - 0.2).collect::<Vec<_>>());
        let dense_big = Polynomial::new(
            (0..160)
                .map(|i| ((i * 37) % 19) as f64 / 19.0 - 0.5)
                .collect(),
        );
        for (p, plan) in [
            (&odd_big, EvalPlan::OddEstrin),
            (&dense_big, EvalPlan::DenseEstrin),
            (&dense_big, EvalPlan::DensePs),
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
    fn odd_plan_halves_multiplies_vs_dense() {
        // The micro cost-model assertion behind the bench fix: the
        // deg-7 odd stage executes 6 multiplies (x², 4 Horner fmas
        // incl. the bootstrap one, final ·x) against dense Horner's 8,
        // mirroring the non-scalar schedule model.
        let p = Polynomial::from_odd(&[7.3, -34.7, 59.9, -31.9]);
        let dense = PolyEval::with_plan(&p, EvalPlan::DenseHorner);
        let odd = PolyEval::with_plan(&p, EvalPlan::OddHorner);
        assert_eq!(dense.mults_per_eval(), 8);
        assert_eq!(odd.mults_per_eval(), 6);
        assert!(odd.mults_per_eval() < dense.mults_per_eval());
        // Consistent with the ciphertext-side schedule model: the odd
        // schedule also beats one mult per degree.
        assert!(squaring_schedule_mults(4) < 7);
        assert_eq!(
            OddPowerSchedule::new(&p).modelled_ct_mults(),
            squaring_schedule_mults(4)
        );
    }

    #[test]
    fn estrin_mult_model_matches_backend_structure() {
        // n=4: rounds (4->2->1) combine 2+1 pairs + 1 squaring.
        assert_eq!(estrin_mults(4), 4);
        assert_eq!(estrin_mults(1), 0);
        assert_eq!(estrin_mults(2), 1);
    }

    #[test]
    fn odd_power_schedule_counts() {
        let deg7 = Polynomial::from_odd(&[7.3, -34.7, 59.9, -31.9]);
        let s = OddPowerSchedule::new(&deg7);
        assert_eq!(s.k_max(), 3);
        assert_eq!(s.ladder_bits(), 2);
        assert_eq!(s.modelled_ct_mults(), 4);
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
        assert_eq!(eng.exact_ct_mults(), paf.exact_ct_mult_count());
        assert_eq!(eng.modelled_ct_mults(), paf.ct_mult_count());
        // The exact ladder schedule charges the per-term bit products
        // the coarse model folds into one product per term.
        assert!(eng.exact_ct_mults() >= eng.modelled_ct_mults());
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

    /// Calibration harness behind `ESTRIN_MIN_PACKED` /
    /// `PS_MIN_PACKED`: times each batch backend across packed sizes
    /// and prints ns/point. Run with
    /// `cargo test -p smartpaf_polyfit --release -- --ignored --nocapture calibrate`.
    #[test]
    #[ignore = "manual calibration harness, run with --release"]
    fn calibrate_thresholds() {
        use std::time::Instant;
        let pts = 4096;
        let xs: Vec<f64> = (0..pts)
            .map(|i| i as f64 / pts as f64 * 1.8 - 0.9)
            .collect();
        let mut out = vec![0.0; pts];
        let time = |pe: &PolyEval, out: &mut Vec<f64>| {
            // Warm up, then best-of-5.
            pe.eval_slice(&xs, out);
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                for _ in 0..20 {
                    pe.eval_slice(&xs, out);
                }
                best = best.min(t.elapsed().as_secs_f64() / 20.0 / pts as f64 * 1e9);
            }
            best
        };
        let time_scalar = |pe: &PolyEval| {
            let mut sink = 0.0;
            for &x in &xs {
                sink += pe.eval(x);
            }
            std::hint::black_box(sink);
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                for _ in 0..20 {
                    let mut s = 0.0;
                    for &x in &xs {
                        s += pe.eval(x);
                    }
                    std::hint::black_box(s);
                }
                best = best.min(t.elapsed().as_secs_f64() / 20.0 / pts as f64 * 1e9);
            }
            best
        };
        println!(
            "packed  horner  estrin      ps | scalar: horner  estrin      ps   (dense, ns/point)"
        );
        for packed in [8, 16, 24, 32, 48, 64, 96, 128, 192, 256] {
            let p = Polynomial::new(
                (0..packed)
                    .map(|i| ((i * 37) % 19) as f64 / 19.0 - 0.5)
                    .collect(),
            );
            let ph = PolyEval::with_plan(&p, EvalPlan::DenseHorner);
            let pe_ = PolyEval::with_plan(&p, EvalPlan::DenseEstrin);
            let pp = PolyEval::with_plan(&p, EvalPlan::DensePs);
            let (h, e, s) = (
                time(&ph, &mut out),
                time(&pe_, &mut out),
                time(&pp, &mut out),
            );
            let (sh, se, ss) = (time_scalar(&ph), time_scalar(&pe_), time_scalar(&pp));
            println!(
                "{packed:6}  {h:6.2}  {e:6.2}  {s:6.2} |         {sh:6.2}  {se:6.2}  {ss:6.2}"
            );
        }
        println!("packed  horner  estrin   (odd-packed, ns/point)");
        for packed in [8, 16, 24, 32, 48, 64, 96] {
            let p = Polynomial::from_odd(
                &(0..packed)
                    .map(|i| ((i * 37) % 19) as f64 / 19.0 - 0.5)
                    .collect::<Vec<_>>(),
            );
            let h = time(&PolyEval::with_plan(&p, EvalPlan::OddHorner), &mut out);
            let e = time(&PolyEval::with_plan(&p, EvalPlan::OddEstrin), &mut out);
            println!("{packed:6}  {h:6.2}  {e:6.2}");
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
        let pe = PolyEval::new(&zero);
        assert_eq!(pe.eval(3.0), 0.0);
        let c = Polynomial::new(vec![4.25]);
        for plan in [
            EvalPlan::DenseHorner,
            EvalPlan::DenseEstrin,
            EvalPlan::DensePs,
        ] {
            assert_eq!(PolyEval::with_plan(&c, plan).eval(-2.0), 4.25);
        }
    }
}
