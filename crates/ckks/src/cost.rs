//! Analytic cost model for leveled PAF evaluation.
//!
//! Counts the primitive ring operations a PAF-ReLU consumes at given
//! parameters, without executing them. Used to sanity-check measured
//! latencies and to project costs at the paper's N = 32768 scale
//! without running it.
//!
//! A ciphertext product is priced in its two halves, as the evaluator
//! executes it: the tensor product ([`tensor_modmuls`]) and the
//! relinearisation with the rescale fused into its division
//! ([`relin_rescale_modmuls`], [`relin_rescale_ntts`]) — a stage pays
//! the first per product and the second per *relinearised* product,
//! which is fewer (`OddPowerSchedule::exact_relins`).
//! `ct_mult_modmuls` is the standalone `Evaluator::mul`. The pass
//! counts are held to the executed transforms by
//! `analytic_ntt_counts_are_the_executed_passes`.
//!
//! [`OpPrices`] composes those per-limb prices into the price of one
//! atomic op of an inference pipeline ([`OpWork`]) entered at a given
//! level: what `heinfer`'s level schedule minimises when it places
//! refreshes, and what a traced plan reports.

use crate::params::CkksParams;
use smartpaf_polyfit::{CompositePaf, OddPowerSchedule};

/// Primitive-operation counts for one encrypted PAF-ReLU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// Ciphertext-ciphertext multiplications (tensor products).
    pub ct_mults: usize,
    /// Relinearisations, each with its rescale fused in: one per
    /// product used on its own, one per stage for the sum of its
    /// terms' last products.
    pub relins: usize,
    /// Plaintext-constant multiplications.
    pub const_mults: usize,
    /// Divisions by a chain prime: the rescale of every constant
    /// multiply and the one fused into every relinearisation.
    pub rescales: usize,
    /// Number-theoretic transforms across all limbs (the dominant
    /// kernel).
    pub ntts: usize,
    /// 64-bit modular multiply-accumulate operations (≈ total work).
    pub modmuls: u128,
}

/// Digit count of the hybrid gadget at `limbs` limbs: ⌈limbs/ω⌉ with
/// ω clamped to the chain length.
pub fn hybrid_digits(params: &CkksParams, limbs: usize) -> usize {
    hybrid_shape(params, limbs).2
}

/// `(ω, ext, digits)` of the hybrid gadget at `limbs` limbs: the
/// clamped digit size (also the special-prime count `k`), the
/// extended-basis width `limbs + k` and the digit count.
fn hybrid_shape(params: &CkksParams, limbs: usize) -> (usize, usize, usize) {
    let omega = params.ks_digit_limbs.min(limbs);
    (omega, limbs + omega, limbs.div_ceil(omega))
}

/// NTT passes consumed by one key switch at `limbs` limbs: the
/// decompose phase's `limbs` inverse NTTs of the input and one forward
/// NTT per *out-of-group* (digit, extended-basis limb) row of the
/// raised decomposition — each chain limb is in-group for
/// exactly one digit and copies the input's NTT limb there, so the
/// phase totals `digits·ext` — then the apply phase's mod-down round
/// trip: per accumulator component, `k` inverse NTTs of the special
/// limbs plus `limbs` forward NTTs of the correction. At 13 limbs,
/// ω = 3: `5·16` once per input, `2·(3 + 13)` per key applied.
pub fn key_switch_ntts(params: &CkksParams, limbs: usize) -> usize {
    let (k, ext, digits) = hybrid_shape(params, limbs);
    digits * ext + 2 * (k + limbs)
}

/// NTT passes of one ciphertext rescale leaving `limbs` limbs: per
/// component, one inverse pass of the dropped limb and one forward
/// pass of its correction per surviving limb.
pub fn rescale_ntts(limbs: usize) -> usize {
    2 * (limbs + 1)
}

/// NTT passes of one relinearisation at `limbs` limbs with the rescale
/// fused into its division (`Evaluator::relinearize_rescale`): the
/// decompose phase as in [`key_switch_ntts`], then per accumulator
/// component `k + 1` inverse passes — the special limbs and the chain
/// limb being dropped — and `limbs − 1` forward passes of the
/// correction. That is [`key_switch_ntts`] again: the rescale's own
/// [`rescale_ntts`]`(limbs − 1)` = `2·limbs` passes are what fusing
/// saves. At 13 limbs, ω = 3: 112 where relinearise-then-rescale
/// takes 138.
pub fn relin_rescale_ntts(params: &CkksParams, limbs: usize) -> usize {
    let (k, ext, digits) = hybrid_shape(params, limbs);
    digits * ext + 2 * ((k + 1) + (limbs - 1))
}

/// Modular multiplies of the key switch's **decompose** phase at
/// `limbs` limbs: everything that depends on the input polynomial
/// only, paid once however many keys (rotations) are then applied.
///
/// Exact counts for the implemented kernel: the input's inverse NTTs
/// and the out-of-group raised rows' forward NTTs (`digits·ext`
/// passes, see [`key_switch_ntts`]) at n mults each,
/// Shoup scaling by (Q_j/q_i)^-1 (`limbs`·n), and the raised
/// accumulation Σ yᵢ·(Q_j/q_i) into the out-of-group extended limbs
/// (`digits·(ext−ω)·ω`·n).
pub fn key_switch_decompose_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    let (omega, ext, digits) = hybrid_shape(params, limbs);
    let ntts = digits * ext;
    let scale = limbs;
    let raise = digits * (ext - omega) * omega;
    ((ntts + scale + raise) as u128) * params.n as u128
}

/// Modular multiplies of the key switch's **apply** phase at `limbs`
/// limbs: the per-key work, paid once per relinearisation or rotation.
///
/// Exact counts: the inner products of the raised digits against both
/// key components (`2·digits·ext`·n; a rotation gathers the digits
/// through its permutation table in the same pass, at no multiply), and the mod-down by P — `2·(k + limbs)` NTT passes at n
/// mults each plus `2·(k + limbs·k + limbs)`·n per-coefficient work.
pub fn key_switch_apply_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    let (k, ext, digits) = hybrid_shape(params, limbs);
    let accumulate = 2 * digits * ext;
    let mod_down = 2 * (k + limbs) + 2 * (k + limbs * k + limbs);
    ((accumulate + mod_down) as u128) * params.n as u128
}

/// Modular multiplies of one whole key switch (decompose + apply once)
/// at `limbs` limbs — the relinearisation core, excluding the tensor
/// product around it.
fn key_switch_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    key_switch_decompose_modmuls(params, limbs) + key_switch_apply_modmuls(params, limbs)
}

/// Work of one tensor product at `limbs` limbs: 4 limb-wise ring
/// multiplications (`Evaluator::tensor`; a squaring's 3 are priced
/// the same).
pub fn tensor_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    4 * (limbs as u128) * (params.n as u128)
}

/// Work of one relinearisation at `limbs` limbs with the rescale fused
/// into its division (`Evaluator::relinearize_rescale`), excluding the
/// tensor product before it: the decompose phase, the inner products
/// against both key components (`2·digits·ext`·n) seeded with `P·d_w`
/// (`2·limbs`·n), and the division by `P·q_last` — the
/// [`relin_rescale_ntts`] mod-down passes at n mults each plus, per
/// component, scaling the `k + 1` divisor limbs, converting them to
/// each of the `limbs − 1` remaining limbs and dividing there.
pub fn relin_rescale_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    let (k, ext, digits) = hybrid_shape(params, limbs);
    let out = limbs - 1;
    let accumulate = 2 * digits * ext + 2 * limbs;
    let division = 2 * ((k + 1) + out) + 2 * ((k + 1) + out * (k + 1) + out);
    key_switch_decompose_modmuls(params, limbs)
        + ((accumulate + division) as u128) * params.n as u128
}

/// Work of one standalone ciphertext-ciphertext multiply +
/// relinearisation (`Evaluator::mul`) at `limbs` limbs, in 64-bit
/// modular multiplies: the tensor product plus the gadget key switch
/// of the degree-2 component.
fn ct_mult_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    tensor_modmuls(params, limbs) + key_switch_modmuls(params, limbs)
}

/// Work of one ciphertext rescale leaving `limbs` limbs, in modular
/// multiplies: the [`rescale_ntts`] passes at n mults each and the
/// division in every surviving limb of both components (the lift of
/// the dropped limb's remainder is a conditional subtract).
fn rescale_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    ((rescale_ntts(limbs) + 2 * limbs) as u128) * (params.n as u128)
}

/// Work of one plaintext-constant multiply at `limbs` limbs, in
/// modular multiplies: one per coefficient of both components. (The
/// evaluator folds it into the divide pass of the rescale that
/// follows, at the same multiply count.)
pub fn const_mult_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    2 * (limbs as u128) * (params.n as u128)
}

/// The parameter-free work of one atomic op of a pipeline — an affine
/// map, a PAF-ReLU, or one shift of a max-pool fold: exact counts, read
/// off the op itself (`CompositeEval::{exact_ct_mults, exact_relins}`,
/// `DiagMatrix::{bsgs_counts, num_diagonals}`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpWork {
    /// Tensor products ([`tensor_modmuls`] each).
    pub tensors: usize,
    /// Relinearisations with the rescale fused in
    /// ([`relin_rescale_modmuls`] each).
    pub relins: usize,
    /// Rotations: Galois key-switch applications
    /// ([`rotation_apply_modmuls`] each).
    pub rotations: usize,
    /// Key-switch decompositions behind those rotations
    /// ([`key_switch_decompose_modmuls`] each).
    pub decompositions: usize,
    /// Plaintext multiplies — a matvec's diagonals
    /// ([`const_mult_modmuls`] each).
    pub plain_mults: usize,
}

/// What an [`OpWork`] costs at the level it is entered at: the one
/// price the level schedule minimises and a traced plan reports.
///
/// An op's rotations, decompositions and plaintext multiplies run on
/// the `level_in + 1` limbs it is entered on. Its products do not: an
/// op that consumes `need` levels loses a limb with every level, so
/// one `need`-th of its tensor products and relinearisations is priced
/// on each of the limb counts `level_in + 1, …, level_in + 2 − need`
/// it passes through.
///
/// The per-limb prices are tabulated once (with running sums for the
/// products), so pricing an op is a handful of multiplies — a schedule
/// prices every op at every level it could be entered at, per request.
#[derive(Debug, Clone)]
pub struct OpPrices {
    /// `[rotation apply, decompose, plaintext multiply]` at `l` limbs,
    /// by `l` (entry 0 unused).
    at_limbs: Vec<[u128; 3]>,
    /// `[tensor, relin + rescale]` summed over `1..=l` limbs, by `l`.
    products_up_to: Vec<[u128; 2]>,
}

impl OpPrices {
    /// Tabulates the prices at `params` for ops entered at up to
    /// `max_level`.
    pub fn new(params: &CkksParams, max_level: usize) -> Self {
        let mut at_limbs = vec![[0; 3]];
        let mut products_up_to = vec![[0; 2]];
        for limbs in 1..=max_level + 1 {
            at_limbs.push([
                rotation_apply_modmuls(params, limbs),
                key_switch_decompose_modmuls(params, limbs),
                const_mult_modmuls(params, limbs),
            ]);
            let [tensors, relins] = products_up_to[limbs - 1];
            products_up_to.push([
                tensors + tensor_modmuls(params, limbs),
                relins + relin_rescale_modmuls(params, limbs),
            ]);
        }
        OpPrices {
            at_limbs,
            products_up_to,
        }
    }

    /// Modular multiplies of `work` entered at `level_in` and consuming
    /// `need ≥ 1` levels from there.
    ///
    /// # Panics
    ///
    /// Panics if `level_in` is above the tabulated `max_level` or below
    /// `need`.
    pub fn op_modmuls(&self, work: &OpWork, level_in: usize, need: usize) -> u128 {
        let limbs = level_in + 1;
        let [apply, decompose, plain_mult] = self.at_limbs[limbs];
        let [tensors_hi, relins_hi] = self.products_up_to[limbs];
        let [tensors_lo, relins_lo] = self.products_up_to[limbs - need];
        work.rotations as u128 * apply
            + work.decompositions as u128 * decompose
            + work.plain_mults as u128 * plain_mult
            + (work.tensors as u128 * (tensors_hi - tensors_lo)
                + work.relins as u128 * (relins_hi - relins_lo))
                / need as u128
    }
}

/// Counts the operations of one PAF-ReLU at the given parameters.
///
/// Mirrors the `PafEvaluator` schedule op for op: per stage, an
/// even-power ladder by squaring; per non-zero odd term a constant
/// multiply and one product per set bit of its index, the last left
/// un-relinearised; one relinearisation of the stage's summed last
/// products; then the ReLU's own product and constant multiply.
/// `ntts` is the executed transform count
/// (`relu_op_counts_are_the_executed_operations`).
pub fn relu_op_counts(params: &CkksParams, paf: &CompositePaf) -> OpCounts {
    let mut c = OpCounts {
        ct_mults: 0,
        relins: 0,
        const_mults: 0,
        rescales: 0,
        ntts: 0,
        modmuls: 0,
    };
    let tensor = |c: &mut OpCounts, limbs: usize| {
        c.ct_mults += 1;
        c.modmuls += tensor_modmuls(params, limbs);
    };
    let relin_rescale = |c: &mut OpCounts, limbs: usize| {
        c.relins += 1;
        c.rescales += 1;
        c.ntts += relin_rescale_ntts(params, limbs);
        c.modmuls += relin_rescale_modmuls(params, limbs);
    };
    // A constant multiply with its rescale, from `limbs` limbs.
    let const_mult = |c: &mut OpCounts, limbs: usize| {
        c.const_mults += 1;
        c.rescales += 1;
        c.ntts += rescale_ntts(limbs - 1);
        c.modmuls += const_mult_modmuls(params, limbs) + rescale_modmuls(params, limbs - 1);
    };

    let mut limbs = params.depth + 1;
    for stage in paf.stages() {
        // Same schedule object the PafEvaluator executes.
        let sched = OddPowerSchedule::new(stage);
        let odd = sched.odd_coeffs();
        let bits = sched.ladder_bits() as usize;
        if odd[0] != 0.0 {
            const_mult(&mut c, limbs);
        }
        if bits > 0 {
            // Rung j is squared on `limbs − j` limbs and lands one
            // lower.
            for j in 0..bits {
                tensor(&mut c, limbs - j);
                relin_rescale(&mut c, limbs - j);
            }
            for (k, _) in odd.iter().enumerate().skip(1).filter(|(_, &a)| a != 0.0) {
                const_mult(&mut c, limbs);
                // A product runs on its rung's limbs, `limbs − 1 − j`.
                let top = k.ilog2() as usize;
                for j in (0..top).filter(|j| (k >> j) & 1 == 1) {
                    tensor(&mut c, limbs - 1 - j);
                    relin_rescale(&mut c, limbs - 1 - j);
                }
                tensor(&mut c, limbs - 1 - top);
            }
            // The summed last products, on the top rung's limbs.
            relin_rescale(&mut c, limbs - bits);
        }
        limbs -= bits + 1;
    }
    // ReLU construction: x · half_sign + 0.5·x.
    tensor(&mut c, limbs);
    relin_rescale(&mut c, limbs);
    const_mult(&mut c, limbs);
    c
}

/// Projects the runtime of `counts` given a measured per-modmul cost
/// (seconds), the simplest useful calibration.
pub fn project_seconds(counts: &OpCounts, seconds_per_modmul: f64) -> f64 {
    counts.modmuls as f64 * seconds_per_modmul
}

/// Work of applying one rotation to an already-decomposed ciphertext
/// (the per-Galois-element half of a rotation) at `limbs` limbs, in
/// 64-bit modular multiplies.
///
/// Exactly [`key_switch_apply_modmuls`] — in NTT form the automorphism
/// of `c0` and of the raised digits is an index permutation, no
/// transform and no multiply.
pub fn rotation_apply_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    key_switch_apply_modmuls(params, limbs)
}

/// Work of one standalone slot rotation (decompose, then apply one
/// Galois element) at the given limb count, in 64-bit modular
/// multiplies. Consumes no level. `r` rotations of one ciphertext
/// cost one [`key_switch_decompose_modmuls`] plus `r`
/// [`rotation_apply_modmuls`], not `r` of these.
fn rotation_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    key_switch_decompose_modmuls(params, limbs) + rotation_apply_modmuls(params, limbs)
}

/// Modeled cost of one simulated bootstrap, in modular multiplies.
///
/// Calibrated to the published CKKS bootstrapping structure: roughly
/// `slots`-dependent homomorphic encode/decode (CoeffToSlot and
/// SlotToCoeff, each a baby-step/giant-step linear transform of
/// ~2·log2(slots) rotations at full level — half of them baby steps
/// sharing one decomposition, half giant steps paying their own) plus
/// an EvalMod sine approximation of multiplicative depth ~10. This
/// makes the leveled-vs-bootstrapped trade-off in the latency model
/// concrete: at default parameters one bootstrap costs as much as
/// several 27-degree PAF evaluations, which is why the paper's
/// low-degree PAFs avoid it.
pub fn bootstrap_modmuls(params: &CkksParams) -> u128 {
    let full = params.depth + 1;
    let slots = (params.n / 2) as u128;
    let log_slots = 128 - slots.leading_zeros() as u128;
    // One of CoeffToSlot / SlotToCoeff.
    let transform = key_switch_decompose_modmuls(params, full)
        + log_slots * rotation_apply_modmuls(params, full)
        + log_slots * rotation_modmuls(params, full);
    // EvalMod: a depth-10 odd polynomial ≈ 14 ct-mults at full level.
    let ct_mult = ct_mult_modmuls(params, full);
    2 * transform + 14 * ct_mult
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpaf_polyfit::PafForm;

    #[test]
    fn deeper_paf_costs_more() {
        let params = CkksParams::default_params();
        let cheap = relu_op_counts(&params, &CompositePaf::from_form(PafForm::F1G2));
        let rich = relu_op_counts(&params, &CompositePaf::from_form(PafForm::MinimaxDeg27));
        assert!(rich.ct_mults > cheap.ct_mults);
        assert!(rich.modmuls > cheap.modmuls);
        assert!(rich.rescales > cheap.rescales);
    }

    #[test]
    fn rescale_count_matches_depth() {
        // Every level consumed corresponds to exactly one rescale of
        // the main operand; ladder/term bookkeeping adds more, but the
        // total must be at least the ReLU depth.
        let params = CkksParams::default_params();
        for form in PafForm::all() {
            let paf = CompositePaf::from_form(form);
            let c = relu_op_counts(&params, &paf);
            assert!(
                c.rescales > paf.mult_depth(),
                "{form}: {} rescales",
                c.rescales
            );
        }
    }

    #[test]
    fn larger_ring_scales_work_linearly() {
        let small = CkksParams {
            n: 4096,
            ..CkksParams::default_params()
        };
        let big = CkksParams {
            n: 8192,
            ..CkksParams::default_params()
        };
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let a = relu_op_counts(&small, &paf);
        let b = relu_op_counts(&big, &paf);
        assert_eq!(a.ct_mults, b.ct_mults);
        assert_eq!(b.modmuls, a.modmuls * 2);
    }

    #[test]
    fn rotation_cheaper_than_bootstrap() {
        let params = CkksParams::default_params();
        let rot = rotation_modmuls(&params, params.depth + 1);
        let bs = bootstrap_modmuls(&params);
        assert!(bs > 20 * rot, "bootstrap {bs} vs rotation {rot}");
    }

    #[test]
    fn bootstrap_dwarfs_low_degree_paf() {
        // The quantitative version of the paper's motivation: a
        // bootstrap costs more than an entire low-degree PAF-ReLU.
        let params = CkksParams::default_params();
        let paf = relu_op_counts(&params, &CompositePaf::from_form(PafForm::F1G2));
        assert!(bootstrap_modmuls(&params) > paf.modmuls);
    }

    #[test]
    fn primitive_helpers_compose_into_relu_counts() {
        // The public per-op helpers must stay the building blocks of
        // the full ReLU model: a hand-assembled degree-1 stage
        // (const mult + rescale, then the ReLU tensor product, fused
        // relinearisation and const mult) reproduces `relu_op_counts`
        // exactly.
        let params = CkksParams::default_params();
        let paf = CompositePaf::new(vec![smartpaf_polyfit::Polynomial::from_odd(&[2.0])]);
        let c = relu_op_counts(&params, &paf);
        let top = params.depth + 1;
        let want = const_mult_modmuls(&params, top)
            + rescale_modmuls(&params, top - 1)
            + tensor_modmuls(&params, top - 1)
            + relin_rescale_modmuls(&params, top - 1)
            + const_mult_modmuls(&params, top - 1)
            + rescale_modmuls(&params, top - 2);
        assert_eq!(c.modmuls, want);
        assert_eq!(
            (c.ct_mults, c.relins, c.const_mults, c.rescales),
            (1, 1, 2, 3)
        );
        assert!(ct_mult_modmuls(&params, 8) > const_mult_modmuls(&params, 8));
    }

    #[test]
    fn an_op_is_priced_on_the_limbs_it_passes_through() {
        let params = CkksParams::default_params();
        let prices = OpPrices::new(&params, params.depth);
        // A matvec's key switches and plaintext multiplies sit on the
        // limbs it is entered on.
        let matvec = OpWork {
            rotations: 7,
            decompositions: 4,
            plain_mults: 9,
            ..OpWork::default()
        };
        let at = |limbs| {
            7 * rotation_apply_modmuls(&params, limbs)
                + 4 * key_switch_decompose_modmuls(&params, limbs)
                + 9 * const_mult_modmuls(&params, limbs)
        };
        assert_eq!(prices.op_modmuls(&matvec, 1, 1), at(2));
        assert_eq!(prices.op_modmuls(&matvec, 12, 1), at(13));
        // A ReLU entered at level 6 runs from 7 limbs down to 2: a
        // sixth of its 7 tensor products and 6 relinearisations on each.
        let relu = OpWork {
            tensors: 7,
            relins: 6,
            ..OpWork::default()
        };
        let over = |limbs: std::ops::RangeInclusive<usize>| {
            let levels = limbs.clone().count() as u128;
            let products =
                |l| 7 * tensor_modmuls(&params, l) + 6 * relin_rescale_modmuls(&params, l);
            limbs.map(products).sum::<u128>() / levels
        };
        assert_eq!(prices.op_modmuls(&relu, 6, 6), over(2..=7));
        // The same work entered at the top of the chain costs what 13
        // limbs down to 8 cost: 3.0× as much, where one relinearisation
        // on 13 limbs is 2.4× one on 7 — the op entered at 6 spends
        // most of its levels well below 7 limbs.
        assert_eq!(prices.op_modmuls(&relu, 12, 6), over(8..=13));
        let ratio = over(8..=13) as f64 / over(2..=7) as f64;
        assert!((2.9..3.1).contains(&ratio), "{ratio}");
        let one =
            relin_rescale_modmuls(&params, 13) as f64 / relin_rescale_modmuls(&params, 7) as f64;
        assert!((2.3..2.5).contains(&one), "{one}");
        // One shift of a pool: the rotation at entry, the max below it.
        let shift = OpWork {
            rotations: 1,
            decompositions: 1,
            ..relu
        };
        assert_eq!(
            prices.op_modmuls(&shift, 7, 6),
            rotation_modmuls(&params, 8) + over(3..=8)
        );
        // Every price is a count × n.
        let twice = CkksParams {
            n: 2 * params.n,
            ..params.clone()
        };
        assert_eq!(
            OpPrices::new(&twice, 12).op_modmuls(&shift, 7, 1),
            2 * prices.op_modmuls(&shift, 7, 1)
        );
    }

    #[test]
    fn relu_counts_follow_the_schedule() {
        // Tensor products and relinearisations are the schedule's, plus
        // the ReLU's own product; a fused relinearisation costs less
        // than the key switch and rescale it replaces at every level.
        let params = CkksParams::default_params();
        for form in PafForm::all() {
            let paf = CompositePaf::from_form(form);
            let eng = smartpaf_polyfit::CompositeEval::new(&paf);
            let c = relu_op_counts(&params, &paf);
            assert_eq!(c.ct_mults, eng.exact_ct_mults() + 1, "{form}");
            assert_eq!(c.relins, eng.exact_relins() + 1, "{form}");
            assert_eq!(c.rescales, c.relins + c.const_mults, "{form}");
        }
        for limbs in 2..=params.depth + 1 {
            assert!(
                relin_rescale_modmuls(&params, limbs)
                    < key_switch_modmuls(&params, limbs) + rescale_modmuls(&params, limbs - 1)
            );
            assert_eq!(
                relin_rescale_ntts(&params, limbs) + rescale_ntts(limbs - 1),
                key_switch_ntts(&params, limbs) + 2 * limbs
            );
        }
        assert_eq!(key_switch_ntts(&params, 13) + rescale_ntts(12), 138);
        assert_eq!(relin_rescale_ntts(&params, 13), 112);
    }

    #[test]
    fn hybrid_digit_count_clamps_to_chain() {
        let params = CkksParams::default_params();
        assert_eq!(hybrid_digits(&params, 1), 1);
        assert_eq!(hybrid_digits(&params, 2), 1);
        assert_eq!(hybrid_digits(&params, 3), 1);
        assert_eq!(hybrid_digits(&params, 4), 2);
        assert_eq!(hybrid_digits(&params, 13), 5);
        // Cost stays monotone in the chain length.
        let mut prev = 0u128;
        for limbs in 1..=params.depth + 1 {
            let c = ct_mult_modmuls(&params, limbs);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn projection_is_linear() {
        let params = CkksParams::default_params();
        let c = relu_op_counts(&params, &CompositePaf::from_form(PafForm::F2G2));
        let t1 = project_seconds(&c, 1e-9);
        let t2 = project_seconds(&c, 2e-9);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }
}
