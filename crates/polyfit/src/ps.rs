//! Paterson–Stockmeyer polynomial evaluation.
//!
//! Splits a degree-`d` polynomial into `ceil((d+1)/k)` blocks of `k`
//! coefficients ("baby steps") and combines them with powers of `x^k`
//! ("giant steps"): non-scalar multiplication count drops from `O(d)`
//! to `O(sqrt(d))`, the classic trade against the
//! exponentiation-by-squaring schedule used by the CKKS evaluator.

use crate::poly::Polynomial;
use crate::polyeval::{EvalPlan, PolyEval};

/// Plan for a Paterson–Stockmeyer evaluation of one polynomial.
#[derive(Debug, Clone)]
pub struct PsPlan {
    /// Baby-step block size `k` (≈ sqrt(d+1)).
    pub block: usize,
    /// Number of giant-step blocks.
    pub blocks: usize,
    /// Non-scalar multiplications needed: baby powers + giant powers +
    /// one per block combination.
    pub nonscalar_mults: usize,
}

/// Builds the PS plan for a polynomial of degree `d`.
///
/// # Panics
///
/// Panics for the zero-degree case (`d == 0`), which needs no plan.
pub fn ps_plan(d: usize) -> PsPlan {
    assert!(d > 0, "constant polynomials need no evaluation plan");
    let n = d + 1;
    let block = (n as f64).sqrt().ceil() as usize;
    let blocks = n.div_ceil(block);
    // Baby steps: x^2..x^block (block-1 mults). Giant steps:
    // x^(2k), x^(3k)... via repeated mult by x^k (blocks-2 mults, if
    // any), plus one mult per block beyond the lowest.
    let giant_powers = blocks.saturating_sub(2);
    let combine = blocks.saturating_sub(1);
    PsPlan {
        block,
        blocks,
        nonscalar_mults: (block - 1) + giant_powers + combine,
    }
}

/// Evaluates `p(x)` with the Paterson–Stockmeyer schedule. Numerically
/// identical to Horner up to floating-point reassociation; exists so
/// tests can validate the schedule the ciphertext evaluator would use.
///
/// One-shot wrapper over the evaluation engine's
/// [`EvalPlan::DensePs`] backend — prepare a [`PolyEval`] directly to
/// amortise the packing across calls.
pub fn ps_eval(p: &Polynomial, x: f64) -> f64 {
    PolyEval::with_plan(p, EvalPlan::DensePs).eval(x)
}

/// Non-scalar multiplication count of the exponentiation-by-squaring
/// odd schedule used by `smartpaf-ckks` for an odd polynomial with
/// `n_odd` odd terms (matches `CompositePaf::ct_mult_count` per
/// stage).
pub fn squaring_schedule_mults(n_odd: usize) -> usize {
    if n_odd <= 1 {
        0
    } else {
        1 + (n_odd - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_matches_horner() {
        let p = Polynomial::new(vec![1.0, -2.0, 0.5, 3.0, -1.25, 0.75, 2.0, -0.1]);
        for i in -20..=20 {
            let x = i as f64 / 10.0;
            let a = p.eval(x);
            let b = ps_eval(&p, x);
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b} at {x}");
        }
    }

    #[test]
    fn ps_constant_and_linear() {
        assert_eq!(ps_eval(&Polynomial::new(vec![7.0]), 3.0), 7.0);
        let lin = Polynomial::new(vec![1.0, 2.0]);
        assert_eq!(ps_eval(&lin, 3.0), 7.0);
    }

    #[test]
    fn plan_counts_sublinear() {
        // Degree 27: PS should need far fewer than 27 nonscalar mults.
        let plan = ps_plan(27);
        assert!(plan.nonscalar_mults <= 14, "{:?}", plan);
        assert!(plan.block * plan.blocks >= 28);
    }

    #[test]
    fn plan_beats_naive_for_large_degree() {
        for d in [7, 13, 27, 63] {
            let plan = ps_plan(d);
            assert!(
                plan.nonscalar_mults < d,
                "degree {d}: PS {} mults",
                plan.nonscalar_mults
            );
        }
    }

    #[test]
    fn squaring_schedule_known_counts() {
        assert_eq!(squaring_schedule_mults(1), 0); // a*x only
        assert_eq!(squaring_schedule_mults(2), 2); // x^2 then x^3 term
        assert_eq!(squaring_schedule_mults(4), 4); // deg-7 odd stage
    }

    #[test]
    fn ps_on_odd_sign_base() {
        let g3 = Polynomial::from_odd(&[4.4814, -16.1885, 25.0137, -12.5586]);
        for i in 1..=10 {
            let x = i as f64 / 10.0;
            assert!((ps_eval(&g3, x) - g3.eval(x)).abs() < 1e-9);
        }
    }
}
