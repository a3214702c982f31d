//! Certified enclosures for composite PAFs via interval arithmetic.
//!
//! The search module and the sampled `sign_error` measure error on a
//! finite grid; this module produces **certified** bounds instead:
//! interval Horner evaluation encloses a polynomial's image of an
//! interval, composition chains enclosures through the stages, and
//! domain subdivision tightens the result to any desired resolution.
//! This is the rigorous counterpart of the paper's §2.3 "approximation
//! input range" discussion — it proves a PAF stays bounded (no CKKS
//! plaintext blow-up) and bounds its worst-case sign error without
//! trusting a sample grid.

use crate::composite::CompositePaf;
use crate::poly::Polynomial;

/// A closed real interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is not finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "non-finite endpoint");
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// True when `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Largest absolute value over the interval.
    pub fn abs_max(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Largest distance of any point of the interval from `y`.
    fn max_distance_to(&self, y: f64) -> f64 {
        (self.lo - y).abs().max((self.hi - y).abs())
    }

    fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo + o.lo, self.hi + o.hi)
    }

    fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval::new(
            c.iter().copied().fold(f64::INFINITY, f64::min),
            c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Enclosure of `x²` (tighter than `self.mul(self)` because the
    /// square is never negative).
    fn square(self) -> Interval {
        if self.lo >= 0.0 {
            Interval::new(self.lo * self.lo, self.hi * self.hi)
        } else if self.hi <= 0.0 {
            Interval::new(self.hi * self.hi, self.lo * self.lo)
        } else {
            Interval::new(0.0, self.abs_max() * self.abs_max())
        }
    }
}

/// Certified enclosure of `p(x)` over the interval `x` via interval
/// Horner on the odd-coefficient form (`p` must be an odd function —
/// every PAF stage is).
///
/// # Panics
///
/// Panics if `p` is not an odd function.
pub fn poly_enclosure(p: &Polynomial, x: Interval) -> Interval {
    packed_enclosure(&pack_stage(p), x)
}

/// Packs one stage's odd coefficients; the constant zero stage (an odd
/// function of degree 0) packs to the empty slice, which encloses to
/// `{0}`.
///
/// # Panics
///
/// Panics if `p` is not an odd function.
fn pack_stage(p: &Polynomial) -> Vec<f64> {
    assert!(p.is_odd_function(), "PAF stages are odd functions");
    if p.degree() == 0 {
        Vec::new()
    } else {
        p.odd_coeffs()
    }
}

/// Interval Horner over packed odd coefficients — the interval twin of
/// the engine's `OddHorner` backend: `p(x) = x · q(x²)`.
fn packed_enclosure(odd: &[f64], x: Interval) -> Interval {
    let x2 = x.square();
    let mut acc = Interval::point(0.0);
    for &c in odd.iter().rev() {
        acc = acc.mul(x2).add(Interval::point(c));
    }
    acc.mul(x)
}

/// Packs every stage's odd coefficients once so subdivision loops do
/// not re-extract them per piece.
fn prepare_schedules(paf: &CompositePaf) -> Vec<Vec<f64>> {
    paf.stages().iter().map(pack_stage).collect()
}

/// Chains prepared per-stage enclosures through a composite.
fn chained_enclosure(packed: &[Vec<f64>], x: Interval) -> Vec<Interval> {
    let mut out = Vec::with_capacity(packed.len() + 1);
    out.push(x);
    let mut cur = x;
    for odd in packed {
        cur = packed_enclosure(odd, cur);
        out.push(cur);
    }
    out
}

/// Chains per-stage enclosures through a composite: returns
/// `[X0 = x, X1 ⊇ s1(X0), ..., XS]`.
pub fn composite_enclosure(paf: &CompositePaf, x: Interval) -> Vec<Interval> {
    chained_enclosure(&prepare_schedules(paf), x)
}

/// Certified upper bound on `max_{x ∈ [eps, 1]} |paf(x) − 1|` by
/// subdividing the domain into `pieces` subintervals and taking the
/// worst enclosure. By odd symmetry the same bound holds on
/// `[−1, −eps]` against −1.
///
/// # Panics
///
/// Panics unless `0 < eps < 1` and `pieces ≥ 1`.
pub fn certified_sign_error(paf: &CompositePaf, eps: f64, pieces: usize) -> f64 {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
    assert!(pieces >= 1, "need at least one piece");
    let schedules = prepare_schedules(paf);
    let step = (1.0 - eps) / pieces as f64;
    let mut worst = 0.0f64;
    for i in 0..pieces {
        let lo = eps + i as f64 * step;
        let hi = if i + 1 == pieces { 1.0 } else { lo + step };
        let enc = *chained_enclosure(&schedules, Interval::new(lo, hi))
            .last()
            .expect("non-empty");
        worst = worst.max(enc.max_distance_to(1.0));
    }
    worst
}

/// Certified upper bound on `max_{x ∈ [−1, 1]} |paf(x)|` — the value
/// bound CKKS plaintexts must respect (the search's `value_bound`
/// check, but proven rather than sampled).
pub fn certified_value_bound(paf: &CompositePaf, pieces: usize) -> f64 {
    assert!(pieces >= 1, "need at least one piece");
    let schedules = prepare_schedules(paf);
    // Odd symmetry: bound on [0, 1] suffices.
    let step = 1.0 / pieces as f64;
    let mut worst = 0.0f64;
    for i in 0..pieces {
        let lo = i as f64 * step;
        let hi = if i + 1 == pieces { 1.0 } else { lo + step };
        for enc in chained_enclosure(&schedules, Interval::new(lo, hi)) {
            worst = worst.max(enc.abs_max());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::PafForm;

    #[test]
    fn interval_ops_enclose() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(0.5, 3.0);
        let s = a.add(b);
        assert!(s.contains(-0.5) && s.contains(5.0));
        let p = a.mul(b);
        assert!(p.contains(-3.0) && p.contains(6.0));
        let sq = a.square();
        assert_eq!(sq.lo, 0.0);
        assert_eq!(sq.hi, 4.0);
    }

    #[test]
    fn poly_enclosure_contains_samples() {
        let p = Polynomial::from_odd(&[1.5, -0.5]); // f1
        let x = Interval::new(0.2, 0.8);
        let enc = poly_enclosure(&p, x);
        for i in 0..=50 {
            let xv = 0.2 + 0.6 * i as f64 / 50.0;
            let y = p.eval(xv);
            assert!(
                enc.lo - 1e-12 <= y && y <= enc.hi + 1e-12,
                "p({xv}) = {y} outside [{}, {}]",
                enc.lo,
                enc.hi
            );
        }
    }

    #[test]
    fn composite_enclosure_contains_trace() {
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let x = Interval::new(0.1, 0.4);
        let encs = composite_enclosure(&paf, x);
        assert_eq!(encs.len(), paf.num_stages() + 1);
        for i in 0..=20 {
            let xv = 0.1 + 0.3 * i as f64 / 20.0;
            let trace = paf.eval_trace(xv);
            for (e, t) in encs.iter().zip(&trace) {
                assert!(e.lo - 1e-12 <= *t && *t <= e.hi + 1e-12);
            }
        }
    }

    #[test]
    fn certified_bound_dominates_sampled_error() {
        for form in PafForm::all() {
            let paf = CompositePaf::from_form(form);
            let sampled = paf.sign_error(0.1, 400);
            let certified = certified_sign_error(&paf, 0.1, 512);
            assert!(
                certified + 1e-12 >= sampled,
                "{form}: certified {certified} < sampled {sampled}"
            );
        }
    }

    #[test]
    fn subdivision_tightens_the_bound() {
        let paf = CompositePaf::from_form(PafForm::F2G2);
        let coarse = certified_sign_error(&paf, 0.1, 4);
        let fine = certified_sign_error(&paf, 0.1, 256);
        assert!(fine <= coarse + 1e-12, "fine {fine} vs coarse {coarse}");
        // And at high resolution it approaches the sampled error.
        let sampled = paf.sign_error(0.1, 400);
        assert!(
            fine <= sampled * 4.0 + 0.05,
            "fine {fine} vs sampled {sampled}"
        );
    }

    #[test]
    fn value_bound_certifies_ckks_safety() {
        // Every *low-degree* form stays within a small constant on
        // [-1, 1] — the property CKKS plaintext encoding relies on.
        // (The 27-degree comparator's degree-13 stages hit interval
        // arithmetic's dependency blow-up; certifying it would need
        // per-stage range subdivision, which the sampled check in
        // `search::score` covers instead.)
        for form in PafForm::smartpaf_set() {
            let paf = CompositePaf::from_form(form);
            let bound = certified_value_bound(&paf, 512);
            assert!(bound < 8.0, "{form}: certified value bound {bound}");
            assert!(bound >= 1.0 - 1e-9, "{form}: sign composites reach 1");
        }
    }

    #[test]
    fn degenerate_interval_is_exact() {
        let p = Polynomial::from_odd(&[2.0, -1.0]);
        let enc = poly_enclosure(&p, Interval::point(0.5));
        assert!((enc.lo - p.eval(0.5)).abs() < 1e-12);
        assert!((enc.hi - p.eval(0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_rejected() {
        let _ = Interval::new(1.0, 0.0);
    }

    #[test]
    fn zero_stage_encloses_to_zero() {
        // A constant zero stage is a degenerate but constructible
        // composite; both enclosure entry points must tolerate it.
        let zero = Polynomial::zero();
        let enc = poly_enclosure(&zero, Interval::new(0.1, 1.0));
        assert_eq!(enc.lo, 0.0);
        assert_eq!(enc.hi, 0.0);
        let paf = CompositePaf::new(vec![zero]);
        let encs = composite_enclosure(&paf, Interval::new(0.1, 1.0));
        assert_eq!(encs.len(), 2);
        assert_eq!(encs[1].lo, 0.0);
        assert_eq!(encs[1].hi, 0.0);
    }
}
