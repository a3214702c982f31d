//! Composite PAFs and the sign → ReLU / Max constructions.
//!
//! Notation follows the paper: `f ∘ g` applies `f` **first** and `g`
//! second (Tab. 8: `y = f1(x); g2(y)`), and `f² ∘ g²` means
//! `g(g(f(f(x))))` (Eq. 7).

use crate::depth::poly_mult_depth;
use crate::poly::Polynomial;
use crate::polyeval::CompositeEval;
use crate::remez::minimax_sign_composite;
use std::fmt;

/// Exact sign function used as the approximation target:
/// `1` for positive, `-1` for negative, `0` at zero.
pub fn sign_exact(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// `relu(x)` built from a sign approximation: `(x + x·s(x)) / 2`.
pub fn relu_via_sign(sign_of: impl Fn(f64) -> f64, x: f64) -> f64 {
    (x + x * sign_of(x)) / 2.0
}

/// `max(x, y)` built from a sign approximation:
/// `((x+y) + (x−y)·s(x−y)) / 2`.
pub fn max_via_sign(sign_of: impl Fn(f64) -> f64, x: f64, y: f64) -> f64 {
    ((x + y) + (x - y) * sign_of(x - y)) / 2.0
}

/// The six PAF forms evaluated in the paper (Tab. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PafForm {
    /// `f1 ∘ g2` — paper-reported degree 5, depth 5 (cheapest).
    F1G2,
    /// `f2 ∘ g2` — paper-reported degree 10, depth 6.
    F2G2,
    /// `f2 ∘ g3` — paper-reported degree 12, depth 6.
    F2G3,
    /// Lee et al. minimax `α = 7` — two degree-7 stages, depth 6.
    Alpha7,
    /// `f1² ∘ g1²` — the paper's sweet-spot "14-degree" PAF, depth 8.
    F1SqG1Sq,
    /// Lee et al. minimax "27-degree" comparator (`α = 10` column of
    /// Tab. 2): three minimax stages of degrees 7, 7, 13; depth 10.
    /// Regenerated with our own Remez implementation.
    MinimaxDeg27,
}

impl PafForm {
    /// All forms, cheapest first (the x-axis order of Fig. 1).
    pub fn all() -> [PafForm; 6] {
        [
            PafForm::F1G2,
            PafForm::F2G2,
            PafForm::F2G3,
            PafForm::Alpha7,
            PafForm::F1SqG1Sq,
            PafForm::MinimaxDeg27,
        ]
    }

    /// The five low-degree forms SMART-PAF trains (Tab. 3 columns).
    pub fn smartpaf_set() -> [PafForm; 5] {
        [
            PafForm::F1SqG1Sq,
            PafForm::Alpha7,
            PafForm::F2G3,
            PafForm::F2G2,
            PafForm::F1G2,
        ]
    }

    /// The degree value the paper reports in Tab. 2 for this form.
    ///
    /// The paper's degree accounting is not self-consistent; these
    /// are the verbatim published values.
    pub fn paper_reported_degree(&self) -> usize {
        match self {
            PafForm::F1G2 => 5,
            PafForm::F2G2 => 10,
            PafForm::F2G3 => 12,
            PafForm::Alpha7 => 12,
            PafForm::F1SqG1Sq => 14,
            PafForm::MinimaxDeg27 => 27,
        }
    }

    /// Human-readable name matching the paper's notation.
    pub fn paper_name(&self) -> &'static str {
        match self {
            PafForm::F1G2 => "f1∘g2",
            PafForm::F2G2 => "f2∘g2",
            PafForm::F2G3 => "f2∘g3",
            PafForm::Alpha7 => "α=7",
            PafForm::F1SqG1Sq => "f1²∘g1²",
            PafForm::MinimaxDeg27 => "α=10 (27-degree)",
        }
    }

    /// Compact name for dense per-slot tables (form *vectors* list one
    /// name per slot, where [`PafForm::paper_name`]'s long comparator
    /// label would blow the column).
    pub fn short_name(&self) -> &'static str {
        match self {
            PafForm::F1G2 => "f1∘g2",
            PafForm::F2G2 => "f2∘g2",
            PafForm::F2G3 => "f2∘g3",
            PafForm::Alpha7 => "α=7",
            PafForm::F1SqG1Sq => "f1²∘g1²",
            PafForm::MinimaxDeg27 => "α=10",
        }
    }
}

impl fmt::Display for PafForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// The AESPA-style quadratic activation expressed as a PAF: a single
/// degree-1 sign stage `p(x) = x` turns the ReLU construction
/// `(x + x·p(x))/2` into `(x + x²)/2` — a Hermite-flavoured quadratic
/// with multiplication depth 2 (the cheapest possible replacement, and
/// the comparison point of the paper's §7 AESPA discussion).
pub fn quadratic_paf() -> CompositePaf {
    CompositePaf::new(vec![Polynomial::from_odd(&[1.0])])
}

/// Cheon et al. base `f1(x) = (3x − x³)/2`.
pub(crate) fn base_f1() -> Polynomial {
    Polynomial::from_odd(&[1.5, -0.5])
}

/// Cheon et al. base `f2(x) = (15x − 10x³ + 3x⁵)/8`.
pub(crate) fn base_f2() -> Polynomial {
    Polynomial::from_odd(&[1.875, -1.25, 0.375])
}

/// Cheon et al. base `g1(x) = (2126x − 1359x³)/2¹⁰`.
pub(crate) fn base_g1() -> Polynomial {
    Polynomial::from_odd(&[2126.0 / 1024.0, -1359.0 / 1024.0])
}

/// Cheon et al. base `g2(x) = (3334x − 6108x³ + 3796x⁵)/2¹⁰`.
pub(crate) fn base_g2() -> Polynomial {
    Polynomial::from_odd(&[3334.0 / 1024.0, -6108.0 / 1024.0, 3796.0 / 1024.0])
}

/// Cheon et al. base `g3(x) = (4589x − 16577x³ + 25614x⁵ − 12860x⁷)/2¹⁰`.
pub(crate) fn base_g3() -> Polynomial {
    Polynomial::from_odd(&[
        4589.0 / 1024.0,
        -16577.0 / 1024.0,
        25614.0 / 1024.0,
        -12860.0 / 1024.0,
    ])
}

/// A sign-approximating composite PAF: a sequence of odd polynomial
/// stages applied first-to-last.
///
/// # Example
///
/// ```
/// use smartpaf_polyfit::{CompositePaf, PafForm};
///
/// let paf = CompositePaf::from_form(PafForm::Alpha7);
/// assert_eq!(paf.num_stages(), 2);
/// assert!((paf.eval(0.5) - 1.0).abs() < 0.05);
/// assert!((paf.eval(-0.5) + 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompositePaf {
    stages: Vec<Polynomial>,
    form: Option<PafForm>,
}

impl CompositePaf {
    /// Builds a composite from explicit stages (applied in order).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Polynomial>) -> Self {
        assert!(!stages.is_empty(), "composite needs at least one stage");
        CompositePaf { stages, form: None }
    }

    /// Builds one of the paper's PAF forms with its published
    /// (pre-Coefficient-Tuning) baseline coefficients.
    pub fn from_form(form: PafForm) -> Self {
        let stages = match form {
            PafForm::F1G2 => vec![base_f1(), base_g2()],
            PafForm::F2G2 => vec![base_f2(), base_g2()],
            PafForm::F2G3 => vec![base_f2(), base_g3()],
            PafForm::Alpha7 => vec![
                Polynomial::from_odd(&[7.304451, -34.68258667, 59.85965347, -31.87552261]),
                Polynomial::from_odd(&[2.400856, -2.631254435, 1.549126744, -0.331172943]),
            ],
            PafForm::F1SqG1Sq => vec![base_f1(), base_f1(), base_g1(), base_g1()],
            PafForm::MinimaxDeg27 => minimax_sign_composite(&[4, 4, 7], 0.02)
                .into_iter()
                .map(|r| r.poly)
                .collect(),
        };
        CompositePaf {
            stages,
            form: Some(form),
        }
    }

    /// The form this composite was constructed from, if any.
    pub fn form(&self) -> Option<PafForm> {
        self.form
    }

    /// Restores the form tag on a composite rebuilt from explicit
    /// stages (deserialization reconstructs via [`CompositePaf::new`],
    /// which cannot know the provenance of its stages).
    pub(crate) fn set_form(&mut self, form: Option<PafForm>) {
        self.form = form;
    }

    /// The stages, applied first-to-last.
    pub fn stages(&self) -> &[Polynomial] {
        &self.stages
    }

    /// Mutable stage access (Coefficient Tuning edits these in place).
    pub fn stages_mut(&mut self) -> &mut [Polynomial] {
        &mut self.stages
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Evaluates the composite at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.stages.iter().fold(x, |acc, p| p.eval(acc))
    }

    /// Evaluates and also returns every intermediate stage input
    /// `[z0=x, z1, ..., zS]` — the forward tape Coefficient Tuning
    /// differentiates through.
    pub fn eval_trace(&self, x: f64) -> Vec<f64> {
        let mut zs = Vec::with_capacity(self.stages.len() + 1);
        zs.push(x);
        for p in &self.stages {
            let z = *zs.last().expect("non-empty trace");
            zs.push(p.eval(z));
        }
        zs
    }

    /// ReLU approximation `(x + x·paf(x))/2`.
    pub fn relu(&self, x: f64) -> f64 {
        relu_via_sign(|v| self.eval(v), x)
    }

    /// Max approximation `((x+y) + (x−y)·paf(x−y))/2`.
    pub fn max(&self, x: f64, y: f64) -> f64 {
        max_via_sign(|v| self.eval(v), x, y)
    }

    /// CKKS multiplication depth: sum over stages of
    /// `ceil(log2(degree+1))` (paper App. C).
    pub fn mult_depth(&self) -> usize {
        self.stages
            .iter()
            .map(|p| poly_mult_depth(p.degree()))
            .sum()
    }

    /// Sum of stage degrees — the paper's "27-degree" style count.
    pub fn sum_degree(&self) -> usize {
        self.stages.iter().map(Polynomial::degree).sum()
    }

    /// Prepares the evaluation engine for this composite: one packed
    /// [`crate::PolyEval`] plan per stage. Use this on hot paths that
    /// evaluate the same composite many times (batch ReLU, error
    /// grids).
    pub fn prepare(&self) -> CompositeEval {
        CompositeEval::new(self)
    }

    /// Enumerates the built-in candidate forms (Tab. 2) whose PAF-ReLU
    /// fits a modulus chain of `max_levels` rescale levels — i.e.
    /// `mult_depth() + 1 ≤ max_levels`, the sign evaluation plus the
    /// ReLU product. Returned cheapest-first (the Fig. 1 x-axis
    /// order), so planners can iterate and stop at the first feasible
    /// candidate or trace-price the whole set.
    pub fn candidate_forms(max_levels: usize) -> Vec<PafForm> {
        PafForm::all()
            .into_iter()
            .filter(|&f| CompositePaf::from_form(f).mult_depth() < max_levels)
            .collect()
    }

    /// Folds a static input scale into the first stage:
    /// evaluating the result at `x` equals evaluating `self` at `s·x`.
    pub fn with_input_scale(&self, s: f64) -> CompositePaf {
        let mut stages = self.stages.clone();
        stages[0] = stages[0].substitute_scaled_input(s);
        CompositePaf {
            stages,
            form: self.form,
        }
    }

    /// Max |paf(x) − sign(x)| over `[-1, -eps] ∪ [eps, 1]`.
    ///
    /// Prepares the evaluation engine once and sweeps both half-grids
    /// through the batch backend.
    pub fn sign_error(&self, eps: f64, samples: usize) -> f64 {
        let eng = self.prepare();
        let xs: Vec<f64> = (0..samples)
            .map(|i| eps + (1.0 - eps) * i as f64 / (samples - 1) as f64)
            .collect();
        let mut out = vec![0.0; samples];
        eng.eval_slice(&xs, &mut out);
        // paf(-x) = -paf(x) for odd stages, so |paf(-x) + 1| = |paf(x) - 1|
        // only when the composite is odd; evaluate the negative half
        // explicitly to keep the contract for arbitrary stages.
        let neg: Vec<f64> = xs.iter().map(|&x| -x).collect();
        let mut out_neg = vec![0.0; samples];
        eng.eval_slice(&neg, &mut out_neg);
        out.iter()
            .map(|&v| (v - 1.0).abs())
            .chain(out_neg.iter().map(|&v| (v + 1.0).abs()))
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for CompositePaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.form {
            Some(form) => write!(f, "CompositePaf({form})"),
            None => write!(f, "CompositePaf({} stages)", self.stages.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bases_fix_unit_points() {
        // f-bases satisfy f(1)=1, f(-1)=-1 (Cheon et al. closed form).
        for f in [base_f1(), base_f2()] {
            assert!((f.eval(1.0) - 1.0).abs() < 1e-12);
            assert!((f.eval(-1.0) + 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_forms_approximate_sign() {
        for form in PafForm::all() {
            let paf = CompositePaf::from_form(form);
            // Mid-domain values should be close to ±1.
            let e = (paf.eval(0.6) - 1.0)
                .abs()
                .max((paf.eval(-0.6) + 1.0).abs());
            assert!(e < 0.25, "{form}: error {e}");
        }
    }

    #[test]
    fn depth_matches_paper_table2() {
        let expect = [
            (PafForm::MinimaxDeg27, 10),
            (PafForm::F1SqG1Sq, 8),
            (PafForm::Alpha7, 6),
            (PafForm::F2G3, 6),
            (PafForm::F2G2, 6),
            (PafForm::F1G2, 5),
        ];
        for (form, d) in expect {
            let paf = CompositePaf::from_form(form);
            assert_eq!(paf.mult_depth(), d, "{form}");
        }
    }

    #[test]
    fn deg27_comparator_sums_to_27() {
        let paf = CompositePaf::from_form(PafForm::MinimaxDeg27);
        assert_eq!(paf.sum_degree(), 27);
        assert_eq!(paf.num_stages(), 3);
    }

    #[test]
    fn relu_construction_accuracy() {
        let paf = CompositePaf::from_form(PafForm::F1SqG1Sq);
        for i in 1..=20 {
            let x = i as f64 / 20.0;
            assert!(
                (paf.relu(x) - x).abs() < 0.05,
                "relu({x}) = {}",
                paf.relu(x)
            );
            assert!(paf.relu(-x).abs() < 0.05, "relu({}) = {}", -x, paf.relu(-x));
        }
    }

    #[test]
    fn max_construction_accuracy() {
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let cases = [(0.3, 0.7), (-0.4, 0.2), (0.5, -0.5), (-0.2, -0.9)];
        for (x, y) in cases {
            let approx = paf.max(x, y);
            let exact = f64::max(x, y);
            assert!((approx - exact).abs() < 0.06, "max({x},{y}) = {approx}");
        }
    }

    #[test]
    fn relu_via_exact_sign_is_exact() {
        for i in -10..=10 {
            let x = i as f64 / 5.0;
            assert_eq!(relu_via_sign(sign_exact, x), x.max(0.0));
        }
    }

    #[test]
    fn max_via_exact_sign_is_exact() {
        assert_eq!(max_via_sign(sign_exact, 2.0, -3.0), 2.0);
        assert_eq!(max_via_sign(sign_exact, -1.0, 4.0), 4.0);
        assert_eq!(max_via_sign(sign_exact, 1.5, 1.5), 1.5);
    }

    #[test]
    fn eval_trace_consistent() {
        let paf = CompositePaf::from_form(PafForm::F2G3);
        let zs = paf.eval_trace(0.4);
        assert_eq!(zs.len(), 3);
        assert_eq!(zs[0], 0.4);
        assert!((zs[2] - paf.eval(0.4)).abs() < 1e-15);
    }

    #[test]
    fn input_scale_folding() {
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let scaled = paf.with_input_scale(0.5);
        for i in -5..=5 {
            let x = i as f64 / 5.0;
            assert!((scaled.eval(x) - paf.eval(0.5 * x)).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_depth_forms_are_more_accurate() {
        let cheap = CompositePaf::from_form(PafForm::F1G2).sign_error(0.05, 500);
        let mid = CompositePaf::from_form(PafForm::F1SqG1Sq).sign_error(0.05, 500);
        let rich = CompositePaf::from_form(PafForm::MinimaxDeg27).sign_error(0.05, 500);
        assert!(rich < mid, "27-deg {rich} !< 14-deg {mid}");
        assert!(mid < cheap, "14-deg {mid} !< f1g2 {cheap}");
    }

    #[test]
    fn candidate_enumeration_respects_depth_budget() {
        // A 12-level chain fits every form (deepest ReLU needs 11).
        assert_eq!(CompositePaf::candidate_forms(12).len(), 6);
        // 8 levels drop the depth-8 and depth-10 forms.
        let eight = CompositePaf::candidate_forms(8);
        assert!(!eight.contains(&PafForm::MinimaxDeg27));
        assert!(!eight.contains(&PafForm::F1SqG1Sq));
        assert_eq!(eight.len(), 4);
        // Below the cheapest form's 6 levels nothing fits.
        assert!(CompositePaf::candidate_forms(5).is_empty());
        // Cheapest-first ordering is preserved.
        assert_eq!(eight[0], PafForm::F1G2);
    }

    #[test]
    fn smartpaf_set_excludes_comparator() {
        assert!(!PafForm::smartpaf_set().contains(&PafForm::MinimaxDeg27));
    }
    #[test]
    fn quadratic_paf_is_half_x_plus_x_squared() {
        let q = quadratic_paf();
        assert_eq!(q.mult_depth(), 1);
        assert_eq!(q.num_stages(), 1);
        for &x in &[-1.0f64, -0.4, 0.0, 0.3, 1.0] {
            let want = 0.5 * (x + x * x);
            assert!((q.relu(x) - want).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn quadratic_paf_is_shallowest_form() {
        // Depth 1 sign + 1 ReLU product = 2 levels, below every Tab. 2
        // form (the cheapest f1∘g2 needs 5 + 1).
        let q = quadratic_paf();
        for form in PafForm::all() {
            assert!(q.mult_depth() < CompositePaf::from_form(form).mult_depth());
        }
    }
}
