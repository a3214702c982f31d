//! Property-based tests for the polynomial machinery.

use crate::composite::{max_via_sign, relu_via_sign, sign_exact, CompositePaf, PafForm};
use crate::linalg::{solve_dense, weighted_lsq_polyfit};
use crate::poly::Polynomial;
use crate::polyeval::{CompositeEval, EvalPlan, PolyEval};
use proptest::prelude::*;

fn coeffs() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0f64..5.0, 1..6)
}

/// Reference evaluation by explicit `powi` monomials — the backend the
/// engine proptests compare everything against.
fn naive_powi_eval(p: &Polynomial, x: f64) -> f64 {
    p.coeffs()
        .iter()
        .enumerate()
        .map(|(i, &c)| c * x.powi(i as i32))
        .sum()
}

/// ULP-scale agreement tolerance: reassociating a degree-`d` sum
/// perturbs each partial by a few eps of the running magnitude.
fn reassociation_tol(p: &Polynomial, x: f64) -> f64 {
    let mag: f64 = p
        .coeffs()
        .iter()
        .enumerate()
        .map(|(i, &c)| (c * x.powi(i as i32)).abs())
        .sum();
    8.0 * (p.degree() as f64 + 2.0) * f64::EPSILON * (1.0 + mag)
}

proptest! {
    /// Polynomial addition commutes and agrees with pointwise addition.
    #[test]
    fn poly_add_pointwise(a in coeffs(), b in coeffs(), x in -2.0f64..2.0) {
        let pa = Polynomial::new(a);
        let pb = Polynomial::new(b);
        let sum = pa.add(&pb);
        prop_assert!((sum.eval(x) - (pa.eval(x) + pb.eval(x))).abs() < 1e-9);
        prop_assert_eq!(pa.add(&pb), pb.add(&pa));
    }

    /// Polynomial multiplication agrees with pointwise multiplication.
    #[test]
    fn poly_mul_pointwise(a in coeffs(), b in coeffs(), x in -2.0f64..2.0) {
        let pa = Polynomial::new(a);
        let pb = Polynomial::new(b);
        let prod = pa.mul(&pb);
        prop_assert!((prod.eval(x) - pa.eval(x) * pb.eval(x)).abs() < 1e-6);
    }

    /// Symbolic composition agrees with functional composition.
    #[test]
    fn poly_compose_pointwise(a in coeffs(), b in coeffs(), x in -1.0f64..1.0) {
        let pa = Polynomial::new(a);
        let pb = Polynomial::new(b);
        let comp = pa.compose(&pb);
        prop_assert!((comp.eval(x) - pa.eval(pb.eval(x))).abs() < 1e-4);
    }

    /// Derivative obeys the product rule (checked pointwise).
    #[test]
    fn derivative_product_rule(a in coeffs(), b in coeffs(), x in -1.5f64..1.5) {
        let pa = Polynomial::new(a);
        let pb = Polynomial::new(b);
        let lhs = pa.mul(&pb).derivative().eval(x);
        let rhs = pa.derivative().eval(x) * pb.eval(x) + pa.eval(x) * pb.derivative().eval(x);
        prop_assert!((lhs - rhs).abs() < 1e-6, "{lhs} vs {rhs}");
    }

    /// Odd polynomials are odd functions.
    #[test]
    fn odd_polys_are_odd(odd in proptest::collection::vec(-3.0f64..3.0, 1..5), x in -1.0f64..1.0) {
        let p = Polynomial::from_odd(&odd);
        prop_assert!((p.eval(-x) + p.eval(x)).abs() < 1e-9);
    }

    /// relu_via_sign with the *exact* sign recovers exact ReLU.
    #[test]
    fn relu_identity_with_exact_sign(x in -10.0f64..10.0) {
        prop_assert_eq!(relu_via_sign(sign_exact, x), x.max(0.0));
    }

    /// max_via_sign with the exact sign recovers exact max, and is
    /// symmetric in its arguments.
    #[test]
    fn max_identity_with_exact_sign(x in -5.0f64..5.0, y in -5.0f64..5.0) {
        // (x+y) + (x−y) is not exactly 2·max in floats; allow one ulp-ish.
        prop_assert!((max_via_sign(sign_exact, x, y) - x.max(y)).abs() < 1e-12);
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let s = |v: f64| paf.eval(v);
        let a = max_via_sign(s, x, y);
        let b = max_via_sign(s, y, x);
        prop_assert!((a - b).abs() < 1e-9, "max not symmetric: {a} vs {b}");
    }

    /// solve_dense actually solves the system (well-conditioned inputs).
    #[test]
    fn solver_residual_small(
        d in proptest::collection::vec(1.0f64..3.0, 3),
        o in proptest::collection::vec(-0.3f64..0.3, 6),
        b in proptest::collection::vec(-5.0f64..5.0, 3),
    ) {
        // Diagonally dominant 3x3.
        let a = [
            d[0], o[0], o[1],
            o[2], d[1], o[3],
            o[4], o[5], d[2],
        ];
        let x = solve_dense(&a, &b, 3).expect("diagonally dominant");
        for i in 0..3 {
            let r: f64 = (0..3).map(|j| a[i * 3 + j] * x[j]).sum::<f64>() - b[i];
            prop_assert!(r.abs() < 1e-8, "residual {r}");
        }
    }

    /// LSQ residual is orthogonal to the basis (normal equations hold).
    #[test]
    fn lsq_normal_equations(seed in 0u64..1000) {
        let xs: Vec<f64> = (0..40).map(|i| -1.0 + i as f64 / 19.5).collect();
        let ys: Vec<f64> = xs.iter().enumerate()
            .map(|(i, &x)| x.tanh() + 0.01 * ((seed as f64 + i as f64).sin()))
            .collect();
        let ws = vec![1.0; xs.len()];
        let fit = weighted_lsq_polyfit(&xs, &ys, &ws, 3, false).expect("solvable");
        for p in 0..=3usize {
            let dot: f64 = xs.iter().zip(&ys)
                .map(|(&x, &y)| (fit.eval(x) - y) * x.powi(p as i32))
                .sum();
            prop_assert!(dot.abs() < 1e-6, "residual not orthogonal to x^{p}: {dot}");
        }
    }

    /// Dense Horner — scalar and batch — agrees with naive powi
    /// evaluation to ULP scale on random degree ≤ 160 inputs.
    #[test]
    fn polyeval_dense_backends_match_naive(
        c in proptest::collection::vec(-3.0f64..3.0, 1..161),
        x in -1.5f64..1.5,
    ) {
        let p = Polynomial::new(c);
        let want = naive_powi_eval(&p, x);
        let tol = reassociation_tol(&p, x);
        let pe = PolyEval::with_plan(&p, EvalPlan::DenseHorner);
        let got = pe.eval(x);
        prop_assert!((got - want).abs() <= tol, "{got} vs {want}");
        // Batch backend must agree at every slice position.
        let xs = [x, -x, 0.5 * x, 0.0, x];
        let out = pe.eval_vec(&xs);
        for (&xi, &oi) in xs.iter().zip(&out) {
            let w = naive_powi_eval(&p, xi);
            prop_assert!(
                (oi - w).abs() <= reassociation_tol(&p, xi),
                "batch at {xi}: {oi} vs {w}"
            );
        }
    }

    /// Odd-only inputs: both plans agree with naive powi (and with the
    /// auto-selected plan) to ULP scale up to degree 127.
    #[test]
    fn polyeval_odd_backends_match_naive(
        odd in proptest::collection::vec(-3.0f64..3.0, 1..65),
        x in -1.5f64..1.5,
    ) {
        let p = Polynomial::from_odd(&odd); // degree ≤ 127, odd terms only
        let want = naive_powi_eval(&p, x);
        let tol = reassociation_tol(&p, x);
        for plan in [EvalPlan::OddHorner, EvalPlan::DenseHorner] {
            let pe = PolyEval::with_plan(&p, plan);
            let got = pe.eval(x);
            prop_assert!((got - want).abs() <= tol, "{plan:?}: {got} vs {want}");
        }
        let auto = PolyEval::new(&p);
        prop_assert!(auto.plan().is_odd(), "odd input must pick a packed plan");
        let xs: Vec<f64> = (0..11).map(|i| x * (i as f64 / 10.0)).collect();
        let out = auto.eval_vec(&xs);
        for (&xi, &oi) in xs.iter().zip(&out) {
            let w = naive_powi_eval(&p, xi);
            prop_assert!(
                (oi - w).abs() <= reassociation_tol(&p, xi),
                "auto batch at {xi}: {oi} vs {w}"
            );
        }
    }

    /// The prepared composite engine matches the unprepared composite
    /// on scalars and slices, ReLU construction included.
    #[test]
    fn composite_engine_matches_unprepared(
        odd_a in proptest::collection::vec(-2.0f64..2.0, 1..5),
        odd_b in proptest::collection::vec(-2.0f64..2.0, 1..5),
        x in -1.0f64..1.0,
    ) {
        let paf = CompositePaf::new(vec![
            Polynomial::from_odd(&odd_a),
            Polynomial::from_odd(&odd_b),
        ]);
        let eng = CompositeEval::new(&paf);
        prop_assert!((eng.eval(x) - paf.eval(x)).abs() < 1e-9 * (1.0 + paf.eval(x).abs()));
        prop_assert!((eng.relu(x) - paf.relu(x)).abs() < 1e-9 * (1.0 + paf.relu(x).abs()));
        let xs = [x, -x, 0.3];
        let mut out = [0.0; 3];
        eng.relu_slice(&xs, &mut out);
        for (&xi, &oi) in xs.iter().zip(&out) {
            prop_assert!((oi - paf.relu(xi)).abs() < 1e-9 * (1.0 + oi.abs()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Search candidates report the same depth as their materialised
    /// composite, for arbitrary stage sequences.
    #[test]
    fn search_candidate_depth_consistent(
        picks in proptest::collection::vec(0usize..6, 1..4),
    ) {
        use crate::search::{BaseStage, SearchConfig, enumerate_composites};
        let cfg = SearchConfig { max_stages: 3, samples: 21, ..SearchConfig::default() };
        let all = BaseStage::all();
        let stages: Vec<BaseStage> = picks.iter().map(|&i| all[i]).collect();
        // Find this sequence among the enumeration (if bounded).
        let cands = enumerate_composites(&cfg);
        if let Some(c) = cands.iter().find(|c| c.stages == stages) {
            let paf = c.to_composite();
            prop_assert_eq!(c.depth, paf.mult_depth());
            prop_assert_eq!(c.degree, paf.sum_degree());
        }
    }

    /// The Pareto frontier is dominance-free: no member is beaten on
    /// both axes by any enumerated candidate.
    #[test]
    fn frontier_members_undominated(eps in 0.02f64..0.2) {
        use crate::search::{SearchConfig, enumerate_composites, pareto_frontier};
        let cfg = SearchConfig { eps, max_stages: 2, samples: 41, ..SearchConfig::default() };
        let cands = enumerate_composites(&cfg);
        let front = pareto_frontier(cands.clone());
        for f in &front {
            for c in &cands {
                let dominates = c.depth < f.depth && c.max_error < f.max_error;
                prop_assert!(!dominates, "{} dominated by {}", f.name(), c.name());
            }
        }
    }
}
