//! Composite-PAF search: regenerate the paper's Tab. 2 from first
//! principles.
//!
//! Tab. 2 lists "PAFs with the minimal multiplication depth under
//! different degree constraints". This module enumerates composites of
//! the Cheon et al. building blocks `f1..f3, g1..g3`, measures their
//! sign-approximation error on `[ε, 1]`, and extracts minimal-depth /
//! Pareto-optimal candidates — so the table's selections can be
//! *derived* instead of hardcoded, and the α → depth trade-off can be
//! swept beyond the paper's six forms.

use crate::composite::CompositePaf;
use crate::poly::Polynomial;
use std::fmt;

/// One Cheon et al. base stage usable in a composite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseStage {
    /// `f1(x) = (3x − x³)/2`.
    F1,
    /// `f2(x) = (15x − 10x³ + 3x⁵)/8`.
    F2,
    /// `f3(x) = (35x − 35x³ + 21x⁵ − 5x⁷)/16`.
    F3,
    /// `g1(x) = (2126x − 1359x³)/2¹⁰`.
    G1,
    /// `g2(x) = (3334x − 6108x³ + 3796x⁵)/2¹⁰`.
    G2,
    /// `g3(x) = (4589x − 16577x³ + 25614x⁵ − 12860x⁷)/2¹⁰`.
    G3,
}

impl BaseStage {
    /// Every base stage, f-family first.
    pub fn all() -> [BaseStage; 6] {
        [
            BaseStage::F1,
            BaseStage::F2,
            BaseStage::F3,
            BaseStage::G1,
            BaseStage::G2,
            BaseStage::G3,
        ]
    }

    /// The stage polynomial.
    pub fn poly(&self) -> Polynomial {
        match self {
            BaseStage::F1 => Polynomial::from_odd(&[1.5, -0.5]),
            BaseStage::F2 => Polynomial::from_odd(&[1.875, -1.25, 0.375]),
            BaseStage::F3 => {
                Polynomial::from_odd(&[35.0 / 16.0, -35.0 / 16.0, 21.0 / 16.0, -5.0 / 16.0])
            }
            BaseStage::G1 => Polynomial::from_odd(&[2126.0 / 1024.0, -1359.0 / 1024.0]),
            BaseStage::G2 => {
                Polynomial::from_odd(&[3334.0 / 1024.0, -6108.0 / 1024.0, 3796.0 / 1024.0])
            }
            BaseStage::G3 => Polynomial::from_odd(&[
                4589.0 / 1024.0,
                -16577.0 / 1024.0,
                25614.0 / 1024.0,
                -12860.0 / 1024.0,
            ]),
        }
    }

    /// Stage degree.
    pub fn degree(&self) -> usize {
        self.poly().degree()
    }
}

impl fmt::Display for BaseStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BaseStage::F1 => "f1",
            BaseStage::F2 => "f2",
            BaseStage::F3 => "f3",
            BaseStage::G1 => "g1",
            BaseStage::G2 => "g2",
            BaseStage::G3 => "g3",
        };
        f.write_str(s)
    }
}

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Accurate-range edge: error is measured on `[eps, 1]` (odd
    /// symmetry covers the negative side).
    pub eps: f64,
    /// Maximum number of composed stages.
    pub max_stages: usize,
    /// Error-grid sample count on `[eps, 1]`.
    pub samples: usize,
    /// Reject composites whose intermediate values exceed this bound
    /// anywhere on `[0, 1]` (CKKS plaintexts must stay bounded).
    pub value_bound: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            eps: 0.05,
            max_stages: 4,
            samples: 201,
            value_bound: 4.0,
        }
    }
}

/// A scored composite candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Stage sequence (applied first to last, the paper's Eq. 7 order).
    pub stages: Vec<BaseStage>,
    /// Multiplication depth under CKKS.
    pub depth: usize,
    /// Sum of stage degrees (the paper's headline "degree").
    pub degree: usize,
    /// Max |p(x) − 1| on `[eps, 1]`.
    pub max_error: f64,
}

impl Candidate {
    /// Materialises the candidate as a [`CompositePaf`].
    pub fn to_composite(&self) -> CompositePaf {
        CompositePaf::new(self.stages.iter().map(BaseStage::poly).collect())
    }

    /// Paper-style name, e.g. `f1∘g2`.
    pub fn name(&self) -> String {
        self.stages
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("∘")
    }

    /// Equivalent precision parameter `α = −log2(max_error)`.
    pub fn alpha(&self) -> f64 {
        -self.max_error.log2()
    }
}

fn score(stages: &[BaseStage], cfg: &SearchConfig) -> Option<Candidate> {
    let polys: Vec<Polynomial> = stages.iter().map(BaseStage::poly).collect();
    let mut max_error = 0.0f64;
    // Error grid on [eps, 1].
    for i in 0..cfg.samples {
        let x = cfg.eps + (1.0 - cfg.eps) * i as f64 / (cfg.samples - 1) as f64;
        let mut z = x;
        for p in &polys {
            z = p.eval(z);
        }
        max_error = max_error.max((z - 1.0).abs());
    }
    // Boundedness on all of [0, 1] (values inside [0, eps) may not
    // converge to 1 but must not blow up).
    for i in 0..cfg.samples {
        let x = i as f64 / (cfg.samples - 1) as f64;
        let mut z = x;
        for p in &polys {
            z = p.eval(z);
            if z.abs() > cfg.value_bound || !z.is_finite() {
                return None;
            }
        }
    }
    let composite = CompositePaf::new(polys);
    Some(Candidate {
        stages: stages.to_vec(),
        depth: composite.mult_depth(),
        degree: composite.sum_degree(),
        max_error,
    })
}

/// Enumerates every stage sequence up to `cfg.max_stages` and returns
/// all bounded candidates (unfiltered).
pub fn enumerate_composites(cfg: &SearchConfig) -> Vec<Candidate> {
    let bases = BaseStage::all();
    let mut out = Vec::new();
    let mut stack: Vec<Vec<BaseStage>> = bases.iter().map(|&b| vec![b]).collect();
    while let Some(seq) = stack.pop() {
        if let Some(c) = score(&seq, cfg) {
            out.push(c);
        }
        if seq.len() < cfg.max_stages {
            for &b in &bases {
                let mut next = seq.clone();
                next.push(b);
                stack.push(next);
            }
        }
    }
    out
}

/// The (depth, error) Pareto frontier of a candidate set: candidates
/// not dominated by any other in both depth and error, sorted by depth
/// with strictly decreasing error.
pub fn pareto_frontier(cands: Vec<Candidate>) -> Vec<Candidate> {
    let keys: Vec<[f64; 2]> = cands
        .iter()
        .map(|c| [c.depth as f64, c.max_error])
        .collect();
    non_dominated(&keys)
        .into_iter()
        .map(|i| cands[i].clone())
        .collect()
}

/// The one non-dominated filter behind every Pareto frontier in the
/// workspace, each axis of `keys` minimised: the indices of the points
/// no other point matches or beats on every axis while beating on
/// one, keeping the first of exact duplicates, sorted by key and then
/// index.
///
/// # Panics
///
/// Panics if a key holds a NaN.
pub fn non_dominated<const D: usize>(keys: &[[f64; D]]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    // Stable: equal keys stay in index order.
    order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("finite keys"));
    // A dominating point sorts before the point it dominates, and a
    // dominated dominator has a kept one before it, so a point is off
    // the frontier exactly when a kept point is no worse on any axis.
    let mut front: Vec<usize> = Vec::new();
    for i in order {
        let weakly_dominated = |&f: &usize| keys[f].iter().zip(&keys[i]).all(|(a, b)| a <= b);
        if !front.iter().any(weakly_dominated) {
            front.push(i);
        }
    }
    front
}

/// The minimal-depth composite achieving `max_error ≤ tolerance`
/// (ties broken by error, then by total degree).
pub fn min_depth_composite(cfg: &SearchConfig, tolerance: f64) -> Option<Candidate> {
    enumerate_composites(cfg)
        .into_iter()
        .filter(|c| c.max_error <= tolerance)
        .min_by(|a, b| {
            a.depth
                .cmp(&b.depth)
                .then(a.max_error.partial_cmp(&b.max_error).expect("finite"))
                .then(a.degree.cmp(&b.degree))
        })
}

/// Tab. 2 regeneration: the minimal-depth composite whose *summed
/// degree* stays within `max_degree`, among those achieving the best
/// reachable error at that budget (ties → lower error).
pub fn min_depth_under_degree(cfg: &SearchConfig, max_degree: usize) -> Option<Candidate> {
    let cands: Vec<Candidate> = enumerate_composites(cfg)
        .into_iter()
        .filter(|c| c.degree <= max_degree)
        .collect();
    let best_err = cands
        .iter()
        .map(|c| c.max_error)
        .fold(f64::INFINITY, f64::min);
    // "Achieving" = within 2x of the best error at this degree budget.
    cands
        .into_iter()
        .filter(|c| c.max_error <= best_err * 2.0)
        .min_by(|a, b| {
            a.depth
                .cmp(&b.depth)
                .then(a.max_error.partial_cmp(&b.max_error).expect("finite"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::PafForm;

    fn cfg() -> SearchConfig {
        SearchConfig {
            max_stages: 3,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn base_stage_polys_fix_sign_endpoints() {
        for b in BaseStage::all() {
            let p = b.poly();
            assert!(p.is_odd_function(), "{b} must be odd");
            // Every base maps 1 near 1 (sign-preserving refinement).
            assert!((p.eval(1.0) - 1.0).abs() < 0.55, "{b}(1) = {}", p.eval(1.0));
        }
    }

    #[test]
    fn f3_matches_closed_form() {
        let f3 = BaseStage::F3.poly();
        // f_n(x) = Σ (1/4^i) C(2i,i) x (1−x²)^i, n = 3.
        for &x in &[0.1, 0.3, 0.7, 0.95] {
            let mut want = 0.0;
            let binom = [1.0, 2.0, 6.0, 20.0];
            for (i, &c) in binom.iter().enumerate() {
                want += (0.25f64).powi(i as i32) * c * x * (1.0 - x * x).powi(i as i32);
            }
            assert!((f3.eval(x) - want).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn enumeration_counts_sequences() {
        let small = SearchConfig {
            max_stages: 2,
            samples: 41,
            ..SearchConfig::default()
        };
        let cands = enumerate_composites(&small);
        // 6 + 36 sequences, minus any unbounded rejects.
        assert!(cands.len() > 30 && cands.len() <= 42, "{}", cands.len());
    }

    #[test]
    fn paper_forms_are_found_with_consistent_depth() {
        // f1∘g2 (depth 5) must appear with the depth the paper reports.
        let cands = enumerate_composites(&cfg());
        let f1g2 = cands
            .iter()
            .find(|c| c.stages == vec![BaseStage::F1, BaseStage::G2])
            .expect("f1∘g2 enumerated");
        assert_eq!(f1g2.depth, 5);
        let paper = CompositePaf::from_form(PafForm::F1G2);
        assert_eq!(f1g2.depth, paper.mult_depth());
    }

    #[test]
    fn tighter_tolerance_needs_more_depth() {
        let c = SearchConfig {
            max_stages: 4,
            samples: 101,
            ..SearchConfig::default()
        };
        let loose = min_depth_composite(&c, 0.2).expect("loose tolerance reachable");
        let tight = min_depth_composite(&c, 0.02).expect("tight tolerance reachable");
        assert!(
            tight.depth >= loose.depth,
            "{} < {}",
            tight.depth,
            loose.depth
        );
        assert!(tight.max_error <= 0.02);
    }

    #[test]
    fn frontier_is_monotone() {
        let front = pareto_frontier(enumerate_composites(&cfg()));
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].depth <= w[1].depth);
            assert!(w[0].max_error > w[1].max_error);
        }
    }

    #[test]
    fn degree_constrained_pick_beats_paper_depth() {
        // Under each of the paper's degree budgets the search finds a
        // composite at most as deep as the paper's pick.
        let c = SearchConfig {
            max_stages: 4,
            samples: 101,
            ..SearchConfig::default()
        };
        for (budget, paper_depth) in [(5usize, 5usize), (10, 6), (12, 6)] {
            let got = min_depth_under_degree(&c, budget).expect("candidate exists");
            assert!(
                got.depth <= paper_depth,
                "budget {budget}: found depth {} vs paper {paper_depth}",
                got.depth
            );
        }
    }

    #[test]
    fn candidate_roundtrips_to_composite() {
        let c = Candidate {
            stages: vec![BaseStage::F1, BaseStage::G2],
            depth: 5,
            degree: 8,
            max_error: 0.1,
        };
        let paf = c.to_composite();
        assert_eq!(paf.num_stages(), 2);
        assert_eq!(c.name(), "f1∘g2");
        assert!(c.alpha() > 3.0);
    }

    #[test]
    fn deeper_search_never_worsens_best_error() {
        let shallow = SearchConfig {
            max_stages: 2,
            samples: 81,
            ..SearchConfig::default()
        };
        let deep = SearchConfig {
            max_stages: 3,
            samples: 81,
            ..SearchConfig::default()
        };
        let best = |cands: Vec<Candidate>| {
            cands
                .into_iter()
                .map(|c| c.max_error)
                .fold(f64::INFINITY, f64::min)
        };
        let e2 = best(enumerate_composites(&shallow));
        let e3 = best(enumerate_composites(&deep));
        assert!(e3 <= e2);
    }

    #[test]
    fn alpha_sweep_is_monotone_in_depth() {
        // α = 2..5 (tolerance 2^-α): required depth is non-decreasing.
        let c = cfg();
        let mut last = 0usize;
        for alpha in 2..=5 {
            let tol = 2f64.powi(-alpha);
            let cand = min_depth_composite(&c, tol).expect("reachable at 3 stages");
            assert!(cand.depth >= last, "alpha {alpha}");
            last = cand.depth;
        }
    }
}
