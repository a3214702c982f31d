//! Latency-accuracy Pareto frontier (paper Fig. 1), plus the
//! three-axis frontier over the per-slot *form vectors* the Session
//! planner traces (traced bootstraps × exact ct-mults × worst-slot
//! sign error).

use smartpaf_polyfit::PafForm;

/// A candidate operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Latency in milliseconds (lower is better).
    pub latency_ms: f64,
    /// Accuracy in [0, 1] (higher is better).
    pub accuracy: f64,
}

/// Returns the indices of the Pareto-optimal points (no other point is
/// both faster and at least as accurate, or as fast and more
/// accurate), sorted by latency.
///
/// Tie handling: points with equal cost but strictly better accuracy
/// evict the dominated point, so at most one index survives per
/// distinct latency — important for trace-priced planning, where costs
/// are discrete (bootstrap / ct-mult counts) and exact duplicates are
/// the norm. Exact duplicates (equal cost *and* accuracy) keep the
/// first input index.
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    // Stable sort by latency alone; dominance among ties is resolved
    // explicitly below rather than through a sort tiebreaker.
    idx.sort_by(|&a, &b| {
        points[a]
            .latency_ms
            .partial_cmp(&points[b].latency_ms)
            .expect("finite latency")
    });
    let mut frontier: Vec<usize> = Vec::new();
    for &i in &idx {
        let p = points[i];
        // Equal cost, strictly better accuracy: evict the dominated
        // point already on the frontier.
        while let Some(&last) = frontier.last() {
            if points[last].latency_ms == p.latency_ms && p.accuracy > points[last].accuracy {
                frontier.pop();
            } else {
                break;
            }
        }
        let dominated = frontier
            .last()
            .is_some_and(|&last| points[last].accuracy >= p.accuracy);
        if !dominated {
            frontier.push(i);
        }
    }
    frontier
}

/// A planned form-vector operating point: the per-slot PAF assignment
/// plus the three traced cost axes the planner's frontier dominates
/// over. All three axes are minimised.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorParetoPoint {
    /// One PAF form per slot, in stage order (the form vector).
    pub forms: Vec<PafForm>,
    /// Traced bootstraps of one inference with this vector.
    pub bootstraps: usize,
    /// Exact ciphertext-ciphertext multiplications of one inference.
    pub ct_mults: usize,
    /// Worst-slot sign-approximation error `max_slot max|paf − sign|`
    /// on the accurate range (lower is more faithful).
    pub sign_error: f64,
}

impl VectorParetoPoint {
    fn dominated_by(&self, other: &VectorParetoPoint) -> bool {
        other.bootstraps <= self.bootstraps
            && other.ct_mults <= self.ct_mults
            && other.sign_error <= self.sign_error
            && (other.bootstraps < self.bootstraps
                || other.ct_mults < self.ct_mults
                || other.sign_error < self.sign_error)
    }
}

/// Returns the indices of the Pareto-optimal form-vector points under
/// three-axis minimisation (no other point is at least as good on all
/// of traced bootstraps, exact ct-mults, and worst-slot sign error,
/// and strictly better on one), sorted by
/// `(bootstraps, ct_mults, sign_error)`.
///
/// Duplicate handling — a candidate list may name a form twice, and
/// discrete traced costs collide constantly:
///
/// - **identical form vectors** are deduplicated *before* frontier
///   construction (only the first occurrence can appear);
/// - points with **identical cost triples** but different vectors keep
///   only the first input index, mirroring the exact-duplicate rule of
///   [`pareto_frontier`].
pub fn vector_pareto_frontier(points: &[VectorParetoPoint]) -> Vec<usize> {
    // Dedupe identical form vectors (first occurrence wins).
    let mut unique: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if !unique.iter().any(|&j| points[j].forms == p.forms) {
            unique.push(i);
        }
    }
    let mut frontier: Vec<usize> = Vec::new();
    'candidates: for &i in &unique {
        for &j in &unique {
            if j != i && points[i].dominated_by(&points[j]) {
                continue 'candidates;
            }
            // Identical cost triple: keep the earliest index only.
            if j < i
                && points[j].bootstraps == points[i].bootstraps
                && points[j].ct_mults == points[i].ct_mults
                && points[j].sign_error == points[i].sign_error
            {
                continue 'candidates;
            }
        }
        frontier.push(i);
    }
    frontier.sort_by(|&a, &b| {
        let ka = (points[a].bootstraps, points[a].ct_mults);
        let kb = (points[b].bootstraps, points[b].ct_mults);
        ka.cmp(&kb).then_with(|| {
            points[a]
                .sign_error
                .partial_cmp(&points[b].sign_error)
                .expect("finite sign error")
                .then(a.cmp(&b))
        })
    });
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(latency_ms: f64, accuracy: f64) -> ParetoPoint {
        ParetoPoint {
            latency_ms,
            accuracy,
        }
    }

    #[test]
    fn dominated_points_excluded() {
        let pts = vec![p(1.0, 0.5), p(2.0, 0.4), p(3.0, 0.9)];
        // (2.0, 0.4) is dominated by (1.0, 0.5).
        assert_eq!(pareto_frontier(&pts), vec![0, 2]);
    }

    #[test]
    fn all_on_frontier_when_tradeoff_monotone() {
        let pts = vec![p(1.0, 0.3), p(2.0, 0.5), p(3.0, 0.7)];
        assert_eq!(pareto_frontier(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn single_point() {
        assert_eq!(pareto_frontier(&[p(5.0, 0.1)]), vec![0]);
    }

    #[test]
    fn equal_latency_keeps_more_accurate() {
        let pts = vec![p(1.0, 0.4), p(1.0, 0.6)];
        assert_eq!(pareto_frontier(&pts), vec![1]);
    }

    #[test]
    fn empty_input() {
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn duplicate_cost_evicts_dominated_point() {
        // Three candidates at identical cost: only the most accurate
        // survives, wherever it sits in the input.
        let pts = vec![p(2.0, 0.7), p(2.0, 0.9), p(2.0, 0.8)];
        assert_eq!(pareto_frontier(&pts), vec![1]);
    }

    #[test]
    fn exact_duplicates_keep_first_index() {
        let pts = vec![p(1.0, 0.5), p(1.0, 0.5)];
        assert_eq!(pareto_frontier(&pts), vec![0]);
    }

    #[test]
    fn duplicate_costs_across_levels() {
        // Trace-priced costs are discrete (bootstraps, ct-mults), so
        // duplicate-cost inputs are the norm: each distinct cost keeps
        // exactly its best point, and equal-accuracy-but-slower points
        // stay dominated.
        let pts = vec![
            p(1.0, 0.2),
            p(1.0, 0.4), // same cost as [0], strictly better: evicts it
            p(2.0, 0.3), // dominated by (1.0, 0.4)
            p(2.0, 0.6),
            p(3.0, 0.6), // equal accuracy, slower: dominated
        ];
        assert_eq!(pareto_frontier(&pts), vec![1, 3]);
    }

    fn v(
        forms: &[PafForm],
        bootstraps: usize,
        ct_mults: usize,
        sign_error: f64,
    ) -> VectorParetoPoint {
        VectorParetoPoint {
            forms: forms.to_vec(),
            bootstraps,
            ct_mults,
            sign_error,
        }
    }

    #[test]
    fn vector_frontier_excludes_dominated_vectors() {
        use PafForm::{Alpha7, MinimaxDeg27, F1G2};
        let pts = vec![
            v(&[F1G2, F1G2], 5, 28, 0.8),
            v(&[MinimaxDeg27, F1G2], 4, 46, 0.8), // dominates [2] on boots
            v(&[Alpha7, Alpha7], 5, 40, 0.8),     // dominated by [0] and [1]
            v(&[MinimaxDeg27, MinimaxDeg27], 4, 100, 0.02), // buys fidelity
        ];
        assert_eq!(vector_pareto_frontier(&pts), vec![1, 3, 0]);
    }

    #[test]
    fn vector_frontier_dedupes_identical_form_vectors() {
        use PafForm::{Alpha7, F1G2};
        // The same vector traced twice must enter the
        // frontier at most once, keeping the first occurrence even
        // when a later duplicate claims a different (stale) cost.
        let pts = vec![
            v(&[F1G2, Alpha7], 3, 20, 0.5),
            v(&[F1G2, Alpha7], 2, 10, 0.1), // duplicate vector: ignored
            v(&[Alpha7, F1G2], 3, 20, 0.4), // equal cost, better error
        ];
        // [1] never enters (duplicate vector), and without it [2]
        // dominates [0] on the error axis at equal discrete cost.
        assert_eq!(vector_pareto_frontier(&pts), vec![2]);
    }

    #[test]
    fn vector_frontier_duplicate_cost_triples_keep_first_index() {
        use PafForm::{Alpha7, F1G2};
        // Distinct vectors, identical discrete costs: exactly one
        // survives (the first), mirroring the 2D exact-duplicate rule.
        let pts = vec![
            v(&[F1G2, Alpha7], 4, 30, 0.5),
            v(&[Alpha7, F1G2], 4, 30, 0.5),
            v(&[F1G2, F1G2], 5, 28, 0.8), // incomparable: stays
        ];
        assert_eq!(vector_pareto_frontier(&pts), vec![0, 2]);
    }

    #[test]
    fn vector_frontier_sorts_by_cost_then_error() {
        use PafForm::{Alpha7, F1G2, F2G2};
        let pts = vec![
            v(&[Alpha7], 2, 11, 0.03),
            v(&[F1G2], 1, 5, 0.76),
            v(&[F2G2], 2, 9, 0.2),
        ];
        // All incomparable; sorted by (bootstraps, ct_mults, error).
        assert_eq!(vector_pareto_frontier(&pts), vec![1, 2, 0]);
    }

    #[test]
    fn vector_frontier_empty_and_single() {
        assert!(vector_pareto_frontier(&[]).is_empty());
        let single = vec![v(&[PafForm::F1G2], 1, 5, 0.7)];
        assert_eq!(vector_pareto_frontier(&single), vec![0]);
    }
}
