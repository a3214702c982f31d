//! Property-based tests for the Session planner: planning is
//! deterministic (chosen form *vector* included), and plan-time traces
//! match run-time measurements even for mixed-form pipelines.

use crate::session::{Objective, Session, SessionBuilder};
use proptest::prelude::*;
use smartpaf_ckks::CkksParams;
use smartpaf_nn::Linear;
use smartpaf_polyfit::PafForm;
use smartpaf_tensor::Rng64;

/// `blocks` affine→ReLU blocks over a flat 4-vector on the toy ring.
fn blocks_builder(blocks: usize, scale: f64, layer_seed: u64) -> SessionBuilder {
    let mut rng = Rng64::new(layer_seed);
    let mut b = Session::builder(&[4]).params(CkksParams::toy());
    for _ in 0..blocks {
        b = b.affine(Linear::new(4, 4, &mut rng)).relu(scale);
    }
    b
}

fn objective_from(pick: usize, drop: f64) -> Objective {
    match pick % 3 {
        0 => Objective::MinBootstraps,
        1 => Objective::MinLatency { max_acc_drop: drop },
        _ => Objective::FixedForm(PafForm::F1G2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same model / seed / objective ⇒ identical chosen form vector,
    /// frontier, candidate costs, and report: planning (the greedy
    /// vector search included) has no hidden nondeterminism.
    #[test]
    fn planning_is_deterministic(
        layer_seed in 0u64..500,
        session_seed in 0u64..500,
        blocks in 1usize..4,
        scale in 1.0f64..6.0,
        pick in 0usize..3,
        drop in 0.0f64..1.0,
    ) {
        let objective = objective_from(pick, drop);
        let plan_once = || {
            blocks_builder(blocks, scale, layer_seed)
                .seed(session_seed)
                .objective(objective)
                .plan()
                .expect("the toy chain plans every objective")
        };
        let a = plan_once();
        let b = plan_once();
        prop_assert_eq!(a.chosen_forms(), b.chosen_forms());
        prop_assert_eq!(a.frontier_indices(), b.frontier_indices());
        prop_assert_eq!(a.candidates(), b.candidates());
        prop_assert_eq!(a.pareto_points(), b.pareto_points());
        prop_assert_eq!(a.dry_runs_used(), b.dry_runs_used());
        prop_assert_eq!(a.report().as_str(), b.report().as_str());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The plan's traced bootstrap count (and per-stage level schedule)
    /// equals what the compiled session measures on an encrypted run —
    /// under the searched MinBootstraps objective, whose chosen vector
    /// may well be mixed.
    #[test]
    fn traced_bootstraps_match_measured(
        layer_seed in 0u64..500,
        blocks in 1usize..4,
        scale in 1.0f64..6.0,
        x0 in -1.0f64..1.0,
    ) {
        let plan = blocks_builder(blocks, scale, layer_seed)
            .candidates(&[PafForm::F1G2, PafForm::Alpha7, PafForm::MinimaxDeg27])
            .objective(Objective::MinBootstraps)
            .plan()
            .expect("the toy chain plans min-bootstraps");
        prop_assert_eq!(plan.chosen_forms().len(), blocks);
        let traced = plan.traced_bootstraps();
        let stage_levels: Vec<usize> =
            plan.chosen_trace().stages.iter().map(|s| s.levels).collect();
        let mut session = plan.compile().expect("the toy ring compiles");
        let x = [x0, -x0, x0 / 2.0, -x0 / 2.0];
        session.infer(&x).expect("serves");
        let stats = session.last_stats().expect("stats recorded");
        prop_assert_eq!(stats.bootstraps, traced);
        prop_assert_eq!(&stats.stage_levels, &stage_levels);
    }
}
