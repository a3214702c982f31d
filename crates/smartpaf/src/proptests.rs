//! Property-based tests for the Session planner: planning is
//! deterministic (chosen form *vector* included), exact against brute
//! force, and plan-time traces match run-time measurements even for
//! mixed-form pipelines.

use crate::session::{fidelity, Objective, Session, SessionBuilder, SessionError};
use proptest::prelude::*;
use smartpaf_ckks::CkksParams;
use smartpaf_heinfer::{AtomicOp, LevelSchedule, Tiebreak, TraceReport};
use smartpaf_nn::{Conv2d, Flatten, Linear};
use smartpaf_polyfit::{CompositePaf, PafForm};
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

/// `pools` conv→ReLU→2×2-pool blocks over an 8×8 image (two PAF slots
/// each), then `relus` affine→ReLU blocks over what is left of it.
fn image_builder(seed: u64, pools: usize, relus: usize, scale: f64) -> SessionBuilder {
    let mut rng = Rng64::new(seed);
    let mut b = Session::builder(&[1, 8, 8]);
    let mut side = 8;
    for _ in 0..pools {
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        b = b.affine(conv).relu(scale).maxpool(2, 2, scale);
        side /= 2;
    }
    b = b.affine(Flatten::new());
    let dim = side * side;
    for _ in 0..relus {
        b = b.affine(Linear::new(dim, dim, &mut rng)).relu(scale);
    }
    b
}

/// A trace's key under `tiebreak`, spelled out: refreshes, then
/// ct-mults when they count, then the ops' price.
fn traced_key(trace: &TraceReport, tiebreak: Tiebreak) -> (usize, usize, u128) {
    let products = match tiebreak {
        Tiebreak::Price => 0,
        Tiebreak::ProductsThenPrice => trace.total_ct_mults(),
    };
    (trace.total_bootstraps(), products, trace.total_op_modmuls())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same model / seed / objective ⇒ identical chosen form vector,
    /// frontier, candidate costs, and report: planning (the dynamic
    /// program over form vectors included) has no hidden
    /// nondeterminism.
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
        prop_assert_eq!(a.chosen().forms, b.chosen().forms);
        prop_assert_eq!(a.frontier_indices(), b.frontier_indices());
        prop_assert_eq!(a.candidates(), b.candidates());
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
        prop_assert_eq!(plan.chosen().forms.len(), blocks);
        let traced = plan.chosen().cost.bootstraps;
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

/// Checks the plan `planned` of a pipeline against brute force: every
/// vector of `forms` (the plan's candidates), each installed on `base`
/// — the same pipeline under any form — and traced.
fn assert_plan_is_exact(
    planned: Result<crate::Plan, SessionError>,
    base: &smartpaf_heinfer::HePipeline,
    params: &CkksParams,
    forms: &[PafForm],
    objective: Objective,
) {
    let pafs: Vec<CompositePaf> = forms.iter().map(|&f| CompositePaf::from_form(f)).collect();
    let install = |vector: &[usize]| {
        let vector: Vec<CompositePaf> = vector.iter().map(|&i| pafs[i].clone()).collect();
        base.try_with_pafs(&vector).expect("one form per slot")
    };
    let trace = |vector: &[usize]| match install(vector).trace(params, true) {
        Ok(trace) => Some(trace),
        Err(e) => {
            assert!(e.is_infeasible_form(), "{e}");
            None
        }
    };
    let slots = base.num_paf_stages();
    let uniform: Vec<Option<TraceReport>> =
        (0..forms.len()).map(|i| trace(&vec![i; slots])).collect();
    let plan = match planned {
        Ok(plan) => plan,
        Err(e) => {
            assert!(uniform.iter().all(Option::is_none), "{e}");
            return;
        }
    };

    let tiebreak = match objective {
        Objective::MinBootstraps => Tiebreak::ProductsThenPrice,
        _ => Tiebreak::Price,
    };
    let fidelities: Vec<f64> = pafs.iter().map(fidelity).collect();
    let floor = match objective {
        Objective::MinLatency { max_acc_drop } => {
            let feasible = uniform.iter().zip(&fidelities).filter(|(t, _)| t.is_some());
            let best = feasible.map(|(_, &f)| f).fold(f64::NEG_INFINITY, f64::max);
            best - max_acc_drop.max(0.0)
        }
        _ => f64::NEG_INFINITY,
    };
    let allowed: Vec<usize> = (0..forms.len())
        .filter(|&i| fidelities[i] >= floor)
        .collect();

    // Every vector of the allowed forms, as an odometer over `allowed`.
    let mut best: Option<(usize, usize, u128)> = None;
    let mut digits = vec![0; slots];
    loop {
        let vector: Vec<usize> = digits.iter().map(|&d| allowed[d]).collect();
        if let Some(trace) = trace(&vector) {
            let key = traced_key(&trace, tiebreak);
            best = Some(best.map_or(key, |b| b.min(key)));
        }
        let Some(slot) = digits.iter().position(|&d| d + 1 < allowed.len()) else {
            break;
        };
        digits[slot] += 1;
        digits[..slot].fill(0);
    }
    let chosen = plan.chosen_trace();
    assert_eq!(
        Some(traced_key(chosen, tiebreak)),
        best,
        "{}",
        plan.report()
    );

    // The dynamic program's value, over the uniform runs of the allowed
    // forms, is what the chosen row traced.
    let runs: Vec<Vec<AtomicOp>> = allowed
        .iter()
        .map(|&i| install(&vec![i; slots]).atomic_ops())
        .collect();
    let runs: Vec<&[AtomicOp]> = runs.iter().map(Vec::as_slice).collect();
    let (cut, _) = LevelSchedule::cut_forms(&runs, params, params.depth, params.depth, tiebreak);
    let full = cut.key(Tiebreak::ProductsThenPrice);
    assert_eq!(
        (full.refreshes, full.products, full.price),
        (
            chosen.total_bootstraps(),
            chosen.total_ct_mults(),
            chosen.total_op_modmuls()
        )
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// The planner is exact. On random pipelines of up to four PAF slots
    /// (affine→ReLU and conv→ReLU→2×2-pool blocks), chains of 8 to 18
    /// levels, candidate subsets of up to four forms and all three
    /// objectives, the plan's key is the least of every vector of the
    /// candidates that runs (and the objective allows), each installed
    /// and traced; and the chosen row's traced refreshes, ct-mults and
    /// price are the dynamic program's value.
    #[test]
    fn the_plan_is_the_brute_force_optimum(
        seed in 0u64..500,
        shape in 0usize..8,
        depth in 8usize..19,
        picks in proptest::collection::vec(0usize..6, 1..8),
        pick in 0usize..3,
        drop in 0.0f64..1.0,
        scale in 1.0f64..6.0,
    ) {
        let (pools, relus) = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (2, 0)][shape];
        let mut forms: Vec<PafForm> = Vec::new();
        for i in picks {
            if forms.len() < 4 && !forms.contains(&PafForm::all()[i]) {
                forms.push(PafForm::all()[i]);
            }
        }
        let objective = match pick {
            0 => Objective::MinBootstraps,
            1 => Objective::MinLatency { max_acc_drop: drop },
            _ => Objective::FixedForm(forms[0]),
        };
        if let Objective::FixedForm(form) = objective {
            forms = vec![form];
        }
        let params = CkksParams { depth, ..CkksParams::toy() };
        let builder = || image_builder(seed, pools, relus, scale).params(params.clone());
        // f1∘g2 fits every slot of an 8-level chain, scales included.
        let base = builder()
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("f1∘g2 runs");
        let planned = builder().candidates(&forms).objective(objective).plan();
        assert_plan_is_exact(planned, base.pipeline(), &params, &forms, objective);
    }
}
