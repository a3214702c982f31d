//! Cross-crate tests of the typed-state Session API: trace-priced
//! planning over per-slot form vectors, plan ↔ runtime agreement, and
//! the delegating old entry points staying consistent with the
//! session path.

use smartpaf::{Objective, PlanBudget, Session, SessionBuilder};
use smartpaf_ckks::CkksParams;
use smartpaf_nn::{Conv2d, Flatten, Linear};
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Rng64;

/// The MNIST-scale ablation pipeline: conv → ReLU → 2×2 maxpool →
/// linear head over an 8×8 image.
fn cnn_builder(seed: u64) -> SessionBuilder {
    let mut rng = Rng64::new(seed);
    Session::builder(&[1, 8, 8])
        .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .relu(6.0)
        .maxpool(2, 2, 8.0)
        .affine(Flatten::new())
        .affine(Linear::new(32, 10, &mut rng))
        .params(CkksParams::toy())
        .seed(seed)
}

#[test]
fn plan_selects_by_traced_cost_not_depth_alone() {
    // On the deep conv+pool pipeline every form bootstraps, and the
    // *deepest* form seeds min-bootstraps: the 27-degree comparator's
    // fold refreshes less often per round than the shallow forms. A
    // depth-ranked search would pick f1∘g2; the trace oracle must not.
    let plan = cnn_builder(41)
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("every form fits the toy chain");
    let chosen = plan.chosen();
    let f1g2 = plan
        .candidates()
        .iter()
        .find(|c| c.uniform_form() == Some(PafForm::F1G2))
        .expect("uniform f1∘g2 among the candidates");
    assert!(
        chosen.cost.bootstraps < f1g2.cost.bootstraps,
        "chosen {:?} must beat the shallowest form {:?} on traced bootstraps",
        chosen.cost,
        f1g2.cost
    );
    assert!(
        chosen.cost.relu_levels > f1g2.cost.relu_levels,
        "the traced winner is deeper than the depth-ranked winner"
    );
    // The depth-ranked pick would be the unique minimal-depth form.
    let min_depth = plan
        .candidates()
        .iter()
        .map(|c| c.cost.relu_levels)
        .min()
        .expect("non-empty");
    assert_ne!(chosen.cost.relu_levels, min_depth);
}

#[test]
fn mixed_vector_strictly_beats_the_best_uniform_form() {
    // The per-slot pin (the vector analogue of the depth-vs-trace pin
    // above): on a 13-level chain the deep comparator ReLU leaves the
    // chain empty right before the pool — a cheap refresh of one
    // ciphertext — while its own fold wastes levels and the shallow
    // forms force a refresh of every fold operand. Brute force over
    // all 6² vectors says best uniform = 3 bootstraps, best mixed
    // ([α=10 ReLU, f1∘g2 pool]) = 2. The planner's greedy sweep must
    // find a strictly better mixed vector from the uniform seed.
    let plan = cnn_builder(43)
        .params(CkksParams {
            depth: 13,
            ..CkksParams::toy()
        })
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("every form fits a 13-level chain");
    let best_uniform = plan
        .candidates()
        .iter()
        .filter(|c| c.uniform_form().is_some())
        .map(|c| c.cost.bootstraps)
        .min()
        .expect("uniform candidates evaluated");
    let chosen = plan.chosen();
    assert!(
        chosen.uniform_form().is_none(),
        "the winner must be a genuinely mixed vector, got {:?}",
        plan.chosen_forms()
    );
    assert!(
        chosen.cost.bootstraps < best_uniform,
        "mixed vector {:?} ({} bootstraps) must strictly beat the best \
         uniform form ({best_uniform} bootstraps)",
        plan.chosen_forms(),
        chosen.cost.bootstraps
    );

    // The compiled session executes the mixed vector: measured
    // bootstraps equal the traced count, and the encrypted output
    // agrees with the plain backend within CKKS noise.
    let traced = plan.traced_bootstraps();
    let forms = plan.chosen_forms().to_vec();
    let mut session = plan.compile().expect("toy ring compiles");
    assert_eq!(session.chosen_forms(), &forms[..]);
    let x: Vec<f64> = (0..64).map(|i| ((i % 9) as f64 - 4.0) / 4.0).collect();
    let enc = session.infer(&x).expect("serves the mixed vector");
    let plain = session.infer_plain(&x).expect("valid input");
    for (e, p) in enc.iter().zip(&plain) {
        assert!((e - p).abs() < 0.2, "{e} vs {p}");
    }
    let stats = session.last_stats().expect("stats recorded");
    assert_eq!(stats.bootstraps, traced, "plan-time vs measured bootstraps");
}

#[test]
fn uniform_budget_matches_the_searched_plan_prefix() {
    // PlanBudget::uniform() is the legacy single-form planner; its
    // candidate rows must price byte-identically to the uniform prefix
    // of the searched plan on the same pipeline.
    let uniform = cnn_builder(47)
        .budget(PlanBudget::uniform())
        .plan()
        .expect("plannable");
    let searched = cnn_builder(47).plan().expect("plannable");
    assert!(uniform
        .candidates()
        .iter()
        .all(|c| c.uniform_form().is_some()));
    for (u, s) in uniform
        .candidates()
        .iter()
        .zip(searched.candidates().iter())
    {
        assert_eq!(u, s);
    }
}

#[test]
fn traced_plan_cost_matches_measured_encrypted_run() {
    // Three ReLU blocks exceed the toy chain, so the plan predicts
    // real bootstraps — and one encrypted run must measure exactly
    // that schedule.
    let mut rng = Rng64::new(42);
    let mut b = Session::builder(&[4]).params(CkksParams::toy()).seed(42);
    for _ in 0..3 {
        b = b.affine(Linear::new(4, 4, &mut rng)).relu(2.0);
    }
    let plan = b
        .objective(Objective::FixedForm(PafForm::F1G2))
        .plan()
        .expect("f1∘g2 fits the toy chain");
    let traced = plan.traced_bootstraps();
    assert!(traced >= 1, "the deep pipeline must force bootstraps");
    let trace_levels: Vec<usize> = plan
        .chosen_trace()
        .stages
        .iter()
        .map(|s| s.levels)
        .collect();

    let mut session = plan.compile().expect("toy ring compiles");
    let x = [0.2, -0.4, 0.6, -0.8];
    let enc = session.infer(&x).expect("serves");
    let plain = session.infer_plain(&x).expect("valid input");
    for (e, p) in enc.iter().zip(&plain) {
        assert!((e - p).abs() < 0.15, "{e} vs {p}");
    }
    let stats = session.last_stats().expect("stats recorded").clone();
    assert_eq!(stats.bootstraps, traced, "plan-time vs measured bootstraps");
    assert_eq!(stats.stage_levels, trace_levels);

    // The batch path measures the same schedule per input.
    let run = session
        .infer_batch(&[x.to_vec(), x.to_vec()])
        .expect("batch");
    for s in &run.stats {
        assert_eq!(s.bootstraps, traced);
        assert_eq!(s.stage_levels, stats.stage_levels);
    }
}

#[test]
fn session_agrees_with_legacy_entry_points() {
    // The session's canonical-probe ranking and the legacy
    // `rank_forms_by_dry_run` wrapper must agree on cost rows for the
    // single-ReLU probe pipeline they share.
    let forms = [PafForm::F1G2, PafForm::Alpha7, PafForm::MinimaxDeg27];
    let ranked = smartpaf::rank_forms_by_dry_run(&forms, 12).expect("all fit");
    let plan = Session::builder(&[4])
        .relu(1.0)
        .params(CkksParams::toy())
        .candidates(&forms)
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("plannable");
    for cost in &ranked {
        let candidate = plan
            .candidates()
            .iter()
            .find(|c| c.uniform_form() == Some(cost.form))
            .expect("every ranked form was planned");
        assert_eq!(candidate.cost.bootstraps, cost.bootstraps, "{}", cost.form);
        assert_eq!(candidate.cost.ct_mults, cost.ct_mults, "{}", cost.form);
        assert_eq!(
            candidate.cost.relu_levels, cost.relu_levels,
            "{}",
            cost.form
        );
    }
    assert_eq!(plan.chosen_form(), ranked[0].form);
}

#[test]
fn default_candidates_honour_the_chain_depth() {
    // An 8-level chain silently drops the two deepest forms from the
    // default candidate set, matching the polyfit enumeration helper.
    let mut rng = Rng64::new(43);
    let plan = Session::builder(&[4])
        .affine(Linear::new(4, 4, &mut rng))
        .relu(2.0)
        .params(CkksParams {
            depth: 8,
            ..CkksParams::toy()
        })
        .plan()
        .expect("four forms fit 8 levels");
    let planned: Vec<PafForm> = plan
        .candidates()
        .iter()
        .map(|c| c.uniform_form().expect("one-slot plans stay uniform"))
        .collect();
    assert_eq!(planned, CompositePaf::candidate_forms(8));
    assert!(!planned.contains(&PafForm::MinimaxDeg27));
}

#[test]
fn level_schedule_moves_entry_levels_and_no_count() {
    // Entering each refresh-free segment at exactly what it consumes
    // changes the level every stage runs at and nothing else: on the
    // two benchmark models, for every form, refreshes, ct-mults,
    // rotations and decompositions are the numbers the top-of-chain
    // entry produced (recorded at the commit before the schedule), also
    // when priced at 32 lanes.
    let cnn = |form| {
        let mut rng = Rng64::new(9001);
        Session::builder(&[1, 8, 8])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .relu(4.0)
            .maxpool(2, 2, 4.0)
            .affine(Flatten::new())
            .affine(Linear::new(16, 16, &mut rng))
            .params(CkksParams::default_params())
            .objective(Objective::FixedForm(form))
            .plan()
            .expect("every form runs on the default chain with refreshes")
    };
    let mlp = |form| {
        let mut rng = Rng64::new(9001);
        Session::builder(&[16])
            .affine(Linear::new(16, 16, &mut rng))
            .relu(2.0)
            .affine(Linear::new(16, 4, &mut rng))
            .params(CkksParams::toy())
            .objective(Objective::FixedForm(form))
            .plan()
            .expect("every form runs on the toy chain with refreshes")
    };
    // (form, CNN refreshes, CNN ct-mults, MLP refreshes, MLP ct-mults)
    let recorded = [
        (PafForm::F1G2, 5, 28, 0, 7),
        (PafForm::F2G2, 6, 36, 0, 9),
        (PafForm::F2G3, 6, 44, 0, 11),
        (PafForm::Alpha7, 6, 52, 0, 13),
        (PafForm::F1SqG1Sq, 6, 36, 0, 9),
        (PafForm::MinimaxDeg27, 4, 100, 1, 25),
    ];
    assert_eq!(recorded.map(|row| row.0), PafForm::all());
    for (form, cnn_refreshes, cnn_ct_mults, mlp_refreshes, mlp_ct_mults) in recorded {
        for (plan, refreshes, ct_mults, key_switches, key_switches_32) in [
            (cnn(form), cnn_refreshes, cnn_ct_mults, (40, 27), (95, 18)),
            (mlp(form), mlp_refreshes, mlp_ct_mults, (12, 8), (48, 6)),
        ] {
            let trace = plan.chosen_trace();
            assert_eq!(trace.total_bootstraps(), refreshes, "{form}");
            assert_eq!(trace.total_ct_mults(), ct_mults, "{form}");
            assert_eq!(
                (trace.total_rotations(), trace.total_decompositions()),
                key_switches,
                "{form}"
            );
            let (packed, _) = plan
                .pipeline()
                .dry_run_lanes(plan.params().depth, true, 32)
                .expect("lanes change no level");
            assert_eq!(
                (packed.total_rotations(), packed.total_decompositions()),
                key_switches_32,
                "{form} at 32 lanes"
            );
            assert_eq!(packed.total_bootstraps(), refreshes, "{form} at 32 lanes");
            // What did move: the run ends on its last limb, and the
            // request enters on as many as its first segment consumes.
            assert_eq!(trace.final_level, 0, "{form}");
            assert_eq!(plan.input_level(), trace.stages[0].level_in);
            assert!(plan.input_level() <= plan.params().depth);
        }
    }
    // The benchmark's CNN under f1∘g2: segments of 9, 12 and 1 levels
    // where every one used to be entered at 12.
    let levels_in: Vec<usize> = cnn(PafForm::F1G2)
        .chosen_trace()
        .stages
        .iter()
        .map(|s| s.level_in)
        .collect();
    assert_eq!(levels_in, [9, 8, 1, 1]);
    let levels_in: Vec<usize> = mlp(PafForm::F1G2)
        .chosen_trace()
        .stages
        .iter()
        .map(|s| s.level_in)
        .collect();
    assert_eq!(levels_in, [8, 7, 1]);
}
