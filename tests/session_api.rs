//! Cross-crate tests of the typed-state Session API: trace-priced
//! planning over per-slot form vectors, plan ↔ runtime agreement, and
//! the `heinfer` entry points staying consistent with the session
//! path.

use smartpaf::{Objective, Plan, Session, SessionBuilder};
use smartpaf_ckks::CkksParams;
use smartpaf_heinfer::PipelineBuilder;
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
    // Every op of a run is one ciphertext wide, so the greedy refresh
    // count is monotone in op depth — a cut that works for deeper ops
    // works for shallower ones — and the uniformly shallowest form
    // cannot lose on refreshes (a proptest in heinfer holds the
    // monotonicity). What the trace still decides, and depth would not,
    // is the rest of the cost: all six forms tie at 2 refreshes on the
    // 12-level chain, and exact ct-mults order them differently than
    // depth does.
    let plan = cnn_builder(41)
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("every form fits the toy chain");
    let uniform = |form| {
        let is_uniform = |c: &&smartpaf::PlannedCandidate| c.uniform_form() == Some(form);
        let candidate = plan.candidates().iter().find(is_uniform);
        &candidate.expect("every uniform form is evaluated").cost
    };
    let refreshes = PafForm::all().map(|form| uniform(form).bootstraps);
    assert_eq!(refreshes, [2, 2, 2, 2, 2, 2]);
    let chosen = plan.chosen();
    assert_eq!(chosen.uniform_form(), Some(PafForm::F1G2));
    assert_eq!((chosen.cost.bootstraps, chosen.cost.ct_mults), (2, 21));
    // No vector, uniform or mixed, takes fewer refreshes than the
    // shallowest uniform form.
    assert_eq!(
        plan.candidates().len(),
        PafForm::all().len(),
        "re-recorded from `> 6`: the greedy sweeps traced mixed vectors on the way; the \
         exact optimum is uniform f1∘g2, so only the uniform rows are traced"
    );
    assert!(plan.candidates().iter().all(|c| c.cost.bootstraps >= 2));
    // Depth alone would rank α=7 (7 levels) ahead of f1²∘g1² (9).
    let (squares, alpha7) = (uniform(PafForm::F1SqG1Sq), uniform(PafForm::Alpha7));
    assert!(squares.relu_levels > alpha7.relu_levels);
    assert!(squares.ct_mults < alpha7.ct_mults);
}

#[test]
fn mixed_vectors_win_on_ct_mults_never_on_refreshes() {
    // The per-slot pin. On a 13-level chain the shallowest form fits
    // conv + ReLU + both shifts of the pool in two segments and every
    // other form needs three; by the same monotonicity no mixed vector
    // does better than that.
    let plan = cnn_builder(43)
        .params(CkksParams {
            depth: 13,
            ..CkksParams::toy()
        })
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("every form fits a 13-level chain");
    let uniform: Vec<usize> = plan
        .candidates()
        .iter()
        .filter(|c| c.uniform_form().is_some())
        .map(|c| c.cost.bootstraps)
        .collect();
    assert_eq!(uniform, [1, 2, 2, 2, 2, 2]);
    assert!(plan.candidates().iter().all(|c| c.cost.bootstraps >= 1));
    assert_eq!(plan.chosen().uniform_form(), Some(PafForm::F1G2));

    // What the greedy sweep can still find is ct-mults at equal
    // refreshes, when the shallowest candidate is not the cheapest: of
    // f1²∘g1² (9 levels, 9 ct-mults) and α=7 (7 levels, 13) on 15
    // levels only an α=7 pool folds in one segment, and the ReLU
    // before it is cheaper as f1²∘g1².
    let plan = cnn_builder(43)
        .params(CkksParams {
            depth: 15,
            ..CkksParams::toy()
        })
        .candidates(&[PafForm::F1SqG1Sq, PafForm::Alpha7])
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("both forms fit a 15-level chain");
    assert_eq!(plan.chosen().forms, [PafForm::F1SqG1Sq, PafForm::Alpha7]);
    let chosen = &plan.chosen().cost;
    assert_eq!((chosen.bootstraps, chosen.ct_mults), (1, 35));
    let best_uniform = plan
        .candidates()
        .iter()
        .filter(|c| c.uniform_form().is_some())
        .map(|c| (c.cost.bootstraps, c.cost.ct_mults))
        .min()
        .expect("uniform candidates evaluated");
    assert_eq!(best_uniform, (1, 39));

    // The compiled session executes the mixed vector: measured
    // bootstraps equal the traced count, and the encrypted output
    // agrees with the plain backend within CKKS noise.
    let traced = plan.chosen().cost.bootstraps;
    let forms = plan.chosen().forms.to_vec();
    let mut session = plan.compile().expect("toy ring compiles");
    assert_eq!(session.chosen().forms, &forms[..]);
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
    let traced = plan.chosen().cost.bootstraps;
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
    // A session's candidate rows are the pipeline layer's own dry runs:
    // building the one-ReLU pipeline by hand through `PipelineBuilder`
    // and tracing it gives the cost row and the trace the plan carries.
    let forms = [PafForm::F1G2, PafForm::Alpha7, PafForm::MinimaxDeg27];
    let plan = Session::builder(&[4])
        .relu(1.0)
        .params(CkksParams::toy())
        .candidates(&forms)
        .objective(Objective::MinBootstraps)
        .plan()
        .expect("plannable");
    assert_eq!(plan.candidates().len(), forms.len());
    for (candidate, form) in plan.candidates().iter().zip(forms) {
        assert_eq!(candidate.uniform_form(), Some(form));
        let paf = CompositePaf::from_form(form);
        let pipe = PipelineBuilder::new(&[4])
            .paf_relu(&paf, 1.0)
            .try_compile()
            .expect("compiles");
        let trace = pipe.trace(&CkksParams::toy(), true).expect("all fit");
        assert_eq!(
            candidate.cost.bootstraps,
            trace.total_bootstraps(),
            "{form}"
        );
        assert_eq!(candidate.cost.ct_mults, trace.total_ct_mults(), "{form}");
        assert_eq!(candidate.cost.relu_levels, paf.mult_depth() + 1, "{form}");
        assert_eq!(candidate.trace, trace, "{form}");
    }
    assert_eq!(plan.chosen().uniform_form(), Some(PafForm::F1G2));
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
    // rotations and decompositions are the numbers a top-of-chain entry
    // produces, also when priced at 32 lanes (the CNN's pool folds on
    // one ciphertext: 2 refreshes under every form).
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
    // (form, CNN refreshes, CNN (ct-mults, relins), MLP refreshes,
    // MLP (ct-mults, relins)) — a stage relinearises the sum of its
    // terms once, so the second count is the smaller.
    let recorded = [
        (PafForm::F1G2, 2, (21, 18), 0, (7, 6)),
        (PafForm::F2G2, 2, (27, 21), 0, (9, 7)),
        (PafForm::F2G3, 2, (33, 24), 0, (11, 8)),
        (PafForm::Alpha7, 2, (39, 27), 0, (13, 9)),
        (PafForm::F1SqG1Sq, 2, (27, 27), 0, (9, 9)),
        (PafForm::MinimaxDeg27, 2, (75, 48), 1, (25, 16)),
    ];
    assert_eq!(recorded.map(|row| row.0), PafForm::all());
    // The 32-lane (rotations, decompositions) are the one-lane pairs:
    // lanes are interleaved, so an expanded affine keeps its base
    // matrix's diagonals and split.
    for (form, cnn_refreshes, cnn_products, mlp_refreshes, mlp_products) in recorded {
        for (plan, refreshes, products, key_switches, key_switches_32) in [
            (cnn(form), cnn_refreshes, cnn_products, (21, 14), (21, 14)),
            (mlp(form), mlp_refreshes, mlp_products, (12, 8), (12, 8)),
        ] {
            let trace = plan.chosen_trace();
            assert_eq!(trace.total_bootstraps(), refreshes, "{form}");
            assert_eq!(
                (trace.total_ct_mults(), trace.total_relins()),
                products,
                "{form}"
            );
            assert_eq!(
                (trace.total_rotations(), trace.total_decompositions()),
                key_switches,
                "{form}"
            );
            let packed = plan
                .pipeline()
                .expand_lanes(32)
                .trace(plan.params(), true)
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
            assert_eq!(plan.input_level(), trace.stages[0].level_in());
            assert!(plan.input_level() <= plan.params().depth);
        }
    }
    // Relinearisations are priced, so the forms they spare most move
    // up: f1²∘g1² — four degree-3 stages with one term each, nothing
    // to share — was priced third on the CNN and is now fifth, behind
    // f2∘g3 and α=7 (which sheds 12 of its 39).
    let priced = PafForm::all().map(|form| cnn(form).chosen().priced_ms);
    assert!(priced.windows(2).all(|w| w[0] < w[1]), "{priced:?}");
    // The benchmark's CNN under f1∘g2 is conv + ReLU, the pool's first
    // shift, and its second shift with the linear head: segments of 7,
    // 6 and 7 levels.
    let op_levels = |plan: Plan| -> Vec<Vec<usize>> {
        let stages = plan.chosen_trace().stages.iter();
        stages.map(|s| s.op_levels.clone()).collect()
    };
    assert_eq!(
        op_levels(cnn(PafForm::F1G2)),
        [vec![7], vec![6], vec![6, 7], vec![1]],
        "re-recorded from [7, 6, 12, 1]: the second refresh falls between the pool's \
         shifts, not after them — the same two refreshes, and the first max runs on 7 \
         limbs instead of 13"
    );
    assert_eq!(
        op_levels(mlp(PafForm::F1G2)),
        [vec![8], vec![7], vec![1]],
        "one segment, no cut to place: unmoved"
    );
}

#[test]
fn benchmark_models_keep_their_plain_outputs() {
    // A 2×2 pool's rotate-and-max fold is max(max(a, b), max(c, d)),
    // the tree a fold of four window taps takes: the plaintext
    // reference of the two benchmark models is what that arrangement
    // computed (recorded at its last commit), up to the summation order
    // of the linear head that absorbs the pool's selection.
    let x: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64 / 6.5 - 1.0).collect();
    let mut rng = Rng64::new(9001);
    let cnn = Session::builder(&[1, 8, 8])
        .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
        .relu(4.0)
        .maxpool(2, 2, 4.0)
        .affine(Flatten::new())
        .affine(Linear::new(16, 16, &mut rng))
        .params(CkksParams::default_params())
        .objective(Objective::FixedForm(PafForm::F1G2))
        .plan()
        .expect("plannable");
    let mut rng = Rng64::new(9001);
    let mlp = Session::builder(&[16])
        .affine(Linear::new(16, 16, &mut rng))
        .relu(2.0)
        .affine(Linear::new(16, 4, &mut rng))
        .params(CkksParams::toy())
        .objective(Objective::FixedForm(PafForm::F1G2))
        .plan()
        .expect("plannable");
    let recorded_cnn = [
        3.389291840617303,
        0.3551776805826,
        2.3141658875861655,
        2.7802023507968814,
        1.0501163607614408,
        0.24236459555210538,
        0.9635300065710699,
        1.8016931361379904,
        -0.9046821494189243,
        -0.47613368166827497,
        0.5579821783568257,
        -1.1293034671555766,
        0.46478810341249205,
        0.10541254833306765,
        0.48590568779101884,
        2.899982467586825,
    ];
    let recorded_mlp = [
        -1.7123111558647321,
        1.2603164864543213,
        0.5122876972527991,
        -0.4590569778422804,
    ];
    for (got, want) in [
        (cnn.pipeline().eval_plain(&x), &recorded_cnn[..]),
        (mlp.pipeline().eval_plain(&x[..16]), &recorded_mlp[..]),
    ] {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }
    // The pool compiled away into its neighbours: four stages.
    assert_eq!(cnn.pipeline().stages().len(), 4);
}
