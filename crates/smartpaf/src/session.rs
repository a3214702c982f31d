//! The typed-state `Session` API: **plan → compile → serve**.
//!
//! SmartPAF's end-to-end story — pick a composite PAF form on the
//! accuracy/latency Pareto frontier, then run encrypted inference with
//! it — walks one path behind one three-state builder:
//!
//! ```text
//!   SessionBuilder ──plan()──► Plan ──compile()──► CompiledSession
//!   stages, params,            chosen form vector, keys + engines:
//!   objective,                 chosen_trace,       infer / infer_batch /
//!   candidate forms            traced frontier,    infer_batch_packed
//!                              PlanReport
//! ```
//!
//! Each arrow consumes the previous state, so the type system enforces
//! the order: you cannot serve before compiling and you cannot compile
//! before planning. Planning chooses a per-slot *form vector* (one
//! [`FormId`] per ReLU/maxpool slot, like the paper's per-layer
//! replacement tables) exactly: every candidate form is traced once as
//! a uniform vector by a dry run of the *caller's actual pipeline* —
//! the trace reads the schedule ([`HePipeline::trace`]): forced
//! bootstraps and exact ciphertext multiplications, never
//! multiplicative depth alone — and one dynamic program over those runs
//! ([`LevelSchedule::cut_forms`]) chooses the slots' forms with the
//! refresh positions. Its vector is traced too when it beats every
//! uniform one. The affine segments are probed exactly once
//! ([`HePipeline::try_with_pafs`] swaps form vectors in microseconds),
//! so planning is about a millisecond even at 20 slots and takes no
//! tuning input.
//!
//! Serving has one shape: one layout per session, built by
//! [`Plan::compile`] — the pipeline expanded to
//! [`CompiledSession::lane_capacity`] interleaved lanes
//! ([`LanePacker`]) and a bootstrapper at its dimension. Interleaved
//! lanes run the plan's schedule, keys and encodings, so a request
//! enters at [`Plan::input_level`]. Every request rides that layout as
//! lane groups, one ciphertext each, and only the group size differs:
//! [`CompiledSession::infer`] and [`CompiledSession::infer_batch`]
//! send each input as its own group, leaving the other lanes empty;
//! [`CompiledSession::infer_batch_packed`] fills whole groups.
//!
//! # Example
//!
//! ```
//! use smartpaf::{Objective, Session};
//! use smartpaf_ckks::CkksParams;
//! use smartpaf_nn::Linear;
//! use smartpaf_tensor::Rng64;
//!
//! let mut rng = Rng64::new(7);
//! let plan = Session::builder(&[8])
//!     .affine(Linear::new(8, 8, &mut rng))
//!     .relu(4.0)
//!     .params(CkksParams::toy())
//!     .objective(Objective::MinBootstraps)
//!     .plan()
//!     .unwrap();
//! println!("{}", plan.report());
//! let mut session = plan.compile().unwrap();
//! let x: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) / 4.0).collect();
//! let enc = session.infer(&x).unwrap();
//! let plain = session.infer_plain(&x).unwrap();
//! for (e, p) in enc.iter().zip(&plain) {
//!     assert!((e - p).abs() < 0.1);
//! }
//! ```

use crate::pareto::{vector_pareto_frontier, VectorParetoPoint};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use smartpaf_ckks::cost::bootstrap_modmuls;
use smartpaf_ckks::{Bootstrapper, CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_heinfer::{
    AtomicOp, BatchRun, BatchRunner, HePipeline, LanePacker, LevelSchedule, PipelineBuilder,
    RunError, RunStats, Stage, Tiebreak, TraceReport,
};
use smartpaf_nn::Layer;
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Rng64;
use std::fmt;

/// A per-slot PAF form identifier — one entry of a *form vector*
/// (`Vec<FormId>`, one per ReLU/maxpool slot in stage order). Today
/// every slot draws from the built-in [`PafForm`] set, so this is an
/// alias; it names the planner's per-slot axis.
pub type FormId = PafForm;

/// The assumed cost of one 64-bit modular multiply on a workstation
/// core (order-of-magnitude of the paper's AMD 2990WX) — the single
/// constant behind both the planner's priced frontier and the hybrid
/// crate's Tab. 1 rows. Nothing calibrates it. Against measurement on
/// the benchmark CNN it under-prices the ops ≈ 3.3× and over-prices a
/// refresh ≈ 20× (a refresh is priced as an analytic bootstrap, and
/// what runs is a secret-key recryption).
pub const SECONDS_PER_MODMUL: f64 = 1.2e-9;

/// Accurate-range edge of the fidelity grid (`sign_error` on
/// `[eps, 1]`), the paper's ε.
const FIDELITY_EPS: f64 = 0.05;

/// Sample count of the fidelity grid.
const FIDELITY_SAMPLES: usize = 400;

/// Unified error of planning, compilation, and serving.
///
/// Execution failures ([`RunError`]) pass through unchanged; the
/// planner adds the two failure modes the old entry points could only
/// panic about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A pipeline compilation or execution error from `smartpaf_heinfer`.
    Run(RunError),
    /// The candidate form list was empty.
    NoCandidates,
    /// Every candidate form's atomic depth exceeds the modulus chain —
    /// nothing can run at these parameters, bootstrapping included.
    NoFeasibleForm {
        /// Number of candidate forms tried.
        tried: usize,
        /// Rescale levels the chain offers.
        max_level: usize,
    },
}

impl SessionError {
    /// True when a serving failure may have left the session's runtime
    /// state (worker pool, evaluator clones) in an unknown state —
    /// [`RunError::WorkerPanicked`] today. Such a session must not be
    /// reused; caches evict it so the next request rebuilds
    /// ([`SessionCache::evict_if_poisoned`](crate::SessionCache::evict_if_poisoned)).
    ///
    /// Input-validation errors ([`RunError::InputTooLong`], …) and
    /// deterministic structural errors are *not* poisoning: retrying
    /// the same session is safe, and evicting on them would let one
    /// misbehaving client force a full plan + keygen per bad request.
    ///
    /// # Example
    ///
    /// ```
    /// use smartpaf::SessionError;
    /// use smartpaf_heinfer::RunError;
    ///
    /// assert!(SessionError::Run(RunError::WorkerPanicked).poisons_session());
    /// assert!(!SessionError::Run(RunError::InputTooLong { len: 9, max: 4 }).poisons_session());
    /// assert!(!SessionError::NoCandidates.poisons_session());
    /// ```
    pub fn poisons_session(&self) -> bool {
        matches!(self, SessionError::Run(RunError::WorkerPanicked))
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Run(e) => write!(f, "{e}"),
            SessionError::NoCandidates => f.write_str("no candidate PAF forms supplied"),
            SessionError::NoFeasibleForm { tried, max_level } => write!(
                f,
                "none of the {tried} candidate form(s) fits a {max_level}-level chain"
            ),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for SessionError {
    fn from(e: RunError) -> Self {
        SessionError::Run(e)
    }
}

/// What the planner optimises when choosing the form vector. Every
/// objective minimises refreshes first: a refresh is never traded for
/// cheaper ops, the rule [`LevelSchedule::cut`] applies within one
/// vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Fewest traced bootstraps, then the cheapest ops at the levels
    /// they are entered at, over the vectors whose every slot takes a
    /// form with sign-approximation fidelity within `max_acc_drop` of
    /// the most accurate uniform candidate's — the worst slot passes
    /// exactly when every slot does.
    MinLatency {
        /// Largest acceptable fidelity drop versus the best candidate,
        /// in absolute `[0, 1]` fidelity units.
        /// [`SessionBuilder::objective`] stores a NaN, negative or
        /// `-0.0` drop as `0.0` (only the best-fidelity candidates
        /// qualify) and one above 1, `+∞` included, as `1.0` (every
        /// candidate qualifies).
        max_acc_drop: f64,
    },
    /// Fewest traced bootstraps, then fewest exact ct-mults, then the
    /// cheapest ops at the levels they are entered at.
    MinBootstraps,
    /// Deploy this form in every slot — still traced, so the
    /// plan carries its cost and the report prices it. Planning fails
    /// with the underlying [`RunError`] when the form cannot run on
    /// the chain at all.
    FixedForm(PafForm),
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::MinLatency { max_acc_drop } => {
                write!(f, "min-latency (max fidelity drop {max_acc_drop})")
            }
            Objective::MinBootstraps => f.write_str("min-bootstraps"),
            Objective::FixedForm(form) => write!(f, "fixed form {form}"),
        }
    }
}

/// Traced deployment cost of one form vector on the caller's pipeline,
/// read off a full-pipeline dry run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorCost {
    /// Bootstraps one inference forces on the chain — by construction
    /// what the compiled session measures on an encrypted run.
    pub bootstraps: usize,
    /// Exact ciphertext-ciphertext multiplications of one inference.
    pub ct_mults: usize,
    /// Deepest per-slot PAF-ReLU level consumption
    /// (`mult_depth() + 1`, maximised over the vector's slots; equals
    /// the single form's value for uniform vectors).
    pub relu_levels: usize,
}

/// Namespace entry point of the typed-state chain;
/// [`Session::builder`] is the one way in.
pub struct Session;

impl Session {
    /// Starts a [`SessionBuilder`] for inputs of the given (batch-free)
    /// shape, e.g. `[3, 8, 8]` for a CHW image or `[16]` for a flat
    /// vector.
    pub fn builder(input_shape: &[usize]) -> SessionBuilder {
        SessionBuilder::new(input_shape)
    }
}

enum StageSpec {
    Affine(Box<dyn Layer>),
    Relu { scale: f64 },
    Max { k: usize, stride: usize, scale: f64 },
}

/// State 1 of the typed-state chain: collects the model stages (affine
/// layers plus PAF activation slots with their static scales), the
/// CKKS parameters, the planning [`Objective`], and the candidate form
/// set. [`SessionBuilder::plan`] consumes it.
pub struct SessionBuilder {
    input_shape: Vec<usize>,
    specs: Vec<StageSpec>,
    params: CkksParams,
    objective: Objective,
    candidates: Option<Vec<PafForm>>,
    seed: u64,
}

/// Everything [`SessionBuilder::plan`] needs after the one-time model
/// probe: the folded base pipeline plus the resolved planning inputs.
/// Shared with [`PlanRegistry::load_plan`], which probes the same way
/// but does not plan.
///
/// [`PlanRegistry::load_plan`]: crate::PlanRegistry::load_plan
pub(crate) struct ProbedModel {
    pub(crate) base: HePipeline,
    pub(crate) forms: Vec<PafForm>,
    pub(crate) params: CkksParams,
    pub(crate) objective: Objective,
    pub(crate) seed: u64,
}

impl SessionBuilder {
    /// Starts a builder for inputs of the given (batch-free) shape.
    /// Defaults: [`CkksParams::default_params`],
    /// [`Objective::MinBootstraps`], every form that fits the chain
    /// ([`CompositePaf::candidate_forms`]), seed 7.
    ///
    /// # Panics
    ///
    /// Panics on an empty or zero-sized shape (same contract as
    /// [`PipelineBuilder::new`]).
    pub fn new(input_shape: &[usize]) -> Self {
        assert!(
            !input_shape.is_empty() && input_shape.iter().all(|&d| d > 0),
            "invalid input shape {input_shape:?}"
        );
        SessionBuilder {
            input_shape: input_shape.to_vec(),
            specs: Vec::new(),
            params: CkksParams::default_params(),
            objective: Objective::MinBootstraps,
            candidates: None,
            seed: 7,
        }
    }

    /// Appends an affine layer (conv / BN / pooling / linear — anything
    /// affine in eval mode; consecutive affine layers fuse into one
    /// probed matrix at plan time).
    pub fn affine(mut self, layer: impl Layer + 'static) -> Self {
        self.specs.push(StageSpec::Affine(Box::new(layer)));
        self
    }

    /// Appends a ReLU slot with static scale `s`; the planner fills in
    /// the PAF form. The `1/s` and `s` multiplications are folded into
    /// neighbouring affine stages where possible.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn relu(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.specs.push(StageSpec::Relu { scale });
        self
    }

    /// Appends a MaxPool slot (`k×k`, stride `stride`) with static
    /// scale `s`; the planner fills in the PAF form.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn maxpool(mut self, k: usize, stride: usize, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.specs.push(StageSpec::Max { k, stride, scale });
        self
    }

    /// Sets the CKKS parameters (ring dimension and modulus chain the
    /// plan is traced against and the compiled session runs under).
    pub fn params(mut self, params: CkksParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the planning objective. A [`Objective::MinLatency`] drop is
    /// normalised into `[0, 1]` — NaN, `-0.0` and negative values
    /// become `0.0`, values above 1 become `1.0` — which plans exactly
    /// as the raw value would (fidelities lie in `[0, 1]`), so the plan
    /// stores, serializes and is content-addressed by the objective
    /// that was planned: every equivalent drop shares one registry
    /// key, and none is written as a non-finite number.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = match objective {
            Objective::MinLatency { max_acc_drop } => Objective::MinLatency {
                // NaN and -0.0 both fail `> 0.0`.
                max_acc_drop: if max_acc_drop > 0.0 {
                    max_acc_drop.min(1.0)
                } else {
                    0.0
                },
            },
            other => other,
        };
        self
    }

    /// Restricts the candidate form set (default: every built-in form
    /// whose ReLU fits the chain). Ignored by
    /// [`Objective::FixedForm`]. An empty set makes
    /// [`SessionBuilder::plan`] fail with
    /// [`SessionError::NoCandidates`].
    pub fn candidates(mut self, forms: &[PafForm]) -> Self {
        self.candidates = Some(forms.to_vec());
        self
    }

    /// Seeds key generation, encryption, and bootstrap re-randomisation
    /// of the compiled session (planning itself is deterministic).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Plans the per-slot form vector in three steps: probes the affine
    /// segments once and traces every candidate form as a uniform
    /// vector ([`HePipeline::try_with_pafs`] + [`HePipeline::trace`],
    /// bootstraps allowed) — the plan's rows and frontier; runs one
    /// dynamic program over those runs ([`LevelSchedule::cut_forms`]),
    /// which finds the [`Objective`]'s optimum over every vector and
    /// every cut exactly; and installs and traces that vector only when
    /// it is strictly better than the best uniform row, which is chosen
    /// otherwise.
    ///
    /// Candidate forms whose uniform vector cannot run at all are
    /// skipped (recorded in the [`PlanReport`]); the dynamic program
    /// still offers them to the slots they fit. Structural pipeline
    /// errors (empty builder, untileable pool, …) surface as
    /// [`SessionError::Run`]. A pipeline with no PAF slot collapses to
    /// a single empty-vector candidate.
    pub fn plan(self) -> Result<Plan, SessionError> {
        plan_probed(self.probe()?)
    }

    /// The shared front half of planning and registry loading: resolves
    /// the candidate form list and probes the affine segments exactly
    /// once (with the first candidate installed; every later vector is
    /// a PAF swap).
    pub(crate) fn probe(self) -> Result<ProbedModel, SessionError> {
        let SessionBuilder {
            input_shape,
            specs,
            params,
            objective,
            candidates,
            seed,
        } = self;
        let forms: Vec<PafForm> = match objective {
            Objective::FixedForm(form) => vec![form],
            _ => match &candidates {
                Some(c) if c.is_empty() => return Err(SessionError::NoCandidates),
                Some(c) => c.clone(),
                None => {
                    let all = CompositePaf::candidate_forms(params.depth);
                    if all.is_empty() {
                        return Err(SessionError::NoFeasibleForm {
                            tried: PafForm::all().len(),
                            max_level: params.depth,
                        });
                    }
                    all
                }
            },
        };

        let first = CompositePaf::from_form(forms[0]);
        let mut builder = PipelineBuilder::new(&input_shape);
        for spec in specs {
            builder = match spec {
                StageSpec::Affine(layer) => builder.affine_boxed(layer),
                StageSpec::Relu { scale } => builder.paf_relu(&first, scale),
                StageSpec::Max { k, stride, scale } => {
                    builder.paf_maxpool(k, stride, &first, scale)
                }
            };
        }
        let base = builder.try_compile()?;
        Ok(ProbedModel {
            base,
            forms,
            params,
            objective,
            seed,
        })
    }
}

/// The planning half of [`SessionBuilder::plan`], over an
/// already-probed model: one trace per candidate form, one dynamic
/// program over all of them, and one more trace when its vector wins.
fn plan_probed(probed: ProbedModel) -> Result<Plan, SessionError> {
    let ProbedModel {
        base,
        forms,
        params,
        objective,
        seed,
    } = probed;
    let num_slots = base.num_paf_stages();
    // A pipeline without PAF slots has one vector, the empty one.
    let tried = if num_slots == 0 {
        &forms[..1]
    } else {
        &forms[..]
    };
    let infos: Vec<FormInfo> = tried.iter().map(|&form| FormInfo::new(form)).collect();
    let pafs = |vector: &[usize]| -> Vec<CompositePaf> {
        vector.iter().map(|&i| infos[i].paf.clone()).collect()
    };

    // Every form as a uniform vector: a row of the plan, and the run
    // the dynamic program draws that form's ops from. `rows[r]` is the
    // form of `planned[r]`.
    let (mut planned, mut rows, mut skipped, mut runs) = (vec![], vec![], vec![], vec![]);
    for (i, info) in infos.iter().enumerate() {
        let vector = vec![i; num_slots];
        let pipeline = base.try_with_pafs(&pafs(&vector))?;
        runs.push(pipeline.atomic_ops());
        match pipeline.trace(&params, true) {
            Ok(trace) => {
                planned.push(PlannedCandidate::traced(&infos, &vector, trace, &params));
                rows.push(i);
            }
            Err(e) if e.is_infeasible_form() && !matches!(objective, Objective::FixedForm(_)) => {
                skipped.push(info.form);
            }
            Err(e) => return Err(e.into()),
        }
    }
    if planned.is_empty() {
        return Err(SessionError::NoFeasibleForm {
            tried: forms.len(),
            max_level: params.depth,
        });
    }
    let mut dry_runs = infos.len();

    // The objective's key, the one the cut is chosen by: refreshes
    // first, then ct-mults for `MinBootstraps`, then price.
    let tiebreak = match objective {
        Objective::MinBootstraps => Tiebreak::ProductsThenPrice,
        _ => Tiebreak::Price,
    };
    let key = |c: &PlannedCandidate| {
        tiebreak.key(
            c.cost.bootstraps,
            c.cost.ct_mults,
            c.trace.total_op_modmuls(),
        )
    };
    // `MinLatency`'s fidelity bound holds per slot: a vector's worst
    // slot is within the drop of the best uniform row exactly when
    // every slot's form is. The builder keeps the drop in [0, 1], so
    // the best row's form always qualifies.
    let floor = match objective {
        Objective::MinLatency { max_acc_drop } => {
            let best = planned
                .iter()
                .map(|c| c.fidelity)
                .fold(f64::NEG_INFINITY, f64::max);
            best - max_acc_drop
        }
        _ => f64::NEG_INFINITY,
    };
    let allowed: Vec<usize> = (0..infos.len())
        .filter(|&i| infos[i].fidelity >= floor)
        .collect();
    let mut chosen = (0..planned.len())
        .filter(|&r| infos[rows[r]].fidelity >= floor)
        .min_by_key(|&r| key(&planned[r]))
        .expect("the best-fidelity row is allowed");

    // The exact optimum over every vector of the allowed forms and
    // every cut of it — complete, because an allowed uniform vector
    // runs. It is traced only when it beats every uniform row.
    let runs: Vec<&[AtomicOp]> = allowed.iter().map(|&i| &runs[i][..]).collect();
    let (cut, stage_forms) =
        LevelSchedule::cut_forms(&runs, &params, params.depth, params.depth, tiebreak);
    let mixed_wins = cut.key(tiebreak) < key(&planned[chosen]);
    let vector: Vec<usize> = if mixed_wins {
        let paf_stages = base.stages().iter().enumerate();
        let paf_stages = paf_stages.filter(|(_, s)| !matches!(s, Stage::Affine { .. }));
        paf_stages
            .map(|(stage, _)| allowed[stage_forms[stage]])
            .collect()
    } else {
        vec![rows[chosen]; num_slots]
    };
    let chosen_composites = pafs(&vector);
    let pipeline = base.try_with_pafs(&chosen_composites)?;
    if mixed_wins {
        let trace = pipeline.trace(&params, true)?;
        dry_runs += 1;
        planned.push(PlannedCandidate::traced(&infos, &vector, trace, &params));
        chosen = planned.len() - 1;
        debug_assert_eq!(key(&planned[chosen]), cut.key(tiebreak));
    }
    let body = PlanBody {
        params,
        objective,
        candidate_forms: forms,
        candidates: planned,
        chosen,
        chosen_composites,
        skipped,
        dry_runs,
    };
    Ok(Plan::assemble(pipeline, body, seed))
}

/// The sign-approximation fidelity of a composite,
/// `1 − max|paf − sign|` on the accurate range `[ε, 1]`: the
/// frontier's accuracy axis.
pub(crate) fn fidelity(paf: &CompositePaf) -> f64 {
    1.0 - paf.sign_error(FIDELITY_EPS, FIDELITY_SAMPLES)
}

/// Everything the planner knows about one candidate form: the
/// composite and its fidelity. The prepared engine belongs to the
/// stages [`HePipeline::try_with_pafs`] installs the composite in.
struct FormInfo {
    form: PafForm,
    paf: CompositePaf,
    fidelity: f64,
}

impl FormInfo {
    fn new(form: PafForm) -> Self {
        let paf = CompositePaf::from_form(form);
        FormInfo {
            form,
            fidelity: fidelity(&paf),
            paf,
        }
    }
}

/// One feasible form vector as the planner evaluated it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCandidate {
    /// One PAF form per slot, in stage order (uniform candidates
    /// repeat a single form; empty for a pipeline without PAF slots).
    pub forms: Vec<FormId>,
    /// Traced deployment cost of the caller's pipeline with this
    /// vector.
    pub cost: VectorCost,
    /// The full per-stage trace the cost was read from (per-slot rows
    /// via [`TraceReport::paf_slots`]).
    pub trace: TraceReport,
    /// Worst-slot sign-approximation fidelity
    /// `1 − max_slot max|paf − sign|` on the accurate range (the
    /// frontier's accuracy axis).
    pub fidelity: f64,
    /// Analytic price of the traced schedule in milliseconds (the
    /// frontier's latency axis).
    pub priced_ms: f64,
}

impl PlannedCandidate {
    /// The row of `vector` (indices into `infos`, one per slot), read
    /// off its trace.
    fn traced(
        infos: &[FormInfo],
        vector: &[usize],
        trace: TraceReport,
        params: &CkksParams,
    ) -> Self {
        let slots = || vector.iter().map(|&i| &infos[i]);
        PlannedCandidate {
            forms: slots().map(|info| info.form).collect(),
            cost: VectorCost {
                bootstraps: trace.total_bootstraps(),
                ct_mults: trace.total_ct_mults(),
                relu_levels: slots()
                    .map(|info| info.paf.mult_depth() + 1)
                    .max()
                    .unwrap_or(0),
            },
            fidelity: slots().map(|info| info.fidelity).fold(1.0, f64::min),
            priced_ms: trace_price_ms(params, &trace),
            trace,
        }
    }

    /// The row the planner records for the form vector `forms` with
    /// this trace: one [`FormInfo`] per distinct form.
    pub(crate) fn traced_forms(forms: &[FormId], trace: TraceReport, params: &CkksParams) -> Self {
        let mut infos: Vec<FormInfo> = Vec::new();
        let vector: Vec<usize> = forms
            .iter()
            .map(
                |&form| match infos.iter().position(|info| info.form == form) {
                    Some(i) => i,
                    None => {
                        infos.push(FormInfo::new(form));
                        infos.len() - 1
                    }
                },
            )
            .collect();
        Self::traced(&infos, &vector, trace, params)
    }

    /// See [`Plan::input_level`].
    fn input_level(&self) -> usize {
        let first = self.trace.stages.first();
        first.expect("a planned pipeline has a stage").level_in()
    }

    /// The single form when every slot agrees (`None` for genuinely
    /// mixed vectors and for pipelines without PAF slots).
    pub fn uniform_form(&self) -> Option<PafForm> {
        let first = *self.forms.first()?;
        self.forms.iter().all(|&f| f == first).then_some(first)
    }

    /// Human-readable name of the vector: the paper name for uniform
    /// vectors, a compact per-slot list (`[α=10|f1∘g2]`) for mixed
    /// ones.
    pub fn label(&self) -> String {
        match self.uniform_form() {
            Some(f) => f.paper_name().to_string(),
            None if self.forms.is_empty() => "(no PAF slots)".to_string(),
            None => {
                let names: Vec<&str> = self.forms.iter().map(|f| f.short_name()).collect();
                format!("[{}]", names.join("|"))
            }
        }
    }
}

/// State 2 of the typed-state chain: the outcome of planning — chosen
/// form vector, the frontier, every traced candidate's cost, and a
/// human-readable [`PlanReport`].
/// [`Plan::compile`] consumes it.
pub struct Plan {
    /// What a registry artifact stores.
    body: PlanBody,
    /// The probed model with `body.chosen_composites` installed.
    pipeline: HePipeline,
    frontier: Vec<usize>,
    seed: u64,
    report: PlanReport,
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // HePipeline holds prepared engines without a Debug form; show
        // the planning outcome instead.
        f.debug_struct("Plan")
            .field("chosen", &self.chosen().forms)
            .field("objective", &self.body.objective)
            .field("candidates", &self.body.candidates)
            .field("frontier", &self.frontier)
            .field("skipped", &self.body.skipped)
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// Derives the frontier and report from the traced candidates and
    /// assembles the plan — the one constructor shared by the planner
    /// ([`SessionBuilder::plan`]) and the registry
    /// ([`PlanRegistry::load_plan`], with `dry_runs` 0: a loaded plan
    /// traced nothing to plan in this process). `pipeline` is the
    /// probed model with the body's chosen composites installed.
    ///
    /// [`PlanRegistry::load_plan`]: crate::PlanRegistry::load_plan
    pub(crate) fn assemble(pipeline: HePipeline, body: PlanBody, seed: u64) -> Plan {
        let vector_points: Vec<VectorParetoPoint> = body
            .candidates
            .iter()
            .map(|c| VectorParetoPoint {
                forms: c.forms.clone(),
                bootstraps: c.cost.bootstraps,
                ct_mults: c.cost.ct_mults,
                sign_error: 1.0 - c.fidelity,
            })
            .collect();
        let frontier = vector_pareto_frontier(&vector_points);
        let report = PlanReport::render(
            &body.objective,
            &body.params,
            &pipeline,
            &body.candidates,
            &frontier,
            body.chosen,
            &body.skipped,
            body.dry_runs,
        );
        Plan {
            body,
            pipeline,
            frontier,
            seed,
            report,
        }
    }

    /// The chosen candidate: one [`FormId`] per PAF slot in stage order
    /// (a uniform plan's single form is
    /// [`PlannedCandidate::uniform_form`]), its traced cost, trace,
    /// fidelity, price and label.
    pub fn chosen(&self) -> &PlannedCandidate {
        &self.body.candidates[self.body.chosen]
    }

    /// Full per-stage trace of the chosen vector on the parameter
    /// chain — level schedule, bootstraps, exact ct-mults, per-slot
    /// rows via [`TraceReport::paf_slots`].
    pub fn chosen_trace(&self) -> &TraceReport {
        &self.body.candidates[self.body.chosen].trace
    }

    /// The level the chosen vector's schedule enters its first stage
    /// at: all its first refresh-free segment consumes, so all a request
    /// ciphertext needs to carry (`input_level() + 1` limbs).
    pub fn input_level(&self) -> usize {
        self.body.candidates[self.body.chosen].input_level()
    }

    /// Every vector traced that runs: the uniform vectors in candidate
    /// order, then the dynamic program's mixed vector when it is
    /// strictly better than all of them.
    pub fn candidates(&self) -> &[PlannedCandidate] {
        &self.body.candidates
    }

    /// Indices (into [`Plan::candidates`]) of the Pareto-optimal
    /// vectors under three-axis dominance — traced bootstraps, exact
    /// ct-mults, worst-slot sign error
    /// ([`vector_pareto_frontier`]) — sorted cheapest-first, with
    /// duplicate form vectors deduplicated.
    pub fn frontier_indices(&self) -> &[usize] {
        &self.frontier
    }

    /// Candidate forms skipped because their *uniform* vector cannot
    /// run on the chain at all.
    pub fn skipped_forms(&self) -> &[PafForm] {
        &self.body.skipped
    }

    /// The objective the plan optimised.
    pub fn objective(&self) -> Objective {
        self.body.objective
    }

    /// Trace dry runs the planner spent: one per candidate form, plus
    /// one when a mixed vector wins (a pipeline without PAF slots
    /// traces its one vector once); 0 for a plan loaded from a
    /// registry.
    pub fn dry_runs_used(&self) -> usize {
        self.body.dry_runs
    }

    /// The resolved candidate form list every slot draws from
    /// (explicit [`SessionBuilder::candidates`], or every form fitting
    /// the chain) — part of the registry's content address, because it
    /// changes what the planner can choose.
    pub fn candidate_forms(&self) -> &[PafForm] {
        &self.body.candidate_forms
    }

    /// The CKKS parameters the plan was traced against.
    pub fn params(&self) -> &CkksParams {
        &self.body.params
    }

    /// The compiled pipeline (chosen form vector installed, scales
    /// folded).
    pub fn pipeline(&self) -> &HePipeline {
        &self.pipeline
    }

    /// The human-readable planning report.
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// Builds the runtime: CKKS context, key chain, evaluator, and the
    /// session's one layout — the pipeline expanded to the lane
    /// capacity, with its bootstrapper — the expensive one-time setup
    /// — and returns the serving state. The pipeline traced at plan
    /// time is the exact pipeline served, so plan-time costs match
    /// run-time measurements.
    ///
    /// # Errors
    ///
    /// [`RunError::SlotMismatch`] when the pipeline's padded dimension
    /// does not divide the ring's slot count.
    pub fn compile(self) -> Result<CompiledSession, SessionError> {
        let ctx = self.body.params.build();
        // A pipeline with no capacity fails as its one-lane layout.
        let lanes = self.pipeline.lane_capacity(ctx.slots()).max(1);
        let packer = LanePacker::new(&self.pipeline, ctx.slots(), lanes)?;
        let mut rng = Rng64::new(self.seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let bootstrapper = Bootstrapper::new(
            pe.evaluator().clone(),
            packer.expanded().dim(),
            self.seed ^ 0xc2b2_ae3d_27d4_eb4f ^ lanes as u64,
        );
        Ok(CompiledSession {
            pipeline: self.pipeline,
            packer,
            bootstrapper,
            pe,
            rng,
            runner: BatchRunner::auto(),
            report: self.report,
            chosen: self.body.candidates[self.body.chosen].clone(),
            last_stats: None,
        })
    }
}

/// State 3 of the typed-state chain: keys generated, engines prepared,
/// ready to serve. Every request runs as lane groups under the
/// session's one layout, the pipeline expanded to
/// [`CompiledSession::lane_capacity`] lanes:
/// [`CompiledSession::infer`] and [`CompiledSession::infer_batch`] send
/// one input per group, [`CompiledSession::infer_batch_packed`] fills
/// each group. Batches are sharded across worker threads by a
/// [`BatchRunner`].
pub struct CompiledSession {
    /// The planned pipeline, which [`CompiledSession::infer_plain`]
    /// evaluates.
    pipeline: HePipeline,
    /// The served layout: the pipeline at capacity lanes.
    packer: LanePacker,
    /// Refreshes at the served layout's dimension.
    bootstrapper: Bootstrapper,
    pe: PafEvaluator,
    rng: Rng64,
    runner: BatchRunner,
    report: PlanReport,
    chosen: PlannedCandidate,
    last_stats: Option<RunStats>,
}

impl CompiledSession {
    /// Encrypts `x`, runs the pipeline under CKKS (bootstrapping when
    /// the chain runs dry), and decrypts the logical output. The run's
    /// statistics are retained in [`CompiledSession::last_stats`].
    pub fn infer(&mut self, x: &[f64]) -> Result<Vec<f64>, SessionError> {
        let BatchRun {
            mut outputs,
            mut stats,
            ..
        } = self.serve(1, &[x.to_vec()])?;
        self.last_stats = stats.pop();
        Ok(outputs.pop().expect("one input, one answer"))
    }

    /// Encrypts a batch and shards it across the session's
    /// [`BatchRunner`] workers (one evaluator clone per worker),
    /// returning decrypted outputs and per-input statistics in input
    /// order.
    pub fn infer_batch(&mut self, inputs: &[Vec<f64>]) -> Result<BatchRun<Vec<f64>>, SessionError> {
        self.serve(1, inputs)
    }

    /// How many inputs one ciphertext can multiplex for this session —
    /// the slot-packing capacity `K = slots / padded_dim` (1 means
    /// packing cannot help at these parameters), and the lane count of
    /// its one layout.
    pub fn lane_capacity(&self) -> usize {
        self.packer.lanes()
    }

    /// Slot-packed batch inference: interleaves up to
    /// [`CompiledSession::lane_capacity`] inputs per ciphertext, runs
    /// the lane-expanded pipeline once per ciphertext (sharded across
    /// the session's [`BatchRunner`] workers), and demultiplexes the
    /// decrypted outputs — one encrypted eval, at the work of one
    /// request, amortized over a whole lane-group.
    ///
    /// It runs on the layout [`CompiledSession::infer`] serves, with
    /// every group filled but the last, so a batch of one is answered
    /// exactly as `infer` answers it.
    ///
    /// Outputs are in input order and match sequential
    /// [`CompiledSession::infer`] calls within CKKS noise. The returned
    /// [`BatchRun::stats`] hold one record per *packed ciphertext*, in
    /// dispatch order — not one per input.
    pub fn infer_batch_packed(
        &mut self,
        inputs: &[Vec<f64>],
    ) -> Result<BatchRun<Vec<f64>>, SessionError> {
        self.serve(self.lane_capacity(), inputs)
    }

    /// The one request path: packs `inputs` in groups of `group`
    /// under the session's layout, then encrypts and runs the groups
    /// and splits the answers back out in input order.
    fn serve(
        &mut self,
        group: usize,
        inputs: &[Vec<f64>],
    ) -> Result<BatchRun<Vec<f64>>, SessionError> {
        // Every group packs before any encrypts: a rejected batch draws
        // no randomness.
        let batches = inputs
            .chunks(group)
            .map(|chunk| self.packer.pack(chunk))
            .collect::<Result<Vec<_>, _>>()?;
        let (ev, level) = (self.pe.evaluator(), self.chosen.input_level());
        let cts: Vec<_> = batches
            .iter()
            .map(|batch| ev.encrypt_replicated_at(batch.values(), level, &mut self.rng))
            .collect();
        let run = self
            .runner
            .run_packed(&self.packer, &self.pe, Some(&self.bootstrapper), &cts)?;
        let mut outputs = Vec::with_capacity(inputs.len());
        for (batch, out_ct) in batches.iter().zip(&run.outputs) {
            outputs.extend(self.packer.decrypt(out_ct, batch, ev));
        }
        Ok(BatchRun {
            outputs,
            stats: run.stats,
            wall: run.wall,
            threads: run.threads,
        })
    }

    /// Exact plaintext reference of the served pipeline (same
    /// arithmetic, PAF approximation included).
    pub fn infer_plain(&self, x: &[f64]) -> Result<Vec<f64>, SessionError> {
        self.pipeline.try_pad_input(x)?;
        Ok(self.pipeline.eval_plain(x))
    }

    /// Plaintext batch through the session's [`BatchRunner`] workers.
    pub fn infer_batch_plain(
        &self,
        inputs: &[Vec<f64>],
    ) -> Result<BatchRun<Vec<f64>>, SessionError> {
        Ok(self.runner.run_plain(&self.pipeline, inputs)?)
    }

    /// The planning report carried over from [`Plan`].
    pub fn plan_report(&self) -> &PlanReport {
        &self.report
    }

    /// The served vector as the planner traced it: one [`FormId`] per
    /// PAF slot, its cost, trace, fidelity and label.
    pub fn chosen(&self) -> &PlannedCandidate {
        &self.chosen
    }

    /// Statistics of the most recent [`CompiledSession::infer`] run.
    pub fn last_stats(&self) -> Option<&RunStats> {
        self.last_stats.as_ref()
    }

    /// Bootstraps performed by this session so far, across all runs:
    /// one per refreshed ciphertext, however many lanes it carried.
    pub fn total_bootstraps(&self) -> usize {
        self.bootstrapper.refresh_count()
    }

    /// The planned pipeline, one input wide: what
    /// [`CompiledSession::infer_plain`] evaluates and what the served
    /// layout expands to capacity lanes.
    pub fn pipeline(&self) -> &HePipeline {
        &self.pipeline
    }

    /// Replaces the batch sharding policy (default:
    /// [`BatchRunner::auto`]).
    pub fn set_batch_runner(&mut self, runner: BatchRunner) {
        self.runner = runner;
    }

    /// Worker threads [`CompiledSession::infer_batch`] shards across.
    pub fn threads(&self) -> usize {
        self.runner.threads()
    }
}

/// Human-readable summary of a plan: one priced row per candidate,
/// frontier and chosen markers, skipped forms. Renders with `Display`.
#[derive(Debug, Clone)]
pub struct PlanReport {
    text: String,
    /// Byte offset of the per-slot table within `text` (`None` for a
    /// pipeline without PAF slots).
    per_slot_start: Option<usize>,
}

impl PlanReport {
    /// The rendered report.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Just the per-slot table of the chosen vector (one row per
    /// ReLU/maxpool slot: stage, form, levels, bootstraps, ct-mults) —
    /// the section demos print on its own. `None` when the pipeline
    /// has no PAF slot.
    pub fn per_slot_table(&self) -> Option<&str> {
        self.per_slot_start.map(|start| &self.text[start..])
    }

    #[allow(clippy::too_many_arguments)]
    fn render(
        objective: &Objective,
        params: &CkksParams,
        pipeline: &HePipeline,
        candidates: &[PlannedCandidate],
        frontier: &[usize],
        chosen: usize,
        skipped: &[PafForm],
        dry_runs: usize,
    ) -> PlanReport {
        use fmt::Write;
        let mut text = String::new();
        let _ = writeln!(
            text,
            "plan: objective {objective}; chain N={} depth={}; {} stage(s), {} PAF slot(s), dim {}",
            params.n,
            params.depth,
            pipeline.stages().len(),
            pipeline.num_paf_stages(),
            pipeline.dim(),
        );
        let _ = writeln!(
            text,
            "  {} vector(s) evaluated in {} dry run(s)",
            candidates.len(),
            dry_runs,
        );
        let _ = writeln!(
            text,
            "  {:<20} {:>6} {:>9} {:>10} {:>9} {:>10}",
            "forms", "levels", "ct-mults", "bootstraps", "fidelity", "est-ms"
        );
        for (i, c) in candidates.iter().enumerate() {
            let mark = if i == chosen {
                '*'
            } else if frontier.contains(&i) {
                '+'
            } else {
                ' '
            };
            let _ = writeln!(
                text,
                "{mark} {:<20} {:>6} {:>9} {:>10} {:>9.4} {:>10.2}",
                c.label(),
                c.cost.relu_levels,
                c.cost.ct_mults,
                c.cost.bootstraps,
                c.fidelity,
                c.priced_ms,
            );
        }
        let _ = writeln!(text, "  (* chosen, + on the Pareto frontier)");
        if !skipped.is_empty() {
            let names: Vec<&str> = skipped.iter().map(|f| f.paper_name()).collect();
            let _ = writeln!(
                text,
                "  skipped (atomic depth exceeds the chain): {}",
                names.join(", ")
            );
        }
        // Per-slot table of the chosen vector: which form each
        // ReLU/maxpool slot got and what it costs there, read off the
        // trace's slot-tagged rows.
        let chosen_cand = &candidates[chosen];
        let mut per_slot_start = None;
        if !chosen_cand.forms.is_empty() {
            per_slot_start = Some(text.len());
            let _ = writeln!(text, "  per-slot ({}):", chosen_cand.label());
            let _ = writeln!(
                text,
                "    {:>4} {:<30} {:<10} {:>6} {:>10} {:>9} {:>7}",
                "slot", "stage", "form", "levels", "bootstraps", "ct-mults", "relins"
            );
            for (stage, form) in chosen_cand.trace.paf_slots().iter().zip(&chosen_cand.forms) {
                let _ = writeln!(
                    text,
                    "    {:>4} {:<30} {:<10} {:>6} {:>10} {:>9} {:>7}",
                    stage.slot.expect("paf_slots rows carry a slot index"),
                    stage.label,
                    form.short_name(),
                    stage.levels,
                    stage.bootstraps,
                    stage.ct_mults,
                    stage.relins,
                );
            }
        }
        PlanReport {
            text,
            per_slot_start,
        }
    }
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// The price of a traced schedule in modelled 64-bit modular
/// multiplies: the sum of its atomic ops' prices, each at the level the
/// op is entered at ([`StageTrace::modmuls`](smartpaf_heinfer::StageTrace)
/// — the very sum [`LevelSchedule::cut`](smartpaf_heinfer::LevelSchedule)
/// minimised when it placed the refreshes, at the digit size of the
/// parameters the trace was taken at), plus every forced refresh at the
/// full analytic bootstrap cost of `params`. The one conversion behind
/// the planner's frontier pricing and the hybrid crate's Tab. 1 rows.
pub fn trace_modmuls(params: &CkksParams, report: &TraceReport) -> u128 {
    report.total_op_modmuls() + report.total_bootstraps() as u128 * bootstrap_modmuls(params)
}

/// Prices a traced schedule in milliseconds with
/// [`trace_modmuls`] × [`SECONDS_PER_MODMUL`].
fn trace_price_ms(params: &CkksParams, report: &TraceReport) -> f64 {
    trace_modmuls(params, report) as f64 * SECONDS_PER_MODMUL * 1e3
}

// ---------------------------------------------------------------------
// Wire formats (docs/ARTIFACT_FORMAT.md): planning outcomes serialize;
// pipelines, keys, and engines never do. `Plan` has no standalone
// `Deserialize` for exactly that reason — reconstruction needs the
// model, so it goes through `PlanRegistry::load_plan`.

impl Serialize for Objective {
    fn serialize(&self) -> Value {
        match self {
            Objective::MinLatency { max_acc_drop } => Value::object([
                ("kind", "min_latency".serialize()),
                ("max_acc_drop", max_acc_drop.serialize()),
            ]),
            Objective::MinBootstraps => Value::object([("kind", "min_bootstraps".serialize())]),
            Objective::FixedForm(form) => Value::object([
                ("kind", "fixed_form".serialize()),
                ("form", form.serialize()),
            ]),
        }
    }
}

impl Deserialize for Objective {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let kind = String::deserialize(value.req("kind")?)?;
        match kind.as_str() {
            "min_latency" => Ok(Objective::MinLatency {
                max_acc_drop: f64::deserialize(value.req("max_acc_drop")?)?,
            }),
            "min_bootstraps" => Ok(Objective::MinBootstraps),
            "fixed_form" => Ok(Objective::FixedForm(PafForm::deserialize(
                value.req("form")?,
            )?)),
            other => Err(SerdeError::custom(format!(
                "unknown objective kind `{other}`"
            ))),
        }
    }
}

serde::wire_struct!(VectorCost {
    bootstraps,
    ct_mults,
    relu_levels
});

serde::wire_struct!(PlannedCandidate {
    forms,
    cost,
    trace,
    fidelity,
    priced_ms
});

/// The plan body of an artifact: the planning *outcome* — every
/// evaluated candidate, the chosen index and its installed composites,
/// the skipped forms, the dry runs spent — and the planning inputs
/// (params, objective, candidate list). A [`Plan`] is its body plus
/// what the loading process rebuilds: the pipeline, the frontier and
/// report, and the serving seed. The pipeline, the seed and all key
/// material are deliberately absent from the artifact; reconstruction
/// therefore goes through [`PlanRegistry::load_plan`] with the
/// caller's own [`SessionBuilder`].
///
/// [`PlanRegistry::load_plan`]: crate::PlanRegistry::load_plan
pub(crate) struct PlanBody {
    pub(crate) params: CkksParams,
    pub(crate) objective: Objective,
    pub(crate) candidate_forms: Vec<PafForm>,
    pub(crate) candidates: Vec<PlannedCandidate>,
    pub(crate) chosen: usize,
    pub(crate) chosen_composites: Vec<CompositePaf>,
    pub(crate) skipped: Vec<PafForm>,
    pub(crate) dry_runs: usize,
}

serde::wire_struct!(PlanBody {
    params,
    objective,
    candidate_forms,
    candidates,
    chosen,
    chosen_composites,
    skipped,
    dry_runs,
});

impl Serialize for Plan {
    fn serialize(&self) -> Value {
        self.body.serialize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpaf_nn::Linear;

    /// `blocks` affine→ReLU blocks over a flat 4-vector on the toy ring.
    fn builder(blocks: usize, scale: f64, layer_seed: u64) -> SessionBuilder {
        let mut rng = Rng64::new(layer_seed);
        let mut b = Session::builder(&[4]).params(CkksParams::toy());
        for _ in 0..blocks {
            b = b.affine(Linear::new(4, 4, &mut rng)).relu(scale);
        }
        b
    }

    #[test]
    fn plan_selects_by_traced_cost_not_depth() {
        // Three ReLU blocks exceed the 12-level toy chain for every
        // form, so the ranking is decided by traced bootstraps +
        // ct-mults: the uniform f1∘g2 vector beats the 27-degree
        // comparator, and the planner's optimum can only improve on it.
        let plan = builder(3, 2.0, 11)
            .candidates(&[PafForm::MinimaxDeg27, PafForm::F1G2])
            .objective(Objective::MinBootstraps)
            .plan()
            .expect("both forms fit a 12-level chain");
        // Uniform candidates are evaluated first, in candidate order.
        assert_eq!(
            plan.candidates()[0].uniform_form(),
            Some(PafForm::MinimaxDeg27)
        );
        assert_eq!(plan.candidates()[1].uniform_form(), Some(PafForm::F1G2));
        let deep = &plan.candidates()[0];
        let cheap = &plan.candidates()[1];
        assert!(deep.cost.bootstraps > cheap.cost.bootstraps);
        assert!(deep.cost.ct_mults > cheap.cost.ct_mults);
        // The chosen vector is at least as cheap as the best uniform,
        // and every entry comes from the candidate set.
        let (chosen, cheap) = (&plan.chosen().cost, &cheap.cost);
        assert!((chosen.bootstraps, chosen.ct_mults) <= (cheap.bootstraps, cheap.ct_mults));
        assert_eq!(plan.chosen().forms.len(), 3);
        assert!(plan
            .chosen()
            .forms
            .iter()
            .all(|f| [PafForm::MinimaxDeg27, PafForm::F1G2].contains(f)));
        // The frontier dedupes and dominates over the vector axes;
        // both uniform endpoints of the trade-off survive unless a
        // mixed vector dominates one of them.
        assert!(!plan.frontier_indices().is_empty());
    }

    #[test]
    fn min_latency_objective_trades_fidelity_for_cost() {
        let forms = [PafForm::F1G2, PafForm::MinimaxDeg27];
        // Zero tolerated drop: the most accurate form wins despite its
        // traced cost.
        let strict = builder(1, 2.0, 12)
            .candidates(&forms)
            .objective(Objective::MinLatency { max_acc_drop: 0.0 })
            .plan()
            .expect("plannable");
        assert_eq!(strict.chosen().uniform_form(), Some(PafForm::MinimaxDeg27));
        // A generous budget flips the choice to the cheap form (f1∘g2's
        // fidelity on [0.05, 1] is ~0.24 vs the comparator's ~0.98).
        let relaxed = builder(1, 2.0, 12)
            .candidates(&forms)
            .objective(Objective::MinLatency { max_acc_drop: 0.8 })
            .plan()
            .expect("plannable");
        assert_eq!(relaxed.chosen().uniform_form(), Some(PafForm::F1G2));
        assert!(relaxed.chosen().priced_ms < strict.chosen().priced_ms);
    }

    #[test]
    fn degenerate_min_latency_budgets_fall_back_to_strictest() {
        // Negative / NaN budgets behave like 0.0 instead of filtering
        // out every candidate and panicking.
        for bad in [-1.0, f64::NAN] {
            let plan = builder(1, 2.0, 21)
                .candidates(&[PafForm::F1G2, PafForm::MinimaxDeg27])
                .objective(Objective::MinLatency { max_acc_drop: bad })
                .plan()
                .expect("degenerate budget must not panic");
            assert_eq!(
                plan.chosen().uniform_form(),
                Some(PafForm::MinimaxDeg27),
                "drop {bad}"
            );
        }
    }

    #[test]
    fn fixed_form_objective_skips_the_search() {
        let plan = builder(1, 2.0, 13)
            .objective(Objective::FixedForm(PafForm::Alpha7))
            .plan()
            .expect("alpha7 fits");
        assert_eq!(plan.chosen().uniform_form(), Some(PafForm::Alpha7));
        assert_eq!(plan.candidates().len(), 1);
        assert!(plan.report().as_str().contains("fixed form"));
    }

    #[test]
    fn fixed_form_beyond_chain_is_a_run_error() {
        let err = builder(1, 2.0, 14)
            .params(CkksParams {
                depth: 8,
                ..CkksParams::toy()
            })
            .objective(Objective::FixedForm(PafForm::MinimaxDeg27))
            .plan()
            .expect_err("depth 11 ReLU cannot fit 8 levels");
        assert!(matches!(
            err,
            SessionError::Run(RunError::AtomicDepthExceeded { .. })
        ));
    }

    #[test]
    fn infeasible_candidates_are_skipped_not_fatal() {
        let plan = builder(1, 2.0, 15)
            .params(CkksParams {
                depth: 8,
                ..CkksParams::toy()
            })
            .candidates(&[PafForm::MinimaxDeg27, PafForm::F1G2])
            .plan()
            .expect("f1∘g2 still fits 8 levels");
        assert_eq!(plan.chosen().uniform_form(), Some(PafForm::F1G2));
        assert_eq!(plan.skipped_forms(), &[PafForm::MinimaxDeg27]);
        assert!(plan.report().as_str().contains("skipped"));
    }

    #[test]
    fn planning_failure_modes_are_typed() {
        let err = builder(1, 2.0, 16)
            .candidates(&[])
            .plan()
            .expect_err("empty candidate set");
        assert_eq!(err, SessionError::NoCandidates);
        let err = builder(1, 2.0, 17)
            .params(CkksParams {
                depth: 8,
                ..CkksParams::toy()
            })
            .candidates(&[PafForm::MinimaxDeg27, PafForm::F1SqG1Sq])
            .plan()
            .expect_err("nothing fits 8 levels");
        assert!(matches!(
            err,
            SessionError::NoFeasibleForm {
                tried: 2,
                max_level: 8
            }
        ));
        assert!(err.to_string().contains("8-level chain"));
    }

    #[test]
    fn compiled_session_serves_and_matches_trace() {
        let plan = builder(1, 4.0, 18)
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("plannable");
        let traced = plan.chosen().cost.bootstraps;
        let trace = plan.chosen_trace().clone();
        let mut session = plan.compile().expect("toy ring compiles");
        let x = [0.4, -0.8, 0.2, -0.1];
        let enc = session.infer(&x).expect("serves");
        let plain = session.infer_plain(&x).expect("valid input");
        assert_eq!(enc.len(), plain.len());
        for (e, p) in enc.iter().zip(&plain) {
            assert!((e - p).abs() < 0.1, "{e} vs {p}");
        }
        let stats = session.last_stats().expect("stats recorded");
        assert_eq!(stats.bootstraps, traced);
        let stage_levels: Vec<usize> = trace.stages.iter().map(|s| s.levels).collect();
        assert_eq!(stats.stage_levels, stage_levels);
        // The served pipeline, traced on the runtime chain, replays the
        // plan-time trace verbatim.
        let params = session.pe.evaluator().context().params();
        assert_eq!(session.pipeline().trace(&params, true), Ok(trace));
    }

    /// The benchmark CNN under f1∘g2 on the default chain.
    fn benchmark_cnn() -> Plan {
        use smartpaf_nn::{Conv2d, Flatten};
        let mut rng = Rng64::new(9001);
        Session::builder(&[1, 8, 8])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .relu(4.0)
            .maxpool(2, 2, 4.0)
            .affine(Flatten::new())
            .affine(Linear::new(16, 16, &mut rng))
            .params(CkksParams::default_params())
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("plannable")
    }

    #[test]
    fn the_benchmark_cnn_plan_serializes_to_a_pinned_digest() {
        // Every candidate's trace — per-stage entry levels, refreshes,
        // ct-mults, modmuls — is inside the serialized plan, so this
        // pins the dry run byte for byte.
        let text = serde::json::to_string(&benchmark_cnn().serialize());
        assert_eq!(
            smartpaf_heinfer::fnv1a_64(text.as_bytes()),
            0x6748_7f64_2ef1_171b
        );
    }

    #[test]
    fn a_trace_is_priced_at_the_limbs_each_stage_runs_on() {
        use smartpaf_ckks::cost::OpPrices;
        use smartpaf_heinfer::LevelSchedule;
        // What a plan prices is the schedule's own sum: every atomic op
        // at the level the cut enters it at, plus the refreshes.
        let plan = benchmark_cnn();
        let (params, trace) = (plan.params(), plan.chosen_trace());
        let ops = plan.pipeline().atomic_ops();
        let schedule = LevelSchedule::cut(&ops, params, params.depth, params.depth, true);
        let scheduled: u128 = schedule.ops().iter().map(|o| o.modmuls).sum();
        assert_eq!(trace.total_bootstraps(), 2);
        assert_eq!(
            trace_modmuls(params, trace),
            scheduled + 2 * bootstrap_modmuls(params)
        );
        assert_eq!(
            plan.chosen().priced_ms,
            trace_modmuls(params, trace) as f64 * SECONDS_PER_MODMUL * 1e3
        );
        // Stage by stage it is the ops' prices at the traced levels:
        // conv 7, ReLU 6 | shift 1 at 6 | shift 8 at 7, head 1.
        let levels: Vec<usize> = schedule.ops().iter().map(|o| o.level_in).collect();
        assert_eq!(levels, [7, 6, 6, 7, 1]);
        let prices = OpPrices::new(params, params.depth);
        let op = |i: usize, level| prices.op_modmuls(&ops[i].work, level, ops[i].need);
        let per_stage: Vec<u128> = trace.stages.iter().map(|s| s.modmuls.into()).collect();
        assert_eq!(
            per_stage,
            [op(0, 7), op(1, 6), op(2, 6) + op(3, 7), op(4, 1)]
        );
        assert_eq!(per_stage.iter().sum::<u128>(), scheduled);
        // The cut the refresh-on-exhaustion walk made — the same two
        // refreshes, after the ReLU and after the pool, the first max
        // at the top of the chain — costs strictly more.
        let greedy = op(0, 7) + op(1, 6) + op(2, 12) + op(3, 6) + op(4, 1);
        assert!(scheduled < greedy, "{scheduled} vs {greedy}");
    }

    #[test]
    fn requests_are_encrypted_at_the_plans_input_level() {
        // One block consumes 1 + 6 + 1 of the toy chain's 12 levels
        // (affine, ReLU, its post-scale). Of two blocks the second ReLU
        // no longer fits, so the first segment is affine, ReLU, affine:
        // 1 + 6 + 1 again, then a refresh. Either way the request
        // ciphertext carries exactly that many levels, and serving it
        // agrees with the reference.
        for (blocks, input_level) in [(1, 8), (2, 8)] {
            let plan = builder(blocks, 4.0, 23)
                .objective(Objective::FixedForm(PafForm::F1G2))
                .plan()
                .expect("plannable");
            assert_eq!(plan.input_level(), input_level);
            let mut session = plan.compile().expect("toy ring compiles");
            let x = [0.4, -0.8, 0.2, -0.1];
            assert_eq!(session.chosen().input_level(), input_level);
            let enc = session.infer(&x).expect("serves");
            for (e, p) in enc
                .iter()
                .zip(&session.infer_plain(&x).expect("valid input"))
            {
                assert!((e - p).abs() < 0.1, "{e} vs {p}");
            }
            assert_eq!(session.last_stats().expect("recorded").final_level, 0);
        }
    }

    #[test]
    fn batch_serving_matches_single_runs() {
        let plan = builder(1, 4.0, 19)
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("plannable");
        let mut session = plan.compile().expect("compiles");
        session.set_batch_runner(BatchRunner::new(2));
        assert_eq!(session.threads(), 2);
        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| ((i + j) as f64 - 3.0) / 3.0).collect())
            .collect();
        let run = session.infer_batch(&inputs).expect("batch serves");
        assert_eq!(run.outputs.len(), 4);
        let plain = session.infer_batch_plain(&inputs).expect("plain batch");
        for (enc, exact) in run.outputs.iter().zip(&plain.outputs) {
            for (e, p) in enc.iter().zip(exact) {
                assert!((e - p).abs() < 0.1, "{e} vs {p}");
            }
        }
        // Oversized inputs are rejected before any thread spawns.
        let err = session
            .infer_batch(&[vec![0.0; 5]])
            .expect_err("too long for a 4-wide pipeline");
        assert!(matches!(
            err,
            SessionError::Run(RunError::InputTooLong { len: 5, max: 4 })
        ));
    }

    #[test]
    fn planner_work_is_an_exact_dry_run_count() {
        // The planner's cost as a count, not a time: one dry run per
        // candidate form, and one more when the dynamic program's
        // vector beats every uniform one. Here uniform f1∘g2 is the
        // optimum, so S slots cost F dry runs whatever S is.
        let forms = PafForm::all().len();
        for slots in [2, 6, 20] {
            let plan = builder(slots, 2.0, 22)
                .objective(Objective::MinBootstraps)
                .plan()
                .expect("plannable");
            assert_eq!(plan.chosen().forms.len(), slots);
            assert_eq!(
                plan.dry_runs_used(),
                forms,
                "{slots} slots: re-recorded from F + S·(F−1) (16 / 36 / 106) — the greedy \
                 sweeps traced every single-slot move; the exact optimum is found without \
                 tracing a vector, and here it is uniform"
            );
            assert_eq!(plan.chosen().uniform_form(), Some(PafForm::F1G2));
            // Every form fits the toy chain, so every dry run is one
            // distinct feasible vector.
            assert_eq!(plan.candidates().len(), forms);
            assert!(plan.report().as_str().contains(&format!(
                "{forms} vector(s) evaluated in {forms} dry run(s)\n"
            )));
        }
        // Of f1²∘g1² (fewer ct-mults) and α=7 (shallower) on a 16-level
        // chain, two mixed vectors keep uniform α=7's one refresh with
        // fewer ct-mults; the cheaper is traced as the (F + 1)-th row.
        let pair = [PafForm::F1SqG1Sq, PafForm::Alpha7];
        let plan = builder(3, 2.0, 22)
            .params(CkksParams {
                depth: 16,
                ..CkksParams::toy()
            })
            .candidates(&pair)
            .objective(Objective::MinBootstraps)
            .plan()
            .expect("plannable");
        assert_eq!(
            plan.chosen().forms,
            [PafForm::F1SqG1Sq, PafForm::Alpha7, PafForm::Alpha7]
        );
        assert_eq!(
            plan.dry_runs_used(),
            pair.len() + 1,
            "re-recorded from F + S·(F−1) = 5: the mixed winner is the one vector traced \
             beyond the uniform rows"
        );
        assert_eq!(plan.candidates().len(), plan.dry_runs_used());
    }

    #[test]
    fn fixed_form_costs_match_the_uniform_candidate_row() {
        let fixed = builder(3, 2.0, 24)
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("plannable");
        assert_eq!(fixed.candidates().len(), 1);
        assert_eq!(fixed.chosen().uniform_form(), Some(PafForm::F1G2));
        let searched = builder(3, 2.0, 24)
            .objective(Objective::MinBootstraps)
            .plan()
            .expect("plannable");
        let row = searched
            .candidates()
            .iter()
            .find(|c| c.uniform_form() == Some(PafForm::F1G2))
            .expect("uniform f1∘g2 evaluated");
        assert_eq!(&fixed.chosen().cost, &row.cost);
        assert_eq!(fixed.chosen().fidelity, row.fidelity);
        assert_eq!(fixed.chosen().priced_ms, row.priced_ms);
        assert_eq!(fixed.chosen().trace, row.trace);
    }

    #[test]
    fn candidate_labels_render_uniform_and_mixed() {
        let uniform = PlannedCandidate {
            forms: vec![PafForm::F1G2; 3],
            cost: VectorCost {
                bootstraps: 0,
                ct_mults: 0,
                relu_levels: 6,
            },
            trace: TraceReport {
                stages: vec![],
                final_level: 0,
            },
            fidelity: 0.5,
            priced_ms: 1.0,
        };
        assert_eq!(uniform.label(), "f1∘g2");
        assert_eq!(uniform.uniform_form(), Some(PafForm::F1G2));
        let mixed = PlannedCandidate {
            forms: vec![PafForm::MinimaxDeg27, PafForm::F1G2],
            ..uniform.clone()
        };
        assert_eq!(mixed.label(), "[α=10|f1∘g2]");
        assert_eq!(mixed.uniform_form(), None);
        let empty = PlannedCandidate {
            forms: vec![],
            ..uniform
        };
        assert_eq!(empty.label(), "(no PAF slots)");
        assert_eq!(empty.uniform_form(), None);
    }

    #[test]
    fn report_renders_the_per_slot_table() {
        let plan = builder(2, 2.0, 25).plan().expect("plannable");
        let text = plan.report().to_string();
        assert!(text.contains("per-slot"), "{text}");
        assert!(text.contains("slot"), "{text}");
        // One row per PAF slot of the chosen vector.
        let rows = plan.chosen_trace().paf_slots().len();
        assert_eq!(rows, plan.chosen().forms.len());
    }

    #[test]
    fn report_prices_every_candidate() {
        let plan = builder(1, 2.0, 20)
            .candidates(&[PafForm::F1G2, PafForm::Alpha7])
            .plan()
            .expect("plannable");
        let text = plan.report().to_string();
        assert!(text.contains("f1∘g2"));
        assert!(text.contains("α=7"));
        assert!(text.contains("est-ms"));
        assert!(text.starts_with("plan: objective min-bootstraps"));
        assert_eq!(plan.candidates().len(), 2);
    }

    #[test]
    fn session_exposes_its_slot_packing_geometry() {
        let session = builder(1, 2.0, 26).plan().unwrap().compile().unwrap();
        // Toy ring: 128 slots over a dim-4 pipeline → 32 lanes.
        assert_eq!(session.pipeline().dim(), 4);
        assert_eq!(session.lane_capacity(), 32);
    }

    #[test]
    fn packed_batch_matches_sequential_infer_within_noise() {
        let mut session = builder(1, 2.0, 27).plan().unwrap().compile().unwrap();
        session.set_batch_runner(BatchRunner::new(1));
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 - 10.0) / 10.0).collect())
            .collect();
        let packed = session.infer_batch_packed(&inputs).unwrap();
        assert_eq!(packed.outputs.len(), 5);
        // 5 inputs share one 32-lane ciphertext: one stats record.
        assert_eq!(packed.stats.len(), 1);
        for (x, got) in inputs.iter().zip(&packed.outputs) {
            let want = session.infer(x).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 0.1, "{g} vs {w}");
            }
        }
        // A second batch runs on the same layout.
        let again = session.infer_batch_packed(&inputs).unwrap();
        assert_eq!(again.outputs.len(), 5);

        // An overlong input is the client's fault, the same error at
        // any batch size, and must not poison the session.
        let err = session
            .infer_batch_packed(&[vec![0.0; 9], vec![0.0; 4]])
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Run(RunError::InputTooLong { len: 9, max: 4 })
        );
        assert!(!err.poisons_session());
        assert!(err.to_string().contains("input too long"));
    }

    /// The benchmark CNN with a two-channel conv: a conv with enough
    /// diagonals that any lane expansion adding work to it would move
    /// its cut at 2 lanes.
    fn two_channel_cnn() -> Plan {
        use smartpaf_nn::{Conv2d, Flatten};
        let mut rng = Rng64::new(9001);
        Session::builder(&[1, 8, 8])
            .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
            .relu(4.0)
            .maxpool(2, 2, 4.0)
            .affine(Flatten::new())
            .affine(Linear::new(32, 16, &mut rng))
            .params(CkksParams::default_params())
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("plannable")
    }

    #[test]
    fn the_benchmark_cnn_cuts_alike_at_every_lane_count() {
        // Interleaved lanes keep every affine's diagonals, split and
        // folds, so each lane expansion runs the unpacked plan's
        // schedule: conv + ReLU from level 7, the pool's shifts at 6
        // and 7 and the head on 2 limbs, with the unpacked 15 rotations
        // and 12 decompositions. The head is the pool's selection
        // composed with the linear layer, 16×64: stacked, it takes 16
        // diagonals, 8 rotations and 6 decompositions (64, 14 and 8 as
        // a square matrix).
        let plan = benchmark_cnn();
        for lanes in [1, 2, 4, 8, 16, 32] {
            let wide = plan.pipeline().expand_lanes(lanes);
            let trace = wide.trace(plan.params(), true).unwrap();
            let op_levels: Vec<Vec<usize>> =
                trace.stages.iter().map(|s| s.op_levels.clone()).collect();
            assert_eq!(
                op_levels,
                [vec![7], vec![6], vec![6, 7], vec![1]],
                "{lanes} lanes"
            );
            let key_switches = (trace.total_rotations(), trace.total_decompositions());
            assert_eq!(key_switches, (15, 12), "{lanes} lanes");
        }
    }

    #[test]
    fn a_packed_request_enters_where_its_own_schedule_starts() {
        // A packed request runs the plan's schedule: at the session's
        // capacity the two-channel conv's expansion takes its base
        // matrix's rotations, and the served layout's own trace enters
        // conv + ReLU at level 7, where the plan does. The packed
        // request is encrypted for that schedule, refreshes where the
        // plan does and ends on the last limb.
        let plan = two_channel_cnn();
        assert_eq!(plan.input_level(), 7);
        let params = plan.params().clone();
        let mut session = plan.compile().unwrap();
        session.set_batch_runner(BatchRunner::new(1));
        // 2048 slots over a dim-128 pipeline.
        assert_eq!(session.packer.lanes(), 16);
        let packed_trace = session.packer.expanded().trace(&params, true).unwrap();
        let op_levels = |trace: &TraceReport| -> Vec<Vec<usize>> {
            trace.stages.iter().map(|s| s.op_levels.clone()).collect()
        };
        assert_eq!(op_levels(&packed_trace), op_levels(&session.chosen().trace));
        assert_eq!(
            packed_trace.total_rotations(),
            session.chosen().trace.total_rotations()
        );
        assert_eq!(packed_trace.stages[0].level_in(), 7);
        let inputs: Vec<Vec<f64>> = (0..2)
            .map(|i| {
                (0..64)
                    .map(|j| ((i + j * 7) % 13) as f64 / 6.5 - 1.0)
                    .collect()
            })
            .collect();
        let run = session.infer_batch_packed(&inputs).unwrap();
        assert_eq!(run.stats.len(), 1);
        assert_eq!(run.stats[0].bootstraps, packed_trace.total_bootstraps());
        assert_eq!(run.stats[0].final_level, 0);
        for (x, got) in inputs.iter().zip(&run.outputs) {
            for (g, w) in got.iter().zip(&session.infer_plain(x).unwrap()) {
                assert!((g - w).abs() < 0.1, "{g} vs {w}");
            }
        }
    }

    /// The limb count of each affine stage's cached encodings, checking
    /// that the stage holds one encoding per diagonal on the limbs its
    /// traced schedule enters it at.
    fn encoded_limbs(pipe: &HePipeline, trace: &TraceReport) -> Vec<usize> {
        let stages = pipe.stages().iter().zip(&trace.stages);
        stages
            .filter_map(|(stage, traced)| {
                let Stage::Affine { mat, .. } = stage else {
                    return None;
                };
                let limbs = traced.level_in() + 1;
                assert_eq!(mat.encoded_limbs(), vec![limbs; mat.num_diagonals()]);
                Some(limbs)
            })
            .collect()
    }

    #[test]
    fn diagonals_are_encoded_on_the_limbs_their_stage_is_entered_at() {
        // An affine stage's plaintext diagonals are encoded on the limbs
        // its schedule enters it at, not on the full chain: the served
        // layout's interleaved conv on 8 of the 13 limbs and its linear
        // head on 2, since the layout runs the plan's schedule.
        let plan = two_channel_cnn();
        let mut session = plan.compile().unwrap();
        session.set_batch_runner(BatchRunner::new(1));
        let x: Vec<f64> = (0..64).map(|j| ((j * 5) % 11) as f64 / 5.5 - 1.0).collect();
        session.infer(&x).unwrap();
        let trace = session.chosen().trace.clone();
        assert_eq!(encoded_limbs(session.packer.expanded(), &trace), [8, 2]);
    }

    #[test]
    fn a_packed_request_holds_the_one_lane_keys_and_encodings() {
        // One session of the benchmark CNN serves a single request, then
        // packed batches of every size, on its one capacity layout: the
        // switching keys of the first request — its rotation steps are
        // the one-lane steps times 32 — serve every later one, and each
        // interleaved affine caches exactly its base matrix's diagonals.
        let mut session = benchmark_cnn().compile().unwrap();
        session.set_batch_runner(BatchRunner::new(1));
        let key_count = |session: &CompiledSession| {
            let keys = session.pe.evaluator().keys().key_limbs();
            (
                keys.len(),
                keys.iter().map(|&(_, _, limbs)| limbs).sum::<usize>(),
            )
        };
        let inputs: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                (0..64)
                    .map(|j| ((i + j * 5) % 11) as f64 / 5.5 - 1.0)
                    .collect()
            })
            .collect();
        session.infer(&inputs[0]).unwrap();
        assert_eq!(key_count(&session), (15, 66));
        for batch in [32, 2, 4, 8, 16] {
            let run = session.infer_batch_packed(&inputs[..batch]).unwrap();
            assert_eq!(run.stats.len(), 1);
            assert_eq!(key_count(&session), (15, 66), "after {batch} inputs");
            let stages = session.packer.expanded().stages().iter();
            for (expanded, base) in stages.zip(session.pipeline().stages()) {
                if let (Stage::Affine { mat, .. }, Stage::Affine { mat: base, .. }) =
                    (expanded, base)
                {
                    assert_eq!(mat.encoded_limbs().len(), base.num_diagonals());
                }
            }
        }
        let trace = &session.chosen().trace;
        assert_eq!(encoded_limbs(session.packer.expanded(), trace), [8, 2]);
    }

    #[test]
    fn one_switching_key_per_secret_holds_the_most_limbs_it_is_used_at() {
        // After one request the key chain holds one key per (switched
        // secret, special-prime count k = min(ω, limbs)). The PAFs
        // relinearise at every limb count from 8 down to 2, and one key
        // on 8 limbs — the highest the schedule enters a relinearising
        // stage at — serves every one of them with k = 3; a Galois key
        // with k = 3 holds a limb count a rotating stage is entered at.
        use smartpaf_ckks::SwitchedSecret;
        let mut session = benchmark_cnn().compile().unwrap();
        session.set_batch_runner(BatchRunner::new(1));
        let input: Vec<f64> = (0..64).map(|j| (j * 5 % 11) as f64 / 5.5 - 1.0).collect();
        session.infer(&input).unwrap();
        let ev = session.pe.evaluator();
        let (keys, omega) = (ev.keys().key_limbs(), ev.context().special_primes().len());
        let (mut relin_limbs, mut rotation_limbs) = (Vec::new(), Vec::new());
        for stage in &session.chosen().trace.stages {
            let limbs = stage.op_levels.iter().map(|l| l + 1);
            if stage.relins > 0 {
                relin_limbs.extend(limbs.clone());
            }
            if stage.rotations > 0 {
                rotation_limbs.extend(limbs);
            }
        }
        assert_eq!(relin_limbs.iter().max(), Some(&8));
        let mut slots: Vec<_> = keys.iter().map(|&(secret, k, _)| (secret, k)).collect();
        slots.dedup();
        assert_eq!(slots.len(), keys.len(), "one key per (secret, k): {keys:?}");
        assert!(
            keys.contains(&(SwitchedSecret::Square, omega, 8)),
            "{keys:?}"
        );
        for &(secret, k, limbs) in &keys {
            assert_eq!(k, omega.min(limbs), "{keys:?}");
            match secret {
                // Below ω limbs a key holds exactly its k limbs.
                _ if k < omega => {}
                SwitchedSecret::Square => assert_eq!(limbs, 8, "{keys:?}"),
                SwitchedSecret::Auto(_) => assert!(rotation_limbs.contains(&limbs), "{keys:?}"),
            }
        }
    }

    #[test]
    fn every_session_path_serves_one_input_bit_identically() {
        // A one-input request is one lane group of the session's one
        // layout, the other lanes empty, whatever entry point serves
        // it: the same encryption, refresh and decode streams, so the
        // same bits.
        let plan = || {
            builder(2, 4.0, 23)
                .objective(Objective::FixedForm(PafForm::F1G2))
                .plan()
                .expect("plannable")
        };
        let x = vec![0.4, -0.8, 0.2, -0.1];
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let single = plan().compile().unwrap().infer(&x).unwrap();
        let batch = plan()
            .compile()
            .unwrap()
            .infer_batch(std::slice::from_ref(&x));
        let mut packed_session = plan().compile().unwrap();
        let packed = packed_session.infer_batch_packed(std::slice::from_ref(&x));
        assert_eq!(bits(&batch.unwrap().outputs[0]), bits(&single));
        assert_eq!(bits(&packed.unwrap().outputs[0]), bits(&single));
        // An empty batch answers nothing on any path.
        let empty = packed_session.infer_batch_packed(&[]).unwrap();
        assert!(empty.outputs.is_empty());
    }

    #[test]
    fn a_rejected_batch_draws_no_randomness() {
        // Every group packs before any encrypts, so a batch with one
        // overlong input leaves the encryption stream where it was: the
        // next answer is a fresh session's first, bit for bit.
        let session = || {
            builder(2, 4.0, 23)
                .objective(Objective::FixedForm(PafForm::F1G2))
                .plan()
                .expect("plannable")
                .compile()
                .expect("compiles")
        };
        let x = vec![0.4, -0.8, 0.2, -0.1];
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rejected = session();
        assert_eq!(
            rejected
                .infer_batch(&[x.clone(), vec![0.0; 5]])
                .unwrap_err(),
            SessionError::Run(RunError::InputTooLong { len: 5, max: 4 })
        );
        let fresh = session().infer(&x).unwrap();
        assert_eq!(bits(&rejected.infer(&x).unwrap()), bits(&fresh));
    }

    #[test]
    fn a_pipeline_wider_than_the_ring_does_not_compile() {
        // 256 inputs on the toy ring's 128 slots: not even one lane.
        let mut rng = Rng64::new(31);
        let plan = Session::builder(&[256])
            .affine(Linear::new(256, 4, &mut rng))
            .params(CkksParams::toy())
            .plan()
            .expect("plannable");
        assert_eq!(
            plan.compile().err(),
            Some(SessionError::Run(RunError::SlotMismatch {
                dim: 256,
                slots: 128
            }))
        );
    }

    #[test]
    fn served_bits_are_pinned() {
        // The first three answers of a refreshing toy session, bit for
        // bit: a reseeded or reordered encryption or refresh stream
        // changes this digest. Each request rides the 32-lane layout
        // with 31 lanes empty.
        let mut session = builder(2, 4.0, 23)
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("plannable")
            .compile()
            .expect("compiles");
        let mut bytes = Vec::new();
        for i in 0..3 {
            let x: Vec<f64> = (0..4).map(|j| ((i * 4 + j) as f64 - 6.0) / 6.0).collect();
            for v in session.infer(&x).unwrap() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(session.total_bootstraps(), 3);
        assert_eq!(smartpaf_heinfer::fnv1a_64(&bytes), 0x14a7_1ea6_12cf_d336);
    }

    #[test]
    fn packed_bits_are_pinned() {
        // The answers of one full-capacity packed request on the
        // refreshing toy session, bit for bit: its encryption and
        // refresh streams, and the interleaved layout they run on.
        let mut session = builder(2, 4.0, 23)
            .objective(Objective::FixedForm(PafForm::F1G2))
            .plan()
            .expect("plannable")
            .compile()
            .expect("compiles");
        let inputs: Vec<Vec<f64>> = (0..session.lane_capacity())
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 4 + j) % 13) as f64 / 6.5 - 1.0)
                    .collect()
            })
            .collect();
        let run = session.infer_batch_packed(&inputs).unwrap();
        assert_eq!(run.stats.len(), 1);
        let mut bytes = Vec::new();
        for v in run.outputs.iter().flatten() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(session.total_bootstraps(), 1);
        assert_eq!(smartpaf_heinfer::fnv1a_64(&bytes), 0xd149_61ac_11d8_3d98);
    }
}
