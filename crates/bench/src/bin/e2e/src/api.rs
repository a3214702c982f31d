//! The one file that calls into the workspace crates: models, session
//! build, serve start, the replica path and the timing wrappers. The
//! rest of the benchmark sees only the types re-exported here, so a
//! change that merges or renames library entry points breaks this file
//! and nothing else.

use crate::trace::Mark;
use smartpaf::{
    serve_sessions, serve_sessions_packed, trace_modmuls, Objective, Session, SessionBuilder,
    SessionCache, SECONDS_PER_MODMUL,
};
use smartpaf_ckks::{
    par, Bootstrapper, Ciphertext, CkksParams, DiagMatrix, Evaluator, KeyChain, PafEvaluator,
};
use smartpaf_heinfer::serve::{BatchService, ServeError, Server, TenantId};
use smartpaf_heinfer::{
    BatchRunner, CkksBackend, HePipeline, InferenceBackend, LanePacker, PafOp, RunError, Stage,
};
use smartpaf_nn::{Conv2d, Flatten, Linear};
use smartpaf_polyfit::PafForm;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use smartpaf::{CompiledSession, Plan, PlanRegistry, SessionError};
pub use smartpaf_heinfer::serve::{ServeConfig, ServeStats};
pub use smartpaf_tensor::Rng64;

pub type Ticket = smartpaf_heinfer::serve::Ticket<SessionError>;

/// Every failure the benchmark can meet, as text: a failed operation
/// is counted, never matched on.
pub type Failure = String;

fn fail(e: impl std::fmt::Display) -> Failure {
    e.to_string()
}

/// The two benchmark models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// conv(1→1, 3×3) → ReLU(4.0) → maxpool(2, 2, 4.0) → flatten →
    /// linear(16, 16) on `[1, 8, 8]` at N = 4096 — the model of the
    /// `serve_packed` bench.
    Cnn,
    /// linear(16, 16) → ReLU(2.0) → linear(16, 4) at N = 256: shallow
    /// enough to need no refresh.
    Mlp,
}

impl Model {
    pub fn input_dim(self) -> usize {
        match self {
            Model::Cnn => 64,
            Model::Mlp => 16,
        }
    }

    /// A fresh builder for `tenant`: weights and key seed derive from
    /// the tenant id alone, so two builders of one tenant agree.
    fn builder(self, tenant: TenantId, objective: Objective) -> SessionBuilder {
        let seed = tenant.wrapping_add(9000);
        let mut rng = Rng64::new(seed);
        let builder = match self {
            Model::Cnn => Session::builder(&[1, 8, 8])
                .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
                .relu(4.0)
                .maxpool(2, 2, 4.0)
                .affine(Flatten::new())
                .affine(Linear::new(16, 16, &mut rng))
                .params(CkksParams::default_params()),
            Model::Mlp => Session::builder(&[16])
                .affine(Linear::new(16, 16, &mut rng))
                .relu(2.0)
                .affine(Linear::new(16, 4, &mut rng))
                .params(CkksParams::toy()),
        };
        builder.objective(objective).seed(seed)
    }

    /// The fixed-form (f1∘g2) plan every steady-state workload serves.
    pub fn plan(self, tenant: TenantId) -> Result<Plan, Failure> {
        self.builder(tenant, FIXED).plan().map_err(fail)
    }

    /// Plan and compile: what a session factory does per tenant.
    /// `runner_threads` replaces the default `BatchRunner::auto()`.
    pub fn session(
        self,
        tenant: TenantId,
        runner_threads: Option<usize>,
    ) -> Result<CompiledSession, SessionError> {
        let mut session = self.builder(tenant, FIXED).plan()?.compile()?;
        if let Some(threads) = runner_threads {
            session.set_batch_runner(BatchRunner::new(threads));
        }
        Ok(session)
    }
}

const FIXED: Objective = Objective::FixedForm(PafForm::F1G2);

/// The plaintext reference of a plan's pipeline: what
/// `CompiledSession::infer_plain` evaluates, without paying keygen.
pub fn reference(plan: &Plan, x: &[f64]) -> Vec<f64> {
    plan.pipeline().eval_plain(x)
}

/// One encrypted inference.
pub fn infer(session: &mut CompiledSession, x: &[f64]) -> Result<Vec<f64>, Failure> {
    session.infer(x).map_err(fail)
}

/// Its plaintext reference.
pub fn infer_plain(session: &CompiledSession, x: &[f64]) -> Result<Vec<f64>, Failure> {
    session.infer_plain(x).map_err(fail)
}

/// Refreshes the session's most recent `infer` took.
pub fn last_bootstraps(session: &CompiledSession) -> usize {
    session.last_stats().map_or(0, |s| s.bootstraps)
}

pub fn open_registry(root: &Path) -> Result<PlanRegistry, Failure> {
    PlanRegistry::open(root).map_err(fail)
}

/// `tenant`'s plan published and loaded back as a second process would
/// load it: the `save_plan` and `load_plan` marks and the artifact's
/// size in bytes.
pub fn registry_round_trip(
    registry: &PlanRegistry,
    plan: &Plan,
    tenant: TenantId,
) -> Result<([Mark; 2], u64), Failure> {
    let (key, m_save) = Mark::time("save_plan", || registry.save_plan(plan));
    let key = key.map_err(fail)?;
    let (loaded, m_load) = Mark::time("load_plan", || {
        registry.load_plan(Model::Cnn.builder(tenant, FIXED))
    });
    loaded.map_err(fail)?;
    // The content key is the artifact's filename stem
    // (docs/ARTIFACT_FORMAT.md).
    let artifact_bytes =
        std::fs::metadata(registry.root().join(format!("{key}.json"))).map_or(0, |m| m.len());
    Ok(([m_save, m_load], artifact_bytes))
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// One `run_batch` call as [`TimedService`] saw it.
#[derive(Debug, Clone, Copy)]
pub struct BatchMark {
    pub tenant: TenantId,
    pub size: usize,
    pub start: Instant,
    pub end: Instant,
}

pub type BatchLog = Arc<Mutex<Vec<BatchMark>>>;

/// Times every batch a service runs, from the batcher thread.
pub struct TimedService<S> {
    inner: S,
    log: BatchLog,
}

impl<S: BatchService> BatchService for TimedService<S> {
    type Error = S::Error;

    fn run_batch(
        &mut self,
        tenant: TenantId,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, S::Error> {
        let start = Instant::now();
        let result = self.inner.run_batch(tenant, inputs);
        let end = Instant::now();
        self.log
            .lock()
            .expect("a panic while logging a batch is a benchmark bug")
            .push(BatchMark {
                tenant,
                size: inputs.len(),
                start,
                end,
            });
        result
    }

    fn lane_capacity(&mut self, tenant: TenantId) -> usize {
        self.inner.lane_capacity(tenant)
    }
}

type Factory = Box<dyn FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send>;

enum Backing {
    /// The deployed entry points, untouched.
    Plain(Server<SessionCache<Factory>>),
    /// The same cache behind the batch timer.
    Timed(Server<TimedService<SessionCache<Factory>>>),
}

/// A running server over a session factory for `model`.
pub struct Front {
    backing: Backing,
    factory_calls: Arc<AtomicUsize>,
    log: BatchLog,
}

impl Front {
    /// Starts the server. Untimed, it is exactly
    /// `serve_sessions`/`serve_sessions_packed`; timed, the same
    /// `SessionCache` runs behind a [`TimedService`].
    pub fn start(
        model: Model,
        packed: bool,
        mut config: ServeConfig,
        runner_threads: Option<usize>,
        timed: bool,
    ) -> Front {
        let factory_calls = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&factory_calls);
        let factory: Factory = Box::new(move |tenant| {
            calls.fetch_add(1, Ordering::Relaxed);
            model.session(tenant, runner_threads)
        });
        let log = BatchLog::default();
        let backing = if timed {
            config.pack_lanes = packed;
            let service = TimedService {
                inner: SessionCache::new(factory).with_packing(packed),
                log: Arc::clone(&log),
            };
            Backing::Timed(Server::start(service, config))
        } else if packed {
            Backing::Plain(serve_sessions_packed(factory, config))
        } else {
            Backing::Plain(serve_sessions(factory, config))
        };
        Front {
            backing,
            factory_calls,
            log,
        }
    }

    pub fn submit(&self, tenant: TenantId, x: Vec<f64>) -> Result<Ticket, Failure> {
        match &self.backing {
            Backing::Plain(s) => s.submit(tenant, x),
            Backing::Timed(s) => s.submit(tenant, x),
        }
        .map_err(fail)
    }

    pub fn pause(&self) {
        match &self.backing {
            Backing::Plain(s) => s.pause(),
            Backing::Timed(s) => s.pause(),
        }
    }

    pub fn resume(&self) {
        match &self.backing {
            Backing::Plain(s) => s.resume(),
            Backing::Timed(s) => s.resume(),
        }
    }

    pub fn stats(&self) -> ServeStats {
        match &self.backing {
            Backing::Plain(s) => s.stats(),
            Backing::Timed(s) => s.stats(),
        }
    }

    /// Sessions the factory built so far: the cache's misses.
    pub fn factory_calls(&self) -> usize {
        self.factory_calls.load(Ordering::Relaxed)
    }

    /// Takes the batches timed since the last call (none when
    /// untimed).
    pub fn take_batches(&self) -> Vec<BatchMark> {
        std::mem::take(
            &mut *self
                .log
                .lock()
                .expect("a panic while logging a batch is a benchmark bug"),
        )
    }

    /// Drains and joins the batcher thread.
    pub fn shutdown(self) -> ServeStats {
        match self.backing {
            Backing::Plain(s) => s.shutdown(),
            Backing::Timed(s) => s.shutdown(),
        }
    }
}

/// Redeems a ticket; the error text of a refused or failed request.
pub fn wait(ticket: Ticket) -> Result<Vec<f64>, Failure> {
    ticket
        .wait()
        .map_err(|e: ServeError<SessionError>| e.to_string())
}

// ---------------------------------------------------------------------
// The replica path: the serving runtime rebuilt from a plan's public
// parts, so each stage and op can be timed from outside.
// ---------------------------------------------------------------------

/// Times each stage call of the backend it wraps.
pub struct TimedBackend<B> {
    inner: B,
    pub marks: Vec<Mark>,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            marks: Vec::new(),
        }
    }
}

impl<B: InferenceBackend> InferenceBackend for TimedBackend<B> {
    type Value = B::Value;

    fn begin(&mut self, pipe: &HePipeline) -> Result<(), RunError> {
        self.inner.begin(pipe)
    }

    fn affine(
        &mut self,
        v: &mut B::Value,
        mat: &DiagMatrix,
        bias: &[f64],
        label: &str,
    ) -> Result<(), RunError> {
        let (out, mark) = Mark::time("stage.affine", || self.inner.affine(v, mat, bias, label));
        self.marks.push(mark);
        out
    }

    fn paf_relu(
        &mut self,
        v: &mut B::Value,
        op: &PafOp<'_>,
        pre_scale: f64,
        post_scale: f64,
        label: &str,
    ) -> Result<(), RunError> {
        let (out, mark) = Mark::time("stage.paf_relu", || {
            self.inner.paf_relu(v, op, pre_scale, post_scale, label)
        });
        self.marks.push(mark);
        out
    }

    fn paf_max(
        &mut self,
        v: &mut B::Value,
        taps: &[DiagMatrix],
        op: &PafOp<'_>,
        post_scale: f64,
        label: &str,
    ) -> Result<(), RunError> {
        let (out, mark) = Mark::time("stage.paf_max", || {
            self.inner.paf_max(v, taps, op, post_scale, label)
        });
        self.marks.push(mark);
        out
    }

    fn level_of(&self, v: &B::Value) -> Option<usize> {
        self.inner.level_of(v)
    }

    fn bootstraps(&self) -> usize {
        self.inner.bootstraps()
    }
}

/// Exact per-request counts of a plan's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub ct_mults: usize,
    pub rotations: usize,
    pub bootstraps: usize,
}

/// One traced replica request: `encrypt`, the `stage.*` calls in
/// order, `decrypt`.
pub struct ReplicaRun {
    pub output: Vec<f64>,
    pub marks: Vec<Mark>,
    pub bootstraps: usize,
}

/// Keys, evaluator and bootstrapper built from a plan exactly as
/// `Plan::compile` builds them, with the pipeline still in reach.
pub struct Replica {
    plan: Plan,
    pe: PafEvaluator,
    bootstrapper: Bootstrapper,
    rng: Rng64,
    seed: u64,
    /// `KeyChain::generate`.
    pub keygen: Mark,
}

impl Replica {
    pub fn build(plan: Plan, tenant: TenantId) -> Replica {
        let seed = tenant.wrapping_add(9000);
        let ctx = plan.params().build();
        let mut rng = Rng64::new(seed);
        let (keys, keygen) = Mark::time("keygen", || KeyChain::generate(&ctx, &mut rng));
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let bootstrapper = Bootstrapper::new(
            pe.evaluator().clone(),
            plan.pipeline().dim(),
            seed ^ 0x9e37_79b9_7f4a_7c15,
        );
        Replica {
            plan,
            pe,
            bootstrapper,
            rng,
            seed,
            keygen,
        }
    }

    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    fn max_level(&self) -> usize {
        self.pe.evaluator().context().max_level()
    }

    /// `CompiledSession::infer`, step by step.
    pub fn infer(&mut self, x: &[f64]) -> Result<ReplicaRun, Failure> {
        let pipe = self.plan.pipeline();
        let ev = self.pe.evaluator();
        let (ct, m_encrypt) = Mark::time("encrypt", || {
            let padded = pipe.try_pad_input(x)?;
            Ok::<_, RunError>(ev.encrypt_replicated(&padded, &mut self.rng))
        });
        let mut backend = TimedBackend::new(CkksBackend::new(&self.pe, Some(&self.bootstrapper)));
        let (out_ct, stats) = pipe.run(&mut backend, ct.map_err(fail)?).map_err(fail)?;
        let (output, m_decrypt) =
            Mark::time("decrypt", || ev.decrypt_values(&out_ct, pipe.output_dim()));
        let mut marks = vec![m_encrypt];
        marks.append(&mut backend.marks);
        marks.push(m_decrypt);
        Ok(ReplicaRun {
            output,
            marks,
            bootstraps: stats.bootstraps,
        })
    }

    /// The schedule's exact counts, from the arithmetic-free dry run;
    /// at `lanes > 1` rotations are those of the lane-expanded affines.
    pub fn counts(&self, lanes: usize) -> Result<Counts, Failure> {
        let (report, stats) = self
            .plan
            .pipeline()
            .dry_run_lanes(self.max_level(), true, lanes)
            .map_err(fail)?;
        Ok(Counts {
            ct_mults: report.total_ct_mults(),
            rotations: report.total_rotations(),
            bootstraps: stats.bootstraps,
        })
    }

    /// The planner's price for one request, in milliseconds.
    pub fn predicted_ms(&self) -> f64 {
        trace_modmuls(self.plan.params(), self.plan.chosen_trace()) as f64
            * SECONDS_PER_MODMUL
            * 1e3
    }

    /// Standalone medians of the ring's kernels and ciphertext ops at
    /// the full chain, each over `reps` calls after one untimed call
    /// (lazy keys, encodings and pools are not the op), as
    /// `(metric, value)`.
    pub fn op_timings(&self, reps: usize) -> Vec<(&'static str, f64)> {
        let ev = self.pe.evaluator();
        let ctx = ev.context();
        let mut rng = Rng64::new(self.seed ^ 0x0b5e_55ed);
        let values: Vec<f64> = (0..ctx.slots())
            .map(|_| rng.next_f64() * 2.0 - 1.0)
            .collect();
        let pt = ev
            .encoder()
            .encode(&values, ctx.scale(), ctx.primes().len());
        let ct = ev.encrypt(&pt, &mut rng);
        let other = ev.encrypt(&pt, &mut rng);
        let product = ev.mul(&ct, &ct);
        let q0 = ctx.primes()[0];
        let residues: Vec<u64> = (0..ctx.n() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % q0)
            .collect();
        let first_paf = |want_max: bool| {
            self.plan.pipeline().stages().iter().find_map(|s| match s {
                Stage::PafRelu { paf, .. } if !want_max => Some(paf),
                Stage::PafMax { paf, .. } if want_max => Some(paf),
                _ => None,
            })
        };
        let mut out = vec![
            (
                "ckks.ntt.forward_us",
                median_us(reps, || {
                    let mut a = residues.clone();
                    timed_us(|| ctx.ntt(0).forward(&mut a))
                }),
            ),
            (
                "ckks.ntt.inverse_us",
                median_us(reps, || {
                    let mut a = residues.clone();
                    timed_us(|| ctx.ntt(0).inverse(&mut a))
                }),
            ),
            (
                "ckks.cipher.encrypt_us",
                median_us(reps, || timed_us(|| ev.encrypt(&pt, &mut rng))),
            ),
            (
                "ckks.cipher.decrypt_us",
                median_us(reps, || timed_us(|| ev.decrypt(&ct))),
            ),
            (
                "ckks.cipher.mul_relin_us",
                median_us(reps, || timed_us(|| ev.mul(&ct, &other))),
            ),
            (
                "ckks.cipher.rescale_us",
                median_us(reps, || {
                    let mut p = product.clone();
                    timed_us(|| ev.rescale(&mut p))
                }),
            ),
            (
                "ckks.cipher.mul_const_us",
                median_us(reps, || timed_us(|| ev.mul_const(&ct, 0.5))),
            ),
            (
                "ckks.galois.rotate_us",
                median_us(reps, || timed_us(|| ev.rotate(&ct, 1))),
            ),
            (
                "ckks.noise.refresh_us",
                median_us(reps, || timed_us(|| self.bootstrapper.refresh(&ct))),
            ),
        ];
        if let Some(ms) = self.matvec_ms(reps, self.plan.pipeline()) {
            out.push(("ckks.linear.matvec_bsgs_ms", ms));
        }
        if let Some(paf) = first_paf(false) {
            let us = median_us(reps, || timed_us(|| self.pe.relu(&ct, paf)));
            out.push(("ckks.eval.relu_ms", us / 1e3));
        }
        if let Some(paf) = first_paf(true) {
            let us = median_us(reps, || timed_us(|| self.pe.max(&ct, &other, paf)));
            out.push(("ckks.eval.max_ms", us / 1e3));
        }
        out
    }

    /// Median time of `matvec_bsgs` on the first affine of `pipe`, in
    /// milliseconds; `None` when it has none.
    pub fn matvec_ms(&self, reps: usize, pipe: &HePipeline) -> Option<f64> {
        let mat = pipe.stages().iter().find_map(|s| match s {
            Stage::Affine { mat, .. } => Some(mat),
            _ => None,
        })?;
        let ev = self.pe.evaluator();
        let mut rng = Rng64::new(self.seed ^ 0x0b5e_55ed);
        let values: Vec<f64> = (0..pipe.dim())
            .map(|_| rng.next_f64() * 2.0 - 1.0)
            .collect();
        let ct = ev.encrypt_replicated(&values, &mut rng);
        Some(median_us(reps, || timed_us(|| ev.matvec_bsgs(mat, &ct))) / 1e3)
    }

    /// The lane-expanded runtime `CompiledSession::infer_batch_packed`
    /// caches per lane count.
    pub fn packed(&self, lanes: usize) -> Result<PackedReplica, Failure> {
        let slots = self.pe.evaluator().context().slots();
        let (packer, expand) = Mark::time("expand", || {
            LanePacker::new(self.plan.pipeline(), slots, lanes)
        });
        let packer = packer.map_err(fail)?;
        let bootstrapper = Bootstrapper::new(
            self.pe.evaluator().clone(),
            packer.expanded().dim(),
            self.seed ^ 0xc2b2_ae3d_27d4_eb4f ^ lanes as u64,
        );
        Ok(PackedReplica {
            packer,
            bootstrapper,
            expand,
        })
    }

    /// One packed dispatch, step by step: pack and encrypt each
    /// lane-group, run the first ciphertext alone through the timed
    /// backend on a one-thread budget (a shard's view of the stages),
    /// run all of them through the sharded runner, decrypt and demux.
    pub fn packed_round(
        &mut self,
        packed: &PackedReplica,
        inputs: &[Vec<f64>],
    ) -> Result<PackedRound, Failure> {
        let ev = self.pe.evaluator();
        let packer = &packed.packer;
        let mut marks = Vec::new();
        let mut batches = Vec::new();
        let mut cts: Vec<Ciphertext> = Vec::new();
        for group in inputs.chunks(packer.lanes()) {
            let (pair, mark) = Mark::time("pack_encrypt", || {
                let batch = packer.pack(group)?;
                let ct = packer.encrypt(&batch, ev, &mut self.rng);
                Ok::<_, smartpaf_heinfer::PackError>((batch, ct))
            });
            let (batch, ct) = pair.map_err(fail)?;
            marks.push(mark);
            batches.push(batch);
            cts.push(ct);
        }
        let first = cts.first().ok_or("empty round")?.clone();
        let mut backend = TimedBackend::new(CkksBackend::new(&self.pe, Some(&packed.bootstrapper)));
        let (_, stats) = par::with_thread_budget(1, || packer.expanded().run(&mut backend, first))
            .map_err(fail)?;
        marks.append(&mut backend.marks);
        let (run, m_run) = Mark::time("run_packed", || {
            BatchRunner::auto().run_packed(packer, &self.pe, Some(&packed.bootstrapper), &cts)
        });
        let run = run.map_err(fail)?;
        marks.push(m_run);
        let busy: f64 = run.stats.iter().map(|s| s.wall.as_secs_f64()).sum();
        let mut outputs = Vec::with_capacity(inputs.len());
        for (batch, out_ct) in batches.iter().zip(&run.outputs) {
            let (out, mark) = Mark::time("decrypt_demux", || packer.decrypt(out_ct, batch, ev));
            marks.push(mark);
            outputs.extend(out);
        }
        Ok(PackedRound {
            outputs,
            marks,
            bootstraps: stats.bootstraps,
            threads: run.threads,
            shard_efficiency: busy / (run.threads as f64 * run.wall.as_secs_f64()),
        })
    }
}

pub struct PackedReplica {
    packer: LanePacker,
    bootstrapper: Bootstrapper,
    /// `LanePacker::new`.
    pub expand: Mark,
}

impl PackedReplica {
    pub fn expanded(&self) -> &HePipeline {
        self.packer.expanded()
    }
}

pub struct PackedRound {
    pub outputs: Vec<Vec<f64>>,
    /// `pack_encrypt` per lane-group, one ciphertext's `stage.*`,
    /// `run_packed`, `decrypt_demux` per lane-group.
    pub marks: Vec<Mark>,
    /// Refreshes one packed ciphertext took.
    pub bootstraps: usize,
    pub threads: usize,
    pub shard_efficiency: f64,
}

fn timed_us<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e6
}

/// One untimed call of `sample`, then the median of `reps` timed ones.
fn median_us(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    let samples: Vec<f64> = (0..reps).map(|_| sample()).collect();
    crate::stats::median(&samples)
}

/// Buffer-pool traffic since the last call, summed over this thread
/// and the intra-op workers: `(reuses, fresh allocations)`.
pub fn take_pool_traffic() -> (u64, u64) {
    let stats = par::aggregated_pool_stats();
    par::reset_aggregated_pool_stats();
    (stats.reuses, stats.fresh_allocs)
}
