//! The three workloads. Each sets up (several times when untraced, so
//! set-up time is a median), measures for the run length in rounds, and
//! checks every answer against the plaintext reference.
//!
//! An untraced run reports the end-to-end metrics. Its timings are the
//! run's quiet end, not its middle: the host this runs on (a few
//! virtual cores of a shared machine) adds delay for seconds to minutes
//! at a time and never removes any, so the tenth percentile of a run
//! is the program's own time and repeats between runs where the median
//! does not. A traced run alternates untraced and traced slices in one
//! process, compares the exact counts of the two kinds, and reports
//! the per-layer ledger.

use crate::api::{
    self, BatchMark, CompiledSession, Failure, Front, Model, Plan, Replica, Rng64, ServeConfig,
};
use crate::loadgen::{self, Arrival};
use crate::stats::{mean, median, percentile};
use crate::trace::{Mark, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Name and one-line reason of each workload, as in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "cnn_single_n4096",
        "one private CNN inference, closed loop, 1 client: NTT, key-switch, rotation and refresh do all the work and serving does none",
    ),
    (
        "cnn_packed_burst_n4096",
        "staged 32-request bursts through the packed server: 32 lanes in one ciphertext per dispatch, so what packing costs a request shows",
    ),
    (
        "mlp_open_loop_n256",
        "open-loop Poisson arrivals at 20 rps over 4 tenants on a tiny ring: queueing, coalescing and hand-off dominate, kernels should not matter",
    ),
];

/// End-to-end metrics and their units, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("lat_p10_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("precision_bits", "bits"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units. A workload that does not run a
/// layer leaves its metrics at 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("ckks.ntt.forward_us", "us"),
    ("ckks.ntt.inverse_us", "us"),
    ("ckks.cipher.mul_relin_us", "us"),
    ("ckks.cipher.rescale_us", "us"),
    ("ckks.cipher.mul_const_us", "us"),
    ("ckks.cipher.encrypt_us", "us"),
    ("ckks.cipher.decrypt_us", "us"),
    ("ckks.galois.rotate_us", "us"),
    ("ckks.linear.matvec_bsgs_ms", "ms"),
    ("ckks.eval.relu_ms", "ms"),
    ("ckks.eval.max_ms", "ms"),
    ("ckks.noise.refresh_us", "us"),
    ("ckks.noise.refreshes", "count"),
    ("ckks.pool.reuse_rate", "ratio"),
    ("ckks.pool.fresh_allocs_per_op", "count"),
    ("ckks.keys.generate_ms", "ms"),
    ("ckks.keys.lazy_keys_ms", "ms"),
    ("ckks.cost.predicted_ms", "ms"),
    ("ckks.cost.predicted_over_measured", "ratio"),
    ("heinfer.backends.affine_ms", "ms"),
    ("heinfer.backends.paf_relu_ms", "ms"),
    ("heinfer.backends.paf_max_ms", "ms"),
    ("heinfer.backends.stage_sum_ms", "ms"),
    ("heinfer.backends.ct_mults", "count"),
    ("heinfer.backends.rotations", "count"),
    ("heinfer.backends.bootstraps", "count"),
    ("heinfer.pack.expand_ms", "ms"),
    ("heinfer.pack.pack_encrypt_ms", "ms"),
    ("heinfer.pack.decrypt_demux_ms", "ms"),
    ("heinfer.pack.slot_fill_mean", "count"),
    ("heinfer.pack.rotation_ratio", "ratio"),
    ("heinfer.batch.shard_efficiency", "ratio"),
    ("heinfer.batch.threads", "count"),
    ("heinfer.serve.queue_wait_p50_ms", "ms"),
    ("heinfer.serve.queue_wait_p90_ms", "ms"),
    ("heinfer.serve.service_p50_ms", "ms"),
    ("heinfer.serve.reply_p50_ms", "ms"),
    ("heinfer.serve.batch_fill_mean", "count"),
    ("heinfer.serve.batches", "count"),
    ("heinfer.serve.max_queue_depth", "count"),
    ("heinfer.serve.rejected", "count"),
    ("heinfer.serve.busy_share", "ratio"),
    ("smartpaf.session.plan_ms", "ms"),
    ("smartpaf.session.dry_runs", "count"),
    ("smartpaf.session.compile_ms", "ms"),
    ("smartpaf.session.first_infer_ms", "ms"),
    ("smartpaf.session.encrypt_ms", "ms"),
    ("smartpaf.session.evaluate_ms", "ms"),
    ("smartpaf.session.decrypt_ms", "ms"),
    ("smartpaf.registry.save_ms", "ms"),
    ("smartpaf.registry.load_ms", "ms"),
    ("smartpaf.registry.artifact_bytes", "bytes"),
    ("smartpaf.serve.factory_calls", "count"),
    ("loadgen.sched_lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.fail_share", "ratio"),
    ("loadgen.lat_p50_ms", "ms"),
    ("loadgen.lat_p90_ms", "ms"),
    ("loadgen.lat_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("host.nproc", "count"),
    ("host.threads", "count"),
    ("host.peak_rss_mb", "MiB"),
];

/// Any output coordinate further than this from the plaintext
/// reference is a wrong answer.
const TOLERANCE: f64 = 1e-2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The tenant of the single-tenant workloads.
const TENANT: u64 = 0;

/// How the run was asked to go.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
    /// Why `correct` is false, or what looked noisy.
    pub notes: Vec<String>,
}

/// The library's thread budget on every workload. One: the host's two
/// virtual cores are sometimes two physical cores and sometimes the
/// two halves of one, so the same two-thread inference read 590 ms in
/// one run and 930 ms in the next, and no run of it could be held to a
/// bound. Parallel speed-up is not measured here.
pub const THREADS: usize = 1;

/// The quiet end of a run: the tenth percentile of a cost, and its
/// mirror for a rate.
const QUIET: f64 = 10.0;

pub fn run(args: &RunArgs) -> Result<Report, Failure> {
    let pass = match args.workload.as_str() {
        "cnn_single_n4096" => cnn_single(args),
        "cnn_packed_burst_n4096" => cnn_packed_burst(args),
        "mlp_open_loop_n256" => mlp_open_loop(args),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            Err(format!("--workload {other:?} is not one of {names:?}"))
        }
    }?;
    Ok(pass.report())
}

// ---------------------------------------------------------------------
// Scoring
// ---------------------------------------------------------------------

/// One round of a run: an inference, a burst, or two seconds of
/// open-loop arrivals. The rates are taken per round, so
/// that a run can report its quiet rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Round {
    /// Correct answers of the round.
    ok: usize,
    /// Those of them inside the workload's latency limit.
    good: usize,
    /// What the round's throughput divides by.
    span_s: f64,
    /// Processor time the process spent meanwhile.
    cpu_s: f64,
}

/// Answers checked and timed during one pass.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// Largest absolute error of any answer against its reference.
    max_err: f64,
    /// Latency of every correct answer.
    latencies_ms: Vec<f64>,
    /// Correct answers inside the workload's latency limit.
    good: usize,
    rounds: Vec<Round>,
    first_failure: Option<Failure>,
}

/// The largest coordinate error of an answer against its reference.
fn deviation(got: &[f64], want: &[f64]) -> Result<f64, Failure> {
    if got.len() != want.len() {
        return Err(format!("{} outputs for {}", got.len(), want.len()));
    }
    let errors = got.iter().zip(want).map(|(g, w)| (g - w).abs());
    Ok(errors.fold(0.0, f64::max))
}

/// Whether an answer that far off its reference is still right.
fn within_tolerance(err: f64) -> Result<(), Failure> {
    if err.is_nan() || err > TOLERANCE {
        return Err(format!("answer off its reference by {err:e}"));
    }
    Ok(())
}

impl Tally {
    fn answer(&mut self, got: Result<Vec<f64>, Failure>, want: &[f64], ms: f64, limit_ms: f64) {
        self.attempted += 1;
        let err = match got.and_then(|got| deviation(&got, want)) {
            Ok(err) => err,
            Err(why) => return self.fail(why),
        };
        self.max_err = self.max_err.max(err);
        if let Err(why) = within_tolerance(err) {
            return self.fail(why);
        }
        self.latencies_ms.push(ms);
        if ms <= limit_ms {
            self.good += 1;
        }
    }

    /// Ends a round: the answers tallied since the last one took
    /// `span_s`, and `cpu_s` of processor time. Generating inputs and
    /// references happens between rounds and is in neither.
    fn end_round(&mut self, span_s: f64, cpu_s: f64) {
        let before = |count: fn(&Round) -> usize| self.rounds.iter().map(count).sum::<usize>();
        let round = Round {
            ok: self.latencies_ms.len() - before(|r| r.ok),
            good: self.good - before(|r| r.good),
            span_s,
            cpu_s,
        };
        self.rounds.push(round);
    }

    /// The measured time of all rounds.
    fn span_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.span_s).sum()
    }

    /// `[lat_p10_ms, goodput_rps, cpu_ms_per_op]`: the quiet tenth of
    /// the latencies, of the rounds' rates and of their processor
    /// time per answer. A round with no correct answer has no
    /// processor time per answer and a rate of 0.
    fn quiet(&self) -> [f64; 3] {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.good as f64 / r.span_s)
            .collect();
        let cpu_ms: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.ok > 0)
            .map(|r| r.cpu_s * 1e3 / r.ok as f64)
            .collect();
        [
            percentile(&self.latencies_ms, QUIET),
            percentile(&rates, 100.0 - QUIET),
            percentile(&cpu_ms, QUIET),
        ]
    }

    /// A request refused, errored or answered wrongly. The attempt is
    /// already counted.
    fn fail(&mut self, why: Failure) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    fn refuse(&mut self, why: Failure) {
        self.attempted += 1;
        self.fail(why);
    }

    /// Adds the answers of `other`, checked apart, to this tally.
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.max_err = self.max_err.max(other.max_err);
        self.latencies_ms.extend(other.latencies_ms);
        self.good += other.good;
        self.rounds.extend(other.rounds);
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

/// The per-layer ledger: every name of [`PER_LAYER`], 0 until set.
struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn new() -> Self {
        Ledger(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }
}

/// What a traced run gathers beside its tally.
struct Traced {
    ledger: Ledger,
    tracer: Tracer,
    /// False once an exact count of the untraced pass differs from the
    /// traced one, or does not repeat.
    counts_agree: bool,
    notes: Vec<String>,
}

impl Traced {
    fn new() -> Self {
        Traced {
            ledger: Ledger::new(),
            tracer: Tracer::new(),
            counts_agree: true,
            notes: Vec::new(),
        }
    }

    /// Holds an exact count of the untraced pass against the traced one.
    fn agree(&mut self, what: &str, untraced: Option<usize>, traced: Option<usize>) {
        if untraced.is_none() || untraced != traced {
            self.counts_agree = false;
            self.notes.push(format!(
                "{what} differs or varies: untraced {untraced:?}, traced {traced:?}"
            ));
        }
    }
}

/// What a workload hands back: its tally, and either its set-up time
/// or what it traced.
struct Pass {
    tally: Tally,
    setup_s: f64,
    traced: Option<Traced>,
}

impl Pass {
    fn report(self) -> Report {
        let Pass {
            tally,
            setup_s,
            traced,
        } = self;
        let mut notes = Vec::new();
        let mut counts_agree = true;
        if let Some(why) = &tally.first_failure {
            notes.push(format!(
                "{} of {} failed, first: {why}",
                tally.failed, tally.attempted
            ));
        }
        let rss = peak_rss_mb();
        let (metrics, tracer) = match traced {
            None => {
                let [lat_p10_ms, goodput_rps, cpu_ms_per_op] = tally.quiet();
                let values = [
                    setup_s,
                    lat_p10_ms,
                    goodput_rps,
                    cpu_ms_per_op,
                    -tally.max_err.max(f64::MIN_POSITIVE).log2(),
                    rss,
                ];
                let metrics = END_TO_END
                    .iter()
                    .zip(values)
                    .map(|((name, unit), v)| (*name, v, *unit))
                    .collect();
                (metrics, None)
            }
            Some(Traced {
                mut ledger,
                tracer,
                counts_agree: agreed,
                notes: traced_notes,
            }) => {
                counts_agree = agreed;
                notes.extend(traced_notes);
                ledger.set("loadgen.sent", tally.attempted as f64);
                let fail_share = tally.failed as f64 / tally.attempted.max(1) as f64;
                ledger.set("loadgen.fail_share", fail_share);
                ledger.set("loadgen.lat_p50_ms", median(&tally.latencies_ms));
                ledger.set("loadgen.lat_p90_ms", percentile(&tally.latencies_ms, 90.0));
                ledger.set("loadgen.lat_p99_ms", percentile(&tally.latencies_ms, 99.0));
                ledger.set("trace.spans", tracer.len() as f64);
                let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
                ledger.set("host.nproc", nproc as f64);
                ledger.set("host.threads", THREADS as f64);
                ledger.set("host.peak_rss_mb", rss);
                let metrics = PER_LAYER
                    .iter()
                    .map(|(name, unit)| (*name, ledger.0[name], *unit))
                    .collect();
                (metrics, Some(tracer))
            }
        };
        Report {
            correct: tally.failed == 0 && counts_agree,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            tracer,
            notes,
        }
    }
}

/// Times `f` under `name`; also returns the processor time the process
/// spent meanwhile, in seconds.
fn measure<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Mark, f64) {
    let cpu = cpu_seconds();
    let (out, mark) = Mark::time(name, f);
    (out, mark, cpu_seconds() - cpu)
}

/// Processor time this process has used so far, all threads, user and
/// system, in seconds: the C library's `clock_gettime`, which `std`
/// links already, because `/proc/self/stat` counts in hundredths of a
/// second and an open-loop round spends only some sixty of them.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        seconds: i64,
        nanoseconds: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `time` is a valid `struct timespec` of 64-bit Linux,
    // which the call only writes to.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
        return 0.0;
    }
    time.seconds as f64 + time.nanoseconds as f64 / 1e9
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the measured state `times` times, dropping each before the
/// next so two never coexist; returns the last and the median time.
fn set_up<T>(
    times: usize,
    mut build: impl FnMut() -> Result<T, Failure>,
) -> Result<(T, f64), Failure> {
    let mut seconds = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times {
        drop(state.take());
        let start = Instant::now();
        state = Some(build()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), median(&seconds)))
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// `Some(v)` when every count is `v`: an exact count must repeat.
fn constant(counts: &[usize]) -> Option<usize> {
    let first = *counts.first()?;
    counts.iter().all(|c| *c == first).then_some(first)
}

/// A traced run alternates untraced and traced slices, so that a host
/// that slows for minutes slows both alike and their medians can be
/// held against each other.
const SLICES: usize = 3;

/// The lengths of one untraced and one traced slice: a third of the
/// run untraced, the rest traced.
fn slices(seconds: f64) -> (f64, f64) {
    let slices = SLICES as f64;
    (seconds / 3.0 / slices, seconds * 2.0 / 3.0 / slices)
}

// ---------------------------------------------------------------------
// The replica ledger, shared by every workload
// ---------------------------------------------------------------------

/// What the replica's requests measured, over however many calls.
#[derive(Default)]
struct ReplicaLog {
    /// The first request of all, which pays lazy relin/Galois keys and
    /// diagonal encodings and is not counted as steady.
    first_ms: Option<f64>,
    latencies_ms: Vec<f64>,
    bootstraps: Vec<usize>,
    /// Buffer-pool traffic of the steady requests.
    reuses: u64,
    fresh: u64,
}

/// Runs `requests` steady inferences through the replica under root
/// spans named `replica` and checks each against the reference.
fn replica_requests(
    replica: &mut Replica,
    model: Model,
    rng: &mut Rng64,
    requests: usize,
    traced: &mut Traced,
    log: &mut ReplicaLog,
) -> Result<(), Failure> {
    let warm = usize::from(log.first_ms.is_none());
    for i in 0..requests + warm {
        if i == warm {
            api::take_pool_traffic();
        }
        let x = loadgen::input(rng, model.input_dim());
        let (run, root) = Mark::time("replica", || replica.infer(&x));
        let run = run?;
        let want = api::reference(replica.plan(), &x);
        deviation(&run.output, &want)
            .and_then(within_tolerance)
            .map_err(|why| format!("the replica path diverged: {why}"))?;
        if i < warm {
            log.first_ms = Some(root.ms());
            continue;
        }
        traced.tracer.request(root, &run.marks);
        log.latencies_ms.push(root.ms());
        log.bootstraps.push(run.bootstraps);
    }
    let (reuses, fresh) = api::take_pool_traffic();
    log.reuses += reuses;
    log.fresh += fresh;
    Ok(())
}

/// Fills the per-stage rows from the `stage.*` spans under `root` and
/// returns the median of their sum per request.
fn stage_rows(traced: &mut Traced, root: &str) -> f64 {
    let Traced { ledger, tracer, .. } = traced;
    let stage = |prefix| median(&tracer.child_sums_ms(root, prefix));
    ledger.set("heinfer.backends.affine_ms", stage("stage.affine"));
    ledger.set("heinfer.backends.paf_relu_ms", stage("stage.paf_relu"));
    ledger.set("heinfer.backends.paf_max_ms", stage("stage.paf_max"));
    ledger.set("heinfer.backends.stage_sum_ms", stage("stage."));
    stage("stage.")
}

/// Fills the ckks, heinfer.backends, smartpaf.session and ckks.cost
/// rows from the replica's requests, and times its ops `op_reps` times
/// each.
fn replica_rows(
    replica: &Replica,
    log: &ReplicaLog,
    op_reps: usize,
    traced: &mut Traced,
) -> Result<(), Failure> {
    let counts = replica.counts(1)?;
    traced.agree(
        "replica bootstraps vs dry run",
        Some(counts.bootstraps),
        constant(&log.bootstraps),
    );
    let stage_sum = stage_rows(traced, "replica");
    let Traced { ledger, tracer, .. } = traced;
    ledger.set("heinfer.backends.ct_mults", counts.ct_mults as f64);
    ledger.set("heinfer.backends.rotations", counts.rotations as f64);
    ledger.set("heinfer.backends.bootstraps", counts.bootstraps as f64);
    ledger.set("ckks.noise.refreshes", counts.bootstraps as f64);
    let encrypt = median(&tracer.durations_ms("encrypt"));
    let decrypt = median(&tracer.durations_ms("decrypt"));
    let steady = median(&log.latencies_ms);
    let first_ms = log.first_ms.unwrap_or(0.0);
    ledger.set("smartpaf.session.encrypt_ms", encrypt);
    ledger.set("smartpaf.session.decrypt_ms", decrypt);
    ledger.set("smartpaf.session.evaluate_ms", steady - encrypt - decrypt);
    ledger.set("smartpaf.session.first_infer_ms", first_ms);
    ledger.set("ckks.keys.generate_ms", replica.keygen.ms());
    ledger.set("ckks.keys.lazy_keys_ms", first_ms - steady);
    let acquired = (log.reuses + log.fresh).max(1) as f64;
    ledger.set("ckks.pool.reuse_rate", log.reuses as f64 / acquired);
    let steady_requests = log.latencies_ms.len().max(1) as f64;
    ledger.set(
        "ckks.pool.fresh_allocs_per_op",
        log.fresh as f64 / steady_requests,
    );
    // What `encrypt`, the stages and `decrypt` leave of a replica
    // request is time between the wrappers: the interpreter loop and
    // whatever it does outside a stage call.
    ledger.set("trace.coverage", median(&tracer.coverage("replica")));
    let predicted = replica.predicted_ms();
    ledger.set("ckks.cost.predicted_ms", predicted);
    ledger.set("ckks.cost.predicted_over_measured", predicted / stage_sum);
    for (name, value) in replica.op_timings(op_reps) {
        ledger.set(name, value);
    }
    Ok(())
}

/// The replica's share of a served workload's traced run: `requests`
/// inferences and the rows they fill.
fn replica_layers(
    replica: &mut Replica,
    model: Model,
    rng: &mut Rng64,
    requests: usize,
    op_reps: usize,
    traced: &mut Traced,
) -> Result<(), Failure> {
    let mut log = ReplicaLog::default();
    replica_requests(replica, model, rng, requests, traced, &mut log)?;
    replica_rows(replica, &log, op_reps, traced)
}

/// Plans `model` for `tenant` and builds its replica, filling the
/// plan and compile rows from the two steps.
fn build_replica(model: Model, tenant: u64, ledger: &mut Ledger) -> Result<Replica, Failure> {
    let (plan, m_plan) = Mark::time("plan", || model.plan(tenant));
    let plan = plan?;
    ledger.set("smartpaf.session.plan_ms", m_plan.ms());
    ledger.set("smartpaf.session.dry_runs", plan.dry_runs_used() as f64);
    let (replica, m_compile) = Mark::time("compile", || Replica::build(plan, tenant));
    ledger.set("smartpaf.session.compile_ms", m_compile.ms());
    Ok(replica)
}

/// The cost of tracing: the traced slices' median latency against the
/// untraced slices'.
fn overhead_row(traced: &mut Traced, traced_ms: &[f64], untraced_ms: &[f64]) {
    let overhead = median(traced_ms) / median(untraced_ms) - 1.0;
    traced.ledger.set("trace.overhead_share", overhead);
}

// ---------------------------------------------------------------------
// cnn_single_n4096
// ---------------------------------------------------------------------

/// A single inference slower than this has missed its limit.
const SINGLE_LIMIT_MS: f64 = 2_000.0;

/// Closed loop, one client: `infer` back to back for `seconds`.
/// Returns the refreshes each request took.
fn single_loop(
    session: &mut CompiledSession,
    rng: &mut Rng64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<usize>, Failure> {
    let mut bootstraps = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let x = loadgen::input(rng, Model::Cnn.input_dim());
        let want = api::infer_plain(session, &x)?;
        let (got, mark, cpu_s) = measure("infer", || api::infer(session, &x));
        bootstraps.push(api::last_bootstraps(session));
        tally.answer(got, &want, mark.ms(), SINGLE_LIMIT_MS);
        tally.end_round(mark.ms() / 1e3, cpu_s);
    }
    Ok(bootstraps)
}

fn cnn_single(args: &RunArgs) -> Result<Pass, Failure> {
    let mut rng = Rng64::new(args.seed);
    let mut build = || {
        let mut session = Model::Cnn
            .session(TENANT, None)
            .map_err(|e| e.to_string())?;
        for _ in 0..2 {
            let x = loadgen::input(&mut rng, Model::Cnn.input_dim());
            api::infer(&mut session, &x)?;
        }
        Ok(session)
    };
    let mut tally = Tally::default();
    if !args.trace {
        let (mut session, setup_s) = set_up(SETUPS, &mut build)?;
        single_loop(&mut session, &mut rng, args.seconds, &mut tally)?;
        return Ok(Pass {
            tally,
            setup_s,
            traced: None,
        });
    }

    let (untraced_s, traced_s) = slices(args.seconds);
    let mut session = build()?;
    let mut traced = Traced::new();
    let mut replica = build_replica(Model::Cnn, TENANT, &mut traced.ledger)?;
    let mut log = ReplicaLog::default();
    let mut refreshes = Vec::new();
    for _ in 0..SLICES {
        refreshes.extend(single_loop(&mut session, &mut rng, untraced_s, &mut tally)?);
        let requests = (traced_s * 1e3 / median(&tally.latencies_ms)).ceil() as usize;
        replica_requests(
            &mut replica,
            Model::Cnn,
            &mut rng,
            requests,
            &mut traced,
            &mut log,
        )?;
    }
    replica_rows(&replica, &log, 5, &mut traced)?;
    traced.agree(
        "bootstraps per request",
        constant(&refreshes),
        constant(&log.bootstraps),
    );
    overhead_row(&mut traced, &log.latencies_ms, &tally.latencies_ms);
    registry_rows(&mut traced)?;
    Ok(Pass {
        tally,
        setup_s: 0.0,
        traced: Some(traced),
    })
}

/// A directory of this process, beside the executable and so inside
/// the build directory: the benchmark writes nowhere else.
fn scratch_dir() -> Result<PathBuf, Failure> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe.with_file_name(format!("e2e-scratch-{}", std::process::id())))
}

/// Removes the scratch directory when the workload ends, however it
/// ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fills the smartpaf.registry rows: a few tenants' plans published to
/// a registry in the scratch directory and loaded back, under root
/// spans named `publish`. What else a session-cache miss costs a
/// tenant (plan, compile, keys, the first inference) is this
/// workload's `setup_s`.
fn registry_rows(traced: &mut Traced) -> Result<(), Failure> {
    let scratch = Scratch(scratch_dir()?);
    let registry = api::open_registry(&scratch.0)?;
    let mut bytes = Vec::new();
    for tenant in 1..=5 {
        let plan = Model::Cnn.plan(tenant)?;
        let (trip, root) = Mark::time("publish", || {
            api::registry_round_trip(&registry, &plan, tenant)
        });
        let (steps, artifact_bytes) = trip?;
        traced.tracer.request(root, &steps);
        bytes.push(artifact_bytes as f64);
    }
    let Traced { ledger, tracer, .. } = traced;
    let step = |name| median(&tracer.durations_ms(name));
    ledger.set("smartpaf.registry.save_ms", step("save_plan"));
    ledger.set("smartpaf.registry.load_ms", step("load_plan"));
    ledger.set("smartpaf.registry.artifact_bytes", median(&bytes));
    Ok(())
}

// ---------------------------------------------------------------------
// Served workloads: requests, replies and their spans
// ---------------------------------------------------------------------

/// One served request as its client saw it.
struct Reply {
    tenant: u64,
    due: Instant,
    submitted: Instant,
    done: Instant,
    /// `None` when the queue refused the request.
    answer: Option<Result<Vec<f64>, Failure>>,
}

/// Scores `replies` against `wants` (latency from the due time) and,
/// when `trace` is given, files each request's spans: `send_lag`,
/// `queue_wait`, `service`, `reply`. A tenant's requests are served in
/// submission order, so its k-th admitted request rode the batch that
/// covers position k of that tenant's batch sizes.
fn score_served(
    replies: Vec<Reply>,
    wants: &[Vec<f64>],
    limit_ms: f64,
    tally: &mut Tally,
    mut trace: Option<(&mut Tracer, &[BatchMark])>,
) {
    // Per tenant, the batch each of its admitted requests rode.
    let mut rides: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
    if let Some((_, batches)) = &trace {
        for (index, batch) in batches.iter().enumerate() {
            let queue = rides.entry(batch.tenant).or_default();
            queue.extend(std::iter::repeat_n(index, batch.size));
        }
    }
    for (reply, want) in replies.into_iter().zip(wants) {
        let Some(answer) = reply.answer else {
            tally.refuse("the queue refused the request".into());
            continue;
        };
        tally.answer(answer, want, ms_between(reply.due, reply.done), limit_ms);
        let Some((tracer, batches)) = trace.as_mut() else {
            continue;
        };
        let ride = rides.get_mut(&reply.tenant).and_then(VecDeque::pop_front);
        let Some(batch) = ride.map(|index| batches[index]) else {
            continue;
        };
        let admitted = reply.submitted.max(reply.due);
        let mark = |name, start, end| Mark { name, start, end };
        tracer.request(
            mark("request", reply.due, reply.done),
            &[
                mark("send_lag", reply.due, admitted),
                mark("queue_wait", admitted, batch.start),
                mark("service", batch.start, batch.end),
                mark("reply", batch.end, reply.done),
            ],
        );
    }
}

/// Fills the heinfer.serve rows: the traced slices' batches and spans,
/// `span_s` of measuring them, and the server's counters over the whole
/// measured run.
fn serve_rows(
    traced: &mut Traced,
    batches: &[BatchMark],
    span_s: f64,
    before: &api::ServeStats,
    after: &api::ServeStats,
) {
    let Traced { ledger, tracer, .. } = traced;
    let waits = tracer.durations_ms("queue_wait");
    ledger.set("heinfer.serve.queue_wait_p50_ms", median(&waits));
    ledger.set("heinfer.serve.queue_wait_p90_ms", percentile(&waits, 90.0));
    let service: Vec<f64> = batches.iter().map(|b| ms_between(b.start, b.end)).collect();
    ledger.set("heinfer.serve.service_p50_ms", median(&service));
    let replies = tracer.durations_ms("reply");
    ledger.set("heinfer.serve.reply_p50_ms", median(&replies));
    let sizes: Vec<f64> = batches.iter().map(|b| b.size as f64).collect();
    ledger.set("heinfer.serve.batch_fill_mean", mean(&sizes));
    ledger.set("heinfer.serve.batches", batches.len() as f64);
    let busy_s = service.iter().sum::<f64>() / 1e3;
    ledger.set("heinfer.serve.busy_share", busy_s / span_s);
    let rejected = after.rejected - before.rejected;
    ledger.set("heinfer.serve.rejected", rejected as f64);
    ledger.set(
        "heinfer.serve.max_queue_depth",
        after.max_queue_depth as f64,
    );
    ledger.set("heinfer.pack.slot_fill_mean", after.mean_slot_fill());
}

// ---------------------------------------------------------------------
// cnn_packed_burst_n4096
// ---------------------------------------------------------------------

/// One full ciphertext: every lane of a dispatch taken.
const BURST: usize = 32;
const LANES: usize = 32;

/// A request of a burst answered later than this after the burst was
/// released has missed its limit.
const BURST_LIMIT_MS: f64 = 6_000.0;

fn burst_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: BURST,
        max_batch: 1,
        batch_deadline: Duration::ZERO,
        pack_lanes: true,
    }
}

fn burst_inputs(rng: &mut Rng64) -> Vec<Vec<f64>> {
    (0..BURST)
        .map(|_| loadgen::input(rng, Model::Cnn.input_dim()))
        .collect()
}

/// One staged round: pause, submit the burst, resume, wait for all.
/// Every request is due at the resume.
fn burst_round(front: &Front, inputs: &[Vec<f64>]) -> Vec<Reply> {
    front.pause();
    let staged: Vec<_> = inputs
        .iter()
        .map(|x| (Instant::now(), front.submit(TENANT, x.clone()).ok()))
        .collect();
    let due = Instant::now();
    front.resume();
    staged
        .into_iter()
        .map(|(submitted, ticket)| {
            let answer = ticket.map(api::wait);
            Reply {
                tenant: TENANT,
                due,
                submitted,
                done: Instant::now(),
                answer,
            }
        })
        .collect()
}

/// Rounds for `seconds`, each timed from the release of its burst to
/// its last reply. Returns the batches each round dispatched and, when
/// timed, their marks.
fn burst_loop(
    front: &Front,
    plan: &Plan,
    rng: &mut Rng64,
    seconds: f64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<usize>, Vec<BatchMark>) {
    let mut batches_per_round = Vec::new();
    let mut marks = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let inputs = burst_inputs(rng);
        let wants: Vec<Vec<f64>> = inputs.iter().map(|x| api::reference(plan, x)).collect();
        let before = front.stats().batches;
        front.take_batches();
        let cpu = cpu_seconds();
        let replies = burst_round(front, &inputs);
        let cpu_s = cpu_seconds() - cpu;
        batches_per_round.push(front.stats().batches - before);
        let due = replies[0].due;
        let last = replies.iter().map(|r| r.done).max().unwrap_or(due);
        let batches = front.take_batches();
        let trace = tracer.as_deref_mut().map(|t| (t, batches.as_slice()));
        score_served(replies, &wants, BURST_LIMIT_MS, tally, trace);
        tally.end_round(ms_between(due, last) / 1e3, cpu_s);
        marks.extend(batches);
    }
    (batches_per_round, marks)
}

fn cnn_packed_burst(args: &RunArgs) -> Result<Pass, Failure> {
    let mut rng = Rng64::new(args.seed);
    let plan = Model::Cnn.plan(TENANT)?;
    let mut build = |timed| {
        let front = Front::start(Model::Cnn, true, burst_config(), None, timed);
        // One full round warms what a single request would not: the
        // lane-expanded pipeline, its encodings and its bootstrapper.
        let warm = burst_round(&front, &burst_inputs(&mut rng));
        match warm.into_iter().find_map(|r| r.answer?.err()) {
            Some(why) => Err(format!("warm-up round failed: {why}")),
            None => Ok(front),
        }
    };
    let mut tally = Tally::default();
    if !args.trace {
        let (front, setup_s) = set_up(SETUPS, || build(false))?;
        burst_loop(&front, &plan, &mut rng, args.seconds, &mut tally, None);
        front.shutdown();
        return Ok(Pass {
            tally,
            setup_s,
            traced: None,
        });
    }

    // Two servers side by side: the untraced slices go to the deployed
    // entry point, the traced ones to the same cache behind the batch
    // timer. The idle one only holds memory.
    let (untraced_s, traced_s) = slices(args.seconds);
    let (plain, front) = (build(false)?, build(true)?);
    let before = front.stats();
    let mut traced = Traced::new();
    let mut traced_tally = Tally::default();
    let (mut untraced_batches, mut traced_batches, mut batches) = (vec![], vec![], vec![]);
    for _ in 0..SLICES {
        let (rounds, _) = burst_loop(&plain, &plan, &mut rng, untraced_s, &mut tally, None);
        untraced_batches.extend(rounds);
        let tracer = Some(&mut traced.tracer);
        let (rounds, marks) =
            burst_loop(&front, &plan, &mut rng, traced_s, &mut traced_tally, tracer);
        traced_batches.extend(rounds);
        batches.extend(marks);
    }
    let after = front.stats();
    let factory_calls = front.factory_calls();
    let untraced_factory_calls = plain.factory_calls();
    front.shutdown();
    plain.shutdown();

    traced.agree(
        "batches per round",
        constant(&untraced_batches),
        constant(&traced_batches),
    );
    traced.agree(
        "factory calls",
        Some(untraced_factory_calls),
        Some(factory_calls),
    );
    traced.agree("factory calls vs tenants", Some(1), Some(factory_calls));
    let ledger = &mut traced.ledger;
    ledger.set("smartpaf.serve.factory_calls", factory_calls as f64);
    let (traced_ms, untraced_ms) = (&traced_tally.latencies_ms, &tally.latencies_ms);
    overhead_row(&mut traced, traced_ms, untraced_ms);
    let span_s = traced_tally.span_s();
    serve_rows(&mut traced, &batches, span_s, &before, &after);
    tally.absorb(traced_tally);

    // The replica: unpacked requests for the op rows and the stage
    // rows of the base pipeline, then packed rounds for the rows of
    // the deployed lane-expanded one, which overwrite the stage rows.
    let mut replica = build_replica(Model::Cnn, TENANT, &mut traced.ledger)?;
    replica_layers(&mut replica, Model::Cnn, &mut rng, 2, 5, &mut traced)?;
    packed_rows(&mut replica, &mut rng, &mut traced)?;
    Ok(Pass {
        tally,
        setup_s: 0.0,
        traced: Some(traced),
    })
}

/// Packed replica rounds under root spans named `packed_round`: the
/// heinfer.pack and heinfer.batch rows, and the stage rows of one
/// lane-expanded ciphertext.
fn packed_rows(replica: &mut Replica, rng: &mut Rng64, traced: &mut Traced) -> Result<(), Failure> {
    let packed = replica.packed(LANES)?;
    let base = replica.counts(1)?;
    let expanded = replica.counts(LANES)?;
    let mut efficiency = Vec::new();
    let mut bootstraps = Vec::new();
    let mut threads = 0;
    // The first round pays the expanded pipeline's lazy keys and
    // encodings and is not recorded.
    for round in 0..3 {
        let inputs = burst_inputs(rng);
        let (run, root) = Mark::time("packed_round", || replica.packed_round(&packed, &inputs));
        let run = run?;
        for (got, x) in run.outputs.iter().zip(&inputs) {
            let want = api::reference(replica.plan(), x);
            deviation(got, &want)
                .and_then(within_tolerance)
                .map_err(|why| format!("the packed replica path diverged: {why}"))?;
        }
        if round > 0 {
            traced.tracer.request(root, &run.marks);
            efficiency.push(run.shard_efficiency);
            bootstraps.push(run.bootstraps);
            threads = run.threads;
        }
    }
    traced.agree(
        "packed replica bootstraps vs dry run",
        Some(expanded.bootstraps),
        constant(&bootstraps),
    );
    let stage_sum = stage_rows(traced, "packed_round");
    let Traced { ledger, tracer, .. } = traced;
    ledger.set("heinfer.backends.rotations", expanded.rotations as f64);
    let predicted = replica.predicted_ms();
    ledger.set("ckks.cost.predicted_over_measured", predicted / stage_sum);
    let rotation_ratio = expanded.rotations as f64 / base.rotations as f64;
    ledger.set("heinfer.pack.rotation_ratio", rotation_ratio);
    ledger.set("heinfer.pack.expand_ms", packed.expand.ms());
    let pack_encrypt = tracer.durations_ms("pack_encrypt");
    ledger.set("heinfer.pack.pack_encrypt_ms", median(&pack_encrypt));
    let decrypt_demux = tracer.durations_ms("decrypt_demux");
    ledger.set("heinfer.pack.decrypt_demux_ms", median(&decrypt_demux));
    ledger.set("heinfer.batch.shard_efficiency", median(&efficiency));
    ledger.set("heinfer.batch.threads", threads as f64);
    if let Some(ms) = replica.matvec_ms(3, packed.expanded()) {
        ledger.set("ckks.linear.matvec_bsgs_ms", ms);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// mlp_open_loop_n256
// ---------------------------------------------------------------------

const OPEN_LOOP_RPS: f64 = 20.0;
const OPEN_LOOP_LIMIT_MS: f64 = 150.0;
/// The arrivals of a run come as rounds of this length, each its own
/// schedule, sent one after another.
const OPEN_LOOP_ROUND_S: f64 = 2.0;
const TENANT_SHARES: [f64; 4] = [0.7, 0.1, 0.1, 0.1];

fn open_loop_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        max_batch: 4,
        batch_deadline: Duration::from_millis(2),
        pack_lanes: false,
    }
}

/// Sends `schedule` on time whatever the server does, one waiter
/// thread per request so a reply is timed when it arrives, not when
/// an earlier one is collected. Returns replies in schedule order.
fn send_open_loop(front: &Front, schedule: &[Arrival]) -> Vec<Reply> {
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let waiters: Vec<_> = schedule
            .iter()
            .map(|arrival| {
                let due = start + arrival.due;
                loadgen::sleep_until(due);
                let submitted = Instant::now();
                let waiter = front
                    .submit(arrival.tenant, arrival.input.clone())
                    .ok()
                    .map(|ticket| scope.spawn(move || (api::wait(ticket), Instant::now())));
                (arrival.tenant, due, submitted, waiter)
            })
            .collect();
        waiters
            .into_iter()
            .map(|(tenant, due, submitted, waiter)| {
                let (answer, done) = match waiter {
                    Some(handle) => {
                        let (answer, done) = handle.join().expect("a waiter only waits");
                        (Some(answer), done)
                    }
                    None => (None, submitted),
                };
                Reply {
                    tenant,
                    due,
                    submitted,
                    done,
                    answer,
                }
            })
            .collect()
    })
}

/// Open-loop rounds for `seconds` at the fixed rate. Returns how late
/// each request was sent, in milliseconds, and the batches timed.
fn open_loop_pass(
    front: &Front,
    plans: &[Plan],
    rng: &mut Rng64,
    seconds: f64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<f64>, Vec<BatchMark>) {
    let rounds = (seconds / OPEN_LOOP_ROUND_S).round().max(1.0);
    let (mut lags, mut batches) = (Vec::new(), Vec::new());
    for _ in 0..rounds as usize {
        let tracer = tracer.as_deref_mut();
        let (late, marks) = open_loop_round(front, plans, rng, seconds / rounds, tally, tracer);
        lags.extend(late);
        batches.extend(marks);
    }
    (lags, batches)
}

/// One round: its own schedule of `seconds`, sent and waited out.
fn open_loop_round(
    front: &Front,
    plans: &[Plan],
    rng: &mut Rng64,
    seconds: f64,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> (Vec<f64>, Vec<BatchMark>) {
    let count = (OPEN_LOOP_RPS * seconds).round().max(2.0) as usize;
    let span = Duration::from_secs_f64(seconds);
    let dim = Model::Mlp.input_dim();
    let schedule = loadgen::poisson_schedule(rng, count, span, &TENANT_SHARES, dim);
    let wants: Vec<Vec<f64>> = schedule
        .iter()
        .map(|a| api::reference(&plans[a.tenant as usize], &a.input))
        .collect();
    front.take_batches();
    let cpu = cpu_seconds();
    let replies = send_open_loop(front, &schedule);
    let cpu_s = cpu_seconds() - cpu;
    let batches = front.take_batches();
    let lags = replies
        .iter()
        .map(|r| ms_between(r.due, r.submitted))
        .collect();
    let first = replies.iter().map(|r| r.due).min();
    let last = replies.iter().map(|r| r.done).max();
    let span_s = match (first, last) {
        (Some(first), Some(last)) => ms_between(first, last) / 1e3,
        _ => seconds,
    };
    let trace = tracer.map(|t| (t, batches.as_slice()));
    score_served(replies, &wants, OPEN_LOOP_LIMIT_MS, tally, trace);
    tally.end_round(span_s, cpu_s);
    (lags, batches)
}

fn mlp_open_loop(args: &RunArgs) -> Result<Pass, Failure> {
    let mut rng = Rng64::new(args.seed);
    let tenants = TENANT_SHARES.len() as u64;
    let plans: Vec<Plan> = (0..tenants)
        .map(|t| Model::Mlp.plan(t))
        .collect::<Result<_, _>>()?;
    let mut build = |timed| {
        let front = Front::start(Model::Mlp, false, open_loop_config(), Some(1), timed);
        for tenant in 0..tenants {
            for _ in 0..3 {
                let x = loadgen::input(&mut rng, Model::Mlp.input_dim());
                api::wait(front.submit(tenant, x)?)?;
            }
        }
        Ok(front)
    };
    let mut tally = Tally::default();
    if !args.trace {
        let (front, setup_s) = set_up(SETUPS, || build(false))?;
        open_loop_pass(&front, &plans, &mut rng, args.seconds, &mut tally, None);
        front.shutdown();
        return Ok(Pass {
            tally,
            setup_s,
            traced: None,
        });
    }

    // Two servers side by side, as in the burst.
    let (untraced_s, traced_s) = slices(args.seconds);
    let (plain, front) = (build(false)?, build(true)?);
    let before = front.stats();
    let mut traced = Traced::new();
    let mut traced_tally = Tally::default();
    let (mut lags, mut batches) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        open_loop_pass(&plain, &plans, &mut rng, untraced_s, &mut tally, None);
        let tracer = Some(&mut traced.tracer);
        let (late, marks) = open_loop_pass(
            &front,
            &plans,
            &mut rng,
            traced_s,
            &mut traced_tally,
            tracer,
        );
        lags.extend(late);
        batches.extend(marks);
    }
    let after = front.stats();
    let factory_calls = front.factory_calls();
    let untraced_factory_calls = plain.factory_calls();
    front.shutdown();
    plain.shutdown();

    traced.agree(
        "factory calls",
        Some(untraced_factory_calls),
        Some(factory_calls),
    );
    let tenants = tenants as usize;
    traced.agree(
        "factory calls vs tenants",
        Some(tenants),
        Some(factory_calls),
    );
    let ledger = &mut traced.ledger;
    ledger.set("smartpaf.serve.factory_calls", factory_calls as f64);
    let lag_p99 = percentile(&lags, 99.0);
    ledger.set("loadgen.sched_lag_p99_ms", lag_p99);
    if lag_p99 > 10.0 {
        let note = format!("noisy run: the sender ran {lag_p99:.1} ms late at p99");
        traced.notes.push(note);
    }
    let (traced_ms, untraced_ms) = (&traced_tally.latencies_ms, &tally.latencies_ms);
    overhead_row(&mut traced, traced_ms, untraced_ms);
    let span_s = traced_tally.span_s();
    serve_rows(&mut traced, &batches, span_s, &before, &after);
    tally.absorb(traced_tally);

    let mut replica = build_replica(Model::Mlp, TENANT, &mut traced.ledger)?;
    replica_layers(&mut replica, Model::Mlp, &mut rng, 30, 25, &mut traced)?;
    Ok(Pass {
        tally,
        setup_s: 0.0,
        traced: Some(traced),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tally_counts_wrong_late_and_refused_answers() {
        let mut tally = Tally::default();
        tally.answer(Ok(vec![1.0, 2.0]), &[1.0, 2.001], 5.0, 10.0);
        tally.answer(Ok(vec![1.0, 2.0]), &[1.0, 2.0], 50.0, 10.0);
        tally.answer(Ok(vec![1.0, 2.5]), &[1.0, 2.0], 5.0, 10.0);
        tally.answer(Ok(vec![1.0]), &[1.0, 2.0], 5.0, 10.0);
        tally.answer(Err("boom".into()), &[1.0], 5.0, 10.0);
        tally.refuse("full".into());
        assert_eq!((tally.attempted, tally.failed, tally.good), (6, 4, 1));
        assert_eq!(tally.latencies_ms, vec![5.0, 50.0]);
        tally.end_round(0.5, 0.25);
        tally.answer(Ok(vec![1.0]), &[1.0], 7.0, 10.0);
        tally.end_round(0.25, 0.125);
        let round = |ok, good, span_s, cpu_s| Round {
            ok,
            good,
            span_s,
            cpu_s,
        };
        assert_eq!(
            tally.rounds,
            vec![round(2, 1, 0.5, 0.25), round(1, 1, 0.25, 0.125)]
        );
        assert_eq!(tally.span_s(), 0.75);
        assert_eq!(tally.max_err, 0.5);
        assert!(tally.first_failure.unwrap().contains("off its reference"));
    }

    #[test]
    fn the_open_loop_reason_names_the_rate_offered() {
        let (name, why) = WORKLOADS[2];
        assert_eq!(name, "mlp_open_loop_n256");
        assert!(why.contains(&format!("at {OPEN_LOOP_RPS} rps")), "{why}");
    }

    #[test]
    fn exact_counts_must_repeat() {
        assert_eq!(constant(&[5, 5, 5]), Some(5));
        assert_eq!(constant(&[5, 4]), None);
        assert_eq!(constant(&[]), None);
    }

    #[test]
    fn requests_ride_their_tenants_batches_in_order() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let batch = |tenant, size, a, b| BatchMark {
            tenant,
            size,
            start: at(a),
            end: at(b),
        };
        // Tenant 0 sends three requests, tenant 1 one in between; the
        // batcher serves tenant 0 as a pair, then tenant 1, then the
        // last of tenant 0.
        let batches = [
            batch(0, 2, 10, 20),
            batch(1, 1, 20, 25),
            batch(0, 1, 25, 30),
        ];
        let reply = |tenant, due, done| Reply {
            tenant,
            due: at(due),
            submitted: at(due),
            done: at(done),
            answer: Some(Ok(vec![0.0])),
        };
        let replies = vec![
            reply(0, 0, 21),
            reply(1, 1, 26),
            reply(0, 2, 21),
            reply(0, 3, 31),
        ];
        let wants = vec![vec![0.0]; 4];
        let mut tally = Tally::default();
        let mut tracer = Tracer::new();
        score_served(
            replies,
            &wants,
            100.0,
            &mut tally,
            Some((&mut tracer, &batches)),
        );
        assert_eq!((tally.attempted, tally.failed, tally.good), (4, 0, 4));
        assert_eq!(
            tracer.durations_ms("queue_wait"),
            vec![10.0, 19.0, 8.0, 22.0]
        );
        assert_eq!(tracer.durations_ms("service"), vec![10.0, 5.0, 10.0, 5.0]);
        assert_eq!(tracer.durations_ms("reply"), vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn the_ledger_knows_exactly_the_per_layer_names() {
        let mut ledger = Ledger::new();
        ledger.set("trace.coverage", 0.97);
        assert_eq!(ledger.0.len(), PER_LAYER.len());
        assert_eq!(ledger.0["trace.coverage"], 0.97);
        assert_eq!(ledger.0["ckks.noise.refreshes"], 0.0);
    }
}
