//! A long-lived serving front end for encrypted inference: bounded
//! request queue, dynamic same-tenant batching, backpressure, and
//! graceful shutdown — std-only (worker thread + `mpsc`/`Condvar`).
//!
//! The serving shape is the classic MLSys one: clients [`Server::submit`]
//! single inputs and get a [`Ticket`] back; a batcher thread coalesces
//! the queued requests *of the same tenant* into one batch of up to
//! [`ServeConfig::max_batch`] — waiting up to
//! [`ServeConfig::batch_deadline`] only while a packed batch's last
//! lane-group has a free lane — and hands it to the tenant's
//! [`BatchService`] (in the full stack, a cached `CompiledSession`
//! driving [`BatchRunner`](crate::BatchRunner)). Admission control is a
//! bounded queue: once [`ServeConfig::queue_capacity`] requests are
//! waiting, submissions are rejected with [`ServeError::QueueFull`]
//! instead of growing latency without bound. [`Server::shutdown`]
//! drains every queued request before returning the final
//! [`ServeStats`] (p50/p99 served latency, batch-fill histogram, queue
//! high-water mark).
//!
//! A panic inside the service is contained (the batch's tickets
//! resolve to [`ServeError::ServerGone`]) and the batcher keeps
//! serving — one poisoned input cannot take the process down.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies a tenant: one tenant = one model + key material, so
/// requests of different tenants can never share a batch.
pub type TenantId = u64;

/// The inference engine a [`Server`] drives: anything that can run a
/// same-tenant batch of plaintext-encoded inputs end to end. The
/// serving layer stays independent of how sessions are built — the
/// `smartpaf` crate implements this for its per-tenant session cache.
pub trait BatchService: Send {
    /// The service's own error type, cloned to every request of a
    /// failed batch.
    type Error: Clone + Send + fmt::Debug + 'static;

    /// Runs one batch for one tenant, returning one output per input
    /// in input order.
    fn run_batch(
        &mut self,
        tenant: TenantId,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, Self::Error>;

    /// How many inputs this tenant's engine can multiplex into one
    /// ciphertext (the slot-packing capacity `K = slots / padded_dim`,
    /// see `heinfer::pack`). The default of 1 means "no packing";
    /// packing-aware services override it so the batcher
    /// ([`ServeConfig::pack_lanes`]) can fill slot lanes before
    /// growing worker batches.
    fn lane_capacity(&mut self, tenant: TenantId) -> usize {
        let _ = tenant;
        1
    }
}

/// Why a request was rejected or failed, typed so callers can
/// distinguish backpressure from real errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError<E> {
    /// The bounded queue is at capacity — back off and retry.
    QueueFull {
        /// The configured queue capacity the request bounced off.
        capacity: usize,
    },
    /// The server is draining; no new requests are admitted.
    ShuttingDown,
    /// The batch this request rode in failed; every member gets the
    /// same service error.
    Service(E),
    /// The server (or the batch's worker) died before answering —
    /// e.g. a panic inside the service.
    ServerGone,
}

impl<E: fmt::Display> fmt::Display for ServeError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "request queue full ({capacity} waiting); retry later")
            }
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Service(e) => write!(f, "batch failed: {e}"),
            ServeError::ServerGone => f.write_str("server dropped the request without answering"),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for ServeError<E> {}

/// Serving knobs: queue bound, batch cap, and coalescing deadline.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Requests the queue admits before [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Most requests one batch carries.
    pub max_batch: usize,
    /// How long the batcher waits for a same-tenant request to fill a
    /// free lane before dispatching. It waits only while the batch's
    /// last lane-group has an empty lane: a request there rides a
    /// ciphertext already paid for, while one that opens a new group
    /// costs a whole evaluation. An unpacked server therefore never
    /// waits. `Duration::ZERO` dispatches whatever is queued
    /// immediately (deterministic, good for tests).
    pub batch_deadline: Duration,
    /// Fill slot lanes first: when set, the batcher asks the service
    /// for each tenant's [`BatchService::lane_capacity`] `K` and
    /// coalesces up to `max_batch · K` same-tenant requests per
    /// dispatch, so the service can multiplex each group of `K` inputs
    /// into one ciphertext (`heinfer::pack`); it holds a batch for up
    /// to `batch_deadline` only while its last group has fewer than
    /// `K` inputs. [`ServeStats`] then records slot-occupancy metrics
    /// alongside the request batch-fill histogram. Off by default —
    /// the service must actually pack for this to help; unpacked, the
    /// batcher never waits.
    pub pack_lanes: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            batch_deadline: Duration::from_millis(2),
            pack_lanes: false,
        }
    }
}

/// Counters and latency records of one server's lifetime, returned by
/// [`Server::stats`] (a snapshot) and [`Server::shutdown`] (final).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests answered successfully.
    pub served: usize,
    /// Requests answered with a service error (or dropped by a panic).
    pub failed: usize,
    /// Submissions bounced off the full queue.
    pub rejected: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Batch-fill histogram: `batch_fill[k]` batches carried exactly
    /// `k` requests (index 0 is unused).
    pub batch_fill: Vec<usize>,
    /// Most requests ever waiting at once (queue high-water mark).
    pub max_queue_depth: usize,
    /// Ciphertext lane-groups dispatched under slot packing
    /// ([`ServeConfig::pack_lanes`]); 0 when packing is off.
    pub slot_batches: usize,
    /// Slot-fill histogram: `slot_fill[k]` lane-groups carried exactly
    /// `k` requests in their slot lanes (index 0 is unused).
    pub slot_fill: Vec<usize>,
    /// Served latency per request (submit → answer), milliseconds.
    latencies_ms: Vec<f64>,
}

impl ServeStats {
    /// Served latency at percentile `p` in `[0, 100]` (nearest-rank on
    /// the sorted record), in milliseconds; 0.0 before anything was
    /// served.
    fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Median served latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// 99th-percentile served latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(99.0)
    }

    /// Mean requests per dispatched batch (0.0 before any batch).
    pub fn mean_fill(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let total: usize = self
            .batch_fill
            .iter()
            .enumerate()
            .map(|(fill, count)| fill * count)
            .sum();
        total as f64 / self.batches as f64
    }

    /// Mean requests per ciphertext lane-group under slot packing
    /// (0.0 when packing never dispatched). Read together with
    /// [`ServeStats::mean_fill`]: `mean_fill` is requests per *worker
    /// batch*, `mean_slot_fill` requests per *ciphertext* — the lane
    /// occupancy that the packed-eval amortization actually tracks.
    pub fn mean_slot_fill(&self) -> f64 {
        if self.slot_batches == 0 {
            return 0.0;
        }
        let total: usize = self
            .slot_fill
            .iter()
            .enumerate()
            .map(|(fill, count)| fill * count)
            .sum();
        total as f64 / self.slot_batches as f64
    }

    fn record_batch(&mut self, fill: usize) {
        self.batches += 1;
        if self.batch_fill.len() <= fill {
            self.batch_fill.resize(fill + 1, 0);
        }
        self.batch_fill[fill] += 1;
    }

    fn record_slot_group(&mut self, fill: usize) {
        self.slot_batches += 1;
        if self.slot_fill.len() <= fill {
            self.slot_fill.resize(fill + 1, 0);
        }
        self.slot_fill[fill] += 1;
    }
}

/// One queued request.
struct Request<E> {
    tenant: TenantId,
    input: Vec<f64>,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Vec<f64>, ServeError<E>>>,
}

/// Queue state guarded by one mutex; the batcher sleeps on the condvar.
struct QueueState<E> {
    queue: VecDeque<Request<E>>,
    shutting_down: bool,
    paused: bool,
}

struct Shared<E> {
    state: Mutex<QueueState<E>>,
    available: Condvar,
    stats: Mutex<ServeStats>,
}

/// A pending request's receipt: redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket<E> {
    rx: mpsc::Receiver<Result<Vec<f64>, ServeError<E>>>,
}

impl<E> Ticket<E> {
    /// Blocks until the request is answered. A server that died (or a
    /// batch whose worker panicked) surfaces as
    /// [`ServeError::ServerGone`].
    pub fn wait(self) -> Result<Vec<f64>, ServeError<E>> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::ServerGone),
        }
    }
}

/// The serving front end: owns the bounded queue and the batcher
/// thread (which owns the [`BatchService`]).
///
/// # Example
///
/// ```
/// use smartpaf_heinfer::serve::{BatchService, ServeConfig, Server, TenantId};
///
/// struct Doubler;
/// impl BatchService for Doubler {
///     type Error = std::convert::Infallible;
///     fn run_batch(
///         &mut self,
///         _tenant: TenantId,
///         inputs: &[Vec<f64>],
///     ) -> Result<Vec<Vec<f64>>, Self::Error> {
///         Ok(inputs.iter().map(|x| x.iter().map(|v| 2.0 * v).collect()).collect())
///     }
/// }
///
/// let server = Server::start(Doubler, ServeConfig::default());
/// let ticket = server.submit(0, vec![1.0, 2.0]).unwrap();
/// assert_eq!(ticket.wait().unwrap(), vec![2.0, 4.0]);
/// let stats = server.shutdown();
/// assert_eq!(stats.served, 1);
/// ```
pub struct Server<S: BatchService> {
    shared: Arc<Shared<S::Error>>,
    config: ServeConfig,
    batcher: Option<JoinHandle<()>>,
}

impl<S: BatchService + 'static> Server<S> {
    /// Starts the server: spawns the batcher thread, which takes
    /// ownership of `service`.
    pub fn start(service: S, config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutting_down: false,
                paused: false,
            }),
            available: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(service, shared, config))
        };
        Server {
            shared,
            config,
            batcher: Some(batcher),
        }
    }

    /// Submits one request. Admission control happens here: a full
    /// queue answers [`ServeError::QueueFull`] immediately (the
    /// backpressure signal), a draining server
    /// [`ServeError::ShuttingDown`].
    pub fn submit(
        &self,
        tenant: TenantId,
        input: Vec<f64>,
    ) -> Result<Ticket<S::Error>, ServeError<S::Error>> {
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        if st.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= self.config.queue_capacity {
            drop(st);
            self.shared.stats.lock().expect("stats poisoned").rejected += 1;
            return Err(ServeError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let (tx, rx) = mpsc::channel();
        st.queue.push_back(Request {
            tenant,
            input,
            enqueued: Instant::now(),
            reply: tx,
        });
        let depth = st.queue.len();
        drop(st);
        {
            let mut stats = self.shared.stats.lock().expect("stats poisoned");
            stats.max_queue_depth = stats.max_queue_depth.max(depth);
        }
        self.shared.available.notify_all();
        Ok(Ticket { rx })
    }

    /// Requests currently waiting (in-flight batches not included).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("serve state poisoned")
            .queue
            .len()
    }

    /// Freezes the batcher so submissions accumulate — the hook tests
    /// and demos use to stage a burst and observe coalescing
    /// deterministically. Shutdown overrides a pause.
    pub fn pause(&self) {
        self.shared
            .state
            .lock()
            .expect("serve state poisoned")
            .paused = true;
    }

    /// Resumes a paused batcher.
    pub fn resume(&self) {
        self.shared
            .state
            .lock()
            .expect("serve state poisoned")
            .paused = false;
        self.shared.available.notify_all();
    }

    /// A snapshot of the serving counters so far.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.lock().expect("stats poisoned").clone()
    }

    /// Graceful shutdown: stops admitting, drains every queued request
    /// through the batcher, joins it, and returns the final stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_shutdown();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        self.shared.stats.lock().expect("stats poisoned").clone()
    }

    fn begin_shutdown(&self) {
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        st.shutting_down = true;
        st.paused = false;
        drop(st);
        self.shared.available.notify_all();
    }
}

impl<S: BatchService> Drop for Server<S> {
    /// Dropping the server without [`Server::shutdown`] still drains
    /// gracefully.
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("serve state poisoned");
            st.shutting_down = true;
            st.paused = false;
        }
        self.shared.available.notify_all();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

/// Removes up to `cap` requests of `tenant` from anywhere in the
/// queue, preserving arrival order.
fn drain_tenant<E>(
    queue: &mut VecDeque<Request<E>>,
    tenant: TenantId,
    cap: usize,
) -> Vec<Request<E>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < queue.len() && out.len() < cap {
        if queue[i].tenant == tenant {
            out.push(queue.remove(i).expect("index checked"));
        } else {
            i += 1;
        }
    }
    out
}

/// The batcher: wait → coalesce one tenant's requests (up to the cap,
/// waiting at most the deadline for a free lane to fill) → run the
/// batch → answer every member. Exits once shutdown is flagged *and*
/// the queue is drained.
fn batcher_loop<S: BatchService>(
    mut service: S,
    shared: Arc<Shared<S::Error>>,
    config: ServeConfig,
) {
    let max_batch = config.max_batch.max(1);
    loop {
        let batch = {
            let mut st = shared.state.lock().expect("serve state poisoned");
            loop {
                if st.queue.is_empty() {
                    if st.shutting_down {
                        return; // drained: graceful exit
                    }
                } else if !st.paused || st.shutting_down {
                    break;
                }
                st = shared.available.wait(st).expect("serve state poisoned");
            }
            let tenant = st.queue.front().expect("non-empty").tenant;
            // Slot packing multiplies the coalescing cap: each group
            // of `lanes` requests shares one ciphertext, so one worker
            // batch of `max_batch` ciphertexts carries up to
            // `max_batch · lanes` requests.
            let lanes = if config.pack_lanes {
                service.lane_capacity(tenant).max(1)
            } else {
                1
            };
            let cap = max_batch.saturating_mul(lanes);
            let mut batch = drain_tenant(&mut st.queue, tenant, cap);
            // Coalescing window: a request that joins the last
            // lane-group's empty lane rides its ciphertext for free,
            // while one that would open a new group costs a whole
            // evaluation. So wait out the deadline only while the last
            // group has a free lane — never on an unpacked server —
            // and not once we are draining.
            let has_free_lane = |n: usize| n < cap && !n.is_multiple_of(lanes);
            if has_free_lane(batch.len()) && !st.shutting_down && !config.batch_deadline.is_zero() {
                let deadline = Instant::now() + config.batch_deadline;
                loop {
                    let now = Instant::now();
                    if now >= deadline || !has_free_lane(batch.len()) || st.shutting_down {
                        break;
                    }
                    let (guard, timeout) = shared
                        .available
                        .wait_timeout(st, deadline - now)
                        .expect("serve state poisoned");
                    st = guard;
                    batch.extend(drain_tenant(&mut st.queue, tenant, cap - batch.len()));
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            (batch, lanes)
        };
        let (batch, lanes) = batch;

        let tenant = batch[0].tenant;
        let inputs: Vec<Vec<f64>> = batch.iter().map(|r| r.input.clone()).collect();
        // Contain a panicking service exactly like `BatchRunner`
        // contains a panicking worker: the batch's tickets resolve to
        // `ServerGone` and the server keeps serving.
        let result = catch_unwind(AssertUnwindSafe(|| service.run_batch(tenant, &inputs)));
        let answered = Instant::now();
        let mut stats = shared.stats.lock().expect("stats poisoned");
        stats.record_batch(batch.len());
        if config.pack_lanes {
            // Slot occupancy: the service packs each consecutive group
            // of `lanes` inputs into one ciphertext; record how full
            // each lane-group ran.
            let mut left = batch.len();
            while left > 0 {
                let fill = left.min(lanes);
                stats.record_slot_group(fill);
                left -= fill;
            }
        }
        match result {
            Ok(Ok(outputs)) if outputs.len() == batch.len() => {
                stats.served += batch.len();
                for (req, out) in batch.into_iter().zip(outputs) {
                    stats
                        .latencies_ms
                        .push(answered.duration_since(req.enqueued).as_secs_f64() * 1e3);
                    let _ = req.reply.send(Ok(out));
                }
            }
            Ok(Ok(_)) | Err(_) => {
                // A panicking or arity-breaking service: drop the
                // reply senders so every ticket sees `ServerGone`.
                stats.failed += batch.len();
            }
            Ok(Err(e)) => {
                stats.failed += batch.len();
                for req in batch {
                    let _ = req.reply.send(Err(ServeError::Service(e.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared log of `(tenant, batch_len)` per dispatched batch.
    type CallLog = Arc<Mutex<Vec<(TenantId, usize)>>>;

    /// A service that records every batch it runs.
    struct Recorder {
        calls: CallLog,
        panic_on: Option<f64>,
        fail_on: Option<f64>,
        lanes: usize,
    }

    impl Recorder {
        fn new() -> (Self, CallLog) {
            let calls = Arc::new(Mutex::new(Vec::new()));
            (
                Recorder {
                    calls: Arc::clone(&calls),
                    panic_on: None,
                    fail_on: None,
                    lanes: 1,
                },
                calls,
            )
        }
    }

    impl BatchService for Recorder {
        type Error = String;
        fn run_batch(
            &mut self,
            tenant: TenantId,
            inputs: &[Vec<f64>],
        ) -> Result<Vec<Vec<f64>>, String> {
            self.calls.lock().unwrap().push((tenant, inputs.len()));
            for x in inputs {
                if Some(x[0]) == self.panic_on {
                    panic!("poisoned input");
                }
                if Some(x[0]) == self.fail_on {
                    return Err("bad batch".to_string());
                }
            }
            Ok(inputs
                .iter()
                .map(|x| {
                    x.iter()
                        .map(|v| v + f64::from(u32::try_from(tenant).unwrap()))
                        .collect()
                })
                .collect())
        }

        fn lane_capacity(&mut self, _tenant: TenantId) -> usize {
            self.lanes
        }
    }

    fn burst_config() -> ServeConfig {
        // Zero deadline + pause/resume makes coalescing deterministic.
        ServeConfig {
            queue_capacity: 16,
            max_batch: 4,
            batch_deadline: Duration::ZERO,
            pack_lanes: false,
        }
    }

    #[test]
    fn a_staged_burst_coalesces_to_ceil_n_over_cap_batches() {
        let (svc, calls) = Recorder::new();
        let server = Server::start(svc, burst_config());
        server.pause();
        let tickets: Vec<_> = (0..6)
            .map(|i| server.submit(7, vec![i as f64]).unwrap())
            .collect();
        assert_eq!(server.queue_depth(), 6);
        server.resume();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), vec![i as f64 + 7.0]);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 6);
        assert_eq!(stats.batches, 2, "6 requests under cap 4 → 2 batches");
        assert_eq!(calls.lock().unwrap().as_slice(), &[(7, 4), (7, 2)]);
        assert_eq!(stats.batch_fill[4], 1);
        assert_eq!(stats.batch_fill[2], 1);
        assert_eq!(stats.max_queue_depth, 6);
        assert!(stats.p99_ms() >= stats.p50_ms());
    }

    #[test]
    fn pack_lanes_fill_slots_before_growing_worker_batches() {
        // K=4 lanes per ciphertext, max_batch 4 → one dispatch can
        // carry 16 requests; a burst of 10 coalesces into a single
        // run_batch call and three lane-groups (4, 4, 2).
        let (mut svc, calls) = Recorder::new();
        svc.lanes = 4;
        let server = Server::start(
            svc,
            ServeConfig {
                pack_lanes: true,
                ..burst_config()
            },
        );
        server.pause();
        let tickets: Vec<_> = (0..10)
            .map(|i| server.submit(7, vec![i as f64]).unwrap())
            .collect();
        server.resume();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), vec![i as f64 + 7.0]);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 10);
        assert_eq!(stats.batches, 1, "10 requests fit one packed dispatch");
        assert_eq!(calls.lock().unwrap().as_slice(), &[(7, 10)]);
        assert_eq!(stats.batch_fill[10], 1);
        assert_eq!(stats.slot_batches, 3);
        assert_eq!(stats.slot_fill[4], 2);
        assert_eq!(stats.slot_fill[2], 1);
        assert!((stats.mean_slot_fill() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn packing_off_records_no_slot_metrics() {
        let (svc, _) = Recorder::new();
        let server = Server::start(svc, burst_config());
        server.submit(0, vec![1.0]).unwrap().wait().unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.slot_batches, 0);
        assert!(stats.slot_fill.is_empty());
        assert_eq!(stats.mean_slot_fill(), 0.0);
    }

    #[test]
    fn batches_never_mix_tenants() {
        let (svc, calls) = Recorder::new();
        let server = Server::start(svc, burst_config());
        server.pause();
        // Interleave two tenants; coalescing must pull same-tenant
        // requests past the other tenant's.
        let mut tickets = Vec::new();
        for i in 0..6u64 {
            tickets.push((i, server.submit(i % 2, vec![i as f64]).unwrap()));
        }
        server.resume();
        for (i, t) in tickets {
            let out = t.wait().unwrap();
            assert_eq!(out, vec![i as f64 + (i % 2) as f64]);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 6);
        for (_, fill) in calls.lock().unwrap().iter() {
            assert!(*fill <= 3, "each tenant only ever had 3 queued");
        }
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let (svc, _) = Recorder::new();
        let server = Server::start(
            svc,
            ServeConfig {
                queue_capacity: 2,
                ..burst_config()
            },
        );
        server.pause();
        let t0 = server.submit(1, vec![0.0]).unwrap();
        let t1 = server.submit(1, vec![1.0]).unwrap();
        let err = server.submit(1, vec![2.0]).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        server.resume();
        t0.wait().unwrap();
        t1.wait().unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn shutdown_drains_queued_requests_and_rejects_new_ones() {
        let (svc, _) = Recorder::new();
        let server = Server::start(svc, burst_config());
        server.pause();
        let tickets: Vec<_> = (0..5)
            .map(|i| server.submit(3, vec![i as f64]).unwrap())
            .collect();
        // Shutdown with the batcher paused: the drain must override
        // the pause and answer everything already queued.
        let stats = server.shutdown();
        assert_eq!(stats.served, 5, "graceful shutdown drains the queue");
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), vec![i as f64 + 3.0]);
        }
    }

    #[test]
    fn submitting_to_a_draining_server_is_rejected() {
        let (svc, _) = Recorder::new();
        let server = Server::start(svc, burst_config());
        server.begin_shutdown();
        let err = server.submit(0, vec![0.0]).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn service_error_reaches_every_batch_member() {
        let (mut svc, _) = Recorder::new();
        svc.fail_on = Some(1.0);
        let server = Server::start(svc, burst_config());
        server.pause();
        let tickets: Vec<_> = (0..3)
            .map(|i| server.submit(0, vec![i as f64]).unwrap())
            .collect();
        server.resume();
        for t in tickets {
            assert_eq!(
                t.wait().unwrap_err(),
                ServeError::Service("bad batch".to_string())
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn a_panicking_service_is_contained_and_serving_continues() {
        let (mut svc, calls) = Recorder::new();
        svc.panic_on = Some(13.0);
        let server = Server::start(svc, burst_config());
        let poisoned = server.submit(0, vec![13.0]).unwrap();
        assert_eq!(poisoned.wait().unwrap_err(), ServeError::ServerGone);
        // The server survived: the next request is answered normally.
        let ok = server.submit(0, vec![1.0]).unwrap();
        assert_eq!(ok.wait().unwrap(), vec![1.0]);
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(calls.lock().unwrap().len(), 2);
    }

    #[test]
    fn deadline_coalesces_trickling_arrivals() {
        // With a generous deadline, requests submitted one by one
        // still share a packed batch: the batcher picks up the first,
        // whose lane-group has three free lanes, and waits out the
        // window for them.
        let (mut svc, _) = Recorder::new();
        svc.lanes = 4;
        let server = Server::start(
            svc,
            ServeConfig {
                queue_capacity: 16,
                max_batch: 8,
                batch_deadline: Duration::from_millis(200),
                pack_lanes: true,
            },
        );
        let t0 = server.submit(0, vec![0.0]).unwrap();
        let t1 = server.submit(0, vec![1.0]).unwrap();
        t0.wait().unwrap();
        t1.wait().unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.served, 2);
        // Both fit one window on any sane scheduler; allow 2 batches
        // if the first dispatched alone, but the mean fill must be
        // recorded either way.
        assert!(stats.batches <= 2);
        assert!(stats.mean_fill() >= 1.0);
    }

    #[test]
    fn an_unpacked_request_is_not_held_for_company() {
        // Unpacked, every input is its own evaluation: a companion
        // would only delay this request, so the window never opens.
        let (svc, calls) = Recorder::new();
        let server = Server::start(
            svc,
            ServeConfig {
                batch_deadline: Duration::from_secs(5),
                ..burst_config()
            },
        );
        let start = Instant::now();
        assert_eq!(
            server.submit(2, vec![1.0]).unwrap().wait().unwrap(),
            vec![3.0]
        );
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(1), "held for {waited:?}");
        server.shutdown();
        assert_eq!(calls.lock().unwrap().as_slice(), &[(2, 1)]);
    }

    #[test]
    fn a_full_lane_group_dispatches_without_waiting() {
        // 4 requests fill one 4-lane ciphertext: a fifth would open a
        // second group, so the batch goes out without waiting for the
        // 16 that `max_batch · K` would allow.
        let (mut svc, calls) = Recorder::new();
        svc.lanes = 4;
        let server = Server::start(
            svc,
            ServeConfig {
                batch_deadline: Duration::from_secs(5),
                pack_lanes: true,
                ..burst_config()
            },
        );
        server.pause();
        let tickets: Vec<_> = (0..4)
            .map(|i| server.submit(7, vec![i as f64]).unwrap())
            .collect();
        let start = Instant::now();
        server.resume();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), vec![i as f64 + 7.0]);
        }
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(1), "held for {waited:?}");
        let stats = server.shutdown();
        assert_eq!(calls.lock().unwrap().as_slice(), &[(7, 4)]);
        assert_eq!(stats.slot_fill[4], 1);
    }

    #[test]
    fn stats_helpers_handle_the_empty_server() {
        let stats = ServeStats::default();
        assert_eq!(stats.p50_ms(), 0.0);
        assert_eq!(stats.p99_ms(), 0.0);
        assert_eq!(stats.mean_fill(), 0.0);
        let (svc, _) = Recorder::new();
        let server: Server<Recorder> = Server::start(svc, burst_config());
        let stats = server.shutdown();
        assert_eq!(stats.served + stats.failed + stats.rejected, 0);
    }

    #[test]
    fn serve_error_display_strings_are_stable() {
        let e: ServeError<String> = ServeError::QueueFull { capacity: 8 };
        assert_eq!(e.to_string(), "request queue full (8 waiting); retry later");
        let e: ServeError<String> = ServeError::ShuttingDown;
        assert_eq!(e.to_string(), "server is shutting down");
        let e: ServeError<String> = ServeError::Service("boom".into());
        assert_eq!(e.to_string(), "batch failed: boom");
        let e: ServeError<String> = ServeError::ServerGone;
        assert_eq!(
            e.to_string(),
            "server dropped the request without answering"
        );
    }
}
