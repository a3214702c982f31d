//! Intra-op limb-parallel worker pool.
//!
//! CKKS primitives decompose into independent per-limb work: NTT
//! transforms, hybrid key-switch digit products and the mod-down
//! correction all touch one RNS limb at a time with no cross-limb
//! data flow. This module fans those limbs out across a small pool of
//! persistent worker threads.
//!
//! Design rules (see docs/ARCHITECTURE.md, *Memory & kernels*):
//!
//! - **One thread budget.** [`configured_threads`] is the one reader
//!   of the `SMARTPAF_THREADS` knob, for [`max_intra_workers`] and
//!   `BatchRunner` alike; when the runner shards a batch across `W`
//!   workers it hands each shard `budget / W` intra-op threads via
//!   [`with_thread_budget`], so the two layers share cores instead of
//!   oversubscribing them.
//! - **Bit-identical.** Tasks are indexed and side-effect-free on
//!   shared state: each task owns a disjoint slice (or returns a value
//!   into its own slot), and no arithmetic is reassociated. The
//!   parallel path produces byte-identical output to the sequential
//!   loop and is pinned so by tests.
//! - **Gated off at 1 CPU.** With a budget of one (the default on a
//!   single-core container) every entry point degenerates to the plain
//!   sequential loop with no pool, no channels, no atomics.
//! - **Non-reentrant.** A worker that hits a nested parallel region
//!   runs it inline; only the outermost call fans out.
//!
//! Workers keep their own thread-local buffer pools;
//! [`aggregated_pool_stats`] sums them with the caller's so the
//! zero-steady-state-allocation invariant stays observable.

use crate::pool;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

/// One parallel region: a lifetime-erased task closure plus the claim
/// and completion counters. The raw pointer is only dereferenced while
/// the owning [`run`] call is still on the stack — `run` blocks until
/// `done == count`, so every dereference happens while the closure is
/// alive.
struct RunCtx {
    task: *const (dyn Fn(usize) + Sync),
    count: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

// SAFETY: the raw task pointer is only dereferenced inside
// `work_loop`, which only runs while the originating `run` call is
// blocked waiting for `done == count`; the pointee (`&F` borrowed by
// `run`) therefore outlives every dereference. All other fields are
// plain sync primitives.
unsafe impl Send for RunCtx {}
unsafe impl Sync for RunCtx {}

enum Job {
    Run(Arc<RunCtx>),
    /// Report this worker's thread-local pool stats.
    Stats(mpsc::Sender<pool::PoolStats>),
    /// Reset this worker's thread-local pool stats.
    ResetStats(mpsc::Sender<()>),
}

static WORKERS: OnceLock<Mutex<Vec<mpsc::Sender<Job>>>> = OnceLock::new();

thread_local! {
    /// Set for the lifetime of a pool worker thread: nested parallel
    /// regions run inline instead of re-entering the pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped override of the intra-op thread budget (`None` = use the
    /// process default).
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread budget a `SMARTPAF_THREADS` value asks for: a positive
/// integer, surrounding whitespace ignored. An unset, unparsable or
/// zero value falls back to `available_parallelism()` (1 when that
/// query fails).
fn parse_threads(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// The process's thread budget, read once: `SMARTPAF_THREADS` when it
/// holds a positive integer (surrounding whitespace ignored), else
/// `available_parallelism()`. `BatchRunner::auto` sizes its shards from
/// it and [`max_intra_workers`] defaults to it, so the two layers never
/// read the variable two ways.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| parse_threads(std::env::var("SMARTPAF_THREADS").ok().as_deref()))
}

/// The intra-op thread budget for the current thread: the scoped
/// [`with_thread_budget`] override if one is active, else
/// [`configured_threads`]. A budget of 1 disables intra-op parallelism
/// entirely.
pub fn max_intra_workers() -> usize {
    BUDGET.with(|b| b.get()).unwrap_or_else(configured_threads)
}

/// Runs `f` with the intra-op thread budget capped at `n` on this
/// thread (restored on exit, including on panic). `BatchRunner` uses
/// this to split one `SMARTPAF_THREADS` budget between its shard
/// workers and the per-limb kernels they call.
pub fn with_thread_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let prev = BUDGET.with(|b| b.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

fn work_loop(ctx: &RunCtx) {
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.count {
            break;
        }
        // SAFETY: `run` is still blocked on `done == count`, so the
        // closure behind the pointer is alive (see RunCtx).
        let task = unsafe { &*ctx.task };
        if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
            ctx.panicked.store(true, Ordering::Release);
        }
        let finished = ctx.done.fetch_add(1, Ordering::AcqRel) + 1;
        if finished == ctx.count {
            let _guard = ctx.lock.lock().unwrap_or_else(|e| e.into_inner());
            ctx.cv.notify_all();
        }
    }
}

fn worker_main(rx: mpsc::Receiver<Job>) {
    IN_WORKER.with(|f| f.set(true));
    while let Ok(job) = rx.recv() {
        match job {
            Job::Run(ctx) => work_loop(&ctx),
            Job::Stats(tx) => {
                let _ = tx.send(pool::stats());
            }
            Job::ResetStats(tx) => {
                pool::reset_stats();
                let _ = tx.send(());
            }
        }
    }
}

/// Ensures at least `want` workers exist and returns senders for all
/// of them.
fn workers(want: usize) -> Vec<mpsc::Sender<Job>> {
    let registry = WORKERS.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = registry.lock().unwrap_or_else(|e| e.into_inner());
    while guard.len() < want {
        let (tx, rx) = mpsc::channel();
        let id = guard.len();
        std::thread::Builder::new()
            .name(format!("smartpaf-intra-{id}"))
            .spawn(move || worker_main(rx))
            .expect("spawn intra-op worker");
        guard.push(tx);
    }
    guard.clone()
}

/// Runs `f(0), f(1), …, f(count - 1)`, fanning the indices out across
/// the worker pool when the current thread budget allows. The calling
/// thread participates, so progress never depends on pool
/// availability. Returns only after every index has run.
///
/// # Panics
///
/// Panics if any task panicked (the panic is reported once, from the
/// caller).
pub fn run<F: Fn(usize) + Sync>(count: usize, f: F) {
    let budget = max_intra_workers();
    if count <= 1 || budget <= 1 || IN_WORKER.with(|w| w.get()) {
        for i in 0..count {
            f(i);
        }
        return;
    }
    let helpers = (budget - 1).min(count - 1);
    let task_ref: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: lifetime erasure only — the pointer is dereferenced
    // exclusively while this call is blocked on `done == count`, i.e.
    // while `f` is alive (see RunCtx).
    let task: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task_ref) };
    let ctx = Arc::new(RunCtx {
        task,
        count,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        lock: Mutex::new(()),
        cv: Condvar::new(),
    });
    for tx in workers(helpers).into_iter().take(helpers) {
        // A closed channel just means that worker is gone; the caller
        // still drains the index range itself.
        let _ = tx.send(Job::Run(Arc::clone(&ctx)));
    }
    work_loop(&ctx);
    let mut guard = ctx.lock.lock().unwrap_or_else(|e| e.into_inner());
    while ctx.done.load(Ordering::Acquire) < count {
        guard = ctx.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
    drop(guard);
    if ctx.panicked.load(Ordering::Acquire) {
        panic!("intra-op parallel task panicked");
    }
}

/// Splits `data` into consecutive `chunk`-sized slices and runs
/// `f(i, chunk_i)` for each, in parallel when the budget allows. This
/// is the limb-loop workhorse: `data` is a flat limb-major buffer and
/// `chunk` the ring dimension.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `chunk`, or if a task
/// panics.
pub fn for_each_chunk_mut<F: Fn(usize, &mut [u64]) + Sync>(data: &mut [u64], chunk: usize, f: F) {
    assert_eq!(data.len() % chunk, 0, "buffer not a whole number of chunks");
    let count = data.len() / chunk;
    let base = data.as_mut_ptr() as usize;
    run(count, |i| {
        // SAFETY: tasks receive distinct indices, so the chunks are
        // disjoint; `data` is mutably borrowed for the whole `run`
        // call, which does not return until all tasks finish.
        let limb =
            unsafe { std::slice::from_raw_parts_mut((base as *mut u64).add(i * chunk), chunk) };
        f(i, limb);
    });
}

/// Parallel map: returns `[f(0), f(1), …, f(count - 1)]` in index
/// order. Used for coarse-grained fan-out such as rotation taps, where
/// each task produces an owned value.
pub fn map<T: Send, F: Fn(usize) -> T + Sync>(count: usize, f: F) -> Vec<T> {
    let budget = max_intra_workers();
    if count <= 1 || budget <= 1 || IN_WORKER.with(|w| w.get()) {
        return (0..count).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    run(count, |i| {
        let v = f(i);
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("parallel map slot filled")
        })
        .collect()
}

/// Buffer-pool stats aggregated across the calling thread and every
/// intra-op worker spawned so far. The pools are thread-local, so the
/// caller's own [`pool::stats`] misses allocations made by workers;
/// this is the view the zero-allocation tests should assert on when a
/// thread budget > 1 is active.
pub fn aggregated_pool_stats() -> pool::PoolStats {
    let mut total = pool::stats();
    let registry = match WORKERS.get() {
        Some(r) => r,
        None => return total,
    };
    let senders = registry.lock().unwrap_or_else(|e| e.into_inner()).clone();
    for tx in senders {
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx.send(Job::Stats(reply_tx)).is_err() {
            continue;
        }
        if let Ok(s) = reply_rx.recv() {
            total.fresh_allocs += s.fresh_allocs;
            total.reuses += s.reuses;
            total.released += s.released;
            total.dropped += s.dropped;
        }
    }
    total
}

/// Resets pool stats on the calling thread and every intra-op worker.
/// Companion to [`aggregated_pool_stats`].
pub fn reset_aggregated_pool_stats() {
    pool::reset_stats();
    let registry = match WORKERS.get() {
        Some(r) => r,
        None => return,
    };
    let senders = registry.lock().unwrap_or_else(|e| e.into_inner()).clone();
    for tx in senders {
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx.send(Job::ResetStats(reply_tx)).is_err() {
            continue;
        }
        let _ = reply_rx.recv();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_override_parses_one_way() {
        assert_eq!(parse_threads(Some("3")), 3);
        assert_eq!(parse_threads(Some(" 5 ")), 5);
        assert_eq!(parse_threads(Some(" 2")), 2);
        // Unset, unparsable and zero overrides fall back to detection.
        let detected = parse_threads(None);
        assert!(detected >= 1);
        assert_eq!(parse_threads(Some("not-a-number")), detected);
        assert_eq!(parse_threads(Some("0")), detected);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn sequential_when_budget_is_one() {
        with_thread_budget(1, || {
            let hits = AtomicUsize::new(0);
            run(8, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 8);
        });
    }

    #[test]
    fn parallel_run_covers_every_index_exactly_once() {
        with_thread_budget(4, || {
            let mask = AtomicU64::new(0);
            run(37, |i| {
                let bit = 1u64 << i;
                let prev = mask.fetch_or(bit, Ordering::Relaxed);
                assert_eq!(prev & bit, 0, "index {i} ran twice");
            });
            assert_eq!(mask.load(Ordering::Relaxed), (1u64 << 37) - 1);
        });
    }

    #[test]
    fn chunked_writes_land_in_the_right_chunks() {
        for budget in [1, 2, 3, 8] {
            with_thread_budget(budget, || {
                let mut data = vec![0u64; 6 * 16];
                for_each_chunk_mut(&mut data, 16, |i, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 1000 + j) as u64;
                    }
                });
                for i in 0..6 {
                    for j in 0..16 {
                        assert_eq!(data[i * 16 + j], (i * 1000 + j) as u64);
                    }
                }
            });
        }
    }

    #[test]
    fn map_preserves_index_order() {
        for budget in [1, 4] {
            with_thread_budget(budget, || {
                let out = map(20, |i| i * i);
                assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn nested_regions_run_inline_and_complete() {
        with_thread_budget(4, || {
            let hits = AtomicUsize::new(0);
            run(4, |_| {
                run(4, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(hits.load(Ordering::Relaxed), 16);
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_thread_budget(4, || {
                run(8, |i| {
                    if i == 5 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn budget_override_restores_on_exit() {
        let outer = max_intra_workers();
        with_thread_budget(7, || {
            assert_eq!(max_intra_workers(), 7);
            with_thread_budget(2, || assert_eq!(max_intra_workers(), 2));
            assert_eq!(max_intra_workers(), 7);
        });
        assert_eq!(max_intra_workers(), outer);
    }
}
