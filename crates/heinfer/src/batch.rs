//! Threaded batch execution of a compiled pipeline.
//!
//! [`BatchRunner`] shards a batch of independent inputs across
//! `std::thread` workers. Each worker gets its own backend (one
//! [`PafEvaluator`] clone per worker on the encrypted path), inputs are
//! split into contiguous index ranges, and results come back in input
//! order. On the plain path a 4-thread run is bit-identical to the
//! sequential one, only faster. The encrypted path keeps the same
//! deterministic result *order*, but a shared [`Bootstrapper`] draws
//! its re-encryption randomness from one RNG, so when refreshes fire
//! the exact ciphertext bits (not the decrypted values) depend on
//! thread interleaving.

use crate::backends::{CkksBackend, PlainBackend};
use crate::exec::{RunError, RunStats};
use crate::pack::LanePacker;
use crate::pipeline::HePipeline;
use smartpaf_ckks::{Bootstrapper, Ciphertext, PafEvaluator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Result of one batch run: outputs and per-input statistics, both in
/// input order.
#[derive(Debug, Clone)]
pub struct BatchRun<T> {
    /// One output per input, in input order.
    pub outputs: Vec<T>,
    /// Per-input run statistics, parallel to `outputs`.
    pub stats: Vec<RunStats>,
    /// Wall-clock time of the whole batch (including sharding).
    pub wall: Duration,
    /// Worker threads the batch actually used (configured count,
    /// clamped to the number of contiguous shards the batch split
    /// into).
    pub threads: usize,
}

impl<T> BatchRun<T> {
    /// Total bootstraps across the batch.
    pub fn total_bootstraps(&self) -> usize {
        self.stats.iter().map(|s| s.bootstraps).sum()
    }

    /// Total levels consumed across the batch.
    pub fn total_levels(&self) -> usize {
        self.stats.iter().map(RunStats::total_levels).sum()
    }

    /// Inputs processed per second of wall-clock time
    /// (`f64::INFINITY` when the batch was too fast to resolve).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.outputs.len() as f64 / secs
        }
    }
}

/// Shards batches of pipeline inputs across worker threads.
///
/// # Example
///
/// ```
/// use smartpaf_heinfer::{BatchRunner, PipelineBuilder};
/// use smartpaf_nn::Linear;
/// use smartpaf_polyfit::{CompositePaf, PafForm};
/// use smartpaf_tensor::Rng64;
///
/// let mut rng = Rng64::new(5);
/// let paf = CompositePaf::from_form(PafForm::F1G2);
/// let pipe = PipelineBuilder::new(&[4])
///     .affine(Linear::new(4, 4, &mut rng))
///     .paf_relu(&paf, 2.0)
///     .try_compile()
///     .unwrap();
/// let inputs: Vec<Vec<f64>> = (0..8)
///     .map(|i| vec![i as f64 / 4.0 - 1.0; 4])
///     .collect();
/// let run = BatchRunner::new(2).run_plain(&pipe, &inputs).unwrap();
/// assert_eq!(run.outputs.len(), 8);
/// assert_eq!(run.outputs[3], pipe.eval_plain(&inputs[3]));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    threads: usize,
}

impl Default for BatchRunner {
    /// Machine-sized runner ([`BatchRunner::auto`]).
    fn default() -> Self {
        BatchRunner::auto()
    }
}

impl BatchRunner {
    /// Creates a runner with the given worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        BatchRunner { threads }
    }

    /// Creates a runner sized for this machine: the process's thread
    /// budget ([`smartpaf_ckks::par::configured_threads`] — the
    /// `SMARTPAF_THREADS` environment variable when set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`]), the
    /// same budget the intra-op pool splits between the shards. Prefer
    /// this over hard-coding a worker count.
    pub fn auto() -> Self {
        BatchRunner::new(smartpaf_ckks::par::configured_threads())
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a batch of plaintext inputs through the pipeline's plain
    /// backend. Outputs are truncated to the logical output dimension,
    /// exactly like [`HePipeline::eval_plain`].
    pub fn run_plain(
        &self,
        pipe: &HePipeline,
        inputs: &[Vec<f64>],
    ) -> Result<BatchRun<Vec<f64>>, RunError> {
        // Validate every input up front so no thread spawns for a
        // malformed batch.
        let padded: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| pipe.try_pad_input(x))
            .collect::<Result<_, _>>()?;
        self.run_sharded(
            &padded,
            || PlainBackend,
            |backend, x| {
                let (mut out, stats) = pipe.run(backend, x.clone())?;
                out.truncate(pipe.output_dim());
                Ok((out, stats))
            },
        )
    }

    /// Runs a batch of encrypted inputs through `pipe`: the body of
    /// [`BatchRunner::run_packed`], the public encrypted entry point,
    /// which documents it.
    fn run_encrypted(
        &self,
        pipe: &HePipeline,
        pe: &PafEvaluator,
        bootstrapper: Option<&Bootstrapper>,
        inputs: &[Ciphertext],
    ) -> Result<BatchRun<Ciphertext>, RunError> {
        self.run_sharded(
            inputs,
            || pe.clone(),
            |worker_pe, ct| {
                let mut backend = CkksBackend::new(worker_pe, bootstrapper);
                pipe.run(&mut backend, ct.clone())
            },
        )
    }

    /// Runs a batch of slot-packed ciphertexts through a
    /// [`LanePacker`]'s lane-expanded pipeline, one evaluator clone per
    /// worker. The optional [`Bootstrapper`] is shared — its refresh
    /// counter aggregates across the whole batch — and each ciphertext
    /// is checked where it runs: [`CkksBackend`] tests the slot fit
    /// when it begins and cuts the ciphertext's one
    /// [`LevelSchedule`](crate::LevelSchedule) at the level it arrived
    /// at, so a malformed ciphertext fails the batch after the shards
    /// before it ran (their outputs are discarded, and their refreshes
    /// drew randomness), not before any ran.
    ///
    /// Each input ciphertext carries up to `packer.lanes()` multiplexed
    /// inputs (see [`crate::pack`]), so one entry of `BatchRun::outputs`
    /// demultiplexes into a whole lane-group of results via
    /// [`crate::PackedBatch::unpack`].
    pub fn run_packed(
        &self,
        packer: &LanePacker,
        pe: &PafEvaluator,
        bootstrapper: Option<&Bootstrapper>,
        inputs: &[Ciphertext],
    ) -> Result<BatchRun<Ciphertext>, RunError> {
        self.run_encrypted(packer.expanded(), pe, bootstrapper, inputs)
    }

    /// The generic shard-spawn-join loop: contiguous input ranges, one
    /// worker state per thread, results re-assembled in input order.
    fn run_sharded<I, O, W>(
        &self,
        inputs: &[I],
        make_worker: impl Fn() -> W + Sync,
        eval: impl Fn(&mut W, &I) -> Result<(O, RunStats), RunError> + Sync,
    ) -> Result<BatchRun<O>, RunError>
    where
        I: Sync,
        O: Send,
    {
        let start = Instant::now();
        let workers = self.threads.min(inputs.len()).max(1);
        let chunk = inputs.len().div_ceil(workers);
        // Chunk rounding can leave fewer shards than `workers` (e.g.
        // 5 inputs on 4 threads → chunks of 2 → 3 shards); report the
        // count that actually runs.
        let workers = if inputs.is_empty() {
            1
        } else {
            inputs.len().div_ceil(chunk)
        };
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut stats = Vec::with_capacity(inputs.len());
        if workers == 1 {
            // Sequential fast path: no spawn overhead, same code path
            // (including panic containment) the workers run.
            let mut w = catch_unwind(AssertUnwindSafe(&make_worker))
                .map_err(|_| RunError::WorkerPanicked)?;
            for input in inputs {
                let (o, s) = catch_unwind(AssertUnwindSafe(|| eval(&mut w, input)))
                    .unwrap_or(Err(RunError::WorkerPanicked))?;
                outputs.push(o);
                stats.push(s);
            }
        } else {
            // Batch-level shards and intra-op limb parallelism share
            // one thread budget: each shard thread gets an equal slice
            // of this thread's budget so `shards × intra-op workers`
            // never oversubscribes `SMARTPAF_THREADS`.
            let intra = (smartpaf_ckks::par::max_intra_workers() / workers).max(1);
            let shard_results: Vec<Result<Vec<(O, RunStats)>, RunError>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = inputs
                        .chunks(chunk)
                        .map(|shard| {
                            scope.spawn(|| {
                                smartpaf_ckks::par::with_thread_budget(intra, || {
                                    let mut w = make_worker();
                                    shard
                                        .iter()
                                        .map(|input| {
                                            catch_unwind(AssertUnwindSafe(|| eval(&mut w, input)))
                                                .unwrap_or(Err(RunError::WorkerPanicked))
                                        })
                                        .collect::<Result<Vec<_>, _>>()
                                })
                            })
                        })
                        .collect();
                    // `catch_unwind` above contains per-input panics;
                    // the join fallback catches the rest (a panicking
                    // `make_worker`) so one poisoned shard surfaces as
                    // a typed error instead of aborting the process.
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or(Err(RunError::WorkerPanicked)))
                        .collect()
                });
            for shard in shard_results {
                for (o, s) in shard? {
                    outputs.push(o);
                    stats.push(s);
                }
            }
        }
        Ok(BatchRun {
            outputs,
            stats,
            wall: start.elapsed(),
            threads: workers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineBuilder;
    use smartpaf_ckks::{CkksParams, Evaluator, KeyChain};
    use smartpaf_nn::{Conv2d, Flatten, Linear};
    use smartpaf_polyfit::{CompositePaf, PafForm};
    use smartpaf_tensor::Rng64;

    #[test]
    fn shard_workers_split_the_intra_op_budget() {
        // 8-thread budget over 4 shard workers → each shard sees an
        // intra-op budget of 2; the sequential fast path keeps all 8.
        let empty_stats = || RunStats {
            stage_levels: Vec::new(),
            bootstraps: 0,
            final_level: 0,
            wall: Duration::ZERO,
        };
        let inputs: Vec<usize> = (0..8).collect();
        let seen = std::sync::Mutex::new(Vec::new());
        smartpaf_ckks::par::with_thread_budget(8, || {
            BatchRunner::new(4)
                .run_sharded(
                    &inputs,
                    || (),
                    |(), _| {
                        seen.lock()
                            .unwrap()
                            .push(smartpaf_ckks::par::max_intra_workers());
                        Ok((0usize, empty_stats()))
                    },
                )
                .unwrap();
            assert!(seen.lock().unwrap().iter().all(|&b| b == 2));
            seen.lock().unwrap().clear();
            BatchRunner::new(1)
                .run_sharded(
                    &inputs,
                    || (),
                    |(), _| {
                        seen.lock()
                            .unwrap()
                            .push(smartpaf_ckks::par::max_intra_workers());
                        Ok((0usize, empty_stats()))
                    },
                )
                .unwrap();
            assert!(seen.lock().unwrap().iter().all(|&b| b == 8));
        });
    }

    /// An MNIST-scale (downsampled digit) CNN pipeline: conv → PAF-ReLU
    /// → PAF-maxpool → linear head over an 8×8 image.
    fn mnist_scale_pipeline(seed: u64) -> crate::pipeline::HePipeline {
        let mut rng = Rng64::new(seed);
        let relu = CompositePaf::from_form(PafForm::F1G2);
        let pool = CompositePaf::from_form(PafForm::Alpha7);
        PipelineBuilder::new(&[1, 8, 8])
            .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
            .paf_relu(&relu, 6.0)
            .paf_maxpool(2, 2, &pool, 8.0)
            .affine(Flatten::new())
            .affine(Linear::new(32, 10, &mut rng))
            .try_compile()
            .unwrap()
    }

    fn batch_inputs(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..64)
                    .map(|j| (((i * 64 + j) * 37) % 41) as f64 / 20.5 - 1.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn four_threads_bit_identical_to_sequential() {
        let pipe = mnist_scale_pipeline(201);
        let inputs = batch_inputs(16);
        let seq = BatchRunner::new(1).run_plain(&pipe, &inputs).unwrap();
        let par = BatchRunner::new(4).run_plain(&pipe, &inputs).unwrap();
        assert_eq!(seq.outputs.len(), 16);
        assert_eq!(par.threads, 4);
        // Bit-identical outputs in the same order...
        for (i, (s, p)) in seq.outputs.iter().zip(&par.outputs).enumerate() {
            assert_eq!(s, p, "input {i} diverged across thread counts");
        }
        // ...and identical stage orderings/consumption per input.
        for (s, p) in seq.stats.iter().zip(&par.stats) {
            assert_eq!(s.stage_levels, p.stage_levels);
        }
        // Both match the single-input entry point exactly.
        for (x, o) in inputs.iter().zip(&seq.outputs) {
            assert_eq!(&pipe.eval_plain(x), o);
        }
    }

    #[test]
    fn thread_counts_beyond_batch_are_clamped() {
        let pipe = mnist_scale_pipeline(202);
        let inputs = batch_inputs(3);
        let run = BatchRunner::new(16).run_plain(&pipe, &inputs).unwrap();
        assert_eq!(run.threads, 3);
        assert_eq!(run.outputs.len(), 3);
        assert!(run.throughput() > 0.0);
    }

    #[test]
    fn auto_runner_honours_env_override() {
        // The runner and the intra-op pool read one parsed budget.
        assert_eq!(
            BatchRunner::auto().threads(),
            smartpaf_ckks::par::configured_threads()
        );
        assert!(BatchRunner::default().threads() >= 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pipe = mnist_scale_pipeline(203);
        let run = BatchRunner::new(4).run_plain(&pipe, &[]).unwrap();
        assert!(run.outputs.is_empty());
        assert!(run.stats.is_empty());
    }

    #[test]
    fn malformed_input_is_rejected_before_spawning() {
        let pipe = mnist_scale_pipeline(204);
        let mut inputs = batch_inputs(4);
        inputs[2] = vec![0.0; 65]; // longer than the 8×8 input
        let err = BatchRunner::new(2).run_plain(&pipe, &inputs).unwrap_err();
        assert!(matches!(err, RunError::InputTooLong { len: 65, max: 64 }));
    }

    #[test]
    fn encrypted_batch_matches_sequential_eval() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(205);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let pe = smartpaf_ckks::PafEvaluator::new(Evaluator::new(&keys));
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, 8, &mut rng))
            .paf_relu(&paf, 4.0)
            .affine(Linear::new(8, 4, &mut rng))
            .try_compile()
            .unwrap();
        let batch: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..8).map(|j| ((i + j) as f64 - 5.0) / 5.0).collect())
            .collect();
        let cts: Vec<_> = batch
            .iter()
            .map(|x| {
                pe.evaluator()
                    .encrypt_replicated(&pipe.try_pad_input(x).unwrap(), &mut rng)
            })
            .collect();
        let run = BatchRunner::new(2)
            .run_encrypted(&pipe, &pe, None, &cts)
            .unwrap();
        assert_eq!(run.outputs.len(), 4);
        assert_eq!(run.total_bootstraps(), 0);
        for (i, (x, out_ct)) in batch.iter().zip(&run.outputs).enumerate() {
            let got = pe.evaluator().decrypt_values(out_ct, 4);
            let want = pipe.eval_plain(x);
            for k in 0..4 {
                assert!(
                    (got[k] - want[k]).abs() < 6e-2,
                    "input {i} slot {k}: {} vs {}",
                    got[k],
                    want[k]
                );
            }
        }
        // Per-input stats mirror the single-input wrapper.
        let (_, solo) = pipe.try_eval_encrypted(&pe, None, &cts[0]).unwrap();
        assert_eq!(run.stats[0].stage_levels, solo.stage_levels);
    }

    #[test]
    fn packed_batch_matches_per_input_plain_eval() {
        // Two packed ciphertexts, four lanes each, sharded across two
        // workers: every demultiplexed lane must agree with the base
        // pipeline's per-input plain eval within noise.
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(208);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let pe = smartpaf_ckks::PafEvaluator::new(Evaluator::new(&keys));
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, 8, &mut rng))
            .paf_relu(&paf, 4.0)
            .affine(Linear::new(8, 4, &mut rng))
            .try_compile()
            .unwrap();
        let packer = crate::pack::LanePacker::new(&pipe, ctx.slots(), 4).unwrap();
        let groups: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|g| {
                (0..4)
                    .map(|i| {
                        (0..8)
                            .map(|j| ((g * 4 + i + j) as f64 - 5.0) / 5.0)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let batches: Vec<_> = groups.iter().map(|g| packer.pack(g).unwrap()).collect();
        let cts: Vec<_> = batches
            .iter()
            .map(|b| packer.encrypt(b, pe.evaluator(), &mut rng))
            .collect();
        let run = BatchRunner::new(2)
            .run_packed(&packer, &pe, None, &cts)
            .unwrap();
        assert_eq!(run.outputs.len(), 2);
        for (group, (batch, out_ct)) in groups.iter().zip(batches.iter().zip(&run.outputs)) {
            let outs = packer.decrypt(out_ct, batch, pe.evaluator());
            assert_eq!(outs.len(), 4);
            for (x, got) in group.iter().zip(&outs) {
                let want = pipe.eval_plain(x);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 6e-2, "{g} vs {w}");
                }
            }
        }
    }

    fn zero_stats() -> RunStats {
        RunStats {
            stage_levels: Vec::new(),
            bootstraps: 0,
            final_level: 0,
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn batch_of_one_matches_single_eval() {
        let pipe = mnist_scale_pipeline(206);
        let inputs = batch_inputs(1);
        let run = BatchRunner::new(4).run_plain(&pipe, &inputs).unwrap();
        assert_eq!(run.threads, 1, "a 1-input batch collapses to one shard");
        assert_eq!(run.outputs, vec![pipe.eval_plain(&inputs[0])]);
        assert_eq!(run.stats.len(), 1);
    }

    #[test]
    fn worker_panic_surfaces_as_a_typed_error() {
        // One poisoned input must not abort the process: both the
        // sequential fast path and the threaded path contain the panic
        // and hand the caller `WorkerPanicked`.
        let inputs: Vec<usize> = (0..9).collect();
        for threads in [1, 3] {
            let err = BatchRunner::new(threads)
                .run_sharded(
                    &inputs,
                    || (),
                    |_, &i| {
                        if i == 4 {
                            panic!("poisoned input");
                        }
                        Ok((i, zero_stats()))
                    },
                )
                .unwrap_err();
            assert_eq!(err, RunError::WorkerPanicked, "{threads} thread(s)");
        }
    }

    #[test]
    fn error_in_a_middle_shard_propagates_and_discards_the_batch() {
        // 9 inputs on 3 threads → shards [0..3), [3..6), [6..9); the
        // failure sits in the middle shard, so the first shard's
        // results exist and must be discarded.
        let inputs: Vec<usize> = (0..9).collect();
        let err = BatchRunner::new(3)
            .run_sharded(
                &inputs,
                || (),
                |_, &i| {
                    if i == 4 {
                        Err(RunError::EmptyPipeline)
                    } else {
                        Ok((i * 10, zero_stats()))
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err, RunError::EmptyPipeline);
    }

    #[test]
    fn malformed_encrypted_batch_fails_fast() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(207);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let pe = smartpaf_ckks::PafEvaluator::new(Evaluator::new(&keys));

        // A consumed ciphertext in the middle of the batch with no
        // bootstrapper: its shard fails with the error its own schedule
        // cut hits, exactly as a lone run of it fails.
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, 8, &mut rng))
            .paf_relu(&paf, 4.0)
            .try_compile()
            .unwrap();
        let mut cts: Vec<_> = (0..3)
            .map(|i| {
                let x = vec![i as f64 / 3.0; 8];
                pe.evaluator()
                    .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng)
            })
            .collect();
        cts[1].drop_to(1); // level 0: nothing left to rescale
        let err = BatchRunner::new(2)
            .run_encrypted(&pipe, &pe, None, &cts)
            .unwrap_err();
        assert!(
            matches!(err, RunError::OutOfLevels { .. }),
            "expected OutOfLevels, got {err:?}"
        );
        assert_eq!(
            err,
            pipe.try_eval_encrypted(&pe, None, &cts[1]).unwrap_err()
        );

        // A pipeline wider than the ring's slot count is rejected by
        // the backend's slot check before any stage runs.
        let wide = PipelineBuilder::new(&[1, 16, 16])
            .affine(Flatten::new())
            .try_compile()
            .unwrap();
        let ct = pe.evaluator().encrypt_replicated(&vec![0.0; 128], &mut rng);
        let err = BatchRunner::new(2)
            .run_encrypted(&wide, &pe, None, &[ct])
            .unwrap_err();
        assert!(
            matches!(err, RunError::SlotMismatch { dim: 256, .. }),
            "expected SlotMismatch, got {err:?}"
        );
    }
}
