//! End-to-end encrypted CNN inference: the paper's Fig. 2 pipeline as
//! a runnable system.
//!
//! The SMART-PAF deployment model keeps the network weights public and
//! the input private: every linear operator (convolution, batch norm,
//! pooling, fully-connected) is an affine map evaluated directly on the
//! encrypted activation vector, and every non-polynomial operator has
//! been replaced by a PAF with a Static Scale. This crate compiles a
//! stack of `smartpaf-nn` layers into that form and executes it under
//! the `smartpaf-ckks` substrate:
//!
//! 1. **Probing** — each run of affine layers is linearised exactly by
//!    a batched forward pass over unit inputs (eval-mode conv/BN/pool/
//!    linear are affine, so probing is lossless), producing a
//!    [`DiagMatrix`](smartpaf_ckks::DiagMatrix) + bias per segment.
//! 2. **Packing** — the activation vector lives replicated across CKKS
//!    slots; affine stages run as Halevi–Shoup diagonal matrix–vector
//!    products with baby-step/giant-step rotations.
//! 3. **PAF stages** — ReLU slots become `paf_relu(x)` and MaxPool
//!    slots a rotate-and-max fold on the one ciphertext —
//!    `v ← paf_max(v, rot(v, t))` per doubling step along x, then along
//!    y, the nested `paf_max` the paper analyses in §5.4.3 — after which
//!    every slot holds the fold of the window anchored there, and a 0/1
//!    selection of the anchors that composes with the affine stage
//!    after the pool. Every Static Scale (paper §4.5) is placed at
//!    compile time by one rule: a slot of scale `s` computes
//!    `s · paf(x/s)` with its `1/s` in the affine stage before it and
//!    its `s` in the one after it, equal neighbouring scales cancel
//!    exactly, and a scaled identity carries a factor no affine stage
//!    is there to take.
//! 4. **Level management** — a [`LevelSchedule`] cuts the run's atomic
//!    ops into refresh-free segments: a
//!    [`Bootstrapper`](smartpaf_ckks::Bootstrapper) refreshes the
//!    ciphertext where the next op no longer fits (simulated bootstrap,
//!    docs/ARCHITECTURE.md "Execution backends"), and every segment is
//!    entered at exactly the level it consumes, so no op carries a limb
//!    nobody will use (docs/ARCHITECTURE.md "Level schedule").
//!
//! # Execution backends
//!
//! One interpreter loop ([`HePipeline::run`]) drives every execution
//! mode through the [`InferenceBackend`] trait:
//!
//! - [`PlainBackend`] — batched `f64` slices through the prepared
//!   evaluation engines; `eval_plain` is a thin wrapper over it.
//! - [`CkksBackend`] — leveled CKKS executing the run's
//!   [`LevelSchedule`]: refresh where a segment starts, enter every op
//!   on exactly the limbs the rest of its segment consumes;
//!   [`HePipeline::try_eval_encrypted`] is a thin wrapper over it.
//!
//! The trace reads the schedule: [`HePipeline::trace`] cuts the same
//! [`LevelSchedule`] and reports, with no arithmetic, each stage's
//! entry levels, levels, bootstraps and price plus exact ct-mult and
//! key-switch counts — an instant cost oracle for schedulers whose
//! levels are the executed ones by construction.
//!
//! [`BatchRunner`] shards batches of inputs across `std::thread`
//! workers over either backend, with deterministic input-order results;
//! [`BatchRunner::auto`] sizes the pool from the machine (or the
//! `SMARTPAF_THREADS` override).
//!
//! # PAF engines
//!
//! Every [`Stage::PafRelu`] and [`Stage::PafMax`] owns its composite's
//! prepared plaintext engine (`engine`, an `Arc`'d
//! [`CompositeEval`](smartpaf_polyfit::CompositeEval)); backends read
//! it through [`PafOp`] and the schedule reads its exact ct-mult counts
//! off it. Engines are prepared where composites are installed, and
//! there are two such places:
//! [`PipelineBuilder::try_compile`] and [`HePipeline::try_with_pafs`].
//! Both share one `Arc` between stages with equal composites, and
//! `try_with_pafs` also reuses the engines of the pipeline it swaps
//! from. `try_with_pafs` installs a per-slot *form vector* — one
//! composite per ReLU/maxpool slot — without re-probing the affine
//! segments; planners (the `smartpaf` Session API) use it to install
//! every candidate vector and price each one with [`HePipeline::trace`]
//! in microseconds, reading per-slot costs off [`StageTrace::slot`].
//!
//! # Example
//!
//! ```
//! use smartpaf_ckks::{CkksParams, Evaluator, KeyChain, PafEvaluator};
//! use smartpaf_heinfer::PipelineBuilder;
//! use smartpaf_nn::Linear;
//! use smartpaf_polyfit::{CompositePaf, PafForm};
//! use smartpaf_tensor::Rng64;
//!
//! let mut rng = Rng64::new(7);
//! let paf = CompositePaf::from_form(PafForm::F1G2);
//! let pipeline = PipelineBuilder::new(&[8])
//!     .affine(Linear::new(8, 8, &mut rng))
//!     .paf_relu(&paf, 4.0)
//!     .affine(Linear::new(8, 4, &mut rng))
//!     .try_compile()?;
//!
//! let ctx = CkksParams::toy().build();
//! let keys = KeyChain::generate(&ctx, &mut rng);
//! let pe = PafEvaluator::new(Evaluator::new(&keys));
//! let x: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) / 2.0).collect();
//! let ct = pe.evaluator().encrypt_replicated(&pipeline.try_pad_input(&x)?, &mut rng);
//! let (out_ct, stats) = pipeline.try_eval_encrypted(&pe, None, &ct)?;
//! let enc = pe.evaluator().decrypt_values(&out_ct, 4);
//! let plain = pipeline.eval_plain(&x);
//! for (e, p) in enc.iter().zip(&plain) {
//!     assert!((e - p).abs() < 0.1);
//! }
//! assert!(stats.bootstraps == 0);
//! # Ok::<(), smartpaf_heinfer::RunError>(())
//! ```

mod backends;
mod batch;
mod describe;
mod exec;
mod maxpool;
pub mod pack;
mod pipeline;
#[cfg(test)]
mod proptests;
mod runner;
mod schedule;
pub mod serve;

pub use backends::{CkksBackend, PlainBackend, StageTrace, TraceReport};
pub use batch::{BatchRun, BatchRunner};
pub use describe::{fnv1a_64, PipelineDesc, StageDesc};
pub use exec::{InferenceBackend, PafOp, RunError, RunStats};
pub use pack::{LanePacker, PackError, PackedBatch};
pub use pipeline::{HePipeline, PipelineBuilder, Stage};
pub use schedule::{AtomicOp, CutKey, LevelSchedule, ScheduledOp, Tiebreak};
pub use serve::{BatchService, ServeConfig, ServeError, ServeStats, Server, TenantId, Ticket};
