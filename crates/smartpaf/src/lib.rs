//! SMART-PAF: the paper's primary contribution.
//!
//! Reproduces the framework of *"Accurate Low-Degree Polynomial
//! Approximation of Non-Polynomial Operators for Fast Private
//! Inference in Homomorphic Encryption"* (MLSys 2024): the four
//! training techniques — Coefficient Tuning (CT), Progressive
//! Approximation (PA), Alternate Training (AT), Dynamic/Static Scaling
//! (DS/SS) — plus the Fig. 6 scheduler that composes them, the
//! replacement engine, and Pareto-frontier search.
//!
//! # The Session API (headline)
//!
//! The typed-state [`Session`] chain — **plan → compile → serve** — is
//! the one entry point that strings the whole deployment story
//! together: trace-priced Pareto planning over candidate PAF forms,
//! one-time key/engine setup, and encrypted serving (single inputs or
//! threaded batches). See the [`session`] module docs for the state
//! machine.
//!
//! ```
//! use smartpaf::{Objective, Session};
//! use smartpaf_ckks::CkksParams;
//! use smartpaf_nn::Linear;
//! use smartpaf_tensor::Rng64;
//!
//! let mut rng = Rng64::new(7);
//! let mut session = Session::builder(&[8])
//!     .affine(Linear::new(8, 8, &mut rng))
//!     .relu(4.0)
//!     .params(CkksParams::toy())
//!     .objective(Objective::MinBootstraps)
//!     .plan()
//!     .unwrap()
//!     .compile()
//!     .unwrap();
//! let out = session.infer(&[0.5, -0.5, 0.25, -0.25, 0.1, -0.1, 0.8, -0.8]).unwrap();
//! assert_eq!(out.len(), 8);
//! ```
//!
//! # Training example
//!
//! Training-scale (pretrains a MiniCNN, then fine-tunes through a full
//! replacement cell), so compile-checked only; `tests/e2e_smartpaf.rs`
//! runs the same flow in the test suite.
//!
//! ```no_run
//! use smartpaf::{TechniqueSet, TrainConfig, Workbench};
//! use smartpaf_datasets::{SynthDataset, SynthSpec};
//! use smartpaf_nn::mini_cnn;
//! use smartpaf_polyfit::PafForm;
//! use smartpaf_tensor::Rng64;
//!
//! let spec = SynthSpec::tiny(1);
//! let dataset = SynthDataset::new(spec);
//! let mut rng = Rng64::new(1);
//! let model = mini_cnn(spec.classes, 0.25, &mut rng);
//! let mut bench = Workbench::new(model, dataset, TrainConfig::test_scale(1), 2);
//! let result = bench.run_cell(TechniqueSet::smartpaf(), PafForm::F1G2, false);
//! assert!(result.final_acc >= 0.0);
//! ```

#![warn(missing_docs)]

mod config;
mod pareto;
mod pipeline;
#[cfg(test)]
mod proptests;
pub mod registry;
mod relu_reduce;
mod replace;
mod scheduler;
pub mod serve;
pub mod session;
mod trainer;

pub use config::{TechniqueSet, TrainConfig};
pub use pareto::{pareto_frontier, vector_pareto_frontier, ParetoPoint, VectorParetoPoint};
pub use pipeline::{ExperimentResult, Workbench};
pub use registry::{ArtifactInfo, GcPolicy, GcReport, PlanRegistry, RegistryError, FORMAT_VERSION};
pub use relu_reduce::{
    cull_least_sensitive, deepreduce_combo, relu_sensitivity, replace_survivors, ComboReport,
};
pub use replace::{
    coefficient_tune, coefficient_tune_all, collect_relu_pafs, freeze_scales, num_slots,
    profile_slot, replace_all_with, replace_slot, scale_static_scales,
};
pub use scheduler::{EventKind, Scheduler, TrainEvent};
pub use serve::{registry_factory, serve_sessions, serve_sessions_packed, SessionCache};
pub use session::{
    trace_modmuls, CompiledSession, FormId, Objective, Plan, PlanReport, PlannedCandidate, Session,
    SessionBuilder, SessionError, VectorCost, SECONDS_PER_MODMUL,
};
pub use trainer::{evaluate, pretrain, train_epoch};
