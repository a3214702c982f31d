//! The shared stage interpreter and the [`InferenceBackend`] trait.
//!
//! A compiled [`HePipeline`] is a list of [`Stage`]s; *how* each stage
//! executes — batched `f64` arithmetic or leveled CKKS — is a backend
//! concern. This module owns the single interpreter loop
//! ([`HePipeline::run`]) that walks the stage list, delegates every
//! operation to an [`InferenceBackend`], and reports the run's
//! level/bootstrap statistics. Where a run refreshes and the
//! level each op is entered at is the [`crate::LevelSchedule`]'s
//! business; the two backends live in [`crate::backends`], the
//! threaded batch driver in [`crate::batch`].

use crate::pipeline::{HePipeline, Stage};
use smartpaf_ckks::DiagMatrix;
use smartpaf_polyfit::{CompositeEval, CompositePaf};
use std::fmt;
use std::time::{Duration, Instant};

/// Typed failure of pipeline compilation or execution.
///
/// Every fallible heinfer entry point returns these
/// ([`PipelineBuilder::try_compile`](crate::PipelineBuilder::try_compile),
/// [`HePipeline::try_pad_input`](crate::HePipeline::try_pad_input),
/// [`HePipeline::try_with_pafs`](crate::HePipeline::try_with_pafs),
/// [`HePipeline::run`]). [`HePipeline::eval_plain`] is the one
/// documented panic, and its message is exactly the `Display` string
/// below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The builder was compiled with no stages.
    EmptyPipeline,
    /// A max pool was applied to a non-`(C, H, W)` activation.
    NotChw {
        /// The offending shape.
        dims: Vec<usize>,
    },
    /// A pool window does not tile its input exactly.
    PoolUntileable {
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Window size.
        k: usize,
        /// Window stride.
        stride: usize,
    },
    /// An input vector exceeds the pipeline's logical input dimension.
    InputTooLong {
        /// Supplied length.
        len: usize,
        /// Maximum accepted length.
        max: usize,
    },
    /// The pipeline's padded dimension does not divide the ciphertext
    /// slot count, so replicated packing cannot hold the activation.
    SlotMismatch {
        /// Pipeline padded dimension.
        dim: usize,
        /// Ciphertext slot count.
        slots: usize,
    },
    /// The modulus chain ran dry and no bootstrapper was supplied.
    OutOfLevels {
        /// Label of the stage that could not start (or continue).
        label: String,
        /// Levels still available.
        available: usize,
        /// Levels the next atomic operation needs.
        needed: usize,
        /// True when the exhaustion happened inside a stage (between
        /// two shifts of a max-pool fold), false at a stage boundary.
        mid_stage: bool,
    },
    /// A single atomic operation needs more levels than the whole
    /// modulus chain offers — no amount of bootstrapping helps.
    AtomicDepthExceeded {
        /// Label of the offending stage.
        label: String,
        /// Levels the atomic operation needs.
        needed: usize,
        /// Total levels the chain offers.
        max_level: usize,
    },
    /// A per-stage PAF form vector's length does not match the
    /// pipeline's PAF slot count
    /// ([`HePipeline::try_with_pafs`](crate::HePipeline::try_with_pafs)).
    FormCountMismatch {
        /// PAF slots the pipeline has.
        expected: usize,
        /// Composites the caller supplied.
        got: usize,
    },
    /// A batch worker panicked while evaluating an input. The panic is
    /// contained by [`BatchRunner`](crate::BatchRunner) so a long-lived
    /// serving process survives one poisoned input; results from the
    /// rest of the batch are discarded.
    WorkerPanicked,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::EmptyPipeline => f.write_str("empty pipeline"),
            RunError::NotChw { dims } => {
                write!(f, "max pool needs a (C,H,W) input, got {dims:?}")
            }
            RunError::PoolUntileable { h, w, k, stride } => write!(
                f,
                "pool window must tile the input exactly ({h}x{w}, k={k}, stride={stride})"
            ),
            RunError::InputTooLong { len, max } => {
                write!(f, "input too long ({len} > {max})")
            }
            RunError::SlotMismatch { dim, slots } => {
                write!(f, "pipeline dim {dim} must divide slot count {slots}")
            }
            RunError::OutOfLevels {
                label,
                available,
                needed,
                mid_stage,
            } => {
                if *mid_stage {
                    write!(
                        f,
                        "level exhausted inside `{label}` ({available} < {needed}); \
                         supply a Bootstrapper"
                    )
                } else {
                    write!(
                        f,
                        "level exhausted before `{label}` ({available} < {needed}); \
                         supply a Bootstrapper"
                    )
                }
            }
            RunError::AtomicDepthExceeded {
                label,
                needed,
                max_level,
            } => write!(
                f,
                "atomic op in `{label}` needs {needed} levels but the chain only has {max_level}"
            ),
            RunError::FormCountMismatch { expected, got } => write!(
                f,
                "form vector has {got} composite(s) but the pipeline has {expected} PAF slot(s)"
            ),
            RunError::WorkerPanicked => {
                f.write_str("a batch worker panicked; the batch was discarded")
            }
        }
    }
}

impl RunError {
    /// True when the failure means the configuration can *never*
    /// execute on this modulus chain ([`RunError::AtomicDepthExceeded`])
    /// — no bootstrap schedule helps. Planners use this to drop a
    /// candidate form from the search instead of aborting the whole
    /// plan; every other variant is a real error worth surfacing.
    pub fn is_infeasible_form(&self) -> bool {
        matches!(self, RunError::AtomicDepthExceeded { .. })
    }
}

impl std::error::Error for RunError {}

/// Execution statistics of one pipeline run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Levels consumed per stage, in order: each stage's
    /// [`Stage::levels`].
    pub stage_levels: Vec<usize>,
    /// Bootstraps (simulated refreshes) triggered.
    pub bootstraps: usize,
    /// Remaining rescale budget after the last stage (0 for backends
    /// without level semantics).
    pub final_level: usize,
    /// Wall-clock time of the evaluation.
    pub wall: Duration,
}

impl RunStats {
    /// Total levels consumed across all stages.
    pub fn total_levels(&self) -> usize {
        self.stage_levels.iter().sum()
    }
}

/// One PAF activation as a backend sees it: the composite polynomial
/// (ciphertext-side schedule source) plus the compile-time-prepared
/// plaintext evaluation engine.
pub struct PafOp<'a> {
    /// The composite sign approximation.
    pub paf: &'a CompositePaf,
    /// The prepared plaintext engine the stage owns (built when the
    /// composite is installed).
    pub engine: &'a CompositeEval,
}

/// One execution mode of a compiled pipeline.
///
/// The interpreter ([`HePipeline::run`]) calls exactly one method per
/// stage; backends own all representation- and level-specific
/// behaviour. `Value` is the activation representation flowing through
/// the stages: `Vec<f64>` for plain slices, `Ciphertext` for CKKS.
pub trait InferenceBackend {
    /// The activation representation this backend transforms.
    type Value;

    /// Called once before the first stage; backends validate pipeline
    /// compatibility here (e.g. slot packing).
    fn begin(&mut self, _pipe: &HePipeline) -> Result<(), RunError> {
        Ok(())
    }

    /// Affine stage: `v ← M·v + b`.
    fn affine(
        &mut self,
        v: &mut Self::Value,
        mat: &DiagMatrix,
        bias: &[f64],
        label: &str,
    ) -> Result<(), RunError>;

    /// PAF-ReLU stage: `v ← paf_relu(v)`. `pre_scale` and `post_scale`
    /// are always `1.0` (a Static Scale lives in the affine stages
    /// around the PAF, see [`crate::PipelineBuilder::try_compile`]);
    /// they are kept only because the frozen benchmark package's
    /// `TimedBackend` implements this trait, and the per-op trait on the
    /// ROADMAP deletes them.
    fn paf_relu(
        &mut self,
        v: &mut Self::Value,
        op: &PafOp<'_>,
        pre_scale: f64,
        post_scale: f64,
        label: &str,
    ) -> Result<(), RunError>;

    /// PAF max-pool fold: for each shift `T` of `taps`, in order,
    /// `v ← paf_max(v, T·v)`. Every shift is a cyclic rotation
    /// ([`DiagMatrix::as_rotation`]) and `post_scale` is always `1.0`
    /// (the pool's scales live in the affine stages around it). The
    /// parameter list is the one the frozen benchmark package's
    /// `TimedBackend` implements; the per-op trait on the ROADMAP turns
    /// `taps` into `&[usize]` steps and deletes `post_scale`.
    fn paf_max(
        &mut self,
        v: &mut Self::Value,
        taps: &[DiagMatrix],
        op: &PafOp<'_>,
        post_scale: f64,
        label: &str,
    ) -> Result<(), RunError>;

    /// Remaining rescale budget of a value, for backends with level
    /// semantics; the interpreter reads the run's final level off it.
    fn level_of(&self, _v: &Self::Value) -> Option<usize> {
        None
    }

    /// Bootstraps performed so far.
    fn bootstraps(&self) -> usize {
        0
    }
}

impl HePipeline {
    /// Runs the compiled stage list through a backend — the single
    /// interpreter loop behind `eval_plain` and `try_eval_encrypted`.
    ///
    /// Each stage is charged the levels its atomic ops consume
    /// ([`Stage::levels`]) on either backend: entering a refresh-free
    /// segment below the level the ciphertext arrived at drops limbs
    /// nobody would have used, which is not consumption.
    pub fn run<B: InferenceBackend>(
        &self,
        backend: &mut B,
        mut value: B::Value,
    ) -> Result<(B::Value, RunStats), RunError> {
        backend.begin(self)?;
        let start = Instant::now();
        for stage in &self.stages {
            let label = stage.label();
            match stage {
                Stage::Affine { mat, bias } => backend.affine(&mut value, mat, bias, &label)?,
                Stage::PafRelu { paf, engine } => {
                    let op = PafOp { paf, engine };
                    backend.paf_relu(&mut value, &op, 1.0, 1.0, &label)?
                }
                Stage::PafMax {
                    shifts,
                    paf,
                    engine,
                    ..
                } => {
                    let op = PafOp { paf, engine };
                    // The trait's parameter list is frozen (see
                    // `InferenceBackend::paf_max`): the steps travel as
                    // rotation matrices.
                    let rotations: Vec<DiagMatrix> = shifts
                        .iter()
                        .map(|&step| DiagMatrix::rotation(self.dim, step))
                        .collect();
                    backend.paf_max(&mut value, &rotations, &op, 1.0, &label)?
                }
            }
        }
        let stats = RunStats {
            stage_levels: self.stages.iter().map(Stage::levels).collect(),
            bootstraps: backend.bootstraps(),
            final_level: backend.level_of(&value).unwrap_or(0),
            wall: start.elapsed(),
        };
        Ok((value, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_error_display_strings_are_stable() {
        // `eval_plain` panics with these strings verbatim and callers
        // match on the substrings, so the wording is load-bearing.
        assert_eq!(RunError::EmptyPipeline.to_string(), "empty pipeline");
        let e = RunError::OutOfLevels {
            label: "paf-relu[depth=5]".into(),
            available: 2,
            needed: 6,
            mid_stage: false,
        };
        assert!(e.to_string().contains("level exhausted before"));
        assert!(e.to_string().contains("supply a Bootstrapper"));
        let e = RunError::OutOfLevels {
            label: "paf-max[k=2 shifts=2 depth=6]".into(),
            available: 2,
            needed: 7,
            mid_stage: true,
        };
        assert!(e.to_string().contains("level exhausted inside"));
        let e = RunError::PoolUntileable {
            h: 5,
            w: 5,
            k: 2,
            stride: 2,
        };
        assert!(e.to_string().contains("tile the input exactly"));
        let e = RunError::SlotMismatch { dim: 64, slots: 96 };
        assert_eq!(e.to_string(), "pipeline dim 64 must divide slot count 96");
        let e = RunError::AtomicDepthExceeded {
            label: "x".into(),
            needed: 9,
            max_level: 8,
        };
        assert!(e.to_string().contains("needs 9 levels"));
        let e = RunError::FormCountMismatch {
            expected: 3,
            got: 1,
        };
        assert_eq!(
            e.to_string(),
            "form vector has 1 composite(s) but the pipeline has 3 PAF slot(s)"
        );
        assert_eq!(
            RunError::WorkerPanicked.to_string(),
            "a batch worker panicked; the batch was discarded"
        );
    }
}
