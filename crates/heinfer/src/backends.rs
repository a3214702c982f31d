//! The two [`InferenceBackend`] implementations, and the dry run that
//! reads the schedule one of them executes.
//!
//! - [`PlainBackend`] — batched `f64` slices through the prepared
//!   `polyfit` evaluation engines (the exact plaintext reference).
//! - [`CkksBackend`] — leveled CKKS execution of the run's
//!   [`LevelSchedule`]: refresh where a segment starts, enter every
//!   atomic op at the level the rest of its segment consumes.
//!
//! The trace reads the schedule: [`HePipeline::trace`] cuts the same
//! [`LevelSchedule`] once and reports each stage's levels, refreshes
//! and price plus exact ciphertext-multiplication and key-switch
//! counts, no arithmetic at all — an instant dry-run cost oracle for
//! schedulers.

use crate::exec::{InferenceBackend, PafOp, RunError, RunStats};
use crate::pipeline::{HePipeline, Stage};
use crate::schedule::{AtomicOp, LevelSchedule, ScheduledOp};
use smartpaf_ckks::{Bootstrapper, Ciphertext, CkksParams, DiagMatrix, PafEvaluator};
use std::time::Duration;

/// The batched plaintext backend: the activation is a padded `f64`
/// vector, PAF stages run through the compile-time-prepared
/// [`smartpaf_polyfit::CompositeEval`] engines.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlainBackend;

impl InferenceBackend for PlainBackend {
    type Value = Vec<f64>;

    fn affine(
        &mut self,
        v: &mut Vec<f64>,
        mat: &DiagMatrix,
        bias: &[f64],
        _label: &str,
    ) -> Result<(), RunError> {
        let mut y = mat.apply_plain(v);
        for (yi, bi) in y.iter_mut().zip(bias) {
            *yi += bi;
        }
        *v = y;
        Ok(())
    }

    fn paf_relu(
        &mut self,
        v: &mut Vec<f64>,
        op: &PafOp<'_>,
        pre_scale: f64,
        post_scale: f64,
        _label: &str,
    ) -> Result<(), RunError> {
        // The whole activation vector goes through the batch backend.
        let scaled: Vec<f64> = v.iter().map(|&xi| pre_scale * xi).collect();
        let mut out = vec![0.0; scaled.len()];
        op.engine.relu_slice(&scaled, &mut out);
        for o in out.iter_mut() {
            *o *= post_scale;
        }
        *v = out;
        Ok(())
    }

    fn paf_max(
        &mut self,
        v: &mut Vec<f64>,
        taps: &[DiagMatrix],
        op: &PafOp<'_>,
        _post_scale: f64,
        _label: &str,
    ) -> Result<(), RunError> {
        // The encrypted fold, operand order included (PAF max is not
        // symmetric up to approximation error); each shift is one
        // batched max over the whole vector.
        for shift in taps {
            let shifted = shift.apply_plain(v);
            let mut folded = vec![0.0; v.len()];
            op.engine.max_slice(v, &shifted, &mut folded);
            *v = folded;
        }
        Ok(())
    }
}

/// The leveled CKKS backend: wraps a [`PafEvaluator`] and an optional
/// [`Bootstrapper`] and executes the run's [`LevelSchedule`] — it
/// refreshes where the schedule starts a segment and enters every
/// atomic op at exactly the level the rest of its segment consumes, so
/// no NTT, key switch or rescale carries a limb the segment will not
/// use. That limb count is the cost that makes high-degree PAFs
/// expensive in the paper.
///
/// Slot-packed execution (see [`crate::pack`]) needs no special
/// backend support: a lane-expanded pipeline is an ordinary
/// [`HePipeline`] at the wider padded dimension, its interleaved
/// affine stages run through the same
/// [`smartpaf_ckks::Evaluator::matvec_bsgs`] path with its per-matrix
/// diagonal-encoding cache, a pool's shifts are rotations of the wider
/// vector by the lane count's multiples, and PAF evaluations are
/// elementwise per slot so they act per lane for free.
pub struct CkksBackend<'a> {
    pe: &'a PafEvaluator,
    bootstrapper: Option<&'a Bootstrapper>,
    /// The evaluator's parameters ([`smartpaf_ckks::CkksContext::params`]):
    /// what the schedule is priced at.
    params: CkksParams,
    bootstraps: usize,
    /// The pipeline's atomic ops, held from `begin` until the first
    /// stage shows the level the input arrived at.
    ops: Vec<AtomicOp>,
    /// `ops` cut for that input level.
    schedule: Option<LevelSchedule>,
    /// Stages executed so far.
    stage: usize,
}

#[cfg(test)]
thread_local! {
    /// The level every atomic op executed on this thread was actually
    /// entered at, so tests can hold the trace's
    /// [`StageTrace::op_levels`] to the executed run.
    pub(crate) static ENTRY_LEVELS: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl<'a> CkksBackend<'a> {
    /// Creates a backend over an evaluator and an optional refresher.
    pub fn new(pe: &'a PafEvaluator, bootstrapper: Option<&'a Bootstrapper>) -> Self {
        CkksBackend {
            pe,
            bootstrapper,
            params: pe.evaluator().context().params(),
            bootstraps: 0,
            ops: Vec::new(),
            schedule: None,
            stage: 0,
        }
    }

    /// Brings `v` to the level the schedule enters `op` at: a refresh
    /// when a segment starts here, straight onto the limbs the segment
    /// will consume, else a drop of the ones it will not (a truncation
    /// — exact, and a no-op inside a segment).
    fn enter(&mut self, v: &mut Ciphertext, op: &ScheduledOp) {
        if op.refresh {
            let bs = self
                .bootstrapper
                .expect("a schedule cut without a refresher has no refresh");
            self.bootstraps += 1;
            *v = bs.refresh_to(v, op.level_in);
        }
        v.drop_to(op.level_in + 1);
        #[cfg(test)]
        ENTRY_LEVELS.with(|levels| levels.borrow_mut().push(v.level()));
    }

    /// Starts the next stage: returns its scheduled ops with `v`
    /// already entered into the first, or the error that stops the run
    /// inside the stage. The first stage of a run is where the level
    /// the input arrived at shows, so that is where the schedule is cut.
    fn enter_stage(
        &mut self,
        v: &mut Ciphertext,
        label: &str,
    ) -> Result<Vec<ScheduledOp>, RunError> {
        let schedule = self.schedule.get_or_insert_with(|| {
            let refresher = self.bootstrapper.is_some();
            let max_level = self.params.depth;
            LevelSchedule::cut(&self.ops, &self.params, v.level(), max_level, refresher)
        });
        let ops = schedule.stage(self.stage, label)?.to_vec();
        self.stage += 1;
        self.enter(v, &ops[0]);
        Ok(ops)
    }
}

impl InferenceBackend for CkksBackend<'_> {
    type Value = Ciphertext;

    fn begin(&mut self, pipe: &HePipeline) -> Result<(), RunError> {
        let slots = self.pe.evaluator().context().slots();
        if pipe.lane_capacity(slots) == 0 {
            return Err(RunError::SlotMismatch {
                dim: pipe.dim(),
                slots,
            });
        }
        self.ops = pipe.atomic_ops();
        self.schedule = None;
        self.stage = 0;
        Ok(())
    }

    fn affine(
        &mut self,
        v: &mut Ciphertext,
        mat: &DiagMatrix,
        bias: &[f64],
        label: &str,
    ) -> Result<(), RunError> {
        self.enter_stage(v, label)?;
        let ev = self.pe.evaluator();
        let y = ev.matvec_bsgs(mat, v);
        *v = ev.add_bias_replicated(&y, bias);
        Ok(())
    }

    fn paf_relu(
        &mut self,
        v: &mut Ciphertext,
        op: &PafOp<'_>,
        pre_scale: f64,
        post_scale: f64,
        label: &str,
    ) -> Result<(), RunError> {
        self.enter_stage(v, label)?;
        let ev = self.pe.evaluator();
        if pre_scale != 1.0 {
            *v = ev.mul_const(v, pre_scale);
        }
        *v = self.pe.relu(v, op.paf);
        if post_scale != 1.0 {
            *v = ev.mul_const(v, post_scale);
        }
        Ok(())
    }

    fn paf_max(
        &mut self,
        v: &mut Ciphertext,
        taps: &[DiagMatrix],
        op: &PafOp<'_>,
        _post_scale: f64,
        label: &str,
    ) -> Result<(), RunError> {
        // One scheduled op per shift; the first is already entered. A
        // shift is a bare rotation: no plaintext multiply, no level.
        let ops = self.enter_stage(v, label)?;
        for (i, (shift, scheduled)) in taps.iter().zip(&ops).enumerate() {
            if i > 0 {
                self.enter(v, scheduled);
            }
            let step = shift.as_rotation().expect("pool shifts are rotations");
            let shifted = self.pe.evaluator().rotate(v, step as i64);
            *v = self.pe.max(v, &shifted, op.paf);
        }
        Ok(())
    }

    fn level_of(&self, v: &Ciphertext) -> Option<usize> {
        Some(v.level())
    }

    fn bootstraps(&self) -> usize {
        self.bootstraps
    }
}

/// Per-stage record of a dry run ([`HePipeline::trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Stage label (matches [`crate::Stage::label`]).
    pub label: String,
    /// PAF slot index of this stage (stage order, counting only
    /// ReLU/maxpool stages), `None` for affine stages. This is the
    /// index a per-slot form vector assigns
    /// ([`crate::HePipeline::try_with_pafs`]), so planners can read
    /// per-slot levels/bootstraps/ct-mults straight off the trace.
    pub slot: Option<usize>,
    /// The level each of the stage's atomic ops is entered at
    /// ([`ScheduledOp::level_in`]), after any refresh before it, in
    /// execution order: one entry for an affine map or a ReLU, one per
    /// shift for a max pool — which a refresh between two shifts enters
    /// at unrelated levels.
    pub op_levels: Vec<usize>,
    /// Levels the stage consumes ([`crate::Stage::levels`]).
    pub levels: usize,
    /// Refreshes this stage takes, before or inside it.
    pub bootstraps: usize,
    /// Exact ciphertext-ciphertext multiplications — tensor products
    /// ([`smartpaf_polyfit::OddPowerSchedule::exact_ct_mults`] per PAF
    /// evaluation, plus one per ReLU/max product; affine stages cost
    /// only ciphertext-plaintext work and count zero).
    pub ct_mults: usize,
    /// Exact relinearisations, each one key-switch decomposition and
    /// application with the rescale fused into its division
    /// ([`smartpaf_polyfit::OddPowerSchedule::exact_relins`] per PAF
    /// evaluation — a stage's summed term products share one — plus
    /// one per ReLU/max product).
    pub relins: usize,
    /// Exact ciphertext rotations (each one Galois key-switch
    /// *application*): the BSGS schedule of an affine matvec
    /// ([`DiagMatrix::bsgs_counts`]) and one per shift of a max pool —
    /// the same at any lane count.
    pub rotations: usize,
    /// Exact key-switch *decompositions* behind those rotations: an
    /// affine's baby steps share one (hoisted — they rotate the same
    /// input) and each giant step has its own; each pool shift rotates
    /// a different ciphertext and has its own.
    pub decompositions: usize,
    /// The stage's price in modular multiplies: its ops', each at the
    /// level it is entered at ([`ScheduledOp::modmuls`]) — the quantity
    /// the schedule minimised. Refreshes are not in it.
    pub modmuls: u64,
}

impl StageTrace {
    /// The level the stage's first atomic op is entered at: the stage
    /// starts on `level_in() + 1` limbs.
    pub fn level_in(&self) -> usize {
        self.op_levels[0]
    }
}

/// Aggregate result of a trace dry run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Per-stage records, in execution order.
    pub stages: Vec<StageTrace>,
    /// Remaining rescale budget after the last stage.
    pub final_level: usize,
}

impl TraceReport {
    /// Total exact ciphertext multiplications across all stages.
    pub fn total_ct_mults(&self) -> usize {
        self.stages.iter().map(|s| s.ct_mults).sum()
    }

    /// Total exact relinearisations across all stages.
    pub fn total_relins(&self) -> usize {
        self.stages.iter().map(|s| s.relins).sum()
    }

    /// Total bootstraps across all stages.
    pub fn total_bootstraps(&self) -> usize {
        self.stages.iter().map(|s| s.bootstraps).sum()
    }

    /// Total levels consumed across all stages.
    pub fn total_levels(&self) -> usize {
        self.stages.iter().map(|s| s.levels).sum()
    }

    /// Total ciphertext rotations across all stages.
    pub fn total_rotations(&self) -> usize {
        self.stages.iter().map(|s| s.rotations).sum()
    }

    /// Total key-switch decompositions behind those rotations.
    pub fn total_decompositions(&self) -> usize {
        self.stages.iter().map(|s| s.decompositions).sum()
    }

    /// Total price of the stages' ops in modular multiplies
    /// ([`StageTrace::modmuls`]; refreshes excluded).
    pub fn total_op_modmuls(&self) -> u128 {
        self.stages.iter().map(|s| u128::from(s.modmuls)).sum()
    }

    /// The PAF-slot records only (stages with a
    /// [`StageTrace::slot`] index), in slot order — one row per entry
    /// of a per-slot form vector.
    pub fn paf_slots(&self) -> Vec<&StageTrace> {
        self.stages.iter().filter(|s| s.slot.is_some()).collect()
    }
}

serde::wire_struct!(StageTrace {
    label, slot, op_levels, levels, bootstraps, ct_mults, relins, rotations, decompositions,
    modmuls,
} check |stage: &StageTrace| {
    if stage.op_levels.is_empty() {
        Err("a stage has at least one atomic op")
    } else {
        Ok(())
    }
});

serde::wire_struct!(TraceReport {
    stages,
    final_level
});

impl HePipeline {
    /// The dry run: the [`LevelSchedule`] [`CkksBackend`] executes,
    /// cut over the modulus chain of `params` and priced at them, read
    /// off stage by stage — its levels, refreshes and price plus exact
    /// ct-mult and key-switch counts, without touching a coefficient. A
    /// fresh ciphertext enters at the top of the chain. With
    /// `allow_bootstrap`, exhaustion refreshes (and is charged);
    /// without, it surfaces as [`RunError::OutOfLevels`] exactly where
    /// the CKKS backend would fail.
    ///
    /// A lane expansion ([`HePipeline::expand_lanes`]) does this
    /// pipeline's work at every lane count, so this is also the trace
    /// of a packed request.
    pub fn trace(
        &self,
        params: &CkksParams,
        allow_bootstrap: bool,
    ) -> Result<TraceReport, RunError> {
        let schedule = LevelSchedule::cut(
            &self.atomic_ops(),
            params,
            params.depth,
            params.depth,
            allow_bootstrap,
        );
        let mut next_slot = 0;
        let mut stages = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let label = stage.label();
            let ops = schedule.stage(i, &label)?;
            let total = |count: fn(&ScheduledOp) -> usize| ops.iter().map(count).sum();
            let modmuls: u128 = ops.iter().map(|o| o.modmuls).sum();
            let is_paf = !matches!(stage, Stage::Affine { .. });
            stages.push(StageTrace {
                label,
                slot: is_paf.then_some(next_slot),
                op_levels: ops.iter().map(|o| o.level_in).collect(),
                levels: total(|o| o.op.need),
                bootstraps: total(|o| usize::from(o.refresh)),
                ct_mults: total(|o| o.op.work.tensors),
                relins: total(|o| o.op.work.relins),
                rotations: total(|o| o.op.work.rotations),
                decompositions: total(|o| o.op.work.decompositions),
                modmuls: u64::try_from(modmuls).expect("a stage's price fits 64 bits"),
            });
            next_slot += usize::from(is_paf);
        }
        Ok(TraceReport {
            final_level: schedule.level_after(stages.len()),
            stages,
        })
    }

    /// [`HePipeline::trace`] over a `max_level`-level chain of
    /// otherwise default parameters, for the frozen benchmark package,
    /// which reads counts no parameter moves off it; the next library
    /// PR after the benchmark repoints deletes it. Packing moves no
    /// count, so `lanes` is accepted and ignored: every lane count
    /// reads the one-lane trace.
    pub fn dry_run_lanes(
        &self,
        max_level: usize,
        allow_bootstrap: bool,
        _lanes: usize,
    ) -> Result<(TraceReport, RunStats), RunError> {
        let params = CkksParams {
            depth: max_level,
            ..CkksParams::default_params()
        };
        let report = self.trace(&params, allow_bootstrap)?;
        let stats = RunStats {
            stage_levels: report.stages.iter().map(|s| s.levels).collect(),
            bootstraps: report.total_bootstraps(),
            final_level: report.final_level,
            wall: Duration::ZERO,
        };
        Ok((report, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineBuilder, Stage};
    use serde::{Deserialize, Serialize, Value};
    use smartpaf_ckks::{Bootstrapper, CkksParams, Evaluator, KeyChain};
    use smartpaf_nn::{Conv2d, Linear};
    use smartpaf_polyfit::{CompositePaf, PafForm};
    use smartpaf_tensor::Rng64;

    /// The toy parameters over a `depth`-level chain.
    fn chain(depth: usize) -> CkksParams {
        CkksParams {
            depth,
            ..CkksParams::toy()
        }
    }

    /// The levels each stage of a trace consumes, as `RunStats` lists them.
    fn stage_levels(report: &TraceReport) -> Vec<usize> {
        report.stages.iter().map(|s| s.levels).collect()
    }

    fn setup(seed: u64) -> (PafEvaluator, Rng64) {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        (PafEvaluator::new(Evaluator::new(&keys)), rng)
    }

    #[test]
    fn plain_backend_matches_eval_plain() {
        let mut rng = Rng64::new(101);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .paf_relu(&paf, 2.0)
            .affine(Linear::new(4, 3, &mut rng))
            .try_compile()
            .unwrap();
        let x = [0.3, -0.7, 1.1, -0.2];
        let via_wrapper = pipe.eval_plain(&x);
        let (mut out, stats) = pipe
            .run(&mut PlainBackend, pipe.try_pad_input(&x).unwrap())
            .expect("plain backend cannot fail");
        out.truncate(pipe.output_dim());
        assert_eq!(out, via_wrapper);
        // Plain stats report nominal stage depths.
        assert_eq!(stats.total_levels(), pipe.total_levels());
        assert_eq!(stats.bootstraps, 0);
    }

    #[test]
    fn trace_matches_ckks_levels_without_bootstrap() {
        let (pe, mut rng) = setup(102);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, 8, &mut rng))
            .paf_relu(&paf, 4.0)
            .affine(Linear::new(8, 4, &mut rng))
            .try_compile()
            .unwrap();
        let x: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) / 4.0).collect();
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
        let (_, enc_stats) = pipe.try_eval_encrypted(&pe, None, &ct).unwrap();
        let report = pipe
            .trace(&CkksParams::toy(), false)
            .expect("fits the chain");
        assert_eq!(stage_levels(&report), enc_stats.stage_levels);
        assert_eq!(report.total_bootstraps(), enc_stats.bootstraps);
        assert_eq!(report.final_level, enc_stats.final_level);
        assert_eq!(report.total_levels(), enc_stats.total_levels());
    }

    #[test]
    fn trace_matches_ckks_bootstraps_when_chain_runs_dry() {
        let (pe, mut rng) = setup(103);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let mut b = PipelineBuilder::new(&[4]);
        for _ in 0..3 {
            b = b.affine(Linear::new(4, 4, &mut rng)).paf_relu(&paf, 2.0);
        }
        let pipe = b.try_compile().unwrap().fold_scales();
        let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 5);
        let ct = pe.evaluator().encrypt_replicated(
            &pipe.try_pad_input(&[0.2, -0.4, 0.6, -0.8]).unwrap(),
            &mut rng,
        );
        let (_, enc_stats) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
        assert!(enc_stats.bootstraps >= 1);
        let report = pipe
            .trace(&CkksParams::toy(), true)
            .expect("bootstrap allowed");
        assert_eq!(stage_levels(&report), enc_stats.stage_levels);
        assert_eq!(report.total_bootstraps(), enc_stats.bootstraps);
    }

    #[test]
    fn executed_entry_levels_are_the_traced_ones() {
        // One schedule, two readers: the level every atomic op of an
        // encrypted run is actually entered at is the trace's
        // `op_levels`, and the refreshes, rotations, decompositions and
        // ct-mults it executes are the traced ones — on a CNN with a
        // pool, an MLP, and a 3×3 stride-1 and a 2×2 stride-2 pool each
        // followed by an affine, followed by a ReLU, and ending the
        // pipeline, at two key-switch digit sizes; the decrypted output
        // is the plain backend's. Packed serving executes a
        // lane-expanded pipeline but plans on the base one: the CNN at
        // all 8 lanes and the MLP at all 32 of the toy ring run the
        // interleaved expansion against the base pipeline's one-lane
        // trace, so the two cannot cut differently. Without a
        // refresher a pipeline deeper than the chain cannot complete:
        // both backends then stop at the same stage with the same
        // error, and nothing was dropped on the way there.
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let mut rng = Rng64::new(110);
        let cnn = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .paf_relu(&paf, 4.0)
            .paf_maxpool(2, 2, &paf, 4.0)
            .affine(smartpaf_nn::Flatten::new())
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile()
            .unwrap()
            .fold_scales();
        let mlp = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .paf_relu(&paf, 2.0)
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile()
            .unwrap()
            .fold_scales();
        let mut pipes = vec![("cnn".to_string(), cnn), ("mlp".to_string(), mlp)];
        for (k, stride) in [(3, 1), (2, 2)] {
            let pool = || PipelineBuilder::new(&[1, 4, 4]).paf_maxpool(k, stride, &paf, 2.0);
            let side = (4 - k) / stride + 1;
            let head = Linear::new(side * side, 3, &mut rng);
            let with_affine = pool()
                .affine(smartpaf_nn::Flatten::new())
                .affine(head)
                .try_compile()
                .unwrap()
                .fold_scales();
            let with_relu = pool()
                .paf_relu(&paf, 2.0)
                .try_compile()
                .unwrap()
                .fold_scales();
            let alone = pool().try_compile().unwrap().fold_scales();
            for (suffix, pipe) in [
                (" + affine", with_affine),
                (" + relu", with_relu),
                ("", alone),
            ] {
                pipes.push((format!("pool {k}/{stride}{suffix}"), pipe));
            }
        }
        for omega in [1, 3] {
            let params = CkksParams {
                ks_digit_limbs: omega,
                ..CkksParams::toy()
            };
            let keys = KeyChain::generate(&params.build(), &mut rng);
            let pe = PafEvaluator::new(Evaluator::new(&keys));
            let max_level = pe.evaluator().context().max_level();
            // (the pipeline traced, at lanes, the pipeline executed)
            let packed = [(&pipes[0], 8), (&pipes[1], 32)]
                .map(|((name, base), lanes)| (name, base, lanes, Some(base.expand_lanes(lanes))));
            let unpacked = pipes.iter().map(|(name, base)| (name, base, 1, None));
            for (name, base, lanes, wide) in packed.into_iter().chain(unpacked) {
                let pipe = wide.as_ref().unwrap_or(base);
                let x: Vec<f64> = (0..pipe.input_dim())
                    .map(|i| ((i * 7) % 11) as f64 / 5.5 - 1.0)
                    .collect();
                let ct = pe
                    .evaluator()
                    .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
                let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 11);
                for refresher in [Some(&bs), None] {
                    let case = format!(
                        "{name} x{lanes}, omega {omega}, refresher {}",
                        refresher.is_some()
                    );
                    ENTRY_LEVELS.with(|levels| levels.borrow_mut().clear());
                    let refreshed = bs.refresh_count();
                    // The key-switch counters are per thread.
                    let (executed, key_switches) =
                        smartpaf_ckks::par::with_thread_budget(1, || {
                            smartpaf_ckks::take_key_switch_counts();
                            let executed = pipe.try_eval_encrypted(&pe, refresher, &ct);
                            (executed, smartpaf_ckks::take_key_switch_counts())
                        });
                    let entered = ENTRY_LEVELS.with(|levels| levels.take());
                    match (executed, base.trace(&params, refresher.is_some())) {
                        (Ok((out, stats)), Ok(report)) => {
                            let traced: Vec<usize> = report
                                .stages
                                .iter()
                                .flat_map(|s| s.op_levels.iter().copied())
                                .collect();
                            assert_eq!(entered, traced, "{case}");
                            assert_eq!(stats.bootstraps, report.total_bootstraps(), "{case}");
                            assert_eq!(
                                bs.refresh_count() - refreshed,
                                report.total_bootstraps(),
                                "{case}"
                            );
                            // Every relinearisation is one
                            // decomposition and one application,
                            // beside the rotations' — fewer than the
                            // ct-mults, a stage's term products
                            // sharing one.
                            let relins = report.total_relins();
                            if name.starts_with("cnn") {
                                // One ReLU and two pool shifts of f1∘g2.
                                assert_eq!((report.total_ct_mults(), relins), (21, 18));
                            }
                            assert_eq!(
                                key_switches,
                                (
                                    report.total_decompositions() + relins,
                                    report.total_rotations() + relins
                                ),
                                "{case}"
                            );
                            assert_eq!(stats.final_level, 0, "{case}");
                            assert_eq!(report.final_level, 0, "{case}");
                            let got = pe.evaluator().decrypt_values(&out, pipe.output_dim());
                            for (g, w) in got.iter().zip(&pipe.eval_plain(&x)) {
                                assert!((g - w).abs() < 5e-2, "{case}: {g} vs {w}");
                            }
                        }
                        (Err(executed), Err(traced)) => {
                            assert!(refresher.is_none(), "{case}");
                            assert!(pipe.total_levels() > max_level, "{case}");
                            assert_eq!(executed, traced, "{case}");
                            let mut undropped = max_level;
                            for (level, op) in entered.iter().zip(pipe.atomic_ops()) {
                                assert_eq!(*level, undropped, "{case}");
                                undropped -= op.need;
                            }
                        }
                        (executed, traced) => panic!(
                            "{case}: executed {:?} but traced {:?}",
                            executed.map(|(_, stats)| stats),
                            traced
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn overflow_without_a_refresher_reports_the_undropped_walk() {
        // A pipeline that cannot complete has no segment to trim, so
        // the error carries what a walk from the top of the chain finds
        // — the values this error has always carried — at a stage
        // boundary and between two shifts of a pool fold alike.
        let (pe, mut rng) = setup(111);
        let relu = CompositePaf::from_form(PafForm::F1G2);
        let mut b = PipelineBuilder::new(&[4]);
        for _ in 0..3 {
            b = b.affine(Linear::new(4, 4, &mut rng)).paf_relu(&relu, 2.0);
        }
        // Unfolded, a ReLU takes 8 levels: 12 → 11 → 3 → 2, then 2 < 8.
        let blocks = b.try_compile().unwrap();
        // A pool that opens the pipeline: its `1/s` is an affine stage.
        let pool = PipelineBuilder::new(&[1, 4, 4])
            .paf_maxpool(2, 2, &CompositePaf::from_form(PafForm::Alpha7), 4.0)
            .try_compile()
            .unwrap();
        for (pipe, want) in [
            (
                &blocks,
                RunError::OutOfLevels {
                    label: "paf-relu[depth=5]".into(),
                    available: 2,
                    needed: 8,
                    mid_stage: false,
                },
            ),
            (
                // Scale 12 → 11, the first shift 11 → 4, then 4 < 7.
                &pool,
                RunError::OutOfLevels {
                    label: "paf-max[k=2 shifts=2 depth=6]".into(),
                    available: 4,
                    needed: 7,
                    mid_stage: true,
                },
            ),
        ] {
            let x = vec![0.25; pipe.input_dim()];
            let ct = pe
                .evaluator()
                .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
            let executed = pipe
                .try_eval_encrypted(&pe, None, &ct)
                .map(|(_, stats)| stats);
            assert_eq!(executed.expect_err("no refresher"), want);
            let traced = pipe.trace(&CkksParams::toy(), false);
            assert_eq!(traced.expect_err("no refresher"), want);
        }
    }

    #[test]
    fn trace_ct_mults_match_exact_schedule() {
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let pipe = PipelineBuilder::new(&[8])
            .paf_relu(&paf, 1.0)
            .try_compile()
            .unwrap();
        let report = pipe.trace(&chain(12), false).expect("fits");
        assert_eq!(report.stages.len(), 1);
        // Exactly the even-power-ladder count plus the ReLU product.
        assert_eq!(report.total_ct_mults(), paf.prepare().exact_ct_mults() + 1);
        // Maxpool: one PAF-max per shift, 2·⌈log₂k⌉ of them — two for
        // a 2×2 window, four for a 3×3 one.
        for (k, shifts) in [(2, 2), (3, 4)] {
            let pool = PipelineBuilder::new(&[1, 4, 4])
                .paf_maxpool(k, 1, &paf, 1.0)
                .try_compile()
                .unwrap();
            let report = pool.trace(&chain(30), false).expect("fits");
            assert_eq!(
                report.total_ct_mults(),
                shifts * (paf.prepare().exact_ct_mults() + 1)
            );
            let fold = report.paf_slots()[0];
            assert_eq!((fold.rotations, fold.decompositions), (shifts, shifts));
        }
    }

    #[test]
    fn trace_without_bootstrap_fails_like_ckks() {
        let mut rng = Rng64::new(104);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let mut b = PipelineBuilder::new(&[4]);
        for _ in 0..3 {
            b = b.affine(Linear::new(4, 4, &mut rng)).paf_relu(&paf, 2.0);
        }
        let pipe = b.try_compile().unwrap();
        let err = pipe.trace(&chain(12), false).expect_err("chain too short");
        assert!(matches!(err, RunError::OutOfLevels { .. }));
        assert!(err.to_string().contains("level exhausted"));
    }

    #[test]
    fn trace_rejects_atomic_depth_beyond_chain() {
        let paf = CompositePaf::from_form(PafForm::MinimaxDeg27); // depth 10 + 1
        let pipe = PipelineBuilder::new(&[4])
            .paf_relu(&paf, 1.0)
            .try_compile()
            .unwrap();
        let err = pipe.trace(&chain(8), true).expect_err("atomic op too deep");
        assert!(matches!(err, RunError::AtomicDepthExceeded { .. }));
    }

    #[test]
    fn single_tap_pool_needs_no_fold_depth() {
        // A 1×1 pool is its anchor selection and runs no fold, so a
        // chain far shallower than the PAF's atomic depth still
        // executes it.
        let paf = CompositePaf::from_form(PafForm::MinimaxDeg27); // fold depth 11
        let pipe = PipelineBuilder::new(&[1, 2, 2])
            .paf_maxpool(1, 1, &paf, 1.0)
            .try_compile()
            .unwrap();
        let report = pipe.trace(&chain(3), false).expect("selection only");
        assert_eq!(report.total_ct_mults(), 0);
        assert_eq!(report.total_levels(), 1);
    }

    #[test]
    fn mixed_form_pipeline_executes_and_traces_per_slot() {
        // Heterogeneous forms in one pipeline: a deep α=7 ReLU feeding
        // a cheap f1∘g2 max fold. The CKKS backend must execute both,
        // measure the trace's schedule exactly, and the trace must
        // attribute costs to the right PAF slot.
        let (pe, mut rng) = setup(106);
        let deep = CompositePaf::from_form(PafForm::Alpha7);
        let cheap = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .paf_relu(&cheap, 4.0)
            .paf_maxpool(2, 2, &cheap, 6.0)
            .try_compile()
            .unwrap()
            .fold_scales()
            .try_with_pafs(&[deep.clone(), cheap.clone()])
            .expect("two PAF slots");
        assert_eq!(
            pipe.paf_forms(),
            vec![Some(PafForm::Alpha7), Some(PafForm::F1G2)]
        );
        let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), 9);
        let x: Vec<f64> = (0..16).map(|i| ((i * 7) % 11) as f64 / 5.0 - 1.0).collect();
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
        let (out_ct, enc_stats) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
        let got = pe.evaluator().decrypt_values(&out_ct, pipe.output_dim());
        let want = pipe.eval_plain(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 0.2, "{g} vs {w}");
        }
        let report = pipe.trace(&CkksParams::toy(), true).expect("traceable");
        assert_eq!(report.total_bootstraps(), enc_stats.bootstraps);
        assert_eq!(stage_levels(&report), enc_stats.stage_levels);
        // Per-slot attribution: slot 0 is the ReLU (α=7 schedule),
        // slot 1 the max fold (one f1∘g2 max per shift).
        let slots = report.paf_slots();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].slot, Some(0));
        assert_eq!(slots[1].slot, Some(1));
        assert_eq!(slots[0].ct_mults, deep.prepare().exact_ct_mults() + 1);
        assert_eq!(
            slots[1].ct_mults,
            2 * (cheap.prepare().exact_ct_mults() + 1)
        );
        // Affine stages carry no slot index.
        assert!(report.stages.iter().any(|s| s.slot.is_none()));
    }

    #[test]
    fn lane_priced_trace_matches_materialized_expansion() {
        // Lanes are interleaved, so a lane expansion keeps every
        // affine's diagonals and split and every pool's shift count:
        // tracing the materialized expansion reports the base
        // pipeline's trace stage by stage — the same cut, counts and
        // price — with refreshes to place (12 levels) and without (30).
        // The `dry_run_lanes` forward the frozen benchmark reads is
        // that trace at every lane count.
        let mut rng = Rng64::new(108);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
            .paf_relu(&paf, 4.0)
            .paf_maxpool(2, 2, &paf, 6.0)
            .affine(smartpaf_nn::Flatten::new())
            .affine(Linear::new(8, 4, &mut rng))
            .try_compile()
            .unwrap()
            .fold_scales();
        let unlabelled = |report: TraceReport| -> TraceReport {
            let stages = report.stages.into_iter();
            TraceReport {
                stages: stages
                    .map(|s| StageTrace {
                        label: String::new(),
                        ..s
                    })
                    .collect(),
                ..report
            }
        };
        for (depth, refresh) in [(30, false), (12, true)] {
            let base = pipe.trace(&chain(depth), refresh).expect("fits");
            for lanes in [1usize, 2, 4, 32] {
                let wide = pipe.expand_lanes(lanes).trace(&chain(depth), refresh);
                let case = format!("depth {depth} lanes {lanes}");
                assert_eq!(
                    unlabelled(wide.expect("fits")),
                    unlabelled(base.clone()),
                    "{case}"
                );
            }
        }
        let (report, _) = pipe.dry_run_lanes(30, false, 1).expect("fits");
        for lanes in [2usize, 32] {
            let (forwarded, _) = pipe.dry_run_lanes(30, false, lanes).expect("fits");
            assert_eq!(forwarded, report, "lanes {lanes}");
        }
    }

    #[test]
    fn pool_lanes_are_isolated_from_each_other() {
        // A pool's shifts, times the lane count, rotate each
        // interleaved lane within itself. Packed at 2 lanes and at all
        // 32 of the toy ring: every lane's output is the 1-lane
        // pipeline's bit for bit, and changing one lane's input leaves
        // every other lane bit-identical in the clear and within noise
        // encrypted.
        let (pe, mut rng) = setup(109);
        let ev = pe.evaluator();
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let base = PipelineBuilder::new(&[1, 2, 2])
            .paf_maxpool(2, 2, &paf, 2.0)
            .affine(smartpaf_nn::Flatten::new())
            .affine(Linear::new(1, 3, &mut rng))
            .try_compile()
            .unwrap();
        let (dim, out) = (base.dim(), base.output_dim());
        assert_eq!((dim, out), (4, 3));
        for lanes in [2usize, 32] {
            let pipe = base.expand_lanes(lanes);
            // Lane `l`'s first `len` positions of an interleaved vector.
            let lane = |v: &[f64], l: usize, len: usize| -> Vec<f64> {
                (0..len).map(|p| v[p * lanes + l]).collect()
            };
            let x: Vec<f64> = (0..pipe.dim())
                .map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.5)
                .collect();
            let changed = lanes / 2;
            let mut y = x.clone();
            for v in y.iter_mut().skip(changed).step_by(lanes) {
                *v = 0.25 - *v;
            }
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let (plain_x, plain_y) = (pipe.eval_plain(&x), pipe.eval_plain(&y));
            let decrypted = |input: &[f64], rng: &mut Rng64| {
                let bs = Bootstrapper::new(ev.clone(), pipe.dim(), 5);
                let ct = ev.encrypt_replicated(input, rng);
                let (out_ct, _) = pipe.try_eval_encrypted(&pe, Some(&bs), &ct).unwrap();
                ev.decrypt_values(&out_ct, pipe.dim())
            };
            let (enc_x, enc_y) = (decrypted(&x, &mut rng), decrypted(&y, &mut rng));
            for l in 0..lanes {
                let alone = base.eval_plain(&lane(&x, l, dim));
                assert_eq!(
                    bits(&lane(&plain_x, l, out)),
                    bits(&alone),
                    "lanes {lanes}: lane {l} alone"
                );
                if l == changed {
                    assert_ne!(bits(&lane(&plain_y, l, out)), bits(&alone));
                    assert_eq!(
                        bits(&lane(&plain_y, l, out)),
                        bits(&base.eval_plain(&lane(&y, l, dim)))
                    );
                    continue;
                }
                assert_eq!(
                    bits(&lane(&plain_y, l, out)),
                    bits(&alone),
                    "lanes {lanes}: lane {l} saw lane {changed} change"
                );
                for k in (0..out).map(|p| p * lanes + l) {
                    assert!(
                        (enc_x[k] - plain_x[k]).abs() < 5e-2,
                        "lanes {lanes} slot {k}"
                    );
                    assert!(
                        (enc_x[k] - enc_y[k]).abs() < 1e-2,
                        "lanes {lanes} slot {k}: {} became {}",
                        enc_x[k],
                        enc_y[k]
                    );
                }
            }
        }
    }

    #[test]
    fn pool_filler_stays_in_the_range_of_its_input() {
        // After the fold every slot — window anchors, slots whose
        // window wraps around the vector, padding — holds a PAF-max of
        // inputs: a convex combination of its operands wherever the
        // sign approximation stays within ±1, and past them by at most
        // `|d|/2 · (|p(d)| − 1)` per shift where it overshoots.
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[2, 4, 3])
            .paf_maxpool(3, 1, &paf, 1.0)
            .try_compile()
            .unwrap();
        let Stage::PafMax { shifts, paf, .. } = &pipe.stages()[0] else {
            panic!("an unscaled pool opens with its fold");
        };
        assert_eq!(shifts, &[1, 1, 3, 3]);
        let rotate = |&step| DiagMatrix::rotation(pipe.dim(), step);
        let shifts: Vec<DiagMatrix> = shifts.iter().map(rotate).collect();
        let overshoot = (0..=2000)
            .map(|i| {
                let d = i as f64 / 1000.0 - 1.0;
                d.abs() / 2.0 * (paf.eval(d).abs() - 1.0)
            })
            .fold(0.0, f64::max);
        let slack = 1.01 * shifts.len() as f64 * overshoot + 1e-12;
        let x: Vec<f64> = (0..24)
            .map(|i| ((i * 11) % 17) as f64 / 20.0 - 0.4)
            .collect();
        let mut v = pipe.try_pad_input(&x).unwrap();
        assert_eq!(v.len(), 32);
        let (lo, hi) = (-0.4, 0.4);
        let engine = paf.prepare();
        let op = PafOp {
            paf,
            engine: &engine,
        };
        PlainBackend
            .paf_max(&mut v, &shifts, &op, 1.0, "pool")
            .expect("the plain backend has no failure modes");
        for (p, value) in v.iter().enumerate() {
            assert!(
                (lo - slack..=hi + slack).contains(value),
                "slot {p} holds {value}, outside [{lo}, {hi}] ± {slack}"
            );
        }
    }

    #[test]
    fn stage_trace_round_trips_and_requires_every_field() {
        let st = StageTrace {
            label: "fc".to_string(),
            slot: None,
            op_levels: vec![9],
            levels: 1,
            bootstraps: 0,
            ct_mults: 0,
            relins: 0,
            rotations: 7,
            decompositions: 4,
            modmuls: 1 << 40,
        };
        assert_eq!(st.level_in(), 9);
        let wire = st.serialize();
        assert_eq!(StageTrace::deserialize(&wire).unwrap(), st);
        // No field has a default (format v1 let three be absent): a
        // record missing any one of them is a parse error.
        let Value::Object(fields) = &wire else {
            panic!("a stage record serializes to an object");
        };
        assert_eq!(fields.len(), 10);
        for missing in 0..fields.len() {
            let mut partial = fields.clone();
            let (name, _) = partial.remove(missing);
            assert!(
                StageTrace::deserialize(&Value::Object(partial)).is_err(),
                "a record without `{name}` must not parse"
            );
        }
        // A stage has an op to be entered at.
        let mut opless = fields.clone();
        for (name, value) in &mut opless {
            if name == "op_levels" {
                *value = Vec::<usize>::new().serialize();
            }
        }
        assert!(StageTrace::deserialize(&Value::Object(opless)).is_err());
    }

    #[test]
    fn ckks_backend_runs_lane_expanded_pipelines_unchanged() {
        // A lane-expanded pipeline is an ordinary pipeline to this
        // backend: each lane of the packed encrypted eval must match
        // the base pipeline's plain eval of that lane's input.
        let (pe, mut rng) = setup(107);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, 8, &mut rng))
            .paf_relu(&paf, 4.0)
            .try_compile()
            .unwrap()
            .fold_scales();
        let lanes = 2;
        let wide = pipe.expand_lanes(lanes);
        let xs: Vec<Vec<f64>> = (0..lanes)
            .map(|l| (0..8).map(|j| ((l * 3 + j) as f64 - 4.0) / 4.0).collect())
            .collect();
        // Interleaved: lane `l`'s position `p` at slot `p·lanes + l`.
        let padded: Vec<Vec<f64>> = xs.iter().map(|x| pipe.try_pad_input(x).unwrap()).collect();
        let flat: Vec<f64> = (0..wide.dim())
            .map(|s| padded[s % lanes][s / lanes])
            .collect();
        let ct = pe.evaluator().encrypt_replicated(&flat, &mut rng);
        let (out_ct, _) = wide.try_eval_encrypted(&pe, None, &ct).unwrap();
        let got = pe.evaluator().decrypt_values(&out_ct, wide.dim());
        for (l, x) in xs.iter().enumerate() {
            for (p, w) in pipe.eval_plain(x).iter().enumerate() {
                let g = got[p * lanes + l];
                assert!((g - w).abs() < 6e-2, "lane {l} position {p}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn ckks_backend_reports_slot_mismatch() {
        let (pe, mut rng) = setup(105);
        // dim 8 pipeline but a 3-wide builder forced to dim 4? Build a
        // pipeline whose padded dim does not divide the toy slot count
        // (toy slots = 128): dim 48 is impossible (power of two), so
        // exercise the check by shrinking slots instead: use dim larger
        // than slots.
        let pipe = PipelineBuilder::new(&[300])
            .affine(Linear::new(300, 4, &mut rng))
            .try_compile()
            .unwrap();
        assert!(pipe.dim() > pe.evaluator().context().slots());
        let ct = pe.evaluator().encrypt_values(&[0.0; 4], &mut rng);
        let err = pipe
            .try_eval_encrypted(&pe, None, &ct)
            .expect_err("dim cannot divide slots");
        assert!(matches!(err, RunError::SlotMismatch { .. }));
    }
}
