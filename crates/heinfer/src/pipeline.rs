//! Pipeline construction: probing affine layer runs into diagonal
//! matrices and compiling an alternating affine/PAF stage list.

use crate::exec::RunError;
use crate::maxpool::{pool_out_shape, pool_shifts, selection_rows};
use smartpaf_ckks::DiagMatrix;
use smartpaf_nn::{Layer, Mode};
use smartpaf_polyfit::{CompositeEval, CompositePaf, PafForm};
use smartpaf_tensor::Tensor;
use std::iter::repeat_n;
use std::sync::Arc;

/// One compiled stage of an encrypted inference pipeline.
#[derive(Clone)]
pub enum Stage {
    /// An affine map `x ↦ Mx + b` (conv / BN / pooling / linear runs,
    /// linearised by probing, and the anchor selection of a max pool).
    /// Costs one level.
    Affine {
        /// The padded diagonal matrix.
        mat: DiagMatrix,
        /// Bias, padded to the pipeline dimension.
        bias: Vec<f64>,
    },
    /// A PAF-ReLU, `y = paf_relu(x)`. Carries no scale: its Static
    /// Scale's `1/s` and `s` sit in the affine stages around it (see
    /// [`PipelineBuilder::try_compile`]).
    PafRelu {
        /// The composite sign approximation.
        paf: CompositePaf,
        /// The composite's prepared plaintext engine, shared by every
        /// stage of the pipeline that installs an equal composite.
        engine: Arc<CompositeEval>,
    },
    /// The fold of a PAF max pool (see the `maxpool` module docs): for
    /// each shift `T` in order, `v ← paf_max(v, T·v)` — the nested
    /// PAF-max of §5.4.3 on one ciphertext. Carries no scale: the
    /// pool's `1/s` sits in the affine stage before it and its `s` in
    /// the anchor selection, an [`Stage::Affine`], after it.
    PafMax {
        /// Window size `k`.
        k: usize,
        /// The fold's shifts: steps of cyclic left rotations of the
        /// slot vector, times the lane count in a lane expansion.
        shifts: Vec<usize>,
        /// The composite sign approximation.
        paf: CompositePaf,
        /// The composite's prepared plaintext engine (see
        /// [`Stage::PafRelu`]).
        engine: Arc<CompositeEval>,
    },
}

impl Stage {
    /// Multiplicative levels this stage consumes: the sum over its
    /// atomic ops (see [`crate::LevelSchedule`]).
    pub fn levels(&self) -> usize {
        let (ops, need) = self.atomic_shape();
        ops * need
    }

    /// Short label for logs.
    pub fn label(&self) -> String {
        match self {
            Stage::Affine { mat, .. } => {
                format!(
                    "affine[{}x{} diag={}]",
                    mat.out_dim(),
                    mat.in_dim(),
                    mat.num_diagonals()
                )
            }
            Stage::PafRelu { paf, .. } => format!("paf-relu[depth={}]", paf.mult_depth()),
            Stage::PafMax { k, shifts, paf, .. } => format!(
                "paf-max[k={k} shifts={} depth={}]",
                shifts.len(),
                paf.mult_depth()
            ),
        }
    }
}

/// A stage before the pipeline dimension is known: affine maps stay
/// dense rows (they still compose and take scales), PAF stages are
/// final.
enum RawStage {
    Affine { rows: Vec<Vec<f64>>, bias: Vec<f64> },
    Paf(Stage),
}

impl RawStage {
    fn paf(&self) -> Option<&Stage> {
        match self {
            RawStage::Paf(stage) => Some(stage),
            RawStage::Affine { .. } => None,
        }
    }
}

/// Appends the affine map `(rows, bias)`, composing it with an affine
/// stage it directly follows: `x ↦ B(Ax + a) + b` is one stage and one
/// level, not two. Its rows, not its bias, take the Static Scale
/// `owed` to the PAF stage before it, which leaves nothing owed.
fn push_affine(raw: &mut Vec<RawStage>, mut rows: Vec<Vec<f64>>, bias: Vec<f64>, owed: &mut f64) {
    if *owed != 1.0 {
        let s = std::mem::replace(owed, 1.0);
        rows.iter_mut().flatten().for_each(|v| *v *= s);
    }
    let Some(RawStage::Affine {
        rows: first,
        bias: first_bias,
    }) = raw.last_mut()
    else {
        raw.push(RawStage::Affine { rows, bias });
        return;
    };
    // Row o of B·A is Σ_j B[o][j]·A[j]; both factors are sparse where
    // it matters (a pool's selection has one entry per row).
    let sparse: Vec<Vec<(usize, f64)>> = first
        .iter()
        .map(|row| {
            let nonzero = row.iter().copied().enumerate().filter(|&(_, v)| v != 0.0);
            nonzero.collect()
        })
        .collect();
    let in_dim = first[0].len();
    let mut composed = vec![vec![0.0f64; in_dim]; rows.len()];
    let mut composed_bias = bias;
    for ((out, out_bias), row) in composed.iter_mut().zip(&mut composed_bias).zip(&rows) {
        for (j, &b) in row.iter().enumerate().filter(|&(_, &b)| b != 0.0) {
            for &(i, a) in &sparse[j] {
                out[i] += b * a;
            }
            *out_bias += b * first_bias[j];
        }
    }
    *first = composed;
    *first_bias = composed_bias;
}

/// Makes the stage after `raw` run on `factor · x`: the affine stage
/// `raw` ends with takes `factor` in its rows and bias, and where a PAF
/// stage or nothing comes before, a scaled identity on `dim` slots
/// carries it. A factor of exactly 1.0 adds nothing.
fn carry_factor(raw: &mut Vec<RawStage>, factor: f64, dim: usize) {
    if factor == 1.0 {
        return;
    }
    if let Some(RawStage::Affine { rows, bias }) = raw.last_mut() {
        let entries = rows.iter_mut().flatten().chain(bias.iter_mut());
        entries.for_each(|v| *v *= factor);
        return;
    }
    let mut rows = vec![vec![0.0; dim]; dim];
    for (i, row) in rows.iter_mut().enumerate() {
        row[i] = factor;
    }
    let bias = vec![0.0; dim];
    raw.push(RawStage::Affine { rows, bias });
}

enum Spec {
    Affine(Box<dyn Layer>),
    Relu {
        paf: CompositePaf,
        scale: f64,
    },
    Max {
        k: usize,
        stride: usize,
        paf: CompositePaf,
        scale: f64,
    },
}

/// Builds an encrypted inference pipeline from `smartpaf-nn` layers and
/// PAF activation specs.
///
/// Layers passed to [`PipelineBuilder::affine`] must be affine in eval
/// mode (convolution, batch norm, linear, average pooling, flatten —
/// anything without data-dependent branching). Consecutive affine
/// layers are fused into one matrix by exact probing.
pub struct PipelineBuilder {
    input_shape: Vec<usize>,
    specs: Vec<Spec>,
}

impl PipelineBuilder {
    /// Starts a pipeline for inputs of the given (batch-free) shape,
    /// e.g. `[3, 8, 8]` for a CHW image or `[16]` for a flat vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty or zero-sized shape.
    pub fn new(input_shape: &[usize]) -> Self {
        assert!(
            !input_shape.is_empty() && input_shape.iter().all(|&d| d > 0),
            "invalid input shape {input_shape:?}"
        );
        PipelineBuilder {
            input_shape: input_shape.to_vec(),
            specs: Vec::new(),
        }
    }

    /// Appends an affine layer (builder style).
    pub fn affine(mut self, layer: impl Layer + 'static) -> Self {
        self.specs.push(Spec::Affine(Box::new(layer)));
        self
    }

    /// Appends an already-boxed affine layer — the dynamic twin of
    /// [`PipelineBuilder::affine`], for builders that assemble stage
    /// lists at run time (the smartpaf Session API).
    pub fn affine_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.specs.push(Spec::Affine(layer));
        self
    }

    /// Appends a PAF-ReLU with static scale `s` (inputs are divided by
    /// `s` before the PAF and multiplied back after — paper §4.5).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn paf_relu(mut self, paf: &CompositePaf, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.specs.push(Spec::Relu {
            paf: paf.clone(),
            scale,
        });
        self
    }

    /// Appends a PAF max pool (`k×k`, stride `stride`) with static
    /// scale `s`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn paf_maxpool(mut self, k: usize, stride: usize, paf: &CompositePaf, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.specs.push(Spec::Max {
            k,
            stride,
            paf: paf.clone(),
            scale,
        });
        self
    }

    /// Probes and compiles the pipeline, reporting structural problems
    /// (empty builder, untileable pool window, non-CHW pool input) as
    /// typed [`RunError`]s.
    ///
    /// A max pool lowers to its fold ([`Stage::PafMax`]) followed by
    /// the anchor selection as an affine map, and adjacent affine maps
    /// compose: conv → ReLU → pool → linear is four stages, the linear
    /// absorbing the selection at no level, while a pool that ends the
    /// pipeline or feeds a PAF stage keeps its selection stage.
    ///
    /// Every Static Scale is placed by one rule, the same for a ReLU
    /// and a pool: a PAF stage of scale `s` runs on `x/s`, and the
    /// stage after it is owed the `s`. An affine stage takes what it is
    /// owed in its rows (not its bias); a PAF stage of scale `t` needs
    /// `owed / t` — exactly 1.0 for equal scales, which adds nothing —
    /// in the rows and bias of the affine stage before it. Where no
    /// affine stage is there to take a factor (a PAF stage first, last,
    /// or after another PAF stage of a different scale) a
    /// scaled-identity affine stage carries it.
    pub fn try_compile(self) -> Result<HePipeline, RunError> {
        if self.specs.is_empty() {
            return Err(RunError::EmptyPipeline);
        }
        let input_dim: usize = self.input_shape.iter().product();
        let mut shape = self.input_shape.clone();
        let mut raw: Vec<RawStage> = Vec::new();
        let mut pending: Vec<Box<dyn Layer>> = Vec::new();
        let mut owed = 1.0;

        let flush = |pending: &mut Vec<Box<dyn Layer>>,
                     shape: &mut Vec<usize>,
                     raw: &mut Vec<RawStage>,
                     owed: &mut f64| {
            if pending.is_empty() {
                return;
            }
            let (rows, bias, out_shape) = probe_affine(pending, shape);
            *shape = out_shape;
            push_affine(raw, rows, bias, owed);
            pending.clear();
        };

        for spec in self.specs {
            match spec {
                Spec::Affine(layer) => pending.push(layer),
                Spec::Relu { paf, scale } => {
                    flush(&mut pending, &mut shape, &mut raw, &mut owed);
                    carry_factor(&mut raw, owed / scale, shape.iter().product());
                    owed = scale;
                    let engine = shared_engine(raw.iter().filter_map(RawStage::paf), &paf);
                    raw.push(RawStage::Paf(Stage::PafRelu { paf, engine }));
                }
                Spec::Max {
                    k,
                    stride,
                    paf,
                    scale,
                } => {
                    flush(&mut pending, &mut shape, &mut raw, &mut owed);
                    if shape.len() != 3 {
                        return Err(RunError::NotChw { dims: shape });
                    }
                    let (h, w) = (shape[1], shape[2]);
                    // Degenerate specs (k == 0, stride == 0) are the
                    // same typed error as an untileable window.
                    let Some(out_shape) = pool_out_shape(&shape, k, stride) else {
                        return Err(RunError::PoolUntileable { h, w, k, stride });
                    };
                    // A 1×1 window has nothing to fold (and so nothing
                    // to scale): the pool is its selection alone.
                    if k > 1 {
                        carry_factor(&mut raw, owed / scale, shape.iter().product());
                        owed = scale;
                        let shifts = pool_shifts(k, w);
                        let engine = shared_engine(raw.iter().filter_map(RawStage::paf), &paf);
                        raw.push(RawStage::Paf(Stage::PafMax {
                            k,
                            shifts,
                            paf,
                            engine,
                        }));
                    }
                    let rows = selection_rows(&shape, k, stride);
                    shape = out_shape;
                    let bias = vec![0.0; rows.len()];
                    push_affine(&mut raw, rows, bias, &mut owed);
                }
            }
        }
        flush(&mut pending, &mut shape, &mut raw, &mut owed);
        let output_dim: usize = shape.iter().product();
        carry_factor(&mut raw, owed, output_dim);

        // Global padded dimension: every stage shares one slot layout
        // (a pool's input is its selection's, so the affines cover it).
        let mut dim = input_dim.max(output_dim);
        for r in &raw {
            if let RawStage::Affine { rows, .. } = r {
                dim = dim.max(rows.len()).max(rows[0].len());
            }
        }
        let dim = dim.next_power_of_two();

        let stages: Vec<Stage> = raw
            .into_iter()
            .map(|r| match r {
                RawStage::Affine { rows, bias } => {
                    let mat = DiagMatrix::from_rows_with_dim(&rows, dim);
                    let mut b = bias;
                    b.resize(dim, 0.0);
                    Stage::Affine { mat, bias: b }
                }
                RawStage::Paf(stage) => stage,
            })
            .collect();

        Ok(HePipeline {
            stages,
            dim,
            input_dim,
            output_dim,
        })
    }
}

/// The prepared engine for `paf`: the one a stage of `known` holds for
/// an equal composite, else a fresh [`CompositePaf::prepare`]. Both
/// install paths ([`PipelineBuilder::try_compile`] and
/// [`HePipeline::try_with_pafs`]) take their engines here, so slots
/// with equal composites share one `Arc` and a form is packed once per
/// pipeline, not once per slot.
fn shared_engine<'a>(
    known: impl IntoIterator<Item = &'a Stage>,
    paf: &CompositePaf,
) -> Arc<CompositeEval> {
    known
        .into_iter()
        .find_map(|s| match s {
            Stage::PafRelu { paf: p, engine, .. } | Stage::PafMax { paf: p, engine, .. }
                if p == paf =>
            {
                Some(Arc::clone(engine))
            }
            _ => None,
        })
        .unwrap_or_else(|| Arc::new(paf.prepare()))
}

/// Linearises a run of affine layers by an exact batched probe:
/// row 0 of the batch is the zero input (giving the bias), row `i+1`
/// is the `i`-th unit vector (giving column `i`).
fn probe_affine(
    layers: &mut [Box<dyn Layer>],
    in_shape: &[usize],
) -> (Vec<Vec<f64>>, Vec<f64>, Vec<usize>) {
    let d_in: usize = in_shape.iter().product();
    let mut batch_dims = vec![d_in + 1];
    batch_dims.extend_from_slice(in_shape);
    let mut x = Tensor::zeros(&batch_dims);
    for i in 0..d_in {
        x.data_mut()[(i + 1) * d_in + i] = 1.0;
    }
    let mut acc = x;
    for layer in layers.iter_mut() {
        acc = layer.forward(&acc, Mode::Eval);
    }
    let out_shape = acc.dims()[1..].to_vec();
    let d_out: usize = out_shape.iter().product();
    let data = acc.data();
    let bias: Vec<f64> = data[..d_out].iter().map(|&v| v as f64).collect();
    let mut rows = vec![vec![0.0f64; d_in]; d_out];
    for i in 0..d_in {
        let base = (i + 1) * d_out;
        for (o, row) in rows.iter_mut().enumerate() {
            row[i] = data[base + o] as f64 - bias[o];
        }
    }
    (rows, bias, out_shape)
}

/// A compiled encrypted inference pipeline (see the crate docs).
pub struct HePipeline {
    pub(crate) stages: Vec<Stage>,
    pub(crate) dim: usize,
    input_dim: usize,
    output_dim: usize,
}

impl HePipeline {
    /// The shared padded slot dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Logical input length.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Logical output length.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The compiled stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Total multiplicative levels one inference consumes without
    /// bootstrapping.
    pub fn total_levels(&self) -> usize {
        self.stages.iter().map(Stage::levels).sum()
    }

    /// Zero-pads a logical input to the pipeline dimension, reporting
    /// an over-long input as a typed [`RunError`].
    pub fn try_pad_input(&self, x: &[f64]) -> Result<Vec<f64>, RunError> {
        if x.len() > self.input_dim {
            return Err(RunError::InputTooLong {
                len: x.len(),
                max: self.input_dim,
            });
        }
        let mut v = x.to_vec();
        v.resize(self.dim, 0.0);
        Ok(v)
    }

    /// Exact plaintext reference of the compiled pipeline (same
    /// arithmetic as the encrypted path, PAF approximation included) —
    /// a thin wrapper over the shared interpreter with
    /// [`PlainBackend`](crate::PlainBackend).
    ///
    /// # Panics
    ///
    /// Panics if `x` is longer than the input dimension.
    pub fn eval_plain(&self, x: &[f64]) -> Vec<f64> {
        let padded = self.try_pad_input(x).unwrap_or_else(|e| panic!("{e}"));
        let (mut out, _) = self
            .run(&mut crate::backends::PlainBackend, padded)
            .expect("the plain backend has no failure modes");
        out.truncate(self.output_dim);
        out
    }

    /// Number of PAF stages (ReLU + MaxPool) in the compiled pipeline.
    pub fn num_paf_stages(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| !matches!(s, Stage::Affine { .. }))
            .count()
    }

    /// The composite installed in each PAF slot, in stage order — the
    /// per-slot twin of walking [`HePipeline::stages`] by hand. Forms
    /// are `None` for hand-built composites without a
    /// [`PafForm`] tag.
    pub fn paf_forms(&self) -> Vec<Option<PafForm>> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Affine { .. } => None,
                Stage::PafRelu { paf, .. } | Stage::PafMax { paf, .. } => Some(paf.form()),
            })
            .collect()
    }

    /// Rebuilds this pipeline with the `i`-th PAF stage's composite
    /// replaced by `pafs[i]` (stage order), keeping the probed affine
    /// matrices (Static Scales included), shifts, and slot layout
    /// untouched. A length mismatch between `pafs` and the pipeline's
    /// PAF slot count is a typed [`RunError::FormCountMismatch`].
    ///
    /// Probing affine runs is the expensive part of
    /// [`PipelineBuilder::try_compile`]; this hook lets a planner probe
    /// once and then search *form vectors* in microseconds — the
    /// paper's per-layer replacement tables assign a different form to
    /// every ReLU/maxpool slot.
    ///
    /// Each new stage owns a prepared engine for its composite: the one
    /// this pipeline (or an earlier slot of the new one) already holds
    /// for an equal composite, else a fresh preparation. Slots that pick
    /// the same composite share one engine, and swapping from a
    /// pipeline that holds a form never prepares that form again.
    pub fn try_with_pafs(&self, pafs: &[CompositePaf]) -> Result<HePipeline, RunError> {
        let expected = self.num_paf_stages();
        if pafs.len() != expected {
            return Err(RunError::FormCountMismatch {
                expected,
                got: pafs.len(),
            });
        }
        let mut next = pafs.iter();
        let mut stages: Vec<Stage> = Vec::with_capacity(self.stages.len());
        for s in &self.stages {
            let mut stage = s.clone();
            if let Stage::PafRelu { paf, engine, .. } | Stage::PafMax { paf, engine, .. } =
                &mut stage
            {
                let installed = next.next().expect("one composite per PAF slot");
                *engine = shared_engine(self.stages.iter().chain(&stages), installed);
                *paf = installed.clone();
            }
            stages.push(stage);
        }
        Ok(HePipeline {
            stages,
            dim: self.dim,
            input_dim: self.input_dim,
            output_dim: self.output_dim,
        })
    }

    /// How many independent inputs one ciphertext of `slots` slots can
    /// carry for this pipeline — the slot-packing capacity
    /// `K = slots / dim` (0 when the padded dimension does not divide
    /// the slot count). Both operands are powers of two, so a nonzero
    /// capacity is always a power of two and [`HePipeline::expand_lanes`]
    /// accepts any power-of-two lane count up to it.
    pub fn lane_capacity(&self, slots: usize) -> usize {
        if slots.is_multiple_of(self.dim) {
            slots / self.dim
        } else {
            0
        }
    }

    /// Rebuilds this pipeline at `lanes` interleaved slot lanes (lane
    /// `l`'s position `p` at slot `p·lanes + l`): every affine matrix
    /// is interleaved ([`DiagMatrix::interleave`]), each bias entry is
    /// repeated `lanes` times, and a pool's shifts are multiplied by
    /// `lanes`, so every rotation moves each lane within itself by the
    /// base pipeline's step. PAF stages share their prepared engines
    /// with the source pipeline.
    ///
    /// The expanded pipeline is an ordinary [`HePipeline`] at padded
    /// dimension `lanes · dim` whose plain evaluation applies the base
    /// pipeline independently (and bit-identically) to each lane of an
    /// interleaved input, and whose atomic ops do the base pipeline's
    /// work: the same levels, key switches and plaintext diagonals, so
    /// it cuts and keys alike at every lane count. Its logical
    /// input/output dimensions are the full `lanes · dim` flat vector;
    /// per-lane padding and demultiplexing are the packing layer's job
    /// (see the `pack` module).
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two.
    pub fn expand_lanes(&self, lanes: usize) -> HePipeline {
        assert!(lanes.is_power_of_two(), "lanes must be a power of two");
        if lanes == 1 {
            return HePipeline {
                stages: self.stages.clone(),
                dim: self.dim,
                input_dim: self.input_dim,
                output_dim: self.output_dim,
            };
        }
        let dim = self.dim * lanes;
        let stages: Vec<Stage> = self
            .stages
            .iter()
            .map(|s| match s {
                Stage::Affine { mat, bias } => Stage::Affine {
                    mat: mat.interleave(lanes),
                    bias: bias.iter().flat_map(|&b| repeat_n(b, lanes)).collect(),
                },
                Stage::PafMax {
                    k,
                    shifts,
                    paf,
                    engine,
                } => Stage::PafMax {
                    k: *k,
                    shifts: shifts.iter().map(|t| t * lanes).collect(),
                    paf: paf.clone(),
                    engine: Arc::clone(engine),
                },
                Stage::PafRelu { .. } => s.clone(),
            })
            .collect();
        HePipeline {
            stages,
            dim,
            input_dim: dim,
            output_dim: dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxpool::exact_pool;
    use smartpaf_ckks::PafEvaluator;
    use smartpaf_nn::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear};
    use smartpaf_polyfit::PafForm;
    use smartpaf_tensor::Rng64;

    fn relu_paf() -> CompositePaf {
        CompositePaf::from_form(PafForm::F1G2)
    }

    /// The stage kinds of a pipeline, one letter each: `A`ffine,
    /// PAF-`R`eLU, PAF-`M`ax.
    fn kinds(pipe: &HePipeline) -> String {
        let kind = |s: &Stage| match s {
            Stage::Affine { .. } => 'A',
            Stage::PafRelu { .. } => 'R',
            Stage::PafMax { .. } => 'M',
        };
        pipe.stages().iter().map(kind).collect()
    }

    /// The engines of a pipeline's PAF stages, in stage order.
    fn stage_engines(pipe: &HePipeline) -> Vec<&Arc<CompositeEval>> {
        let engines = pipe.stages().iter().filter_map(|s| match s {
            Stage::PafRelu { engine, .. } | Stage::PafMax { engine, .. } => Some(engine),
            Stage::Affine { .. } => None,
        });
        engines.collect()
    }

    #[test]
    fn probe_linear_layer_matches_weights() {
        let mut rng = Rng64::new(3);
        let lin = Linear::new(4, 3, &mut rng);
        let pipe = PipelineBuilder::new(&[4])
            .affine(lin)
            .try_compile()
            .unwrap();
        assert_eq!(pipe.input_dim(), 4);
        assert_eq!(pipe.output_dim(), 3);
        assert_eq!(pipe.dim(), 4);
        // Linearity check: f(2x) - f(0) = 2(f(x) - f(0)).
        let x = [0.5, -1.0, 0.25, 2.0];
        let x2: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let f0 = pipe.eval_plain(&[0.0; 4]);
        let fx = pipe.eval_plain(&x);
        let f2x = pipe.eval_plain(&x2);
        for o in 0..3 {
            let lhs = f2x[o] - f0[o];
            let rhs = 2.0 * (fx[o] - f0[o]);
            assert!((lhs - rhs).abs() < 1e-4, "output {o}");
        }
    }

    #[test]
    fn probed_conv_matches_direct_forward() {
        let mut rng = Rng64::new(5);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let want = conv.forward(&x, Mode::Eval);
        let pipe = PipelineBuilder::new(&[2, 4, 4])
            .affine(conv)
            .try_compile()
            .unwrap();
        let flat: Vec<f64> = x.data().iter().map(|&v| v as f64).collect();
        let got = pipe.eval_plain(&flat);
        assert_eq!(got.len(), 3 * 4 * 4);
        for (g, w) in got.iter().zip(want.data()) {
            assert!((g - *w as f64).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn consecutive_affine_layers_fuse_into_one_stage() {
        let mut rng = Rng64::new(7);
        let pipe = PipelineBuilder::new(&[2, 4, 4])
            .affine(Conv2d::new(2, 2, 3, 1, 1, &mut rng))
            .affine(BatchNorm2d::new(2))
            .affine(AvgPool2d::new(2, 2))
            .affine(Flatten::new())
            .affine(Linear::new(8, 4, &mut rng))
            .try_compile()
            .unwrap();
        assert_eq!(pipe.stages().len(), 1);
        assert_eq!(pipe.output_dim(), 4);
    }

    #[test]
    fn full_pipeline_matches_layerwise_reference() {
        let mut rng = Rng64::new(11);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let mut lin = Linear::new(8, 3, &mut rng);
        let paf = relu_paf();
        let scale = 4.0;

        let x = Tensor::rand_normal(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        // Reference: conv -> PAF relu -> avgpool -> flatten -> linear.
        let h = conv.forward(&x, Mode::Eval);
        let h = h.map(|v| (scale * paf.relu(v as f64 / scale)) as f32);
        let mut pool = AvgPool2d::new(2, 2);
        let h = pool.forward(&h, Mode::Eval);
        let mut flat = Flatten::new();
        let h = flat.forward(&h, Mode::Eval);
        let want = lin.forward(&h, Mode::Eval);

        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .affine(conv)
            .paf_relu(&paf, scale)
            .affine(pool)
            .affine(flat)
            .affine(lin)
            .try_compile()
            .unwrap();
        let flat_x: Vec<f64> = x.data().iter().map(|&v| v as f64).collect();
        let got = pipe.eval_plain(&flat_x);
        for (g, w) in got.iter().zip(want.data()) {
            assert!((g - *w as f64).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn maxpool_stage_approximates_true_max() {
        let mut rng = Rng64::new(13);
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .affine(conv)
            .paf_maxpool(2, 2, &paf, 8.0)
            .try_compile()
            .unwrap();
        let x: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let got = pipe.eval_plain(&x);
        assert_eq!(got.len(), 4);
        // Compare against exact max pooling of the conv output.
        let probe = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut Rng64::new(13)))
            .try_compile()
            .unwrap();
        let conv_out = probe.eval_plain(&x);
        for oy in 0..2 {
            for ox in 0..2 {
                let mut m = f64::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        m = m.max(conv_out[(oy * 2 + dy) * 4 + ox * 2 + dx]);
                    }
                }
                let g = got[oy * 2 + ox];
                assert!((g - m).abs() < 0.25, "window ({oy},{ox}): {g} vs {m}");
            }
        }
    }

    #[test]
    fn a_pool_scale_is_pushed_into_the_stage_before_it() {
        let mut rng = Rng64::new(15);
        let paf = relu_paf();
        // Equal scales cancel exactly — also where `s · (1/s)` would
        // not — and leave no scale stage; the linear head absorbs the
        // selection: four stages, no more.
        for s in [4.0, 49.0] {
            let pipe = PipelineBuilder::new(&[1, 4, 4])
                .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
                .paf_relu(&paf, s)
                .paf_maxpool(2, 2, &paf, s)
                .affine(Flatten::new())
                .affine(Linear::new(4, 3, &mut rng))
                .try_compile()
                .unwrap();
            assert_eq!(kinds(&pipe), "ARMA", "s = {s}");
        }
        assert_ne!(49.0 * (1.0 / 49.0), 1.0);
        // Unequal scales leave the quotient, in a scaled identity: one
        // carries the ReLU's `1/6`, one the `6/8` between the two PAF
        // stages. A pool that ends the pipeline keeps its selection
        // stage, with the pool's `s` in it.
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .paf_relu(&paf, 6.0)
            .paf_maxpool(2, 2, &paf, 8.0)
            .try_compile()
            .unwrap();
        let labels: Vec<String> = pipe.stages().iter().map(Stage::label).collect();
        assert_eq!(
            labels,
            [
                "affine[16x16 diag=1]",
                "paf-relu[depth=5]",
                "affine[16x16 diag=1]",
                "paf-max[k=2 shifts=2 depth=5]",
                "affine[4x16 diag=4]"
            ]
        );
        for (stage, entry) in [(0, 1.0 / 6.0), (2, 0.75), (4, 8.0)] {
            let Stage::Affine { mat, .. } = &pipe.stages()[stage] else {
                panic!("stage {stage} is affine");
            };
            assert!(mat
                .diagonals()
                .all(|(_, d)| d.iter().all(|&v| v == 0.0 || v == entry)));
        }
    }

    #[test]
    fn pools_first_and_back_to_back_match_the_exact_pool() {
        // A pool that opens the pipeline gets a scaled identity to
        // carry its `1/s` (none when `s = 1`); a pool after a pool
        // pushes it into the first one's selection.
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let x: Vec<f64> = (0..64)
            .map(|i| ((i * 29) % 31) as f64 / 5.0 - 3.0)
            .collect();
        let first = PipelineBuilder::new(&[1, 8, 8])
            .paf_maxpool(2, 2, &paf, 8.0)
            .try_compile()
            .unwrap();
        assert_eq!(first.stages().len(), 3);
        let unscaled = PipelineBuilder::new(&[1, 8, 8])
            .paf_maxpool(2, 2, &paf, 1.0)
            .try_compile()
            .unwrap();
        assert_eq!(unscaled.stages().len(), 2);
        let twice = PipelineBuilder::new(&[1, 8, 8])
            .paf_maxpool(2, 2, &paf, 8.0)
            .paf_maxpool(3, 1, &paf, 6.0)
            .try_compile()
            .unwrap();
        assert_eq!(twice.stages().len(), 5);
        assert_eq!(twice.output_dim(), 4);
        let once = exact_pool(&x, &[1, 8, 8], 2, 2);
        let close = |got: &[f64], want: &[f64]| {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 0.25, "{g} vs {w}");
            }
        };
        close(&first.eval_plain(&x), &once);
        close(&twice.eval_plain(&x), &exact_pool(&once, &[1, 4, 4], 3, 1));
    }

    #[test]
    fn total_levels_accounts_for_scales() {
        let mut rng = Rng64::new(17);
        let paf = relu_paf();
        let pipe = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .paf_relu(&paf, 2.0)
            .affine(Linear::new(4, 2, &mut rng))
            .try_compile()
            .unwrap();
        // The affines carry the ReLU's `1/s` and `s`: affine(1) +
        // relu(depth) + affine(1), no level for a scale.
        assert_eq!(pipe.total_levels(), 2 + PafEvaluator::relu_depth(&paf));
    }

    /// One stage spec of [`static_scales_keep_the_specs_semantics`], on
    /// a `(1, side, side)` activation.
    enum Spec {
        /// A 3×3 convolution with this weight seed.
        Conv(u64),
        Relu(f64),
        Pool(f64),
    }

    #[test]
    fn static_scales_keep_the_specs_semantics() {
        // Each pipeline against its stage specs evaluated by hand: a
        // ReLU of scale `s` is `s·paf.relu(x/s)`, a pool folds `x/s`
        // and selects times `s`. Every op needs exactly its own depth
        // (no scale rides on a PAF stage), and equal scales leave no
        // scale stage.
        use Spec::{Conv, Pool, Relu};
        let paf = relu_paf();
        let cases: [(&[Spec], &str); 7] = [
            (&[Relu(3.0), Conv(1)], "ARA"),
            (&[Conv(1), Relu(2.0)], "ARA"),
            (&[Conv(1), Relu(3.0), Relu(5.0), Conv(2)], "ARARA"),
            (&[Conv(1), Relu(6.0), Pool(8.0), Conv(2)], "ARAMA"),
            (&[Conv(1), Relu(4.0), Pool(4.0), Conv(2)], "ARMA"),
            (&[Conv(1), Relu(49.0), Pool(49.0), Conv(2)], "ARMA"),
            (&[Pool(8.0), Conv(1)], "AMA"),
        ];
        let x: Vec<f64> = (0..16)
            .map(|i| ((i * 7) % 11) as f64 / 20.0 - 0.25)
            .collect();
        // A nonzero bias, so a scale misplaced on it shows.
        let conv = |seed| {
            let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut Rng64::new(seed));
            conv.params_mut()[1].value.map_in_place(|_| 0.125);
            conv
        };
        for (specs, want_kinds) in cases {
            let mut builder = PipelineBuilder::new(&[1, 4, 4]);
            let (mut want, mut side) = (x.clone(), 4);
            for spec in specs {
                match *spec {
                    Conv(seed) => {
                        builder = builder.affine(conv(seed));
                        let alone = PipelineBuilder::new(&[1, side, side]).affine(conv(seed));
                        want = alone.try_compile().unwrap().eval_plain(&want);
                    }
                    Relu(s) => {
                        builder = builder.paf_relu(&paf, s);
                        want = want.iter().map(|v| s * paf.relu(v / s)).collect();
                    }
                    Pool(s) => {
                        builder = builder.paf_maxpool(2, 2, &paf, s);
                        let mut v: Vec<f64> = want.iter().map(|v| v / s).collect();
                        for t in pool_shifts(2, side) {
                            let len = v.len();
                            v = (0..len).map(|p| paf.max(v[p], v[(p + t) % len])).collect();
                        }
                        let rows = selection_rows(&[1, side, side], 2, 2);
                        let select =
                            |row: &Vec<f64>| row.iter().zip(&v).map(|(r, v)| r * v).sum::<f64>();
                        want = rows.iter().map(|row| s * select(row)).collect();
                        side /= 2;
                    }
                }
            }
            let pipe = builder.try_compile().unwrap();
            assert_eq!(kinds(&pipe), want_kinds);
            for (g, w) in pipe.eval_plain(&x).iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                    "{want_kinds}: {g} vs {w}"
                );
            }
            for op in pipe.atomic_ops() {
                let depth = match &pipe.stages()[op.stage] {
                    Stage::Affine { .. } => 1,
                    Stage::PafRelu { paf, .. } | Stage::PafMax { paf, .. } => {
                        PafEvaluator::relu_depth(paf)
                    }
                };
                assert_eq!(op.need, depth, "{want_kinds}: stage {}", op.stage);
            }
        }
    }

    #[test]
    fn fold_scales_preserves_semantics_and_saves_levels() {
        // Two ReLUs of different scales between linear layers: every
        // `1/s` and `s` folds into the linear stages, so the pipeline
        // costs its affines and PAFs and nothing for the four scale
        // multiplies, and still computes `s·paf.relu(x/s)` per ReLU.
        let paf = relu_paf();
        let layers = || {
            let mut rng = Rng64::new(19);
            [
                Linear::new(4, 4, &mut rng),
                Linear::new(4, 4, &mut rng),
                Linear::new(4, 2, &mut rng),
            ]
        };
        let [l1, l2, l3] = layers();
        let pipe = PipelineBuilder::new(&[4])
            .affine(l1)
            .paf_relu(&paf, 3.0)
            .affine(l2)
            .paf_relu(&paf, 5.0)
            .affine(l3)
            .try_compile()
            .unwrap();
        assert_eq!(kinds(&pipe), "ARARA");
        assert_eq!(pipe.total_levels(), 3 + 2 * PafEvaluator::relu_depth(&paf));
        let x = vec![0.4, -0.8, 1.2, -0.1];
        let affine = |layer: Linear, v: &[f64]| {
            let alone = PipelineBuilder::new(&[4]).affine(layer);
            alone.try_compile().unwrap().eval_plain(v)
        };
        let relu =
            |s: f64, v: Vec<f64>| -> Vec<f64> { v.iter().map(|v| s * paf.relu(v / s)).collect() };
        let [l1, l2, l3] = layers();
        let want = affine(l3, &relu(5.0, affine(l2, &relu(3.0, affine(l1, &x)))));
        for (g, w) in pipe.eval_plain(&x).iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn pad_input_fills_to_dim() {
        let mut rng = Rng64::new(23);
        let pipe = PipelineBuilder::new(&[3])
            .affine(Linear::new(3, 5, &mut rng))
            .try_compile()
            .unwrap();
        assert_eq!(pipe.dim(), 8);
        let padded = pipe.try_pad_input(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(padded.len(), 8);
        assert_eq!(&padded[..3], &[1.0, 2.0, 3.0]);
        assert!(padded[3..].iter().all(|&v| v == 0.0));
        let err = pipe.try_pad_input(&[0.0; 4]).unwrap_err();
        assert_eq!(err, RunError::InputTooLong { len: 4, max: 3 });
    }

    #[test]
    fn empty_builder_rejected() {
        let err = PipelineBuilder::new(&[4]).try_compile().err();
        assert_eq!(err, Some(RunError::EmptyPipeline));
        assert_eq!(err.unwrap().to_string(), "empty pipeline");
    }

    #[test]
    fn degenerate_pool_specs_are_typed_errors() {
        // stride == 0 and k == 0 would divide by zero in the shape
        // arithmetic; both must surface as PoolUntileable, not panics.
        let paf = relu_paf();
        for (k, stride) in [(2usize, 0usize), (0, 1)] {
            let err = PipelineBuilder::new(&[1, 2, 2])
                .paf_maxpool(k, stride, &paf, 1.0)
                .try_compile()
                .err()
                .expect("degenerate spec rejected");
            assert!(
                matches!(err, crate::RunError::PoolUntileable { .. }),
                "k={k} stride={stride}: {err}"
            );
        }
    }

    #[test]
    fn with_paf_swaps_forms_without_reprobing() {
        let mut rng = Rng64::new(31);
        let scale = 4.0;
        let base = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .paf_relu(&relu_paf(), scale)
            .try_compile()
            .unwrap();
        let rich = CompositePaf::from_form(PafForm::Alpha7);
        let swapped = base
            .try_with_pafs(std::slice::from_ref(&rich))
            .expect("one composite per slot");
        assert_eq!(swapped.dim(), base.dim());
        assert_eq!(swapped.num_paf_stages(), 1);
        // The swapped pipeline equals compiling with the new form
        // directly (same probed affine matrices, same folded scales).
        let direct = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut Rng64::new(31)))
            .paf_relu(&rich, scale)
            .try_compile()
            .unwrap();
        let x = [0.4, -0.8, 1.2, -0.1];
        let a = swapped.eval_plain(&x);
        let b = direct.eval_plain(&x);
        for (ai, bi) in a.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-12, "{ai} vs {bi}");
        }
        assert_eq!(swapped.total_levels(), direct.total_levels());
    }

    #[test]
    fn with_pafs_assigns_forms_per_slot() {
        let mut rng = Rng64::new(37);
        let cheap = relu_paf();
        let rich = CompositePaf::from_form(PafForm::Alpha7);
        let base = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .paf_relu(&cheap, 4.0)
            .paf_maxpool(2, 2, &cheap, 8.0)
            .try_compile()
            .unwrap();
        assert_eq!(base.num_paf_stages(), 2);
        let mixed = base
            .try_with_pafs(&[rich.clone(), cheap.clone()])
            .expect("one composite per slot");
        assert_eq!(
            mixed.paf_forms(),
            vec![Some(PafForm::Alpha7), Some(PafForm::F1G2)]
        );
        // The swap equals compiling the mixed pipeline directly.
        let direct = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut Rng64::new(37)))
            .paf_relu(&rich, 4.0)
            .paf_maxpool(2, 2, &cheap, 8.0)
            .try_compile()
            .unwrap();
        let x: Vec<f64> = (0..16).map(|i| ((i * 5) % 9) as f64 / 4.0 - 1.0).collect();
        let a = mixed.eval_plain(&x);
        let b = direct.eval_plain(&x);
        for (ai, bi) in a.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-12, "{ai} vs {bi}");
        }
        assert_eq!(mixed.total_levels(), direct.total_levels());
    }

    #[test]
    fn form_vector_length_mismatch_is_typed() {
        let mut rng = Rng64::new(41);
        let paf = relu_paf();
        let pipe = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .paf_relu(&paf, 2.0)
            .try_compile()
            .unwrap();
        let err = pipe
            .try_with_pafs(&[paf.clone(), paf.clone()])
            .err()
            .expect("one slot, two composites");
        assert_eq!(
            err,
            crate::RunError::FormCountMismatch {
                expected: 1,
                got: 2
            }
        );
        assert!(err.to_string().contains("PAF slot"));
        // Empty vector against a slotless pipeline is fine.
        let slotless = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile()
            .unwrap();
        assert!(slotless.try_with_pafs(&[]).is_ok());
    }

    #[test]
    fn slots_sharing_a_form_share_one_prepared_engine() {
        let paf = relu_paf();
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .paf_relu(&paf, 2.0)
            .paf_maxpool(2, 2, &paf, 4.0)
            .try_compile()
            .unwrap();
        let engines: Vec<_> = stage_engines(&pipe);
        assert_eq!(engines.len(), 2);
        assert!(
            std::sync::Arc::ptr_eq(engines[0], engines[1]),
            "same composite must share one prepared engine"
        );
        // Distinct forms keep distinct engines.
        let mixed = pipe
            .try_with_pafs(&[paf.clone(), CompositePaf::from_form(PafForm::Alpha7)])
            .expect("one composite per slot");
        let engines: Vec<_> = stage_engines(&mixed);
        assert!(!std::sync::Arc::ptr_eq(engines[0], engines[1]));
    }

    #[test]
    fn with_pafs_reuses_prepared_engines_from_the_source() {
        // Swapping a vector that keeps a slot's composite must reuse
        // the source pipeline's prepared engine (Arc identity), not
        // re-prepare it — the planner swaps from its previous pipeline
        // so a whole search pays one preparation per distinct form.
        let cheap = relu_paf();
        let rich = CompositePaf::from_form(PafForm::Alpha7);
        let base = PipelineBuilder::new(&[1, 4, 4])
            .paf_relu(&cheap, 2.0)
            .paf_maxpool(2, 2, &rich, 4.0)
            .try_compile()
            .unwrap();
        let base_engines: Vec<_> = stage_engines(&base);
        // Keep slot 0, change slot 1 to slot 0's form: both slots of
        // the swap reuse the base's slot-0 engine.
        let swapped = base
            .try_with_pafs(&[cheap.clone(), cheap.clone()])
            .expect("one composite per slot");
        let swapped_engines: Vec<_> = stage_engines(&swapped);
        assert!(std::sync::Arc::ptr_eq(base_engines[0], swapped_engines[0]));
        assert!(std::sync::Arc::ptr_eq(base_engines[0], swapped_engines[1]));
        // And the dropped form's engine is gone, not leaked into the
        // new pipeline.
        assert!(!std::sync::Arc::ptr_eq(base_engines[1], swapped_engines[1]));
    }

    #[test]
    fn stage_labels_are_informative() {
        let mut rng = Rng64::new(29);
        let paf = relu_paf();
        let pipe = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .paf_relu(&paf, 2.0)
            .try_compile()
            .unwrap();
        assert!(pipe.stages()[0].label().starts_with("affine"));
        assert!(pipe.stages()[1].label().starts_with("paf-relu"));
    }

    #[test]
    fn lane_capacity_is_slot_count_over_dim() {
        let mut rng = Rng64::new(31);
        let pipe = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile()
            .unwrap();
        assert_eq!(pipe.dim(), 4);
        assert_eq!(pipe.lane_capacity(128), 32);
        assert_eq!(pipe.lane_capacity(4), 1);
        // Non-divisible slot counts have no packing capacity.
        assert_eq!(pipe.lane_capacity(6), 0);
        assert_eq!(pipe.lane_capacity(2), 0);
    }

    #[test]
    fn expanded_lanes_eval_each_lane_bit_identically() {
        // A conv + PAF-relu + maxpool pipeline covers every stage
        // kind; the lane-expanded pipeline applied to interleaved
        // inputs must reproduce each per-lane base eval bit for bit.
        let mut rng = Rng64::new(33);
        let paf = relu_paf();
        let pipe = PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .paf_relu(&paf, 4.0)
            .paf_maxpool(2, 2, &paf, 4.0)
            .affine(Flatten::new())
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile()
            .unwrap();
        let lanes = 4;
        let wide = pipe.expand_lanes(lanes);
        assert_eq!(wide.dim(), lanes * pipe.dim());
        assert_eq!(wide.input_dim(), lanes * pipe.dim());
        assert_eq!(wide.output_dim(), lanes * pipe.dim());

        let inputs: Vec<Vec<f64>> = (0..lanes)
            .map(|l| {
                (0..16)
                    .map(|i| ((i * 7 + l * 3) % 9) as f64 / 3.0 - 1.0)
                    .collect()
            })
            .collect();
        // Interleaved: lane `l`'s position `p` at slot `p·lanes + l`.
        let flat: Vec<f64> = (0..wide.dim())
            .map(|s| inputs[s % lanes].get(s / lanes).copied().unwrap_or(0.0))
            .collect();
        let got = wide.eval_plain(&flat);
        for (l, x) in inputs.iter().enumerate() {
            let want = pipe.eval_plain(x);
            let lane: Vec<f64> = (0..want.len()).map(|p| got[p * lanes + l]).collect();
            assert_eq!(
                lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "lane {l} must match the sequential eval bit for bit"
            );
        }
    }

    #[test]
    fn expanded_lanes_share_prepared_paf_engines() {
        let paf = relu_paf();
        let pipe = PipelineBuilder::new(&[4])
            .paf_relu(&paf, 2.0)
            .try_compile()
            .unwrap();
        let wide = pipe.expand_lanes(8);
        let base: Vec<_> = stage_engines(&pipe);
        let exp: Vec<_> = stage_engines(&wide);
        assert_eq!(base.len(), exp.len());
        assert!(
            std::sync::Arc::ptr_eq(base[0], exp[0]),
            "expansion must not re-prepare PAF engines"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn expand_lanes_rejects_non_power_of_two() {
        let mut rng = Rng64::new(35);
        let pipe = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile()
            .unwrap();
        let _ = pipe.expand_lanes(3);
    }
}
