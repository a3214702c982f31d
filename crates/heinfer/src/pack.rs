//! Cross-request slot packing: a ciphertext-level SIMD multiplexer.
//!
//! A compiled pipeline of padded dimension `dim` running on a ring
//! with `slots` slots uses only the first `dim` slots of every
//! replication period — on the default N=4096 ring a dim-64 pipeline
//! wastes 2048−64 slots per encrypted eval. This module packs up to
//! `K = slots / dim` independent same-tenant inputs into one
//! ciphertext at stride `dim` (one *lane* per input), lane-expands the
//! pipeline so a single encrypted eval applies it to every lane at
//! once, and demultiplexes the K outputs afterwards:
//!
//! ```text
//! slots:  |  lane 0  |  lane 1  |  lane 2  |  lane 3  |
//!         |<- dim  ->|<- dim  ->|<- dim  ->|<- dim  ->|
//!  input:   x⁽⁰⁾ pad    x⁽¹⁾ pad    x⁽²⁾ pad    0 (idle)
//! ```
//!
//! - [`SlotLayout`] computes the capacity rule `K = slots / dim` from
//!   a compiled [`HePipeline`] and rejects pipelines whose stages
//!   would rotate across a lane boundary (typed [`PackError`]).
//! - [`PackedBatch`] is the multiplexed flat vector: inputs padded to
//!   the lane stride and concatenated, idle lanes zeroed.
//! - [`LanePacker`] owns the lane-expanded pipeline
//!   ([`HePipeline::expand_lanes`]) plus the packed encode / encrypt /
//!   decrypt paths; its plain eval is bit-identical per lane to the
//!   sequential per-input evals, and the expanded affine stages reuse
//!   the per-matrix diagonal-encoding cache exactly like the base
//!   pipeline.
//!
//! PAF evaluations are elementwise per slot, so they pack for free.
//! Affine stages mix slots through
//! [`DiagMatrix`](smartpaf_ckks::DiagMatrix) products, which
//! [`block_diag`](smartpaf_ckks::DiagMatrix::block_diag) replicates
//! block-diagonally so no output ever reads another lane's slots. A
//! max pool's shifts rotate the *whole* packed vector instead (a
//! block-diagonal shift would cost a level): what they carry across a
//! lane boundary lands only in slots the pool's anchor selection — an
//! affine stage — drops.

use crate::pipeline::{HePipeline, Stage};
use smartpaf_ckks::{Ciphertext, Evaluator};
use smartpaf_tensor::Rng64;
use std::fmt;

/// Typed slot-packing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The pipeline's padded dimension does not divide the slot count
    /// (or exceeds it): the ciphertext cannot carry even one lane.
    NoCapacity {
        /// Pipeline padded dimension (the would-be lane stride).
        dim: usize,
        /// Ring slot count.
        slots: usize,
    },
    /// More inputs (or requested lanes) than the layout has capacity
    /// for.
    TooManyInputs {
        /// Inputs or lanes requested.
        got: usize,
        /// Lanes available.
        capacity: usize,
    },
    /// An input is longer than the pipeline's logical input dimension.
    InputTooLong {
        /// Offending input length.
        len: usize,
        /// Pipeline input dimension.
        max: usize,
    },
    /// No inputs to pack.
    EmptyBatch,
    /// A stage mixes slots at a stride other than the pipeline's
    /// padded dimension, so its rotations would cross a lane boundary.
    /// Compiled pipelines share one slot layout across stages, so this
    /// is a defensive check; it cannot fire for `PipelineBuilder`
    /// output.
    LaneCrossing {
        /// Label of the offending stage.
        stage: String,
        /// The stage matrix's slot stride.
        mat_dim: usize,
        /// The lane stride it would have to respect.
        dim: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::NoCapacity { dim, slots } => write!(
                f,
                "pipeline dim {dim} must divide slot count {slots}: no packing capacity"
            ),
            PackError::TooManyInputs { got, capacity } => {
                write!(f, "{got} inputs exceed the slot-packing capacity {capacity}")
            }
            PackError::InputTooLong { len, max } => {
                write!(f, "input length {len} exceeds pipeline input dim {max}")
            }
            PackError::EmptyBatch => write!(f, "cannot pack an empty batch"),
            PackError::LaneCrossing { stage, mat_dim, dim } => write!(
                f,
                "stage `{stage}` mixes slots at stride {mat_dim}, crossing the {dim}-slot lane boundary"
            ),
        }
    }
}

impl std::error::Error for PackError {}

/// The slot layout of a packed ciphertext: lane stride, logical
/// input/output widths, and the capacity rule `K = slots / dim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    dim: usize,
    input_dim: usize,
    output_dim: usize,
    slots: usize,
    capacity: usize,
}

impl SlotLayout {
    /// Computes the layout for `pipe` on a ring with `slots` slots.
    ///
    /// Fails with [`PackError::NoCapacity`] when the padded dimension
    /// does not divide the slot count, and with
    /// [`PackError::LaneCrossing`] if any stage mixes slots at a
    /// stride other than the pipeline dimension (a defensive check —
    /// compiled pipelines share one slot layout across stages).
    pub fn for_pipeline(pipe: &HePipeline, slots: usize) -> Result<SlotLayout, PackError> {
        let capacity = pipe.lane_capacity(slots);
        if capacity == 0 {
            return Err(PackError::NoCapacity {
                dim: pipe.dim(),
                slots,
            });
        }
        for stage in pipe.stages() {
            if let Stage::Affine { mat, .. } = stage {
                if mat.dim() != pipe.dim() {
                    return Err(PackError::LaneCrossing {
                        stage: stage.label(),
                        mat_dim: mat.dim(),
                        dim: pipe.dim(),
                    });
                }
            }
        }
        Ok(SlotLayout {
            dim: pipe.dim(),
            input_dim: pipe.input_dim(),
            output_dim: pipe.output_dim(),
            slots,
            capacity,
        })
    }

    /// Lane capacity `K = slots / dim` (always a power of two).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lane stride: the pipeline's padded dimension.
    pub fn lane_stride(&self) -> usize {
        self.dim
    }

    /// Logical per-input width (pre-padding).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Logical per-output width.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Ring slot count the layout was computed for.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The smallest power-of-two lane count that fits `count` inputs.
    pub fn lanes_for(&self, count: usize) -> Result<usize, PackError> {
        if count == 0 {
            return Err(PackError::EmptyBatch);
        }
        if count > self.capacity {
            return Err(PackError::TooManyInputs {
                got: count,
                capacity: self.capacity,
            });
        }
        Ok(count.next_power_of_two())
    }
}

/// A slot-multiplexed batch: up to `lanes` inputs padded to the lane
/// stride and concatenated into one flat vector, idle lanes zeroed.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBatch {
    layout: SlotLayout,
    lanes: usize,
    count: usize,
    values: Vec<f64>,
}

impl PackedBatch {
    /// Packs `inputs` into `lanes` slot lanes under `layout`.
    ///
    /// `lanes` must be a power of two within the layout's capacity;
    /// [`SlotLayout::lanes_for`] picks the smallest such count.
    pub fn pack(
        layout: &SlotLayout,
        lanes: usize,
        inputs: &[Vec<f64>],
    ) -> Result<PackedBatch, PackError> {
        assert!(lanes.is_power_of_two(), "lanes must be a power of two");
        if lanes > layout.capacity {
            return Err(PackError::TooManyInputs {
                got: lanes,
                capacity: layout.capacity,
            });
        }
        if inputs.is_empty() {
            return Err(PackError::EmptyBatch);
        }
        if inputs.len() > lanes {
            return Err(PackError::TooManyInputs {
                got: inputs.len(),
                capacity: lanes,
            });
        }
        let mut values = vec![0.0; lanes * layout.dim];
        for (l, x) in inputs.iter().enumerate() {
            if x.len() > layout.input_dim {
                return Err(PackError::InputTooLong {
                    len: x.len(),
                    max: layout.input_dim,
                });
            }
            values[l * layout.dim..l * layout.dim + x.len()].copy_from_slice(x);
        }
        Ok(PackedBatch {
            layout: *layout,
            lanes,
            count: inputs.len(),
            values,
        })
    }

    /// The layout this batch was packed under.
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    /// Lane count of the multiplexed vector (power of two).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of real inputs packed (the rest of the lanes are idle).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Slot-fill of this batch: real inputs over lanes carried.
    pub fn fill(&self) -> f64 {
        self.count as f64 / self.lanes as f64
    }

    /// The multiplexed flat vector, `lanes · lane_stride` long.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Demultiplexes a flat lane-expanded output back into one
    /// `output_dim`-wide vector per *real* input (idle lanes are
    /// dropped).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is shorter than the packed extent.
    pub fn unpack(&self, flat: &[f64]) -> Vec<Vec<f64>> {
        assert!(
            flat.len() >= (self.lanes - 1) * self.layout.dim + self.layout.output_dim,
            "flat output shorter than the packed extent"
        );
        (0..self.count)
            .map(|l| {
                flat[l * self.layout.dim..l * self.layout.dim + self.layout.output_dim].to_vec()
            })
            .collect()
    }
}

/// The packed execution engine: a [`SlotLayout`] plus the
/// lane-expanded pipeline and the packed encrypt / decrypt paths.
///
/// The expansion cost (block-diagonal matrices, fresh encoding caches)
/// is paid once per `(pipeline, lanes)` pair; callers cache one
/// `LanePacker` per lane count they serve.
pub struct LanePacker {
    layout: SlotLayout,
    lanes: usize,
    expanded: HePipeline,
}

impl LanePacker {
    /// Builds a packer for `pipe` on a `slots`-slot ring carrying
    /// `lanes` inputs per ciphertext.
    pub fn new(pipe: &HePipeline, slots: usize, lanes: usize) -> Result<LanePacker, PackError> {
        let layout = SlotLayout::for_pipeline(pipe, slots)?;
        if !lanes.is_power_of_two() || lanes > layout.capacity() {
            return Err(PackError::TooManyInputs {
                got: lanes,
                capacity: layout.capacity(),
            });
        }
        Ok(LanePacker {
            layout,
            lanes,
            expanded: pipe.expand_lanes(lanes),
        })
    }

    /// The slot layout (of the *base* pipeline).
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    /// Lanes carried per ciphertext.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane-expanded pipeline (padded dim `lanes · lane_stride`).
    pub fn expanded(&self) -> &HePipeline {
        &self.expanded
    }

    /// Packs `inputs` into this packer's lane count.
    pub fn pack(&self, inputs: &[Vec<f64>]) -> Result<PackedBatch, PackError> {
        PackedBatch::pack(&self.layout, self.lanes, inputs)
    }

    /// Evaluates the packed batch on the plain backend and
    /// demultiplexes: bit-identical per lane to sequential
    /// [`HePipeline::eval_plain`] calls on each input.
    pub fn eval_plain(&self, batch: &PackedBatch) -> Vec<Vec<f64>> {
        batch.unpack(&self.expanded.eval_plain(batch.values()))
    }

    /// Encrypts the multiplexed vector (replicated across the ring, so
    /// full-ring rotations act cyclically on the lane-expanded
    /// layout).
    pub fn encrypt(&self, batch: &PackedBatch, ev: &Evaluator, rng: &mut Rng64) -> Ciphertext {
        ev.encrypt_replicated(batch.values(), rng)
    }

    /// Decrypts a packed output ciphertext and demultiplexes it into
    /// one `output_dim`-wide vector per real input of `batch`.
    pub fn decrypt(&self, ct: &Ciphertext, batch: &PackedBatch, ev: &Evaluator) -> Vec<Vec<f64>> {
        batch.unpack(&ev.decrypt_values(ct, self.lanes * self.layout.lane_stride()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineBuilder;
    use smartpaf_ckks::{CkksParams, Evaluator, KeyChain, PafEvaluator};
    use smartpaf_nn::{Conv2d, Flatten, Linear};
    use smartpaf_polyfit::{CompositePaf, PafForm};
    use smartpaf_tensor::Rng64;

    fn demo_pipeline(seed: u64) -> HePipeline {
        let mut rng = Rng64::new(seed);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .paf_relu(&paf, 4.0)
            .paf_maxpool(2, 2, &paf, 4.0)
            .affine(Flatten::new())
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile()
            .unwrap()
    }

    fn inputs(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|l| {
                (0..16)
                    .map(|i| ((i * 5 + l * 7) % 11) as f64 / 4.0 - 1.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn layout_computes_capacity_from_the_pipeline() {
        let pipe = demo_pipeline(61);
        let layout = SlotLayout::for_pipeline(&pipe, 128).expect("fits");
        assert_eq!(layout.lane_stride(), 16);
        assert_eq!(layout.capacity(), 8);
        assert_eq!(layout.input_dim(), 16);
        assert_eq!(layout.output_dim(), 4);
        assert_eq!(layout.lanes_for(3), Ok(4));
        assert_eq!(layout.lanes_for(8), Ok(8));
        assert_eq!(layout.lanes_for(0), Err(PackError::EmptyBatch));
        assert_eq!(
            layout.lanes_for(9),
            Err(PackError::TooManyInputs {
                got: 9,
                capacity: 8
            })
        );
        // A ring smaller than the pipeline has no capacity at all.
        let err = SlotLayout::for_pipeline(&pipe, 8).expect_err("dim > slots");
        assert_eq!(err, PackError::NoCapacity { dim: 16, slots: 8 });
        assert!(err.to_string().contains("no packing capacity"));
    }

    #[test]
    fn pack_round_trips_lane_values() {
        let pipe = demo_pipeline(62);
        let layout = SlotLayout::for_pipeline(&pipe, 128).expect("fits");
        let xs = inputs(3);
        let batch = PackedBatch::pack(&layout, 4, &xs).expect("packs");
        assert_eq!(batch.lanes(), 4);
        assert_eq!(batch.count(), 3);
        assert!((batch.fill() - 0.75).abs() < 1e-12);
        assert_eq!(batch.values().len(), 4 * 16);
        // Lane l carries input l; the idle lane is zero.
        for (l, x) in xs.iter().enumerate() {
            assert_eq!(&batch.values()[l * 16..l * 16 + 16], x.as_slice());
        }
        assert!(batch.values()[3 * 16..].iter().all(|&v| v == 0.0));
        // Unpacking the input vector itself returns the output-width
        // prefixes of the real lanes.
        let outs = batch.unpack(batch.values());
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[1], xs[1][..4].to_vec());
    }

    #[test]
    fn pack_reports_typed_errors() {
        let pipe = demo_pipeline(63);
        let layout = SlotLayout::for_pipeline(&pipe, 128).expect("fits");
        assert_eq!(
            PackedBatch::pack(&layout, 4, &[]),
            Err(PackError::EmptyBatch)
        );
        assert_eq!(
            PackedBatch::pack(&layout, 4, &inputs(5)),
            Err(PackError::TooManyInputs {
                got: 5,
                capacity: 4
            })
        );
        assert_eq!(
            PackedBatch::pack(&layout, 16, &inputs(2)),
            Err(PackError::TooManyInputs {
                got: 16,
                capacity: 8
            })
        );
        let long = vec![vec![0.0; 17]];
        assert_eq!(
            PackedBatch::pack(&layout, 4, &long),
            Err(PackError::InputTooLong { len: 17, max: 16 })
        );
    }

    #[test]
    fn packed_plain_eval_is_bit_identical_to_sequential() {
        let pipe = demo_pipeline(64);
        let packer = LanePacker::new(&pipe, 128, 4).expect("builds");
        let xs = inputs(3);
        let batch = packer.pack(&xs).expect("packs");
        let got = packer.eval_plain(&batch);
        assert_eq!(got.len(), 3);
        for (x, out) in xs.iter().zip(&got) {
            let want = pipe.eval_plain(x);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "packed lane must match the sequential eval bit for bit"
            );
        }
    }

    #[test]
    fn packed_encrypted_eval_matches_sequential_within_noise() {
        let pipe = demo_pipeline(65);
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(66);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let packer = LanePacker::new(&pipe, ctx.slots(), 4).expect("builds");
        let xs = inputs(4);
        let batch = packer.pack(&xs).expect("packs");
        let bs =
            smartpaf_ckks::Bootstrapper::new(pe.evaluator().clone(), packer.expanded().dim(), 67);
        let ct = packer.encrypt(&batch, pe.evaluator(), &mut rng);
        let (out_ct, _) = packer
            .expanded()
            .try_eval_encrypted(&pe, Some(&bs), &ct)
            .unwrap();
        let got = packer.decrypt(&out_ct, &batch, pe.evaluator());
        assert_eq!(got.len(), 4);
        for (x, out) in xs.iter().zip(&got) {
            let want = pipe.eval_plain(x);
            for (g, w) in out.iter().zip(&want) {
                assert!((g - w).abs() < 0.1, "{g} vs {w}");
            }
        }
    }
}
