//! Cross-request slot packing: a ciphertext-level SIMD multiplexer.
//!
//! A compiled pipeline of padded dimension `dim` running on a ring
//! with `slots` slots uses only `dim` distinct slots of its replicated
//! layout — on the default N=4096 ring a dim-64 pipeline wastes 2048−64
//! slots per encrypted eval. This module packs up to `K = slots / dim`
//! independent same-tenant inputs into one ciphertext (one *lane* per
//! input), lane-expands the pipeline so a single encrypted eval applies
//! it to every lane at once, and demultiplexes the K outputs
//! afterwards. Lanes are **interleaved**: lane `l`'s position `p` sits
//! at slot `p·L + l`, replicated at period `dim·L`:
//!
//! ```text
//! slots:  | x⁽⁰⁾₀ x⁽¹⁾₀ x⁽²⁾₀ 0 | x⁽⁰⁾₁ x⁽¹⁾₁ x⁽²⁾₁ 0 | … | x⁽⁰⁾_dim−1 … 0 |
//!         |<-  position 0   ->|<-  position 1   ->|   |<- position dim−1 ->|
//!                                                  (L = 4, lane 3 idle)
//! ```
//!
//! A rotation by `r·L` then shifts every lane's vector by `r` inside
//! that lane, cyclically — exactly what the one-lane replicated layout
//! does with a rotation by `r`. So the lane-expanded pipeline
//! ([`HePipeline::expand_lanes`]) keeps the base pipeline's diagonals,
//! BSGS splits and rotation count: a packed request cuts, keys and
//! encodes like a one-lane request.
//!
//! - [`HePipeline::lane_capacity`] is the capacity rule `K = slots / dim`;
//!   [`LanePacker::new`] answers [`RunError::SlotMismatch`] for a lane
//!   count whose expanded dimension `lanes·dim` does not divide the slot
//!   count.
//! - [`PackedBatch`] is the multiplexed flat vector: inputs padded to
//!   the pipeline dimension and interleaved, idle lanes zeroed.
//! - [`LanePacker`] owns the lane-expanded pipeline plus the packed
//!   pack / encrypt / decrypt paths ([`LanePacker::pack`] is the only
//!   way to pack); its plain eval is bit-identical per lane to the
//!   sequential per-input evals, and the expanded affine stages reuse
//!   the per-matrix diagonal-encoding cache exactly like the base
//!   pipeline.
//!
//! PAF evaluations are elementwise per slot, so they pack for free.
//! Affine stages mix slots through
//! [`DiagMatrix`](smartpaf_ckks::DiagMatrix) products, which
//! [`interleave`](smartpaf_ckks::DiagMatrix::interleave) spreads across
//! the lanes, and a max pool's shifts are multiplied by the lane count:
//! no output ever reads another lane's slots.

use crate::exec::RunError;
use crate::pipeline::HePipeline;
use smartpaf_ckks::{Ciphertext, Evaluator};
use smartpaf_tensor::Rng64;

/// Packing fails with [`RunError`]; this name stays for the frozen
/// benchmark package until it is repointed.
#[doc(hidden)]
pub type PackError = RunError;

/// A slot-multiplexed batch: up to `lanes` inputs padded to the
/// pipeline dimension and interleaved into one flat vector (input `l`'s
/// position `p` at `p·lanes + l`), idle lanes zeroed.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBatch {
    lanes: usize,
    count: usize,
    output_dim: usize,
    values: Vec<f64>,
}

impl PackedBatch {
    /// Lane count of the multiplexed vector (power of two).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The multiplexed flat vector, `lanes · dim` long.
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
        let lanes = self.lanes;
        assert!(
            flat.len() >= self.output_dim * lanes,
            "flat output shorter than the packed extent"
        );
        (0..self.count)
            .map(|l| (0..self.output_dim).map(|p| flat[p * lanes + l]).collect())
            .collect()
    }
}

/// The packed execution engine: the lane-expanded pipeline, the base
/// pipeline's input/output widths, and the packed encrypt / decrypt
/// paths.
///
/// The expansion cost (interleaved matrices, fresh encoding caches)
/// is paid once per `(pipeline, lanes)` pair; a server builds one
/// `LanePacker` at the lane capacity and packs every request group
/// into it, filled or not.
pub struct LanePacker {
    input_dim: usize,
    output_dim: usize,
    lanes: usize,
    expanded: HePipeline,
}

impl LanePacker {
    /// Builds a packer for `pipe` on a `slots`-slot ring carrying
    /// `lanes` inputs per ciphertext.
    ///
    /// # Errors
    ///
    /// [`RunError::SlotMismatch`] with `dim = lanes · pipe.dim()` when
    /// that expanded dimension does not divide the slot count: a lane
    /// count of zero, one that is not a power of two, or one above
    /// [`HePipeline::lane_capacity`].
    pub fn new(pipe: &HePipeline, slots: usize, lanes: usize) -> Result<LanePacker, RunError> {
        // The capacity is a power of two (or 0), so exactly its
        // power-of-two divisors expand to a dimension dividing `slots`.
        if !lanes.is_power_of_two() || lanes > pipe.lane_capacity(slots) {
            return Err(RunError::SlotMismatch {
                dim: lanes.saturating_mul(pipe.dim()),
                slots,
            });
        }
        Ok(LanePacker {
            input_dim: pipe.input_dim(),
            output_dim: pipe.output_dim(),
            lanes,
            expanded: pipe.expand_lanes(lanes),
        })
    }

    /// Lanes carried per ciphertext.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane-expanded pipeline (padded dim `lanes · dim`).
    pub fn expanded(&self) -> &HePipeline {
        &self.expanded
    }

    /// Packs one lane group: input `l` into lane `l`, the lanes past
    /// the group (all of them for an empty group) left idle.
    ///
    /// # Errors
    ///
    /// [`RunError::InputTooLong`] when an input is longer than the
    /// pipeline's input dimension.
    ///
    /// # Panics
    ///
    /// Panics if the group has more inputs than [`LanePacker::lanes`]:
    /// callers split their batches with `chunks(lanes)`.
    pub fn pack(&self, inputs: &[Vec<f64>]) -> Result<PackedBatch, RunError> {
        let lanes = self.lanes;
        assert!(
            inputs.len() <= lanes,
            "a group of {} inputs exceeds the packer's {lanes} lanes",
            inputs.len()
        );
        let mut values = vec![0.0; self.expanded.dim()];
        for (l, x) in inputs.iter().enumerate() {
            if x.len() > self.input_dim {
                return Err(RunError::InputTooLong {
                    len: x.len(),
                    max: self.input_dim,
                });
            }
            for (p, &v) in x.iter().enumerate() {
                values[p * lanes + l] = v;
            }
        }
        Ok(PackedBatch {
            lanes,
            count: inputs.len(),
            output_dim: self.output_dim,
            values,
        })
    }

    /// Evaluates the packed batch on the plain backend and
    /// demultiplexes: bit-identical per lane to sequential
    /// [`HePipeline::eval_plain`] calls on each input.
    pub fn eval_plain(&self, batch: &PackedBatch) -> Vec<Vec<f64>> {
        batch.unpack(&self.expanded.eval_plain(batch.values()))
    }

    /// Encrypts the multiplexed vector (replicated across the ring, so
    /// full-ring rotations act cyclically on the interleaved layout).
    pub fn encrypt(&self, batch: &PackedBatch, ev: &Evaluator, rng: &mut Rng64) -> Ciphertext {
        ev.encrypt_replicated(batch.values(), rng)
    }

    /// Decrypts a packed output ciphertext and demultiplexes it into
    /// one `output_dim`-wide vector per real input of `batch`.
    pub fn decrypt(&self, ct: &Ciphertext, batch: &PackedBatch, ev: &Evaluator) -> Vec<Vec<f64>> {
        batch.unpack(&ev.decrypt_values(ct, self.expanded.dim()))
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
    fn lane_counts_that_do_not_fit_the_slots_are_a_slot_mismatch() {
        // Dim 16 on 128 slots: capacity 8 (pinned in pipeline.rs). A
        // lane count fits exactly when `lanes · 16` divides 128.
        let pipe = demo_pipeline(61);
        for lanes in [1, 2, 4, 8] {
            assert_eq!(LanePacker::new(&pipe, 128, lanes).unwrap().lanes(), lanes);
        }
        for lanes in [0, 3, 16] {
            let err = LanePacker::new(&pipe, 128, lanes).err();
            assert_eq!(
                err,
                Some(RunError::SlotMismatch {
                    dim: lanes * 16,
                    slots: 128
                }),
                "{lanes} lanes"
            );
        }
        // A ring smaller than the pipeline cannot carry even one lane.
        let err = LanePacker::new(&pipe, 8, 1).err().expect("dim > slots");
        assert_eq!(err, RunError::SlotMismatch { dim: 16, slots: 8 });
        assert_eq!(err.to_string(), "pipeline dim 16 must divide slot count 8");
    }

    #[test]
    fn pack_round_trips_lane_values() {
        let pipe = demo_pipeline(62);
        let packer = LanePacker::new(&pipe, 128, 4).expect("fits");
        let xs = inputs(3);
        let batch = packer.pack(&xs).expect("packs");
        assert_eq!(batch.lanes(), 4);
        assert_eq!(batch.values().len(), 4 * 16);
        // Lane l carries input l at every fourth slot from l; the idle
        // lane is zero.
        for (l, x) in xs.iter().enumerate() {
            let lane: Vec<f64> = batch.values().iter().skip(l).step_by(4).copied().collect();
            assert_eq!(&lane, x);
        }
        assert!(batch.values().iter().skip(3).step_by(4).all(|&v| v == 0.0));
        // Unpacking the input vector itself returns the output-width
        // prefixes of the real lanes.
        let outs = batch.unpack(batch.values());
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[1], xs[1][..4].to_vec());
    }

    #[test]
    fn pack_reports_typed_errors() {
        let pipe = demo_pipeline(63);
        let packer = LanePacker::new(&pipe, 128, 4).expect("fits");
        let long = vec![inputs(1).remove(0), vec![0.0; 17]];
        assert_eq!(
            packer.pack(&long),
            Err(RunError::InputTooLong { len: 17, max: 16 })
        );
        // An empty group is all idle lanes and demultiplexes to nothing.
        let empty = packer.pack(&[]).expect("packs");
        assert_eq!(empty.values(), &[0.0; 64][..]);
        assert!(empty.unpack(empty.values()).is_empty());
    }

    #[test]
    #[should_panic(expected = "a group of 5 inputs exceeds the packer's 4 lanes")]
    fn a_group_larger_than_the_lanes_is_a_caller_bug() {
        let pipe = demo_pipeline(63);
        let packer = LanePacker::new(&pipe, 128, 4).expect("fits");
        let _ = packer.pack(&inputs(5));
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
