//! Serializable pipeline descriptions: the model-shape fingerprint the
//! plan registry content-addresses artifacts by.
//!
//! A [`PipelineDesc`] captures everything about a compiled
//! [`HePipeline`] that planning depends on — stage structure, logical
//! dimensions, Static-Scaling factors, and content digests of the
//! probed affine matrices — while staying *form-independent*: two
//! pipelines that differ only in which composite PAF sits in each slot
//! describe identically, because [`HePipeline::try_with_pafs`] keeps the
//! probed matrices, scales, shifts, and slot layout untouched. That is
//! exactly the invariance a plan cache needs: a stored plan applies to
//! any form assignment of the same model.
//!
//! The probed weights themselves are **not** serialized — only their
//! [`fnv1a_64`] digests over exact `f64` bit patterns (weights are the
//! loading process's responsibility; see `docs/ARTIFACT_FORMAT.md`).

use crate::pipeline::{HePipeline, Stage};
use serde::{Deserialize, Error, Serialize, Value};

/// 64-bit FNV-1a over a byte stream — the stable, dependency-free hash
/// behind matrix digests and registry content addresses. Not
/// collision-resistant against adversaries; registries are a cache,
/// not an integrity boundary.
///
/// # Example
///
/// ```
/// use smartpaf_heinfer::fnv1a_64;
///
/// assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a_64(b"a"), fnv1a_64(b"b"));
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn digest_f64s(h: &mut u64, values: impl IntoIterator<Item = f64>) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100000001b3);
        }
    }
}

/// One stage of a [`PipelineDesc`]: the form-independent facts of the
/// corresponding [`Stage`].
#[derive(Debug, Clone, PartialEq)]
pub enum StageDesc {
    /// A probed affine segment, identified by shape and a content
    /// digest of its diagonals and bias.
    Affine {
        /// Logical output dimension of the probed matrix.
        out_dim: usize,
        /// Logical input dimension of the probed matrix.
        in_dim: usize,
        /// [`fnv1a_64`]-style digest over the matrix's generalized
        /// diagonals (offset + exact entry bits) and the bias vector.
        digest: u64,
    },
    /// A PAF-ReLU slot (the composite itself is deliberately absent).
    PafRelu {
        /// Static-Scaling input factor (`1/s`; 1.0 after folding).
        pre_scale: f64,
        /// Static-Scaling output factor (`s`; 1.0 after folding).
        post_scale: f64,
    },
    /// A PAF max-pool slot: the fold alone (its anchor selection is the
    /// affine stage after it).
    PafMax {
        /// The fold's rotation steps, in execution order.
        shifts: Vec<usize>,
    },
}

/// Form-independent serializable description of a compiled
/// [`HePipeline`] — see the module docs.
///
/// # Example
///
/// ```
/// use smartpaf_heinfer::PipelineBuilder;
/// use smartpaf_nn::Linear;
/// use smartpaf_polyfit::{CompositePaf, PafForm};
/// use smartpaf_tensor::Rng64;
///
/// let build = |form| {
///     PipelineBuilder::new(&[4])
///         .affine(Linear::new(4, 4, &mut Rng64::new(7)))
///         .paf_relu(&CompositePaf::from_form(form), 2.0)
///         .compile()
/// };
/// // Same model, different PAF form: identical description.
/// let a = build(PafForm::F1G2).describe();
/// let b = build(PafForm::Alpha7).describe();
/// assert_eq!(a, b);
/// assert_eq!(a.num_paf_slots(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineDesc {
    /// Shared padded slot dimension.
    pub dim: usize,
    /// Logical input length.
    pub input_dim: usize,
    /// Logical output length.
    pub output_dim: usize,
    /// Per-stage descriptions, in execution order.
    pub stages: Vec<StageDesc>,
}

impl PipelineDesc {
    /// Number of PAF slots (ReLU + max-pool stages).
    pub fn num_paf_slots(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| !matches!(s, StageDesc::Affine { .. }))
            .count()
    }
}

impl HePipeline {
    /// Builds the form-independent [`PipelineDesc`] of this pipeline.
    pub fn describe(&self) -> PipelineDesc {
        let stages = self
            .stages()
            .iter()
            .map(|s| match s {
                Stage::Affine { mat, bias } => {
                    let mut h: u64 = 0xcbf29ce484222325;
                    for (d, entries) in mat.diagonals() {
                        digest_f64s(&mut h, [d as f64]);
                        digest_f64s(&mut h, entries.iter().copied());
                    }
                    digest_f64s(&mut h, bias.iter().copied());
                    StageDesc::Affine {
                        out_dim: mat.out_dim(),
                        in_dim: mat.in_dim(),
                        digest: h,
                    }
                }
                Stage::PafRelu {
                    pre_scale,
                    post_scale,
                    ..
                } => StageDesc::PafRelu {
                    pre_scale: *pre_scale,
                    post_scale: *post_scale,
                },
                Stage::PafMax { shifts, .. } => StageDesc::PafMax {
                    shifts: shifts.clone(),
                },
            })
            .collect();
        PipelineDesc {
            dim: self.dim(),
            input_dim: self.input_dim(),
            output_dim: self.output_dim(),
            stages,
        }
    }
}

impl Serialize for StageDesc {
    fn serialize(&self) -> Value {
        match self {
            StageDesc::Affine {
                out_dim,
                in_dim,
                digest,
            } => Value::object([
                ("kind", "affine".serialize()),
                ("out_dim", out_dim.serialize()),
                ("in_dim", in_dim.serialize()),
                ("digest", digest.serialize()),
            ]),
            StageDesc::PafRelu {
                pre_scale,
                post_scale,
            } => Value::object([
                ("kind", "paf_relu".serialize()),
                ("pre_scale", pre_scale.serialize()),
                ("post_scale", post_scale.serialize()),
            ]),
            StageDesc::PafMax { shifts } => Value::object([
                ("kind", "paf_max".serialize()),
                ("shifts", shifts.serialize()),
            ]),
        }
    }
}

impl Deserialize for StageDesc {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let kind = String::deserialize(value.req("kind")?)?;
        match kind.as_str() {
            "affine" => Ok(StageDesc::Affine {
                out_dim: usize::deserialize(value.req("out_dim")?)?,
                in_dim: usize::deserialize(value.req("in_dim")?)?,
                digest: u64::deserialize(value.req("digest")?)?,
            }),
            "paf_relu" => Ok(StageDesc::PafRelu {
                pre_scale: f64::deserialize(value.req("pre_scale")?)?,
                post_scale: f64::deserialize(value.req("post_scale")?)?,
            }),
            "paf_max" => Ok(StageDesc::PafMax {
                shifts: Vec::<usize>::deserialize(value.req("shifts")?)?,
            }),
            other => Err(Error::custom(format!("unknown stage kind `{other}`"))),
        }
    }
}

impl Serialize for PipelineDesc {
    fn serialize(&self) -> Value {
        Value::object([
            ("dim", self.dim.serialize()),
            ("input_dim", self.input_dim.serialize()),
            ("output_dim", self.output_dim.serialize()),
            ("stages", self.stages.serialize()),
        ])
    }
}

impl Deserialize for PipelineDesc {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(PipelineDesc {
            dim: usize::deserialize(value.req("dim")?)?,
            input_dim: usize::deserialize(value.req("input_dim")?)?,
            output_dim: usize::deserialize(value.req("output_dim")?)?,
            stages: Vec::<StageDesc>::deserialize(value.req("stages")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineBuilder;
    use serde::json;
    use smartpaf_nn::Conv2d;
    use smartpaf_polyfit::{CompositePaf, PafForm};
    use smartpaf_tensor::Rng64;

    fn sample_pipeline(seed: u64) -> HePipeline {
        let mut rng = Rng64::new(seed);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        PipelineBuilder::new(&[1, 4, 4])
            .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
            .paf_relu(&paf, 4.0)
            .paf_maxpool(2, 2, &paf, 8.0)
            .compile()
    }

    #[test]
    fn describe_is_form_independent() {
        let base = sample_pipeline(3);
        let rich = CompositePaf::from_form(PafForm::Alpha7);
        let swapped = base
            .try_with_pafs(&[rich.clone(), rich])
            .expect("one composite per slot");
        assert_eq!(base.describe(), swapped.describe());
    }

    #[test]
    fn describe_distinguishes_weights_and_structure() {
        let a = sample_pipeline(3).describe();
        let b = sample_pipeline(4).describe();
        assert_ne!(a, b, "different weights must change affine digests");
        assert_eq!(a.stages.len(), b.stages.len());
        assert_eq!(a.num_paf_slots(), 2);
    }

    #[test]
    fn describe_is_stable_across_recompiles() {
        assert_eq!(sample_pipeline(9).describe(), sample_pipeline(9).describe());
    }

    #[test]
    fn desc_serde_round_trip() {
        let desc = sample_pipeline(5).describe();
        let text = json::to_string(&desc.serialize());
        let back = PipelineDesc::deserialize(&json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn unknown_stage_kind_is_rejected() {
        let v = json::from_str(r#"{"kind":"conv"}"#).unwrap();
        assert!(StageDesc::deserialize(&v).is_err());
    }
}
