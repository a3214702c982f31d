//! From-scratch neural-network training substrate for SMART-PAF.
//!
//! Replaces the paper's PyTorch stack with a layer-graph library whose
//! abstractions map one-to-one onto the four SMART-PAF techniques:
//!
//! * replaceable non-polynomial **slots** ([`ReluSlot`],
//!   [`MaxPoolSlot`]) — what Progressive Approximation iterates over;
//! * a trainable [`PafActivation`] whose coefficients live in the
//!   [`ParamGroup::PafCoeff`] optimiser group — what Coefficient
//!   Tuning initialises and Alternate Training freezes/unfreezes;
//! * [`ScaleMode`] implementing Dynamic and Static Scaling;
//! * [`Adam`]/[`Sgd`] with per-group hyperparameters (paper Tab. 5)
//!   and [`Swa`] for the framework's training groups.
//!
//! # Example
//!
//! ```
//! use smartpaf_nn::{mini_cnn, cross_entropy, Mode};
//! use smartpaf_tensor::{Rng64, Tensor};
//!
//! let mut rng = Rng64::new(0);
//! let mut model = mini_cnn(10, 0.125, &mut rng);
//! let x = Tensor::rand_normal(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
//! let logits = model.forward(&x, Mode::Train);
//! let (loss, grad) = cross_entropy(&logits, &[3, 7]);
//! model.backward(&grad);
//! assert!(loss > 0.0);
//! ```

mod act;
mod conv_layers;
mod layer;
mod loss;
mod metrics;
mod models;
mod optim;
mod param;
mod resnet;
mod swa;

pub use act::{AvgPool2d, GlobalAvgPool, MaxPoolSlot, PafActivation, ReluSlot, ScaleMode};
pub use conv_layers::{BatchNorm2d, Conv2d, Linear};
pub use layer::{Dropout, Flatten, Layer, Mode, Sequential, SlotRef};
pub use loss::cross_entropy;
pub use metrics::AccuracyMeter;
pub use models::{mini_cnn, resnet18, vgg19, Model};
pub use optim::{Adam, GroupConfig, OptimConfig, Sgd};
pub use param::{Param, ParamGroup};
pub use resnet::ResidualBlock;
pub use swa::Swa;

#[cfg(test)]
mod proptests;
