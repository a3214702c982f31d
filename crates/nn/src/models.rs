//! The paper's evaluation models: VGG-19, ResNet-18, and the 7-layer
//! CNN of SAFENet's setting (Lou et al. 2021).
//!
//! Layer *topology* is faithful — VGG-19 has exactly 18 ReLU + 5
//! MaxPool slots and ResNet-18 has 17 ReLU + 1 MaxPool, the counts the
//! paper's Progressive Approximation iterates over. A channel
//! `width_mult` scales widths so CPU-only fine-tuning fits the
//! experiment harness; `width_mult = 1.0` gives the full-size models.

use crate::act::{GlobalAvgPool, MaxPoolSlot, ReluSlot, SlotRef};
use crate::conv_layers::{BatchNorm2d, Conv2d, Linear};
use crate::layer::{Flatten, Layer, Mode};
use crate::resnet::ResidualBlock;
use crate::Sequential;
use smartpaf_tensor::{Rng64, Tensor};

/// A complete model: a layer graph plus slot bookkeeping.
pub struct Model {
    net: Sequential,
    /// Human-readable architecture name.
    pub arch: String,
}

impl Model {
    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.net.forward(x, mode)
    }

    /// Backward pass.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.net.backward(grad)
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut crate::param::Param> {
        self.net.params_mut()
    }

    /// A copy of every parameter value, in [`Model::params_mut`] order.
    pub fn snapshot(&mut self) -> Vec<Tensor> {
        self.params_mut().iter().map(|p| p.value.clone()).collect()
    }

    /// Writes a [`Model::snapshot`] back into the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changed shape since the snapshot.
    pub fn restore(&mut self, snap: &[Tensor]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), snap.len(), "parameter list changed");
        for (p, s) in params.iter_mut().zip(snap) {
            p.value = s.clone();
        }
    }

    /// The non-polynomial slots, in inference order: position `i` of
    /// the list is the slot Progressive Approximation replaces `i`-th.
    pub fn slots_mut(&mut self) -> Vec<SlotRef<'_>> {
        self.net.slots_mut()
    }

    /// The batch-norm layers, in inference order.
    pub fn batch_norms_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        self.net.batch_norms_mut()
    }

    /// Turns running-statistics updates on or off in every batch-norm
    /// layer: on for pretraining, off for PAF fine-tuning (Tab. 5).
    pub fn set_batch_norm_tracking(&mut self, on: bool) {
        for bn in self.batch_norms_mut() {
            bn.set_tracking(on);
        }
    }

    /// Counts `(relu, maxpool)` slots.
    pub fn slot_counts(&mut self) -> (usize, usize) {
        let slots = self.slots_mut();
        let relu = slots
            .iter()
            .filter(|s| matches!(s, SlotRef::Relu(_)))
            .count();
        (relu, slots.len() - relu)
    }
}

fn ch(base: usize, width_mult: f32) -> usize {
    ((base as f32 * width_mult).round() as usize).max(4)
}

/// VGG-19 for 32×32 inputs: 16 conv layers + 3 FC, 18 ReLU slots and
/// 5 MaxPool slots (paper §5.1).
pub fn vgg19(num_classes: usize, width_mult: f32, rng: &mut Rng64) -> Model {
    let cfg: [&[usize]; 5] = [
        &[64, 64],
        &[128, 128],
        &[256, 256, 256, 256],
        &[512, 512, 512, 512],
        &[512, 512, 512, 512],
    ];
    let mut net = Sequential::new("vgg19");
    let mut in_ch = 3;
    let mut relu_idx = 0;
    let mut pool_idx = 0;
    let mut slot = 0;
    for stage in cfg {
        for &out in stage {
            let out = ch(out, width_mult);
            net.push_boxed(Box::new(Conv2d::new(in_ch, out, 3, 1, 1, rng)));
            net.push_boxed(Box::new(BatchNorm2d::new(out)));
            net.push_boxed(Box::new(ReluSlot::new(slot)));
            relu_idx += 1;
            slot += 1;
            in_ch = out;
        }
        net.push_boxed(Box::new(MaxPoolSlot::new(slot, 2, 2)));
        pool_idx += 1;
        slot += 1;
    }
    // 32 / 2^5 = 1: feature map is [N, C, 1, 1].
    net.push_boxed(Box::new(Flatten::new()));
    let hidden = ch(512, width_mult);
    net.push_boxed(Box::new(Linear::new(in_ch, hidden, rng)));
    net.push_boxed(Box::new(ReluSlot::new(slot)));
    slot += 1;
    net.push_boxed(Box::new(Linear::new(hidden, hidden, rng)));
    net.push_boxed(Box::new(ReluSlot::new(slot)));
    net.push_boxed(Box::new(Linear::new(hidden, num_classes, rng)));
    debug_assert_eq!(relu_idx, 16);
    debug_assert_eq!(pool_idx, 5);
    Model {
        net,
        arch: format!("VGG-19(x{width_mult})"),
    }
}

fn basic_block(
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    slot: &mut usize,
    rng: &mut Rng64,
) -> ResidualBlock {
    let main = Sequential::new("main")
        .push(Conv2d::new(in_ch, out_ch, 3, stride, 1, rng))
        .push(BatchNorm2d::new(out_ch))
        .push(ReluSlot::new({
            let s = *slot;
            *slot += 1;
            s
        }))
        .push(Conv2d::new(out_ch, out_ch, 3, 1, 1, rng))
        .push(BatchNorm2d::new(out_ch));
    let shortcut = if stride != 1 || in_ch != out_ch {
        Some(
            Sequential::new("shortcut")
                .push(Conv2d::new(in_ch, out_ch, 1, stride, 0, rng))
                .push(BatchNorm2d::new(out_ch)),
        )
    } else {
        None
    };
    let post = ReluSlot::new({
        let s = *slot;
        *slot += 1;
        s
    });
    ResidualBlock::new(main, shortcut, post, format!("{in_ch}->{out_ch}s{stride}"))
}

/// ResNet-18 (ImageNet layout) for 32×32 inputs: 17 ReLU slots and
/// 1 MaxPool slot (paper §5.1).
pub fn resnet18(num_classes: usize, width_mult: f32, rng: &mut Rng64) -> Model {
    let mut net = Sequential::new("resnet18");
    let mut slot = 0;
    let c64 = ch(64, width_mult);
    // Stem: 7x7/2 conv + BN + ReLU + 3x3/2 maxpool.
    net.push_boxed(Box::new(Conv2d::new(3, c64, 7, 2, 3, rng)));
    net.push_boxed(Box::new(BatchNorm2d::new(c64)));
    net.push_boxed(Box::new(ReluSlot::new(slot)));
    slot += 1;
    net.push_boxed(Box::new(MaxPoolSlot::new(slot, 3, 2)));
    slot += 1;
    // Four stages of two basic blocks.
    let widths = [
        c64,
        ch(128, width_mult),
        ch(256, width_mult),
        ch(512, width_mult),
    ];
    let mut in_ch = c64;
    for (i, &w) in widths.iter().enumerate() {
        let stride = if i == 0 { 1 } else { 2 };
        net.push_boxed(Box::new(basic_block(in_ch, w, stride, &mut slot, rng)));
        net.push_boxed(Box::new(basic_block(w, w, 1, &mut slot, rng)));
        in_ch = w;
    }
    net.push_boxed(Box::new(GlobalAvgPool::new()));
    net.push_boxed(Box::new(Linear::new(in_ch, num_classes, rng)));
    Model {
        net,
        arch: format!("ResNet-18(x{width_mult})"),
    }
}

/// The 7-layer CNN of the SAFENet setting (Lou et al. 2021): 6 conv +
/// 1 FC with 6 ReLU and 2 MaxPool slots; the model prior works used to
/// show PAF training diverging above degree 5.
pub fn mini_cnn(num_classes: usize, width_mult: f32, rng: &mut Rng64) -> Model {
    let mut net = Sequential::new("mini_cnn");
    let mut slot = 0;
    let widths = [32, 32, 64, 64, 128, 128];
    let mut in_ch = 3;
    for (i, &w) in widths.iter().enumerate() {
        let w = ch(w, width_mult);
        net.push_boxed(Box::new(Conv2d::new(in_ch, w, 3, 1, 1, rng)));
        net.push_boxed(Box::new(BatchNorm2d::new(w)));
        net.push_boxed(Box::new(ReluSlot::new(slot)));
        slot += 1;
        if i == 1 || i == 3 {
            net.push_boxed(Box::new(MaxPoolSlot::new(slot, 2, 2)));
            slot += 1;
        }
        in_ch = w;
    }
    net.push_boxed(Box::new(GlobalAvgPool::new()));
    net.push_boxed(Box::new(Linear::new(in_ch, num_classes, rng)));
    Model {
        net,
        arch: format!("MiniCNN(x{width_mult})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg19_slot_counts_match_paper() {
        let mut rng = Rng64::new(1);
        let mut m = vgg19(10, 0.0625, &mut rng);
        assert_eq!(m.slot_counts(), (18, 5));
    }

    #[test]
    fn resnet18_slot_counts_match_paper() {
        let mut rng = Rng64::new(2);
        let mut m = resnet18(10, 0.0625, &mut rng);
        assert_eq!(m.slot_counts(), (17, 1));
    }

    #[test]
    fn mini_cnn_runs_forward_backward() {
        let mut rng = Rng64::new(3);
        let mut m = mini_cnn(10, 0.25, &mut rng);
        let x = Tensor::rand_normal(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let y = m.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 10]);
        let g = m.backward(&Tensor::ones(&[2, 10]));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn vgg19_forward_shape() {
        let mut rng = Rng64::new(4);
        let mut m = vgg19(10, 0.0625, &mut rng);
        let x = Tensor::rand_normal(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 10]);
    }

    #[test]
    fn resnet18_forward_shape() {
        let mut rng = Rng64::new(5);
        let mut m = resnet18(100, 0.0625, &mut rng);
        let x = Tensor::rand_normal(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 100]);
    }

    #[test]
    fn slot_indices_are_inference_ordered() {
        let mut rng = Rng64::new(6);
        let mut m = resnet18(10, 0.0625, &mut rng);
        let indices: Vec<usize> = m.slots_mut().iter().map(SlotRef::index).collect();
        let sorted: Vec<usize> = (0..indices.len()).collect();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn width_mult_scales_parameters() {
        let mut rng = Rng64::new(7);
        let mut small = mini_cnn(10, 0.125, &mut rng);
        let mut big = mini_cnn(10, 0.5, &mut rng);
        let count = |m: &mut Model| -> usize { m.params_mut().iter().map(|p| p.numel()).sum() };
        assert!(count(&mut big) > 4 * count(&mut small));
    }
}
