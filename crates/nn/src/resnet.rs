//! Residual block (ResNet basic block).

use crate::act::{ReluSlot, SlotRef};
use crate::conv_layers::BatchNorm2d;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::Sequential;
use smartpaf_tensor::Tensor;

/// A ResNet basic block: `relu(main(x) + shortcut(x))`.
///
/// `main` is conv-bn-relu-conv-bn; `shortcut` is identity or a 1×1
/// projection. The post-addition ReLU is a replaceable [`ReluSlot`].
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    post_relu: ReluSlot,
    label: String,
}

impl ResidualBlock {
    /// Assembles a block from its pieces.
    pub fn new(
        main: Sequential,
        shortcut: Option<Sequential>,
        post_relu: ReluSlot,
        label: impl Into<String>,
    ) -> Self {
        ResidualBlock {
            main,
            shortcut,
            post_relu,
            label: label.into(),
        }
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> String {
        format!("ResidualBlock({})", self.label)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let main_out = self.main.forward(x, mode);
        let short_out = match &mut self.shortcut {
            Some(s) => s.forward(x, mode),
            None => x.clone(),
        };
        self.post_relu.forward(&main_out.add(&short_out), mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.post_relu.backward(grad_output);
        let g_main = self.main.backward(&g);
        let g_short = match &mut self.shortcut {
            Some(s) => s.backward(&g),
            None => g,
        };
        g_main.add(&g_short)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.main.params_mut();
        if let Some(s) = &mut self.shortcut {
            p.extend(s.params_mut());
        }
        p.extend(self.post_relu.params_mut());
        p
    }

    fn slots_mut(&mut self) -> Vec<SlotRef<'_>> {
        let mut s = self.main.slots_mut();
        if let Some(short) = &mut self.shortcut {
            s.extend(short.slots_mut());
        }
        s.extend(self.post_relu.slots_mut());
        s
    }

    fn batch_norms_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        let mut b = self.main.batch_norms_mut();
        if let Some(short) = &mut self.shortcut {
            b.extend(short.batch_norms_mut());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_layers::Conv2d;
    use smartpaf_tensor::Rng64;

    fn tiny_block(rng: &mut Rng64) -> ResidualBlock {
        let main = Sequential::new("main")
            .push(Conv2d::new(2, 2, 3, 1, 1, rng))
            .push(ReluSlot::new(0))
            .push(Conv2d::new(2, 2, 3, 1, 1, rng));
        ResidualBlock::new(main, None, ReluSlot::new(1), "tiny")
    }

    #[test]
    fn identity_shortcut_adds() {
        let mut rng = Rng64::new(1);
        let mut block = tiny_block(&mut rng);
        let x = Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), x.dims());
        // Output is relu(main + x): non-negative everywhere.
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn backward_routes_to_both_paths() {
        let mut rng = Rng64::new(2);
        let mut block = tiny_block(&mut rng);
        let x = Tensor::rand_normal(&[1, 2, 4, 4], 0.5, 0.5, &mut rng);
        let y = block.forward(&x, Mode::Train);
        let gx = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        // Finite-difference check over all coordinates: individual
        // coordinates can straddle a ReLU kink (where the derivative
        // jumps), so require the bulk to match instead of every one.
        let eps = 1e-3;
        let mut close = 0;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (block.forward(&xp, Mode::Train).sum()
                - block.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            if (fd - gx.data()[i]).abs() < 0.05 * (1.0 + fd.abs()) {
                close += 1;
            }
        }
        assert!(
            close * 10 >= x.numel() * 8,
            "only {close}/{} gradient coords match finite differences",
            x.numel()
        );
    }

    #[test]
    fn slots_visited_in_order() {
        let mut rng = Rng64::new(3);
        let mut block = tiny_block(&mut rng);
        let mut order = Vec::new();
        for s in block.slots_mut() {
            if let SlotRef::Relu(r) = s {
                order.push(r.index());
            }
        }
        assert_eq!(order, vec![0, 1]);
    }
}
