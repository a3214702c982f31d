//! The layer abstraction and structural containers.

use crate::act::SlotRef;
use crate::conv_layers::BatchNorm2d;
use crate::param::Param;
use smartpaf_tensor::Tensor;

/// Forward-pass mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: batch statistics, dropout active, dynamic scaling
    /// updates running maxima.
    Train,
    /// Evaluation: running statistics, dropout inactive.
    Eval,
}

/// A neural-network layer with explicit forward/backward passes.
///
/// Layers cache whatever they need for the backward pass internally,
/// so `backward` must be called after (and paired with) `forward`.
pub trait Layer {
    /// Human-readable layer name (used in training logs).
    fn name(&self) -> String;

    /// Computes the layer output, caching state for `backward`.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Propagates the output gradient, accumulating parameter
    /// gradients internally and returning the input gradient.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to this layer's parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Every non-polynomial slot, in inference order (empty by
    /// default).
    fn slots_mut(&mut self) -> Vec<SlotRef<'_>> {
        Vec::new()
    }

    /// Every batch-norm layer, in inference order (empty by default).
    fn batch_norms_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        Vec::new()
    }
}

/// A sequential stack of layers.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    label: String,
}

impl Sequential {
    /// Creates an empty stack with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Sequential {
            layers: Vec::new(),
            label: label.into(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn name(&self) -> String {
        format!("Sequential({})", self.label)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut acc = x.clone();
        for layer in &mut self.layers {
            acc = layer.forward(&acc, mode);
        }
        acc
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn slots_mut(&mut self) -> Vec<SlotRef<'_>> {
        self.layers.iter_mut().flat_map(|l| l.slots_mut()).collect()
    }

    fn batch_norms_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.batch_norms_mut())
            .collect()
    }
}

/// Flattens `[N, ...]` to `[N, prod(...)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    input_dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "Flatten".to_string()
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.input_dims = x.dims().to_vec();
        let n = x.dims()[0];
        x.reshape(&[n, x.numel() / n])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.reshape(&self.input_dims)
    }
}

/// Inverted dropout. Inactive in [`Mode::Eval`].
pub struct Dropout {
    /// Drop probability.
    pub p: f32,
    mask: Option<Tensor>,
    rng: smartpaf_tensor::Rng64,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "invalid drop probability {p}");
        Dropout {
            p,
            mask: None,
            rng: smartpaf_tensor::Rng64::new(seed),
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        format!("Dropout(p={})", self.p)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(x.dims());
        for m in mask.data_mut() {
            *m = if self.rng.next_f32() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        self.mask = Some(mask.clone());
        x.mul(&mask)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &self.mask {
            Some(m) => grad_output.mul(m),
            None => grad_output.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::ReluSlot;

    #[test]
    fn sequential_composes() {
        let mut net = Sequential::new("test")
            .push(Flatten::new())
            .push(ReluSlot::new(0));
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 2, 2, 1]);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 4]);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn sequential_backward_reverses() {
        let mut net = Sequential::new("t")
            .push(ReluSlot::new(0))
            .push(Flatten::new());
        let x = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
        let _ = net.forward(&x, Mode::Train);
        let g = net.backward(&Tensor::ones(&[1, 2]));
        assert_eq!(g.data(), &[1.0, 0.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 5]);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 60]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), &[2, 3, 4, 5]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[100, 100]);
        let y = d.forward(&x, Mode::Train);
        // Survivors are scaled by 1/keep = 2, everything else zero.
        let nonzero = y.data().iter().filter(|&&v| v != 0.0).count();
        assert!(y.data().iter().all(|&v| v == 0.0 || v == 2.0));
        let frac = nonzero as f32 / y.numel() as f32;
        assert!((frac - 0.5).abs() < 0.05, "survivor fraction {frac}");
        // Backward masks consistently.
        let g = d.backward(&Tensor::ones(&[100, 100]));
        for (gy, yy) in g.data().iter().zip(y.data()) {
            assert_eq!(*gy != 0.0, *yy != 0.0);
        }
    }

    #[test]
    fn slots_mut_counts_relus() {
        let mut net = Sequential::new("t")
            .push(ReluSlot::new(0))
            .push(Flatten::new())
            .push(ReluSlot::new(1));
        let mut count = 0;
        for s in net.slots_mut() {
            if matches!(s, SlotRef::Relu(_)) {
                count += 1;
            }
        }
        assert_eq!(count, 2);
    }
}
