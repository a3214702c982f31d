//! Parametric linear layers: convolution, fully connected, batch norm.

use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamGroup};
use smartpaf_tensor::{conv2d, conv2d_backward, ConvSpec, Rng64, Tensor};

/// 2-D convolution with bias (He-normal initialisation).
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: ConvSpec,
    cached_input: Option<Tensor>,
    label: String,
}

impl Conv2d {
    /// Creates a convolution `in_ch -> out_ch` with square kernel `k`.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng64,
    ) -> Self {
        let fan_in = (in_ch * k * k) as f32;
        let std = (2.0 / fan_in).sqrt();
        Conv2d {
            weight: Param::new(
                Tensor::rand_normal(&[out_ch, in_ch, k, k], 0.0, std, rng),
                ParamGroup::Other,
            ),
            bias: Param::new(Tensor::zeros(&[out_ch]), ParamGroup::Other),
            spec: ConvSpec::new(k, stride, padding),
            cached_input: None,
            label: format!("Conv2d({in_ch}->{out_ch}, k{k}s{stride}p{padding})"),
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(x.clone());
        conv2d(x, &self.weight.value, &self.bias.value, &self.spec)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before forward");
        let grads = conv2d_backward(x, &self.weight.value, grad_output, &self.spec);
        self.weight.grad.add_assign(&grads.grad_weight);
        self.bias.grad.add_assign(&grads.grad_bias);
        grads.grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Fully connected layer `y = x W^T + b`.
pub struct Linear {
    weight: Param, // [out, in]
    bias: Param,   // [out]
    cached_input: Option<Tensor>,
    label: String,
}

impl Linear {
    /// Creates a linear layer (He-normal initialisation).
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        Linear {
            weight: Param::new(
                Tensor::rand_normal(&[out_features, in_features], 0.0, std, rng),
                ParamGroup::Other,
            ),
            bias: Param::new(Tensor::zeros(&[out_features]), ParamGroup::Other),
            cached_input: None,
            label: format!("Linear({in_features}->{out_features})"),
        }
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(x.clone());
        let mut y = x.matmul(&self.weight.value.transpose2d());
        let (n, o) = (y.dims()[0], y.dims()[1]);
        for i in 0..n {
            for j in 0..o {
                let v = y.at(&[i, j]) + self.bias.value.data()[j];
                y.set(&[i, j], v);
            }
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before forward");
        // dW = dY^T X ; db = column sums of dY ; dX = dY W
        self.weight
            .grad
            .add_assign(&grad_output.transpose2d().matmul(x));
        let (n, o) = (grad_output.dims()[0], grad_output.dims()[1]);
        for j in 0..o {
            let mut s = 0.0;
            for i in 0..n {
                s += grad_output.at(&[i, j]);
            }
            self.bias.grad.data_mut()[j] += s;
        }
        grad_output.matmul(&self.weight.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Batch normalisation over `[N, C, H, W]` with per-channel affine
/// parameters and running statistics.
///
/// Tab. 5 sets `BatchNorm Tracking = False` during PAF fine-tuning:
/// [`BatchNorm2d::set_tracking`] controls whether running statistics
/// are updated, and [`Model::set_batch_norm_tracking`](crate::Model::set_batch_norm_tracking)
/// sets it on every batch-norm layer of a model.
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    tracking: bool,
    cache: Option<BnCache>,
    channels: usize,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    mode: Mode,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels]), ParamGroup::Other),
            beta: Param::new(Tensor::zeros(&[channels]), ParamGroup::Other),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            tracking: true,
            cache: None,
            channels,
        }
    }

    /// Enables or disables running-statistics updates (Tab. 5 uses
    /// `false` during fine-tuning).
    pub fn set_tracking(&mut self, on: bool) {
        self.tracking = on;
    }

    /// The running `(mean, variance)` per channel that
    /// [`Mode::Eval`] normalises with.
    pub fn running_stats(&self) -> (&[f32], &[f32]) {
        (&self.running_mean, &self.running_var)
    }

    fn stats(&self, x: &Tensor, c: usize) -> (f32, f32) {
        let (n, ch, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let count = (n * h * w) as f32;
        let mut mean = 0.0f64;
        for b in 0..n {
            let base = (b * ch + c) * h * w;
            for p in 0..h * w {
                mean += x.data()[base + p] as f64;
            }
        }
        let mean = (mean / count as f64) as f32;
        let mut var = 0.0f64;
        for b in 0..n {
            let base = (b * ch + c) * h * w;
            for p in 0..h * w {
                let d = x.data()[base + p] - mean;
                var += (d * d) as f64;
            }
        }
        (mean, (var / count as f64) as f32)
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(c, self.channels, "channel mismatch");
        let mut y = Tensor::zeros(x.dims());
        let mut x_hat = Tensor::zeros(x.dims());
        let mut inv_stds = Vec::with_capacity(c);
        for ci in 0..c {
            let (mean, var) = if mode == Mode::Train {
                let (m, v) = self.stats(x, ci);
                if self.tracking {
                    self.running_mean[ci] =
                        (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * m;
                    self.running_var[ci] =
                        (1.0 - self.momentum) * self.running_var[ci] + self.momentum * v;
                }
                (m, v)
            } else {
                (self.running_mean[ci], self.running_var[ci])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            let g = self.gamma.value.data()[ci];
            let b = self.beta.value.data()[ci];
            for bi in 0..n {
                let base = (bi * c + ci) * h * w;
                for p in 0..h * w {
                    let xh = (x.data()[base + p] - mean) * inv_std;
                    x_hat.data_mut()[base + p] = xh;
                    y.data_mut()[base + p] = g * xh + b;
                }
            }
        }
        self.cache = Some(BnCache {
            x_hat,
            inv_std: inv_stds,
            mode,
        });
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let (n, c, h, w) = (
            grad_output.dims()[0],
            grad_output.dims()[1],
            grad_output.dims()[2],
            grad_output.dims()[3],
        );
        let count = (n * h * w) as f32;
        let mut grad_in = Tensor::zeros(grad_output.dims());
        for ci in 0..c {
            let g = self.gamma.value.data()[ci];
            let inv_std = cache.inv_std[ci];
            // Accumulate dgamma, dbeta and the batch-stat terms.
            let mut dgamma = 0.0f64;
            let mut dbeta = 0.0f64;
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for bi in 0..n {
                let base = (bi * c + ci) * h * w;
                for p in 0..h * w {
                    let dy = grad_output.data()[base + p];
                    let xh = cache.x_hat.data()[base + p];
                    dgamma += (dy * xh) as f64;
                    dbeta += dy as f64;
                    sum_dy += dy as f64;
                    sum_dy_xhat += (dy * xh) as f64;
                }
            }
            self.gamma.grad.data_mut()[ci] += dgamma as f32;
            self.beta.grad.data_mut()[ci] += dbeta as f32;
            for bi in 0..n {
                let base = (bi * c + ci) * h * w;
                for p in 0..h * w {
                    let dy = grad_output.data()[base + p];
                    let xh = cache.x_hat.data()[base + p];
                    let dx = if cache.mode == Mode::Train {
                        // Full batch-norm backward.
                        g * inv_std
                            * (dy - (sum_dy as f32) / count - xh * (sum_dy_xhat as f32) / count)
                    } else {
                        // Eval mode: statistics are constants.
                        g * inv_std * dy
                    };
                    grad_in.data_mut()[base + p] = dx;
                }
            }
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn batch_norms_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        vec![self]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known() {
        let mut rng = Rng64::new(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = lin.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = Rng64::new(2);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng);
        let y = lin.forward(&x, Mode::Train);
        let gx = lin.backward(&Tensor::ones(y.dims()));
        let eps = 1e-2;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (lin.forward(&xp, Mode::Train).sum() - lin.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2, "dX[{i}]");
        }
    }

    #[test]
    fn conv_layer_shapes_and_params() {
        let mut rng = Rng64::new(3);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::rand_normal(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        let gx = conv.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(conv.params_mut().len(), 2);
        // Gradients were accumulated.
        let wsum: f32 = conv.params_mut()[0]
            .grad
            .data()
            .iter()
            .map(|v| v.abs())
            .sum();
        assert!(wsum > 0.0);
    }

    #[test]
    fn batchnorm_normalises_batch() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Rng64::new(4);
        let x = Tensor::rand_normal(&[8, 2, 4, 4], 3.0, 2.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        // Per channel: mean ~ 0, var ~ 1.
        for c in 0..2 {
            let mut vals = Vec::new();
            for b in 0..8 {
                for p in 0..16 {
                    vals.push(y.data()[(b * 2 + c) * 16 + p]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = Rng64::new(5);
        // Train a few batches to populate running stats.
        for _ in 0..100 {
            let x = Tensor::rand_normal(&[16, 1, 2, 2], 5.0, 1.0, &mut rng);
            bn.forward(&x, Mode::Train);
        }
        // Eval on a shifted batch: output should NOT be normalised to
        // the batch's own stats but to the running ones (mean ~5).
        let x = Tensor::full(&[4, 1, 2, 2], 5.0);
        let y = bn.forward(&x, Mode::Eval);
        for &v in y.data() {
            // Running mean is an EMA of noisy batch means, so a small
            // residual offset remains.
            assert!(v.abs() < 0.2, "eval output {v} should be near 0");
        }
    }

    #[test]
    fn batchnorm_tracking_off_freezes_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.set_tracking(false);
        let before = bn.running_mean[0];
        let x = Tensor::full(&[4, 1, 2, 2], 100.0);
        bn.forward(&x, Mode::Train);
        assert_eq!(bn.running_mean[0], before);
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Rng64::new(6);
        let x = Tensor::rand_normal(&[3, 2, 2, 2], 0.0, 1.0, &mut rng);
        // Use a non-uniform output gradient so batch-stat terms matter.
        let gout = Tensor::rand_normal(&[3, 2, 2, 2], 0.0, 1.0, &mut rng);
        let _ = bn.forward(&x, Mode::Train);
        let gx = bn.backward(&gout);
        let eps = 1e-2;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| {
            let y = bn.forward(x, Mode::Train);
            y.mul(&gout).sum()
        };
        for &i in &[0usize, 5, 11, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[i]).abs() < 2e-2,
                "dX[{i}]: fd {fd} vs {}",
                gx.data()[i]
            );
        }
    }
}
