//! Deterministic synthetic image-classification datasets.
//!
//! The paper evaluates on CIFAR-10 and ImageNet-1k, neither of which
//! is available in this environment. We replace them with
//! *synthetic* tasks at two difficulty levels that preserve the
//! paper's relevant structure:
//!
//! * [`SynthSpec::cifar_like`] — 10 classes, mild intra-class
//!   variation: easy, like CIFAR-10 relative to ImageNet.
//! * [`SynthSpec::imagenet_like`] — 100 classes, strong jitter,
//!   distractor patterns from other classes: hard. Approximation
//!   error hurts it much more, reproducing the paper's §5.4.4
//!   dataset-complexity effect.
//!
//! Every sample is a pure function of `(dataset seed, split, index)`,
//! so experiments are exactly reproducible.

use smartpaf_tensor::{Rng64, Tensor};

/// Which split a sample belongs to (train and validation samples use
/// disjoint random streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Training split.
    Train,
    /// Validation split.
    Val,
}

impl Split {
    fn tag(self) -> u64 {
        match self {
            Split::Train => 0x5452_4149,
            Split::Val => 0x5641_4C00,
        }
    }
}

/// Generation parameters for a synthetic dataset.
#[derive(Debug, Clone, Copy)]
pub struct SynthSpec {
    /// Number of classes.
    pub classes: usize,
    /// Image height and width.
    pub image_size: usize,
    /// Channels (3 everywhere in the paper's models).
    pub channels: usize,
    /// Per-pixel Gaussian noise standard deviation.
    pub noise_std: f32,
    /// Strength of the per-sample smooth deformation field.
    pub jitter: f32,
    /// Weight of a distractor prototype mixed in from another class
    /// (0 disables distractors).
    pub distractor: f32,
    /// Master seed.
    pub seed: u64,
}

impl SynthSpec {
    /// The easy task standing in for CIFAR-10.
    pub fn cifar_like(seed: u64) -> Self {
        SynthSpec {
            classes: 10,
            image_size: 32,
            channels: 3,
            noise_std: 0.25,
            jitter: 0.4,
            distractor: 0.0,
            seed,
        }
    }

    /// The hard task standing in for ImageNet-1k (more classes, heavy
    /// jitter, distractor textures).
    pub fn imagenet_like(seed: u64) -> Self {
        SynthSpec {
            classes: 100,
            image_size: 32,
            channels: 3,
            noise_std: 0.45,
            jitter: 0.8,
            distractor: 0.35,
            seed,
        }
    }

    /// A tiny variant for fast unit tests and CI-sized experiments.
    pub fn tiny(seed: u64) -> Self {
        SynthSpec {
            classes: 4,
            image_size: 16,
            channels: 3,
            noise_std: 0.2,
            jitter: 0.3,
            distractor: 0.0,
            seed,
        }
    }
}

/// A deterministic synthetic dataset.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    spec: SynthSpec,
    prototypes: Vec<Tensor>, // per class, [C, H, W]
}

/// Generates a smooth random field by bilinear upsampling of a coarse
/// random grid — class prototypes and deformations are "image-like"
/// (spatially correlated) rather than white noise.
fn smooth_field(c: usize, h: usize, w: usize, coarse: usize, amp: f32, rng: &mut Rng64) -> Tensor {
    let grid = Tensor::rand_normal(&[c, coarse, coarse], 0.0, amp, rng);
    let mut out = Tensor::zeros(&[c, h, w]);
    for ci in 0..c {
        for i in 0..h {
            for j in 0..w {
                let fy = i as f32 / h as f32 * (coarse - 1) as f32;
                let fx = j as f32 / w as f32 * (coarse - 1) as f32;
                let (y0, x0) = (fy as usize, fx as usize);
                let (y1, x1) = ((y0 + 1).min(coarse - 1), (x0 + 1).min(coarse - 1));
                let (dy, dx) = (fy - y0 as f32, fx - x0 as f32);
                let v = grid.at(&[ci, y0, x0]) * (1.0 - dy) * (1.0 - dx)
                    + grid.at(&[ci, y1, x0]) * dy * (1.0 - dx)
                    + grid.at(&[ci, y0, x1]) * (1.0 - dy) * dx
                    + grid.at(&[ci, y1, x1]) * dy * dx;
                out.set(&[ci, i, j], v);
            }
        }
    }
    out
}

impl SynthDataset {
    /// Builds the dataset (generates the class prototypes).
    pub fn new(spec: SynthSpec) -> Self {
        let mut rng = Rng64::new(spec.seed);
        let prototypes = (0..spec.classes)
            .map(|c| {
                let mut crng = rng.fork(c as u64 + 1);
                smooth_field(
                    spec.channels,
                    spec.image_size,
                    spec.image_size,
                    5,
                    1.0,
                    &mut crng,
                )
            })
            .collect();
        SynthDataset { spec, prototypes }
    }

    /// Generation parameters.
    pub fn spec(&self) -> &SynthSpec {
        &self.spec
    }

    /// The label of sample `index` (round-robin over classes, so every
    /// batch of `k * classes` samples is exactly class-balanced).
    pub fn label(&self, index: usize) -> usize {
        index % self.spec.classes
    }

    /// Generates sample `index` of a split: `([C, H, W], label)`.
    pub fn sample(&self, split: Split, index: usize) -> (Tensor, usize) {
        let label = self.label(index);
        let mut rng = Rng64::new(
            self.spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(split.tag())
                .wrapping_add((index as u64).wrapping_mul(0x100_0000_01B3)),
        );
        let s = &self.spec;
        let scale = 0.8 + 0.4 * rng.next_f32();
        let mut img = self.prototypes[label].scale(scale);
        if s.jitter > 0.0 {
            let deform = smooth_field(
                s.channels,
                s.image_size,
                s.image_size,
                4,
                s.jitter,
                &mut rng,
            );
            img.add_assign(&deform);
        }
        if s.distractor > 0.0 && s.classes > 1 {
            let other = (label + 1 + rng.next_below(s.classes - 1)) % s.classes;
            img.axpy(s.distractor, &self.prototypes[other]);
        }
        if s.noise_std > 0.0 {
            let noise = Tensor::rand_normal(img.dims(), 0.0, s.noise_std, &mut rng);
            img.add_assign(&noise);
        }
        (img, label)
    }

    /// Generates a batch: `([N, C, H, W], labels)` for samples
    /// `start..start+n` of a split.
    pub fn batch(&self, split: Split, start: usize, n: usize) -> (Tensor, Vec<usize>) {
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in start..start + n {
            let (img, l) = self.sample(split, i);
            images.push(img);
            labels.push(l);
        }
        (Tensor::stack(&images), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic() {
        let ds = SynthDataset::new(SynthSpec::tiny(7));
        let (a, la) = ds.sample(Split::Train, 5);
        let (b, lb) = ds.sample(Split::Train, 5);
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn splits_differ() {
        let ds = SynthDataset::new(SynthSpec::tiny(7));
        let (a, _) = ds.sample(Split::Train, 5);
        let (b, _) = ds.sample(Split::Val, 5);
        assert_ne!(a, b);
    }

    #[test]
    fn labels_round_robin() {
        let ds = SynthDataset::new(SynthSpec::tiny(1));
        let (_, labels) = ds.batch(Split::Train, 0, 8);
        assert_eq!(labels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn batch_shape() {
        let ds = SynthDataset::new(SynthSpec::tiny(2));
        let (x, labels) = ds.batch(Split::Val, 4, 6);
        assert_eq!(x.dims(), &[6, 3, 16, 16]);
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn same_class_samples_correlate_more_than_cross_class() {
        let ds = SynthDataset::new(SynthSpec::cifar_like(3));
        // Cosine similarity of two samples of class 0 vs class 0 and 1.
        let (a, _) = ds.sample(Split::Train, 0);
        let (b, _) = ds.sample(Split::Train, 10); // class 0 again
        let (c, _) = ds.sample(Split::Train, 1); // class 1
        let cos = |x: &Tensor, y: &Tensor| x.dot(y) / (x.norm() * y.norm());
        assert!(
            cos(&a, &b) > cos(&a, &c),
            "intra {} vs inter {}",
            cos(&a, &b),
            cos(&a, &c)
        );
    }

    #[test]
    fn imagenet_like_is_harder_than_cifar_like() {
        // Harder = lower intra-class correlation relative to inter.
        let easy = SynthDataset::new(SynthSpec::cifar_like(4));
        let hard = SynthDataset::new(SynthSpec::imagenet_like(4));
        let margin = |ds: &SynthDataset| {
            let cls = ds.spec().classes;
            let (a, _) = ds.sample(Split::Train, 0);
            let (b, _) = ds.sample(Split::Train, cls); // same class
            let (c, _) = ds.sample(Split::Train, 1); // next class
            let cos = |x: &Tensor, y: &Tensor| x.dot(y) / (x.norm() * y.norm());
            cos(&a, &b) - cos(&a, &c)
        };
        assert!(
            margin(&easy) > margin(&hard),
            "easy margin {} vs hard margin {}",
            margin(&easy),
            margin(&hard)
        );
    }

    #[test]
    fn different_seeds_give_different_prototypes() {
        let a = SynthDataset::new(SynthSpec::tiny(1));
        let b = SynthDataset::new(SynthSpec::tiny(2));
        assert_ne!(a.sample(Split::Train, 0).0, b.sample(Split::Train, 0).0);
    }

    #[test]
    fn smooth_field_is_spatially_correlated() {
        let mut rng = Rng64::new(9);
        let f = smooth_field(1, 16, 16, 4, 1.0, &mut rng);
        // Neighbouring pixels should be closer than distant ones.
        let mut near = 0.0;
        let mut far = 0.0;
        let mut count = 0;
        for i in 0..15 {
            for j in 0..15 {
                near += (f.at(&[0, i, j]) - f.at(&[0, i, j + 1])).abs();
                far += (f.at(&[0, i, j]) - f.at(&[0, 15 - i, 15 - j])).abs();
                count += 1;
            }
        }
        assert!(near / count as f32 <= far / count as f32);
    }
}
