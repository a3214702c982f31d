//! The core dense tensor type.

use crate::init::Rng64;
use crate::shape::Shape;
use std::fmt;

/// A contiguous, row-major, `f32` dense tensor.
///
/// This is the single data type flowing through the whole workspace:
/// activations, weights, gradients, profiled distributions.
///
/// # Example
///
/// ```
/// use smartpaf_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { data, shape }
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Identity matrix of size `n`×`n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Uniform random tensor in `[lo, hi)`, deterministic in `rng`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel())
            .map(|_| lo + (hi - lo) * rng.next_f32())
            .collect();
        Tensor { data, shape }
    }

    /// Gaussian random tensor with the given mean and standard deviation.
    pub fn rand_normal(dims: &[usize], mean: f32, std: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel())
            .map(|_| mean + std * rng.next_gaussian())
            .collect();
        Tensor { data, shape }
    }

    /// Evenly spaced values from `start` with step `step`.
    pub fn arange(n: usize, start: f32, step: f32) -> Self {
        let data = (0..n).map(|i| start + step * i as f32).collect();
        Tensor::from_vec(data, &[n])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds index.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into {}",
            self.numel(),
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Returns the row `i` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D and `i` is in bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape.dim(1);
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Extracts sample `i` of a batched tensor (first axis), keeping the
    /// remaining axes.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is 0-D or `i` is out of bounds.
    pub fn slice_batch(&self, i: usize) -> Tensor {
        assert!(self.shape.ndim() >= 1, "slice_batch requires rank >= 1");
        let n = self.shape.dim(0);
        assert!(i < n, "batch index {i} out of bounds ({n})");
        let rest: Vec<usize> = self.shape.dims()[1..].to_vec();
        let chunk = self.numel() / n;
        let dims = if rest.is_empty() { vec![1] } else { rest };
        Tensor::from_vec(self.data[i * chunk..(i + 1) * chunk].to_vec(), &dims)
    }

    /// Concatenates tensors along a new leading batch axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "stack of zero tensors");
        let inner = items[0].shape.clone();
        let mut data = Vec::with_capacity(items.len() * inner.numel());
        for t in items {
            assert_eq!(t.shape, inner, "stack shape mismatch");
            data.extend_from_slice(&t.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(inner.dims());
        Tensor::from_vec(data, &dims)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={}, data[..{}]={:?}{})",
            self.shape,
            preview.len(),
            preview,
            if self.numel() > 8 { ", ..." } else { "" }
        )
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn set_and_map() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 1], 5.0);
        let u = t.map(|x| x * 2.0);
        assert_eq!(u.at(&[1, 1]), 10.0);
        assert_eq!(u.at(&[0, 0]), 0.0);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::arange(12, 0.0, 1.0);
        let m = t.reshape(&[3, 4]);
        assert_eq!(m.at(&[2, 3]), 11.0);
        let back = m.reshape(&[12]);
        assert_eq!(back.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_bad_count() {
        Tensor::zeros(&[4]).reshape(&[3]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).data(), a.data());
        assert_eq!(i.matmul(&a).data(), a.data());
    }

    #[test]
    fn stack_and_slice_batch() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.slice_batch(0), a);
        assert_eq!(s.slice_batch(1), b);
    }

    #[test]
    fn rand_deterministic() {
        let mut r1 = Rng64::new(42);
        let mut r2 = Rng64::new(42);
        let a = Tensor::rand_uniform(&[8], 0.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform(&[8], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn rand_normal_moments() {
        let mut rng = Rng64::new(7);
        let t = Tensor::rand_normal(&[20000], 1.0, 2.0, &mut rng);
        let mean = t.data().iter().sum::<f32>() / t.numel() as f32;
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.numel() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }
}
