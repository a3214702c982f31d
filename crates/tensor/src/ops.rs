//! Elementwise, reduction, and linear-algebra operations on [`Tensor`].

use crate::tensor::Tensor;

impl Tensor {
    /// Elementwise sum of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// `self += alpha * other`, the classic AXPY update.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data().iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value; the quantity Dynamic Scaling divides by.
    pub fn abs_max(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor (impossible by construction).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &x) in self.data().iter().enumerate() {
            if x > best_v {
                best_v = x;
                best = i;
            }
        }
        best
    }

    /// Row-wise argmax of a 2-D tensor; used for classification accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape().ndim(), 2, "argmax_rows requires a 2-D tensor");
        (0..self.shape().dim(0))
            .map(|i| {
                let row = self.row(i);
                let mut best = 0;
                for (j, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Dense matrix multiplication of 2-D tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Simple ikj-ordered kernel; fast enough for the scaled models used
    /// in the experiments and exactly reproducible.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are 2-D with matching inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape().ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "transpose2d requires a 2-D tensor");
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.dot(self).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims)
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_updates() {
        let mut a = t(&[1.0, 1.0], &[2]);
        a.axpy(0.5, &t(&[2.0, 4.0], &[2]));
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -3.0, 2.0, 0.0], &[4]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -3.0);
        assert_eq!(a.abs_max(), 3.0);
        assert_eq!(a.argmax(), 2);
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transpose_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose2d();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.transpose2d(), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dim_mismatch() {
        t(&[1.0, 2.0], &[1, 2]).matmul(&t(&[1.0], &[1, 1]));
    }

    #[test]
    fn argmax_rows_ties_first() {
        let a = t(&[1.0, 1.0, 0.0, 0.5, 0.9, 0.9], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn dot_and_norm() {
        let a = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm(), 5.0);
    }
}
