//! Shape bookkeeping for row-major tensors.

use std::fmt;

/// An owned tensor shape (list of dimension extents).
///
/// Row-major ("C") layout: the last dimension varies fastest.
///
/// # Example
///
/// ```
/// use smartpaf_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.offset(&[1, 2, 3]), 23);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; degenerate tensors are not
    /// needed anywhere in this workspace and banning them removes a
    /// class of edge cases from every kernel.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in shape {dims:?}"
        );
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.ndim()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides, in elements.
    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.dims.len(), "index rank mismatch");
        let strides = self.strides();
        idx.iter()
            .zip(&self.dims)
            .zip(&strides)
            .map(|((&i, &d), &s)| {
                assert!(i < d, "index {i} out of bounds for dim of extent {d}");
                i * s
            })
            .sum()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn offset_matches_manual() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 2]), 14);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_oob_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        Shape::new(&[3, 0]);
    }

    #[test]
    fn scalar_rank_zero() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }
}
