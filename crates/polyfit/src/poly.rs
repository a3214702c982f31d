//! Dense univariate polynomials over `f64`.

use std::fmt;

/// A polynomial with coefficients in ascending degree order:
/// `coeffs[i]` multiplies `x^i`.
///
/// # Example
///
/// ```
/// use smartpaf_polyfit::Polynomial;
///
/// // 1.5x - 0.5x^3  (the Cheon f1 base)
/// let f1 = Polynomial::new(vec![0.0, 1.5, 0.0, -0.5]);
/// assert_eq!(f1.eval(1.0), 1.0);
/// assert_eq!(f1.eval(-1.0), -1.0);
/// assert_eq!(f1.degree(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending coefficients. Trailing zeros
    /// are trimmed (the zero polynomial keeps one coefficient).
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.len() > 1 && coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        if coeffs.is_empty() {
            coeffs.push(0.0);
        }
        Polynomial { coeffs }
    }

    /// An odd polynomial from its odd-degree coefficients:
    /// `odd[i]` multiplies `x^(2i+1)`.
    ///
    /// This is the natural representation for sign-approximation bases,
    /// which are all odd (paper App. B, Eq. 5).
    pub fn from_odd(odd: &[f64]) -> Self {
        let mut coeffs = vec![0.0; odd.len() * 2];
        for (i, &c) in odd.iter().enumerate() {
            coeffs[2 * i + 1] = c;
        }
        Polynomial::new(coeffs)
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: vec![0.0] }
    }

    /// The identity polynomial `x`.
    pub fn identity() -> Self {
        Polynomial {
            coeffs: vec![0.0, 1.0],
        }
    }

    /// Coefficients in ascending degree order.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Mutable coefficients in ascending degree order.
    pub fn coeffs_mut(&mut self) -> &mut [f64] {
        &mut self.coeffs
    }

    /// Odd-degree coefficients `[c1, c3, c5, ...]` (ignores even terms).
    pub fn odd_coeffs(&self) -> Vec<f64> {
        self.coeffs.iter().skip(1).step_by(2).copied().collect()
    }

    /// Degree of the polynomial (0 for constants, including zero).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// True when all even-degree coefficients vanish.
    pub fn is_odd_function(&self) -> bool {
        self.coeffs.iter().step_by(2).all(|&c| c == 0.0)
    }

    /// Horner evaluation.
    ///
    /// For repeated evaluation prefer [`crate::PolyEval`], which packs
    /// an odd function's odd coefficients once (Horner in `y = x²`)
    /// and evaluates slices through a lane loop.
    pub fn eval(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// First derivative.
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() == 1 {
            return Polynomial::zero();
        }
        Polynomial::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, &c)| c * i as f64)
                .collect(),
        )
    }

    /// Polynomial sum.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Polynomial::new(out)
    }

    /// Polynomial product.
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut out = vec![0.0; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Polynomial::new(out)
    }

    /// Scales all coefficients by `alpha`.
    pub fn scale(&self, alpha: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|&c| c * alpha).collect())
    }

    /// Functional composition `self(other(x))`, expanded symbolically.
    pub fn compose(&self, inner: &Polynomial) -> Polynomial {
        // Horner over polynomials.
        let mut acc = Polynomial::zero();
        for &c in self.coeffs.iter().rev() {
            acc = acc.mul(inner).add(&Polynomial::new(vec![c]));
        }
        acc
    }

    /// Maximum absolute error against `f` on a uniform grid over `[lo, hi]`.
    pub fn max_error_on(&self, f: impl Fn(f64) -> f64, lo: f64, hi: f64, samples: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..samples {
            let x = lo + (hi - lo) * i as f64 / (samples - 1) as f64;
            worst = worst.max((self.eval(x) - f(x)).abs());
        }
        worst
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 && self.coeffs.len() > 1 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match i {
                0 => write!(f, "{a:.6}")?,
                1 => write!(f, "{a:.6}*x")?,
                _ => write!(f, "{a:.6}*x^{i}")?,
            }
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_horner_by_hand() {
        let p = Polynomial::new(vec![1.0, -2.0, 3.0]); // 1 - 2x + 3x^2
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(1.0), 2.0);
        assert_eq!(p.eval(2.0), 9.0);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn trailing_zeros_trimmed() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(Polynomial::new(vec![0.0, 0.0]).degree(), 0);
    }

    #[test]
    fn from_odd_layout() {
        let p = Polynomial::from_odd(&[1.5, -0.5]); // 1.5x - 0.5x^3
        assert_eq!(p.coeffs(), &[0.0, 1.5, 0.0, -0.5]);
        assert!(p.is_odd_function());
        assert_eq!(p.odd_coeffs(), vec![1.5, -0.5]);
    }

    #[test]
    fn eval_odd_zero_polynomial() {
        // The packed-odd evaluation that replaced Polynomial::eval_odd
        // must handle an empty odd-coefficient vector.
        let pe = crate::PolyEval::with_plan(&Polynomial::zero(), crate::EvalPlan::OddHorner);
        assert_eq!(pe.eval(0.7), 0.0);
    }

    #[test]
    fn eval_odd_with_zero_leading_odd_coeff() {
        // coeffs_mut can zero the top odd coefficient without trimming;
        // the packed odd evaluation must still be correct.
        let mut p = Polynomial::from_odd(&[1.5, -0.5]);
        p.coeffs_mut()[3] = 0.0;
        let pe = crate::PolyEval::with_plan(&p, crate::EvalPlan::OddHorner);
        assert!((pe.eval(0.5) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn derivative_known() {
        let p = Polynomial::new(vec![5.0, 1.0, 2.0, 3.0]); // 5 + x + 2x^2 + 3x^3
        assert_eq!(p.derivative().coeffs(), &[1.0, 4.0, 9.0]);
        assert_eq!(Polynomial::new(vec![7.0]).derivative(), Polynomial::zero());
    }

    #[test]
    fn mul_and_add() {
        let a = Polynomial::new(vec![1.0, 1.0]); // 1 + x
        let b = Polynomial::new(vec![-1.0, 1.0]); // -1 + x
        assert_eq!(a.mul(&b).coeffs(), &[-1.0, 0.0, 1.0]); // x^2 - 1
        assert_eq!(a.add(&b).coeffs(), &[0.0, 2.0]);
    }

    #[test]
    fn compose_expands_correctly() {
        // p(x) = x^2, q(x) = x + 1 -> p(q(x)) = x^2 + 2x + 1
        let p = Polynomial::new(vec![0.0, 0.0, 1.0]);
        let q = Polynomial::new(vec![1.0, 1.0]);
        assert_eq!(p.compose(&q).coeffs(), &[1.0, 2.0, 1.0]);
    }

    #[test]
    fn compose_agrees_with_pointwise() {
        let f = Polynomial::from_odd(&[1.875, -1.25, 0.375]); // f2
        let g = Polynomial::from_odd(&[2.0762, -1.3271]); // g1
        let comp = f.compose(&g);
        for i in -8..=8 {
            let x = i as f64 / 8.0;
            assert!((comp.eval(x) - f.eval(g.eval(x))).abs() < 1e-9);
        }
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Polynomial::zero()).is_empty());
        let s = format!("{}", Polynomial::from_odd(&[1.5, -0.5]));
        assert!(s.contains("x^3"), "{s}");
    }

    #[test]
    fn max_error_of_exact_match_is_zero() {
        let p = Polynomial::new(vec![0.0, 1.0]);
        assert_eq!(p.max_error_on(|x| x, -1.0, 1.0, 101), 0.0);
    }
}
