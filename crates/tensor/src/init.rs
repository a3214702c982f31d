//! Deterministic random number generation.
//!
//! Everything stochastic in the workspace flows through [`Rng64`], a
//! small splitmix64/xoshiro-style generator with an explicit seed, so
//! that every experiment is exactly reproducible.

/// A deterministic 64-bit PRNG (xoshiro256++ seeded via splitmix64).
///
/// # Example
///
/// ```
/// use smartpaf_tensor::Rng64;
///
/// let mut a = Rng64::new(1);
/// let mut b = Rng64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
    cached_gaussian: Option<f32>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 {
            s,
            cached_gaussian: None,
        }
    }

    /// Derives an independent child generator; used to give each layer
    /// or dataset shard its own stream.
    pub fn fork(&mut self, tag: u64) -> Rng64 {
        Rng64::new(self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // 24 high bits -> exactly representable in f32.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below(0)");
        // Rejection-free modulo is fine here: n is tiny vs 2^64 so the
        // bias is far below f32 noise in any experiment.
        (self.next_u64() % n as u64) as usize
    }

    /// Standard Gaussian via Box-Muller (cached pair).
    pub fn next_gaussian(&mut self) -> f32 {
        if let Some(g) = self.cached_gaussian.take() {
            return g;
        }
        // Avoid log(0).
        let u1 = (self.next_f64()).max(1e-300);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_gaussian = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i + 1);
            xs.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = Rng64::new(5);
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng64::new(9);
        let n = 50_000;
        let xs: Vec<f32> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn permutation_is_bijection() {
        let mut r = Rng64::new(3);
        let mut p = r.permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_gives_independent_streams() {
        let mut root = Rng64::new(10);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn next_below_bounds() {
        let mut r = Rng64::new(17);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
    }
}
