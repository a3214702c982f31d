//! Negacyclic number-theoretic transform over `Z_q[X]/(X^n + 1)`.
//!
//! Standard Cooley-Tukey / Gentleman-Sande butterflies with
//! bit-reversed tables of powers of a primitive `2n`-th root `psi`
//! (Longa-Naehrig formulation). Polynomial multiplication in the ring
//! is pointwise multiplication between forward transforms.
//!
//! # Lazy reduction
//!
//! The butterflies run Harvey-style *lazy* modular arithmetic: every
//! twiddle multiply is a two-multiply Shoup product returning a
//! representative in `[0, 2q)`, and butterfly outputs are allowed to
//! drift up to `[0, 4q)` between passes. A single normalization pass
//! at the end folds everything back to canonical `[0, q)` form, so
//! `forward`/`inverse` return **bit-identical** results to a fully
//! reduced implementation — the laziness is invisible outside this
//! module (and is `debug_assert!`-checked inside it; see the
//! `debug-asserts` CI job). This requires `q < 2^62` so `4q` fits in
//! a `u64`, which [`crate::modular::ntt_primes`] guarantees.
//!
//! The butterflies are branch-free on data: every fold above is a
//! select inside [`crate::modular::PrimeArith`], never an `if` on a
//! residue, so a transform costs the same on a ciphertext's uniformly
//! random residues as on a structured vector (as branches, the five
//! corrections of the final forward stage mispredicted half the time
//! on the former: 65 µs against 36 at n = 4096).

use crate::modular::{add_mod, inv_mod, mul_mod, primitive_root_2n, sub_mod, PrimeArith};

/// Precomputed NTT tables for one prime.
#[derive(Debug, Clone)]
pub struct NttTable {
    /// The prime modulus.
    pub q: u64,
    n: usize,
    arith: PrimeArith,
    psi_brv: Vec<u64>,
    psi_brv_shoup: Vec<u64>,
    ipsi_brv: Vec<u64>,
    ipsi_brv_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
}

#[cfg(test)]
thread_local! {
    /// Transform passes (forward and inverse) executed on this thread,
    /// so tests can hold `cost.rs`'s analytic NTT counts to the
    /// executed kernels. Meaningful at a thread budget of 1.
    pub(crate) static NTT_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

pub(crate) fn bit_reverse(i: usize, log_n: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - log_n)
}

impl NttTable {
    /// Builds tables for ring dimension `n` (power of two) and prime
    /// `q ≡ 1 mod 2n`. Each twiddle is stored together with its Shoup
    /// companion `floor(w * 2^64 / q)` so the butterflies never touch
    /// a hardware division.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `q` is not NTT-friendly.
    pub fn new(q: u64, n: usize) -> Self {
        assert!(n.is_power_of_two(), "n must be a power of two");
        let arith = PrimeArith::new(q);
        let log_n = n.trailing_zeros();
        let psi = primitive_root_2n(q, n);
        let ipsi = inv_mod(psi, q);
        let mut psi_brv = vec![0u64; n];
        let mut ipsi_brv = vec![0u64; n];
        let mut p = 1u64;
        let mut ip = 1u64;
        for i in 0..n {
            psi_brv[bit_reverse(i, log_n)] = p;
            ipsi_brv[bit_reverse(i, log_n)] = ip;
            p = mul_mod(p, psi, q);
            ip = mul_mod(ip, ipsi, q);
        }
        let psi_brv_shoup = psi_brv.iter().map(|&w| arith.shoup(w)).collect();
        let ipsi_brv_shoup = ipsi_brv.iter().map(|&w| arith.shoup(w)).collect();
        let n_inv = inv_mod(n as u64, q);
        NttTable {
            q,
            n,
            arith,
            psi_brv,
            psi_brv_shoup,
            ipsi_brv,
            ipsi_brv_shoup,
            n_inv,
            n_inv_shoup: arith.shoup(n_inv),
        }
    }

    /// Ring dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The prime's precomputed Barrett/Shoup constants, shared with
    /// callers that do pointwise arithmetic on transformed data.
    #[inline]
    pub fn arith(&self) -> &PrimeArith {
        &self.arith
    }

    /// In-place forward negacyclic NTT.
    ///
    /// Cooley-Tukey butterflies with lazy reduction: working values
    /// stay in `[0, 4q)` across passes (inputs are folded to `[0, 2q)`
    /// just before each butterfly), and one final pass normalizes the
    /// output to canonical `[0, q)` residues — identical to what a
    /// fully reduced transform would produce.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        #[cfg(test)]
        NTT_PASSES.with(|c| c.set(c.get() + 1));
        let pa = self.arith;
        let two_q = pa.two_q();
        if self.n == 1 {
            return; // single-coefficient ring: the transform is the identity
        }
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t /= 2;
            if t == 1 {
                // Final stage: normalize in the butterfly itself rather
                // than in a separate sweep over the whole array.
                for (i, block) in a.chunks_exact_mut(2).enumerate() {
                    let s = self.psi_brv[m + i];
                    let s_shoup = self.psi_brv_shoup[m + i];
                    let u = pa.reduce_once(block[0]);
                    let v = pa.mul_shoup_lazy(block[1], s, s_shoup);
                    block[0] = pa.normalize(u + v);
                    block[1] = pa.normalize(u + two_q - v);
                }
            } else {
                // Each block of 2t elements splits into a low and a
                // high half sharing one twiddle; the zipped halves
                // compile to a bounds-check-free inner loop.
                for (i, block) in a.chunks_exact_mut(2 * t).enumerate() {
                    let s = self.psi_brv[m + i];
                    let s_shoup = self.psi_brv_shoup[m + i];
                    let (lo, hi) = block.split_at_mut(t);
                    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                        // u in [0, 2q), v in [0, 2q) => outputs in [0, 4q).
                        let u = pa.reduce_once(*x);
                        let v = pa.mul_shoup_lazy(*y, s, s_shoup);
                        *x = u + v;
                        *y = u + two_q - v;
                    }
                }
            }
            m *= 2;
        }
    }

    /// In-place inverse negacyclic NTT.
    ///
    /// Gentleman-Sande butterflies with lazy reduction (values in
    /// `[0, 2q)` between passes); the final multiply by `n^-1` is a
    /// Shoup product normalized to `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        #[cfg(test)]
        NTT_PASSES.with(|c| c.set(c.get() + 1));
        let pa = self.arith;
        let two_q = pa.two_q();
        let mut t = 1;
        let mut m = self.n;
        while m > 1 {
            let h = m / 2;
            for (i, block) in a.chunks_exact_mut(2 * t).enumerate() {
                let s = self.ipsi_brv[h + i];
                let s_shoup = self.ipsi_brv_shoup[h + i];
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // u, v in [0, 2q): sum folded back to [0, 2q),
                    // difference (shifted by 2q) fed to the lazy
                    // Shoup product which tolerates any u64.
                    let u = *x;
                    let v = *y;
                    debug_assert!(u < two_q && v < two_q);
                    *x = pa.reduce_once(u + v);
                    *y = pa.mul_shoup_lazy(u + two_q - v, s, s_shoup);
                }
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = pa.mul_shoup(*x, self.n_inv, self.n_inv_shoup);
        }
    }

    /// Schoolbook negacyclic multiplication — O(n²) reference used only
    /// by tests to validate the NTT path.
    pub fn negacyclic_mul_reference(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = self.n;
        let q = self.q;
        let mut out = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                let prod = mul_mod(ai, bj, q);
                let k = i + j;
                if k < n {
                    out[k] = add_mod(out[k], prod, q);
                } else {
                    out[k - n] = sub_mod(out[k - n], prod, q);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::{ntt_primes, pow_mod};

    fn table(n: usize) -> NttTable {
        let q = ntt_primes(40, 1, n)[0];
        NttTable::new(q, n)
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let t = table(64);
        let orig: Vec<u64> = (0..64).map(|i| (i * i + 7) as u64 % t.q).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        assert_ne!(a, orig, "forward must change representation");
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn pointwise_mul_matches_schoolbook() {
        let t = table(32);
        let a: Vec<u64> = (0..32).map(|i| (i * 31 + 5) as u64).collect();
        let b: Vec<u64> = (0..32).map(|i| (i * 17 + 11) as u64).collect();
        let expect = t.negacyclic_mul_reference(&a, &b);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| mul_mod(x, y, t.q))
            .collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn x_times_x_pow_nminus1_is_minus_one() {
        // X * X^(n-1) = X^n = -1 in the negacyclic ring.
        let t = table(16);
        let mut a = vec![0u64; 16];
        a[1] = 1;
        let mut b = vec![0u64; 16];
        b[15] = 1;
        let c = t.negacyclic_mul_reference(&a, &b);
        let mut expect = vec![0u64; 16];
        expect[0] = t.q - 1;
        assert_eq!(c, expect);
    }

    #[test]
    fn ntt_is_linear() {
        let t = table(32);
        let a: Vec<u64> = (0..32).map(|i| (i * 13) as u64).collect();
        let b: Vec<u64> = (0..32).map(|i| (i * 29 + 3) as u64).collect();
        let sum: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| add_mod(x, y, t.q))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        for i in 0..32 {
            assert_eq!(fs[i], add_mod(fa[i], fb[i], t.q));
        }
    }

    #[test]
    fn constant_poly_transforms_to_constant_slots() {
        let t = table(16);
        let mut a = vec![0u64; 16];
        a[0] = 42;
        t.forward(&mut a);
        assert!(a.iter().all(|&x| x == 42));
    }

    #[test]
    fn works_at_large_dimension() {
        let t = table(4096);
        let mut a: Vec<u64> = (0..4096).map(|i| i as u64 * 997 % t.q).collect();
        let orig = a.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn sixty_bit_prime_roundtrip() {
        let q = ntt_primes(60, 1, 256)[0];
        let t = NttTable::new(q, 256);
        let mut a: Vec<u64> = (0..256).map(|i| pow_mod(3, i as u64, q)).collect();
        let orig = a.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn outputs_are_canonical_residues() {
        // Lazy reduction must be invisible: every output < q even for
        // worst-case all-(q-1) inputs at the largest supported primes.
        for bits in [40u32, 60, 62] {
            let q = ntt_primes(bits, 1, 128)[0];
            let t = NttTable::new(q, 128);
            let mut a = vec![q - 1; 128];
            t.forward(&mut a);
            assert!(a.iter().all(|&x| x < q), "forward output escaped [0, q)");
            t.inverse(&mut a);
            assert!(a.iter().all(|&x| x < q), "inverse output escaped [0, q)");
            assert!(a.iter().all(|&x| x == q - 1), "roundtrip drifted");
        }
    }

    /// Plain Cooley-Tukey butterflies reducing through `mul_mod` at
    /// every step: the pre-Shoup, fully reduced forward transform.
    fn reference_forward(t: &NttTable, a: &mut [u64]) {
        let (n, q) = (t.n, t.q);
        let mut tt = n;
        let mut m = 1;
        while m < n {
            tt /= 2;
            for i in 0..m {
                let j1 = 2 * i * tt;
                let s = t.psi_brv[m + i];
                for j in j1..j1 + tt {
                    let u = a[j];
                    let v = mul_mod(a[j + tt], s, q);
                    a[j] = add_mod(u, v, q);
                    a[j + tt] = sub_mod(u, v, q);
                }
            }
            m *= 2;
        }
    }

    /// The fully reduced Gentleman-Sande inverse of [`reference_forward`].
    fn reference_inverse(t: &NttTable, a: &mut [u64]) {
        let (n, q) = (t.n, t.q);
        let mut tt = 1;
        let mut m = n;
        while m > 1 {
            let h = m / 2;
            for i in 0..h {
                let j1 = 2 * i * tt;
                let s = t.ipsi_brv[h + i];
                for j in j1..j1 + tt {
                    let (u, v) = (a[j], a[j + tt]);
                    a[j] = add_mod(u, v, q);
                    a[j + tt] = mul_mod(sub_mod(u, v, q), s, q);
                }
            }
            tt *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = mul_mod(*x, t.n_inv, q);
        }
    }

    #[test]
    fn matches_fully_reduced_reference_transform() {
        // Pin bit-identity against the pre-Shoup formulation on the
        // structured input the kernel benches used to feed, and on the
        // uniformly random residues a ciphertext holds — at the prime
        // sizes of the presets and at the largest admissible one.
        let small = table(64);
        let structured: Vec<u64> = (0..64).map(|i| (i as u64 * 7919 + 13) % small.q).collect();
        let mut rng = smartpaf_tensor::Rng64::new(0x5EED_0177);
        let mut cases = vec![(small, structured)];
        for bits in [40u32, 60, 62] {
            let t = NttTable::new(ntt_primes(bits, 1, 4096)[0], 4096);
            let random = (0..4096).map(|_| rng.next_u64() % t.q).collect();
            cases.push((t, random));
        }
        for (t, input) in cases {
            let (mut lazy, mut plain) = (input.clone(), input.clone());
            t.forward(&mut lazy);
            reference_forward(&t, &mut plain);
            assert_eq!(lazy, plain, "lazy forward NTT diverged, q={}", t.q);
            let (mut lazy, mut plain) = (input.clone(), input);
            t.inverse(&mut lazy);
            reference_inverse(&t, &mut plain);
            assert_eq!(lazy, plain, "lazy inverse NTT diverged, q={}", t.q);
        }
    }
}
