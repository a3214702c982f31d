//! 64-bit prime-field arithmetic and NTT-friendly prime generation.
//!
//! Two tiers of kernels live here:
//!
//! - **Portable helpers** (`add_mod`, `sub_mod`, `mul_mod`, …) that
//!   reduce through a 128-bit remainder. Correct for any `q < 2^63`
//!   but each `mul_mod` costs a hardware division.
//! - **[`PrimeArith`]**: precomputed Barrett and Shoup constants for
//!   one fixed prime, replacing every division in the hot loops with
//!   two or three multiplies. All `PrimeArith` kernels compute exactly
//!   the same residues as the portable helpers — they are drop-in
//!   *representation-preserving* replacements, so swapping them in
//!   cannot change any ciphertext bit.
//!
//! Lazy-reduction variants (`*_lazy`) return representatives in
//! `[0, 2q)` instead of `[0, q)`; callers accumulate in `[0, 4q)` and
//! normalize once at the end (see `ckks::ntt`). All lazy kernels
//! require `q < 2^62` so `4q` fits in a `u64` — enforced by
//! [`PrimeArith::new`] and by [`ntt_primes`].

use core::hint::select_unpredictable;

/// `a - m` if `a >= m`, else `a`, as a select: the one conditional
/// correction every kernel below is built from. Both arms are computed
/// and the condition picks one, so the subtraction wraps (and is
/// discarded) when `a < m`.
#[inline(always)]
fn sub_if_ge(a: u64, m: u64) -> u64 {
    select_unpredictable(a >= m, a.wrapping_sub(m), a)
}

/// Modular addition in `[0, q)`.
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    sub_if_ge(a + b, q) // q < 2^62 so no overflow
}

/// Modular subtraction in `[0, q)`.
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    let d = a.wrapping_sub(b);
    select_unpredictable(a >= b, d, d.wrapping_add(q))
}

/// Modular multiplication via 128-bit intermediate.
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Modular exponentiation.
pub fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    let mut acc = 1u64;
    base %= q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Modular inverse of `a` modulo prime `q` (Fermat).
///
/// # Panics
///
/// Panics if `a == 0`.
pub fn inv_mod(a: u64, q: u64) -> u64 {
    assert!(!a.is_multiple_of(q), "inverse of zero");
    pow_mod(a, q - 2, q)
}

/// Deterministic Miller-Rabin primality test for `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Precomputed Barrett/Shoup constants for a fixed prime `q < 2^62`.
///
/// Every kernel on this struct is an exact replacement for the
/// portable `% q` helpers: for the same inputs it returns the same
/// canonical residue (or, for `*_lazy` variants, a representative that
/// normalizes to it). The point is raw speed — no hardware division
/// anywhere on the hot path.
///
/// The kernels are also branch-free on data: every conditional
/// correction is a [`core::hint::select_unpredictable`], because a
/// ciphertext residue is uniformly random and "is it at least `q`" is
/// a coin flip no predictor learns. That is a performance property — a
/// kernel's time depends on how many values it is handed, not which.
/// It also takes a data-dependent timing signal out of `decrypt`'s
/// `c1·s` product, but it is not a constant-time audit. No other file
/// of this crate compares a residue with a modulus
/// (`residues_are_compared_with_moduli_only_here`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeArith {
    /// The prime modulus.
    q: u64,
    /// `2q`, the lazy-representative bound.
    two_q: u64,
    /// High 64 bits of `floor(2^128 / q)` (Barrett ratio).
    ratio_hi: u64,
    /// Low 64 bits of `floor(2^128 / q)`.
    ratio_lo: u64,
}

impl PrimeArith {
    /// Precomputes the Barrett ratio `floor(2^128 / q)` for `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62` (lazy kernels need `4q` to fit
    /// in a `u64`) or if `q` is even (the ratio shortcut below assumes
    /// `q` does not divide `2^128`; all NTT primes are odd).
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        assert!(q < (1u64 << 62), "modulus must be below 2^62");
        assert!(q & 1 == 1, "modulus must be odd");
        // q is odd, so q never divides 2^128 and
        // floor(2^128 / q) == floor((2^128 - 1) / q).
        let ratio = u128::MAX / q as u128;
        PrimeArith {
            q,
            two_q: 2 * q,
            ratio_hi: (ratio >> 64) as u64,
            ratio_lo: ratio as u64,
        }
    }

    /// The prime modulus.
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// `2q` — the exclusive upper bound on lazy representatives.
    #[inline]
    pub fn two_q(&self) -> u64 {
        self.two_q
    }

    /// Modular addition in `[0, q)`. Same result as [`add_mod`].
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        add_mod(a, b, self.q)
    }

    /// Modular subtraction in `[0, q)`. Same result as [`sub_mod`].
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        sub_mod(a, b, self.q)
    }

    /// Reduces a 128-bit value to `[0, q)` by Barrett reduction —
    /// exact for **any** `u128` input. This is what lets the
    /// key-switch inner loop accumulate raw 128-bit products lazily
    /// and reduce once at the end (see `Evaluator::key_switch_with`).
    ///
    /// Computes the low word of `q_hat ~= floor(x * ratio / 2^128)`
    /// from the four cross products (only the low half of
    /// `x_lo * ratio_lo` is dropped; the estimate is then off by at
    /// most one), and takes `x - q_hat * q` with a single conditional
    /// correction.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let x_lo = x as u64;
        let x_hi = (x >> 64) as u64;
        let carry = ((x_lo as u128 * self.ratio_lo as u128) >> 64) as u64;
        let mid = x_lo as u128 * self.ratio_hi as u128;
        let t = (mid as u64 as u128) + carry as u128;
        let tmp3 = ((mid >> 64) as u64).wrapping_add((t >> 64) as u64);
        let mid2 = x_hi as u128 * self.ratio_lo as u128;
        let t2 = (mid2 as u64 as u128) + (t as u64) as u128;
        let carry2 = ((mid2 >> 64) as u64).wrapping_add((t2 >> 64) as u64);
        let q_hat = x_hi
            .wrapping_mul(self.ratio_hi)
            .wrapping_add(tmp3)
            .wrapping_add(carry2);
        let r = x_lo.wrapping_sub(q_hat.wrapping_mul(self.q));
        debug_assert!(r < self.two_q, "Barrett estimate off by more than one");
        self.canonical(r)
    }

    /// `x mod q` for any `u64`, without division: the quotient
    /// estimate `⌊x·⌊2^64/q⌋ / 2^64⌋` (the high word of the Barrett
    /// ratio) is short by at most one, so one conditional subtract
    /// finishes. The same word as `x % q`.
    #[inline]
    pub fn reduce_u64(&self, x: u64) -> u64 {
        let q_hat = ((x as u128 * self.ratio_hi as u128) >> 64) as u64;
        self.canonical(x.wrapping_sub(q_hat.wrapping_mul(self.q)))
    }

    /// The canonical residue of a signed integer: its magnitude
    /// reduced, negated when the integer is. For `|c| < q` the
    /// reduction returns `|c|` and the whole map is one select; it is
    /// exact for every `i64`, `i64::MIN` included.
    #[inline]
    pub fn reduce_i64(&self, c: i64) -> u64 {
        self.negate_if(c < 0, self.reduce_u64(c.unsigned_abs()))
    }

    /// [`Self::reduce_i64`] for an `i128`, exact for every `i128`: a
    /// magnitude that fits a word goes through [`Self::reduce_u64`],
    /// a wider one through [`Self::reduce_u128`]. The width test is a
    /// branch, not a select: an encoding's coefficients all take the
    /// same side, and the word path is the cheaper one.
    #[inline]
    pub fn reduce_i128(&self, c: i128) -> u64 {
        let m = c.unsigned_abs();
        let r = if m >> 64 == 0 {
            self.reduce_u64(m as u64)
        } else {
            self.reduce_u128(m)
        };
        self.negate_if(c < 0, r)
    }

    /// `−r mod q` when `negative`, else `r`, as a select (`r < q`).
    #[inline(always)]
    fn negate_if(&self, negative: bool, r: u64) -> u64 {
        select_unpredictable(negative, self.sub(0, r), r)
    }

    /// Modular multiplication in `[0, q)` without division. Same
    /// result as [`mul_mod`] for canonical inputs.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Precomputes the Shoup companion `floor(w * 2^64 / q)` for a
    /// fixed multiplicand `w < q` (twiddle factors, scalar residues).
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// Shoup multiplication `a * w mod q` with lazy output in
    /// `[0, 2q)`. `w_shoup` must be `self.shoup(w)`; `a` may be any
    /// `u64` (in particular a `[0, 4q)` lazy representative).
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(w < self.q);
        let q_est = ((a as u128 * w_shoup as u128) >> 64) as u64;
        let r = a.wrapping_mul(w).wrapping_sub(q_est.wrapping_mul(self.q));
        debug_assert!(r < self.two_q, "Shoup product escaped [0, 2q)");
        r
    }

    /// Shoup multiplication normalized to `[0, q)`. For canonical `a`
    /// this equals `mul_mod(a, w, q)` exactly.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        self.canonical(self.mul_shoup_lazy(a, w, w_shoup))
    }

    /// Folds a `[0, 4q)` lazy representative down to `[0, 2q)`.
    #[inline]
    pub fn reduce_once(&self, a: u64) -> u64 {
        debug_assert!(a < 2 * self.two_q, "lazy representative escaped [0, 4q)");
        sub_if_ge(a, self.two_q)
    }

    /// Folds a `[0, 2q)` lazy representative to canonical `[0, q)`.
    #[inline]
    pub fn canonical(&self, a: u64) -> u64 {
        debug_assert!(a < self.two_q, "lazy representative escaped [0, 2q)");
        sub_if_ge(a, self.q)
    }

    /// Normalizes a `[0, 4q)` lazy representative to canonical
    /// `[0, q)` form.
    #[inline]
    pub fn normalize(&self, a: u64) -> u64 {
        self.canonical(self.reduce_once(a))
    }

    /// The residue mod `q` of the centred remainder of a division by
    /// `d`: given a remainder `l` in `[0, d)` with `l_mod = l mod q`
    /// and `d_mod = d mod q`, returns `l_mod`, less `d_mod` when `l`
    /// lies in the upper half `l >= half_d` (where the centred
    /// remainder is `l - d`). This is a rescale's `l′ mod q_i`.
    #[inline]
    pub fn center(&self, l: u64, half_d: u64, l_mod: u64, d_mod: u64) -> u64 {
        select_unpredictable(l >= half_d, self.sub(l_mod, d_mod), l_mod)
    }
}

/// Finds `count` distinct primes of roughly `bits` bits with
/// `p ≡ 1 (mod 2n)` (NTT-friendly for ring dimension `n`), scanning
/// downward from `2^bits`.
///
/// # Panics
///
/// Panics if not enough primes exist above `2^(bits-1)` (never happens
/// for the parameter ranges used here) or if `bits > 62`.
pub fn ntt_primes(bits: u32, count: usize, n: usize) -> Vec<u64> {
    ntt_primes_excluding(bits, count, n, &[])
}

/// Like [`ntt_primes`], but skips any candidate already present in
/// `exclude`. Used to generate the hybrid key-switch special primes,
/// which must be disjoint from the ciphertext modulus chain.
///
/// # Panics
///
/// Same conditions as [`ntt_primes`].
pub fn ntt_primes_excluding(bits: u32, count: usize, n: usize, exclude: &[u64]) -> Vec<u64> {
    assert!(bits <= 62, "primes above 62 bits unsupported");
    assert!(n.is_power_of_two(), "ring dimension must be a power of two");
    let step = 2 * n as u64;
    let mut candidate = (1u64 << bits) - ((1u64 << bits) % step) + 1;
    let floor = 1u64 << (bits - 1);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        if candidate <= floor {
            panic!("ran out of {bits}-bit NTT primes for n={n}");
        }
        if !exclude.contains(&candidate) && is_prime(candidate) {
            out.push(candidate);
        }
        candidate -= step;
    }
    out
}

/// Finds a primitive `2n`-th root of unity modulo prime `q`
/// (requires `q ≡ 1 mod 2n`).
///
/// # Panics
///
/// Panics if no such root exists (i.e. `q` is not NTT-friendly).
pub fn primitive_root_2n(q: u64, n: usize) -> u64 {
    let m = 2 * n as u64;
    assert!((q - 1).is_multiple_of(m), "q not ≡ 1 mod 2n");
    // Find a generator-ish element by trying small candidates: g is a
    // primitive 2n-th root iff g^(n) == -1 where g = c^((q-1)/2n).
    for c in 2u64.. {
        let g = pow_mod(c, (q - 1) / m, q);
        if pow_mod(g, n as u64, q) == q - 1 {
            return g;
        }
        if c > 10_000 {
            break;
        }
    }
    panic!("no primitive 2n-th root found for q={q}, n={n}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let q = 97;
        assert_eq!(add_mod(90, 10, q), 3);
        assert_eq!(sub_mod(5, 10, q), 92);
        assert_eq!(mul_mod(10, 10, q), 3);
        assert_eq!(pow_mod(2, 10, q), 1024 % 97);
    }

    #[test]
    fn inverse_is_inverse() {
        let q = 0x1000000000000001u64; // not prime; use a real one
        let q = if is_prime(q) { q } else { 1152921504606846883 };
        assert!(is_prime(q));
        for a in [2u64, 12345, 99999999] {
            let inv = inv_mod(a, q);
            assert_eq!(mul_mod(a, inv, q), 1);
        }
    }

    #[test]
    fn primality_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(is_prime(1_000_000_007));
        assert!(is_prime(0xFFFF_FFFF_FFFF_FFC5)); // largest u64 prime
        assert!(!is_prime(1));
        assert!(!is_prime(561)); // Carmichael
        assert!(!is_prime(1_000_000_007u64 * 3));
    }

    #[test]
    fn ntt_primes_are_valid() {
        let primes = ntt_primes(40, 4, 4096);
        assert_eq!(primes.len(), 4);
        for &p in &primes {
            assert!(is_prime(p));
            assert_eq!((p - 1) % 8192, 0);
            assert!(p < (1u64 << 40) && p > (1u64 << 39));
        }
        // Distinct.
        let mut sorted = primes.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn barrett_matches_u128_division() {
        for bits in [40u32, 50, 60, 62] {
            let q = ntt_primes(bits, 1, 256)[0];
            let pa = PrimeArith::new(q);
            let mut x = 0x9E3779B97F4A7C15u64;
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = x % q;
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = x % q;
                assert_eq!(pa.mul(a, b), mul_mod(a, b, q), "a={a} b={b} q={q}");
                assert_eq!(pa.add(a, b), add_mod(a, b, q));
                assert_eq!(pa.sub(a, b), sub_mod(a, b, q));
            }
            // Edge operands.
            for &a in &[0u64, 1, q - 1] {
                for &b in &[0u64, 1, q - 1] {
                    assert_eq!(pa.mul(a, b), mul_mod(a, b, q));
                }
            }
        }
    }

    #[test]
    fn barrett_exact_over_full_u128_range() {
        // The lazy key-switch accumulator feeds reduce_u128 sums of up
        // to ~2^126; pin exactness across the whole input range.
        for bits in [40u32, 50, 60, 62] {
            let q = ntt_primes(bits, 1, 256)[0];
            let pa = PrimeArith::new(q);
            let mut x = 0x243F6A8885A308D3u64;
            for i in 0..4000u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lo = x;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Sweep the high word across all magnitudes.
                let hi = x >> (i % 64);
                let v = (hi as u128) << 64 | lo as u128;
                assert_eq!(pa.reduce_u128(v) as u128, v % q as u128, "q={q} v={v}");
            }
            for &v in &[
                0u128,
                1,
                q as u128 - 1,
                q as u128,
                (q as u128) * (q as u128),
                u128::MAX,
                u128::MAX - 1,
                (q as u128) << 64,
                ((q as u128) << 64) - 1,
            ] {
                assert_eq!(pa.reduce_u128(v) as u128, v % q as u128, "q={q} v={v}");
            }
        }
    }

    #[test]
    fn shoup_matches_mul_mod_and_stays_lazy() {
        let q = ntt_primes(60, 1, 256)[0];
        let pa = PrimeArith::new(q);
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            let w = x % q;
            let ws = pa.shoup(w);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            // Lazy inputs up to 4q must still reduce correctly.
            let a_lazy = x % (4 * q);
            let lazy = pa.mul_shoup_lazy(a_lazy, w, ws);
            assert!(lazy < 2 * q);
            assert_eq!(
                pa.normalize(lazy),
                mul_mod(a_lazy % q, w, q),
                "w={w} a={a_lazy}"
            );
            let a = a_lazy % q;
            assert_eq!(pa.mul_shoup(a, w, ws), mul_mod(a, w, q));
        }
    }

    #[test]
    fn normalize_covers_every_band() {
        let q = 97u64;
        let pa = PrimeArith::new(q);
        for r in 0..4 * q {
            assert_eq!(pa.normalize(r), r % q);
        }
        for r in 0..2 * q {
            assert_eq!(pa.reduce_once(r + 2 * q), r);
            assert_eq!(pa.reduce_once(r), r);
        }
    }

    /// Every select below evaluates both arms, the wrapped one too, so
    /// each rewritten helper is held to `%` on `u128` over its whole
    /// domain at primes small enough to enumerate.
    #[test]
    fn select_helpers_match_u128_remainder_exhaustively() {
        for q in [3u64, 97, 257] {
            let pa = PrimeArith::new(q);
            let rem = |x: u128| (x % q as u128) as u64;
            for a in 0..q {
                for b in 0..q {
                    let (sum, diff) = (rem(a as u128 + b as u128), rem((a + q - b) as u128));
                    assert_eq!(add_mod(a, b, q), sum, "add_mod {a} {b} q={q}");
                    assert_eq!(pa.add(a, b), sum, "add {a} {b} q={q}");
                    assert_eq!(sub_mod(a, b, q), diff, "sub_mod {a} {b} q={q}");
                    assert_eq!(pa.sub(a, b), diff, "sub {a} {b} q={q}");
                }
            }
            for a in 0..4 * q {
                let once = pa.reduce_once(a);
                assert!(once < 2 * q && rem(once as u128) == rem(a as u128));
                assert_eq!(pa.normalize(a), rem(a as u128), "normalize {a} q={q}");
                if a < 2 * q {
                    assert_eq!(pa.canonical(a), rem(a as u128), "canonical {a} q={q}");
                }
                // A lazy `[0, 4q)` operand against every twiddle.
                for w in 0..q {
                    let got = pa.mul_shoup(a, w, pa.shoup(w));
                    assert_eq!(got, rem(a as u128 * w as u128), "mul_shoup {a} {w} q={q}");
                }
            }
            for x in 0..(q * q) as u128 {
                assert_eq!(pa.reduce_u128(x), rem(x), "reduce_u128 {x} q={q}");
            }
            let mut x = 0x243F6A8885A308D3u128;
            for _ in 0..4000 {
                x = x
                    .wrapping_mul(0x2360ED051FC65DA44385DF649FCCF645)
                    .wrapping_add(1);
                assert_eq!(pa.reduce_u128(x), rem(x), "reduce_u128 {x} q={q}");
            }
        }
    }

    #[test]
    fn word_and_signed_reductions_match_the_remainder() {
        // The 64-bit reduction and both signed forms against `%` and
        // `rem_euclid`: the extremes of each type, the words around
        // multiples of q, and a pseudo-random sweep of magnitudes.
        let ntt_prime = |bits| ntt_primes(bits, 1, 256)[0];
        for q in [3, 97].into_iter().chain([40, 50, 60, 62].map(ntt_prime)) {
            let pa = PrimeArith::new(q);
            let mut words = vec![
                0,
                1,
                q - 1,
                q,
                q + 1,
                2 * q - 1,
                2 * q,
                u64::MAX,
                u64::MAX - 1,
            ];
            words.push(u64::MAX - u64::MAX % q);
            words.push((u64::MAX - u64::MAX % q).wrapping_sub(1));
            let mut x = 0x243F6A8885A308D3u64;
            for i in 0..4000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                words.push(x >> (i % 64));
            }
            let qi = q as i128;
            for &w in &words {
                assert_eq!(pa.reduce_u64(w), w % q, "reduce_u64 {w} q={q}");
                for c in [w as i64, (w as i64).wrapping_neg()] {
                    let want = (c as i128).rem_euclid(qi) as u64;
                    assert_eq!(pa.reduce_i64(c), want, "reduce_i64 {c} q={q}");
                }
                let (narrow, wide) = (w as i128, w as i128 * 0x1_0000_0001);
                for c in [narrow, -narrow, wide, -wide] {
                    assert_eq!(pa.reduce_i128(c), c.rem_euclid(qi) as u64, "{c} q={q}");
                }
            }
            for c in [i64::MIN, i64::MIN + 1, i64::MAX] {
                assert_eq!(pa.reduce_i64(c), (c as i128).rem_euclid(qi) as u64);
            }
            let word = 1i128 << 64;
            for c in [
                i128::MIN,
                i128::MIN + 1,
                i128::MAX,
                word,
                -word,
                word - 1,
                1 - word,
            ] {
                assert_eq!(pa.reduce_i128(c), c.rem_euclid(qi) as u64);
            }
        }
    }

    #[test]
    fn center_is_the_centred_remainder_mod_q() {
        // d < 2q (one conditional subtract lifts l), d > 2q, d < q.
        for (q, d) in [(97u64, 101u64), (97, 193), (97, 257), (257, 97), (3, 97)] {
            let pa = PrimeArith::new(q);
            for l in 0..d {
                let centred = if l >= d / 2 {
                    l as i64 - d as i64
                } else {
                    l as i64
                };
                let expect = centred.rem_euclid(q as i64) as u64;
                assert_eq!(
                    pa.center(l, d / 2, l % q, d % q),
                    expect,
                    "l={l} d={d} q={q}"
                );
            }
        }
    }

    #[test]
    fn select_helpers_hold_at_the_largest_modulus() {
        // The first NTT prime below 2^62: `4q - 1` is the largest value
        // any lazy kernel sees, and the discarded arm of each select
        // wraps around zero here.
        let q = ntt_primes(62, 1, 256)[0];
        let pa = PrimeArith::new(q);
        let rem = |x: u128| (x % q as u128) as u64;
        for &a in &[0u64, 1, q - 1] {
            for &b in &[0u64, 1, q - 1] {
                assert_eq!(pa.add(a, b), rem(a as u128 + b as u128));
                assert_eq!(add_mod(a, b, q), rem(a as u128 + b as u128));
                assert_eq!(pa.sub(a, b), rem(a as u128 + q as u128 - b as u128));
                assert_eq!(sub_mod(a, b, q), rem(a as u128 + q as u128 - b as u128));
                assert_eq!(pa.mul_shoup(a, b, pa.shoup(b)), rem(a as u128 * b as u128));
            }
        }
        for a in [0, 1, q - 1, q, q + 1, 2 * q - 2, 2 * q - 1] {
            assert_eq!(pa.canonical(a), rem(a as u128), "canonical {a}");
        }
        for a in [0, q, 2 * q - 1, 2 * q, 2 * q + 1, 3 * q, 4 * q - 1] {
            assert_eq!(pa.reduce_once(a), if a >= 2 * q { a - 2 * q } else { a });
            assert_eq!(pa.normalize(a), rem(a as u128), "normalize {a}");
            let w = q - 1;
            assert_eq!(pa.mul_shoup(a, w, pa.shoup(w)), rem(a as u128 * w as u128));
        }
        assert_eq!(pa.reduce_u128(u128::MAX), rem(u128::MAX));
        assert_eq!(pa.center(q - 1, q / 2, q - 1, 0), q - 1);
    }

    /// Whether a source line branches on a residue compared with a
    /// modulus: an `if` with `>=` against `q`, `two_q` or `half`
    /// (bare, or as a field or accessor of anything).
    fn branches_on_residue(line: &str) -> bool {
        let code = line.split("//").next().unwrap_or("");
        code.contains("if ")
            && code.match_indices(">= ").any(|(at, pat)| {
                let rhs = &code[at + pat.len()..];
                let end = rhs
                    .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
                    .unwrap_or(rhs.len());
                let name = rhs[..end].rsplit('.').next().unwrap_or("");
                ["q", "two_q", "half"].contains(&name)
            })
    }

    /// The structural half of "the kernels are branch-free on data": a
    /// residue is compared with a modulus only in this file, where the
    /// comparison feeds a select. A timing test of the same property
    /// would be flaky; this names the line instead.
    #[test]
    fn residues_are_compared_with_moduli_only_here() {
        assert!(branches_on_residue("            if l >= half {"));
        assert!(branches_on_residue(
            "*c = center(l, if l >= q { l - q } else { l });"
        ));
        assert!(branches_on_residue("if r >= self.q {"));
        assert!(branches_on_residue("if a >= pa.two_q() {"));
        assert!(!branches_on_residue(
            "if t >= digit.start && t < digit.end {"
        ));
        assert!(!branches_on_residue("// if l >= q, subtract"));
        let sources = [
            ("ntt.rs", include_str!("ntt.rs")),
            ("rns.rs", include_str!("rns.rs")),
            ("cipher.rs", include_str!("cipher.rs")),
            ("galois.rs", include_str!("galois.rs")),
            ("linear.rs", include_str!("linear.rs")),
            ("keys.rs", include_str!("keys.rs")),
            ("encoding.rs", include_str!("encoding.rs")),
            ("noise.rs", include_str!("noise.rs")),
        ];
        for (file, text) in sources {
            let non_test = text.split("#[cfg(test)]\nmod tests").next().unwrap_or(text);
            for (i, line) in non_test.lines().enumerate() {
                assert!(
                    !branches_on_residue(line),
                    "{file}:{}: residue compared with a modulus outside modular.rs \
                     (use a PrimeArith helper): {}",
                    i + 1,
                    line.trim()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "below 2^62")]
    fn prime_arith_rejects_oversized_modulus() {
        PrimeArith::new(1u64 << 62 | 1);
    }

    #[test]
    fn primitive_root_properties() {
        let q = ntt_primes(40, 1, 1024)[0];
        let psi = primitive_root_2n(q, 1024);
        assert_eq!(pow_mod(psi, 1024, q), q - 1); // psi^n = -1
        assert_eq!(pow_mod(psi, 2048, q), 1); // psi^2n = 1
    }
}
