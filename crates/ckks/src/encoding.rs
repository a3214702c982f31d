//! CKKS encoding: real slot vectors ↔ ring plaintexts via the
//! canonical embedding.
//!
//! Evaluation points are the primitive `2n`-th roots
//! `ζ_k = exp(iπ(2k+1)/n)`. Because `ζ_{n-1-k} = conj(ζ_k)`, a real
//! coefficient vector is determined by `n/2` free complex slots; we
//! expose real-valued slots (imaginary parts are zero).
//!
//! **Slot ordering.** Slot `j` holds the evaluation at root exponent
//! `5^j mod 2n` (the orbit of 5 in the odd residues). Under this
//! ordering the Galois automorphism `X ↦ X^{5^r}` rotates the slot
//! vector cyclically left by `r` — see [`crate::galois`]. Slotwise
//! semantics (add/mul act per slot) are unchanged by the ordering.

use crate::rns::{CkksContext, RnsPoly};
use std::sync::Arc;

/// The limbs decoding reads: the first two, or a plaintext's only one.
/// Whatever a decode is handed above them it never reads, so callers
/// may drop a ciphertext to this many limbs before decrypting it.
pub(crate) const DECODE_LIMBS: usize = 2;

/// A CKKS plaintext: an integer ring element carrying a scale.
#[derive(Debug, Clone)]
pub struct Plaintext {
    /// The encoded ring element (NTT form).
    pub poly: RnsPoly,
    /// The scale Δ the slots were multiplied by.
    pub scale: f64,
}

#[derive(Debug, Clone, Copy)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
    fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }
}

/// The encoder's tables for one ring dimension, built once per context
/// ([`CkksContext::encoding_tables`]) and read by every [`Encoder`] on
/// it. Each entry is the `f64` the per-call expression or recurrence
/// it replaces computed, so encodings and decodes are unchanged.
#[derive(Debug)]
pub(crate) struct EncodingTables {
    /// `orbit[j]` = natural evaluation index `m` with root exponent
    /// `2m+1 = 5^j mod 2n`; the conjugate position is `n-1-m`.
    orbit: Vec<usize>,
    /// `e^{−iπj/n}`: the twist `encode` applies after the forward DFT.
    /// Decoding's untwist `e^{+iπj/n}` is its conjugate.
    twist: Vec<Complex>,
    /// The forward FFT's twiddles: stage `len`'s `w_k`, `k < len/2`,
    /// at `len/2 − 1 + k`, from the stage's recurrence `w_0 = 1`,
    /// `w_{k+1} = w_k·e^{−2πi/len}`. The inverse FFT's are their
    /// conjugates: the same recurrence on the conjugate root gives
    /// exactly the conjugate words (`cos` is even, `sin` odd, and a
    /// product of conjugates is the conjugate of the product).
    twiddles: Vec<Complex>,
}

impl EncodingTables {
    /// The tables for ring dimension `n` (a power of two).
    pub(crate) fn new(n: usize) -> Self {
        use std::f64::consts::PI;
        let slots = n / 2;
        let mut orbit = Vec::with_capacity(slots);
        let mut e = 1usize;
        for _ in 0..slots {
            orbit.push((e - 1) / 2);
            e = (e * 5) & (2 * n - 1);
        }
        let unit = |ang: f64| Complex::new(ang.cos(), ang.sin());
        let twist = (0..n).map(|j| unit(-PI * j as f64 / n as f64)).collect();
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let wl = unit(-2.0 * PI / len as f64);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w.mul(wl);
            }
            len <<= 1;
        }
        EncodingTables {
            orbit,
            twist,
            twiddles,
        }
    }

    /// Iterative radix-2 FFT of length `n`. `invert` selects the
    /// inverse transform (without the 1/n scaling).
    fn fft(&self, a: &mut [Complex], invert: bool) {
        let n = a.len();
        assert_eq!(n, self.twist.len(), "fft length is not the ring dimension");
        // Bit reversal permutation.
        let mut j = 0;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                a.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let w = &self.twiddles[half - 1..len - 1];
            for block in a.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi).zip(w) {
                    let w = if invert { w.conj() } else { w };
                    let (x, y) = (*u, v.mul(w));
                    *u = x.add(y);
                    *v = x.sub(y);
                }
            }
            len <<= 1;
        }
    }
}

/// The CKKS encoder for a given context. Its twist, twiddle and
/// slot-order tables belong to the context, built once and shared by
/// every encoder on it, so a clone copies one pointer.
#[derive(Debug, Clone)]
pub struct Encoder {
    ctx: Arc<CkksContext>,
}

impl Encoder {
    /// Creates an encoder bound to a context, building the context's
    /// encoding tables if no encoder on it has yet.
    pub fn new(ctx: &Arc<CkksContext>) -> Self {
        ctx.encoding_tables();
        Encoder {
            ctx: Arc::clone(ctx),
        }
    }

    fn tables(&self) -> &EncodingTables {
        self.ctx.encoding_tables()
    }

    /// Number of real slots available (`n/2`).
    pub fn slots(&self) -> usize {
        self.ctx.slots()
    }

    /// Encodes up to `slots()` real values at scale `scale` into a
    /// plaintext with `num_limbs` limbs. Missing slots are zero.
    ///
    /// # Panics
    ///
    /// Panics if more than `slots()` values are supplied or the scaled
    /// coefficients overflow the representable range.
    pub fn encode(&self, values: &[f64], scale: f64, num_limbs: usize) -> Plaintext {
        let n = self.ctx.n();
        let slots = self.ctx.slots();
        assert!(values.len() <= slots, "too many values for {slots} slots");
        let tables = self.tables();
        // Build the conjugate-symmetric evaluation vector: slot j lives
        // at natural index orbit[j], its conjugate at n-1-orbit[j].
        let mut sigma = vec![Complex::new(0.0, 0.0); n];
        for (&v, &m) in values.iter().zip(&tables.orbit) {
            sigma[m] = Complex::new(v, 0.0);
            sigma[n - 1 - m] = sigma[m].conj();
        }
        // c_j = (1/n) * e^{-iπ j/n} * DFT(sigma)_j
        tables.fft(&mut sigma, false);
        let mut coeffs = vec![0i128; n];
        for ((dst, s), &tw) in coeffs.iter_mut().zip(&sigma).zip(&tables.twist) {
            let c = s.mul(tw);
            let real = c.re / n as f64 * scale;
            assert!(
                real.abs() < 1.2e30,
                "scaled coefficient overflow: {real} (scale too large?)"
            );
            *dst = real.round() as i128;
        }
        let mut poly = RnsPoly::from_signed_coeffs_i128(&self.ctx, &coeffs, num_limbs);
        poly.to_ntt();
        Plaintext { poly, scale }
    }

    /// The residues of the integer `round(value · scale)` modulo the
    /// first `num_limbs` chain primes: a scalar replicated into every
    /// slot is the constant polynomial with that coefficient, whose NTT
    /// is the same residue in every position — so multiplying by it
    /// needs no plaintext at all
    /// ([`RnsPoly::rescale_scaled`]).
    pub fn constant_residues(&self, value: f64, scale: f64, num_limbs: usize) -> Vec<u64> {
        let c = (value * scale).round() as i128;
        self.ctx.primes()[..num_limbs]
            .iter()
            .map(|&q| c.rem_euclid(q as i128) as u64)
            .collect()
    }

    /// Encodes a single scalar replicated into every slot: each limb is
    /// filled with its [`Encoder::constant_residues`] entry, with no
    /// FFT and no NTT.
    pub fn encode_constant(&self, value: f64, scale: f64, num_limbs: usize) -> Plaintext {
        let mut poly = RnsPoly::uninit(&self.ctx, num_limbs, true);
        for (i, r) in self
            .constant_residues(value, scale, num_limbs)
            .into_iter()
            .enumerate()
        {
            poly.limb_mut(i).fill(r);
        }
        Plaintext { poly, scale }
    }

    /// Decodes a plaintext back to `count` real slot values.
    ///
    /// Uses exact CRT over the first `min(2, limbs)` primes (the only
    /// limbs it copies and transforms), so every
    /// (noisy) coefficient must be smaller in magnitude than half that
    /// product. A coefficient is at most `scale` times the largest slot
    /// magnitude, so a **level-0** plaintext — one limb, which is where
    /// the level schedule leaves every result — decodes slots up to
    /// `q₀ / (2·scale)`: about 2⁹ = 512 with the presets' 50-bit base
    /// prime at Δ = 2⁴⁰ (2¹⁹ with a 60-bit one). Larger values wrap
    /// silently; two or more limbs leave 2⁴⁹ of room.
    ///
    /// # Panics
    ///
    /// Panics if `count > slots()`.
    pub fn decode(&self, pt: &Plaintext, count: usize) -> Vec<f64> {
        let vals = self.unscaled_slots(pt, count);
        self.tables().orbit[..count]
            .iter()
            .map(|&m| vals[m].re / pt.scale)
            .collect()
    }

    /// The inverse DFT of `pt`'s untwisted coefficients, read through
    /// its first [`DECODE_LIMBS`]: slot `j` times the scale is entry
    /// `orbit[j]`. Only those limbs are copied and inverse-transformed.
    fn unscaled_slots(&self, pt: &Plaintext, count: usize) -> Vec<Complex> {
        assert!(count <= self.ctx.slots(), "count exceeds slot capacity");
        let use_limbs = pt.poly.num_limbs().min(DECODE_LIMBS);
        let mut poly = pt.poly.clone_prefix(use_limbs);
        poly.to_coeff();
        let tables = self.tables();
        // Untwist: multiply by e^{+iπ j/n}, the twist's conjugate,
        // before the inverse DFT.
        let mut vals: Vec<Complex> = poly
            .coeffs_to_i128(use_limbs)
            .zip(&tables.twist)
            .map(|(c, tw)| {
                let u = tw.conj();
                Complex::new(c as f64 * u.re, c as f64 * u.im)
            })
            .collect();
        tables.fft(&mut vals, true); // inverse DFT without 1/n (encode had 1/n)
        vals
    }

    /// Decodes slot `j` taking the imaginary part too (diagnostics).
    pub fn decode_complex(&self, pt: &Plaintext, count: usize) -> Vec<(f64, f64)> {
        let vals = self.unscaled_slots(pt, count);
        self.tables().orbit[..count]
            .iter()
            .map(|&m| (vals[m].re / pt.scale, vals[m].im / pt.scale))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::ntt_primes;

    fn setup() -> (Arc<CkksContext>, Encoder) {
        let mut primes = ntt_primes(40, 2, 64);
        primes.insert(0, ntt_primes(50, 1, 64)[0]);
        let ctx = CkksContext::new(64, primes, (1u64 << 30) as f64);
        let enc = Encoder::new(&ctx);
        (ctx, enc)
    }

    /// The FFT as it ran before its twiddles were tabled: each stage's
    /// `w` advanced by one product per butterfly.
    fn reference_fft(a: &mut [Complex], invert: bool) {
        let n = a.len();
        let mut j = 0;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                a.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = 2.0 * std::f64::consts::PI / len as f64 * if invert { 1.0 } else { -1.0 };
            let wl = Complex::new(ang.cos(), ang.sin());
            let mut i = 0;
            while i < n {
                let mut w = Complex::new(1.0, 0.0);
                for k in 0..len / 2 {
                    let u = a[i + k];
                    let v = a[i + k + len / 2].mul(w);
                    a[i + k] = u.add(v);
                    a[i + k + len / 2] = u.sub(v);
                    w = w.mul(wl);
                }
                i += len;
            }
            len <<= 1;
        }
    }

    /// `encode` as it ran before the tables, flat limb-major in NTT
    /// form: the twist's `cos` and `sin` per coefficient, residues by
    /// `rem_euclid`.
    fn reference_encode(ctx: &CkksContext, values: &[f64], scale: f64, limbs: usize) -> Vec<u64> {
        let n = ctx.n();
        let orbit = &ctx.encoding_tables().orbit;
        let mut sigma = vec![Complex::new(0.0, 0.0); n];
        for (j, &v) in values.iter().enumerate() {
            sigma[orbit[j]] = Complex::new(v, 0.0);
            sigma[n - 1 - orbit[j]] = sigma[orbit[j]].conj();
        }
        reference_fft(&mut sigma, false);
        let coeffs: Vec<i128> = sigma
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                let ang = -std::f64::consts::PI * idx as f64 / n as f64;
                let c = s.mul(Complex::new(ang.cos(), ang.sin()));
                (c.re / n as f64 * scale).round() as i128
            })
            .collect();
        let mut words = Vec::with_capacity(limbs * n);
        for i in 0..limbs {
            let q = ctx.primes()[i] as i128;
            let mut limb: Vec<u64> = coeffs.iter().map(|c| c.rem_euclid(q) as u64).collect();
            ctx.ntt(i).forward(&mut limb);
            words.extend(limb);
        }
        words
    }

    /// `decode_complex` as it ran before the tables: the untwist's
    /// `cos` and `sin` per coefficient, then the recurrence FFT.
    fn reference_decode(ctx: &CkksContext, pt: &Plaintext, count: usize) -> Vec<(f64, f64)> {
        let n = ctx.n();
        let use_limbs = pt.poly.num_limbs().min(DECODE_LIMBS);
        let mut poly = pt.poly.clone_prefix(use_limbs);
        poly.to_coeff();
        let mut vals: Vec<Complex> = (0..n)
            .map(|idx| {
                let c = poly.coeff_to_i128(idx, use_limbs) as f64;
                let ang = std::f64::consts::PI * idx as f64 / n as f64;
                Complex::new(c * ang.cos(), c * ang.sin())
            })
            .collect();
        reference_fft(&mut vals, true);
        let orbit = &ctx.encoding_tables().orbit;
        (0..count)
            .map(|j| (vals[orbit[j]].re / pt.scale, vals[orbit[j]].im / pt.scale))
            .collect()
    }

    #[test]
    fn tabled_encode_and_decode_are_the_reference_word_for_word() {
        // Random vectors, full and partial, on the toy and default rings
        // at one, two and eight limbs: `encode`'s residue words and
        // every decoded `f64`'s bits match the per-call trigonometry.
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter()
                .map(|(re, im)| (re.to_bits(), im.to_bits()))
                .collect()
        };
        for params in [
            crate::params::CkksParams::toy(),
            crate::params::CkksParams::default_params(),
        ] {
            let ctx = params.build();
            let enc = Encoder::new(&ctx);
            let mut rng = smartpaf_tensor::Rng64::new(params.n as u64);
            let slots = ctx.slots();
            for count in [slots, slots / 2 + 3, 7, 1] {
                let values: Vec<f64> = (0..count)
                    .map(|_| (rng.next_u64() % 20_001) as f64 / 1000.0 - 10.0)
                    .collect();
                for limbs in [1, 2, 8] {
                    let pt = enc.encode(&values, ctx.scale(), limbs);
                    let words: Vec<u64> = pt.poly.limbs().flatten().copied().collect();
                    let case = format!("n {} count {count} limbs {limbs}", params.n);
                    assert_eq!(
                        words,
                        reference_encode(&ctx, &values, ctx.scale(), limbs),
                        "{case}"
                    );
                    for take in [count, count.div_ceil(2)] {
                        let want = reference_decode(&ctx, &pt, take);
                        assert_eq!(bits(&enc.decode_complex(&pt, take)), bits(&want), "{case}");
                        let re: Vec<u64> = want.iter().map(|v| v.0.to_bits()).collect();
                        let got: Vec<u64> =
                            enc.decode(&pt, take).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, re, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_encoder_on_a_context_reads_one_set_of_tables() {
        let (ctx, enc) = setup();
        let (clone, fresh) = (enc.clone(), Encoder::new(&ctx));
        assert!(std::ptr::eq(enc.tables(), clone.tables()));
        assert!(std::ptr::eq(enc.tables(), fresh.tables()));
        assert!(std::ptr::eq(enc.tables(), ctx.encoding_tables()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (ctx, enc) = setup();
        let vals: Vec<f64> = (0..32).map(|i| (i as f64 - 16.0) / 8.0).collect();
        let pt = enc.encode(&vals, ctx.scale(), 3);
        let out = enc.decode(&pt, 32);
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_slots_zero_filled() {
        let (ctx, enc) = setup();
        let pt = enc.encode(&[1.0, 2.0], ctx.scale(), 2);
        let out = enc.decode(&pt, 8);
        assert!((out[0] - 1.0).abs() < 1e-6);
        assert!((out[1] - 2.0).abs() < 1e-6);
        for &v in &out[2..] {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn constant_encoding_fills_all_slots() {
        let (ctx, enc) = setup();
        let pt = enc.encode_constant(0.75, ctx.scale(), 2);
        let out = enc.decode(&pt, 32);
        for &v in &out {
            assert!((v - 0.75).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn constant_encoding_is_the_transformed_constant_polynomial() {
        // Filling each limb with the scalar's residue is byte-identical
        // to transforming the constant polynomial, negatives included.
        let (ctx, enc) = setup();
        for value in [0.75, -0.75, 0.0, -1e-7, 123.456] {
            let mut coeffs = vec![0i128; ctx.n()];
            coeffs[0] = (value * ctx.scale()).round() as i128;
            let mut want = RnsPoly::from_signed_coeffs_i128(&ctx, &coeffs, 3);
            want.to_ntt();
            let got = enc.encode_constant(value, ctx.scale(), 3);
            assert!(got.poly.is_ntt());
            assert_eq!(
                got.poly.limbs().collect::<Vec<_>>(),
                want.limbs().collect::<Vec<_>>(),
                "constant {value}"
            );
        }
    }

    #[test]
    fn level_zero_decodes_up_to_half_the_base_prime_over_the_scale() {
        // One limb is where the level schedule leaves every result. At
        // the presets' shape — 50-bit base prime, Δ = 2⁴⁰ — a slot
        // magnitude just under q₀/(2Δ) ≈ 2⁹ survives the single-limb
        // decode and one just over it wraps; a second limb lifts the
        // bound. A spelled-out 60-bit base prime moves it to ≈ 2¹⁹.
        let wide = crate::params::CkksParams {
            base_prime_bits: 60,
            ..crate::params::CkksParams::toy()
        };
        for (params, log2_bound) in [(crate::params::CkksParams::toy(), 9.0), (wide, 19.0)] {
            let ctx = params.build();
            let enc = Encoder::new(&ctx);
            let bound = ctx.primes()[0] as f64 / (2.0 * ctx.scale());
            assert!((bound.log2() - log2_bound).abs() < 0.1, "{}", bound.log2());
            for (value, limbs, survives) in [
                (0.99 * bound, 1, true),
                (-0.99 * bound, 1, true),
                (1.01 * bound, 1, false),
                (1.01 * bound, 2, true),
            ] {
                let pt = enc.encode_constant(value, ctx.scale(), limbs);
                let got = enc.decode(&pt, 1)[0];
                assert_eq!(
                    (got - value).abs() < 1e-3,
                    survives,
                    "{value} on {limbs} limb(s) decoded as {got}"
                );
            }
        }
    }

    #[test]
    fn plaintext_add_is_slotwise() {
        let (ctx, enc) = setup();
        let a: Vec<f64> = (0..16).map(|i| i as f64 / 4.0).collect();
        let b: Vec<f64> = (0..16).map(|i| 1.0 - i as f64 / 8.0).collect();
        let pa = enc.encode(&a, ctx.scale(), 2);
        let pb = enc.encode(&b, ctx.scale(), 2);
        let sum = Plaintext {
            poly: pa.poly.add(&pb.poly),
            scale: pa.scale,
        };
        let out = enc.decode(&sum, 16);
        for i in 0..16 {
            assert!((out[i] - (a[i] + b[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn plaintext_mul_is_slotwise() {
        // The whole point of the canonical embedding: ring mult acts
        // slotwise on the embedded values.
        let (ctx, enc) = setup();
        let a: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let b: Vec<f64> = (0..16).map(|i| (i as f64 + 1.0) / 16.0).collect();
        let pa = enc.encode(&a, ctx.scale(), 3);
        let pb = enc.encode(&b, ctx.scale(), 3);
        let prod = Plaintext {
            poly: pa.poly.mul(&pb.poly),
            scale: pa.scale * pb.scale,
        };
        let out = enc.decode(&prod, 16);
        for i in 0..16 {
            assert!(
                (out[i] - a[i] * b[i]).abs() < 1e-5,
                "slot {i}: {} vs {}",
                out[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn orbit_automorphism_rotates_plaintext_slots() {
        // Purely at the encoding layer: applying X -> X^{5^r} to the
        // plaintext polynomial must rotate slots left by r.
        let (ctx, enc) = setup();
        let slots = ctx.slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64 / slots as f64).collect();
        let pt = enc.encode(&vals, ctx.scale(), 2);
        for r in [1usize, 2, 5] {
            let g = crate::galois::rotation_element(ctx.n(), r);
            let rotated = Plaintext {
                poly: pt.poly.automorphism(g),
                scale: pt.scale,
            };
            let out = enc.decode(&rotated, slots);
            for j in 0..slots {
                let want = vals[(j + r) % slots];
                assert!(
                    (out[j] - want).abs() < 1e-6,
                    "r={r} slot {j}: {} vs {want}",
                    out[j]
                );
            }
        }
    }

    #[test]
    fn orbit_conjugation_fixes_real_plaintext() {
        let (ctx, enc) = setup();
        let vals = vec![0.25, -0.75, 1.5, -2.0];
        let pt = enc.encode(&vals, ctx.scale(), 2);
        let g = crate::galois::conjugation_element(ctx.n());
        let conj = Plaintext {
            poly: pt.poly.automorphism(g),
            scale: pt.scale,
        };
        let out = enc.decode(&conj, 4);
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn decode_complex_real_slots_have_tiny_imaginary_part() {
        let (ctx, enc) = setup();
        let vals = vec![0.5, -0.5, 2.0];
        let pt = enc.encode(&vals, ctx.scale(), 2);
        for (re, im) in enc.decode_complex(&pt, 3) {
            assert!(im.abs() < 1e-6, "imaginary leak {im} at re={re}");
        }
    }

    #[test]
    fn negative_values_roundtrip() {
        let (ctx, enc) = setup();
        let vals = vec![-0.5, -1.25, 3.75, -100.0];
        let pt = enc.encode(&vals, ctx.scale(), 2);
        let out = enc.decode(&pt, 4);
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
