//! Ciphertexts and homomorphic operations.

use crate::encoding::{Encoder, Plaintext};
use crate::keys::{truncate, KeyChain};
use crate::rns::{CkksContext, RnsPoly};
use smartpaf_tensor::Rng64;
use std::sync::Arc;

/// Maximum tolerated relative scale mismatch when adding ciphertexts.
///
/// Each rescale divides by a prime within ~1e-4 of the nominal scale
/// (NTT-friendly primes are spaced by 2n), so an 11-level evaluation
/// can drift a little over 1e-3 at small ring dimensions. The mismatch
/// bounds the relative slot error of the addition, so 5e-3 stays well
/// inside the simulator's noise budget while still catching genuine
/// scale-management bugs (those are off by a full Δ factor).
const SCALE_TOLERANCE: f64 = 5e-3;

/// A CKKS ciphertext `(c0, c1)` with `m ≈ c0 + c1·s`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    /// Current encoding scale.
    pub scale: f64,
}

impl Ciphertext {
    /// Number of RNS limbs (level + 1).
    pub fn num_limbs(&self) -> usize {
        self.c0.num_limbs()
    }

    /// Remaining rescale budget.
    pub fn level(&self) -> usize {
        self.num_limbs() - 1
    }

    /// Drops limbs until `num_limbs` remain (plain modulus switch).
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or larger than the current count.
    pub fn drop_to(&mut self, num_limbs: usize) {
        assert!(num_limbs >= 1 && num_limbs <= self.num_limbs());
        while self.num_limbs() > num_limbs {
            self.c0.drop_last_limb();
            self.c1.drop_last_limb();
        }
    }
}

/// The output of the key switch's decompose phase: every gadget digit
/// of one polynomial, lifted to the basis the keys live over and in
/// NTT form ([`Evaluator::decompose`]). A "hoisted" handle: computed
/// once per input and shared by every key applied to it. The digits
/// live in one pooled scratch buffer of `rows × width` limbs, returned
/// to the pool on drop.
#[derive(Debug)]
pub(crate) struct Hoisted {
    data: Vec<u64>,
    /// Gadget digits (= key components).
    rows: usize,
    /// Limbs per digit: the chain limbs plus the special limbs.
    width: usize,
    /// Chain limbs of the decomposed polynomial.
    num_limbs: usize,
}

impl Hoisted {
    /// Chain limbs (level + 1) of the decomposed polynomial.
    pub(crate) fn num_limbs(&self) -> usize {
        self.num_limbs
    }

    /// Limb `t` of raised digit `j`.
    #[inline]
    fn row(&self, j: usize, t: usize, n: usize) -> &[u64] {
        let at = (j * self.width + t) * n;
        &self.data[at..at + n]
    }
}

impl Drop for Hoisted {
    fn drop(&mut self) {
        crate::pool::release_scratch(std::mem::take(&mut self.data));
    }
}

thread_local! {
    /// Key-switch `(decompositions, applications)` executed on this
    /// thread since [`take_key_switch_counts`] last read them.
    static KEY_SWITCHES: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// The key-switch `(decompositions, applications)` this thread executed
/// since the last call — relinearisations and rotations alike — so
/// tests can hold analytic schedule counts to the executed loops. The
/// counts are per thread: run the measured code under
/// [`crate::par::with_thread_budget`]`(1, …)`, or a matvec's giant
/// steps land on pool workers and are not seen here.
pub fn take_key_switch_counts() -> (usize, usize) {
    KEY_SWITCHES.with(|c| c.replace((0, 0)))
}

/// Homomorphic evaluator bound to a context and key chain.
#[derive(Debug, Clone)]
pub struct Evaluator {
    ctx: Arc<CkksContext>,
    keys: Arc<KeyChain>,
    encoder: Encoder,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(keys: &Arc<KeyChain>) -> Self {
        let ctx = Arc::clone(keys.context());
        Evaluator {
            encoder: Encoder::new(&ctx),
            ctx,
            keys: Arc::clone(keys),
        }
    }

    /// Shared context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The encoder used for plaintext interop.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Encrypts a plaintext under the public key.
    pub fn encrypt(&self, pt: &Plaintext, rng: &mut Rng64) -> Ciphertext {
        let nl = pt.poly.num_limbs();
        let pk = self.keys.public_key();
        let mut u = RnsPoly::random_ternary(&self.ctx, nl, rng);
        u.to_ntt();
        let mut e0 = RnsPoly::random_error(&self.ctx, nl, rng);
        e0.to_ntt();
        let mut e1 = RnsPoly::random_error(&self.ctx, nl, rng);
        e1.to_ntt();
        let mut c0 = pk.b.truncated(nl);
        c0.mul_assign(&u);
        c0.add_assign(&e0);
        c0.add_assign(&pt.poly);
        let mut c1 = pk.a.truncated(nl);
        c1.mul_assign(&u);
        c1.add_assign(&e1);
        Ciphertext {
            c0,
            c1,
            scale: pt.scale,
        }
    }

    /// Convenience: encode + encrypt real slot values at the default
    /// scale and top level.
    pub fn encrypt_values(&self, values: &[f64], rng: &mut Rng64) -> Ciphertext {
        let pt = self
            .encoder
            .encode(values, self.ctx.scale(), self.ctx.primes().len());
        self.encrypt(&pt, rng)
    }

    /// Decrypts to a plaintext.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let s = truncate(self.keys.secret_key_internal(), ct.num_limbs());
        let mut poly = ct.c0.clone();
        poly.mul_acc(&ct.c1, &s);
        Plaintext {
            poly,
            scale: ct.scale,
        }
    }

    /// Convenience: decrypt + decode `count` slots.
    pub fn decrypt_values(&self, ct: &Ciphertext, count: usize) -> Vec<f64> {
        let pt = self.decrypt(ct);
        self.encoder.decode(&pt, count)
    }

    fn align(&self, a: &Ciphertext, b: &Ciphertext) -> (Ciphertext, Ciphertext) {
        let nl = a.num_limbs().min(b.num_limbs());
        let mut aa = a.clone();
        let mut bb = b.clone();
        aa.drop_to(nl);
        bb.drop_to(nl);
        let rel = (aa.scale - bb.scale).abs() / aa.scale.max(bb.scale);
        assert!(
            rel < SCALE_TOLERANCE,
            "scale mismatch beyond tolerance: {} vs {}",
            aa.scale,
            bb.scale
        );
        (aa, bb)
    }

    /// Homomorphic addition (auto-aligns levels; scales must agree to
    /// within the internal `SCALE_TOLERANCE`).
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (aa, bb) = self.align(a, b);
        Ciphertext {
            c0: aa.c0.add(&bb.c0),
            c1: aa.c1.add(&bb.c1),
            scale: aa.scale.max(bb.scale),
        }
    }

    /// Homomorphic subtraction.
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (aa, bb) = self.align(a, b);
        Ciphertext {
            c0: aa.c0.sub(&bb.c0),
            c1: aa.c1.sub(&bb.c1),
            scale: aa.scale.max(bb.scale),
        }
    }

    /// Adds an encoded plaintext.
    ///
    /// The (full-level) plaintext poly is read through a limb prefix —
    /// no clone, no limb-dropping, no domain conversion per call.
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance or level mismatch.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let rel = (a.scale - pt.scale).abs() / a.scale.max(pt.scale);
        assert!(rel < SCALE_TOLERANCE, "plain add scale mismatch");
        Ciphertext {
            c0: a.c0.add_trunc(&pt.poly),
            c1: a.c1.clone(),
            scale: a.scale,
        }
    }

    /// Multiplies by an encoded plaintext. Result scale is the product;
    /// callers usually [`Self::rescale`] afterwards.
    ///
    /// Like [`Self::add_plain`], reads the plaintext through a limb
    /// prefix instead of cloning and truncating it per call.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        Ciphertext {
            c0: a.c0.mul_trunc(&pt.poly),
            c1: a.c1.mul_trunc(&pt.poly),
            scale: a.scale * pt.scale,
        }
    }

    /// Multiplies by a scalar constant at the default scale and
    /// rescales, consuming one level. The constant's plaintext has the
    /// same residue in every NTT position, so both components are
    /// scaled by that residue per limb — the bytes a
    /// [`Self::mul_plain`] by the encoded constant would give, without
    /// building it.
    pub fn mul_const(&self, a: &Ciphertext, value: f64) -> Ciphertext {
        let scale = self.ctx.scale();
        let residues = self.encoder.constant_residues(value, scale, a.num_limbs());
        let mut out = Ciphertext {
            c0: a.c0.mul_scalar_residues(&residues),
            c1: a.c1.mul_scalar_residues(&residues),
            scale: a.scale * scale,
        };
        self.rescale(&mut out);
        out
    }

    /// Ciphertext-ciphertext multiplication with relinearisation.
    /// Result scale is the product of input scales; callers usually
    /// [`Self::rescale`] afterwards.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (aa, bb) = {
            let nl = a.num_limbs().min(b.num_limbs());
            let mut aa = a.clone();
            let mut bb = b.clone();
            aa.drop_to(nl);
            bb.drop_to(nl);
            (aa, bb)
        };
        let mut d0 = aa.c0.mul(&bb.c0);
        let mut d1 = aa.c0.mul(&bb.c1);
        d1.mul_acc(&aa.c1, &bb.c0);
        let d2 = aa.c1.mul(&bb.c1);
        let (r0, r1) = self.relinearize_d2(&d2);
        d0.add_assign(&r0);
        d1.add_assign(&r1);
        Ciphertext {
            c0: d0,
            c1: d1,
            scale: aa.scale * bb.scale,
        }
    }

    /// Squares a ciphertext (saves one ring multiplication vs `mul`).
    pub fn square(&self, a: &Ciphertext) -> Ciphertext {
        let mut d0 = a.c0.mul(&a.c0);
        let cross = a.c0.mul(&a.c1);
        let mut d1 = cross.add(&cross);
        let d2 = a.c1.mul(&a.c1);
        let (r0, r1) = self.relinearize_d2(&d2);
        d0.add_assign(&r0);
        d1.add_assign(&r1);
        Ciphertext {
            c0: d0,
            c1: d1,
            scale: a.scale * a.scale,
        }
    }

    /// Shared key chain (crate-internal: the Galois module needs it).
    pub(crate) fn keys(&self) -> &Arc<KeyChain> {
        &self.keys
    }

    /// Key-switches the degree-2 component back to a linear ciphertext:
    /// decompose, then apply the relinearisation key once.
    fn relinearize_d2(&self, d2: &RnsPoly) -> (RnsPoly, RnsPoly) {
        let rk = self.keys.relin_key(d2.num_limbs());
        self.apply_key(&self.decompose(d2), &rk, None)
    }

    /// Key-switch phase 1 (**decompose**): splits `p` (NTT form) into
    /// the gadget digits, lifts each digit to the extended basis the
    /// keys live over, and forward-NTTs it. Everything here depends on
    /// `p` alone, so one [`Hoisted`] handle serves any number of
    /// [`Evaluator::apply_key`] calls — every rotation of one
    /// ciphertext shares it. This is the only place digits are raised.
    ///
    /// Per digit `j` covering chain limbs `[start, end)` with modulus
    /// `Q_j = ∏ q_i`:
    ///
    /// 1. `y_i = x_i · [(Q_j/q_i)^{-1}]_{q_i}` on the in-group limbs
    ///    (coefficient domain);
    /// 2. fast base conversion lifts the digit to every limb of the
    ///    extended basis: `c̃_j mod m_t = Σ_i y_i · [(Q_j/q_i)]_{m_t}`;
    ///    the lift overshoots by at most `ω·Q_j`, which the huge
    ///    special modulus `P` absorbs as noise;
    /// 3. forward NTT of every raised out-of-group limb. An in-group
    ///    target is exactly `x_t`, so it copies `p`'s limb as it stands
    ///    in NTT form and skips the pass.
    ///
    /// Every (digit, limb) row is independent, so the raise fans out
    /// across [`crate::par`] bit-identically to the sequential loop.
    pub(crate) fn decompose(&self, p: &RnsPoly) -> Hoisted {
        assert!(p.is_ntt(), "decompose expects NTT form");
        KEY_SWITCHES.with(|c| {
            let (decompositions, applications) = c.get();
            c.set((decompositions + 1, applications));
        });
        let ctx = &self.ctx;
        let nl = p.num_limbs();
        let n = ctx.n();
        let mut coeff = p.clone();
        coeff.to_coeff();
        let basis = self.keys.hybrid_basis(nl);
        let ext = nl + basis.k;
        // Step 1: per-limb digit scaling (the in-group inverse
        // CRT factors), limb-parallel.
        let mut y = crate::pool::acquire(nl * n);
        crate::par::for_each_chunk_mut(&mut y, n, |i, dst| {
            let digit = &basis.digits[i / basis.k];
            let (inv, shoup) = digit.inv_qhat[i - digit.start];
            let arith = ctx.arith(i);
            for (out, &x) in dst.iter_mut().zip(coeff.limb(i)) {
                *out = arith.mul_shoup(x, inv, shoup);
            }
        });
        // Steps 2–3, one task per (digit, extended limb) row.
        let mut data = crate::pool::acquire_scratch(basis.digits.len() * ext * n);
        crate::par::for_each_chunk_mut(&mut data, n, |idx, raised| {
            let (digit, t) = (&basis.digits[idx / ext], idx % ext);
            if t >= digit.start && t < digit.end {
                // In-group target: the lifted digit's residue
                // mod q_t is exactly the input residue, whose
                // transform the input already holds.
                raised.copy_from_slice(p.limb(t));
                return;
            }
            let group = digit.end - digit.start;
            let qh = &digit.qhat[t * group..(t + 1) * group];
            let arith = ctx.ext_arith(nl, t);
            for (c, out) in raised.iter_mut().enumerate() {
                // ω ≤ 8 terms of < 2^124 each: fits u128.
                let mut sum = 0u128;
                for (i, &w) in qh.iter().enumerate() {
                    sum += y[(digit.start + i) * n + c] as u128 * w as u128;
                }
                *out = arith.reduce_u128(sum);
            }
            ctx.ext_ntt(nl, t).forward(raised);
        });
        crate::pool::release(y);
        Hoisted {
            data,
            rows: basis.digits.len(),
            width: ext,
            num_limbs: nl,
        }
    }

    /// Key-switch phase 2 (**apply**): returns `(k0, k1)` with
    /// `k0 + k1·s ≈ φ(p)·s'` for the polynomial `p` behind `hoisted`,
    /// the key's embedded switched-from secret `s'`, and `φ` the
    /// Galois automorphism whose NTT-domain index table is `perm`
    /// (`None` = identity, the relinearisation case).
    ///
    /// `φ` of a raised digit is itself a valid raise of `φ(p)`'s digit
    /// — same congruence mod `Q_j`, same coefficient magnitudes — and
    /// in NTT form it is the gather `row[perm[c]]`, identical for
    /// every limb, so a rotation costs no transform before the inner
    /// product. Per basis limb, the products `Σ_j φ(c̃_j) ⊙ b_j` and
    /// `Σ_j φ(c̃_j) ⊙ a_j` accumulate exactly in `u128` and reduce
    /// once; both sums are then scaled down by `P`
    /// ([`Evaluator::hybrid_mod_down`]).
    ///
    /// Limbs are independent, so this fans out across [`crate::par`]
    /// bit-identically to the sequential loop.
    pub(crate) fn apply_key(
        &self,
        hoisted: &Hoisted,
        key: &crate::keys::RelinKey,
        perm: Option<&[u32]>,
    ) -> (RnsPoly, RnsPoly) {
        // Coefficients per accumulation block: both `u128` partial-sum
        // arrays stay in L1 while the digit rows stream past.
        const BLOCK: usize = 128;
        KEY_SWITCHES.with(|c| {
            let (decompositions, applications) = c.get();
            c.set((decompositions, applications + 1));
        });
        let ctx = &self.ctx;
        let nl = hoisted.num_limbs;
        let n = ctx.n();
        let (rows, width) = (hoisted.rows, hoisted.width);
        assert_eq!(key.num_limbs(), nl, "key level mismatch");
        assert_eq!(key.component_count(), rows, "key gadget mismatch");
        // Raw products that fit one `u128` accumulator: 256 at 60-bit
        // primes, above any digit count, but 16 at 62 bits, which ω = 1
        // passes from 17 limbs on — the sum flushes to residues there.
        let headroom = ctx.lazy_acc_headroom(nl, width - nl);
        assert!(headroom >= 2, "moduli leave no lazy accumulator headroom");
        // Limb `t` of the b-sum lands in chunk `2t`, of the a-sum in
        // chunk `2t + 1`, so one task owns both outputs of its limb.
        let mut acc = crate::pool::acquire_scratch(2 * width * n);
        crate::par::for_each_chunk_mut(&mut acc, 2 * n, |t, out| {
            let arith = ctx.ext_arith(nl, t);
            let (out0, out1) = out.split_at_mut(n);
            let mut sum0 = [0u128; BLOCK];
            let mut sum1 = [0u128; BLOCK];
            for base in (0..n).step_by(BLOCK) {
                let len = BLOCK.min(n - base);
                sum0[..len].fill(0);
                sum1[..len].fill(0);
                let mut pending = 0usize;
                for j in 0..rows {
                    if pending == headroom {
                        // A flushed residue is below one product.
                        for c in 0..len {
                            sum0[c] = arith.reduce_u128(sum0[c]) as u128;
                            sum1[c] = arith.reduce_u128(sum1[c]) as u128;
                        }
                        pending = 1;
                    }
                    pending += 1;
                    let row = hoisted.row(j, t, n);
                    let (b, a) = key.component_limb(j, t, n);
                    let (b, a) = (&b[base..base + len], &a[base..base + len]);
                    match perm {
                        None => {
                            for (c, &r) in row[base..base + len].iter().enumerate() {
                                sum0[c] += r as u128 * b[c] as u128;
                                sum1[c] += r as u128 * a[c] as u128;
                            }
                        }
                        Some(perm) => {
                            for (c, &p) in perm[base..base + len].iter().enumerate() {
                                let r = row[p as usize] as u128;
                                sum0[c] += r * b[c] as u128;
                                sum1[c] += r * a[c] as u128;
                            }
                        }
                    }
                }
                for c in 0..len {
                    out0[base + c] = arith.reduce_u128(sum0[c]);
                    out1[base + c] = arith.reduce_u128(sum1[c]);
                }
            }
        });
        let out = self.hybrid_mod_down(&mut acc, nl);
        crate::pool::release_scratch(acc);
        out
    }

    /// Divides both extended-basis accumulators of
    /// [`Evaluator::apply_key`] (NTT form, `2·(nl + k)` chunks of `n`
    /// with the two sums interleaved per limb) by the special modulus
    /// `P`, returning the chain-basis pair:
    ///
    /// 1. inverse-NTT the special limbs and scale them by
    ///    `[(P/p_l)^{-1}]_{p_l}`;
    /// 2. base-convert their residues back to each chain limb,
    ///    forward-NTT that correction, subtract it and scale by
    ///    `[P^{-1}]_{q_t}`.
    ///
    /// Approximate fast base conversion: per-coefficient error at most
    /// `k`, negligible against the noise floor. Consumes the special
    /// limbs of `acc` as scratch.
    fn hybrid_mod_down(&self, acc: &mut [u64], nl: usize) -> (RnsPoly, RnsPoly) {
        let ctx = &self.ctx;
        let basis = self.keys.hybrid_basis(nl);
        let k = basis.k;
        let n = ctx.n();
        let (chain_acc, sp) = acc.split_at_mut(2 * nl * n);
        // Special limbs → coefficient domain, scaled; chunk `2l + w`
        // is special limb `l` of sum `w`.
        crate::par::for_each_chunk_mut(sp, n, |i, limb| {
            let l = i / 2;
            ctx.ntt_special(l).inverse(limb);
            let arith = ctx.arith_special(l);
            let (inv, shoup) = basis.inv_phat[l];
            for v in limb.iter_mut() {
                *v = arith.mul_shoup(*v, inv, shoup);
            }
        });
        let (sp, chain_acc) = (&sp[..], &chain_acc[..]);
        let mod_down = |w: usize| {
            let mut out = RnsPoly::uninit(ctx, nl, true);
            crate::par::for_each_chunk_mut(out.data_mut(), n, |t, dst| {
                let arith = ctx.arith(t);
                let (p_inv, p_inv_shoup) = basis.p_inv[t];
                let phat = &basis.phat[t * k..(t + 1) * k];
                let mut corr = crate::pool::acquire(n);
                for (c, out_c) in corr.iter_mut().enumerate() {
                    // k ≤ 8 terms: fits u128 without intermediate reduce.
                    let mut sum = 0u128;
                    for (l, &ph) in phat.iter().enumerate() {
                        sum += sp[(2 * l + w) * n + c] as u128 * ph as u128;
                    }
                    *out_c = arith.reduce_u128(sum);
                }
                ctx.ntt(t).forward(&mut corr);
                let src = &chain_acc[(2 * t + w) * n..(2 * t + w + 1) * n];
                for c in 0..n {
                    let diff = arith.sub(src[c], corr[c]);
                    dst[c] = arith.mul_shoup(diff, p_inv, p_inv_shoup);
                }
                crate::pool::release(corr);
            });
            out
        };
        (mod_down(0), mod_down(1))
    }

    /// Rescales a ciphertext: divides by the last prime and drops it.
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn rescale(&self, ct: &mut Ciphertext) {
        let q_last = self.ctx.primes()[ct.num_limbs() - 1];
        ct.c0.rescale();
        ct.c1.rescale();
        ct.scale /= q_last as f64;
    }
}

impl KeyChain {
    /// Internal secret-key accessor for the evaluator.
    pub(crate) fn secret_key_internal(&self) -> &RnsPoly {
        &self.secret_key().s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn setup(seed: u64) -> (Evaluator, Rng64) {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        (Evaluator::new(&keys), rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ev, mut rng) = setup(1);
        let vals: Vec<f64> = (0..32).map(|i| (i as f64 - 16.0) / 10.0).collect();
        let ct = ev.encrypt_values(&vals, &mut rng);
        let out = ev.decrypt_values(&ct, 32);
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn homomorphic_add() {
        let (ev, mut rng) = setup(2);
        let a: Vec<f64> = (0..16).map(|i| i as f64 / 8.0).collect();
        let b: Vec<f64> = (0..16).map(|i| 1.0 - i as f64 / 16.0).collect();
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let out = ev.decrypt_values(&ev.add(&ca, &cb), 16);
        for i in 0..16 {
            assert!((out[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn homomorphic_sub_and_plain_add() {
        let (ev, mut rng) = setup(3);
        let a = vec![0.5, -0.25, 1.0];
        let b = vec![0.1, 0.2, 0.3];
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let diff = ev.decrypt_values(&ev.sub(&ca, &cb), 3);
        for i in 0..3 {
            assert!((diff[i] - (a[i] - b[i])).abs() < 1e-3);
        }
        let pt = ev
            .encoder()
            .encode(&b, ev.context().scale(), ca.num_limbs());
        let sum = ev.decrypt_values(&ev.add_plain(&ca, &pt), 3);
        for i in 0..3 {
            assert!((sum[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn homomorphic_mul_with_relin_and_rescale() {
        let (ev, mut rng) = setup(4);
        let a: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let b: Vec<f64> = (0..16).map(|i| (16.0 - i as f64) / 16.0).collect();
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let mut prod = ev.mul(&ca, &cb);
        ev.rescale(&mut prod);
        assert_eq!(prod.num_limbs(), ca.num_limbs() - 1);
        let out = ev.decrypt_values(&prod, 16);
        for i in 0..16 {
            assert!(
                (out[i] - a[i] * b[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                out[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn square_matches_mul() {
        let (ev, mut rng) = setup(5);
        let a: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) / 4.0).collect();
        let ca = ev.encrypt_values(&a, &mut rng);
        let mut sq = ev.square(&ca);
        ev.rescale(&mut sq);
        let out = ev.decrypt_values(&sq, 8);
        for i in 0..8 {
            assert!((out[i] - a[i] * a[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn mul_const_scales_slots() {
        let (ev, mut rng) = setup(6);
        let a = vec![0.5, -1.0, 0.25];
        let ca = ev.encrypt_values(&a, &mut rng);
        let out = ev.decrypt_values(&ev.mul_const(&ca, -2.0), 3);
        for i in 0..3 {
            assert!((out[i] + 2.0 * a[i]).abs() < 1e-3, "{}", out[i]);
        }
    }

    #[test]
    fn depth_chain_powers() {
        // Repeated squaring down the whole chain: x^(2^k).
        let (ev, mut rng) = setup(7);
        let x = 0.9f64;
        let mut ct = ev.encrypt_values(&[x], &mut rng);
        let mut expect = x;
        let levels = ct.level();
        for _ in 0..levels.min(4) {
            ct = ev.square(&ct);
            ev.rescale(&mut ct);
            expect *= expect;
            let got = ev.decrypt_values(&ct, 1)[0];
            assert!(
                (got - expect).abs() < 2e-2,
                "after squaring: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn drop_to_preserves_value() {
        let (ev, mut rng) = setup(8);
        let a = vec![0.7, -0.3];
        let mut ca = ev.encrypt_values(&a, &mut rng);
        ca.drop_to(2);
        let out = ev.decrypt_values(&ca, 2);
        assert!((out[0] - 0.7).abs() < 1e-3);
        assert!((out[1] + 0.3).abs() < 1e-3);
    }

    #[test]
    fn warm_mul_rescale_pipeline_allocates_nothing() {
        // The perf contract behind the buffer pool: after one warm-up
        // iteration, the steady-state ct_mult → relinearize → rescale
        // pipeline (including the wide lazy key-switch accumulators)
        // runs entirely off the thread-local free lists. Pinned at an
        // intra-op budget of 1: with workers, which thread serves
        // which limb varies run to run, so per-thread pool warm-up is
        // not deterministic (the pools still converge, just not in a
        // fixed iteration count).
        crate::par::with_thread_budget(1, || {
            let (ev, mut rng) = setup(55);
            let ct = ev.encrypt_values(&[0.4, -0.2], &mut rng);
            let pipeline = || {
                let mut p = ev.mul(&ct, &ct);
                ev.rescale(&mut p);
                p
            };
            // Warm-up: builds the relin key digit decomposition
            // buffers and seeds the pool with every buffer shape the
            // pipeline needs.
            for _ in 0..2 {
                std::hint::black_box(pipeline());
            }
            crate::pool::reset_stats();
            for _ in 0..4 {
                std::hint::black_box(pipeline());
            }
            let stats = crate::pool::stats();
            assert_eq!(
                stats.fresh_allocs, 0,
                "steady-state mul+rescale must not hit the allocator: {stats:?}"
            );
            assert!(stats.reuses > 0, "pipeline must actually use the pool");
            assert_eq!(stats.dropped, 0, "free list churn must stay bounded");
        });
    }

    #[test]
    fn warm_rotate_allocates_nothing() {
        // The same contract for rotations: the hoisted digits, the
        // interleaved accumulators and the permuted polys all come off
        // the free list once one decomposition of each shape has run.
        // Budget 1 for the reason above.
        crate::par::with_thread_budget(1, || {
            let (ev, mut rng) = setup(56);
            let ct = ev.encrypt_values(&[0.4, -0.2, 0.1], &mut rng);
            let pipeline = || {
                let one = ev.rotate(&ct, 1);
                let many = ev.rotate_many(&one, &[2, -3, 0, 5]);
                (one, many)
            };
            // Warm-up: generates the Galois keys and index tables and
            // seeds the pool with every buffer shape.
            for _ in 0..2 {
                std::hint::black_box(pipeline());
            }
            crate::pool::reset_stats();
            for _ in 0..4 {
                std::hint::black_box(pipeline());
            }
            let stats = crate::pool::stats();
            assert_eq!(
                stats.fresh_allocs, 0,
                "steady-state rotations must not hit the allocator: {stats:?}"
            );
            assert!(stats.reuses > 0, "rotations must actually use the pool");
            assert_eq!(stats.dropped, 0, "free list churn must stay bounded");
        });
    }

    #[test]
    fn digits_beyond_lazy_headroom_flush() {
        // A 62-bit base prime leaves 16 raw products of headroom; at
        // ω = 1 eighteen limbs are eighteen digits, so the key switch
        // must flush its accumulators mid-sum. Rotate and relinearise
        // across that boundary.
        let params = CkksParams {
            n: 64,
            base_prime_bits: 62,
            scale_prime_bits: 50,
            depth: 17,
            ks_digit_limbs: 1,
        };
        let ctx = params.build();
        assert!(crate::cost::hybrid_digits(&params, 18) > ctx.lazy_acc_headroom(18, 1));
        let mut rng = Rng64::new(40);
        let ev = Evaluator::new(&KeyChain::generate(&ctx, &mut rng));
        let slots = ctx.slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64 / slots as f64 - 0.5).collect();
        let ct = ev.encrypt_values(&vals, &mut rng);
        let rot = ev.rotate(&ct, 3);
        let mut sq = ev.square(&rot);
        ev.rescale(&mut sq);
        let out = ev.decrypt_values(&sq, slots);
        for j in 0..slots {
            let want = vals[(j + 3) % slots].powi(2);
            assert!(
                (out[j] - want).abs() < 1e-6,
                "slot {j}: {} vs {want}",
                out[j]
            );
        }
    }

    /// NTT passes the evaluator executes inside `f`, sequentially (the
    /// counter is per thread).
    fn executed_ntt_passes<T>(f: impl FnOnce() -> T) -> usize {
        use crate::ntt::NTT_PASSES;
        crate::par::with_thread_budget(1, || {
            NTT_PASSES.with(|c| c.set(0));
            std::hint::black_box(f());
            NTT_PASSES.with(|c| c.get())
        })
    }

    #[test]
    fn analytic_ntt_counts_are_the_executed_passes() {
        // cost.rs prices the hybrid key switch and the rescale by their
        // transform passes; hold both to the kernels at every level of
        // the toy chain (ω = 3, so 1–5 digits, partial last groups
        // included).
        use crate::cost::{key_switch_ntts, rescale_ntts};
        let params = CkksParams::toy();
        let (ev, mut rng) = setup(57);
        let fresh = ev.encrypt_values(&[0.4, -0.2], &mut rng);
        for limbs in 1..=fresh.num_limbs() {
            let mut ct = fresh.clone();
            ct.drop_to(limbs);
            // Lazy keys are generated on first touch, which is not the
            // op being counted.
            let _ = (ev.mul(&ct, &ct), ev.rotate_many(&ct, &[1, 2, 3]));
            let key_switch = key_switch_ntts(&params, limbs);
            assert_eq!(executed_ntt_passes(|| ev.mul(&ct, &ct)), key_switch);
            assert_eq!(executed_ntt_passes(|| ev.square(&ct)), key_switch);
            assert_eq!(executed_ntt_passes(|| ev.rotate(&ct, 1)), key_switch);
            // Two more rotations of the same input pay two more
            // mod-downs and no second decomposition.
            let apply = 2 * (params.ks_digit_limbs.min(limbs) + limbs);
            assert_eq!(
                executed_ntt_passes(|| ev.rotate_many(&ct, &[1, 2, 3])),
                key_switch + 2 * apply,
                "{limbs} limbs"
            );
            if limbs > 1 {
                let mut product = ev.mul(&ct, &ct);
                assert_eq!(
                    executed_ntt_passes(|| ev.rescale(&mut product)),
                    rescale_ntts(limbs - 1)
                );
                // A constant is its residue in every NTT position: the
                // multiply transforms nothing, only the rescale does.
                assert_eq!(
                    executed_ntt_passes(|| ev.mul_const(&ct, 0.5)),
                    rescale_ntts(limbs - 1)
                );
            }
        }
    }

    #[test]
    fn mul_const_is_mul_plain_by_the_encoded_constant() {
        // Scaling by the constant's per-limb residues is byte-identical
        // to multiplying by its encoding, negative constants included.
        let (ev, mut rng) = setup(58);
        let mut ct = ev.encrypt_values(&[0.5, -1.0, 0.25], &mut rng);
        for (limbs, value) in [(13, -2.0), (7, 0.3), (2, 1e-3)] {
            ct.drop_to(limbs);
            let pt = ev
                .encoder()
                .encode_constant(value, ev.context().scale(), limbs);
            let mut want = ev.mul_plain(&ct, &pt);
            ev.rescale(&mut want);
            let got = ev.mul_const(&ct, value);
            assert_eq!(got.scale, want.scale);
            for (g, w) in [(&got.c0, &want.c0), (&got.c1, &want.c1)] {
                assert_eq!(
                    g.limbs().collect::<Vec<_>>(),
                    w.limbs().collect::<Vec<_>>(),
                    "{limbs} limbs, constant {value}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scale mismatch")]
    fn add_rejects_wild_scale_mismatch() {
        let (ev, mut rng) = setup(9);
        let ca = ev.encrypt_values(&[0.5], &mut rng);
        let mut cb = ev.encrypt_values(&[0.5], &mut rng);
        cb.scale *= 2.0;
        let _ = ev.add(&ca, &cb);
    }
}
