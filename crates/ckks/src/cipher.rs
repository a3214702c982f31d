//! Ciphertexts and homomorphic operations.

use crate::encoding::{Encoder, Plaintext};
use crate::keys::{KeyChain, ModDown};
use crate::rns::{CkksContext, RnsPoly};
use smartpaf_tensor::Rng64;
use std::sync::Arc;

/// Maximum tolerated relative scale mismatch when adding ciphertexts.
///
/// A rescale divides by a prime, not by Δ, so a product brought back
/// down sits `|q/Δ − 1|` off the scale of a fresh encryption; this
/// admits the sum of the two and nothing wider: the default ring's
/// scale primes are within 1.5e-6 of Δ, the toy ring's within 9.3e-8
/// (`scale_tolerance_covers_one_rescale_and_not_two_orders_more`).
/// The mismatch is the relative slot error of the sum, so anything
/// looser spends precision silently — the 5e-3 this constant used to
/// be hid a 1e-4 drift per level inside the PAF evaluator, 8 bits of
/// every inference. The evaluator now encodes its constants so that
/// its addends agree exactly (`eval.rs`, "Scale management") and does
/// not rely on this.
const SCALE_TOLERANCE: f64 = 1e-5;

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
        self.c0.drop_to(num_limbs);
        self.c1.drop_to(num_limbs);
    }
}

/// The degree-2 tensor product of two ciphertexts before its key
/// switch: `m ≈ d0 + d1·s + d2·s²` ([`Evaluator::tensor`]). Products
/// on the same limbs at the same scale add component-wise, so a sum
/// of them pays for one relinearisation
/// ([`Evaluator::relinearize`], [`Evaluator::relinearize_rescale`]).
#[derive(Debug, Clone)]
pub struct Product {
    d0: RnsPoly,
    d1: RnsPoly,
    d2: RnsPoly,
    /// The product of the factors' scales.
    pub scale: f64,
}

impl Product {
    /// Number of RNS limbs (level + 1).
    pub fn num_limbs(&self) -> usize {
        self.d0.num_limbs()
    }

    /// Drops limbs until `num_limbs` remain (plain modulus switch).
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or larger than the current count.
    pub fn drop_to(&mut self, num_limbs: usize) {
        for d in [&mut self.d0, &mut self.d1, &mut self.d2] {
            d.drop_to(num_limbs);
        }
    }

    /// Adds another product on the same limbs.
    ///
    /// # Panics
    ///
    /// Panics on a limb-count mismatch or a scale mismatch beyond
    /// `SCALE_TOLERANCE`.
    pub fn add_assign(&mut self, other: &Product) {
        assert_eq!(self.num_limbs(), other.num_limbs(), "limb mismatch");
        assert_scales_agree(self.scale, other.scale);
        self.d0.add_assign(&other.d0);
        self.d1.add_assign(&other.d1);
        self.d2.add_assign(&other.d2);
        self.scale = self.scale.max(other.scale);
    }
}

fn assert_scales_agree(a: f64, b: f64) {
    let rel = (a - b).abs() / a.max(b);
    assert!(
        rel < SCALE_TOLERANCE,
        "scale mismatch beyond tolerance: {a} vs {b}"
    );
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
        let mut c0 = pk.b.mul(&u);
        c0.add_assign(&e0);
        c0.add_assign(&pt.poly);
        let mut c1 = pk.a.mul(&u);
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
        let mut poly = ct.c0.clone();
        poly.mul_acc(&ct.c1, self.keys.secret_key_internal());
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

    /// Homomorphic addition on the operands' common limbs: the higher
    /// one is read through its limb prefix, neither is copied. Scales
    /// must agree to within the internal `SCALE_TOLERANCE`.
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_scales_agree(a.scale, b.scale);
        Ciphertext {
            c0: a.c0.add(&b.c0),
            c1: a.c1.add(&b.c1),
            scale: a.scale.max(b.scale),
        }
    }

    /// Homomorphic subtraction, on the common limbs like [`Self::add`].
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_scales_agree(a.scale, b.scale);
        Ciphertext {
            c0: a.c0.sub(&b.c0),
            c1: a.c1.sub(&b.c1),
            scale: a.scale.max(b.scale),
        }
    }

    /// Adds an encoded plaintext at the ciphertext's level or above.
    ///
    /// The (usually full-level) plaintext poly is read through a limb
    /// prefix — no clone, no limb-dropping, no domain conversion per
    /// call.
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance or if the plaintext
    /// has fewer limbs.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert_scales_agree(a.scale, pt.scale);
        assert!(pt.poly.num_limbs() >= a.num_limbs(), "level mismatch");
        Ciphertext {
            c0: a.c0.add(&pt.poly),
            c1: a.c1.clone(),
            scale: a.scale,
        }
    }

    /// Multiplies by an encoded plaintext at the ciphertext's level or
    /// above, read through a limb prefix like [`Self::add_plain`].
    /// Result scale is the product; callers usually [`Self::rescale`]
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext has fewer limbs.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert!(pt.poly.num_limbs() >= a.num_limbs(), "level mismatch");
        Ciphertext {
            c0: a.c0.mul(&pt.poly),
            c1: a.c1.mul(&pt.poly),
            scale: a.scale * pt.scale,
        }
    }

    /// Multiplies by a scalar constant at the default scale and
    /// rescales, consuming one level:
    /// [`Self::mul_const_at`]`(a, value, ctx.scale())`.
    pub fn mul_const(&self, a: &Ciphertext, value: f64) -> Ciphertext {
        self.mul_const_at(a, value, self.ctx.scale())
    }

    /// Multiplies by a scalar constant encoded at `const_scale` and
    /// rescales, consuming one level; the result's scale is
    /// `a.scale · const_scale / q_last`, which is how a caller steers
    /// it. The constant's plaintext has the same residue in every NTT
    /// position, so both components are scaled by that residue per
    /// limb — the bytes a [`Self::mul_plain`] by the encoded constant
    /// and a [`Self::rescale`] would give, without building the
    /// plaintext and with the multiply folded into the rescale's
    /// divide pass.
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn mul_const_at(&self, a: &Ciphertext, value: f64, const_scale: f64) -> Ciphertext {
        let nl = a.num_limbs();
        let residues = self.encoder.constant_residues(value, const_scale, nl);
        Ciphertext {
            c0: a.c0.rescale_scaled(&residues),
            c1: a.c1.rescale_scaled(&residues),
            scale: a.scale * const_scale / self.ctx.primes()[nl - 1] as f64,
        }
    }

    /// The tensor product of two ciphertexts on their common limbs, not
    /// yet key-switched: four ring multiplications, no transform.
    pub fn tensor(&self, a: &Ciphertext, b: &Ciphertext) -> Product {
        let d0 = a.c0.mul(&b.c0);
        let mut d1 = a.c0.mul(&b.c1);
        d1.mul_acc(&a.c1, &b.c0);
        let d2 = a.c1.mul(&b.c1);
        Product {
            d0,
            d1,
            d2,
            scale: a.scale * b.scale,
        }
    }

    /// [`Self::tensor`] of a ciphertext with itself (saves one ring
    /// multiplication).
    pub fn tensor_square(&self, a: &Ciphertext) -> Product {
        let d0 = a.c0.mul(&a.c0);
        let cross = a.c0.mul(&a.c1);
        let d1 = cross.add(&cross);
        let d2 = a.c1.mul(&a.c1);
        Product {
            d0,
            d1,
            d2,
            scale: a.scale * a.scale,
        }
    }

    /// Key-switches a product's degree-2 component back to a linear
    /// ciphertext at the product's scale and limbs: decompose, apply
    /// the relinearisation key, divide by `P`.
    pub fn relinearize(&self, product: Product) -> Ciphertext {
        let Product {
            mut d0,
            mut d1,
            d2,
            scale,
        } = product;
        let rk = self.keys.relin_key(d2.num_limbs());
        let (r0, r1) = self.apply_key(&self.decompose(&d2), &rk, None);
        d0.add_assign(&r0);
        d1.add_assign(&r1);
        Ciphertext {
            c0: d0,
            c1: d1,
            scale,
        }
    }

    /// [`Self::relinearize`] and the [`Self::rescale`] after it as one
    /// division: `P·d_w` joins the key switch's extended-basis sums and
    /// the whole is divided by `P·q_last`, to nearest, in a single base
    /// conversion — the limbs, scale and (to a unit in the last place
    /// of a coefficient) value of the two calls, for the transform
    /// passes of the first alone.
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn relinearize_rescale(&self, product: Product) -> Ciphertext {
        let Product { d0, d1, d2, scale } = product;
        let nl = d2.num_limbs();
        assert!(nl > 1, "cannot rescale the last limb");
        let rk = self.keys.relin_key(nl);
        let mut acc = self.accumulate(&self.decompose(&d2), &rk, None, Some((&d0, &d1)));
        let basis = self.keys.hybrid_basis(nl);
        let divide = basis.div_p_q_last.as_ref().expect("more than one limb");
        let (c0, c1) = self.hybrid_mod_down(&mut acc, nl, divide);
        crate::pool::release_scratch(acc);
        Ciphertext {
            c0,
            c1,
            scale: scale / self.ctx.primes()[nl - 1] as f64,
        }
    }

    /// Ciphertext-ciphertext multiplication with relinearisation.
    /// Result scale is the product of input scales; callers usually
    /// [`Self::rescale`] afterwards.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.relinearize(self.tensor(a, b))
    }

    /// Squares a ciphertext (saves one ring multiplication vs `mul`).
    pub fn square(&self, a: &Ciphertext) -> Ciphertext {
        self.relinearize(self.tensor_square(a))
    }

    /// Shared key chain (crate-internal: the Galois module needs it).
    pub(crate) fn keys(&self) -> &Arc<KeyChain> {
        &self.keys
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
    /// (`None` = identity, the relinearisation case): the inner
    /// products of [`Evaluator::accumulate`], scaled down by `P`
    /// ([`Evaluator::hybrid_mod_down`]).
    pub(crate) fn apply_key(
        &self,
        hoisted: &Hoisted,
        key: &crate::keys::RelinKey,
        perm: Option<&[u32]>,
    ) -> (RnsPoly, RnsPoly) {
        let nl = hoisted.num_limbs;
        let mut acc = self.accumulate(hoisted, key, perm, None);
        let out = self.hybrid_mod_down(&mut acc, nl, &self.keys.hybrid_basis(nl).div_p);
        crate::pool::release_scratch(acc);
        out
    }

    /// The inner products of a key switch, over the extended basis in
    /// NTT form: `2·(nl + k)` chunks of `n` in one pooled scratch
    /// buffer, limb `t` of the b-sum in chunk `2t` and of the a-sum in
    /// chunk `2t + 1`. With `seed = (d0, d1)`, `P·d_w` is added to sum
    /// `w` (chain limbs only: it vanishes mod every special prime), so
    /// that one division serves the switched and the unswitched part.
    ///
    /// `φ` of a raised digit is itself a valid raise of `φ(p)`'s digit
    /// — same congruence mod `Q_j`, same coefficient magnitudes — and
    /// in NTT form it is the gather `row[perm[c]]`, identical for
    /// every limb, so a rotation costs no transform before the inner
    /// product. Per basis limb, the products `Σ_j φ(c̃_j) ⊙ b_j` and
    /// `Σ_j φ(c̃_j) ⊙ a_j` accumulate exactly in `u128` and reduce
    /// once.
    ///
    /// Limbs are independent, so this fans out across [`crate::par`]
    /// bit-identically to the sequential loop.
    fn accumulate(
        &self,
        hoisted: &Hoisted,
        key: &crate::keys::RelinKey,
        perm: Option<&[u32]>,
        seed: Option<(&RnsPoly, &RnsPoly)>,
    ) -> Vec<u64> {
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
        let p_mod = &self.keys.hybrid_basis(nl).p_mod;
        let mut acc = crate::pool::acquire_scratch(2 * width * n);
        crate::par::for_each_chunk_mut(&mut acc, 2 * n, |t, out| {
            let arith = ctx.ext_arith(nl, t);
            let (out0, out1) = out.split_at_mut(n);
            let seed = seed.filter(|_| t < nl);
            let mut sum0 = [0u128; BLOCK];
            let mut sum1 = [0u128; BLOCK];
            for base in (0..n).step_by(BLOCK) {
                let len = BLOCK.min(n - base);
                let mut pending = 0usize;
                match seed {
                    // One more raw product below `q_t²`.
                    Some((d0, d1)) => {
                        let p = p_mod[t] as u128;
                        let (d0, d1) = (&d0.limb(t)[base..], &d1.limb(t)[base..]);
                        for c in 0..len {
                            sum0[c] = d0[c] as u128 * p;
                            sum1[c] = d1[c] as u128 * p;
                        }
                        pending = 1;
                    }
                    None => {
                        sum0[..len].fill(0);
                        sum1[..len].fill(0);
                    }
                }
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
        acc
    }

    /// Divides both extended-basis accumulators of
    /// [`Evaluator::accumulate`] by the product `D` of the basis'
    /// trailing limbs — `P`, or `q_last·P` ([`ModDown`]) — returning
    /// the pair over the chain limbs before them:
    ///
    /// 1. inverse-NTT the divisor limbs and scale them by
    ///    `[(D/d_l)^{-1}]_{d_l}`;
    /// 2. base-convert their residues back to each remaining limb,
    ///    forward-NTT that correction, subtract it and scale by
    ///    `[D^{-1}]_{q_t}`.
    ///
    /// The fast base conversion overshoots the remainder by `u·D` with
    /// `u` below the divisor count, so the plain quotient is a floor
    /// less `u`: negligible where a rescale divides it by `q_last`
    /// next, which is every division by `P`. A fused division's
    /// quotient is final, so it takes the overshoot out —
    /// `u' = round(Σ_l y_l/d_l)` is `u` plus the remainder's rounding
    /// bit, and subtracting `u'·D` makes the quotient a round to
    /// nearest, as [`RnsPoly::rescale`]'s is.
    ///
    /// Consumes the divisor limbs of `acc` as scratch.
    fn hybrid_mod_down(&self, acc: &mut [u64], nl: usize, div: &ModDown) -> (RnsPoly, RnsPoly) {
        let ctx = &self.ctx;
        let n = ctx.n();
        let out_limbs = div.out_limbs;
        let divisors = div.inv_hat.len();
        let (out_acc, dv) = acc.split_at_mut(2 * out_limbs * n);
        // Divisor limbs → coefficient domain, scaled; chunk `2l + w`
        // is divisor limb `l` of sum `w`.
        crate::par::for_each_chunk_mut(dv, n, |i, limb| {
            let l = i / 2;
            ctx.ext_ntt(nl, out_limbs + l).inverse(limb);
            let arith = ctx.ext_arith(nl, out_limbs + l);
            let (inv, shoup) = div.inv_hat[l];
            for v in limb.iter_mut() {
                *v = arith.mul_shoup(*v, inv, shoup);
            }
        });
        let (dv, out_acc) = (&dv[..], &out_acc[..]);
        // `u'` per coefficient of each sum; the terms are summed in
        // limb order, so the value does not depend on the thread count.
        let overshoot = (!div.inv_f64.is_empty()).then(|| {
            let mut u = crate::pool::acquire(2 * n);
            crate::par::for_each_chunk_mut(&mut u, n, |w, u| {
                for (c, u_c) in u.iter_mut().enumerate() {
                    let mut sum = 0.0f64;
                    for (l, &inv) in div.inv_f64.iter().enumerate() {
                        sum += dv[(2 * l + w) * n + c] as f64 * inv;
                    }
                    *u_c = sum.round() as u64;
                }
            });
            u
        });
        let mod_down = |w: usize| {
            let mut out = RnsPoly::uninit(ctx, out_limbs, true);
            crate::par::for_each_chunk_mut(out.data_mut(), n, |t, dst| {
                let arith = ctx.arith(t);
                let (d_inv, d_inv_shoup) = div.d_inv[t];
                let hat = &div.hat[t * divisors..(t + 1) * divisors];
                let mut corr = crate::pool::acquire(n);
                // At most 9 terms below 2^124 and one below 2^66: fits
                // u128 without intermediate reduce.
                let convert = |c: usize| {
                    let mut sum = 0u128;
                    for (l, &h) in hat.iter().enumerate() {
                        sum += dv[(2 * l + w) * n + c] as u128 * h as u128;
                    }
                    sum
                };
                match overshoot.as_deref() {
                    None => {
                        for (c, out_c) in corr.iter_mut().enumerate() {
                            *out_c = arith.reduce_u128(convert(c));
                        }
                    }
                    Some(u) => {
                        let neg_d = div.neg_d[t] as u128;
                        for (c, (out_c, &u)) in corr.iter_mut().zip(&u[w * n..]).enumerate() {
                            *out_c = arith.reduce_u128(convert(c) + u as u128 * neg_d);
                        }
                    }
                }
                ctx.ntt(t).forward(&mut corr);
                let src = &out_acc[(2 * t + w) * n..(2 * t + w + 1) * n];
                for c in 0..n {
                    let diff = arith.sub(src[c], corr[c]);
                    dst[c] = arith.mul_shoup(diff, d_inv, d_inv_shoup);
                }
                crate::pool::release(corr);
            });
            out
        };
        let out = (mod_down(0), mod_down(1));
        if let Some(u) = overshoot {
            crate::pool::release(u);
        }
        out
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
    fn tensor_add_sub_read_the_higher_operand_through_a_prefix() {
        // Operands at different levels, either way round: the bytes and
        // scale of the op on two copies dropped to the common limbs.
        let (ev, mut rng) = setup(9);
        let hi = ev.encrypt_values(&[0.7, -0.3], &mut rng);
        let mut lo = ev.encrypt_values(&[0.2, 0.5], &mut rng);
        lo.drop_to(2);
        let mut hi_dropped = hi.clone();
        hi_dropped.drop_to(2);
        let expect = ev.tensor(&hi_dropped, &lo);
        for got in [ev.tensor(&hi, &lo), ev.tensor(&lo, &hi)] {
            assert_eq!(got.num_limbs(), 2);
            assert_eq!(got.scale, expect.scale);
            for (g, e) in [
                (&got.d0, &expect.d0),
                (&got.d1, &expect.d1),
                (&got.d2, &expect.d2),
            ] {
                assert!(g.limbs().eq(e.limbs()));
            }
        }
        type Op = fn(&Evaluator, &Ciphertext, &Ciphertext) -> Ciphertext;
        for (name, op) in [("add", Evaluator::add as Op), ("sub", Evaluator::sub)] {
            for (a, b, a_dropped, b_dropped) in
                [(&hi, &lo, &hi_dropped, &lo), (&lo, &hi, &lo, &hi_dropped)]
            {
                let (got, want) = (op(&ev, a, b), op(&ev, a_dropped, b_dropped));
                assert_eq!(got.num_limbs(), 2, "{name}");
                assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{name}");
                assert_eq!(digest(&got), digest(&want), "{name}");
            }
        }
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
                // The fused form of the same, on a sum of products.
                let mut sum = ev.tensor(&ct, &ct);
                sum.add_assign(&ev.tensor_square(&ct));
                (p, ev.relinearize_rescale(sum))
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
        use crate::cost::{key_switch_ntts, relin_rescale_ntts, rescale_ntts};
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
                // The fused division pays for the key switch alone.
                let fused = relin_rescale_ntts(&params, limbs);
                assert_eq!(fused, key_switch);
                assert_eq!(
                    executed_ntt_passes(|| ev.relinearize_rescale(ev.tensor(&ct, &ct))),
                    fused,
                    "{limbs} limbs"
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

    /// Signed difference `a − b` of two residues mod `q`.
    fn centered_diff(a: u64, b: u64, q: u64) -> f64 {
        let d = (a + q - b) % q;
        if d > q / 2 {
            d as f64 - q as f64
        } else {
            d as f64
        }
    }

    #[test]
    fn fused_relinearize_rescale_matches_mul_then_rescale() {
        // One division by P·q_last against the two it replaces, at
        // every limb count of the toy and the default ring: the same
        // limbs and scale, decrypted slots within 2⁻³⁰, no bias between
        // the two roundings, and the same bytes at any thread budget.
        for params in [CkksParams::toy(), CkksParams::default_params()] {
            let ctx = params.build();
            let mut rng = Rng64::new(59);
            let ev = Evaluator::new(&KeyChain::generate(&ctx, &mut rng));
            let slots = ctx.slots();
            let xs: Vec<f64> = (0..slots).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let ys: Vec<f64> = (0..slots).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let (cx, cy) = (
                ev.encrypt_values(&xs, &mut rng),
                ev.encrypt_values(&ys, &mut rng),
            );
            for limbs in 2..=13 {
                let (mut a, mut b) = (cx.clone(), cy.clone());
                a.drop_to(limbs);
                b.drop_to(limbs);
                let mut separate = ev.mul(&a, &b);
                ev.rescale(&mut separate);
                let fused = ev.relinearize_rescale(ev.tensor(&a, &b));
                assert_eq!(fused.num_limbs(), limbs - 1);
                assert_eq!(fused.scale.to_bits(), separate.scale.to_bits());
                let got = ev.decrypt_values(&fused, slots);
                let want = ev.decrypt_values(&separate, slots);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 2f64.powi(-30), "{limbs} limbs: {g} vs {w}");
                }
                // A floor in place of the rounding reads ≈ −2 here.
                let q0 = ctx.primes()[0];
                let (mut f0, mut s0) = (fused.c0.clone(), separate.c0.clone());
                f0.to_coeff();
                s0.to_coeff();
                let diffs = f0.limb(0).iter().zip(s0.limb(0));
                let mean =
                    diffs.map(|(&f, &s)| centered_diff(f, s, q0)).sum::<f64>() / ctx.n() as f64;
                assert!(mean.abs() < 0.1, "{limbs} limbs: mean difference {mean}");
                for budget in [1, 2, 8] {
                    let again = crate::par::with_thread_budget(budget, || {
                        ev.relinearize_rescale(ev.tensor(&a, &b))
                    });
                    assert_eq!(digest(&again), digest(&fused), "budget {budget}");
                }
            }
            // Squaring is the same product.
            let mut separate = ev.square(&cx);
            ev.rescale(&mut separate);
            let fused = ev.relinearize_rescale(ev.tensor_square(&cx));
            let got = ev.decrypt_values(&fused, slots);
            for (g, w) in got.iter().zip(&ev.decrypt_values(&separate, slots)) {
                assert!((g - w).abs() < 2f64.powi(-30));
            }
        }
    }

    #[test]
    fn a_sum_of_products_relinearises_once() {
        // Products add component-wise: one key switch for x·y + z².
        let (ev, mut rng) = setup(60);
        let (xs, ys, zs) = ([0.5, -0.25, 0.8], [0.3, 0.9, -0.7], [0.6, -0.4, 0.1]);
        let cx = ev.encrypt_values(&xs, &mut rng);
        let cy = ev.encrypt_values(&ys, &mut rng);
        let mut cz = ev.encrypt_values(&zs, &mut rng);
        cz.drop_to(9);
        let (out, key_switches) = crate::par::with_thread_budget(1, || {
            take_key_switch_counts();
            let mut sum = ev.tensor(&cx, &cy);
            sum.drop_to(9);
            sum.add_assign(&ev.tensor_square(&cz));
            (ev.relinearize_rescale(sum), take_key_switch_counts())
        });
        assert_eq!(key_switches, (1, 1));
        assert_eq!(out.num_limbs(), 8);
        let got = ev.decrypt_values(&out, 3);
        for i in 0..3 {
            let want = xs[i] * ys[i] + zs[i] * zs[i];
            assert!((got[i] - want).abs() < 1e-6, "{} vs {want}", got[i]);
        }
    }

    #[test]
    fn scale_tolerance_covers_one_rescale_and_not_two_orders_more() {
        // What `SCALE_TOLERANCE` is for: a product rescaled once added
        // to a fresh encryption. Measured over every scale prime of the
        // working presets (toy 9.3e-8, default 1.5e-6, benchmark
        // 3.6e-6; the paper-scale chain's 20 primes at n = 32768 reach
        // 2.0e-5, above it — scales there are managed, as the PAF
        // evaluator's are everywhere).
        let drift = |params: CkksParams| {
            let ctx = params.build();
            let primes = ctx.primes()[1..].iter();
            primes
                .map(|&q| (q as f64 / ctx.scale() - 1.0).abs())
                .fold(0.0, f64::max)
        };
        let (toy, default) = (
            drift(CkksParams::toy()),
            drift(CkksParams::default_params()),
        );
        assert!(
            toy < default && default < SCALE_TOLERANCE,
            "{toy} {default}"
        );
        assert!(SCALE_TOLERANCE < 100.0 * default, "{default}");
        let (ev, mut rng) = setup(61);
        let ct = ev.encrypt_values(&[0.5], &mut rng);
        let mut sq = ev.square(&ct);
        ev.rescale(&mut sq);
        let sum = ev.decrypt_values(&ev.add(&sq, &ct), 1)[0];
        assert!((sum - 0.75).abs() < 1e-6, "{sum}");
    }

    /// FNV-1a over a ciphertext's residue words and scale bits.
    fn digest(ct: &Ciphertext) -> u64 {
        let words = ct.c0.limbs().chain(ct.c1.limbs()).flatten().copied();
        words
            .chain([ct.scale.to_bits()])
            .fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn primitive_ops_produce_the_recorded_bytes() {
        // The primitives that did not change must not move a bit: the
        // literals are the digests the commit before the fused division
        // produced for the same seed, on the full toy chain and on 7
        // limbs, at thread budgets 1 and 2.
        let recorded: [[u64; 7]; 2] = [
            [
                0x6386fa2163c5a141,
                0x799efdd721f6e2a9,
                0xb92f49cf59d89d16,
                0x63755ce3db66ad2f,
                0xbce4f48ab4bd06be,
                0x4d91a21b35bff1db,
                0x69fda8b390f69a9e,
            ],
            [
                0x736388b50b49c09f,
                0x4b4aacf355ed1a3e,
                0x1a10e54d91d1f1c9,
                0x21a2bcca8f29c5fe,
                0x040e90c64dea5cc3,
                0xf24b3c65037080dd,
                0xd6a4f5afdd825f03,
            ],
        ];
        for budget in [1, 2] {
            crate::par::with_thread_budget(budget, || {
                let (ev, mut rng) = setup(77);
                let slots = ev.context().slots();
                let vals: Vec<f64> = (0..slots).map(|i| (i % 17) as f64 / 17.0 - 0.5).collect();
                let fresh = ev.encrypt_values(&vals, &mut rng);
                let other = ev.encrypt_values(&vals[..slots / 2], &mut rng);
                let rows: Vec<Vec<f64>> = (0..8)
                    .map(|r| {
                        (0..8)
                            .map(|c| ((r * 5 + c * 3) % 7) as f64 / 7.0 - 0.4)
                            .collect()
                    })
                    .collect();
                let mat = crate::linear::DiagMatrix::from_rows(&rows);
                for (limbs, want) in [13, 7].into_iter().zip(recorded) {
                    let mut ct = fresh.clone();
                    ct.drop_to(limbs);
                    let product = ev.mul(&ct, &other);
                    let mut rescaled = product.clone();
                    ev.rescale(&mut rescaled);
                    let many = ev.rotate_many(&ct, &[1, -2, 5]);
                    let got = [
                        digest(&product),
                        digest(&ev.square(&ct)),
                        digest(&ev.rotate(&ct, 3)),
                        many.iter().fold(0, |h, r| h ^ digest(r)),
                        digest(&ev.matvec_bsgs(&mat, &ct)),
                        digest(&rescaled),
                        digest(&ev.mul_const(&ct, -0.37)),
                    ];
                    assert_eq!(got, want, "{limbs} limbs, budget {budget}: {got:#x?}");
                }
            });
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
