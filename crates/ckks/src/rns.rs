//! RNS polynomial ring: elements of `Z_Q[X]/(X^n+1)` stored as one
//! residue vector ("limb") per prime in the modulus chain.
//!
//! # Flat limb layout
//!
//! A poly's limbs live in **one contiguous `Vec<u64>`**, limb-major:
//! limb `i` is the stride slice `data[i*n .. (i+1)*n]`. Dropping the
//! last limb (modulus switch, rescale) is a truncation, cloning is a
//! single `memcpy`, and the backing buffer is recycled through the
//! thread-local [`crate::pool`] so steady-state ciphertext pipelines
//! do not allocate. See `docs/ARCHITECTURE.md` ("Memory & kernels").
//!
//! # The prefix rule
//!
//! An op runs on the limbs both operands have. An allocating op
//! (`add`, `sub`, `mul`) returns `min(self, other)` limbs; an in-place
//! op (`add_assign`) reads the first `self.num_limbs()` limbs of
//! operands at the same or a higher level. The residues of a
//! prefix are the residues of a truncation, so an operand is never
//! copied or dropped to meet another's level, and a plaintext encoded
//! on `k` limbs serves every level below `k`.
//!
//! Additions go through the per-prime [`crate::modular::PrimeArith`]
//! kernels, and every per-coefficient product — a ring product, a
//! rescale's divide — is a [`Products`] sum: the IFMA dot kernel where
//! the limb's table has one, `u128` accumulators otherwise, the same
//! residues either way.

use crate::cipher::{Products, Term, Weight};
use crate::encoding::EncodingTables;
use crate::modular::{inv_mod, PrimeArith};
use crate::ntt::NttTable;
use crate::pool;
use smartpaf_tensor::Rng64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Precomputed constants for one rescale step: dividing by the prime
/// at `last_idx` inside the limb at `i < last_idx`.
#[derive(Debug, Clone, Copy)]
struct RescalePre {
    /// `q_last mod q_i`.
    q_last_mod: u64,
    /// `(q_last mod q_i)^-1 mod q_i`.
    inv: u64,
    /// `q_last < 2·q_i`: a residue mod `q_last` is reduced mod `q_i`
    /// by one conditional subtract. Holds for every pair of every
    /// preset (equal-size scale primes; the base prime is larger).
    one_subtract: bool,
}

/// Shared CKKS ring context: dimension, prime chain, NTT tables and
/// the default encoding scale.
#[derive(Debug)]
pub struct CkksContext {
    n: usize,
    primes: Vec<u64>,
    ntt: Vec<NttTable>,
    /// Key-switch special primes (empty in a ring-only context).
    /// Disjoint from `primes`; their count is the gadget digit size ω.
    special: Vec<u64>,
    /// NTT tables for the special primes, same order as `special`.
    ntt_sp: Vec<NttTable>,
    /// `rescale_pre[last_idx]` holds constants for limbs
    /// `0..last_idx` when rescaling away the prime at `last_idx`.
    rescale_pre: Vec<Vec<RescalePre>>,
    /// NTT-domain index tables of the Galois automorphisms used so
    /// far, by element: insert-only, so a poisoned map is still valid.
    galois_perms: Mutex<HashMap<usize, Arc<[u32]>>>,
    /// The encoder's tables, built by the first [`crate::Encoder`].
    encoding: OnceLock<EncodingTables>,
    scale: f64,
    sigma: f64,
}

impl CkksContext {
    /// Builds a ring-only context (no special primes): polynomial
    /// arithmetic and encoding work, key generation does not
    /// ([`crate::KeyChain::generate`] needs
    /// [`CkksContext::with_special_primes`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, `primes` is empty, or any
    /// prime is not NTT-friendly for `n`.
    pub fn new(n: usize, primes: Vec<u64>, scale: f64) -> Arc<Self> {
        Self::with_special_primes(n, primes, Vec::new(), scale)
    }

    /// Builds a context whose key switches use the hybrid gadget:
    /// `special.len()` = ω RNS limbs are grouped per digit and the
    /// raised accumulation runs over the chain extended by the special
    /// primes.
    ///
    /// # Panics
    ///
    /// As [`CkksContext::new`], plus if any special prime repeats a
    /// chain prime.
    pub fn with_special_primes(
        n: usize,
        primes: Vec<u64>,
        special: Vec<u64>,
        scale: f64,
    ) -> Arc<Self> {
        assert!(n.is_power_of_two(), "n must be a power of two");
        assert!(!primes.is_empty(), "empty prime chain");
        for &p in &special {
            assert!(
                !primes.contains(&p),
                "special prime {p} collides with the modulus chain"
            );
        }
        let ntt: Vec<NttTable> = primes.iter().map(|&q| NttTable::new(q, n)).collect();
        let ntt_sp: Vec<NttTable> = special.iter().map(|&p| NttTable::new(p, n)).collect();
        let rescale_pre = (0..primes.len())
            .map(|last_idx| {
                let q_last = primes[last_idx];
                (0..last_idx)
                    .map(|i| {
                        let q = primes[i];
                        let q_last_mod = q_last % q;
                        let inv = inv_mod(q_last_mod, q);
                        RescalePre {
                            q_last_mod,
                            inv,
                            one_subtract: q_last < 2 * q,
                        }
                    })
                    .collect()
            })
            .collect();
        Arc::new(CkksContext {
            n,
            primes,
            ntt,
            special,
            ntt_sp,
            rescale_pre,
            galois_perms: Mutex::new(HashMap::new()),
            encoding: OnceLock::new(),
            scale,
            sigma: 3.2,
        })
    }

    /// Ring dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of SIMD slots (`n / 2`).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// The full prime chain, top level first consumed last.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Highest level index (`primes.len() - 1`); a fresh ciphertext has
    /// `level() + 1` limbs and supports `level()` rescales.
    pub fn max_level(&self) -> usize {
        self.primes.len() - 1
    }

    /// Default encoding scale Δ.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Error standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// NTT table for prime index `i`.
    pub fn ntt(&self, i: usize) -> &NttTable {
        &self.ntt[i]
    }

    /// Barrett/Shoup constants for prime index `i`.
    #[inline]
    pub fn arith(&self, i: usize) -> &PrimeArith {
        self.ntt[i].arith()
    }

    /// The key-switch special primes (empty in a ring-only context).
    /// Their count is the gadget digit size ω.
    pub fn special_primes(&self) -> &[u64] {
        &self.special
    }

    /// NTT table for special prime index `l`.
    pub fn ntt_special(&self, l: usize) -> &NttTable {
        &self.ntt_sp[l]
    }

    /// Modulus of limb `t` in the extended basis
    /// `[q_0 .. q_{num_limbs-1}, p_0 .. ]`: chain prime for
    /// `t < num_limbs`, special prime after.
    #[inline]
    pub(crate) fn ext_modulus(&self, num_limbs: usize, t: usize) -> u64 {
        if t < num_limbs {
            self.primes[t]
        } else {
            self.special[t - num_limbs]
        }
    }

    /// NTT table for extended-basis limb `t` (see
    /// [`CkksContext::ext_modulus`]).
    #[inline]
    pub(crate) fn ext_ntt(&self, num_limbs: usize, t: usize) -> &NttTable {
        if t < num_limbs {
            &self.ntt[t]
        } else {
            &self.ntt_sp[t - num_limbs]
        }
    }

    /// Barrett/Shoup constants for extended-basis limb `t` (see
    /// [`CkksContext::ext_modulus`]).
    #[inline]
    pub(crate) fn ext_arith(&self, num_limbs: usize, t: usize) -> &PrimeArith {
        self.ext_ntt(num_limbs, t).arith()
    }

    /// The canonical residues of `coeffs` modulo extended-basis limb
    /// `t` (see [`CkksContext::ext_modulus`]), into `dst`: exact for
    /// every `i64`, with no division.
    pub(crate) fn ext_signed_residues(
        &self,
        num_limbs: usize,
        t: usize,
        coeffs: &[i64],
        dst: &mut [u64],
    ) {
        let pa = *self.ext_arith(num_limbs, t);
        for (d, &c) in dst.iter_mut().zip(coeffs) {
            *d = pa.reduce_i64(c);
        }
    }

    /// How many raw `u128` products `(m-1)^2` fit in one lazy `u128`
    /// accumulator, minimized over the extended basis of `num_limbs`
    /// chain primes plus the first `k` special primes (`k = 0` for the
    /// chain alone). For 60-bit primes this is 256, above any digit
    /// count, so the key switch sums every digit product unreduced and
    /// reduces once; 62-bit primes leave 16, which ω = 1 exceeds from
    /// 17 limbs on — `apply_key` flushes to residues there.
    pub(crate) fn lazy_acc_headroom(&self, num_limbs: usize, k: usize) -> usize {
        self.primes[..num_limbs]
            .iter()
            .chain(self.special[..k].iter())
            .map(|&q| {
                let max_prod = (q as u128 - 1) * (q as u128 - 1);
                (u128::MAX / max_prod) as usize
            })
            .min()
            .expect("non-empty chain")
    }

    /// The encoder's twist, twiddle and slot-order tables for this
    /// ring, built on first use and shared by every encoder on it.
    pub(crate) fn encoding_tables(&self) -> &EncodingTables {
        self.encoding.get_or_init(|| EncodingTables::new(self.n))
    }

    /// The NTT-domain index table of the Galois automorphism
    /// `φ_g: X ↦ X^g`: for an element `a` in NTT form (any limb, chain
    /// or special), `NTT(φ_g(a))[i] = NTT(a)[perm[i]]`.
    ///
    /// Slot `i` of the forward transform holds the evaluation at
    /// `ψ^{2·brv(i)+1}`, and `φ_g(a)(ψ^e) = a(ψ^{e·g})`, so the table
    /// depends only on `(n, g)` — one table serves every limb, and in
    /// NTT form the automorphism is a pure permutation (the sign flips
    /// of the coefficient-domain map are absorbed by the evaluation
    /// points). Tables are built on first use and cached for the
    /// context's lifetime (`4n` bytes per element).
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or not in `1..2n`.
    pub fn galois_perm(&self, g: usize) -> Arc<[u32]> {
        let n = self.n;
        assert!(
            g % 2 == 1 && g >= 1 && g < 2 * n,
            "invalid Galois element {g}"
        );
        let mut cache = self
            .galois_perms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(cache.entry(g).or_insert_with(|| {
            let log_n = n.trailing_zeros();
            let brv = |i: usize| crate::ntt::bit_reverse(i, log_n);
            (0..n)
                .map(|i| {
                    let e = ((2 * brv(i) + 1) * g) & (2 * n - 1);
                    brv((e - 1) / 2) as u32
                })
                .collect()
        }))
    }
}

/// An RNS ring element. Limb `i` holds the residues modulo
/// `context.primes()[i]` as the stride slice `data[i*n..(i+1)*n]` of
/// one flat buffer; the number of limbs defines the element's level.
/// `is_ntt` says which domain the limbs are in.
///
/// The backing buffer comes from the thread-local [`crate::pool`] and
/// returns there on drop.
#[derive(Debug)]
pub struct RnsPoly {
    ctx: Arc<CkksContext>,
    data: Vec<u64>,
    num_limbs: usize,
    is_ntt: bool,
}

impl Drop for RnsPoly {
    fn drop(&mut self) {
        pool::release(std::mem::take(&mut self.data));
    }
}

impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        self.clone_prefix(self.num_limbs)
    }
}

impl RnsPoly {
    /// A poly with pooled, *uninitialized* (unspecified-content)
    /// storage. Internal: every limb must be fully overwritten before
    /// the value escapes.
    pub(crate) fn uninit(ctx: &Arc<CkksContext>, num_limbs: usize, is_ntt: bool) -> Self {
        assert!(num_limbs >= 1 && num_limbs <= ctx.primes().len());
        RnsPoly {
            ctx: Arc::clone(ctx),
            data: pool::acquire(num_limbs * ctx.n()),
            num_limbs,
            is_ntt,
        }
    }

    /// The zero element with `num_limbs` limbs, in NTT form.
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or exceeds the chain length.
    pub fn zero(ctx: &Arc<CkksContext>, num_limbs: usize) -> Self {
        assert!(num_limbs >= 1 && num_limbs <= ctx.primes().len());
        RnsPoly {
            ctx: Arc::clone(ctx),
            data: pool::acquire_zeroed(num_limbs * ctx.n()),
            num_limbs,
            is_ntt: true,
        }
    }

    /// Builds from signed coefficients (coefficient domain), reducing
    /// each modulo every prime.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n`.
    pub fn from_signed_coeffs(ctx: &Arc<CkksContext>, coeffs: &[i64], num_limbs: usize) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let mut out = Self::uninit(ctx, num_limbs, false);
        for i in 0..num_limbs {
            ctx.ext_signed_residues(num_limbs, i, coeffs, out.limb_mut(i));
        }
        out
    }

    /// Builds from big signed coefficients given as `i128` (used by the
    /// encoder, whose scaled values can exceed `i64`).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n`.
    pub fn from_signed_coeffs_i128(
        ctx: &Arc<CkksContext>,
        coeffs: &[i128],
        num_limbs: usize,
    ) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let mut out = Self::uninit(ctx, num_limbs, false);
        for i in 0..num_limbs {
            let pa = *ctx.arith(i);
            for (dst, &c) in out.limb_mut(i).iter_mut().zip(coeffs) {
                *dst = pa.reduce_i128(c);
            }
        }
        out
    }

    /// Builds from small unsigned coefficients (each must be smaller
    /// than every prime in the active chain), coefficient domain.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n` or a coefficient is too large.
    pub fn from_unsigned_coeffs(ctx: &Arc<CkksContext>, coeffs: &[u64], num_limbs: usize) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let min_q = ctx.primes()[..num_limbs]
            .iter()
            .copied()
            .min()
            .expect("non-empty chain");
        assert!(
            coeffs.iter().all(|&c| c < min_q),
            "coefficient exceeds smallest prime"
        );
        let mut out = Self::uninit(ctx, num_limbs, false);
        for i in 0..num_limbs {
            out.limb_mut(i).copy_from_slice(coeffs);
        }
        out
    }

    /// Uniformly random element (NTT form is fine since uniform is
    /// domain-invariant).
    pub fn random_uniform(ctx: &Arc<CkksContext>, num_limbs: usize, rng: &mut Rng64) -> Self {
        let mut out = Self::uninit(ctx, num_limbs, true);
        for i in 0..num_limbs {
            let pa = *ctx.arith(i);
            for dst in out.limb_mut(i) {
                *dst = pa.reduce_u64(rng.next_u64());
            }
        }
        out
    }

    /// Random ternary element with coefficients in `{-1, 0, 1}`
    /// (coefficient domain).
    pub fn random_ternary(ctx: &Arc<CkksContext>, num_limbs: usize, rng: &mut Rng64) -> Self {
        let coeffs: Vec<i64> = (0..ctx.n()).map(|_| rng.next_below(3) as i64 - 1).collect();
        Self::from_signed_coeffs(ctx, &coeffs, num_limbs)
    }

    /// Random error element with discrete-Gaussian-ish coefficients of
    /// standard deviation `ctx.sigma()` (coefficient domain).
    pub fn random_error(ctx: &Arc<CkksContext>, num_limbs: usize, rng: &mut Rng64) -> Self {
        let sigma = ctx.sigma();
        let coeffs: Vec<i64> = (0..ctx.n())
            .map(|_| (rng.next_gaussian() as f64 * sigma).round() as i64)
            .collect();
        Self::from_signed_coeffs(ctx, &coeffs, num_limbs)
    }

    /// Number of limbs (level + 1).
    pub fn num_limbs(&self) -> usize {
        self.num_limbs
    }

    /// Whether the element is in NTT (evaluation) form.
    pub fn is_ntt(&self) -> bool {
        self.is_ntt
    }

    /// Raw limb access: the stride slice for prime index `i`.
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        let n = self.ctx.n();
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable raw limb access.
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        let n = self.ctx.n();
        &mut self.data[i * n..(i + 1) * n]
    }

    /// Iterates over limbs as stride slices.
    pub fn limbs(&self) -> impl Iterator<Item = &[u64]> {
        self.data.chunks_exact(self.ctx.n())
    }

    /// Shared context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The whole flat limb-major buffer, mutably. Internal: the
    /// limb-parallel kernels split it into per-limb chunks.
    pub(crate) fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Converts to NTT form in place (no-op if already there). Limbs
    /// transform independently, so with an intra-op thread budget > 1
    /// they run on the [`crate::par`] worker pool (bit-identical to
    /// the sequential path — each limb's arithmetic is untouched).
    pub fn to_ntt(&mut self) {
        if self.is_ntt {
            return;
        }
        let n = self.ctx.n();
        let ctx = &self.ctx;
        crate::par::for_each_chunk_mut(&mut self.data, n, |i, limb| {
            ctx.ntt[i].forward(limb);
        });
        self.is_ntt = true;
    }

    /// Converts to coefficient form in place (no-op if already there).
    /// Limb-parallel like [`RnsPoly::to_ntt`].
    pub fn to_coeff(&mut self) {
        if !self.is_ntt {
            return;
        }
        let n = self.ctx.n();
        let ctx = &self.ctx;
        crate::par::for_each_chunk_mut(&mut self.data, n, |i, limb| {
            ctx.ntt[i].inverse(limb);
        });
        self.is_ntt = false;
    }

    /// Panics unless `other` is in `self`'s domain and has at least
    /// `self`'s limbs — the operand an in-place op reads a prefix of.
    fn assert_prefix_operand(&self, other: &RnsPoly) {
        assert_eq!(self.is_ntt, other.is_ntt, "domain mismatch");
        assert!(other.num_limbs >= self.num_limbs, "level mismatch");
    }

    /// The per-limb loop of addition and subtraction (products are
    /// [`Products`] sums): limb `i` of `self` becomes
    /// `f(arith_i, x, y)` element-wise, with `y` from limb `i` of `rhs`
    /// and `x` from limb `i` of `lhs` — or of `self` itself, for the
    /// in-place form (`lhs = None`). Either operand is read through
    /// its first `self.num_limbs()` limbs.
    fn zip_limbs(
        &mut self,
        lhs: Option<&RnsPoly>,
        rhs: &RnsPoly,
        f: impl Fn(&PrimeArith, u64, u64) -> u64,
    ) {
        let n = self.ctx.n();
        for i in 0..self.num_limbs {
            let pa = *self.ctx.arith(i);
            let (dst, y) = (&mut self.data[i * n..(i + 1) * n], rhs.limb(i));
            match lhs {
                Some(lhs) => {
                    for ((d, &x), &y) in dst.iter_mut().zip(lhs.limb(i)).zip(y) {
                        *d = f(&pa, x, y);
                    }
                }
                None => {
                    for (d, &y) in dst.iter_mut().zip(y) {
                        *d = f(&pa, *d, y);
                    }
                }
            }
        }
    }

    /// `f` of `self` and `other` on their common limbs, into a new
    /// element.
    fn zip_new(&self, other: &RnsPoly, f: impl Fn(&PrimeArith, u64, u64) -> u64) -> RnsPoly {
        assert_eq!(self.is_ntt, other.is_ntt, "domain mismatch");
        let limbs = self.num_limbs.min(other.num_limbs);
        let mut out = Self::uninit(&self.ctx, limbs, self.is_ntt);
        out.zip_limbs(Some(self), other, f);
        out
    }

    /// Ring addition on the common limbs.
    ///
    /// # Panics
    ///
    /// Panics on domain mismatch.
    pub fn add(&self, other: &RnsPoly) -> RnsPoly {
        self.zip_new(other, PrimeArith::add)
    }

    /// In-place ring addition (`self += other`).
    ///
    /// # Panics
    ///
    /// Panics on domain mismatch or if `other` has fewer limbs.
    pub fn add_assign(&mut self, other: &RnsPoly) {
        self.assert_prefix_operand(other);
        self.zip_limbs(None, other, PrimeArith::add);
    }

    /// Ring subtraction on the common limbs.
    ///
    /// # Panics
    ///
    /// Panics on domain mismatch.
    pub fn sub(&self, other: &RnsPoly) -> RnsPoly {
        self.zip_new(other, PrimeArith::sub)
    }

    /// Ring multiplication on the common limbs (pointwise; both
    /// operands must be in NTT form), as one sum of one product per
    /// limb on the IFMA dot kernel where the limb's table has it.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient form.
    pub fn mul(&self, other: &RnsPoly) -> RnsPoly {
        assert!(self.is_ntt && other.is_ntt, "mul requires NTT form");
        Self::dot(self.num_limbs.min(other.num_limbs), None, &[(self, other)])
    }

    /// `plus + Σ_j a_j ⊙ b_j` on the first `limbs` limbs of every
    /// operand (all in NTT form), as one [`Products`] sum per limb: the
    /// products reduce once, whatever their count, on the IFMA dot
    /// kernel where the limb's table has it.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty, on a coefficient-form operand, or if
    /// an operand has fewer than `limbs` limbs.
    pub(crate) fn dot(
        limbs: usize,
        plus: Option<&RnsPoly>,
        pairs: &[(&RnsPoly, &RnsPoly)],
    ) -> RnsPoly {
        let (first, _) = pairs.first().expect("a sum of products has a product");
        let ctx = &first.ctx;
        for p in pairs.iter().flat_map(|&(a, b)| [a, b]).chain(plus) {
            assert!(p.is_ntt, "products require NTT form");
            assert!(p.num_limbs >= limbs, "level mismatch");
        }
        let headroom = ctx.lazy_acc_headroom(limbs, 0);
        let n = ctx.n();
        let mut out = Self::uninit(ctx, limbs, true);
        for (i, dst) in out.data.chunks_exact_mut(n).enumerate() {
            let sum = Products {
                extra: [plus.map(|p| (p.limb(i), 1))],
                gather: None,
                terms: pairs.len(),
                term: |j: usize| Term {
                    x: pairs[j].0.limb(i),
                    w: [Weight::Words(pairs[j].1.limb(i))],
                },
            };
            sum.reduce(ctx.ntt(i), [], headroom, [dst]);
        }
        out
    }

    /// Negation.
    pub fn neg(&self) -> RnsPoly {
        let mut out = Self::uninit(&self.ctx, self.num_limbs, self.is_ntt);
        let n = self.ctx.n();
        for i in 0..self.num_limbs {
            let pa = self.ctx.arith(i);
            for (d, &x) in out.data[i * n..(i + 1) * n].iter_mut().zip(self.limb(i)) {
                *d = pa.sub(0, x);
            }
        }
        out
    }

    /// A copy of the first `num_limbs` limbs: `clone` then
    /// [`Self::drop_to`], without copying the limbs dropped.
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or exceeds the current count.
    pub(crate) fn clone_prefix(&self, num_limbs: usize) -> RnsPoly {
        assert!(
            num_limbs >= 1 && num_limbs <= self.num_limbs,
            "invalid truncation"
        );
        let len = num_limbs * self.ctx.n();
        let mut data = pool::acquire(len);
        data.copy_from_slice(&self.data[..len]);
        RnsPoly {
            ctx: Arc::clone(&self.ctx),
            data,
            num_limbs,
            is_ntt: self.is_ntt,
        }
    }

    /// Drops limbs until `num_limbs` remain, without rescaling (plain
    /// modulus switch; valid when the represented value is small
    /// enough). With the flat layout this is a truncation — no
    /// allocation, no copy.
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or exceeds the current count.
    pub fn drop_to(&mut self, num_limbs: usize) {
        assert!(
            num_limbs >= 1 && num_limbs <= self.num_limbs,
            "invalid truncation"
        );
        self.num_limbs = num_limbs;
        self.data.truncate(num_limbs * self.ctx.n());
    }

    /// CKKS rescale: divides by the last prime (rounding) and drops
    /// that limb. Input may be in either domain; output stays in the
    /// input domain.
    ///
    /// `Round(X / q_last) = (X − l′) / q_last` with `l′` the centred
    /// remainder of `X mod q_last`, so only the dropped limb has to be
    /// read as coefficients. An NTT-form input therefore transforms
    /// that limb alone: inverse it, lift `l′` to each surviving limb,
    /// forward-NTT the lift and subtract it there — `L` passes where a
    /// round trip through coefficient form takes `2L − 1`, and by the
    /// transform's linearity the same residues. The surviving limbs are
    /// independent, so they fan out across [`crate::par`].
    ///
    /// The surviving limbs are written to a new pooled buffer, which
    /// replaces this one ([`Self::rescale_scaled`]'s path).
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn rescale(&mut self) {
        *self = self.rescale_by(None);
    }

    /// Multiplies every limb `i` by the scalar residue `scalars[i]` and
    /// [`Self::rescale`]s, into a new element and in the rescale's
    /// passes: limb `i` computes `x·(c_i·inv) − l′·inv` for
    /// `(x·c_i − l′)·inv`, the same residue.
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains or
    /// `scalars.len() != num_limbs()`.
    pub fn rescale_scaled(&self, scalars: &[u64]) -> RnsPoly {
        assert_eq!(scalars.len(), self.num_limbs(), "scalar count mismatch");
        self.rescale_by(Some(scalars))
    }

    /// The rescale of `self` times `scalars` (1 when `None`), into a
    /// new element.
    fn rescale_by(&self, scalars: Option<&[u64]>) -> RnsPoly {
        assert!(self.num_limbs() > 1, "cannot rescale the last limb");
        let ctx = &self.ctx;
        let n = ctx.n();
        let last_idx = self.num_limbs - 1;
        let mut last = pool::acquire(n);
        match scalars {
            None => last.copy_from_slice(self.limb(last_idx)),
            Some(scalars) => {
                let scale = Products {
                    extra: [None],
                    gather: None,
                    terms: 1,
                    term: |_| Term {
                        x: self.limb(last_idx),
                        w: [Weight::Word(scalars[last_idx])],
                    },
                };
                let headroom = ctx.lazy_acc_headroom(self.num_limbs, 0);
                scale.reduce(ctx.ntt(last_idx), [], headroom, [&mut last]);
            }
        }
        if self.is_ntt {
            ctx.ntt[last_idx].inverse(&mut last);
        }
        let mut out = RnsPoly::uninit(ctx, last_idx, self.is_ntt);
        let src = &self.data[..last_idx * n];
        rescale_limbs(ctx, self.is_ntt, &last, src, scalars, &mut out.data);
        pool::release(last);
        out
    }

    /// Applies the Galois automorphism `X ↦ X^g` for odd `g`.
    ///
    /// In the negacyclic ring `Z_Q[X]/(X^n+1)` the monomial `X^i` maps
    /// to `±X^{(i·g) mod n}` with the sign flipped whenever
    /// `(i·g) mod 2n ≥ n` (because `X^n = −1`). The result is returned
    /// in coefficient form regardless of the input domain.
    ///
    /// For odd `g` the index map `i ↦ (i·g) mod n` is a bijection, so
    /// the (pooled, unspecified-content) output buffer is fully
    /// overwritten — checked by the flat-layout aliasing proptests.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or not in `1..2n`.
    pub fn automorphism(&self, g: usize) -> RnsPoly {
        let n = self.ctx.n();
        assert!(
            g % 2 == 1 && g >= 1 && g < 2 * n,
            "invalid Galois element {g}"
        );
        let mut src = self.clone();
        src.to_coeff();
        let mut out = Self::uninit(&self.ctx, self.num_limbs, false);
        for limb_idx in 0..self.num_limbs {
            let q = self.ctx.primes()[limb_idx];
            let limb = src.limb(limb_idx);
            let dst = out.limb_mut(limb_idx);
            for (i, &c) in limb.iter().enumerate() {
                let e = (i * g) % (2 * n);
                if e < n {
                    dst[e] = c;
                } else {
                    dst[e - n] = if c == 0 { 0 } else { q - c };
                }
            }
        }
        out
    }

    /// Applies the Galois automorphism to an NTT-form element as a
    /// pure permutation, `out[i] = self[perm[i]]` per limb, with `perm`
    /// from [`CkksContext::galois_perm`]. Bit-identical to
    /// [`RnsPoly::automorphism`] followed by [`RnsPoly::to_ntt`], with
    /// no transform at all.
    ///
    /// # Panics
    ///
    /// Panics in coefficient form or if `perm.len() != n`.
    pub fn automorphism_ntt(&self, perm: &[u32]) -> RnsPoly {
        assert!(self.is_ntt, "NTT-domain automorphism requires NTT form");
        let n = self.ctx.n();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut out = Self::uninit(&self.ctx, self.num_limbs, true);
        for (dst, src) in out.data.chunks_exact_mut(n).zip(self.data.chunks_exact(n)) {
            for (d, &p) in dst.iter_mut().zip(perm) {
                *d = src[p as usize];
            }
        }
        out
    }

    /// Reconstructs the centered signed value of coefficient `idx`
    /// using the first `use_limbs` limbs via exact CRT in `i128`.
    ///
    /// Only sound when the true centered value fits in the product of
    /// those primes; callers use 1–2 limbs where values are ≤ 2^100.
    ///
    /// # Panics
    ///
    /// Panics in NTT form, or if `use_limbs` is 0, exceeds the limb
    /// count, or the prime product overflows `i128` headroom.
    ///
    /// The reference for the decoder's loop over every coefficient,
    /// which hoists the CRT constants out of it.
    pub fn coeff_to_i128(&self, idx: usize, use_limbs: usize) -> i128 {
        assert!(!self.is_ntt, "coefficient access requires coefficient form");
        assert!(use_limbs >= 1 && use_limbs <= self.num_limbs());
        let mut q_prod: i128 = 1;
        for i in 0..use_limbs {
            q_prod = q_prod
                .checked_mul(self.ctx.primes()[i] as i128)
                .expect("prime product overflow");
        }
        // Garner / CRT via incremental reconstruction.
        let mut x: i128 = self.limb(0)[idx] as i128;
        let mut modulus: i128 = self.ctx.primes()[0] as i128;
        for i in 1..use_limbs {
            let q = self.ctx.primes()[i] as i128;
            let r = self.limb(i)[idx] as i128;
            // Find t with x + modulus * t ≡ r (mod q).
            let m_inv = inv_mod((modulus.rem_euclid(q)) as u64, q as u64) as i128;
            let t = ((r - x).rem_euclid(q) * m_inv).rem_euclid(q);
            x += modulus * t;
            modulus *= q;
        }
        debug_assert_eq!(modulus, q_prod);
        if x > q_prod / 2 {
            x - q_prod
        } else {
            x
        }
    }

    /// [`Self::coeff_to_i128`] of every coefficient in order, with the
    /// Garner constants computed once: per limb `i ≥ 1`, the product
    /// `m_i` of the primes before it and `m_i⁻¹ mod q_i`. Each step is
    /// then word arithmetic mod `q_i` and one `i128` multiply-add.
    ///
    /// # Panics
    ///
    /// As [`Self::coeff_to_i128`].
    pub(crate) fn coeffs_to_i128(&self, use_limbs: usize) -> impl Iterator<Item = i128> + '_ {
        assert!(!self.is_ntt, "coefficient access requires coefficient form");
        assert!(use_limbs >= 1 && use_limbs <= self.num_limbs());
        let primes = &self.ctx.primes()[..use_limbs];
        let mut modulus = primes[0] as i128;
        let garner: Vec<(i128, u64)> = (1..use_limbs)
            .map(|i| {
                let q = primes[i];
                let step = (modulus, inv_mod(self.ctx.arith(i).reduce_i128(modulus), q));
                modulus = modulus
                    .checked_mul(q as i128)
                    .expect("prime product overflow");
                step
            })
            .collect();
        (0..self.ctx.n()).map(move |idx| {
            let mut x = self.limb(0)[idx] as i128;
            for (i, &(m, m_inv)) in (1..).zip(&garner) {
                // `t = (r_i − x)·m⁻¹ mod q_i`, with `0 <= x < m`.
                let pa = self.ctx.arith(i);
                let x_mod = pa.reduce_u128(x as u128);
                let t = pa.mul(pa.sub(self.limb(i)[idx], x_mod), m_inv);
                x += m * t as i128;
            }
            if x > modulus / 2 {
                x - modulus
            } else {
                x
            }
        })
    }
}

/// The surviving limbs of a rescale: `dst` limb `i` becomes
/// `(x·c_i − l′)/q_last`, where `x` is `src`'s limb `i`, `c_i` is
/// `scalars[i]` (1 when `None`) and `l′` is the centred remainder held
/// in `last` (the dropped limb, coefficient form). With
/// `inv = q_last⁻¹ mod q_i` that is the two-product sum
/// `x·(c_i·inv) + l′·(q_i − inv)`. `dst.len() / n` chain limbs precede
/// the dropped one.
fn rescale_limbs(
    ctx: &CkksContext,
    is_ntt: bool,
    last: &[u64],
    src: &[u64],
    scalars: Option<&[u64]>,
    dst: &mut [u64],
) {
    let n = ctx.n();
    let last_idx = dst.len() / n;
    let half = ctx.primes()[last_idx] / 2;
    let pre = &ctx.rescale_pre[last_idx];
    let headroom = ctx.lazy_acc_headroom(last_idx, 0);
    crate::par::for_each_chunk_mut(dst, n, |i, limb| {
        let pa = *ctx.arith(i);
        let RescalePre {
            q_last_mod,
            inv,
            one_subtract,
        } = pre[i];
        // `l′ mod q_i`: the remainder, less `q_last` in its upper half.
        let center = |l: u64, l_mod: u64| pa.center(l, half, l_mod, q_last_mod);
        let mut corr = pool::acquire(n);
        if one_subtract {
            for (c, &l) in corr.iter_mut().zip(last) {
                *c = center(l, pa.canonical(l));
            }
        } else {
            for (c, &l) in corr.iter_mut().zip(last) {
                *c = center(l, pa.reduce_u128(l as u128));
            }
        }
        if is_ntt {
            ctx.ntt[i].forward(&mut corr);
        }
        let w = scalars.map_or(inv, |s| pa.mul(s[i], inv));
        let divide = Products {
            extra: [Some((&src[i * n..(i + 1) * n], w))],
            gather: None,
            terms: 1,
            term: |_| Term {
                x: &corr[..],
                w: [Weight::Word(pa.q() - inv)],
            },
        };
        divide.reduce(ctx.ntt(i), [], headroom, [limb]);
        pool::release(corr);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::ntt_primes;

    fn ctx() -> Arc<CkksContext> {
        let mut primes = ntt_primes(40, 3, 64);
        primes.insert(0, ntt_primes(50, 1, 64)[0]);
        CkksContext::new(64, primes, (1u64 << 30) as f64)
    }

    #[test]
    fn from_signed_roundtrip() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| i as i64 - 32).collect();
        let p = RnsPoly::from_signed_coeffs(&c, &coeffs, 2);
        for (i, &v) in coeffs.iter().enumerate() {
            assert_eq!(p.coeff_to_i128(i, 2), v as i128);
        }
    }

    #[test]
    fn from_signed_coeffs_reduces_the_i64_extremes() {
        // `i64::MIN` has no positive counterpart: its residue comes from
        // its unsigned magnitude, on every chain prime of every preset,
        // and on its special primes through the extended-basis residues
        // key generation takes of the secret and of each error.
        let extremes = [i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1, -1, 0, 1, -3];
        for params in [
            crate::params::CkksParams::toy(),
            crate::params::CkksParams::default_params(),
            crate::params::CkksParams::benchmark(),
            crate::params::CkksParams::paper_scale(),
        ] {
            let preset = params.build();
            let (primes, special) = (preset.primes().to_vec(), preset.special_primes().to_vec());
            assert!(!special.is_empty());
            let c = CkksContext::with_special_primes(16, primes, special, 1.0);
            let coeffs: Vec<i64> = (0..16).map(|i| extremes[i % extremes.len()]).collect();
            let want = |v: i64, m: u64| (v as i128).rem_euclid(m as i128) as u64;
            let p = RnsPoly::from_signed_coeffs(&c, &coeffs, c.primes().len());
            for (limb, &q) in p.limbs().zip(c.primes()) {
                for (&r, &v) in limb.iter().zip(&coeffs) {
                    assert_eq!(r, want(v, q), "{v} mod {q}");
                }
            }
            for nl in [1, c.primes().len()] {
                for t in 0..nl + c.special_primes().len() {
                    let m = c.ext_modulus(nl, t);
                    let mut limb = vec![0u64; 16];
                    c.ext_signed_residues(nl, t, &coeffs, &mut limb);
                    for (&r, &v) in limb.iter().zip(&coeffs) {
                        assert_eq!(r, want(v, m), "{v} mod {m} (limb {t} of {nl})");
                    }
                }
            }
        }
    }

    #[test]
    fn from_signed_coeffs_i128_reduces_narrow_and_wide_coefficients() {
        // Coefficients inside the `i64` range and beyond it, each
        // against `rem_euclid` on every chain prime.
        let c = ctx();
        let narrow = [i64::MIN as i128, i64::MAX as i128, -1, 0, 7, -(1 << 40)];
        let wide = [
            i128::MIN,
            i128::MAX,
            i64::MIN as i128 - 1,
            i64::MAX as i128 + 1,
            -(1 << 100),
        ];
        for extremes in [&narrow[..], &wide[..]] {
            let coeffs: Vec<i128> = (0..64).map(|i| extremes[i % extremes.len()]).collect();
            let p = RnsPoly::from_signed_coeffs_i128(&c, &coeffs, c.primes().len());
            for (limb, &q) in p.limbs().zip(c.primes()) {
                for (&r, &v) in limb.iter().zip(&coeffs) {
                    assert_eq!(r, v.rem_euclid(q as i128) as u64, "{v} mod {q}");
                }
            }
        }
    }

    #[test]
    fn coeffs_to_i128_is_coeff_to_i128_at_every_coefficient() {
        // The hoisted Garner constants against the per-coefficient
        // reference: a random 2-limb poly on the 50 + 40-bit chain, a
        // random 3-limb one on three 40-bit primes (120 bits, inside the
        // `i128` headroom), and a 1-limb read of each.
        let c3 = CkksContext::new(64, ntt_primes(40, 3, 64), 1.0);
        let mut rng = Rng64::new(41);
        for (c, limbs) in [(ctx(), 2), (c3, 3)] {
            let mut p = RnsPoly::random_uniform(&c, limbs, &mut rng);
            p.to_coeff();
            for use_limbs in [1, limbs] {
                let want: Vec<i128> = (0..64).map(|i| p.coeff_to_i128(i, use_limbs)).collect();
                let got: Vec<i128> = p.coeffs_to_i128(use_limbs).collect();
                assert_eq!(got, want, "{limbs} limbs, reading {use_limbs}");
            }
        }
    }

    #[test]
    fn ntt_roundtrip_preserves_value() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| (i as i64 * 7919) % 1000 - 500).collect();
        let mut p = RnsPoly::from_signed_coeffs(&c, &coeffs, 3);
        p.to_ntt();
        p.to_coeff();
        // Reconstruct with two limbs (the 50+40+40-bit product would
        // overflow the i128 CRT headroom; values are tiny anyway).
        for (i, &v) in coeffs.iter().enumerate() {
            assert_eq!(p.coeff_to_i128(i, 2), v as i128);
        }
    }

    #[test]
    fn add_matches_integer_add() {
        let c = ctx();
        let a: Vec<i64> = (0..64).map(|i| i as i64).collect();
        let b: Vec<i64> = (0..64).map(|i| 2 * i as i64 - 10).collect();
        let pa = RnsPoly::from_signed_coeffs(&c, &a, 2);
        let pb = RnsPoly::from_signed_coeffs(&c, &b, 2);
        let s = pa.add(&pb);
        for i in 0..64 {
            assert_eq!(s.coeff_to_i128(i, 2), (a[i] + b[i]) as i128);
        }
    }

    #[test]
    fn a_poisoned_galois_table_cache_still_serves() {
        // A thread that panics while holding the table lock poisons the
        // mutex; cached tables must still read and new ones insert.
        let c = ctx();
        let rot = c.galois_perm(5);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = c.galois_perms.lock().unwrap();
                panic!("a serving thread dies holding the table cache");
            })
            .join()
        });
        assert!(panicked.is_err() && c.galois_perms.is_poisoned());
        assert!(Arc::ptr_eq(&c.galois_perm(5), &rot));
        // The conjugation is an involution: its table is its own inverse.
        let conj = c.galois_perm(2 * c.n() - 1);
        assert!((0..c.n()).all(|i| conj[conj[i] as usize] as usize == i));
    }

    /// A copy of `p` dropped to `limbs` limbs.
    fn dropped(p: &RnsPoly, limbs: usize) -> RnsPoly {
        let mut d = p.clone();
        d.drop_to(limbs);
        d
    }

    #[test]
    fn binary_ops_read_the_common_prefix() {
        // Every public binary op against the same op on copies dropped
        // to the common limbs: the operand at the same level, 1 or 3
        // higher, and — where the op allocates — `self` higher as well;
        // in both domains, the NTT form only for the product.
        type Alloc = fn(&RnsPoly, &RnsPoly) -> RnsPoly;
        type InPlace = fn(&mut RnsPoly, &RnsPoly);
        let allocating: [(&str, Alloc, bool); 3] = [
            ("add", RnsPoly::add, true),
            ("sub", RnsPoly::sub, true),
            ("mul", RnsPoly::mul, false),
        ];
        let in_place: [(&str, InPlace, bool); 1] = [("add_assign", RnsPoly::add_assign, true)];
        let c = ctx();
        let mut rng = Rng64::new(28);
        for ntt in [true, false] {
            for (lo, hi) in [(1, 1), (3, 3), (1, 2), (3, 4), (1, 4)] {
                let mut a = RnsPoly::random_uniform(&c, lo, &mut rng);
                let mut b = RnsPoly::random_uniform(&c, hi, &mut rng);
                if !ntt {
                    a.to_coeff();
                    b.to_coeff();
                }
                let b_lo = dropped(&b, lo);
                for (name, op, any_domain) in allocating {
                    if !(ntt || any_domain) {
                        continue;
                    }
                    for (got, want) in [(op(&a, &b), op(&a, &b_lo)), (op(&b, &a), op(&b_lo, &a))] {
                        assert_eq!((got.num_limbs(), got.is_ntt()), (lo, ntt));
                        assert_eq!(got.data, want.data, "{name} {lo}/{hi} ntt {ntt}");
                    }
                }
                for (name, op, any_domain) in in_place {
                    if !(ntt || any_domain) {
                        continue;
                    }
                    let (mut got, mut want) = (a.clone(), a.clone());
                    op(&mut got, &b);
                    op(&mut want, &b_lo);
                    assert_eq!((got.num_limbs(), got.is_ntt()), (lo, ntt));
                    assert_eq!(got.data, want.data, "{name} {lo}/{hi} ntt {ntt}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn in_place_ops_reject_a_lower_operand() {
        // An in-place op keeps `self`'s limbs, so it cannot read an
        // operand that lacks one.
        let c = ctx();
        let mut p = RnsPoly::zero(&c, 3);
        p.add_assign(&RnsPoly::zero(&c, 2));
    }

    #[test]
    fn dot_matches_mul_then_add() {
        // `acc + a·b` and `a·b + b·a` as one sum, at one level and with
        // factors 1 or 3 limbs above the accumulator.
        let c = ctx();
        let a: Vec<i64> = (0..64).map(|i| (i as i64 * 11) % 61 - 30).collect();
        let b: Vec<i64> = (0..64).map(|i| (i as i64 * 19) % 71 - 35).collect();
        let s: Vec<i64> = (0..64).map(|i| (i as i64 * 5) % 41 - 20).collect();
        for (limbs, a_limbs, b_limbs) in [(2, 2, 2), (1, 2, 4), (3, 4, 3)] {
            let mut pa = RnsPoly::from_signed_coeffs(&c, &a, a_limbs);
            let mut pb = RnsPoly::from_signed_coeffs(&c, &b, b_limbs);
            let mut acc = RnsPoly::from_signed_coeffs(&c, &s, limbs);
            pa.to_ntt();
            pb.to_ntt();
            acc.to_ntt();
            // The reference: per coefficient, on the Barrett words.
            let (mut plus, mut twice) = (Vec::new(), Vec::new());
            for i in 0..limbs {
                let arith = c.arith(i);
                for ((&s, &x), &y) in acc.limb(i).iter().zip(pa.limb(i)).zip(pb.limb(i)) {
                    let xy = arith.mul(x, y);
                    plus.push(arith.add(s, xy));
                    twice.push(arith.add(xy, xy));
                }
            }
            let case = format!("{limbs}/{a_limbs}/{b_limbs} limbs");
            let got = RnsPoly::dot(limbs, Some(&acc), &[(&pa, &pb)]);
            assert_eq!(got.data, plus, "{case}");
            let got = RnsPoly::dot(limbs, None, &[(&pa, &pb), (&pb, &pa)]);
            assert_eq!(got.data, twice, "{case}");
            let product = dropped(&pa, limbs).mul(&dropped(&pb, limbs));
            assert_eq!(product.add(&product).data, twice, "{case}");
        }
    }

    #[test]
    fn mul_matches_negacyclic_reference() {
        let c = ctx();
        // a = X + 2, b = X^63 (so a*b = X^64 + 2X^63 = -1 + 2X^63).
        let mut a = vec![0i64; 64];
        a[0] = 2;
        a[1] = 1;
        let mut b = vec![0i64; 64];
        b[63] = 1;
        let mut pa = RnsPoly::from_signed_coeffs(&c, &a, 2);
        let mut pb = RnsPoly::from_signed_coeffs(&c, &b, 2);
        pa.to_ntt();
        pb.to_ntt();
        let mut prod = pa.mul(&pb);
        prod.to_coeff();
        assert_eq!(prod.coeff_to_i128(0, 2), -1);
        assert_eq!(prod.coeff_to_i128(63, 2), 2);
        for i in 1..63 {
            assert_eq!(prod.coeff_to_i128(i, 2), 0);
        }
    }

    #[test]
    fn lazy_headroom_is_generous_for_real_chains() {
        let c = ctx();
        // 50-bit top prime: ~(2^50)^2 products leave ~2^28 of headroom.
        assert!(c.lazy_acc_headroom(4, 0) >= (1 << 27));
        assert!(c.lazy_acc_headroom(4, 0) < (1 << 29));
        // The 40-bit limbs alone leave more; the minimum is what counts.
        let chain_40 = CkksContext::new(64, ntt_primes(40, 3, 64), (1u64 << 30) as f64);
        assert!(chain_40.lazy_acc_headroom(3, 0) >= (1 << 47));
    }

    #[test]
    fn lazy_headroom_covers_the_special_primes() {
        // The first `k` special primes join the minimum: a 62-bit
        // special prime drags the 50-bit chain's 2^28 down to 16.
        let chain = ctx().primes().to_vec();
        let special = crate::modular::ntt_primes_excluding(62, 2, 64, &chain);
        let c = CkksContext::with_special_primes(64, chain, special, (1u64 << 30) as f64);
        assert!(c.lazy_acc_headroom(4, 0) >= (1 << 27));
        for k in 1..=2 {
            assert!((16..32).contains(&c.lazy_acc_headroom(4, k)), "k = {k}");
        }
        // Default-shaped basis (60-bit base and special primes): 2^8.
        let chain = CkksContext::new(64, ntt_primes(60, 1, 64), 1.0);
        assert!((256..512).contains(&chain.lazy_acc_headroom(1, 0)));
    }

    #[test]
    fn neg_is_additive_inverse() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| i as i64 * 3 - 50).collect();
        let p = RnsPoly::from_signed_coeffs(&c, &coeffs, 2);
        let z = p.add(&p.neg());
        for i in 0..64 {
            assert_eq!(z.coeff_to_i128(i, 2), 0);
        }
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        let c = ctx();
        let q_last = c.primes()[2] as i128;
        // Encode values that are exact multiples of q_last.
        let coeffs: Vec<i64> = (0..64).map(|i| i as i64 - 32).collect();
        let scaled: Vec<i128> = coeffs.iter().map(|&v| v as i128 * q_last).collect();
        let mut p = RnsPoly::from_signed_coeffs_i128(&c, &scaled, 3);
        p.rescale();
        assert_eq!(p.num_limbs(), 2);
        for (i, &v) in coeffs.iter().enumerate() {
            let got = p.coeff_to_i128(i, 2);
            assert!((got - v as i128).abs() <= 1, "coeff {i}: {got} vs {v}");
        }
    }

    /// The rescale as it ran before NTT-form inputs stopped leaving the
    /// transform domain: every limb to coefficient form, divide there,
    /// every surviving limb back.
    fn rescale_through_coefficient_form(p: &mut RnsPoly) {
        let was_ntt = p.is_ntt;
        p.to_coeff();
        p.rescale();
        if was_ntt {
            p.to_ntt();
        }
    }

    #[test]
    fn ntt_form_rescale_matches_the_coefficient_round_trip() {
        // Transforming only the dropped limb is byte-identical to the
        // full round trip, on both benchmark rings, at every level and
        // thread budget, down the whole chain.
        for params in [
            crate::params::CkksParams::toy(),
            crate::params::CkksParams::default_params(),
        ] {
            let c = params.build();
            let mut rng = Rng64::new(params.n as u64);
            for limbs in 2..=13 {
                let fresh = RnsPoly::random_uniform(&c, limbs, &mut rng);
                let mut want = fresh.clone();
                rescale_through_coefficient_form(&mut want);
                for budget in [1, 2, 8] {
                    let mut got = fresh.clone();
                    crate::par::with_thread_budget(budget, || got.rescale());
                    assert!(got.is_ntt());
                    assert_eq!(got.num_limbs(), limbs - 1);
                    assert_eq!(
                        got.data, want.data,
                        "n {} limbs {limbs} budget {budget}",
                        params.n
                    );
                }
            }
        }
    }

    #[test]
    fn ternary_and_error_sampling_bounds() {
        let c = ctx();
        let mut rng = Rng64::new(5);
        let mut t = RnsPoly::random_ternary(&c, 2, &mut rng);
        t.to_coeff();
        for i in 0..64 {
            assert!(t.coeff_to_i128(i, 2).abs() <= 1);
        }
        let mut e = RnsPoly::random_error(&c, 2, &mut rng);
        e.to_coeff();
        for i in 0..64 {
            assert!(e.coeff_to_i128(i, 2).abs() <= 30, "error too large");
        }
    }

    #[test]
    fn automorphism_identity() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| i as i64 * 13 - 100).collect();
        let p = RnsPoly::from_signed_coeffs(&c, &coeffs, 2);
        let q = p.automorphism(1);
        for (i, &v) in coeffs.iter().enumerate() {
            assert_eq!(q.coeff_to_i128(i, 2), v as i128);
        }
    }

    #[test]
    fn automorphism_monomial_sign_wrap() {
        // X^1 under g = 2n-1 maps to X^(2n-1 mod 2n) = X^{n-1} with a
        // sign flip (exponent 2n-1 >= n).
        let c = ctx();
        let n = 64;
        let mut coeffs = vec![0i64; n];
        coeffs[1] = 1;
        let p = RnsPoly::from_signed_coeffs(&c, &coeffs, 2);
        let q = p.automorphism(2 * n - 1);
        assert_eq!(q.coeff_to_i128(n - 1, 2), -1);
        for i in 0..n - 1 {
            assert_eq!(q.coeff_to_i128(i, 2), 0, "coeff {i}");
        }
    }

    #[test]
    fn automorphism_composes() {
        // φ_g ∘ φ_h = φ_{g·h mod 2n}.
        let c = ctx();
        let n = 64;
        let coeffs: Vec<i64> = (0..n).map(|i| (i as i64 * 31) % 17 - 8).collect();
        let p = RnsPoly::from_signed_coeffs(&c, &coeffs, 2);
        let (g, h) = (5usize, 25usize);
        let lhs = p.automorphism(g).automorphism(h);
        let rhs = p.automorphism((g * h) % (2 * n));
        for i in 0..n {
            assert_eq!(lhs.coeff_to_i128(i, 2), rhs.coeff_to_i128(i, 2));
        }
    }

    #[test]
    fn automorphism_is_ring_homomorphism() {
        // φ_g(a · b) = φ_g(a) · φ_g(b).
        let c = ctx();
        let n = 64;
        let a: Vec<i64> = (0..n).map(|i| (i as i64 % 5) - 2).collect();
        let b: Vec<i64> = (0..n).map(|i| ((i as i64 * 3) % 7) - 3).collect();
        let mut pa = RnsPoly::from_signed_coeffs(&c, &a, 2);
        let mut pb = RnsPoly::from_signed_coeffs(&c, &b, 2);
        pa.to_ntt();
        pb.to_ntt();
        let prod = pa.mul(&pb);
        let lhs = prod.automorphism(5);
        let mut ga = pa.automorphism(5);
        let mut gb = pb.automorphism(5);
        ga.to_ntt();
        gb.to_ntt();
        let mut rhs = ga.mul(&gb);
        rhs.to_coeff();
        for i in 0..n {
            assert_eq!(
                lhs.coeff_to_i128(i, 2),
                rhs.coeff_to_i128(i, 2),
                "coeff {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid Galois element")]
    fn automorphism_rejects_even_g() {
        let c = ctx();
        let p = RnsPoly::zero(&c, 2);
        let _ = p.automorphism(4);
    }

    #[test]
    fn drop_last_limb_keeps_value() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..64).map(|i| i as i64).collect();
        let mut p = RnsPoly::from_signed_coeffs(&c, &coeffs, 3);
        let full = p.clone();
        p.drop_to(2);
        assert_eq!(p.num_limbs(), 2);
        assert!(p.limbs().eq(full.limbs().take(2)));
        for (i, &v) in coeffs.iter().enumerate() {
            assert_eq!(p.coeff_to_i128(i, 2), v as i128);
        }
    }

    #[test]
    fn flat_layout_limbs_are_contiguous_strides() {
        let c = ctx();
        let mut p = RnsPoly::zero(&c, 3);
        // Write through limb_mut, read back through the flat iterator
        // and cross-limb adjacency.
        for i in 0..3 {
            let fill = (i as u64 + 1) * 100;
            p.limb_mut(i).fill(fill);
        }
        for (i, limb) in p.limbs().enumerate() {
            assert_eq!(limb.len(), 64);
            assert!(limb.iter().all(|&x| x == (i as u64 + 1) * 100));
        }
        assert_eq!(p.limbs().count(), 3);
    }

    #[test]
    fn clone_is_deep_and_pool_recycled() {
        let c = ctx();
        crate::pool::trim();
        let coeffs: Vec<i64> = (0..64).map(|i| i as i64).collect();
        let p = RnsPoly::from_signed_coeffs(&c, &coeffs, 2);
        let q = p.clone();
        crate::pool::reset_stats();
        drop(q);
        let r = p.clone(); // must reuse the buffer q released
        let s = crate::pool::stats();
        assert_eq!(s.reuses, 1, "clone should reuse the dropped buffer");
        assert_eq!(s.fresh_allocs, 0);
        for i in 0..2 {
            assert_eq!(r.limb(i), p.limb(i));
        }
    }
}
