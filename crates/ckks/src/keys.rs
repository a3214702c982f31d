//! Key generation: secret/public keys and key-switching keys under one
//! of two gadgets.
//!
//! - **Per-prime** (legacy): BV-style base-`2^16` digit decomposition
//!   within each RNS limb — `L × ⌈bits/16⌉` components at `L` limbs.
//! - **Hybrid**: ω RNS limbs group into one digit against ω special
//!   primes `P = ∏ p_l`; each digit is raised to the extended basis by
//!   fast base conversion and the accumulated result is scaled back
//!   down by `P` — only `⌈L/ω⌉` components, which is what makes
//!   relinearisation at the top of a deep chain cheap.
//!
//! The gadget is a context property: [`CkksContext::special_primes`]
//! non-empty selects hybrid with ω = its length.
//!
//! Key-switching keys are level-specific (the RNS gadget depends on
//! the active prime set), so [`KeyChain`] generates them lazily per
//! level and caches them. A production deployment would generate all
//! levels offline once; the lazy generation here is a simulator
//! convenience and is excluded from benchmark timings by Criterion's
//! warm-up iterations. Each lazy key's randomness is a function of the
//! chain's seed and the key's `(kind, g, limbs)` tag alone, so which
//! keys were requested first — or from which thread — never changes
//! key material. The hybrid gadget's key-independent constants
//! ([`HybridBasis`]: digit partition, raise and mod-down factors) are
//! built for every level at key generation, so one key-switch
//! decomposition serves every key of its level.

use crate::modular::inv_mod;
use crate::rns::{CkksContext, RnsPoly};
use smartpaf_tensor::Rng64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Digit width for the per-prime relinearisation gadget
/// (base `2^DIGIT_BITS`).
pub const DIGIT_BITS: u32 = 16;

/// Which key-switch gadget a context uses. Determined by
/// [`CkksContext::special_primes`]; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySwitchGadget {
    /// Base-`2^digit_bits` digit decomposition within each RNS limb.
    PerPrime {
        /// Digit width in bits.
        digit_bits: u32,
    },
    /// ω-limb digits raised against the special-prime modulus `P`.
    Hybrid {
        /// Digit size in RNS limbs.
        omega: usize,
    },
}

impl KeySwitchGadget {
    /// The gadget `ctx` is configured for.
    pub fn of(ctx: &CkksContext) -> Self {
        if ctx.special_primes().is_empty() {
            KeySwitchGadget::PerPrime {
                digit_bits: DIGIT_BITS,
            }
        } else {
            KeySwitchGadget::Hybrid {
                omega: ctx.special_primes().len(),
            }
        }
    }

    /// Number of key-switch components for a ciphertext with
    /// `num_limbs` limbs over the chain `primes`.
    pub fn component_count(&self, primes: &[u64], num_limbs: usize) -> usize {
        match *self {
            KeySwitchGadget::PerPrime { digit_bits } => primes[..num_limbs]
                .iter()
                .map(|&q| ((64 - q.leading_zeros()).div_ceil(digit_bits)) as usize)
                .sum(),
            KeySwitchGadget::Hybrid { omega } => num_limbs.div_ceil(omega.min(num_limbs)),
        }
    }
}

/// The secret key: a ternary ring element (NTT form, full chain).
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: RnsPoly,
}

/// The public key `(b, a)` with `b = -a·s + e`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

/// One key-switching component for a `(prime index, digit)` pair of
/// [`per_prime_rows`]: `(b, a)` with `b = -a·s + e + B^t·ĝ_i·s'` for
/// the switched-from secret `s'` (`s²` for relinearisation, `φ_g(s)`
/// for Galois keys).
#[derive(Debug, Clone)]
pub(crate) struct RelinComponent {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

/// The per-prime gadget's components at `num_limbs` limbs as
/// `(prime index, digit)` pairs, prime-major — the one order shared by
/// key generation and the evaluator's decomposition.
pub(crate) fn per_prime_rows(ctx: &CkksContext, num_limbs: usize) -> Vec<(usize, u32)> {
    (0..num_limbs)
        .flat_map(|i| {
            let bits = 64 - ctx.primes()[i].leading_zeros();
            (0..bits.div_ceil(DIGIT_BITS)).map(move |digit| (i, digit))
        })
        .collect()
}

/// The fast-base-conversion constants of one hybrid gadget digit: the
/// grouped chain-limb range and the factors that lift that digit to
/// the extended basis. Level-specific, key-independent.
#[derive(Debug, Clone)]
pub(crate) struct HybridDigitBasis {
    /// First chain limb of the group.
    pub(crate) start: usize,
    /// One past the last chain limb of the group.
    pub(crate) end: usize,
    /// Per in-group limb `i`: `[(Q_j/q_i)^{-1}]_{q_i}` and its Shoup
    /// companion.
    pub(crate) inv_qhat: Vec<(u64, u64)>,
    /// Per extended-basis target limb `t`, per in-group limb `i`:
    /// `[(Q_j/q_i)] mod m_t`, laid out `t`-major
    /// (`qhat[t * group + i]`).
    pub(crate) qhat: Vec<u64>,
}

/// Everything the hybrid key switch needs at one level that does not
/// depend on the key: the digit partition with its raise constants
/// (the decompose phase) and the mod-down-by-`P` constants (the apply
/// phase). Built once per level at key generation, so a decomposition
/// can be shared by every key at that level.
#[derive(Debug, Clone)]
pub(crate) struct HybridBasis {
    /// Special primes in use: `k = min(ω, num_limbs)`.
    pub(crate) k: usize,
    /// The digits, covering `0..num_limbs` in order.
    pub(crate) digits: Vec<HybridDigitBasis>,
    /// Per special limb `l`: `[(P/p_l)^{-1}]_{p_l}` and Shoup companion.
    pub(crate) inv_phat: Vec<(u64, u64)>,
    /// Per chain limb `t`, per special limb `l`: `(P/p_l) mod q_t`,
    /// laid out `t`-major (`phat[t * k + l]`).
    pub(crate) phat: Vec<u64>,
    /// Per chain limb `t`: `[P^{-1}]_{q_t}` and Shoup companion.
    pub(crate) p_inv: Vec<(u64, u64)>,
    /// Per chain limb `t`: `P mod q_t` (the gadget factor keys embed).
    pub(crate) p_mod: Vec<u64>,
}

/// One digit of a hybrid key-switching key: the `(b, a)` pair over the
/// extended basis with `b = -a·s + e + (P·G_j)·s'`.
#[derive(Debug, Clone)]
pub(crate) struct HybridDigit {
    /// `b` over the extended basis, flat limb-major, NTT form.
    pub(crate) b: Vec<u64>,
    /// `a` over the extended basis, flat limb-major, NTT form.
    pub(crate) a: Vec<u64>,
}

/// A hybrid key-switching key for one level: one `(b, a)` pair per
/// digit of that level's [`HybridBasis`].
#[derive(Debug, Clone)]
pub(crate) struct HybridKsk {
    /// The digits, in [`HybridBasis::digits`] order.
    pub(crate) digits: Vec<HybridDigit>,
}

/// The two key-switching key layouts; which one a [`KeyChain`]
/// produces follows the context's [`KeySwitchGadget`].
#[derive(Debug, Clone)]
pub(crate) enum KskInner {
    /// Per-prime digit components.
    PerPrime(Vec<RelinComponent>),
    /// Hybrid ω-limb digits.
    Hybrid(HybridKsk),
}

/// A gadget-decomposed key-switching key for one level.
///
/// The same structure serves relinearisation (switching from `s²`) and
/// Galois rotations (switching from `φ_g(s)`); only the embedded
/// secret differs.
#[derive(Debug, Clone)]
pub struct RelinKey {
    pub(crate) inner: KskInner,
    pub(crate) num_limbs: usize,
}

/// Alias making call sites that key-switch under Galois automorphisms
/// read naturally.
pub type KeySwitchKey = RelinKey;

impl RelinKey {
    /// The level (limb count) this key was generated for.
    pub fn num_limbs(&self) -> usize {
        self.num_limbs
    }

    /// Number of gadget components (digits) in this key.
    pub fn component_count(&self) -> usize {
        match &self.inner {
            KskInner::PerPrime(components) => components.len(),
            KskInner::Hybrid(ksk) => ksk.digits.len(),
        }
    }

    /// Limb `t` of component `j`'s `(b, a)` pair (NTT form), over the
    /// key's own basis: chain limbs for per-prime keys, the extended
    /// basis for hybrid ones.
    pub(crate) fn component_limb(&self, j: usize, t: usize, n: usize) -> (&[u64], &[u64]) {
        match &self.inner {
            KskInner::PerPrime(components) => (components[j].b.limb(t), components[j].a.limb(t)),
            KskInner::Hybrid(ksk) => {
                let d = &ksk.digits[j];
                (&d.b[t * n..(t + 1) * n], &d.a[t * n..(t + 1) * n])
            }
        }
    }
}

/// Holds the key material and lazily generates per-level relin keys
/// and per-(element, level) Galois keys.
pub struct KeyChain {
    ctx: Arc<CkksContext>,
    sk: SecretKey,
    /// The ternary secret coefficients behind `sk`: the hybrid gadget
    /// needs `s` residues over the special primes, which the chain-only
    /// `RnsPoly` cannot produce.
    sk_coeffs: Vec<i64>,
    pk: PublicKey,
    /// Hybrid gadget constants per level (`bases[num_limbs - 1]`);
    /// empty under the per-prime gadget.
    bases: Vec<HybridBasis>,
    relin_cache: Mutex<HashMap<usize, Arc<RelinKey>>>,
    galois_cache: Mutex<HashMap<(usize, usize), Arc<RelinKey>>>,
    /// Parent of every lazily generated key's RNG. Never advanced:
    /// each key forks a *copy* by its `(kind, g, limbs)` tag, so key
    /// material does not depend on the order (or the thread) keys are
    /// first requested in.
    ksk_rng: Rng64,
}

impl std::fmt::Debug for KeyChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyChain")
            .field("n", &self.ctx.n())
            .field("chain_len", &self.ctx.primes().len())
            .finish()
    }
}

impl KeyChain {
    /// Generates a fresh key set.
    pub fn generate(ctx: &Arc<CkksContext>, rng: &mut Rng64) -> Arc<Self> {
        let full = ctx.primes().len();
        // Same draws as `RnsPoly::random_ternary` (keygen determinism
        // per seed is pinned by tests), but the raw coefficients are
        // retained for special-prime residue construction.
        let sk_coeffs: Vec<i64> = (0..ctx.n()).map(|_| rng.next_below(3) as i64 - 1).collect();
        let mut s = RnsPoly::from_signed_coeffs(ctx, &sk_coeffs, full);
        s.to_ntt();
        let a = RnsPoly::random_uniform(ctx, full, rng);
        let mut e = RnsPoly::random_error(ctx, full, rng);
        e.to_ntt();
        let b = a.mul(&s).neg().add(&e);
        let bases = match KeySwitchGadget::of(ctx) {
            KeySwitchGadget::PerPrime { .. } => Vec::new(),
            KeySwitchGadget::Hybrid { .. } => {
                (1..=full).map(|nl| HybridBasis::new(ctx, nl)).collect()
            }
        };
        Arc::new(KeyChain {
            ctx: Arc::clone(ctx),
            sk: SecretKey { s },
            sk_coeffs,
            pk: PublicKey { b, a },
            bases,
            relin_cache: Mutex::new(HashMap::new()),
            galois_cache: Mutex::new(HashMap::new()),
            ksk_rng: rng.fork(0x52454C4E),
        })
    }

    /// The RNG of the lazily generated key tagged `tag`: a function of
    /// the chain's seed and the tag alone.
    fn key_rng(&self, tag: u64) -> Rng64 {
        self.ksk_rng.clone().fork(tag)
    }

    /// The hybrid gadget constants for `num_limbs` limbs.
    ///
    /// # Panics
    ///
    /// Panics under the per-prime gadget or if `num_limbs` is zero or
    /// exceeds the chain length.
    pub(crate) fn hybrid_basis(&self, num_limbs: usize) -> &HybridBasis {
        &self.bases[num_limbs - 1]
    }

    /// Shared context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The secret key (exposed because this crate is a research
    /// simulator: decryption-based noise measurement needs it).
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Returns (generating and caching if needed) the relinearisation
    /// key for ciphertexts with `num_limbs` limbs.
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` exceeds the chain length.
    pub fn relin_key(&self, num_limbs: usize) -> Arc<RelinKey> {
        assert!(num_limbs <= self.ctx.primes().len());
        if let Some(k) = self.relin_cache.lock().expect("poisoned").get(&num_limbs) {
            return Arc::clone(k);
        }
        // Generated outside the lock; a racing thread derives the
        // identical key from the same tag, and the first insert wins.
        let key = Arc::new(self.generate_relin(num_limbs));
        Arc::clone(
            self.relin_cache
                .lock()
                .expect("poisoned")
                .entry(num_limbs)
                .or_insert(key),
        )
    }

    fn generate_relin(&self, num_limbs: usize) -> RelinKey {
        let mut rng = self.key_rng(num_limbs as u64);
        match KeySwitchGadget::of(&self.ctx) {
            KeySwitchGadget::PerPrime { .. } => {
                let s_trunc = truncate(&self.sk.s, num_limbs);
                let s2 = s_trunc.mul(&s_trunc);
                self.generate_ksk(&s2, num_limbs, &mut rng)
            }
            KeySwitchGadget::Hybrid { .. } => RelinKey {
                inner: KskInner::Hybrid(self.generate_hybrid_ksk(
                    SwitchedSecret::Square,
                    num_limbs,
                    &mut rng,
                )),
                num_limbs,
            },
        }
    }

    /// Returns (generating and caching if needed) the Galois key for
    /// automorphism element `g` at `num_limbs` limbs, switching
    /// ciphertext components from `φ_g(s)` back to `s`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid odd Galois element or `num_limbs`
    /// exceeds the chain length.
    pub fn galois_key(&self, g: usize, num_limbs: usize) -> Arc<RelinKey> {
        assert!(num_limbs <= self.ctx.primes().len());
        let cache_key = (g, num_limbs);
        if let Some(k) = self.galois_cache.lock().expect("poisoned").get(&cache_key) {
            return Arc::clone(k);
        }
        let mut rng = self.key_rng(0x47414C ^ ((g as u64) << 16) ^ num_limbs as u64);
        let key = match KeySwitchGadget::of(&self.ctx) {
            KeySwitchGadget::PerPrime { .. } => {
                let s_trunc = truncate(&self.sk.s, num_limbs);
                let mut s_g = s_trunc.automorphism(g);
                s_g.to_ntt();
                self.generate_ksk(&s_g, num_limbs, &mut rng)
            }
            KeySwitchGadget::Hybrid { .. } => RelinKey {
                inner: KskInner::Hybrid(self.generate_hybrid_ksk(
                    SwitchedSecret::Auto(g),
                    num_limbs,
                    &mut rng,
                )),
                num_limbs,
            },
        };
        // As in `relin_key`: racing generations are identical.
        Arc::clone(
            self.galois_cache
                .lock()
                .expect("poisoned")
                .entry(cache_key)
                .or_insert(Arc::new(key)),
        )
    }

    /// Generates a gadget-decomposed key-switching key embedding the
    /// switched-from secret `s_prime` (NTT form, `num_limbs` limbs).
    fn generate_ksk(&self, s_prime: &RnsPoly, num_limbs: usize, rng: &mut Rng64) -> RelinKey {
        let ctx = &self.ctx;
        let s_trunc = truncate(&self.sk.s, num_limbs);
        let components = per_prime_rows(ctx, num_limbs)
            .into_iter()
            .map(|(prime_index, digit)| {
                let a = RnsPoly::random_uniform(ctx, num_limbs, rng);
                let mut e = RnsPoly::random_error(ctx, num_limbs, rng);
                e.to_ntt();
                // gadget = B^digit * ĝ_i, which in RNS is the vector
                // that is B^digit at limb prime_index and 0 elsewhere.
                let mut scalars = vec![0u64; num_limbs];
                let q_i = ctx.primes()[prime_index];
                scalars[prime_index] = mod_pow2(DIGIT_BITS * digit, q_i);
                let gadget_sp = s_prime.mul_scalar_residues(&scalars);
                let b = a.mul(&s_trunc).neg().add(&e).add(&gadget_sp);
                RelinComponent { b, a }
            })
            .collect();
        RelinKey {
            inner: KskInner::PerPrime(components),
            num_limbs,
        }
    }

    /// Residues of signed coefficients modulo every limb of the
    /// extended basis `[q_0..q_{nl-1}, p_0..p_{k-1}]`, NTT-transformed
    /// per limb, as one flat limb-major buffer.
    fn ext_residues_ntt(&self, coeffs: &[i64], num_limbs: usize, k: usize) -> Vec<u64> {
        let ctx = &self.ctx;
        let n = ctx.n();
        let ext = num_limbs + k;
        let mut out = vec![0u64; ext * n];
        for t in 0..ext {
            let m = ctx.ext_modulus(num_limbs, t);
            let limb = &mut out[t * n..(t + 1) * n];
            for (dst, &c) in limb.iter_mut().zip(coeffs) {
                let r = if c >= 0 {
                    c as u64 % m
                } else {
                    m - ((-c) as u64 % m)
                };
                *dst = if r == m { 0 } else { r };
            }
            ctx.ext_ntt(num_limbs, t).forward(limb);
        }
        out
    }

    /// Generates a hybrid key-switching key embedding the
    /// switched-from secret (`s²` or `φ_g(s)`) over the digits of the
    /// level's [`HybridBasis`]. One-time per (kind, level) — cached by
    /// the callers.
    fn generate_hybrid_ksk(
        &self,
        which: SwitchedSecret,
        num_limbs: usize,
        rng: &mut Rng64,
    ) -> HybridKsk {
        let ctx = &self.ctx;
        let n = ctx.n();
        let basis = self.hybrid_basis(num_limbs);
        let k = basis.k;
        let ext = num_limbs + k;

        // Secrets over the extended basis (NTT form, flat limb-major).
        let s_ext = self.ext_residues_ntt(&self.sk_coeffs, num_limbs, k);
        let sp_ext = match which {
            SwitchedSecret::Square => {
                let mut sq = s_ext.clone();
                for t in 0..ext {
                    let arith = ctx.ext_arith(num_limbs, t);
                    for v in &mut sq[t * n..(t + 1) * n] {
                        *v = arith.mul(*v, *v);
                    }
                }
                sq
            }
            SwitchedSecret::Auto(g) => {
                let two_n = 2 * n;
                let mut coeffs = vec![0i64; n];
                for (i, &c) in self.sk_coeffs.iter().enumerate() {
                    let e = (i * g) % two_n;
                    if e < n {
                        coeffs[e] = c;
                    } else {
                        coeffs[e - n] = -c;
                    }
                }
                self.ext_residues_ntt(&coeffs, num_limbs, k)
            }
        };

        let digits = basis
            .digits
            .iter()
            .map(|digit| {
                // Component (b, a) over the extended basis. Draw order
                // is limb-major like `random_uniform` / `random_error`.
                let mut a = vec![0u64; ext * n];
                for t in 0..ext {
                    let m = ctx.ext_modulus(num_limbs, t);
                    for dst in &mut a[t * n..(t + 1) * n] {
                        *dst = rng.next_u64() % m;
                    }
                }
                let sigma = ctx.sigma();
                let e_coeffs: Vec<i64> = (0..n)
                    .map(|_| (rng.next_gaussian() as f64 * sigma).round() as i64)
                    .collect();
                let e_ext = self.ext_residues_ntt(&e_coeffs, num_limbs, k);
                // b = -a·s + e + gadget·s', where the gadget residue is
                // `P mod q_t` on in-group chain limbs and 0 elsewhere
                // (every special prime divides P, and G_j ≡ 0 modulo
                // out-of-group chain primes).
                let mut b = vec![0u64; ext * n];
                for t in 0..ext {
                    let arith = ctx.ext_arith(num_limbs, t);
                    let gadget = if t >= digit.start && t < digit.end {
                        basis.p_mod[t]
                    } else {
                        0
                    };
                    let (bt, at) = (&mut b[t * n..(t + 1) * n], &a[t * n..(t + 1) * n]);
                    let st = &s_ext[t * n..(t + 1) * n];
                    let spt = &sp_ext[t * n..(t + 1) * n];
                    let et = &e_ext[t * n..(t + 1) * n];
                    for c in 0..n {
                        let neg_as = arith.q() - arith.mul(at[c], st[c]);
                        let neg_as = if neg_as == arith.q() { 0 } else { neg_as };
                        let g_sp = arith.mul(gadget, spt[c]);
                        bt[c] = arith.add(arith.add(neg_as, et[c]), g_sp);
                    }
                }
                HybridDigit { b, a }
            })
            .collect();
        HybridKsk { digits }
    }
}

impl HybridBasis {
    /// Precomputes the digit partition, base-conversion and mod-down
    /// constants for `num_limbs` limbs of `ctx`'s chain.
    fn new(ctx: &CkksContext, num_limbs: usize) -> Self {
        let omega_eff = ctx.special_primes().len().min(num_limbs);
        let k = omega_eff;
        let ext = num_limbs + k;
        let mulmod = |a: u64, b: u64, m: u64| ((a as u128 * b as u128) % m as u128) as u64;

        // Mod-down constants: P = ∏ special[..k].
        let mut p_mod = vec![0u64; num_limbs];
        for (t, dst) in p_mod.iter_mut().enumerate() {
            let q = ctx.primes()[t];
            *dst = ctx.special_primes()[..k]
                .iter()
                .fold(1 % q, |acc, &p| mulmod(acc, p % q, q));
        }
        let mut inv_phat = Vec::with_capacity(k);
        for l in 0..k {
            let p_l = ctx.special_primes()[l];
            let mut hat = 1 % p_l;
            for (l2, &p) in ctx.special_primes()[..k].iter().enumerate() {
                if l2 != l {
                    hat = mulmod(hat, p % p_l, p_l);
                }
            }
            let inv = inv_mod(hat, p_l);
            inv_phat.push((inv, ctx.arith_special(l).shoup(inv)));
        }
        let mut phat = vec![0u64; num_limbs * k];
        for t in 0..num_limbs {
            let q = ctx.primes()[t];
            for l in 0..k {
                let mut hat = 1 % q;
                for (l2, &p) in ctx.special_primes()[..k].iter().enumerate() {
                    if l2 != l {
                        hat = mulmod(hat, p % q, q);
                    }
                }
                phat[t * k + l] = hat;
            }
        }
        let p_inv: Vec<(u64, u64)> = (0..num_limbs)
            .map(|t| {
                let q = ctx.primes()[t];
                let inv = inv_mod(p_mod[t], q);
                (inv, ctx.arith(t).shoup(inv))
            })
            .collect();

        // The digits.
        let mut digits = Vec::with_capacity(num_limbs.div_ceil(omega_eff));
        let mut start = 0;
        while start < num_limbs {
            let end = (start + omega_eff).min(num_limbs);
            let group = end - start;
            // Base conversion constants for Q_j = ∏ q_{start..end}.
            let mut inv_qhat = Vec::with_capacity(group);
            for i in start..end {
                let q_i = ctx.primes()[i];
                let mut hat = 1 % q_i;
                for (i2, &q) in ctx.primes()[start..end].iter().enumerate() {
                    if start + i2 != i {
                        hat = mulmod(hat, q % q_i, q_i);
                    }
                }
                let inv = inv_mod(hat, q_i);
                inv_qhat.push((inv, ctx.arith(i).shoup(inv)));
            }
            let mut qhat = vec![0u64; ext * group];
            for t in 0..ext {
                let m = ctx.ext_modulus(num_limbs, t);
                for i in 0..group {
                    let mut hat = 1 % m;
                    for (i2, &q) in ctx.primes()[start..end].iter().enumerate() {
                        if i2 != i {
                            hat = mulmod(hat, q % m, m);
                        }
                    }
                    qhat[t * group + i] = hat;
                }
            }
            digits.push(HybridDigitBasis {
                start,
                end,
                inv_qhat,
                qhat,
            });
            start = end;
        }

        HybridBasis {
            k,
            digits,
            inv_phat,
            phat,
            p_inv,
            p_mod,
        }
    }
}

/// Which switched-from secret a hybrid key embeds.
enum SwitchedSecret {
    /// `s'` = `s²` (relinearisation).
    Square,
    /// `s'` = `φ_g(s)` (Galois rotation by element `g`).
    Auto(usize),
}

/// `2^e mod q` without overflow.
fn mod_pow2(e: u32, q: u64) -> u64 {
    let mut acc = 1u64 % q;
    for _ in 0..e {
        acc = (acc * 2) % q;
    }
    acc
}

/// Copies the first `num_limbs` limbs of an NTT-form element (one
/// flat prefix `memcpy` into a pooled buffer).
pub(crate) fn truncate(p: &RnsPoly, num_limbs: usize) -> RnsPoly {
    assert!(p.is_ntt(), "truncate expects NTT form");
    p.truncated(num_limbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    /// Toy context forced onto the legacy per-prime gadget.
    fn per_prime_ctx() -> Arc<CkksContext> {
        CkksParams {
            ks_digit_limbs: 0,
            ..CkksParams::toy()
        }
        .build()
    }

    #[test]
    fn keygen_deterministic_per_seed() {
        let ctx = CkksParams::toy().build();
        let mut r1 = Rng64::new(7);
        let mut r2 = Rng64::new(7);
        let k1 = KeyChain::generate(&ctx, &mut r1);
        let k2 = KeyChain::generate(&ctx, &mut r2);
        assert_eq!(k1.public_key().a.limb(0), k2.public_key().a.limb(0));
    }

    #[test]
    fn public_key_relation_holds() {
        // b + a·s = e must be small.
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(3);
        let kc = KeyChain::generate(&ctx, &mut rng);
        let mut lhs = kc.pk.b.add(&kc.pk.a.mul(&kc.sk.s));
        lhs.to_coeff();
        for i in 0..ctx.n() {
            assert!(lhs.coeff_to_i128(i, 2).abs() < 64, "coeff {i} too large");
        }
    }

    #[test]
    fn relin_key_gadget_relation() {
        // b + a·s = e + B^t ĝ_i s², so (b + a·s) - gadget·s² is small.
        let ctx = per_prime_ctx();
        let mut rng = Rng64::new(9);
        let kc = KeyChain::generate(&ctx, &mut rng);
        let nl = 3;
        let rk = kc.relin_key(nl);
        let s = truncate(&kc.sk.s, nl);
        let s2 = s.mul(&s);
        let KskInner::PerPrime(components) = &rk.inner else {
            panic!("per-prime context produced a hybrid key");
        };
        for (comp, (prime_index, digit)) in components.iter().zip(per_prime_rows(&ctx, nl)).take(4)
        {
            let mut scalars = vec![0u64; nl];
            scalars[prime_index] = mod_pow2(DIGIT_BITS * digit, ctx.primes()[prime_index]);
            let gadget_s2 = s2.mul_scalar_residues(&scalars);
            let mut resid = comp.b.add(&comp.a.mul(&s)).sub(&gadget_s2);
            resid.to_coeff();
            // Residual is just the error e: check a handful of coeffs
            // via single-limb reconstruction (e is tiny).
            for i in (0..ctx.n()).step_by(17) {
                let r = resid.coeff_to_i128(i, 1);
                assert!(r.abs() < 64, "relin residual {r}");
            }
        }
    }

    #[test]
    fn relin_cache_reuses() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(1);
        let kc = KeyChain::generate(&ctx, &mut rng);
        let a = kc.relin_key(2);
        let b = kc.relin_key(2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn galois_key_gadget_relation() {
        // b + a·s = e + B^t ĝ_i φ_g(s), so (b + a·s) - gadget·φ_g(s)
        // must be small.
        let ctx = per_prime_ctx();
        let mut rng = Rng64::new(21);
        let kc = KeyChain::generate(&ctx, &mut rng);
        let nl = 2;
        let g = 5;
        let gk = kc.galois_key(g, nl);
        let s = truncate(&kc.sk.s, nl);
        let mut s_g = s.automorphism(g);
        s_g.to_ntt();
        let KskInner::PerPrime(components) = &gk.inner else {
            panic!("per-prime context produced a hybrid key");
        };
        for (comp, (prime_index, digit)) in components.iter().zip(per_prime_rows(&ctx, nl)).take(4)
        {
            let mut scalars = vec![0u64; nl];
            scalars[prime_index] = mod_pow2(DIGIT_BITS * digit, ctx.primes()[prime_index]);
            let gadget_sg = s_g.mul_scalar_residues(&scalars);
            let mut resid = comp.b.add(&comp.a.mul(&s)).sub(&gadget_sg);
            resid.to_coeff();
            for i in (0..ctx.n()).step_by(13) {
                let r = resid.coeff_to_i128(i, 1);
                assert!(r.abs() < 64, "galois residual {r}");
            }
        }
    }

    #[test]
    fn galois_cache_reuses_and_distinguishes() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(2);
        let kc = KeyChain::generate(&ctx, &mut rng);
        let a = kc.galois_key(5, 2);
        let b = kc.galois_key(5, 2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = kc.galois_key(25, 2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// Every word of a key, component by component.
    fn key_words(key: &RelinKey, ctx: &CkksContext) -> Vec<u64> {
        let n = ctx.n();
        let width = match &key.inner {
            KskInner::PerPrime(_) => key.num_limbs(),
            KskInner::Hybrid(ksk) => ksk.digits[0].b.len() / n,
        };
        let mut words = Vec::new();
        for j in 0..key.component_count() {
            for t in 0..width {
                let (b, a) = key.component_limb(j, t, n);
                words.extend_from_slice(b);
                words.extend_from_slice(a);
            }
        }
        words
    }

    #[test]
    fn lazy_keys_do_not_depend_on_request_order() {
        // Two chains from one seed, asked for the same keys in
        // opposite orders — one of them from 4 threads released
        // together — must hold byte-identical key material: each key's
        // RNG is a function of the chain seed and the key's tag alone.
        #[derive(Clone, Copy)]
        enum Req {
            Relin(usize),
            Galois(usize, usize),
        }
        let reqs = [
            Req::Relin(3),
            Req::Galois(5, 2),
            Req::Galois(25, 2),
            Req::Relin(2),
            Req::Galois(5, 3),
            Req::Galois(511, 2),
        ];
        let fetch = |kc: &KeyChain, r: Req| match r {
            Req::Relin(nl) => kc.relin_key(nl),
            Req::Galois(g, nl) => kc.galois_key(g, nl),
        };
        for ctx in [CkksParams::toy().build(), per_prime_ctx()] {
            let forward = KeyChain::generate(&ctx, &mut Rng64::new(17));
            let backward = KeyChain::generate(&ctx, &mut Rng64::new(17));
            for &r in &reqs {
                fetch(&forward, r);
            }
            let barrier = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for shift in 0..4 {
                    let (backward, barrier, reqs) = (&backward, &barrier, &reqs);
                    scope.spawn(move || {
                        barrier.wait();
                        for i in (0..reqs.len()).rev() {
                            fetch(backward, reqs[(i + shift) % reqs.len()]);
                        }
                    });
                }
            });
            for &r in &reqs {
                assert_eq!(
                    key_words(&fetch(&forward, r), &ctx),
                    key_words(&fetch(&backward, r), &ctx),
                    "key material must not depend on request order"
                );
            }
        }
    }

    #[test]
    fn mod_pow2_values() {
        assert_eq!(mod_pow2(0, 97), 1);
        assert_eq!(mod_pow2(10, 97), 1024 % 97);
    }

    #[test]
    fn gadget_selection_follows_context() {
        assert_eq!(
            KeySwitchGadget::of(&per_prime_ctx()),
            KeySwitchGadget::PerPrime {
                digit_bits: DIGIT_BITS
            }
        );
        assert_eq!(
            KeySwitchGadget::of(&CkksParams::toy().build()),
            KeySwitchGadget::Hybrid { omega: 3 }
        );
    }

    #[test]
    fn hybrid_component_count_beats_per_prime() {
        let ctx = CkksParams::toy().build();
        let per_prime = KeySwitchGadget::PerPrime {
            digit_bits: DIGIT_BITS,
        };
        let hybrid = KeySwitchGadget::of(&ctx);
        // 13 limbs: 60-bit base → 4 digits + 12 × 40-bit → 3 each = 40
        // per-prime components, vs ⌈13/3⌉ = 5 hybrid digits.
        assert_eq!(per_prime.component_count(ctx.primes(), 13), 40);
        assert_eq!(hybrid.component_count(ctx.primes(), 13), 5);
        // Level-aware digit selection: ω clamps to the live limb count.
        assert_eq!(hybrid.component_count(ctx.primes(), 2), 1);
        assert_eq!(hybrid.component_count(ctx.primes(), 1), 1);
    }

    /// Checks the hybrid key relation `b + a·s − gadget·s' = e` limb
    /// by limb over the extended basis: the residual must be a
    /// centered-small error in every limb.
    fn assert_hybrid_relation(kc: &KeyChain, ksk: &HybridKsk, nl: usize, sp_coeffs_check: &str) {
        let ctx = kc.context();
        let n = ctx.n();
        let basis = kc.hybrid_basis(nl);
        let k = basis.k;
        let ext = nl + k;
        let s_ext = kc.ext_residues_ntt(&kc.sk_coeffs, nl, k);
        // P mod q_t, recomputed independently of keygen.
        let p_mod: Vec<u64> = (0..nl)
            .map(|t| {
                let q = ctx.primes()[t];
                ctx.special_primes()[..k].iter().fold(1 % q, |acc, &p| {
                    ((acc as u128 * (p % q) as u128) % q as u128) as u64
                })
            })
            .collect();
        let sp_ext = match sp_coeffs_check {
            "square" => {
                let mut sq = s_ext.clone();
                for t in 0..ext {
                    let arith = ctx.ext_arith(nl, t);
                    for v in &mut sq[t * n..(t + 1) * n] {
                        *v = arith.mul(*v, *v);
                    }
                }
                sq
            }
            _ => unreachable!(),
        };
        for (digit, range) in ksk.digits.iter().zip(&basis.digits) {
            for t in 0..ext {
                let arith = ctx.ext_arith(nl, t);
                let gadget = if t >= range.start && t < range.end {
                    p_mod[t]
                } else {
                    0
                };
                let mut resid = vec![0u64; n];
                for c in 0..n {
                    let a_s = arith.mul(digit.a[t * n + c], s_ext[t * n + c]);
                    let g_sp = arith.mul(gadget, sp_ext[t * n + c]);
                    resid[c] = arith.sub(arith.add(digit.b[t * n + c], a_s), g_sp);
                }
                ctx.ext_ntt(nl, t).inverse(&mut resid);
                let m = arith.q() as i128;
                for (c, &r) in resid.iter().enumerate().step_by(17) {
                    let centered = if (r as i128) > m / 2 {
                        r as i128 - m
                    } else {
                        r as i128
                    };
                    assert!(
                        centered.abs() < 64,
                        "digit [{},{}) limb {t} coeff {c}: residual {centered}",
                        range.start,
                        range.end
                    );
                }
            }
        }
    }

    #[test]
    fn hybrid_relin_key_gadget_relation() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(11);
        let kc = KeyChain::generate(&ctx, &mut rng);
        for nl in [1, 2, 5, 13] {
            let rk = kc.relin_key(nl);
            let KskInner::Hybrid(ksk) = &rk.inner else {
                panic!("hybrid context produced a per-prime key");
            };
            assert_eq!(ksk.digits.len(), nl.div_ceil(3.min(nl)));
            assert_eq!(kc.hybrid_basis(nl).k, 3.min(nl));
            assert_hybrid_relation(&kc, ksk, nl, "square");
        }
    }

    #[test]
    fn hybrid_digits_partition_the_chain() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(13);
        let kc = KeyChain::generate(&ctx, &mut rng);
        for nl in [1, 3, 4, 7, 13] {
            let mut expect_start = 0;
            for d in &kc.hybrid_basis(nl).digits {
                assert_eq!(d.start, expect_start);
                assert!(d.end > d.start && d.end <= nl);
                assert!(d.end - d.start <= 3);
                expect_start = d.end;
            }
            assert_eq!(expect_start, nl);
        }
    }
}
