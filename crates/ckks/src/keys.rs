//! Key generation: secret/public keys and key-switching keys under
//! the hybrid (special-prime) gadget.
//!
//! ω RNS limbs group into one digit against ω special primes
//! `P = ∏ p_l`; each digit is raised to the extended basis by fast base
//! conversion and the accumulated result is scaled back down by `P` —
//! `⌈L/ω⌉` components at `L` limbs, which is what makes relinearisation
//! at the top of a deep chain cheap. ω is the context's
//! [`CkksContext::special_primes`] count.
//!
//! Digit `j`'s gadget residue, `P mod q_t` on its own chain limbs and 0
//! elsewhere, is a CRT idempotent: a key on `L` limbs read through its
//! first `L′` chain limbs and its special limbs is a key at `L′` with
//! the same `k = min(ω, L′)`. So [`KeyChain`] lazily generates one key
//! per (switched secret, `k`), on the most limbs asked for (a simulator
//! convenience). Each key limb's randomness is a function of the
//! chain's seed and its `(secret, k, digit, modulus)` tags alone: a
//! shorter key is a longer one's prefix, word for word, and request
//! order never changes key material. The key-independent gadget
//! constants ([`HybridBasis`]: digit partition, raise and mod-down
//! factors) are built for every level at key generation.

use crate::cipher::{Products, Term, Weight};
use crate::modular::inv_mod;
use crate::rns::{CkksContext, RnsPoly};
use crate::{par, pool};
use smartpaf_tensor::Rng64;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// The fast-base-conversion constants of one hybrid gadget digit: the
/// grouped chain-limb range and the factors that lift that digit to
/// the extended basis. Level-specific, key-independent.
#[derive(Debug, Clone)]
pub(crate) struct HybridDigitBasis {
    /// First chain limb of the group.
    pub(crate) start: usize,
    /// One past the last chain limb of the group.
    pub(crate) end: usize,
    /// Per in-group limb `i`: `[(Q_j/q_i)^{-1}]_{q_i}`.
    pub(crate) inv_qhat: Vec<u64>,
    /// Per extended-basis target limb `t`, per in-group limb `i`:
    /// `[(Q_j/q_i)] mod m_t`, laid out `t`-major
    /// (`qhat[t * group + i]`).
    pub(crate) qhat: Vec<u64>,
}

/// The constants of one exact division of an extended-basis value by
/// the product `D` of a suffix of that basis — the mod-down of
/// `Evaluator::hybrid_mod_down`. The divisor limbs are the extended
/// limbs `out_limbs..`: the special primes alone (`D = P`, the key
/// switch's own division) or the last chain prime with them
/// (`D = q_last·P`, the key switch fused with the rescale that follows
/// it).
#[derive(Debug, Clone)]
pub(crate) struct ModDown {
    /// Chain limbs of the quotient: every limb before the divisors.
    pub(crate) out_limbs: usize,
    /// Per divisor limb `l` (modulus `d_l`): `[(D/d_l)^{-1}]_{d_l}`.
    pub(crate) inv_hat: Vec<u64>,
    /// Per output limb `t`, per divisor limb `l`: `(D/d_l) mod q_t`,
    /// laid out `t`-major (`hat[t * divisors + l]`).
    pub(crate) hat: Vec<u64>,
    /// Per output limb `t`: `[D^{-1}]_{q_t}`.
    pub(crate) d_inv: Vec<u64>,
    /// Round-to-nearest constants, empty for a plain (floor) division.
    /// The fast base conversion returns the remainder plus an overshoot
    /// `u·D`, `u = ⌊Σ_l y_l/d_l⌋`; a quotient that is rescaled
    /// afterwards divides that away, a final one has to remove it:
    /// per divisor limb `1/d_l`, and per output limb `−D mod q_t`.
    pub(crate) inv_f64: Vec<f64>,
    /// See [`ModDown::inv_f64`].
    pub(crate) neg_d: Vec<u64>,
}

/// Everything the hybrid key switch needs at one level that does not
/// depend on the key: the digit partition with its raise constants
/// (the decompose phase) and the mod-down constants (the apply phase).
/// Built once per level at key generation, so a decomposition can be
/// shared by every key at that level.
#[derive(Debug, Clone)]
pub(crate) struct HybridBasis {
    /// Special primes in use: `k = min(ω, num_limbs)`.
    pub(crate) k: usize,
    /// The digits, covering `0..num_limbs` in order.
    pub(crate) digits: Vec<HybridDigitBasis>,
    /// Division by `P`: what every key switch ends in.
    pub(crate) div_p: ModDown,
    /// Division by `q_last·P`, rounding to nearest: a relinearisation
    /// and the rescale after it in one base conversion. `None` on one
    /// limb, which has no prime to rescale by.
    pub(crate) div_p_q_last: Option<ModDown>,
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

/// A gadget-decomposed key-switching key: one `(b, a)` pair per gadget
/// digit, serving every level with its `k` up to its own limbs.
///
/// The same structure serves relinearisation (switching from `s²`) and
/// Galois rotations (switching from `φ_g(s)`); only the embedded
/// secret differs.
#[derive(Debug, Clone)]
pub struct RelinKey {
    /// The digits, in [`HybridBasis::digits`] order.
    pub(crate) digits: Vec<HybridDigit>,
    pub(crate) num_limbs: usize,
}

impl RelinKey {
    /// The chain limbs this key holds: the most it serves.
    pub fn num_limbs(&self) -> usize {
        self.num_limbs
    }

    /// Number of gadget components (digits) in this key.
    pub fn component_count(&self) -> usize {
        self.digits.len()
    }

    /// Limb `t` of component `j`'s `[b, a]` (NTT form) over the extended
    /// basis of `nl` chain limbs: the key read through its chain prefix.
    pub(crate) fn component_limb(&self, j: usize, t: usize, nl: usize, n: usize) -> [&[u64]; 2] {
        let t = if t < nl { t } else { t - nl + self.num_limbs };
        let d = &self.digits[j];
        [&d.b[t * n..(t + 1) * n], &d.a[t * n..(t + 1) * n]]
    }
}

/// Holds the key material and lazily generates the key-switching keys:
/// one per (switched secret, special-prime count).
pub struct KeyChain {
    ctx: Arc<CkksContext>,
    sk: SecretKey,
    /// `s` modulo each special prime, NTT form, flat limb-major: with
    /// `sk`'s chain limbs, `s` over every extended basis
    /// ([`KeyChain::s_limb`]).
    s_special: Vec<u64>,
    pk: PublicKey,
    /// Hybrid gadget constants per level (`bases[num_limbs - 1]`).
    bases: Vec<HybridBasis>,
    /// Each key on the most chain limbs any caller has asked for.
    switch_keys: Mutex<BTreeMap<(SwitchedSecret, usize), Arc<RelinKey>>>,
    /// Parent of every key limb's RNG. Never advanced: each limb forks
    /// a *copy* down its `(secret, k, digit, modulus)` tags, so key
    /// material depends neither on how many limbs a key holds nor on
    /// the order (or the thread) keys are first requested in.
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
    ///
    /// # Panics
    ///
    /// Panics if `ctx` has no special primes ([`CkksContext::new`]
    /// builds the ring only; key switching needs
    /// [`CkksContext::with_special_primes`]).
    pub fn generate(ctx: &Arc<CkksContext>, rng: &mut Rng64) -> Arc<Self> {
        assert!(
            !ctx.special_primes().is_empty(),
            "key generation needs a context with special primes"
        );
        let full = ctx.primes().len();
        // Same draws as `RnsPoly::random_ternary` (keygen determinism
        // per seed is pinned by tests), but the raw coefficients also
        // give the special-prime limbs, transformed once here.
        let sk_coeffs: Vec<i64> = (0..ctx.n()).map(|_| rng.next_below(3) as i64 - 1).collect();
        let mut s = RnsPoly::from_signed_coeffs(ctx, &sk_coeffs, full);
        s.to_ntt();
        let mut s_special = vec![0u64; ctx.special_primes().len() * ctx.n()];
        par::for_each_chunk_mut(&mut s_special, ctx.n(), |l, limb| {
            ctx.ext_signed_residues(full, full + l, &sk_coeffs, limb);
            ctx.ntt_special(l).forward(limb);
        });
        let a = RnsPoly::random_uniform(ctx, full, rng);
        let mut e = RnsPoly::random_error(ctx, full, rng);
        e.to_ntt();
        let b = a.mul(&s).neg().add(&e);
        let bases = (1..=full).map(|nl| HybridBasis::new(ctx, nl)).collect();
        Arc::new(KeyChain {
            ctx: Arc::clone(ctx),
            sk: SecretKey { s },
            s_special,
            pk: PublicKey { b, a },
            bases,
            switch_keys: Mutex::new(BTreeMap::new()),
            ksk_rng: rng.fork(0x52454C4E),
        })
    }

    /// The hybrid gadget constants for `num_limbs` limbs.
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or exceeds the chain length.
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

    /// The relinearisation key for `num_limbs` limbs: the key switching
    /// from `s²`, on at least `num_limbs` chain limbs.
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or exceeds the chain length.
    pub fn relin_key(&self, num_limbs: usize) -> Arc<RelinKey> {
        self.switch_key(SwitchedSecret::Square, num_limbs)
    }

    /// The Galois key for element `g` at `num_limbs` limbs: the key
    /// switching from `φ_g(s)`, on at least `num_limbs` chain limbs.
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or exceeds the chain length.
    pub fn galois_key(&self, g: usize, num_limbs: usize) -> Arc<RelinKey> {
        self.switch_key(SwitchedSecret::Auto(g), num_limbs)
    }

    /// The key switching from `secret` at `num_limbs` limbs: the cached
    /// one for the level's special-prime count if it holds that many
    /// chain limbs, else a new one on `num_limbs` that replaces it.
    fn switch_key(&self, secret: SwitchedSecret, num_limbs: usize) -> Arc<RelinKey> {
        let slot = (secret, self.hybrid_basis(num_limbs).k);
        if let Some(key) = self.switch_keys().get(&slot) {
            if key.num_limbs >= num_limbs {
                return Arc::clone(key);
            }
        }
        // Generated outside the lock; a racing generation holds the
        // same words on the limbs both keys have, and the longer stays.
        let key = Arc::new(self.generate_hybrid_ksk(secret, num_limbs));
        let mut keys = self.switch_keys();
        let entry = keys.entry(slot).or_insert_with(|| Arc::clone(&key));
        if entry.num_limbs < num_limbs {
            *entry = key;
        }
        Arc::clone(entry)
    }

    /// The key cache, recovered from poison: it only holds whole keys.
    fn switch_keys(&self) -> MutexGuard<'_, BTreeMap<(SwitchedSecret, usize), Arc<RelinKey>>> {
        self.switch_keys
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Each cached key as `(secret, k, chain limbs)`, sorted
    /// (diagnostics: what the key cache holds).
    pub fn key_limbs(&self) -> Vec<(SwitchedSecret, usize, usize)> {
        self.switch_keys()
            .iter()
            .map(|(&(secret, k), key)| (secret, k, key.num_limbs))
            .collect()
    }

    /// Limb `t` of `s` over the extended basis of `num_limbs` chain
    /// limbs, NTT form: a chain limb of the secret key, or a special
    /// limb transformed at generation.
    fn s_limb(&self, num_limbs: usize, t: usize) -> &[u64] {
        let n = self.ctx.n();
        match t.checked_sub(num_limbs) {
            None => self.sk.s.limb(t),
            Some(l) => &self.s_special[l * n..(l + 1) * n],
        }
    }

    /// Generates the hybrid key embedding `s²` or `φ_g(s)` on `num_limbs`
    /// chain limbs. Digit `j`'s `a` limb mod `m` draws from a stream
    /// tagged `(secret, k, j, m)`, its error from `(secret, k, j)`: on
    /// fewer limbs the key is this one's prefix, word for word.
    ///
    /// Every operand is read in NTT form: `s` from the secret key,
    /// `φ_g(s)` as its gather through [`CkksContext::galois_perm`], and
    /// each limb of `b = a·(−s) + e + P·G_j·s'` is one [`Products`] sum.
    /// Limbs are independent, so they fan out across [`crate::par`].
    fn generate_hybrid_ksk(&self, which: SwitchedSecret, num_limbs: usize) -> RelinKey {
        let ctx = &self.ctx;
        let n = ctx.n();
        let basis = self.hybrid_basis(num_limbs);
        let k = basis.k;
        let ext = num_limbs + k;
        let headroom = ctx.lazy_acc_headroom(num_limbs, k);

        // −s over the extended basis, and s' on the chain limbs: the
        // gadget factor `P·G_j` is 0 on every special limb, and each
        // chain limb lies in one digit.
        let mut neg_s = vec![0u64; ext * n];
        par::for_each_chunk_mut(&mut neg_s, n, |t, limb| {
            let arith = ctx.ext_arith(num_limbs, t);
            for (d, &s) in limb.iter_mut().zip(self.s_limb(num_limbs, t)) {
                *d = arith.sub(0, s);
            }
        });
        let (tag, perm) = match which {
            SwitchedSecret::Square => (0, None),
            SwitchedSecret::Auto(g) => (g as u64, Some(ctx.galois_perm(g))),
        };
        let mut s_prime = vec![0u64; num_limbs * n];
        par::for_each_chunk_mut(&mut s_prime, n, |t, limb| {
            let s = self.sk.s.limb(t);
            match &perm {
                Some(perm) => {
                    for (d, &p) in limb.iter_mut().zip(perm.iter()) {
                        *d = s[p as usize];
                    }
                }
                None => {
                    let square = Products {
                        extra: [None],
                        gather: None,
                        terms: 1,
                        term: |_| Term {
                            x: s,
                            w: [Weight::Words(s)],
                        },
                    };
                    square.reduce(ctx.ntt(t), [], headroom, [limb]);
                }
            }
        });
        let ones = vec![1u64; n];

        let secret_rng = self.ksk_rng.clone().fork(tag).fork(k as u64);
        let sigma = ctx.sigma();
        let digits = basis
            .digits
            .iter()
            .enumerate()
            .map(|(j, digit)| {
                // Component (b, a) over the extended basis; each `a` limb
                // is tagged by its modulus (no chain prime is special).
                let mut rng = secret_rng.clone().fork(j as u64);
                let mut a = vec![0u64; ext * n];
                par::for_each_chunk_mut(&mut a, n, |t, limb| {
                    let arith = ctx.ext_arith(num_limbs, t);
                    let mut limb_rng = rng.clone().fork(arith.q());
                    for dst in limb {
                        *dst = arith.reduce_u64(limb_rng.next_u64());
                    }
                });
                let e_coeffs: Vec<i64> = (0..n)
                    .map(|_| (rng.next_gaussian() as f64 * sigma).round() as i64)
                    .collect();
                let mut b = vec![0u64; ext * n];
                par::for_each_chunk_mut(&mut b, n, |t, bt| {
                    let table = ctx.ext_ntt(num_limbs, t);
                    let mut e = pool::acquire(n);
                    ctx.ext_signed_residues(num_limbs, t, &e_coeffs, &mut e);
                    table.forward(&mut e);
                    // The gadget residue is `P mod q_t` on the digit's
                    // own chain limbs and 0 elsewhere (every special
                    // prime divides P, and G_j ≡ 0 modulo out-of-group
                    // chain primes). Where it is 0, `e` is the sum's
                    // extra product; on the digit's limbs that slot
                    // holds `s'·(P mod q_t)` and `e` joins as `e·1`.
                    let in_group = (digit.start..digit.end).contains(&t);
                    let extra = if in_group {
                        (&s_prime[t * n..(t + 1) * n], basis.p_mod[t])
                    } else {
                        (&e[..], 1)
                    };
                    let (at, neg_st) = (&a[t * n..(t + 1) * n], &neg_s[t * n..(t + 1) * n]);
                    let sum = Products {
                        extra: [Some(extra)],
                        gather: None,
                        terms: 1 + usize::from(in_group),
                        term: |i| match i {
                            0 => Term {
                                x: at,
                                w: [Weight::Words(neg_st)],
                            },
                            _ => Term {
                                x: &e,
                                w: [Weight::Words(&ones)],
                            },
                        },
                    };
                    sum.reduce(table, [], headroom, [bt]);
                    pool::release(e);
                });
                HybridDigit { b, a }
            })
            .collect();
        RelinKey { digits, num_limbs }
    }
}

/// `a·b mod m` for set-up constants (no precomputed reducer).
fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

impl HybridBasis {
    /// Precomputes the digit partition, base-conversion and mod-down
    /// constants for `num_limbs` limbs of `ctx`'s chain.
    fn new(ctx: &CkksContext, num_limbs: usize) -> Self {
        let omega_eff = ctx.special_primes().len().min(num_limbs);
        let k = omega_eff;
        let ext = num_limbs + k;

        // The gadget factor P = ∏ special[..k].
        let mut p_mod = vec![0u64; num_limbs];
        for (t, dst) in p_mod.iter_mut().enumerate() {
            let q = ctx.primes()[t];
            *dst = ctx.special_primes()[..k]
                .iter()
                .fold(1 % q, |acc, &p| mulmod(acc, p % q, q));
        }

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
                inv_qhat.push(inv_mod(hat, q_i));
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
            div_p: ModDown::new(ctx, num_limbs, k, num_limbs, false),
            div_p_q_last: (num_limbs > 1)
                .then(|| ModDown::new(ctx, num_limbs, k, num_limbs - 1, true)),
            p_mod,
        }
    }
}

impl ModDown {
    /// Constants for dividing a value over the extended basis of
    /// `num_limbs` chain limbs and `k` special limbs by the product of
    /// its limbs `out_limbs..`, to nearest when `round`.
    fn new(ctx: &CkksContext, num_limbs: usize, k: usize, out_limbs: usize, round: bool) -> Self {
        let divisors: Vec<u64> = (out_limbs..num_limbs + k)
            .map(|t| ctx.ext_modulus(num_limbs, t))
            .collect();
        // ∏ of the divisors but the one at `skip`, mod `m`.
        let hat_mod = |skip: Option<usize>, m: u64| {
            divisors
                .iter()
                .enumerate()
                .filter(|&(l, _)| Some(l) != skip)
                .fold(1 % m, |acc, (_, &d)| mulmod(acc, d % m, m))
        };
        let inv_hat = divisors
            .iter()
            .enumerate()
            .map(|(l, &d)| inv_mod(hat_mod(Some(l), d), d))
            .collect();
        let chain = &ctx.primes()[..out_limbs];
        let hat = chain
            .iter()
            .flat_map(|&q| (0..divisors.len()).map(move |l| (l, q)))
            .map(|(l, q)| hat_mod(Some(l), q))
            .collect();
        let d_mod: Vec<u64> = chain.iter().map(|&q| hat_mod(None, q)).collect();
        let d_inv = d_mod
            .iter()
            .zip(chain)
            .map(|(&d, &q)| inv_mod(d, q))
            .collect();
        let (inv_f64, neg_d) = if round {
            (
                divisors.iter().map(|&d| 1.0 / d as f64).collect(),
                d_mod.iter().zip(chain).map(|(&d, &q)| q - d).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        ModDown {
            out_limbs,
            inv_hat,
            hat,
            d_inv,
            inv_f64,
            neg_d,
        }
    }
}

/// The secret a key switches from: with `k`, what [`KeyChain`] caches by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SwitchedSecret {
    /// `s'` = `s²` (relinearisation).
    Square,
    /// `s'` = `φ_g(s)` (Galois rotation by element `g`).
    Auto(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

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
    #[should_panic(expected = "key generation needs a context with special primes")]
    fn keygen_rejects_a_ring_only_context() {
        let toy = CkksParams::toy().build();
        let ring_only = CkksContext::new(toy.n(), toy.primes().to_vec(), toy.scale());
        KeyChain::generate(&ring_only, &mut Rng64::new(7));
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
    fn a_relin_key_is_reused_through_its_prefix() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(1);
        let kc = KeyChain::generate(&ctx, &mut rng);
        let a = kc.relin_key(2);
        let b = kc.relin_key(2);
        assert!(Arc::ptr_eq(&a, &b));
        // 4 and 5 limbs share k = 3 special primes, so one key.
        let c = kc.relin_key(5);
        assert!(Arc::ptr_eq(&c, &kc.relin_key(4)));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn galois_keys_are_reused_and_distinguished() {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(2);
        let kc = KeyChain::generate(&ctx, &mut rng);
        let a = kc.galois_key(5, 2);
        let b = kc.galois_key(5, 2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = kc.galois_key(25, 2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// Every word of `key` read through its first `nl` chain limbs,
    /// digit by digit: `b` then `a`, limb by limb.
    fn key_words(kc: &KeyChain, key: &RelinKey, nl: usize) -> Vec<u64> {
        let (n, basis) = (kc.context().n(), kc.hybrid_basis(nl));
        let mut words = Vec::new();
        for j in 0..basis.digits.len() {
            let limbs: Vec<_> = (0..nl + basis.k)
                .map(|t| key.component_limb(j, t, nl, n))
                .collect();
            for half in 0..2 {
                words.extend(limbs.iter().flat_map(|pair| pair[half]));
            }
        }
        words
    }

    #[test]
    fn lazy_keys_do_not_depend_on_request_order() {
        // Three chains from one seed asked for the same keys — in order
        // (low limb counts, then grown), in reverse from 4 threads
        // released together, and at the top of each (secret, k) first —
        // must hold byte-identical key material at every request's
        // limbs: each key limb's RNG is a function of the chain seed and
        // its tags alone.
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
            Req::Relin(7),
            Req::Galois(5, 6),
            Req::Galois(511, 2),
        ];
        let fetch = |kc: &KeyChain, r: Req| match r {
            Req::Relin(nl) => kc.relin_key(nl),
            Req::Galois(g, nl) => kc.galois_key(g, nl),
        };
        let ctx = CkksParams::toy().build();
        let chain = || KeyChain::generate(&ctx, &mut Rng64::new(17));
        let (forward, backward, top) = (chain(), chain(), chain());
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
        fetch(&top, Req::Relin(7));
        fetch(&top, Req::Galois(5, 6));
        for &r in &reqs {
            let nl = match r {
                Req::Relin(nl) | Req::Galois(_, nl) => nl,
            };
            let words = |kc: &KeyChain| key_words(kc, &fetch(kc, r), nl);
            let want = words(&forward);
            assert_eq!(
                want,
                words(&backward),
                "key material must not depend on request order"
            );
            assert_eq!(
                want,
                words(&top),
                "a key must be the prefix of a longer one"
            );
        }
        use SwitchedSecret::{Auto, Square};
        let held = [
            (Square, 2, 2),
            (Square, 3, 7),
            (Auto(5), 2, 2),
            (Auto(5), 3, 6),
            (Auto(25), 2, 2),
            (Auto(511), 2, 2),
        ];
        for kc in [&forward, &backward, &top] {
            assert_eq!(kc.key_limbs(), held);
        }
    }

    #[test]
    fn a_key_is_the_prefix_of_a_longer_one() {
        // A key first generated at L′ limbs on a fresh chain is, word for
        // word, the 13-limb key read through its first L′ chain limbs and
        // its special limbs, and that read satisfies the gadget relation
        // at L′.
        let ctx = CkksParams::toy().build();
        let chain = || KeyChain::generate(&ctx, &mut Rng64::new(31));
        let conj = 2 * ctx.n() - 1;
        for which in [
            SwitchedSecret::Square,
            SwitchedSecret::Auto(5),
            SwitchedSecret::Auto(conj),
        ] {
            let kc = chain();
            let long = kc.switch_key(which, 13);
            for nl in [3, 5, 7] {
                let fresh = chain();
                let short = fresh.switch_key(which, nl);
                assert_eq!(short.num_limbs(), nl);
                assert_eq!(
                    key_words(&fresh, &short, nl),
                    key_words(&kc, &long, nl),
                    "{which:?} at {nl} limbs"
                );
                assert_prefix_relation(&kc, &long, nl, which);
            }
        }
    }

    #[test]
    fn a_poisoned_key_cache_still_serves() {
        // A thread that panics while holding the key cache lock poisons
        // the mutex; cached keys must still read, and new and longer
        // ones insert, each a valid key.
        let ctx = CkksParams::toy().build();
        let kc = KeyChain::generate(&ctx, &mut Rng64::new(23));
        let relin = kc.relin_key(4);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = kc.switch_keys.lock().unwrap();
                panic!("a serving thread dies holding the key cache");
            })
            .join()
        });
        assert!(panicked.is_err() && kc.switch_keys.is_poisoned());
        assert!(Arc::ptr_eq(&kc.relin_key(4), &relin));
        assert_hybrid_relation(&kc, &kc.relin_key(7), SwitchedSecret::Square);
        assert_hybrid_relation(&kc, &kc.galois_key(5, 4), SwitchedSecret::Auto(5));
        use SwitchedSecret::{Auto, Square};
        assert_eq!(kc.key_limbs(), [(Square, 3, 7), (Auto(5), 3, 4)]);
    }

    /// The ternary secret's coefficients, read back from the secret
    /// key's first limb: independent of what key generation caches.
    fn secret_coeffs(kc: &KeyChain) -> Vec<i64> {
        let mut s = kc.sk.s.clone_prefix(1);
        s.to_coeff();
        let q = kc.context().primes()[0];
        s.limb(0)
            .iter()
            .map(|&r| {
                if r > q / 2 {
                    r as i64 - q as i64
                } else {
                    r as i64
                }
            })
            .collect()
    }

    /// Residues of signed coefficients modulo every limb of the
    /// extended basis `[q_0..q_{nl-1}, p_0..p_{k-1}]`, NTT-transformed
    /// per limb, as one flat limb-major buffer: the conversion key
    /// generation used to run per key, by `%` on the magnitude.
    fn ext_residues_ntt(ctx: &CkksContext, coeffs: &[i64], nl: usize, k: usize) -> Vec<u64> {
        let n = ctx.n();
        let mut out = vec![0u64; (nl + k) * n];
        for t in 0..nl + k {
            let m = ctx.ext_modulus(nl, t);
            let limb = &mut out[t * n..(t + 1) * n];
            for (dst, &c) in limb.iter_mut().zip(coeffs) {
                let r = c.unsigned_abs() % m;
                *dst = if c < 0 && r != 0 { m - r } else { r };
            }
            ctx.ext_ntt(nl, t).forward(limb);
        }
        out
    }

    /// `φ_g` on signed coefficients: `X^i ↦ ±X^{i·g mod n}`, negated
    /// where `i·g mod 2n ≥ n`.
    fn automorphism(coeffs: &[i64], g: usize) -> Vec<i64> {
        let n = coeffs.len();
        let mut out = vec![0i64; n];
        for (i, &c) in coeffs.iter().enumerate() {
            let e = (i * g) % (2 * n);
            if e < n {
                out[e] = c;
            } else {
                out[e - n] = -c;
            }
        }
        out
    }

    /// Key generation as it ran before it read `s` from the secret key:
    /// `s` and `s'` rebuilt from coefficients per key (the automorphism
    /// mapped in the coefficient domain), `a` drawn by `%`, and `b`
    /// summed coefficient by coefficient on Barrett products. The
    /// reference [`KeyChain::generate_hybrid_ksk`] is pinned to.
    fn reference_hybrid_ksk(kc: &KeyChain, which: SwitchedSecret, num_limbs: usize) -> RelinKey {
        let ctx = kc.context();
        let n = ctx.n();
        let basis = kc.hybrid_basis(num_limbs);
        let k = basis.k;
        let ext = num_limbs + k;
        let sk_coeffs = secret_coeffs(kc);
        let s_ext = ext_residues_ntt(ctx, &sk_coeffs, num_limbs, k);
        let (tag, sp_ext) = match which {
            SwitchedSecret::Square => {
                let mut sq = s_ext.clone();
                for t in 0..ext {
                    let arith = ctx.ext_arith(num_limbs, t);
                    for v in &mut sq[t * n..(t + 1) * n] {
                        *v = arith.mul(*v, *v);
                    }
                }
                (0, sq)
            }
            SwitchedSecret::Auto(g) => (
                g as u64,
                ext_residues_ntt(ctx, &automorphism(&sk_coeffs, g), num_limbs, k),
            ),
        };
        let secret_rng = kc.ksk_rng.clone().fork(tag).fork(k as u64);
        let digits = basis
            .digits
            .iter()
            .enumerate()
            .map(|(j, digit)| {
                let mut rng = secret_rng.clone().fork(j as u64);
                let mut a = vec![0u64; ext * n];
                for t in 0..ext {
                    let m = ctx.ext_modulus(num_limbs, t);
                    let mut limb_rng = rng.clone().fork(m);
                    for dst in &mut a[t * n..(t + 1) * n] {
                        *dst = limb_rng.next_u64() % m;
                    }
                }
                let sigma = ctx.sigma();
                let e_coeffs: Vec<i64> = (0..n)
                    .map(|_| (rng.next_gaussian() as f64 * sigma).round() as i64)
                    .collect();
                let e_ext = ext_residues_ntt(ctx, &e_coeffs, num_limbs, k);
                let mut b = vec![0u64; ext * n];
                for t in 0..ext {
                    let arith = ctx.ext_arith(num_limbs, t);
                    let gadget = if t >= digit.start && t < digit.end {
                        basis.p_mod[t]
                    } else {
                        0
                    };
                    for c in t * n..(t + 1) * n {
                        let neg_as = arith.sub(0, arith.mul(a[c], s_ext[c]));
                        let g_sp = arith.mul(gadget, sp_ext[c]);
                        b[c] = arith.add(arith.add(neg_as, e_ext[c]), g_sp);
                    }
                }
                HybridDigit { b, a }
            })
            .collect();
        RelinKey { digits, num_limbs }
    }

    #[test]
    fn keys_are_the_reference_generation_word_for_word() {
        // Relinearisation and Galois keys (two rotations and the
        // conjugation) on every toy limb count and on the default ring
        // at 2 and 8 limbs, at thread budgets 1 and 2.
        let toy = CkksParams::toy().build();
        let default = CkksParams::default_params().build();
        let cases = [(&toy, (1..=13).collect::<Vec<_>>()), (&default, vec![2, 8])];
        for (ctx, limb_counts) in cases {
            let kc = KeyChain::generate(ctx, &mut Rng64::new(ctx.n() as u64 + 5));
            let conj = 2 * ctx.n() - 1;
            let secrets = [
                SwitchedSecret::Square,
                SwitchedSecret::Auto(5),
                SwitchedSecret::Auto(crate::galois::rotation_element(ctx.n(), 3)),
                SwitchedSecret::Auto(conj),
            ];
            for &nl in &limb_counts {
                for which in secrets {
                    let want = reference_hybrid_ksk(&kc, which, nl);
                    for budget in [1, 2] {
                        let got =
                            par::with_thread_budget(budget, || kc.generate_hybrid_ksk(which, nl));
                        assert_eq!(got.num_limbs, nl);
                        assert_eq!(
                            key_words(&kc, &got, nl),
                            key_words(&kc, &want, nl),
                            "n {} {which:?} at {nl} limbs, budget {budget}",
                            ctx.n()
                        );
                    }
                }
            }
        }
    }

    /// [`assert_prefix_relation`] over every limb the key holds.
    fn assert_hybrid_relation(kc: &KeyChain, key: &RelinKey, which: SwitchedSecret) {
        assert_prefix_relation(kc, key, key.num_limbs(), which);
    }

    /// Checks the hybrid key relation `b + a·s − P·G_j·s' = e` limb by
    /// limb over the extended basis of `nl` chain limbs, reading `key`
    /// through its prefix: the residual must be a centered-small error
    /// in every limb.
    fn assert_prefix_relation(kc: &KeyChain, key: &RelinKey, nl: usize, which: SwitchedSecret) {
        let ctx = kc.context();
        let n = ctx.n();
        let basis = kc.hybrid_basis(nl);
        let k = basis.k;
        let ext = nl + k;
        let s_ext = ext_residues_ntt(ctx, &secret_coeffs(kc), nl, k);
        // P mod q_t, recomputed independently of keygen.
        let p_mod: Vec<u64> = (0..nl)
            .map(|t| {
                let q = ctx.primes()[t];
                ctx.special_primes()[..k].iter().fold(1 % q, |acc, &p| {
                    ((acc as u128 * (p % q) as u128) % q as u128) as u64
                })
            })
            .collect();
        // s' in NTT form, likewise: a pointwise square, or φ_g mapped
        // on the coefficients (keygen gathers the NTT form instead).
        let sp_ext: Vec<u64> = match which {
            SwitchedSecret::Square => (0..ext * n)
                .map(|i| ctx.ext_arith(nl, i / n).mul(s_ext[i], s_ext[i]))
                .collect(),
            SwitchedSecret::Auto(g) => {
                ext_residues_ntt(ctx, &automorphism(&secret_coeffs(kc), g), nl, k)
            }
        };
        for (j, range) in basis.digits.iter().enumerate() {
            for t in 0..ext {
                let [b, a] = key.component_limb(j, t, nl, n);
                let arith = ctx.ext_arith(nl, t);
                let gadget = if t >= range.start && t < range.end {
                    p_mod[t]
                } else {
                    0
                };
                let mut resid = vec![0u64; n];
                for c in 0..n {
                    let a_s = arith.mul(a[c], s_ext[t * n + c]);
                    let g_sp = arith.mul(gadget, sp_ext[t * n + c]);
                    resid[c] = arith.sub(arith.add(b[c], a_s), g_sp);
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
            assert_eq!(rk.digits.len(), nl.div_ceil(3.min(nl)));
            assert_eq!(kc.hybrid_basis(nl).k, 3.min(nl));
            assert_hybrid_relation(&kc, &rk, SwitchedSecret::Square);
        }
    }

    #[test]
    fn galois_key_gadget_relation() {
        // A rotation and the conjugation, at full and partial digits.
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(21);
        let kc = KeyChain::generate(&ctx, &mut rng);
        for g in [5, 2 * ctx.n() - 1] {
            for nl in [1, 2, 5, 13] {
                let gk = kc.galois_key(g, nl);
                assert_hybrid_relation(&kc, &gk, SwitchedSecret::Auto(g));
            }
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
