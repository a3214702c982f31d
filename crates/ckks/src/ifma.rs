//! AVX-512 IFMA arithmetic for primes below 2^50: the 52-bit Shoup
//! product, the folds and the broadcast prime constants the vector NTT
//! kernel's butterflies are made of (`ntt.rs`, "Vector kernel"), and
//! the dot kernel every sum of products runs on ([`Ifma::dot`]): the key
//! switch's base conversions and inner products, the pointwise ring
//! products (`RnsPoly::dot`: `tensor`, `mul_plain`, `decrypt`), the
//! rescale's divides and the BSGS inner sums.
//!
//! Everything here needs `avx512f` and `avx512ifma`. An [`Ifma`] value
//! is the proof that the CPU has them: [`Ifma::detect`] is the only way
//! to make one, and [`crate::NttTable`] keeps one in every table it
//! gives the vector kernel, so a loop holds one exactly when its
//! moduli's tables run that kernel.
//!
//! # The dot kernel
//!
//! Per coefficient, `Σ_i x_i·w_i` (plus an optional extra term) for
//! residues below `2^50`. Each product is below `2^100`; the 52-bit
//! multiplier adds its low 52 bits to a lane `L` (`vpmadd52luq`) and
//! its high 52 bits to a lane `H` (`vpmadd52huq`), so the sum is
//! exactly `L + 2^52·H`. Then, with `L′ = L mod 2^52` and
//! `H′ = H + ⌊L/2^52⌋`,
//!
//! `Σ ≡ shoup(L′, 1) + shoup(H′, 2^52 mod q)  (mod q)`,
//!
//! two Shoup products in `[0, 2q)` each (both factors below `2^52`),
//! whose `[0, 4q)` sum two folds make canonical: the residue
//! `PrimeArith::reduce_u128` returns for the same sum, word for word.
//! A high part is below `2^48`, so `H′ < 2^52` holds for up to
//! [`MAX_TERMS`] products per lane; a longer sum is reduced every
//! `MAX_TERMS` products and carries its residue on as the next run's
//! first term — the `u128` loop's flush at its own headroom.

use crate::cipher::{Extra, Products, Term, Weight};
use core::arch::x86_64::*;

/// Primes the kernels take: every lazy NTT value (below `4q`) then fits
/// the multiplier's 52-bit inputs, and a product of two residues is
/// below `2^100`.
pub(crate) const MAX_Q: u64 = 1 << 50;
/// The NTT's short stages work on groups of 16 coefficients.
pub(crate) const MIN_N: usize = 16;
/// Products of two residues below `2^50` one pair of `(L, H)` lanes
/// sums exactly: each adds less than `2^48` to `H`, whose total plus
/// the carry out of `L` must stay below `2^52`.
pub(crate) const MAX_TERMS: usize = 15;

/// Proof that this CPU runs `avx512f` and `avx512ifma`; made only by
/// [`Ifma::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ifma(());

impl Ifma {
    /// The proof, when the CPU reports both features.
    pub(crate) fn detect() -> Option<Self> {
        let found = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma");
        found.then_some(Ifma(()))
    }

    /// [`Products::reduce_u128`] on the 52-bit multiplier: the same
    /// words, for a modulus `q < 2^50` and residues below `2^50`.
    ///
    /// # Panics
    ///
    /// Panics if the outputs' length is not a multiple of 8, if a
    /// term, an extra product or the gather is shorter than the
    /// outputs, if a gather index is out of range, or if the sum mixes
    /// per-coefficient weights with words.
    pub(crate) fn dot<'a, const S: usize>(
        self,
        q: u64,
        out: [&mut [u64]; S],
        products: &Products<'a, S, impl Fn(usize) -> Term<'a, S>>,
    ) {
        assert!(q < MAX_Q, "dot kernel modulus {q} is not below 2^50");
        // SAFETY: an `Ifma` exists only once `detect` saw both features.
        unsafe { dot(q, out, products) }
    }
}

/// A prime's constants, broadcast.
#[derive(Clone, Copy)]
pub(crate) struct Consts {
    pub(crate) q: __m512i,
    pub(crate) two_q: __m512i,
    pub(crate) four_q: __m512i,
    /// `2^52 − q`: `x·(2^52 − q) ≡ −x·q (mod 2^52)`.
    neg_q: __m512i,
    mask52: __m512i,
}

#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn consts(q: u64) -> Consts {
    Consts {
        q: splat(q),
        two_q: splat(2 * q),
        four_q: splat(4 * q),
        neg_q: splat((1 << 52) - q),
        mask52: splat((1 << 52) - 1),
    }
}

#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn splat(x: u64) -> __m512i {
    _mm512_set1_epi64(x as i64)
}

#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn load(a: &[u64; 8]) -> __m512i {
    // SAFETY: `a` is eight readable `u64`s; the load is unaligned.
    unsafe { _mm512_loadu_epi64(a.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn store(a: &mut [u64; 8], v: __m512i) {
    // SAFETY: `a` is eight writable `u64`s; the store is unaligned.
    unsafe { _mm512_storeu_epi64(a.as_mut_ptr().cast(), v) }
}

/// `x − m` in lanes where `x >= m`, else `x`: the scalar kernels'
/// `reduce_once`/`canonical` fold (the wrapped difference of a lane
/// below `m` is the larger of the two).
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn fold(x: __m512i, m: __m512i) -> __m512i {
    _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
}

/// Under `cfg(debug_assertions)`, panics with `msg` unless every lane
/// of `v` is below `bound`.
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn debug_below(v: __m512i, bound: __m512i, msg: &str) {
    debug_assert!(_mm512_cmpge_epu64_mask(v, bound) == 0, "{msg}");
}

/// Shoup product `a·w mod q` in `[0, 2q)` for lanes `a < 2^52`, with
/// `w52 = floor(w·2^52 / q)`: the quotient estimate is the high word
/// of `a·w52`, and `a·w − q_est·q` (below `2q < 2^52`) is read off the
/// low 52 bits of the two products. With `β = 2^52`,
/// `a·w/q − floor(a·w52/β) < a/β + 1 < 2` for `a < β`.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
pub(crate) fn mul_shoup_lazy(a: __m512i, w: __m512i, w52: __m512i, c: Consts) -> __m512i {
    let zero = _mm512_setzero_si512();
    let q_est = _mm512_madd52hi_epu64(zero, a, w52);
    let r = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, a, w), q_est, c.neg_q);
    let r = _mm512_and_si512(r, c.mask52);
    debug_below(r, c.two_q, "Shoup product escaped [0, 2q)");
    r
}

/// The 52-bit Shoup companions `floor(w·2^52/q)` of 64-bit ones
/// `floor(w·2^64/q)`: the same quotient, shifted.
#[inline]
#[target_feature(enable = "avx512f")]
pub(crate) fn shoup52(w_shoup: __m512i) -> __m512i {
    _mm512_srli_epi64::<12>(w_shoup)
}

/// `floor(w·2^52/q)` for `w < q`.
fn shoup52_of(w: u64, q: u64) -> u64 {
    (((w as u128) << 52) / q as u128) as u64
}

/// One lane-sum `L + 2^52·H` of up to [`MAX_TERMS`] products.
#[derive(Clone, Copy)]
struct Acc {
    lo: __m512i,
    hi: __m512i,
}

impl Acc {
    /// The sum `x` (lanes below `2^52`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn of(x: __m512i) -> Self {
        Acc {
            lo: x,
            hi: _mm512_setzero_si512(),
        }
    }

    /// Adds `x·w` per lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mac(self, x: __m512i, w: __m512i) -> Self {
        Acc {
            lo: _mm512_madd52lo_epu64(self.lo, x, w),
            hi: _mm512_madd52hi_epu64(self.hi, x, w),
        }
    }
}

/// The reduction's constants: `2^52 mod q` and the 52-bit Shoup
/// companions of it and of 1.
#[derive(Clone, Copy)]
struct Fold52 {
    c: Consts,
    one52: __m512i,
    r52: __m512i,
    r52_52: __m512i,
}

impl Fold52 {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(q: u64) -> Self {
        let r52 = (1u64 << 52) % q;
        Fold52 {
            c: consts(q),
            one52: splat(shoup52_of(1, q)),
            r52: splat(r52),
            r52_52: splat(shoup52_of(r52, q)),
        }
    }

    /// The canonical residue of each lane's `L + 2^52·H`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn reduce(&self, acc: Acc) -> __m512i {
        let c = self.c;
        let lo = _mm512_and_si512(acc.lo, c.mask52);
        let hi = _mm512_add_epi64(acc.hi, _mm512_srli_epi64::<52>(acc.lo));
        debug_below(hi, c.mask52, "dot lane escaped 2^52 before its reduction");
        let one = _mm512_set1_epi64(1);
        let r = _mm512_add_epi64(
            mul_shoup_lazy(lo, one, self.one52, c),
            mul_shoup_lazy(hi, self.r52, self.r52_52, c),
        );
        let r = fold(fold(r, c.two_q), c.q);
        debug_below(r, c.q, "dot output is not canonical");
        r
    }
}

/// Eight words of `x` from `c` on.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_at(x: &[u64], c: usize) -> __m512i {
    load(x[c..c + 8].try_into().expect("8"))
}

/// A [`Term`] as the kernel reads it: `x`, and per output the weight's
/// words or its one word.
#[derive(Clone, Copy)]
struct Lane<const S: usize> {
    x: *const u64,
    words: [*const u64; S],
    word: [u64; S],
}

/// The body of [`Ifma::dot`].
#[target_feature(enable = "avx512f,avx512ifma")]
fn dot<'a, const S: usize>(
    q: u64,
    mut out: [&mut [u64]; S],
    products: &Products<'a, S, impl Fn(usize) -> Term<'a, S>>,
) {
    let n = out[0].len();
    assert!(n.is_multiple_of(8), "dot length {n} is not a multiple of 8");
    assert!(
        out.iter().all(|o| o.len() == n),
        "dot outputs differ in length"
    );
    let extra = products.extra;
    assert!(
        extra.iter().flatten().all(|(x, _)| x.len() >= n),
        "extra product shorter than the output"
    );
    if let Some(g) = products.gather {
        assert!(g.len() >= n, "gather shorter than the output");
        assert!(
            g[..n].iter().all(|&i| (i as usize) < n),
            "gather index out of range"
        );
    }
    let f = Fold52::new(q);
    let first_run = MAX_TERMS - usize::from(extra.iter().any(Option::is_some));
    let (mut done, mut carried) = (0, false);
    loop {
        // One run: up to `MAX_TERMS` products per lane, the carried
        // residue (or the extra products) included.
        let len = (products.terms - done).min(if carried { MAX_TERMS - 1 } else { first_run });
        let blank = Lane {
            x: std::ptr::null(),
            words: [std::ptr::null(); S],
            word: [0; S],
        };
        let mut run = [blank; MAX_TERMS];
        let mut per_coefficient = 0;
        for (k, lane) in run[..len].iter_mut().enumerate() {
            let term = (products.term)(done + k);
            assert!(term.x.len() >= n, "term shorter than the output");
            lane.x = term.x.as_ptr();
            for ((words, word), w) in lane.words.iter_mut().zip(&mut lane.word).zip(term.w) {
                match w {
                    Weight::Word(w) => *word = w,
                    Weight::Words(w) => {
                        assert!(w.len() >= n, "weights shorter than the output");
                        *words = w.as_ptr();
                        per_coefficient += 1;
                    }
                }
            }
        }
        let words = per_coefficient > 0;
        assert!(
            !words || per_coefficient == len * S,
            "a sum weighs every product by words or every one by a word"
        );
        let (run, out, first) = (&run[..len], &mut out, (!carried).then_some(extra));
        // SAFETY: every lane's `x` and weight words hold at least `n`
        // words, and the gather's first `n` indices are below `n` (all
        // asserted above).
        unsafe {
            match (products.gather, words) {
                (Some(g), true) => runs::<S, true, true>(run, out, first, g, &f),
                (Some(g), false) => runs::<S, true, false>(run, out, first, g, &f),
                (None, true) => runs::<S, false, true>(run, out, first, &[], &f),
                (None, false) => runs::<S, false, false>(run, out, first, &[], &f),
            }
        }
        done += len;
        carried = true;
        if done == products.terms {
            return;
        }
    }
}

/// One run of [`dot`] over every 8 coefficients of `out`: each lane's
/// products, plus `first`'s extra products on the first run or the
/// residue `out` already holds on a later one, reduced into `out`.
/// With `GATHER` every `x` is read at `gather[c]`, and with `WORDS`
/// every weight is a lane's `words`, else its `word`.
///
/// # Safety
///
/// The CPU runs `avx512f` and `avx512ifma`; every lane's `x` (and with
/// `WORDS` its `words`) holds at least `out[s].len()` words, and with
/// `GATHER` the first `out[s].len()` indices of `gather` are below that.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn runs<const S: usize, const GATHER: bool, const WORDS: bool>(
    run: &[Lane<S>],
    out: &mut [&mut [u64]; S],
    first: Option<[Extra<'_>; S]>,
    gather: &[u32],
    f: &Fold52,
) {
    let zero = Acc::of(_mm512_setzero_si512());
    for c in (0..out[0].len()).step_by(8) {
        let mut acc: [Acc; S] = std::array::from_fn(|s| match first {
            None => Acc::of(load_at(out[s], c)),
            Some(extra) => match extra[s] {
                Some((x, w)) => zero.mac(load_at(x, c), splat(w)),
                None => zero,
            },
        });
        // SAFETY (all loads below): `c + 8` is at most the length every
        // lane holds, and a gathered index is below it; loads are
        // unaligned.
        let at = if GATHER {
            unsafe { _mm256_loadu_si256(gather.as_ptr().add(c).cast()) }
        } else {
            _mm256_setzero_si256()
        };
        for lane in run {
            let x = if GATHER {
                unsafe { _mm512_i32gather_epi64::<8>(at, lane.x.cast()) }
            } else {
                unsafe { _mm512_loadu_epi64(lane.x.add(c).cast()) }
            };
            for ((acc, words), word) in acc.iter_mut().zip(lane.words).zip(lane.word) {
                let w = if WORDS {
                    unsafe { _mm512_loadu_epi64(words.add(c).cast()) }
                } else {
                    splat(word)
                };
                *acc = acc.mac(x, w);
            }
        }
        for (out, acc) in out.iter_mut().zip(acc) {
            store((&mut out[c..c + 8]).try_into().expect("8"), f.reduce(acc));
        }
    }
}
