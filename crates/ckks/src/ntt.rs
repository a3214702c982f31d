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
//!
//! # Vector kernel
//!
//! A table for a prime `q < 2^50` and `n >= 16` runs the same lazy
//! butterflies eight coefficients at a time on AVX-512 IFMA, when the
//! CPU reports `avx512f` and `avx512ifma`, from the Shoup product and
//! folds of [`crate::ifma`]. [`NttTable::new`] makes that choice once
//! per table, from the CPU, the prime width and `n` alone; nothing else
//! selects a kernel, and [`NttTable::kernel`] names the one a table
//! runs. Every other table — a prime from `2^50` up (the 60-bit base
//! and special primes of `paper_scale`), any table on a CPU without
//! IFMA, and `n < 16` — runs the scalar kernel. The same choice decides
//! the key switch's inner products: a vector table holds the proof of
//! IFMA that the dot kernel needs ([`NttTable`]'s `ifma`).
//!
//! - **Why `2^50`.** The 52-bit multiplier (`vpmadd52huq` /
//!   `vpmadd52luq`) reads the low 52 bits of its inputs. Every lazy
//!   value is below `4q`, so `q < 2^50` keeps it below `2^52`, and
//!   with `β = 2^52` Shoup's bound still puts each product in
//!   `[0, 2q)`: `a·w/q − floor(a·w′/β) < a/β + 1 < 2` for `a < β`.
//! - **No second table.** The 52-bit Shoup companion
//!   `w′ = floor(w·2^52/q)` is the stored 64-bit one shifted right by
//!   12, `floor(floor(w·2^64/q)/2^12)`; the kernel derives it with one
//!   shift per twiddle load.
//! - **Stages.** A stage whose blocks hold `t >= 8` coefficients per
//!   half broadcasts one twiddle per block. The three short stages
//!   (`t = 4, 2, 1`) run together on each group of 16 coefficients
//!   held in two registers, regrouping the halves with lane permutes
//!   between stages and spreading consecutive twiddles across lanes.
//!   The forward's last stage normalizes to `[0, q)` and the
//!   inverse's `n⁻¹` scaling is a vector sweep, as in the scalar
//!   kernel.
//! - **Bit identity.** Both kernels compute the same butterflies on
//!   representatives of the same residues; a lazy value of the vector
//!   kernel differs from the scalar one by at most a multiple of `q`
//!   (its quotient estimate may differ by one), and both fold their
//!   output to the canonical residue. So the two return the same
//!   words (`vector_kernel_matches_the_scalar_kernel_word_for_word`),
//!   and every ciphertext, key and digest keeps its bytes. Under
//!   `cfg(debug_assertions)` every lane is held to the scalar kernel's
//!   lazy bounds, with the same messages.

#[cfg(target_arch = "x86_64")]
use crate::ifma::{self, Ifma};
use crate::modular::{add_mod, inv_mod, mul_mod, primitive_root_2n, sub_mod, PrimeArith};

/// Which butterfly kernel a table runs; fixed by [`NttTable::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// `PrimeArith` butterflies, one coefficient at a time.
    Scalar,
    /// The AVX-512 IFMA butterflies of [`vector`], eight at a time.
    #[cfg(target_arch = "x86_64")]
    Ifma(Ifma),
}

impl Kernel {
    /// The vector kernel for a prime and ring it can take, on a CPU
    /// that reports the instructions it needs; otherwise the scalar
    /// kernel.
    fn choose(q: u64, n: usize) -> Self {
        #[cfg(target_arch = "x86_64")]
        if q < ifma::MAX_Q && n >= ifma::MIN_N {
            if let Some(ifma) = Ifma::detect() {
                return Kernel::Ifma(ifma);
            }
        }
        Kernel::Scalar
    }
}

/// Precomputed NTT tables for one prime.
#[derive(Debug, Clone)]
pub struct NttTable {
    /// The prime modulus.
    pub q: u64,
    n: usize,
    arith: PrimeArith,
    kernel: Kernel,
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
    /// a hardware division. Also picks the table's kernel (see the
    /// module's "Vector kernel").
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
            kernel: Kernel::choose(q, n),
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

    /// The kernel this table's transforms run: `"avx512ifma"` or
    /// `"scalar"`. Both return the same words.
    pub fn kernel(&self) -> &'static str {
        match self.kernel {
            Kernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(_) => "avx512ifma",
        }
    }

    /// The proof of IFMA this table's vector kernel holds, `None` for a
    /// scalar table: what decides whether a key-switch loop over this
    /// modulus runs on [`Ifma::dot`].
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn ifma(&self) -> Option<Ifma> {
        match self.kernel {
            Kernel::Ifma(ifma) => Some(ifma),
            Kernel::Scalar => None,
        }
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
        self.count_pass(a);
        #[cfg(target_arch = "x86_64")]
        if let Kernel::Ifma(_) = self.kernel {
            // SAFETY: the kernel holds an `Ifma`, which exists only
            // once both `avx512f` and `avx512ifma` were detected.
            return unsafe { vector::forward(self, a) };
        }
        self.forward_scalar(a);
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
        self.count_pass(a);
        #[cfg(target_arch = "x86_64")]
        if let Kernel::Ifma(_) = self.kernel {
            // SAFETY: as in `forward`.
            return unsafe { vector::inverse(self, a) };
        }
        self.inverse_scalar(a);
    }

    /// Checks a pass's input length, and counts the pass under test.
    fn count_pass(&self, a: &[u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        #[cfg(test)]
        NTT_PASSES.with(|c| c.set(c.get() + 1));
    }

    /// The scalar forward kernel: the only one for primes from 2^50
    /// up, and the reference the vector kernel is tested against.
    pub(crate) fn forward_scalar(&self, a: &mut [u64]) {
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

    /// The scalar inverse kernel.
    pub(crate) fn inverse_scalar(&self, a: &mut [u64]) {
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

/// The AVX-512 IFMA kernel: the scalar kernel's butterflies on eight
/// coefficients per instruction, for primes below [`ifma::MAX_Q`]
/// (see the module's "Vector kernel"), built from [`crate::ifma`]'s
/// Shoup product and folds. `forward` and `inverse` are the entry
/// points, and calling them needs the CPU features an [`Ifma`] proves;
/// the helpers below inline into them.
#[cfg(target_arch = "x86_64")]
mod vector {
    use super::NttTable;
    use crate::ifma::{consts, debug_below, fold, load, mul_shoup_lazy, shoup52, store, Consts};
    use core::arch::x86_64::*;

    // Lane indices for `_mm512_permutex2var_epi64` over two registers
    // holding a group of 16 coefficients (lanes 0..8 of the first,
    // 8..16 of the second); each pair lists the lanes of the first and
    // of the second output register. Between the short stages they move
    // the coefficients from one stage's butterfly halves (`lo`, `hi`)
    // to the next one's. The first three are their own inverses, so the
    // inverse transform runs them in the opposite order.
    /// Natural order ↔ halves of the `t = 4` stage.
    const NAT_T4: ([u64; 8], [u64; 8]) = ([0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 12, 13, 14, 15]);
    /// Halves of `t = 4` ↔ halves of `t = 2`.
    const T4_T2: ([u64; 8], [u64; 8]) = ([0, 1, 8, 9, 4, 5, 12, 13], [2, 3, 10, 11, 6, 7, 14, 15]);
    /// Halves of `t = 2` ↔ halves of `t = 1`.
    const T2_T1: ([u64; 8], [u64; 8]) = ([0, 8, 2, 10, 4, 12, 6, 14], [1, 9, 3, 11, 5, 13, 7, 15]);
    /// Halves of `t = 1` → natural order.
    const T1_NAT: ([u64; 8], [u64; 8]) = ([0, 8, 1, 9, 2, 10, 3, 11], [4, 12, 5, 13, 6, 14, 7, 15]);
    /// Natural order → halves of `t = 1`.
    const NAT_T1: ([u64; 8], [u64; 8]) = ([0, 2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9, 11, 13, 15]);
    /// Twiddle spreads: lane `j` of a `t = 4` / `t = 2` / `t = 1` half
    /// belongs to block `j / 4` / `j / 2` / `j` of its group.
    const SPREAD_T4: [u64; 8] = [0, 0, 0, 0, 1, 1, 1, 1];
    const SPREAD_T2: [u64; 8] = [0, 0, 1, 1, 2, 2, 3, 3];
    const LANES: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    /// Regroups the 16 lanes of `a` and `b` by `lanes`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn regroup((a, b): (__m512i, __m512i), lanes: ([u64; 8], [u64; 8])) -> (__m512i, __m512i) {
        (
            _mm512_permutex2var_epi64(a, load(&lanes.0), b),
            _mm512_permutex2var_epi64(a, load(&lanes.1), b),
        )
    }

    /// The first (at most 8) words of `w`, lane `j` holding
    /// `w[spread[j]]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_spread(w: &[u64], spread: __m512i) -> __m512i {
        let mask = ((1u16 << w.len().min(8)) - 1) as u8;
        // SAFETY: the mask enables the first `min(w.len(), 8)` lanes
        // only, and a masked-off lane is neither read nor able to fault.
        let v = unsafe { _mm512_maskz_loadu_epi64(mask, w.as_ptr().cast()) };
        _mm512_permutexvar_epi64(spread, v)
    }

    /// Cooley-Tukey butterfly on lazy `[0, 4q)` halves: outputs in
    /// `[0, 4q)`, or canonical when `last`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn forward_butterfly(
        (x, y): (__m512i, __m512i),
        (w, w52): (__m512i, __m512i),
        c: Consts,
        last: bool,
    ) -> (__m512i, __m512i) {
        debug_below(x, c.four_q, "lazy representative escaped [0, 4q)");
        debug_below(y, c.four_q, "lazy representative escaped [0, 4q)");
        let u = fold(x, c.two_q);
        let v = mul_shoup_lazy(y, w, w52, c);
        let x = _mm512_add_epi64(u, v);
        let y = _mm512_sub_epi64(_mm512_add_epi64(u, c.two_q), v);
        debug_below(x, c.four_q, "lazy representative escaped [0, 4q)");
        debug_below(y, c.four_q, "lazy representative escaped [0, 4q)");
        if last {
            (fold(fold(x, c.two_q), c.q), fold(fold(y, c.two_q), c.q))
        } else {
            (x, y)
        }
    }

    /// Gentleman-Sande butterfly on lazy `[0, 2q)` halves: outputs in
    /// `[0, 2q)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn inverse_butterfly(
        (x, y): (__m512i, __m512i),
        (w, w52): (__m512i, __m512i),
        c: Consts,
    ) -> (__m512i, __m512i) {
        debug_below(x, c.two_q, "lazy representative escaped [0, 2q)");
        debug_below(y, c.two_q, "lazy representative escaped [0, 2q)");
        let sum = fold(_mm512_add_epi64(x, y), c.two_q);
        debug_below(sum, c.two_q, "lazy representative escaped [0, 2q)");
        let diff = _mm512_sub_epi64(_mm512_add_epi64(x, c.two_q), y);
        (sum, mul_shoup_lazy(diff, w, w52, c))
    }

    /// Twiddles `w[at]` and their 52-bit Shoup companions, from the
    /// 64-bit ones in `w_shoup[at]`, lane `j` holding entry `spread[j]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn twiddles(
        (w, w_shoup): (&[u64], &[u64]),
        at: std::ops::Range<usize>,
        spread: __m512i,
    ) -> (__m512i, __m512i) {
        let w52 = shoup52(load_spread(&w_shoup[at.clone()], spread));
        (load_spread(&w[at], spread), w52)
    }

    /// One `t >= 8` stage: block `i` of `2t` coefficients pairs its
    /// halves under twiddle `w[i]`, whose 64-bit Shoup companion is
    /// `w_shoup[i]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn wide_stage(
        a: &mut [u64],
        t: usize,
        (w, w_shoup): (&[u64], &[u64]),
        butterfly: impl Fn((__m512i, __m512i), (__m512i, __m512i)) -> (__m512i, __m512i),
    ) {
        for ((block, &w), &ws) in a.chunks_exact_mut(2 * t).zip(w).zip(w_shoup) {
            let (lo, hi) = block.split_at_mut(t);
            let tw = (
                _mm512_set1_epi64(w as i64),
                shoup52(_mm512_set1_epi64(ws as i64)),
            );
            for (x, y) in lo
                .as_chunks_mut::<8>()
                .0
                .iter_mut()
                .zip(hi.as_chunks_mut::<8>().0)
            {
                let (u, v) = butterfly((load(x), load(y)), tw);
                store(x, u);
                store(y, v);
            }
        }
    }

    /// The three short stages (`t = 4, 2, 1`, either order) of group
    /// `g`: the 16 coefficients `a[16g..16g + 16]`, loaded once into two
    /// registers that `stage` regroups and transforms.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn short_stages(
        a: &mut [u64],
        stage: impl Fn(usize, (__m512i, __m512i)) -> (__m512i, __m512i),
    ) {
        for (g, group) in a.as_chunks_mut::<16>().0.iter_mut().enumerate() {
            let (lo, hi) = group.split_at_mut(8);
            let (lo, hi): (&mut [u64; 8], &mut [u64; 8]) =
                (lo.try_into().expect("8"), hi.try_into().expect("8"));
            let (x, y) = stage(g, (load(lo), load(hi)));
            store(lo, x);
            store(hi, y);
        }
    }

    /// Forward transform of `a` with `t`'s tables.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn forward(t: &NttTable, a: &mut [u64]) {
        let n = t.n;
        let c = consts(t.q);
        let psi = (&t.psi_brv[..], &t.psi_brv_shoup[..]);
        let (mut half, mut m) = (n / 2, 1);
        while half >= 8 {
            let tables = (&psi.0[m..2 * m], &psi.1[m..2 * m]);
            wide_stage(a, half, tables, |xy, tw| {
                forward_butterfly(xy, tw, c, false)
            });
            (half, m) = (half / 2, m * 2);
        }
        // Group g holds blocks 2g.. of t = 4, 4g.. of t = 2 and 8g.. of
        // t = 1, whose twiddles start at n/8, n/4 and n/2.
        let (spread4, spread2, lanes) = (load(&SPREAD_T4), load(&SPREAD_T2), load(&LANES));
        short_stages(a, |g, v| {
            let tw = twiddles(psi, n / 8 + 2 * g..n / 8 + 2 * g + 2, spread4);
            let (x, y) = forward_butterfly(regroup(v, NAT_T4), tw, c, false);
            let tw = twiddles(psi, n / 4 + 4 * g..n / 4 + 4 * g + 4, spread2);
            let (x, y) = forward_butterfly(regroup((x, y), T4_T2), tw, c, false);
            let tw = twiddles(psi, n / 2 + 8 * g..n / 2 + 8 * g + 8, lanes);
            let (x, y) = forward_butterfly(regroup((x, y), T2_T1), tw, c, true);
            regroup((x, y), T1_NAT)
        });
    }

    /// Inverse transform of `a` with `t`'s tables.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn inverse(t: &NttTable, a: &mut [u64]) {
        let n = t.n;
        let c = consts(t.q);
        let ipsi = (&t.ipsi_brv[..], &t.ipsi_brv_shoup[..]);
        // Group g holds blocks 8g.. of t = 1, 4g.. of t = 2 and 2g.. of
        // t = 4, whose twiddles start at n/2, n/4 and n/8.
        let (spread4, spread2, lanes) = (load(&SPREAD_T4), load(&SPREAD_T2), load(&LANES));
        short_stages(a, |g, v| {
            let tw = twiddles(ipsi, n / 2 + 8 * g..n / 2 + 8 * g + 8, lanes);
            let (x, y) = inverse_butterfly(regroup(v, NAT_T1), tw, c);
            let tw = twiddles(ipsi, n / 4 + 4 * g..n / 4 + 4 * g + 4, spread2);
            let (x, y) = inverse_butterfly(regroup((x, y), T2_T1), tw, c);
            let tw = twiddles(ipsi, n / 8 + 2 * g..n / 8 + 2 * g + 2, spread4);
            let (x, y) = inverse_butterfly(regroup((x, y), T4_T2), tw, c);
            regroup((x, y), NAT_T4)
        });
        let (mut half, mut h) = (8, n / 16);
        while h >= 1 {
            let tables = (&ipsi.0[h..2 * h], &ipsi.1[h..2 * h]);
            wide_stage(a, half, tables, |xy, tw| inverse_butterfly(xy, tw, c));
            (half, h) = (half * 2, h / 2);
        }
        let n_inv = _mm512_set1_epi64(t.n_inv as i64);
        let n_inv52 = shoup52(_mm512_set1_epi64(t.n_inv_shoup as i64));
        for x in a.as_chunks_mut::<8>().0 {
            let v = load(x);
            debug_below(v, c.two_q, "lazy representative escaped [0, 2q)");
            store(x, fold(mul_shoup_lazy(v, n_inv, n_inv52, c), c.q));
        }
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

    /// The inputs each kernel case runs on: uniform residues, all
    /// zero, and all `q − 1` (the largest lazy values).
    fn kernel_inputs(q: u64, n: usize, rng: &mut smartpaf_tensor::Rng64) -> [Vec<u64>; 3] {
        [
            (0..n).map(|_| rng.next_u64() % q).collect(),
            vec![0; n],
            vec![q - 1; n],
        ]
    }

    #[test]
    fn vector_kernel_matches_the_scalar_kernel_word_for_word() {
        let mut rng = smartpaf_tensor::Rng64::new(0x1F3A_0052);
        let mut vector_tables = 0;
        // 30 to 50 bits: `ntt_primes(50, ..)` is the widest prime the
        // vector kernel takes (below 2^50), where its lazy values come
        // closest to the multiplier's 52 bits.
        for bits in [30u32, 40, 49, 50] {
            for log_n in 4..=13 {
                let n = 1usize << log_n;
                let t = NttTable::new(ntt_primes(bits, 1, n)[0], n);
                if t.kernel() != "scalar" {
                    vector_tables += 1;
                }
                for input in kernel_inputs(t.q, n, &mut rng) {
                    let (mut got, mut want) = (input.clone(), input.clone());
                    t.forward(&mut got);
                    t.forward_scalar(&mut want);
                    assert_eq!(
                        got,
                        want,
                        "forward: {} kernel, {bits}-bit q, n={n}",
                        t.kernel()
                    );
                    let (mut got, mut want) = (input.clone(), input);
                    t.inverse(&mut got);
                    t.inverse_scalar(&mut want);
                    assert_eq!(
                        got,
                        want,
                        "inverse: {} kernel, {bits}-bit q, n={n}",
                        t.kernel()
                    );
                }
            }
        }
        if vector_tables == 0 {
            println!(
                "this CPU does not report avx512f + avx512ifma: \
                 the scalar kernel was compared with itself"
            );
        } else {
            println!(
                "compared the avx512ifma kernel with the scalar kernel on {vector_tables} tables"
            );
        }
    }

    #[test]
    fn wide_primes_and_short_rings_take_the_scalar_kernel() {
        for n in [2usize, 4, 8] {
            assert_eq!(table(n).kernel(), "scalar", "n={n}");
        }
        for n in [16usize, 4096] {
            let t = NttTable::new(ntt_primes(60, 1, n)[0], n);
            assert_eq!(t.kernel(), "scalar", "60-bit prime, n={n}");
        }
        #[cfg(target_arch = "x86_64")]
        {
            let vector = if Ifma::detect().is_some() {
                "avx512ifma"
            } else {
                "scalar"
            };
            assert_eq!(table(16).kernel(), vector);
            let t = NttTable::new(ntt_primes(50, 1, 4096)[0], 4096);
            assert_eq!(t.kernel(), vector, "largest prime below 2^50");
            let t = NttTable::new(ntt_primes(51, 1, 4096)[0], 4096);
            assert_eq!(t.kernel(), "scalar", "51-bit prime");
        }
    }
}
