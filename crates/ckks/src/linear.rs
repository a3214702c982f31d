//! Encrypted linear algebra: plaintext matrix × ciphertext vector via
//! the Halevi–Shoup diagonal method, with a baby-step/giant-step
//! variant.
//!
//! The baby-step size of a BSGS product is not `⌈√dim⌉`: it is the
//! split with the fewest rotations, then the fewest key-switch
//! decompositions, then the smallest size, searched over every size
//! from 1 to `dim` on the matrix's nonzero diagonal offsets
//! ([`DiagMatrix::bsgs_counts`]). A dense matrix lands near `√dim`
//! either way; a block-diagonal expansion
//! ([`DiagMatrix::block_diag`]), whose diagonals sit in two narrow
//! bands at the two ends of `[0, dim)`, takes a split sized to its
//! bands instead — at 32 lanes the benchmark CNN's linear head takes
//! 22 rotations where `⌈√dim⌉` took 48. Fewest rotations is also
//! fewest Galois keys.
//!
//! This is the substrate that turns the paper's Fig. 2 into a runnable
//! pipeline: convolutions, average pooling and fully-connected layers
//! are all plaintext-weight affine maps applied to an encrypted
//! activation vector, and only the PAF activations consume multiplicative
//! depth beyond the one plaintext-multiply level per affine stage.
//!
//! Packing convention: a length-`m` vector (`m` a power of two dividing
//! the slot count) is **replicated** to fill all `n/2` slots, so full-ring
//! rotations act as cyclic rotations of the logical vector
//! ([`replicate`], [`Evaluator::encrypt_replicated`]).

use crate::cipher::{Ciphertext, Evaluator};
use crate::encoding::Plaintext;
use smartpaf_tensor::Rng64;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key for an encoded diagonal: (diagonal offset, plaintext
/// pre-rotation shift, slot count, scale bits). The limb count is NOT
/// part of the key — an entry holds its diagonal on the most limbs any
/// caller has asked for, and `mul_plain` reads it through a limb prefix
/// at every level at or below that.
type DiagKey = (usize, usize, usize, u64);

/// A real matrix stored by its nonzero generalized diagonals, padded to
/// a power-of-two square dimension.
///
/// Generalized diagonal `d` holds `diag_d[i] = M[i][(i+d) mod dim]`, so
/// `(Mv)[i] = Σ_d diag_d[i] · v[(i+d) mod dim]` — each term is one slot
/// rotation plus one plaintext multiply under CKKS.
///
/// Encoded diagonal plaintexts are cached inside the matrix after
/// first use, on the limbs of the ciphertext that asked, so a matrix
/// applied across many ciphertexts — the steady state of every
/// encrypted inference pipeline — pays encoding cost only on its first
/// application, and holds no limb its products never read. A later
/// application on more limbs re-encodes and replaces the entry; one on
/// fewer reads the entry through its prefix. The cache grows and never
/// shrinks, so a matrix used at several levels holds each diagonal on
/// the highest of them.
///
/// The BSGS split depends only on the diagonal offsets, so it is chosen
/// once, when they are fixed (the constructors and
/// [`DiagMatrix::block_diag`]), and every product reads it.
#[derive(Debug)]
pub struct DiagMatrix {
    dim: usize,
    out_dim: usize,
    in_dim: usize,
    diags: BTreeMap<usize, Vec<f64>>,
    /// Baby-step size of [`Evaluator::matvec_bsgs`]
    /// ([`fewest_rotation_split`] of the diagonal offsets).
    g1: usize,
    encoded: Mutex<HashMap<DiagKey, Arc<Plaintext>>>,
}

impl Clone for DiagMatrix {
    /// Clones the matrix data; the encoded-plaintext cache starts
    /// empty (entries are cheap to regenerate and usually belong to a
    /// different scale after [`DiagMatrix::scaled`]).
    fn clone(&self) -> Self {
        DiagMatrix {
            dim: self.dim,
            out_dim: self.out_dim,
            in_dim: self.in_dim,
            diags: self.diags.clone(),
            g1: self.g1,
            encoded: Mutex::new(HashMap::new()),
        }
    }
}

impl DiagMatrix {
    /// Builds from dense rows (`rows[i][j] = M[i][j]`), zero-padding to
    /// the next power of two of `max(rows, cols)`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let min_dim = rows.first().map_or(0, |r| r.len().max(rows.len()));
        Self::from_rows_with_dim(rows, min_dim.next_power_of_two())
    }

    /// Builds from dense rows padded to an explicit square dimension
    /// (used when several pipeline stages must share one slot layout).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged, `dim` is not a power of
    /// two, or `dim` is smaller than the matrix.
    pub fn from_rows_with_dim(rows: &[Vec<f64>], dim: usize) -> Self {
        assert!(!rows.is_empty(), "empty matrix");
        let in_dim = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == in_dim), "ragged matrix rows");
        assert!(in_dim > 0, "empty matrix rows");
        let out_dim = rows.len();
        assert!(dim.is_power_of_two(), "dim must be a power of two");
        assert!(dim >= out_dim.max(in_dim), "dim smaller than matrix");
        let mut diags: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                let d = (j + dim - i % dim) % dim;
                diags.entry(d).or_insert_with(|| vec![0.0; dim])[i] = v;
            }
        }
        Self::with_diagonals(dim, out_dim, in_dim, diags)
    }

    /// The matrix with these diagonals, its BSGS split chosen from
    /// their offsets.
    fn with_diagonals(
        dim: usize,
        out_dim: usize,
        in_dim: usize,
        diags: BTreeMap<usize, Vec<f64>>,
    ) -> Self {
        let offsets: Vec<usize> = diags.keys().copied().collect();
        DiagMatrix {
            dim,
            out_dim,
            in_dim,
            g1: fewest_rotation_split(&offsets),
            diags,
            encoded: Mutex::new(HashMap::new()),
        }
    }

    /// The identity on `dim` slots (`dim` rounded up to a power of two).
    pub fn identity(dim: usize) -> Self {
        Self::rotation(dim.next_power_of_two(), 0)
    }

    /// The cyclic left rotation by `step` on `dim` slots,
    /// `(Rv)[i] = v[(i + step) mod dim]`: one all-ones diagonal. Under
    /// CKKS this is the one matrix that needs no plaintext multiply and
    /// no level — a bare [`Evaluator::rotate`] — and
    /// [`DiagMatrix::as_rotation`] is how an executor recognises it.
    ///
    /// # Panics
    ///
    /// Panics unless `dim` is a power of two.
    pub fn rotation(dim: usize, step: usize) -> Self {
        assert!(dim.is_power_of_two(), "dim must be a power of two");
        let mut diags = BTreeMap::new();
        diags.insert(step % dim, vec![1.0; dim]);
        Self::with_diagonals(dim, dim, dim, diags)
    }

    /// The step of the cyclic rotation this matrix is, if it is one
    /// ([`DiagMatrix::rotation`]; the identity is the rotation by 0).
    pub fn as_rotation(&self) -> Option<usize> {
        let mut diags = self.diags.iter();
        match (diags.next(), diags.next()) {
            (Some((&step, diag)), None) if diag.iter().all(|&v| v == 1.0) => Some(step),
            _ => None,
        }
    }

    /// Padded square dimension (power of two).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Logical output dimension before padding.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Logical input dimension before padding.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of nonzero generalized diagonals (the naive method's
    /// rotation count).
    pub fn num_diagonals(&self) -> usize {
        self.diags.len()
    }

    /// The stored generalized diagonals as `(offset, entries)` pairs in
    /// ascending offset order. Deterministic (the storage is a
    /// `BTreeMap`), which is what lets content digests of probed
    /// matrices be stable across processes.
    pub fn diagonals(&self) -> impl Iterator<Item = (usize, &[f64])> {
        self.diags.iter().map(|(&d, v)| (d, v.as_slice()))
    }

    /// Plaintext reference product on a padded vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn apply_plain(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.dim, "vector length mismatch");
        let mut out = vec![0.0; self.dim];
        for (&d, diag) in &self.diags {
            for (i, o) in out.iter_mut().enumerate() {
                *o += diag[i] * v[(i + d) % self.dim];
            }
        }
        out
    }

    /// Returns a copy with every entry multiplied by `factor`
    /// (plaintext scale folding — see the heinfer crate).
    pub fn scaled(&self, factor: f64) -> Self {
        let mut out = self.clone();
        if factor == 1.0 {
            return out;
        }
        for diag in out.diags.values_mut() {
            for v in diag.iter_mut() {
                *v *= factor;
            }
        }
        out
    }

    /// The encoding cache. A serving thread that panicked while
    /// holding the lock poisons it, but the map is insert-only and an
    /// entry is complete before it goes in, so the data is valid at
    /// every step and the guard is recovered: one request's panic must
    /// not fail every later `matvec_bsgs` on this matrix.
    fn encoded(&self) -> MutexGuard<'_, HashMap<DiagKey, Arc<Plaintext>>> {
        self.encoded.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The limb count of each encoded diagonal plaintext currently
    /// cached, ascending (diagnostics; its `len()` is the number of
    /// entries — see the caching tests).
    pub fn encoded_limbs(&self) -> Vec<usize> {
        let mut limbs: Vec<usize> = self
            .encoded()
            .values()
            .map(|pt| pt.poly.num_limbs())
            .collect();
        limbs.sort_unstable();
        limbs
    }

    /// Returns the encoded plaintext for generalized diagonal `d`
    /// pre-rotated right by `shift` slots on at least `num_limbs`
    /// limbs, encoding on first use.
    ///
    /// Encodes on the `num_limbs` limbs of the asking ciphertext, not
    /// the full chain. Per-limb residues are computed independently, so
    /// the first `k` limbs of any encoding are the bytes of a `k`-limb
    /// one: an entry on more limbs than asked serves through its prefix
    /// (`mul_plain` reads it so), and an entry on fewer is re-encoded
    /// and replaced.
    fn encoded_diag(
        &self,
        ev: &Evaluator,
        d: usize,
        shift: usize,
        num_limbs: usize,
    ) -> Arc<Plaintext> {
        let slots = ev.context().slots();
        let scale = ev.context().scale();
        let key = (d, shift, slots, scale.to_bits());
        if let Some(pt) = self.encoded().get(&key) {
            if pt.poly.num_limbs() >= num_limbs {
                return Arc::clone(pt);
            }
        }
        let diag = &self.diags[&d];
        let tiled = replicate(diag, slots);
        let pre = if shift == 0 {
            tiled
        } else {
            let mut pre = vec![0.0; slots];
            for (s, p) in pre.iter_mut().enumerate() {
                *p = tiled[(s + slots - shift) % slots];
            }
            pre
        };
        let pt = Arc::new(ev.encoder().encode(&pre, scale, num_limbs));
        let mut cache = self.encoded();
        let entry = cache.entry(key).or_insert_with(|| Arc::clone(&pt));
        if entry.poly.num_limbs() < num_limbs {
            *entry = pt;
        }
        Arc::clone(entry)
    }

    /// Replicates the matrix block-diagonally across `lanes` lanes: the
    /// result is the `(lanes·dim) × (lanes·dim)` map that applies this
    /// matrix independently to each length-`dim` lane of a
    /// lane-concatenated vector — the slot-packing transform that lets
    /// one ciphertext carry `lanes` activations at stride `dim`.
    ///
    /// Each stored generalized diagonal `d` splits into at most two
    /// expanded diagonals: the in-lane part keeps offset `d` (entries
    /// `i < dim − d`), and the wrap-around part moves to offset
    /// `(lanes−1)·dim + d` (entries `i ≥ dim − d`), so a lane's cyclic
    /// indexing never reads a neighbouring lane's slots. Applied plain,
    /// each lane of the expanded product is **bit-identical** to
    /// [`DiagMatrix::apply_plain`] on that lane alone: per output slot
    /// the nonzero terms arrive in the same ascending-`d` order (the
    /// in-lane offsets are exactly the ascending prefix with
    /// `d < dim − i`), and the extra structural-zero terms add `±0.0`
    /// to a never-negative-zero accumulator.
    ///
    /// The encoded-plaintext cache starts empty (the expanded
    /// diagonals tile differently across slots), and the BSGS split is
    /// chosen anew for the expanded offsets — the one
    /// [`DiagMatrix::bsgs_counts`]`(lanes)` prices.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two.
    pub fn block_diag(&self, lanes: usize) -> DiagMatrix {
        assert!(lanes.is_power_of_two(), "lanes must be a power of two");
        if lanes == 1 {
            return self.clone();
        }
        let dim = self.dim * lanes;
        let mut diags: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&d, diag) in &self.diags {
            // Entries i < split stay in-lane at offset d; entries
            // i ≥ split would cross into the next lane, so they move to
            // the wrap offset (lanes−1)·dim + d, which steps back one
            // lane cyclically. The two offset ranges are disjoint, so
            // distinct source diagonals never collide.
            let split = self.dim - d;
            let in_lane = diags.entry(d).or_insert_with(|| vec![0.0; dim]);
            for l in 0..lanes {
                in_lane[l * self.dim..l * self.dim + split].copy_from_slice(&diag[..split]);
            }
            if d > 0 {
                let wrap = diags
                    .entry((lanes - 1) * self.dim + d)
                    .or_insert_with(|| vec![0.0; dim]);
                for l in 0..lanes {
                    wrap[l * self.dim + split..(l + 1) * self.dim].copy_from_slice(&diag[split..]);
                }
            }
        }
        Self::with_diagonals(
            dim,
            (lanes - 1) * self.dim + self.out_dim,
            (lanes - 1) * self.dim + self.in_dim,
            diags,
        )
    }

    /// Exact key-switch work of [`Evaluator::matvec_bsgs`] on
    /// [`DiagMatrix::block_diag`]`(lanes)`: one rotation per distinct
    /// nonzero baby step `d mod g1`, plus one per nonempty giant group
    /// `k ≥ 1` (rotation by zero is a clone, not a key switch), at the
    /// split the expansion executes — the fewest rotations, then the
    /// fewest decompositions, then the smallest `g1` (module docs). It
    /// is computed from the diagonal offsets alone — source diagonal
    /// `d` keeps offset `d` and, when `d > 0`, adds `(lanes−1)·dim + d`
    /// — so lane planners price each candidate lane count without
    /// materializing the expanded matrix, in `O(lanes·dim · diagonals)`
    /// integer work.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two.
    pub fn bsgs_counts(&self, lanes: usize) -> BsgsCounts {
        assert!(lanes.is_power_of_two(), "lanes must be a power of two");
        // In-lane offsets are below `dim`, wrap offsets at or above it:
        // the chain is ascending, as the split search needs.
        let wraps = self.diags.keys().filter(|&&d| lanes > 1 && d > 0);
        let offsets: Vec<usize> = self
            .diags
            .keys()
            .copied()
            .chain(wraps.map(|&d| (lanes - 1) * self.dim + d))
            .collect();
        let g1 = fewest_rotation_split(&offsets);
        BsgsSchedule::new(g1, offsets.into_iter()).counts()
    }

    /// Number of nonzero diagonals of [`DiagMatrix::block_diag`]`(lanes)`
    /// — the plaintext multiplies of a matvec on it — from the offsets
    /// alone: every diagonal but the main one gains its wrap-around
    /// twin.
    pub fn num_diagonals_lanes(&self, lanes: usize) -> usize {
        let wraps = self.diags.keys().filter(|&&d| lanes > 1 && d > 0).count();
        self.diags.len() + wraps
    }

    /// Fraction of entries that are nonzero (density diagnostics for
    /// structured matrices like pooling or Toeplitz convolutions).
    pub fn density(&self) -> f64 {
        let nnz: usize = self
            .diags
            .values()
            .map(|d| d.iter().filter(|&&v| v != 0.0).count())
            .sum();
        nnz as f64 / (self.dim * self.dim) as f64
    }
}

/// Exact key-switch work of one baby-step/giant-step schedule
/// ([`DiagMatrix::bsgs_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BsgsCounts {
    /// Key-switch applications: one per baby step plus one per giant
    /// step.
    pub rotations: usize,
    /// Key-switch decompositions: one for all the baby steps (they
    /// rotate the same input) plus one per giant step (each rotates its
    /// own partial sum).
    pub decompositions: usize,
}

/// The rotation schedule of the baby-step/giant-step product of a
/// matrix with one input at baby-step size `g1`. Pricing
/// ([`DiagMatrix::bsgs_counts`]) and execution
/// ([`Evaluator::matvec_bsgs`]) both read it, at the size
/// [`fewest_rotation_split`] chooses from the same offsets, so the
/// analytic counts mirror the executed loops by construction.
struct BsgsSchedule {
    /// Baby-step size: diagonal `d` is baby step `d mod g1` of giant
    /// group `d / g1`.
    g1: usize,
    /// The distinct nonzero baby steps the matrix needs, ascending.
    baby: Vec<usize>,
    /// Its nonempty giant groups `k`, ascending. Group `k = 0` needs no
    /// rotation of its own.
    giant: Vec<usize>,
}

impl BsgsSchedule {
    /// Schedules a matrix given its nonzero diagonal offsets, at baby
    /// step size `g1`.
    fn new(g1: usize, offsets: impl Iterator<Item = usize>) -> Self {
        let (mut baby, mut giant) = (BTreeSet::new(), BTreeSet::new());
        for d in offsets {
            if d % g1 != 0 {
                baby.insert(d % g1);
            }
            giant.insert(d / g1);
        }
        BsgsSchedule {
            g1,
            baby: baby.into_iter().collect(),
            giant: giant.into_iter().collect(),
        }
    }

    fn counts(&self) -> BsgsCounts {
        let giant_rotations = self.giant.iter().filter(|&&k| k > 0).count();
        BsgsCounts {
            rotations: self.baby.len() + giant_rotations,
            decompositions: usize::from(!self.baby.is_empty()) + giant_rotations,
        }
    }
}

/// The baby-step size of the BSGS split with the fewest rotations, then
/// the fewest decompositions, then the smallest size, for a matrix with
/// these nonzero diagonal offsets (ascending, below its dimension).
///
/// Every size from 1 to the dimension is a candidate, but a size above
/// the largest offset puts every diagonal in group 0 — the naive
/// method's counts, whatever the size — so the search stops one past
/// it. A candidate is one pass over the offsets against a single
/// residue-stamp buffer (no allocation per candidate), and gives up
/// once it has more rotations than the best so far: `O(dim ·
/// diagonals)` integer work at most. An empty matrix takes size 1.
fn fewest_rotation_split(offsets: &[usize]) -> usize {
    debug_assert!(offsets.is_sorted(), "offsets must ascend");
    let Some(&last) = offsets.last() else {
        return 1;
    };
    // seen[j] == g1: baby step j is already counted at size g1.
    let mut seen = vec![0usize; last + 1];
    // (rotations, decompositions, g1), compared lexicographically.
    let mut best = (usize::MAX, usize::MAX, 1);
    for g1 in 1..=last + 1 {
        let (mut baby, mut giant, mut group) = (0, 0, 0);
        for &d in offsets {
            let (k, j) = (d / g1, d % g1);
            if j != 0 && seen[j] != g1 {
                seen[j] = g1;
                baby += 1;
            }
            // Ascending offsets visit the groups in ascending order,
            // group 0 (which needs no rotation) first.
            if k != group {
                group = k;
                giant += 1;
            }
            if baby + giant > best.0 {
                break;
            }
        }
        best = best.min((baby + giant, usize::from(baby > 0) + giant, g1));
    }
    best.2
}

/// Tiles `v` to fill `slots` slots (cyclic replication).
///
/// # Panics
///
/// Panics unless `v.len()` divides `slots`.
pub fn replicate(v: &[f64], slots: usize) -> Vec<f64> {
    assert!(
        !v.is_empty() && slots.is_multiple_of(v.len()),
        "vector length {} must divide slot count {slots}",
        v.len()
    );
    let mut out = Vec::with_capacity(slots);
    while out.len() < slots {
        out.extend_from_slice(v);
    }
    out
}

impl Evaluator {
    /// Encrypts a logical vector replicated across all slots so that
    /// full-ring rotations act cyclically on it.
    ///
    /// # Panics
    ///
    /// Panics unless `v.len()` divides the slot count.
    pub fn encrypt_replicated(&self, v: &[f64], rng: &mut Rng64) -> Ciphertext {
        self.encrypt_replicated_at(v, self.context().max_level(), rng)
    }

    /// [`Evaluator::encrypt_replicated`] at `level` instead of the top
    /// of the chain: the vector is encoded and encrypted on `level + 1`
    /// limbs, for a consumer known to use no more — the ciphertext is
    /// that much smaller and cheaper to produce than a full-chain one
    /// with its spare limbs dropped afterwards.
    ///
    /// # Panics
    ///
    /// Panics unless `v.len()` divides the slot count and `level` is on
    /// the chain.
    pub fn encrypt_replicated_at(&self, v: &[f64], level: usize, rng: &mut Rng64) -> Ciphertext {
        let ctx = self.context();
        let tiled = replicate(v, ctx.slots());
        let pt = self.encoder().encode(&tiled, ctx.scale(), level + 1);
        self.encrypt(&pt, rng)
    }

    /// The product of `ct` with the all-zero matrix, before the
    /// rescale: a zero ciphertext at product scale.
    fn zero_product(&self, ct: &Ciphertext) -> Ciphertext {
        let pt = self
            .encoder()
            .encode_constant(0.0, self.context().scale(), ct.num_limbs());
        self.mul_plain(ct, &pt)
    }

    /// Matrix–vector product by the naive diagonal method: one rotation
    /// and one plaintext multiply per nonzero diagonal. Every rotation
    /// is of the same input, so they share one key-switch
    /// decomposition ([`Evaluator::rotate_many`], which holds all of
    /// them at once — this is the reference path). Consumes one level.
    ///
    /// # Panics
    ///
    /// Panics unless `mat.dim()` divides the slot count.
    pub fn matvec(&self, mat: &DiagMatrix, ct: &Ciphertext) -> Ciphertext {
        let slots = self.context().slots();
        assert!(
            slots.is_multiple_of(mat.dim()),
            "matrix dim must divide slots"
        );
        let steps: Vec<i64> = mat.diags.keys().map(|&d| d as i64).collect();
        let rotated = self.rotate_many(ct, &steps);
        let mut out = mat
            .diags
            .keys()
            .zip(&rotated)
            .map(|(&d, rot)| self.mul_plain(rot, &mat.encoded_diag(self, d, 0, ct.num_limbs())))
            .reduce(|a, term| self.add(&a, &term))
            .unwrap_or_else(|| self.zero_product(ct));
        self.rescale(&mut out);
        out
    }

    /// Matrix–vector product with baby-step/giant-step rotation
    /// scheduling: `O(√m)` ciphertext rotations instead of `O(m)`,
    /// trading them for plaintext pre-rotations of the diagonals.
    /// Consumes one level; result matches [`Evaluator::matvec`].
    ///
    /// The baby-step size is the matrix's fewest-rotation split (module
    /// docs), chosen when its diagonals were fixed: a product searches
    /// nothing, and executes exactly the key switches
    /// [`DiagMatrix::bsgs_counts`]`(1)` prices.
    ///
    /// The baby steps `rot_j(ct)` rotate the *same* input, so they come
    /// from one key-switch decomposition of `ct`
    /// ([`Evaluator::rotate_many`]); each giant step rotates its own
    /// partial sum and pays its own. The baby rotations, then the giant
    /// steps, fan out across [`crate::par`]; results land in schedule
    /// order, so the output is byte-identical at every thread budget.
    ///
    /// # Panics
    ///
    /// Panics unless `mat.dim()` divides the slot count.
    pub fn matvec_bsgs(&self, mat: &DiagMatrix, ct: &Ciphertext) -> Ciphertext {
        let slots = self.context().slots();
        assert!(
            slots.is_multiple_of(mat.dim()),
            "matrix dim must divide slots"
        );
        let sched = BsgsSchedule::new(mat.g1, mat.diags.keys().copied());
        let g1 = sched.g1;

        // Baby steps: rot_j(ct) for exactly the j values some diagonal
        // needs, all from one decomposition (released before the giant
        // steps allocate theirs).
        let steps: Vec<i64> = sched.baby.iter().map(|&j| j as i64).collect();
        let rotated = self.rotate_many(ct, &steps);
        let mut baby: Vec<Option<&Ciphertext>> = vec![None; g1];
        baby[0] = Some(ct);
        for (&j, rot) in sched.baby.iter().zip(&rotated) {
            baby[j] = Some(rot);
        }

        // Giant steps: group k sums its diagonals d ∈ [k·g1, (k+1)·g1)
        // against the baby steps, the plaintext diagonal pre-rotated by
        // -k·g1 (inside the cached encode), so one outer rotation by
        // k·g1 finishes the job. A group's products are one sum per limb
        // per component, reduced once; the groups fold in ascending k,
        // then the product rescales.
        let groups = crate::par::map(sched.giant.len(), |i| {
            let k = sched.giant[i];
            let shift = (k * g1) % slots;
            let diags: Vec<(&Ciphertext, Arc<Plaintext>)> = mat
                .diags
                .range(k * g1..(k + 1) * g1)
                .map(|(&d, _)| {
                    let rot_v = baby[d - k * g1].expect("baby step precomputed");
                    (rot_v, mat.encoded_diag(self, d, shift, ct.num_limbs()))
                })
                .collect();
            let terms: Vec<_> = diags.iter().map(|(ct, pt)| (*ct, &**pt)).collect();
            let sum = self.mul_plain_sum(&terms);
            if k == 0 {
                sum
            } else {
                self.rotate(&sum, (k * g1) as i64)
            }
        });
        let mut out = groups
            .into_iter()
            .reduce(|a, group| self.add(&a, &group))
            .unwrap_or_else(|| self.zero_product(ct));
        self.rescale(&mut out);
        out
    }

    /// Adds a replicated plaintext bias at the ciphertext's scale.
    ///
    /// # Panics
    ///
    /// Panics unless `bias.len()` divides the slot count.
    pub fn add_bias_replicated(&self, ct: &Ciphertext, bias: &[f64]) -> Ciphertext {
        let tiled = replicate(bias, self.context().slots());
        let pt = self.encoder().encode(&tiled, ct.scale, ct.num_limbs());
        self.add_plain(ct, &pt)
    }

    /// Sums a replicated length-`m` vector: after `log2(m)` rotations
    /// every slot holds `Σ_i v[i]`. Depth-free.
    ///
    /// # Panics
    ///
    /// Panics unless `m` is a power of two dividing the slot count.
    pub fn sum_replicated(&self, ct: &Ciphertext, m: usize) -> Ciphertext {
        assert!(m.is_power_of_two(), "m must be a power of two");
        assert!(
            self.context().slots().is_multiple_of(m),
            "m must divide slots"
        );
        let mut acc = ct.clone();
        let mut step = 1usize;
        while step < m {
            let rot = self.rotate(&acc, step as i64);
            acc = self.add(&acc, &rot);
            step <<= 1;
        }
        acc
    }

    /// Inner product of an encrypted replicated vector with a plaintext
    /// weight vector; every slot of the result holds `Σ_i v[i]·w[i]`.
    /// Consumes one level.
    ///
    /// # Panics
    ///
    /// Panics unless `w.len()` is a power of two dividing the slot
    /// count.
    pub fn inner_product_plain(&self, ct: &Ciphertext, w: &[f64]) -> Ciphertext {
        let slots = self.context().slots();
        let tiled = replicate(w, slots);
        let pt = self
            .encoder()
            .encode(&tiled, self.context().scale(), ct.num_limbs());
        let mut prod = self.mul_plain(ct, &pt);
        self.rescale(&mut prod);
        self.sum_replicated(&prod, w.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyChain;
    use crate::params::CkksParams;

    fn setup(seed: u64) -> (Evaluator, Rng64) {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        (Evaluator::new(&keys), rng)
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Vec<Vec<f64>> {
        (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| (rng.next_f32() as f64 - 0.5) * 2.0)
                    .collect()
            })
            .collect()
    }

    fn random_vec(m: usize, rng: &mut Rng64) -> Vec<f64> {
        (0..m).map(|_| rng.next_f32() as f64 - 0.5).collect()
    }

    #[test]
    fn diag_matrix_plain_apply_matches_dense() {
        let mut rng = Rng64::new(1);
        let rows = random_matrix(8, 8, &mut rng);
        let mat = DiagMatrix::from_rows(&rows);
        let v = random_vec(8, &mut rng);
        let got = mat.apply_plain(&v);
        for i in 0..8 {
            let want: f64 = (0..8).map(|j| rows[i][j] * v[j]).sum();
            assert!((got[i] - want).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn rectangular_matrix_pads_to_pow2() {
        let rows = vec![vec![1.0, 2.0, 3.0, 4.0, 5.0]; 3];
        let mat = DiagMatrix::from_rows(&rows);
        assert_eq!(mat.dim(), 8);
        assert_eq!(mat.out_dim(), 3);
        assert_eq!(mat.in_dim(), 5);
        let mut v = vec![0.0; 8];
        v[..5].copy_from_slice(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        let out = mat.apply_plain(&v);
        assert!((out[0] - 15.0).abs() < 1e-12);
        // Padded rows are zero.
        assert!((out[3]).abs() < 1e-12);
    }

    #[test]
    fn explicit_dim_padding() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mat = DiagMatrix::from_rows_with_dim(&rows, 16);
        assert_eq!(mat.dim(), 16);
        let mut v = vec![0.0; 16];
        v[0] = 1.0;
        v[1] = 1.0;
        let out = mat.apply_plain(&v);
        assert!((out[0] - 3.0).abs() < 1e-12);
        assert!((out[1] - 7.0).abs() < 1e-12);
        assert!(out[2..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scaled_multiplies_entries() {
        let rows = vec![vec![1.0, -2.0], vec![0.5, 0.0]];
        let mat = DiagMatrix::from_rows(&rows).scaled(3.0);
        let v = vec![1.0, 1.0];
        let out = mat.apply_plain(&v);
        assert!((out[0] - -3.0).abs() < 1e-12);
        assert!((out[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn identity_has_one_diagonal() {
        let id = DiagMatrix::identity(16);
        assert_eq!(id.num_diagonals(), 1);
        let v = random_vec(16, &mut Rng64::new(3));
        assert_eq!(id.apply_plain(&v), v);
    }

    #[test]
    fn encrypted_matvec_matches_plain() {
        let (ev, mut rng) = setup(41);
        let m = 8;
        let rows = random_matrix(m, m, &mut rng);
        let mat = DiagMatrix::from_rows(&rows);
        let v = random_vec(m, &mut rng);
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let out_ct = ev.matvec(&mat, &ct);
        let got = ev.decrypt_values(&out_ct, m);
        let want = mat.apply_plain(&v);
        for i in 0..m {
            assert!(
                (got[i] - want[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn bsgs_matches_naive() {
        let (ev, mut rng) = setup(42);
        let m = 16;
        let rows = random_matrix(m, m, &mut rng);
        let mat = DiagMatrix::from_rows(&rows);
        let v = random_vec(m, &mut rng);
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let naive = ev.decrypt_values(&ev.matvec(&mat, &ct), m);
        let bsgs = ev.decrypt_values(&ev.matvec_bsgs(&mat, &ct), m);
        let want = mat.apply_plain(&v);
        for i in 0..m {
            assert!((naive[i] - want[i]).abs() < 2e-2, "naive slot {i}");
            assert!((bsgs[i] - want[i]).abs() < 2e-2, "bsgs slot {i}");
        }
    }

    #[test]
    fn matvec_consumes_one_level() {
        let (ev, mut rng) = setup(43);
        let mat = DiagMatrix::identity(8);
        let ct = ev.encrypt_replicated(&random_vec(8, &mut rng), &mut rng);
        let before = ct.level();
        assert_eq!(ev.matvec(&mat, &ct).level(), before - 1);
        assert_eq!(ev.matvec_bsgs(&mat, &ct).level(), before - 1);
    }

    #[test]
    fn encrypting_at_a_level_is_the_full_chain_ciphertext_truncated() {
        // The randomness of an encryption does not depend on its limb
        // count, so encrypting below the top of the chain produces,
        // byte for byte, the prefix a drop would have kept.
        let (ev, mut rng) = setup(59);
        let v = random_vec(8, &mut rng);
        let full = ev.encrypt_replicated(&v, &mut Rng64::new(2));
        for level in [0, 3, ev.context().max_level()] {
            let at = ev.encrypt_replicated_at(&v, level, &mut Rng64::new(2));
            assert_eq!(at.level(), level);
            let mut dropped = full.clone();
            dropped.drop_to(level + 1);
            for (a, d) in [(&at.c0, &dropped.c0), (&at.c1, &dropped.c1)] {
                assert_eq!(a.limbs().collect::<Vec<_>>(), d.limbs().collect::<Vec<_>>());
            }
            let got = ev.decrypt_values(&at, 8);
            for (g, w) in got.iter().zip(&v) {
                assert!((g - w).abs() < 1e-4, "level {level}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn sparse_matrix_uses_few_diagonals() {
        // Circulant shift matrix: exactly one diagonal.
        let m = 8;
        let mut rows = vec![vec![0.0; m]; m];
        for (i, row) in rows.iter_mut().enumerate() {
            row[(i + 1) % m] = 1.0;
        }
        let mat = DiagMatrix::from_rows(&rows);
        assert_eq!(mat.num_diagonals(), 1);
        assert!(mat.density() < 0.2);
    }

    #[test]
    fn bias_add_matches_plain() {
        let (ev, mut rng) = setup(44);
        let m = 8;
        let v = random_vec(m, &mut rng);
        let bias = random_vec(m, &mut rng);
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let out = ev.decrypt_values(&ev.add_bias_replicated(&ct, &bias), m);
        for i in 0..m {
            assert!((out[i] - (v[i] + bias[i])).abs() < 1e-3, "slot {i}");
        }
    }

    #[test]
    fn sum_replicated_totals_vector() {
        let (ev, mut rng) = setup(45);
        let m = 16;
        let v = random_vec(m, &mut rng);
        let total: f64 = v.iter().sum();
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let out = ev.decrypt_values(&ev.sum_replicated(&ct, m), m);
        for (i, got) in out.iter().enumerate() {
            assert!((got - total).abs() < 1e-2, "slot {i}: {got} vs {total}");
        }
    }

    #[test]
    fn inner_product_matches_plain() {
        let (ev, mut rng) = setup(46);
        let m = 8;
        let v = random_vec(m, &mut rng);
        let w = random_vec(m, &mut rng);
        let want: f64 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let out = ev.decrypt_values(&ev.inner_product_plain(&ct, &w), 1);
        assert!((out[0] - want).abs() < 1e-2, "{} vs {want}", out[0]);
    }

    #[test]
    fn chained_affine_stages() {
        // Two matvecs back to back (the pipeline pattern heinfer uses).
        let (ev, mut rng) = setup(47);
        let m = 8;
        let a = random_matrix(m, m, &mut rng);
        let b = random_matrix(m, m, &mut rng);
        let ma = DiagMatrix::from_rows(&a);
        let mb = DiagMatrix::from_rows(&b);
        let v = random_vec(m, &mut rng);
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let stage1 = ev.matvec_bsgs(&ma, &ct);
        let stage2 = ev.matvec_bsgs(&mb, &stage1);
        let got = ev.decrypt_values(&stage2, m);
        let want = mb.apply_plain(&ma.apply_plain(&v));
        for i in 0..m {
            assert!(
                (got[i] - want[i]).abs() < 5e-2,
                "slot {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    /// Every residue of a ciphertext, `c0`'s limbs then `c1`'s.
    fn residues(ct: &Ciphertext) -> Vec<&[u64]> {
        ct.c0.limbs().chain(ct.c1.limbs()).collect()
    }

    #[test]
    fn encoded_diagonals_are_cached_across_calls() {
        let (ev, mut rng) = setup(49);
        let m = 8;
        let rows = random_matrix(m, m, &mut rng);
        let ct = ev.encrypt_replicated(&random_vec(m, &mut rng), &mut rng);
        let full = ct.num_limbs();
        let mut low = ct.clone();
        low.drop_to(3);
        type Product = fn(&Evaluator, &DiagMatrix, &Ciphertext) -> Ciphertext;
        for product in [Evaluator::matvec as Product, Evaluator::matvec_bsgs] {
            let mat = DiagMatrix::from_rows(&rows);
            assert!(mat.encoded_limbs().is_empty());
            // A first application at a low level caches every diagonal
            // on exactly that level's limbs; a second encodes nothing.
            let first = product(&ev, &mat, &low);
            assert_eq!(mat.encoded_limbs(), vec![3; mat.num_diagonals()]);
            let second = product(&ev, &mat, &low);
            assert_eq!(mat.encoded_limbs(), vec![3; mat.num_diagonals()]);
            // A full-chain application grows every entry, and a low one
            // after it reads the grown entries through their prefix.
            let top = product(&ev, &mat, &ct);
            assert_eq!(mat.encoded_limbs(), vec![full; mat.num_diagonals()]);
            let after = product(&ev, &mat, &low);
            assert_eq!(mat.encoded_limbs(), vec![full; mat.num_diagonals()]);
            // Each product has the bytes of a matrix whose cache was
            // filled at the full chain, applied at the same level.
            let reference = DiagMatrix::from_rows(&rows);
            product(&ev, &reference, &ct);
            assert_eq!(reference.encoded_limbs(), mat.encoded_limbs());
            for (got, input) in [(&first, &low), (&second, &low), (&top, &ct), (&after, &low)] {
                let want = product(&ev, &reference, input);
                assert_eq!(got.num_limbs(), want.num_limbs());
                assert_eq!(residues(got), residues(&want));
            }
        }
    }

    #[test]
    fn clone_starts_with_empty_cache() {
        let (ev, mut rng) = setup(50);
        let mat = DiagMatrix::identity(8);
        let ct = ev.encrypt_replicated(&random_vec(8, &mut rng), &mut rng);
        let _ = ev.matvec(&mat, &ct);
        assert!(!mat.encoded_limbs().is_empty());
        let copy = mat.clone();
        assert_eq!(copy.encoded_limbs().len(), 0);
        // Scaled copies must not inherit stale plaintexts.
        let scaled = mat.scaled(2.0);
        assert_eq!(scaled.encoded_limbs().len(), 0);
        let out = ev.decrypt_values(&ev.matvec(&scaled, &ct), 8);
        let base = ev.decrypt_values(&ev.matvec(&mat, &ct), 8);
        for i in 0..8 {
            assert!((out[i] - 2.0 * base[i]).abs() < 2e-2, "slot {i}");
        }
    }

    #[test]
    fn a_poisoned_encoding_cache_still_serves() {
        // A thread that panics while holding the cache lock poisons the
        // mutex; the matrix must go on applying — cached entries read,
        // new ones inserted — and give the answer it gave before.
        let (ev, mut rng) = setup(52);
        let m = 8;
        let mat = DiagMatrix::from_rows(&random_matrix(m, m, &mut rng));
        let ct = ev.encrypt_replicated(&random_vec(m, &mut rng), &mut rng);
        let before = ev.decrypt_values(&ev.matvec(&mat, &ct), m);
        let cached = mat.encoded_limbs().len();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = mat.encoded.lock().unwrap();
                panic!("a serving thread dies holding the cache");
            })
            .join()
        });
        assert!(panicked.is_err() && mat.encoded.is_poisoned());
        assert_eq!(mat.encoded_limbs().len(), cached);
        assert_eq!(ev.decrypt_values(&ev.matvec(&mat, &ct), m), before);
        // The BSGS product encodes pre-rotated diagonals the naive one
        // never cached: inserts go through the poisoned lock too.
        let bsgs = ev.decrypt_values(&ev.matvec_bsgs(&mat, &ct), m);
        assert!(mat.encoded_limbs().len() > cached);
        for (b, w) in bsgs.iter().zip(&before) {
            assert!((b - w).abs() < 5e-2, "{b} vs {w}");
        }
    }

    #[test]
    fn lane_diagonal_count_is_the_expanded_matrix() {
        let mut rng = Rng64::new(53);
        for mat in [
            DiagMatrix::from_rows(&random_matrix(8, 8, &mut rng)),
            DiagMatrix::identity(8),
            DiagMatrix::rotation(8, 3),
        ] {
            assert_eq!(mat.num_diagonals_lanes(1), mat.num_diagonals());
            for lanes in [2, 4] {
                assert_eq!(
                    mat.num_diagonals_lanes(lanes),
                    mat.block_diag(lanes).num_diagonals()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide slot count")]
    fn replicate_rejects_non_divisor() {
        let _ = replicate(&[1.0, 2.0, 3.0], 128);
    }

    #[test]
    fn block_diag_lanes_are_bitwise_independent() {
        // The slot-packing pin: each lane of the expanded plain product
        // is bit-identical to applying the base matrix to that lane
        // alone — same nonzero terms in the same addition order.
        let mut rng = Rng64::new(51);
        let m = 8;
        let lanes = 4;
        let rows = random_matrix(m, m, &mut rng);
        let mat = DiagMatrix::from_rows(&rows);
        let big = mat.block_diag(lanes);
        assert_eq!(big.dim(), lanes * m);
        // Each source diagonal splits into at most two.
        assert!(big.num_diagonals() <= 2 * mat.num_diagonals());

        let lanes_in: Vec<Vec<f64>> = (0..lanes).map(|_| random_vec(m, &mut rng)).collect();
        let packed: Vec<f64> = lanes_in.iter().flatten().copied().collect();
        let out = big.apply_plain(&packed);
        for (l, lane) in lanes_in.iter().enumerate() {
            let want = mat.apply_plain(lane);
            assert_eq!(
                &out[l * m..(l + 1) * m],
                want.as_slice(),
                "lane {l} must be bit-identical to the standalone product"
            );
        }
    }

    #[test]
    fn block_diag_single_lane_is_the_same_matrix() {
        let mut rng = Rng64::new(52);
        let mat = DiagMatrix::from_rows(&random_matrix(4, 4, &mut rng));
        let same = mat.block_diag(1);
        assert_eq!(same.dim(), mat.dim());
        assert_eq!(same.num_diagonals(), mat.num_diagonals());
        let v = random_vec(4, &mut rng);
        assert_eq!(same.apply_plain(&v), mat.apply_plain(&v));
    }

    #[test]
    fn block_diag_encrypted_matvec_stays_in_lane() {
        // Encrypted path: a lane-concatenated replicated ciphertext
        // through the expanded matrix decrypts to the per-lane
        // products — rotations never leak a neighbouring lane.
        let (ev, mut rng) = setup(53);
        let m = 8;
        let lanes = 4;
        let rows = random_matrix(m, m, &mut rng);
        let mat = DiagMatrix::from_rows(&rows);
        let big = mat.block_diag(lanes);
        let lanes_in: Vec<Vec<f64>> = (0..lanes).map(|_| random_vec(m, &mut rng)).collect();
        let packed: Vec<f64> = lanes_in.iter().flatten().copied().collect();
        let ct = ev.encrypt_replicated(&packed, &mut rng);
        let got = ev.decrypt_values(&ev.matvec_bsgs(&big, &ct), lanes * m);
        for (l, lane) in lanes_in.iter().enumerate() {
            let want = mat.apply_plain(lane);
            for i in 0..m {
                assert!(
                    (got[l * m + i] - want[i]).abs() < 5e-2,
                    "lane {l} slot {i}: {} vs {}",
                    got[l * m + i],
                    want[i]
                );
            }
        }
    }

    /// The key switches the evaluator executes inside `f`, sequentially
    /// (the counters are per thread).
    fn executed_key_switches(f: impl FnOnce()) -> BsgsCounts {
        crate::par::with_thread_budget(1, || {
            crate::take_key_switch_counts();
            f();
            let (decompositions, rotations) = crate::take_key_switch_counts();
            BsgsCounts {
                rotations,
                decompositions,
            }
        })
    }

    #[test]
    fn rotations_are_recognised_and_nothing_else_is() {
        let rot = DiagMatrix::rotation(16, 5);
        assert_eq!(rot.as_rotation(), Some(5));
        assert_eq!(DiagMatrix::rotation(16, 21).as_rotation(), Some(5));
        assert_eq!(DiagMatrix::identity(16).as_rotation(), Some(0));
        let v = random_vec(16, &mut Rng64::new(60));
        let want: Vec<f64> = (0..16).map(|i| v[(i + 5) % 16]).collect();
        assert_eq!(rot.apply_plain(&v), want);
        // A scaled rotation multiplies, a two-diagonal matrix mixes, a
        // selection drops slots: none is a bare rotation.
        assert_eq!(rot.scaled(0.5).as_rotation(), None);
        assert_eq!(rot.block_diag(2).as_rotation(), None);
        let mut rows = vec![vec![0.0; 16]; 15];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i + 1] = 1.0;
        }
        assert_eq!(DiagMatrix::from_rows(&rows).as_rotation(), None);
        // Encrypted, the rotation is `rotate` by its step.
        let (ev, mut rng) = setup(61);
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let got = ev.decrypt_values(&ev.rotate(&ct, 5), 16);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn bsgs_rotation_count_mirrors_the_schedule() {
        // Identity: the single 0-diagonal needs no key switch at all.
        assert_eq!(
            DiagMatrix::identity(16).bsgs_counts(1),
            BsgsCounts::default()
        );
        // Dense 16×16: g1 = 4, all 16 diagonals present → 3 nonzero
        // baby steps + 3 nonempty giant groups beyond k = 0; the baby
        // steps share one decomposition, each giant step has its own.
        let mut rng = Rng64::new(54);
        let dense = DiagMatrix::from_rows(&random_matrix(16, 16, &mut rng));
        assert_eq!(dense.num_diagonals(), 16);
        assert_eq!(dense.bsgs_counts(1).rotations, 6);
        assert_eq!(dense.bsgs_counts(1).decompositions, 4);
        // And never more than one rotation per diagonal (naive bound).
        let sparse = DiagMatrix::rotation(16, 5);
        assert_eq!(sparse.num_diagonals(), 1);
        assert!(sparse.bsgs_counts(1).rotations <= 2);

        // The analytic counts are the executed loops', exactly.
        let (ev, mut rng) = setup(56);
        let ct = ev.encrypt_replicated(&random_vec(16, &mut rng), &mut rng);
        for mat in [&dense, &sparse, &DiagMatrix::rotation(16, 4)] {
            let executed = executed_key_switches(|| {
                ev.matvec_bsgs(mat, &ct);
            });
            assert_eq!(executed, mat.bsgs_counts(1));
        }
        // The naive method hoists too: one decomposition, one
        // application per nonzero diagonal offset.
        let executed = executed_key_switches(|| {
            ev.matvec(&dense, &ct);
        });
        assert_eq!((executed.decompositions, executed.rotations), (1, 15));
    }

    #[test]
    fn lane_rotation_pricing_matches_materialized_expansion() {
        // The lane planner's oracle: pricing block_diag's wrap-diagonal
        // doubling from the offsets alone must agree exactly with
        // counting on the materialized expanded matrix, for dense,
        // sparse, and diagonal-free shapes alike.
        let mut rng = Rng64::new(55);
        let shapes: Vec<DiagMatrix> = vec![
            DiagMatrix::from_rows(&random_matrix(8, 8, &mut rng)),
            DiagMatrix::identity(8),
            DiagMatrix::from_rows(&{
                let mut rows = vec![vec![0.0; 8]; 8];
                for (i, row) in rows.iter_mut().enumerate() {
                    row[(i + 3) % 8] = 1.0;
                    row[i] = 0.5;
                }
                rows
            }),
            DiagMatrix::from_rows(&random_matrix(16, 16, &mut rng)),
        ];
        for lanes in [1usize, 2, 4, 8] {
            for mat in &shapes {
                assert_eq!(
                    mat.bsgs_counts(lanes),
                    mat.block_diag(lanes).bsgs_counts(1),
                    "dim {} lanes {lanes}",
                    mat.dim()
                );
            }
        }
        // The expansion's executed loops match the lane-priced counts.
        let (ev, mut rng) = setup(57);
        let ct = ev.encrypt_replicated(&random_vec(32, &mut rng), &mut rng);
        for mat in &shapes[..3] {
            let executed = executed_key_switches(|| {
                ev.matvec_bsgs(&mat.block_diag(4), &ct);
            });
            assert_eq!(executed, mat.bsgs_counts(4));
        }
        // Wrap diagonals make packed rotations strictly costlier than
        // lanes·1 would suggest for any matrix with off-diagonals.
        let dense = &shapes[3];
        assert!(dense.bsgs_counts(4).rotations > dense.bsgs_counts(1).rotations);
    }

    /// A `dim`-square matrix whose nonzero diagonals are exactly those
    /// `present` marks, with random entries of magnitude at least 0.1.
    fn with_offsets(dim: usize, present: &[bool], rng: &mut Rng64) -> DiagMatrix {
        let mut rows = vec![vec![0.0; dim]; dim];
        for (d, _) in present.iter().enumerate().filter(|&(_, &p)| p) {
            for (i, row) in rows.iter_mut().enumerate() {
                let v = 0.1 + 0.9 * rng.next_f32() as f64;
                row[(i + d) % dim] = if rng.next_u64() & 1 == 0 { v } else { -v };
            }
        }
        DiagMatrix::from_rows(&rows)
    }

    /// The split rule by brute force: every `g1` in `1..=dim`, each
    /// scheduled in full, the least `(rotations, decompositions, g1)`.
    fn brute_force_split(dim: usize, offsets: &[usize]) -> (BsgsCounts, usize) {
        let (rotations, decompositions, g1) = (1..=dim)
            .map(|g1| {
                let counts = BsgsSchedule::new(g1, offsets.iter().copied()).counts();
                (counts.rotations, counts.decompositions, g1)
            })
            .min()
            .expect("dim ≥ 1");
        let counts = BsgsCounts {
            rotations,
            decompositions,
        };
        (counts, g1)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The split of a lane expansion is the brute-force optimum over
        /// every `g1 ∈ 1..=dim`, never has more rotations than the
        /// `⌈√dim⌉` split, is priced from the base offsets exactly as
        /// the materialized expansion chooses it, and is the split that
        /// expansion executes.
        #[test]
        fn the_split_is_the_fewest_rotation_one(
            log_dim in 1u32..7,
            log_lanes in 0u32..6,
            present in proptest::collection::vec(proptest::bool::ANY, 64),
            seed in 0u64..1000,
        ) {
            let (dim, lanes) = (1usize << log_dim, 1usize << log_lanes);
            let mat = with_offsets(dim, &present[..dim], &mut Rng64::new(seed));
            let big = mat.block_diag(lanes);
            let offsets: Vec<usize> = big.diags.keys().copied().collect();
            let (best, g1) = brute_force_split(big.dim(), &offsets);
            proptest::prop_assert_eq!(mat.bsgs_counts(lanes), best);
            proptest::prop_assert_eq!(big.bsgs_counts(1), best);
            proptest::prop_assert_eq!(big.g1, g1);
            let sqrt = (big.dim() as f64).sqrt().ceil() as usize;
            let fixed = BsgsSchedule::new(sqrt, offsets.into_iter()).counts();
            proptest::prop_assert!(best.rotations <= fixed.rotations, "{best:?} vs {fixed:?}");
        }

        /// Encrypted, a lane expansion's BSGS product executes exactly
        /// the key switches its lane count is priced at, and agrees
        /// with the naive product within noise.
        #[test]
        fn a_lane_expansion_executes_its_priced_split(
            log_dim in 1u32..5,
            log_lanes in 0u32..4,
            present in proptest::collection::vec(proptest::bool::ANY, 16),
            seed in 0u64..1000,
        ) {
            let (dim, lanes) = (1usize << log_dim, 1usize << log_lanes);
            let mut rng = Rng64::new(seed);
            let mat = with_offsets(dim, &present[..dim], &mut rng);
            let big = mat.block_diag(lanes);
            let (ev, mut rng) = setup(seed);
            let ct = ev.encrypt_replicated(&random_vec(big.dim(), &mut rng), &mut rng);
            let mut product = None;
            let executed = executed_key_switches(|| product = Some(ev.matvec_bsgs(&big, &ct)));
            proptest::prop_assert_eq!(executed, mat.bsgs_counts(lanes));
            proptest::prop_assert_eq!(executed, big.bsgs_counts(1));
            let bsgs = ev.decrypt_values(&product.expect("ran"), big.dim());
            let naive = ev.decrypt_values(&ev.matvec(&big, &ct), big.dim());
            for (i, (b, n)) in bsgs.iter().zip(&naive).enumerate() {
                proptest::prop_assert!((b - n).abs() < 5e-2, "slot {i}: {b} vs {n}");
            }
        }
    }

    #[test]
    fn matvec_bsgs_is_byte_identical_at_every_thread_budget() {
        // The baby and giant rotations fan out over the worker pool and
        // land in schedule order: the product's bytes do not depend on
        // the budget, for a dense and for the all-zero matrix.
        let (ev, mut rng) = setup(58);
        let mats = [
            DiagMatrix::from_rows(&random_matrix(16, 16, &mut rng)),
            DiagMatrix::from_rows(&vec![vec![0.0; 16]; 16]),
        ];
        let ct = ev.encrypt_replicated(&random_vec(16, &mut rng), &mut rng);
        for mat in &mats {
            let sequential = crate::par::with_thread_budget(1, || ev.matvec_bsgs(mat, &ct));
            for budget in [2, 8] {
                let fanned = crate::par::with_thread_budget(budget, || ev.matvec_bsgs(mat, &ct));
                for (a, b) in [(&fanned.c0, &sequential.c0), (&fanned.c1, &sequential.c1)] {
                    assert_eq!(a.limbs().collect::<Vec<_>>(), b.limbs().collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn zero_matrix_yields_zero_ciphertext() {
        let (ev, mut rng) = setup(48);
        let rows = vec![vec![0.0; 8]; 8];
        let mat = DiagMatrix::from_rows(&rows);
        assert_eq!(mat.num_diagonals(), 0);
        let ct = ev.encrypt_replicated(&random_vec(8, &mut rng), &mut rng);
        let out = ev.decrypt_values(&ev.matvec(&mat, &ct), 8);
        for v in out {
            assert!(v.abs() < 1e-3);
        }
    }
}
