//! Encrypted linear algebra: plaintext matrix × ciphertext vector via
//! the Halevi–Shoup diagonal method, with a baby-step/giant-step
//! variant.
//!
//! The baby-step size of a BSGS product is not `⌈√dim⌉`: it is the
//! split with the fewest rotations, then the fewest key-switch
//! decompositions, then the smallest size, searched over every size
//! from 1 to `dim` on the matrix's nonzero diagonal offsets
//! ([`DiagMatrix::bsgs_counts`]). A dense matrix lands near `√dim`
//! either way; a sparse one (a convolution's few bands) takes a split
//! sized to its offsets. Fewest rotations is also fewest Galois keys.
//! A lane-interleaved matrix ([`DiagMatrix::interleave`]) keeps its
//! base matrix's diagonals at scaled offsets and its split scaled
//! alike, so a packed product takes exactly the one-lane key switches
//! and encodes the one-lane number of diagonals.
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
/// once, when they are fixed (the constructors; [`DiagMatrix::interleave`]
/// scales its base matrix's), and every product reads it.
#[derive(Debug)]
pub struct DiagMatrix {
    dim: usize,
    out_dim: usize,
    in_dim: usize,
    diags: BTreeMap<usize, Vec<f64>>,
    /// Baby-step size of [`Evaluator::matvec_bsgs`]
    /// ([`fewest_rotation_split`] of the diagonal offsets, or of the
    /// base matrix's scaled by the lane count).
    g1: usize,
    encoded: Mutex<HashMap<DiagKey, Arc<Plaintext>>>,
}

impl Clone for DiagMatrix {
    /// Clones the matrix data; the encoded-plaintext cache starts
    /// empty (entries are cheap to regenerate, and a clone's are
    /// encoded on the limbs its own schedule enters it at).
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

    /// Interleaves the matrix across `lanes` lanes: the result is the
    /// `(lanes·dim) × (lanes·dim)` map that applies this matrix
    /// independently to each lane of an interleaved vector, where lane
    /// `l`'s position `p` sits at slot `p·lanes + l` — the slot-packing
    /// transform that lets one ciphertext carry `lanes` activations.
    ///
    /// Diagonal `d` moves to offset `d·lanes` with each entry repeated
    /// `lanes` times, so a rotation by `r·lanes` shifts every lane by
    /// `r` within itself, cyclically, exactly as the one-lane replicated
    /// layout does. Applied plain, each lane of the interleaved product
    /// is **bit-identical** to [`DiagMatrix::apply_plain`] on that lane
    /// alone: per output slot the same terms arrive in the same
    /// ascending-`d` order. The BSGS split is this matrix's, scaled:
    /// baby step `j` becomes `j·lanes` and giant group `k` stays `k`,
    /// so the product executes the key switches
    /// [`DiagMatrix::bsgs_counts`] prices for this matrix at any lane
    /// count. A fresh split search over the scaled offsets could tie on
    /// one that is not a multiple of `lanes` and execute other counts.
    ///
    /// The encoded-plaintext cache starts empty (the interleaved
    /// diagonals tile differently across slots).
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two.
    pub fn interleave(&self, lanes: usize) -> DiagMatrix {
        assert!(lanes.is_power_of_two(), "lanes must be a power of two");
        let diags = self
            .diags
            .iter()
            .map(|(&d, diag)| {
                let repeated = diag.iter().flat_map(|&v| std::iter::repeat_n(v, lanes));
                (d * lanes, repeated.collect())
            })
            .collect();
        DiagMatrix {
            dim: self.dim * lanes,
            out_dim: self.out_dim * lanes,
            in_dim: self.in_dim * lanes,
            diags,
            g1: self.g1 * lanes,
            encoded: Mutex::new(HashMap::new()),
        }
    }

    /// Exact key-switch work of [`Evaluator::matvec_bsgs`] on this
    /// matrix, and on its [`DiagMatrix::interleave`] at any lane count:
    /// one rotation per distinct nonzero baby step `d mod g1`, plus one
    /// per nonempty giant group `k ≥ 1` (rotation by zero is a clone,
    /// not a key switch), at the split the product executes — the
    /// fewest rotations, then the fewest decompositions, then the
    /// smallest `g1` (module docs).
    pub fn bsgs_counts(&self) -> BsgsCounts {
        BsgsSchedule::new(self.g1, self.diags.keys().copied()).counts()
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
/// ([`Evaluator::matvec_bsgs`]) both read it, at the matrix's own
/// split, so the analytic counts mirror the executed loops by
/// construction.
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
    /// [`DiagMatrix::bsgs_counts`] prices.
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
        let rows = [[1.0, -2.0], [0.5, 0.0]].map(|row| row.map(|v| 3.0 * v).to_vec());
        let mat = DiagMatrix::from_rows(&rows);
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
        // Interleaving moves diagonals and adds none: a packed matvec
        // encodes and multiplies the base matrix's diagonals, once each.
        let mut rng = Rng64::new(53);
        for mat in [
            DiagMatrix::from_rows(&random_matrix(8, 8, &mut rng)),
            DiagMatrix::identity(8),
            DiagMatrix::rotation(8, 3),
        ] {
            for lanes in [1, 2, 4] {
                assert_eq!(mat.interleave(lanes).num_diagonals(), mat.num_diagonals());
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide slot count")]
    fn replicate_rejects_non_divisor() {
        let _ = replicate(&[1.0, 2.0, 3.0], 128);
    }

    /// `lanes` vectors interleaved: lane `l`'s position `p` at `p·lanes + l`.
    fn interleaved(lanes_in: &[Vec<f64>]) -> Vec<f64> {
        let m = lanes_in[0].len();
        (0..m * lanes_in.len())
            .map(|s| lanes_in[s % lanes_in.len()][s / lanes_in.len()])
            .collect()
    }

    #[test]
    fn interleaved_lanes_are_bitwise_independent() {
        // The slot-packing pin: each lane of the interleaved plain
        // product is bit-identical to applying the base matrix to that
        // lane alone — same terms in the same addition order — and the
        // interleaving keeps the base matrix's diagonals, one each.
        let mut rng = Rng64::new(51);
        let m = 8;
        let lanes = 4;
        let mat = DiagMatrix::from_rows(&random_matrix(m, m, &mut rng));
        let big = mat.interleave(lanes);
        assert_eq!(big.dim(), lanes * m);
        assert_eq!(big.num_diagonals(), mat.num_diagonals());
        let offsets: Vec<usize> = big.diagonals().map(|(d, _)| d).collect();
        let base: Vec<usize> = mat.diagonals().map(|(d, _)| d * lanes).collect();
        assert_eq!(offsets, base);

        let lanes_in: Vec<Vec<f64>> = (0..lanes).map(|_| random_vec(m, &mut rng)).collect();
        let out = big.apply_plain(&interleaved(&lanes_in));
        for (l, lane) in lanes_in.iter().enumerate() {
            let got: Vec<f64> = (0..m).map(|p| out[p * lanes + l]).collect();
            assert_eq!(
                got,
                mat.apply_plain(lane),
                "lane {l} must be bit-identical to the standalone product"
            );
        }
    }

    #[test]
    fn interleaving_one_lane_is_the_same_matrix() {
        let mut rng = Rng64::new(52);
        let mat = DiagMatrix::from_rows(&random_matrix(4, 4, &mut rng));
        let same = mat.interleave(1);
        assert_eq!((same.dim(), same.g1), (mat.dim(), mat.g1));
        assert_eq!(same.num_diagonals(), mat.num_diagonals());
        let v = random_vec(4, &mut rng);
        assert_eq!(same.apply_plain(&v), mat.apply_plain(&v));
    }

    #[test]
    fn interleaved_encrypted_matvec_stays_in_lane() {
        // Encrypted path: an interleaved replicated ciphertext through
        // the interleaved matrix decrypts to the per-lane products —
        // rotations by multiples of the lane count never leak a
        // neighbouring lane.
        let (ev, mut rng) = setup(53);
        let m = 8;
        let lanes = 4;
        let mat = DiagMatrix::from_rows(&random_matrix(m, m, &mut rng));
        let big = mat.interleave(lanes);
        let lanes_in: Vec<Vec<f64>> = (0..lanes).map(|_| random_vec(m, &mut rng)).collect();
        let ct = ev.encrypt_replicated(&interleaved(&lanes_in), &mut rng);
        let got = ev.decrypt_values(&ev.matvec_bsgs(&big, &ct), lanes * m);
        for (l, lane) in lanes_in.iter().enumerate() {
            let want = mat.apply_plain(lane);
            for (p, w) in want.iter().enumerate() {
                let g = got[p * lanes + l];
                assert!((g - w).abs() < 5e-2, "lane {l} position {p}: {g} vs {w}");
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
        // A scaled rotation multiplies and a selection drops slots:
        // neither is a bare rotation. Interleaved, a rotation is the
        // rotation by its step times the lane count.
        let mut half = vec![vec![0.0; 16]; 16];
        for (i, row) in half.iter_mut().enumerate() {
            row[(i + 5) % 16] = 0.5;
        }
        assert_eq!(DiagMatrix::from_rows(&half).as_rotation(), None);
        assert_eq!(rot.interleave(2).as_rotation(), Some(10));
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
            DiagMatrix::identity(16).bsgs_counts(),
            BsgsCounts::default()
        );
        // Dense 16×16: g1 = 4, all 16 diagonals present → 3 nonzero
        // baby steps + 3 nonempty giant groups beyond k = 0; the baby
        // steps share one decomposition, each giant step has its own.
        let mut rng = Rng64::new(54);
        let dense = DiagMatrix::from_rows(&random_matrix(16, 16, &mut rng));
        assert_eq!(dense.num_diagonals(), 16);
        assert_eq!(dense.bsgs_counts().rotations, 6);
        assert_eq!(dense.bsgs_counts().decompositions, 4);
        // And never more than one rotation per diagonal (naive bound).
        let sparse = DiagMatrix::rotation(16, 5);
        assert_eq!(sparse.num_diagonals(), 1);
        assert!(sparse.bsgs_counts().rotations <= 2);

        // The analytic counts are the executed loops', exactly.
        let (ev, mut rng) = setup(56);
        let ct = ev.encrypt_replicated(&random_vec(16, &mut rng), &mut rng);
        for mat in [&dense, &sparse, &DiagMatrix::rotation(16, 4)] {
            let executed = executed_key_switches(|| {
                ev.matvec_bsgs(mat, &ct);
            });
            assert_eq!(executed, mat.bsgs_counts());
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
        // Interleaving scales the offsets and the split alike, so every
        // lane count prices, and executes, the base matrix's counts —
        // for dense, sparse, and diagonal-free shapes alike.
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
                let big = mat.interleave(lanes);
                assert_eq!(
                    big.bsgs_counts(),
                    mat.bsgs_counts(),
                    "dim {} lanes {lanes}",
                    mat.dim()
                );
                assert_eq!(big.g1, mat.g1 * lanes);
            }
        }
        let (ev, mut rng) = setup(57);
        let ct = ev.encrypt_replicated(&random_vec(32, &mut rng), &mut rng);
        for mat in &shapes[..3] {
            let executed = executed_key_switches(|| {
                ev.matvec_bsgs(&mat.interleave(4), &ct);
            });
            assert_eq!(executed, mat.bsgs_counts());
        }
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

        /// A matrix's split is the brute-force optimum over every
        /// `g1 ∈ 1..=dim` and never has more rotations than the
        /// `⌈√dim⌉` split; interleaved at any lane count the matrix
        /// keeps that split, scaled, and its counts.
        #[test]
        fn the_split_is_the_fewest_rotation_one(
            log_dim in 1u32..7,
            log_lanes in 0u32..6,
            present in proptest::collection::vec(proptest::bool::ANY, 64),
            seed in 0u64..1000,
        ) {
            let (dim, lanes) = (1usize << log_dim, 1usize << log_lanes);
            let mat = with_offsets(dim, &present[..dim], &mut Rng64::new(seed));
            let offsets: Vec<usize> = mat.diags.keys().copied().collect();
            let (best, g1) = brute_force_split(dim, &offsets);
            proptest::prop_assert_eq!(mat.bsgs_counts(), best);
            proptest::prop_assert_eq!(mat.g1, g1);
            let sqrt = (dim as f64).sqrt().ceil() as usize;
            let fixed = BsgsSchedule::new(sqrt, offsets.into_iter()).counts();
            proptest::prop_assert!(best.rotations <= fixed.rotations, "{best:?} vs {fixed:?}");
            let big = mat.interleave(lanes);
            proptest::prop_assert_eq!(big.g1, g1 * lanes);
            proptest::prop_assert_eq!(big.bsgs_counts(), best);
        }

        /// Encrypted, an interleaved BSGS product executes exactly its
        /// base matrix's key switches, and agrees with the naive
        /// product within noise.
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
            let big = mat.interleave(lanes);
            let (ev, mut rng) = setup(seed);
            let ct = ev.encrypt_replicated(&random_vec(big.dim(), &mut rng), &mut rng);
            let mut product = None;
            let executed = executed_key_switches(|| product = Some(ev.matvec_bsgs(&big, &ct)));
            proptest::prop_assert_eq!(executed, mat.bsgs_counts());
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
