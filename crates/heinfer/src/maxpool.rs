//! Geometry of the encrypted max pool: a rotate-and-max fold on one
//! ciphertext, then a selection of the window anchors.
//!
//! A `k×k` stride-`s` max pool over a `(C, H, W)` activation never
//! leaves its ciphertext. It folds *shifts* of the flattened activation
//! `v` against itself, separably and by doubling — along x
//!
//! ```text
//! w = 1; while w < k { t = min(w, k−w); v ← pafmax(v, rot(v, t)); w += t }
//! ```
//!
//! then the same along y with steps `t·W` ([`pool_shifts`]). After it,
//! **every** slot `p` holds the fold of the `k×k` window anchored at
//! `p`: `2·⌈log₂k⌉` PAF-max — the nested composition whose error
//! accumulation the paper quantifies in §5.4.3 — instead of `k²−1`. A
//! 0/1 selection then moves anchor `(c, oy·s, ox·s)` to output position
//! `(c, oy, ox)` ([`selection_rows`]); being affine, it composes with
//! whatever affine stage follows the pool.
//!
//! Slots that are not anchors hold bounded filler: the PAF-max of real
//! activations with padding zeros or whatever a shift wrapped around to
//! — values of the range real windows fold, so the PAF stays inside its
//! domain — and the selection's zero columns drop it. A window that
//! lies inside its image never reads outside it, which is why the
//! shifts can be plain cyclic rotations of the slot vector. Slot-packed
//! lanes are interleaved, so a shift times the lane count rotates each
//! lane within itself and no lane ever reads another.

/// The doubling steps that fold a window of `k` along one axis: each
/// step `t` turns "slot `p` holds the fold of `[p, p+w)`" into the same
/// for `w + t`, with `t = min(w, k − w)`, so the steps sum to `k − 1`.
fn fold_steps(k: usize) -> Vec<usize> {
    let mut steps = Vec::new();
    let mut w = 1;
    while w < k {
        let t = w.min(k - w);
        steps.push(t);
        w += t;
    }
    steps
}

/// The rotation steps of a `k×k` pool's fold over rows of `width`
/// slots, in execution order: the x steps, then the y steps (`t·width`).
pub(crate) fn pool_shifts(k: usize, width: usize) -> Vec<usize> {
    let steps = fold_steps(k);
    let down = steps.iter().map(|t| t * width);
    steps.iter().copied().chain(down).collect()
}

/// Output shape of a `k×k` stride-`stride` pool over `shape = (C, H, W)`,
/// or `None` when the spec is degenerate or the window does not tile
/// the input exactly.
///
/// # Panics
///
/// Panics if `shape` is not `(C, H, W)`.
pub(crate) fn pool_out_shape(shape: &[usize], k: usize, stride: usize) -> Option<Vec<usize>> {
    assert_eq!(shape.len(), 3, "expected (C, H, W) shape");
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let tiles = k >= 1
        && stride >= 1
        && h >= k
        && w >= k
        && (h - k).is_multiple_of(stride)
        && (w - k).is_multiple_of(stride);
    tiles.then(|| vec![c, (h - k) / stride + 1, (w - k) / stride + 1])
}

/// The anchor selection of a stride-`stride` pool as dense rows: row
/// `(c, oy, ox)` holds a 1 in column `(c, oy·stride, ox·stride)` and
/// zeros elsewhere.
///
/// # Panics
///
/// Panics where [`pool_out_shape`] does or has no shape to give.
pub(crate) fn selection_rows(shape: &[usize], k: usize, stride: usize) -> Vec<Vec<f64>> {
    let out = pool_out_shape(shape, k, stride).expect("pool window must tile the input exactly");
    let (h, w) = (shape[1], shape[2]);
    let (ho, wo) = (out[1], out[2]);
    let mut rows = vec![vec![0.0f64; shape.iter().product()]; out.iter().product()];
    for ci in 0..shape[0] {
        for oy in 0..ho {
            for ox in 0..wo {
                let anchor = (ci * h + oy * stride) * w + ox * stride;
                rows[(ci * ho + oy) * wo + ox][anchor] = 1.0;
            }
        }
    }
    rows
}

/// Exact `k×k` stride-`stride` max pool of a flattened `(C, H, W)`
/// activation: what the encrypted pool approximates.
#[cfg(test)]
pub(crate) fn exact_pool(x: &[f64], shape: &[usize], k: usize, stride: usize) -> Vec<f64> {
    let out = pool_out_shape(shape, k, stride).expect("tileable");
    let (h, w, ho, wo) = (shape[1], shape[2], out[1], out[2]);
    let window = |ci, oy, ox| {
        let taps =
            (0..k * k).map(move |t| (ci * h + oy * stride + t / k) * w + ox * stride + t % k);
        taps.map(|i| x[i]).fold(f64::NEG_INFINITY, f64::max)
    };
    (0..out.iter().product())
        .map(|o| window(o / (ho * wo), (o / wo) % ho, o % wo))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fold with an exact max on a cyclic `dim`-slot vector, then
    /// the selection.
    fn fold_and_select(
        x: &[f64],
        shape: &[usize],
        k: usize,
        stride: usize,
        dim: usize,
    ) -> Vec<f64> {
        let mut v = x.to_vec();
        v.resize(dim, 0.0);
        for t in pool_shifts(k, shape[2]) {
            v = (0..dim).map(|p| v[p].max(v[(p + t) % dim])).collect();
        }
        selection_rows(shape, k, stride)
            .iter()
            .map(|row| row.iter().zip(&v).map(|(r, vi)| r * vi).sum())
            .collect()
    }

    #[test]
    fn fold_steps_double_up_to_the_window() {
        assert_eq!(fold_steps(1), Vec::<usize>::new());
        assert_eq!(fold_steps(2), [1]);
        assert_eq!(fold_steps(3), [1, 1]);
        assert_eq!(fold_steps(4), [1, 2]);
        assert_eq!(fold_steps(5), [1, 2, 1]);
        assert_eq!(fold_steps(7), [1, 2, 3]);
        for k in 1..40usize {
            let steps = fold_steps(k);
            assert_eq!(steps.iter().sum::<usize>(), k - 1);
            assert_eq!(steps.len(), k.next_power_of_two().trailing_zeros() as usize);
        }
        assert_eq!(pool_shifts(3, 8), [1, 1, 8, 8]);
    }

    #[test]
    fn taps_cover_every_window_position() {
        // With an exact max, fold and selection are the exact max pool:
        // each of the k² taps of each window reaches its anchor — for
        // every window size and stride the fold has a distinct shape
        // for, on two channels, in a slot vector with and without
        // padding behind the activation.
        for k in [2usize, 3, 4] {
            for stride in [1usize, 2] {
                let side = k + 2 * stride;
                let shape = [2, side, side];
                let len = 2 * side * side;
                let x: Vec<f64> = (0..len).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
                let want = exact_pool(&x, &shape, k, stride);
                for dim in [len.next_power_of_two(), 2 * len.next_power_of_two()] {
                    let got = fold_and_select(&x, &shape, k, stride, dim);
                    assert_eq!(got, want, "k={k} stride={stride} dim={dim}");
                }
            }
        }
    }

    #[test]
    fn stride_one_overlapping_windows() {
        let shape = [1usize, 3, 3];
        assert_eq!(pool_out_shape(&shape, 2, 1), Some(vec![1, 2, 2]));
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        assert_eq!(fold_and_select(&x, &shape, 2, 1, 16), [4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn selection_scatters_its_entry_to_the_anchors() {
        let rows = selection_rows(&[2, 4, 4], 2, 2);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|row| row.len() == 32));
        for (o, row) in rows.iter().enumerate() {
            let (c, oy, ox) = (o / 4, (o / 2) % 2, o % 2);
            let anchor = (c * 4 + oy * 2) * 4 + ox * 2;
            for (i, &v) in row.iter().enumerate() {
                assert_eq!(v, if i == anchor { 1.0 } else { 0.0 }, "row {o} col {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile the input exactly")]
    fn rejects_untileable_window() {
        assert_eq!(pool_out_shape(&[1, 5, 5], 2, 2), None);
        let _ = selection_rows(&[1, 5, 5], 2, 2);
    }
}
