//! Noise measurement and simulated bootstrapping.
//!
//! The paper's central latency argument is that high-degree PAFs need
//! long multiplication chains "with bootstrapping" while low-degree
//! PAFs fit in a leveled budget. This module provides (a) slot-level
//! noise measurement so experiments can report precision loss per
//! depth consumed, and (b) a **simulated** bootstrap — a secret-key
//! recryption that refreshes a ciphertext to the level its next op is
//! entered at (the top of the chain at most) while charging the
//! analytic cost model ([`crate::cost`]). It reproduces
//! the *accounting* of bootstrapping (when it triggers, what it costs),
//! not the cryptographic procedure itself; this substitution is
//! documented in docs/ARCHITECTURE.md ("Execution backends").

use crate::cipher::{Ciphertext, Evaluator};
use crate::linear::replicate;
use smartpaf_tensor::Rng64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Slot-error statistics of a ciphertext against expected values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseReport {
    /// Largest absolute slot error.
    pub max_abs_error: f64,
    /// Mean absolute slot error.
    pub mean_abs_error: f64,
    /// Equivalent clean bits: `-log2(max_abs_error)` (∞-safe: capped
    /// at 64 for exact matches).
    pub clean_bits: f64,
}

/// Decrypts `ct` and compares the first `expected.len()` slots to
/// `expected`.
///
/// # Panics
///
/// Panics if `expected` is empty or exceeds the slot capacity.
pub fn measure_noise(ev: &Evaluator, ct: &Ciphertext, expected: &[f64]) -> NoiseReport {
    assert!(!expected.is_empty(), "expected values must be non-empty");
    let got = ev.decrypt_values(ct, expected.len());
    let mut max_err = 0.0f64;
    let mut sum_err = 0.0f64;
    for (g, e) in got.iter().zip(expected) {
        let err = (g - e).abs();
        max_err = max_err.max(err);
        sum_err += err;
    }
    let clean_bits = if max_err == 0.0 {
        64.0
    } else {
        (-max_err.log2()).min(64.0)
    };
    NoiseReport {
        max_abs_error: max_err,
        mean_abs_error: sum_err / expected.len() as f64,
        clean_bits,
    }
}

/// A simulated bootstrapper: refreshes ciphertexts back up the modulus
/// chain by secret-key recryption, counting invocations so experiments
/// can charge the analytic bootstrap cost.
pub struct Bootstrapper {
    ev: Evaluator,
    slots_in_use: usize,
    refreshes: AtomicUsize,
    rng: Mutex<Rng64>,
}

impl std::fmt::Debug for Bootstrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bootstrapper")
            .field("slots_in_use", &self.slots_in_use)
            .field("refreshes", &self.refreshes.load(Ordering::Relaxed))
            .finish()
    }
}

impl Bootstrapper {
    /// Creates a bootstrapper tracking `slots_in_use` meaningful slots
    /// per ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if `slots_in_use` is zero or exceeds the slot capacity.
    pub fn new(ev: Evaluator, slots_in_use: usize, seed: u64) -> Self {
        assert!(
            slots_in_use >= 1 && slots_in_use <= ev.context().slots(),
            "slots_in_use out of range"
        );
        Bootstrapper {
            ev,
            slots_in_use,
            refreshes: AtomicUsize::new(0),
            rng: Mutex::new(Rng64::new(seed)),
        }
    }

    /// The wrapped evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    /// Refreshes a ciphertext to the top of the chain:
    /// [`Bootstrapper::refresh_to`] at the maximum level.
    pub fn refresh(&self, ct: &Ciphertext) -> Ciphertext {
        self.refresh_to(ct, self.ev.context().max_level())
    }

    /// Refreshes a ciphertext to `level`, preserving slot values: the
    /// values are re-encoded and re-encrypted on `level + 1` limbs, for
    /// a next op entered there. The randomness of an encryption does
    /// not depend on its limb count, so the result is, byte for byte,
    /// [`Bootstrapper::refresh`] with the limbs above `level` dropped.
    ///
    /// When `slots_in_use` divides the slot count the decrypted logical
    /// vector is re-encrypted **replicated** (the [`crate::linear`]
    /// packing), so rotation-based pipelines keep working across a
    /// refresh; otherwise the remaining slots are zero.
    ///
    /// # Panics
    ///
    /// Panics if `level` is above the top of the chain.
    pub fn refresh_to(&self, ct: &Ciphertext, level: usize) -> Ciphertext {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        let ctx = self.ev.context();
        let mut values = self.ev.decrypt_values(ct, self.slots_in_use);
        if ctx.slots().is_multiple_of(self.slots_in_use) {
            values = replicate(&values, ctx.slots());
        }
        let pt = self.ev.encoder().encode(&values, ctx.scale(), level + 1);
        // The generator's state is valid between any two draws, so a
        // thread that panicked holding the lock leaves nothing to
        // repair: one request's panic must not fail every later refresh.
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        self.ev.encrypt(&pt, &mut rng)
    }

    /// Number of refreshes performed so far.
    pub fn refresh_count(&self) -> usize {
        self.refreshes.load(Ordering::Relaxed)
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

    #[test]
    fn fresh_ciphertext_is_clean() {
        let (ev, mut rng) = setup(51);
        let vals = vec![0.5, -0.25, 1.0];
        let ct = ev.encrypt_values(&vals, &mut rng);
        let rep = measure_noise(&ev, &ct, &vals);
        assert!(rep.max_abs_error < 1e-4, "{rep:?}");
        assert!(rep.clean_bits > 13.0, "{rep:?}");
        assert!(rep.mean_abs_error <= rep.max_abs_error);
    }

    #[test]
    fn noise_grows_with_depth() {
        let (ev, mut rng) = setup(52);
        let x = 0.9f64;
        let mut ct = ev.encrypt_values(&[x], &mut rng);
        let fresh = measure_noise(&ev, &ct, &[x]).max_abs_error;
        let mut expect = x;
        for _ in 0..3 {
            ct = ev.square(&ct);
            ev.rescale(&mut ct);
            expect *= expect;
        }
        let deep = measure_noise(&ev, &ct, &[expect]).max_abs_error;
        assert!(deep > fresh, "deep {deep} vs fresh {fresh}");
    }

    #[test]
    fn refresh_restores_top_level() {
        let (ev, mut rng) = setup(53);
        let keys_levels = ev.context().max_level();
        let vals = vec![0.7, -0.2];
        let mut ct = ev.encrypt_values(&vals, &mut rng);
        // Burn most of the chain.
        for _ in 0..keys_levels - 1 {
            ct = ev.mul_const(&ct, 1.0);
        }
        assert_eq!(ct.level(), 1);
        let bs = Bootstrapper::new(ev.clone(), 2, 99);
        let fresh = bs.refresh(&ct);
        assert_eq!(fresh.level(), keys_levels);
        assert_eq!(bs.refresh_count(), 1);
        let rep = measure_noise(&ev, &fresh, &vals);
        assert!(rep.max_abs_error < 1e-3, "{rep:?}");
    }

    #[test]
    fn refreshing_to_a_level_is_the_full_refresh_truncated() {
        let (ev, mut rng) = setup(56);
        let vals = vec![0.3, -0.6, 0.9, 0.1];
        let ct = ev.mul_const(&ev.encrypt_values(&vals, &mut rng), 1.0);
        for level in [0, 3, ev.context().max_level()] {
            let mut full = Bootstrapper::new(ev.clone(), 4, 21).refresh(&ct);
            full.drop_to(level + 1);
            let at = Bootstrapper::new(ev.clone(), 4, 21).refresh_to(&ct, level);
            assert_eq!(at.level(), level);
            for (a, f) in [(&at.c0, &full.c0), (&at.c1, &full.c1)] {
                assert_eq!(a.limbs().collect::<Vec<_>>(), f.limbs().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_poisoned_refresh_lock_still_refreshes() {
        // A thread that panics while holding the generator's lock
        // poisons the mutex; later refreshes must still decrypt to the
        // values they were given.
        let (ev, mut rng) = setup(57);
        let vals = vec![0.4, -0.7];
        let ct = ev.mul_const(&ev.encrypt_values(&vals, &mut rng), 1.0);
        let bs = Bootstrapper::new(ev.clone(), 2, 13);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = bs.rng.lock().unwrap();
                panic!("a serving thread dies holding the generator");
            })
            .join()
        });
        assert!(panicked.is_err() && bs.rng.is_poisoned());
        for fresh in [bs.refresh(&ct), bs.refresh_to(&ct, 2)] {
            let rep = measure_noise(&ev, &fresh, &vals);
            assert!(rep.max_abs_error < 1e-3, "{rep:?}");
        }
        assert_eq!(bs.refresh_count(), 2);
    }

    #[test]
    fn deep_paf_with_bootstrap_matches_shallow() {
        // Evaluate x^16 twice: once within budget, once forcing a
        // refresh in the middle; values must agree.
        let (ev, mut rng) = setup(55);
        let x = 0.8f64;
        let want = x.powi(16);
        let ct = ev.encrypt_values(&[x], &mut rng);
        let bs = Bootstrapper::new(ev.clone(), 1, 11);
        let mut a = ct.clone();
        for _ in 0..4 {
            a = ev.square(&a);
            ev.rescale(&mut a);
        }
        let mut b = ct.clone();
        for i in 0..4 {
            if i == 2 {
                b = bs.refresh(&b);
            }
            b = ev.square(&b);
            ev.rescale(&mut b);
        }
        let va = ev.decrypt_values(&a, 1)[0];
        let vb = ev.decrypt_values(&b, 1)[0];
        assert!((va - want).abs() < 2e-2, "{va} vs {want}");
        assert!((vb - want).abs() < 2e-2, "{vb} vs {want}");
        assert_eq!(bs.refresh_count(), 1);
    }
}
