//! Galois automorphisms on ciphertexts: slot rotations and complex
//! conjugation.
//!
//! With the encoder's orbit slot ordering (slot `j` evaluates the
//! plaintext at the primitive `2n`-th root with exponent `5^j mod 2n`),
//! the automorphism `X ↦ X^{5^r}` cyclically rotates the `n/2` slots
//! left by `r`, and `X ↦ X^{2n−1}` conjugates every slot. Neither
//! consumes a level — rotations are depth-free, which is what makes
//! the diagonal matrix-vector method (see [`crate::linear`])
//! affordable inside a leveled budget.
//!
//! An automorphism is a key switch in two phases (same gadget as
//! relinearisation; docs/ARCHITECTURE.md, "Hoisted key switch"):
//!
//! - **decompose** `c1` into raised NTT-form gadget digits — work that
//!   depends on the input ciphertext only, *not* on the Galois
//!   element;
//! - **apply** one element: permute the digits (and `c0`) with that
//!   element's cached NTT-domain index table — the automorphism is a
//!   pure permutation in NTT form, no transform — then inner-product
//!   them against the element's Galois key and mod-down.
//!
//! [`Evaluator::rotate`] and [`Evaluator::apply_galois`] decompose and
//! apply once; [`Evaluator::rotate_many`] and the matvecs in
//! [`crate::linear`] decompose once and apply per rotation, so `r`
//! rotations of one ciphertext cost one decomposition, not `r`.

use crate::cipher::{Ciphertext, Evaluator, Hoisted};

/// Returns the Galois element `5^steps mod 2n` implementing a left
/// rotation by `steps` slots.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn rotation_element(n: usize, steps: usize) -> usize {
    assert!(n.is_power_of_two(), "n must be a power of two");
    let modulus = 2 * n;
    let mut acc = 1usize;
    let mut base = 5usize % modulus;
    let mut e = steps % (n / 2); // 5 has order n/2 modulo 2n
    while e > 0 {
        if e & 1 == 1 {
            acc = (acc * base) % modulus;
        }
        base = (base * base) % modulus;
        e >>= 1;
    }
    acc
}

/// The Galois element `2n − 1` implementing complex conjugation.
pub fn conjugation_element(n: usize) -> usize {
    2 * n - 1
}

impl Evaluator {
    /// Applies the automorphism `X ↦ X^g` to a ciphertext and
    /// key-switches the result back under the original secret key.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid odd Galois element.
    pub fn apply_galois(&self, ct: &Ciphertext, g: usize) -> Ciphertext {
        if g == 1 {
            return ct.clone();
        }
        self.apply_galois_hoisted(ct, &self.decompose(&ct.c1), g)
    }

    /// [`Evaluator::apply_galois`] given `ct.c1`'s decomposition: the
    /// per-element half of the key switch only. `c0` is permuted in
    /// NTT form with the same index table as the digits.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid odd Galois element or `hoisted`
    /// was decomposed at another level.
    fn apply_galois_hoisted(&self, ct: &Ciphertext, hoisted: &Hoisted, g: usize) -> Ciphertext {
        assert_eq!(
            hoisted.num_limbs(),
            ct.num_limbs(),
            "hoisted level mismatch"
        );
        let perm = self.context().galois_perm(g);
        let key = self.keys().galois_key(g, ct.num_limbs());
        let (k0, k1) = self.apply_key(hoisted, &key, Some(&perm));
        let mut c0 = ct.c0.automorphism_ntt(&perm);
        c0.add_assign(&k0);
        Ciphertext {
            c0,
            c1: k1,
            scale: ct.scale,
        }
    }

    /// The Galois element of a left rotation by `steps` slots
    /// (negative = right); 1 when the rotation is the identity.
    fn rotation_element_of(&self, steps: i64) -> usize {
        let r = steps.rem_euclid(self.context().slots() as i64) as usize;
        rotation_element(self.context().n(), r)
    }

    /// Rotates the slot vector left by `steps` (negative = right).
    ///
    /// Rotation is cyclic over all `n/2` slots; to rotate a shorter
    /// vector of length `m` cyclically, replicate it to fill the slots
    /// (see [`Evaluator::encrypt_replicated`]).
    pub fn rotate(&self, ct: &Ciphertext, steps: i64) -> Ciphertext {
        self.apply_galois(ct, self.rotation_element_of(steps))
    }

    /// Rotates one ciphertext by each of `steps`, decomposing it once:
    /// element `i` of the result is byte-identical to
    /// `rotate(ct, steps[i])`, at the cost of one decomposition plus
    /// one key application per non-identity step. The applications fan
    /// out across [`crate::par`].
    pub fn rotate_many(&self, ct: &Ciphertext, steps: &[i64]) -> Vec<Ciphertext> {
        let elements: Vec<usize> = steps.iter().map(|&s| self.rotation_element_of(s)).collect();
        let hoisted = elements
            .iter()
            .any(|&g| g != 1)
            .then(|| self.decompose(&ct.c1));
        crate::par::map(elements.len(), |i| match &hoisted {
            Some(h) if elements[i] != 1 => self.apply_galois_hoisted(ct, h, elements[i]),
            _ => ct.clone(),
        })
    }

    /// Conjugates every slot. For real-valued slots this is the
    /// identity up to noise — a useful self-check.
    pub fn conjugate(&self, ct: &Ciphertext) -> Ciphertext {
        self.apply_galois(ct, conjugation_element(self.context().n()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyChain;
    use crate::params::CkksParams;
    use smartpaf_tensor::Rng64;

    fn setup(seed: u64) -> (Evaluator, Rng64) {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        (Evaluator::new(&keys), rng)
    }

    fn ramp(slots: usize) -> Vec<f64> {
        (0..slots)
            .map(|i| (i as f64 - slots as f64 / 2.0) / slots as f64)
            .collect()
    }

    #[test]
    fn rotation_element_values() {
        let n = 256;
        assert_eq!(rotation_element(n, 0), 1);
        assert_eq!(rotation_element(n, 1), 5);
        assert_eq!(rotation_element(n, 2), 25);
        // Order of 5 mod 2n is n/2: a full cycle is the identity.
        assert_eq!(rotation_element(n, n / 2), 1);
    }

    #[test]
    fn rotate_by_one_shifts_slots_left() {
        let (ev, mut rng) = setup(31);
        let slots = ev.context().slots();
        let vals = ramp(slots);
        let ct = ev.encrypt_values(&vals, &mut rng);
        let rot = ev.rotate(&ct, 1);
        let out = ev.decrypt_values(&rot, slots);
        for j in 0..slots {
            let want = vals[(j + 1) % slots];
            assert!(
                (out[j] - want).abs() < 5e-3,
                "slot {j}: {} vs {want}",
                out[j]
            );
        }
    }

    #[test]
    fn rotate_by_arbitrary_steps() {
        let (ev, mut rng) = setup(32);
        let slots = ev.context().slots();
        let vals = ramp(slots);
        let ct = ev.encrypt_values(&vals, &mut rng);
        for &r in &[3usize, 17, slots - 1] {
            let rot = ev.rotate(&ct, r as i64);
            let out = ev.decrypt_values(&rot, slots);
            for j in (0..slots).step_by(7) {
                let want = vals[(j + r) % slots];
                assert!(
                    (out[j] - want).abs() < 5e-3,
                    "r={r} slot {j}: {} vs {want}",
                    out[j]
                );
            }
        }
    }

    #[test]
    fn negative_rotation_is_right_shift() {
        let (ev, mut rng) = setup(33);
        let slots = ev.context().slots();
        let vals = ramp(slots);
        let ct = ev.encrypt_values(&vals, &mut rng);
        let rot = ev.rotate(&ct, -2);
        let out = ev.decrypt_values(&rot, slots);
        for j in 0..slots {
            let want = vals[(j + slots - 2) % slots];
            assert!((out[j] - want).abs() < 5e-3, "slot {j}");
        }
    }

    #[test]
    fn rotations_compose() {
        let (ev, mut rng) = setup(34);
        let slots = ev.context().slots();
        let vals = ramp(slots);
        let ct = ev.encrypt_values(&vals, &mut rng);
        let a = ev.rotate(&ev.rotate(&ct, 3), 4);
        let b = ev.rotate(&ct, 7);
        let oa = ev.decrypt_values(&a, slots);
        let ob = ev.decrypt_values(&b, slots);
        for j in (0..slots).step_by(11) {
            assert!((oa[j] - ob[j]).abs() < 5e-3, "slot {j}");
        }
    }

    #[test]
    fn rotation_preserves_level_and_scale() {
        let (ev, mut rng) = setup(35);
        let ct = ev.encrypt_values(&[0.5, -0.5], &mut rng);
        let rot = ev.rotate(&ct, 1);
        assert_eq!(rot.num_limbs(), ct.num_limbs());
        assert_eq!(rot.scale, ct.scale);
    }

    #[test]
    fn conjugate_is_identity_on_real_slots() {
        let (ev, mut rng) = setup(36);
        let slots = ev.context().slots();
        let vals = ramp(slots);
        let ct = ev.encrypt_values(&vals, &mut rng);
        let conj = ev.conjugate(&ct);
        let out = ev.decrypt_values(&conj, slots);
        for j in (0..slots).step_by(9) {
            assert!((out[j] - vals[j]).abs() < 5e-3, "slot {j}");
        }
    }

    #[test]
    fn rotate_zero_steps_is_clone() {
        let (ev, mut rng) = setup(37);
        let ct = ev.encrypt_values(&[1.0, 2.0], &mut rng);
        let rot = ev.rotate(&ct, 0);
        let out = ev.decrypt_values(&rot, 2);
        assert!((out[0] - 1.0).abs() < 1e-4);
        assert!((out[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn rotation_commutes_with_addition() {
        // rot(a + b) = rot(a) + rot(b): automorphisms are additive.
        let (ev, mut rng) = setup(38);
        let slots = ev.context().slots();
        let va = ramp(slots);
        let vb: Vec<f64> = va.iter().map(|v| 0.3 - v).collect();
        let ca = ev.encrypt_values(&va, &mut rng);
        let cb = ev.encrypt_values(&vb, &mut rng);
        let lhs = ev.rotate(&ev.add(&ca, &cb), 5);
        let rhs = ev.add(&ev.rotate(&ca, 5), &ev.rotate(&cb, 5));
        let ol = ev.decrypt_values(&lhs, slots);
        let or = ev.decrypt_values(&rhs, slots);
        for j in (0..slots).step_by(13) {
            assert!((ol[j] - or[j]).abs() < 2e-3, "slot {j}");
        }
    }

    #[test]
    fn rotated_product_matches_plaintext() {
        // Rotations after a genuine multiply+rescale still decrypt
        // correctly (exercises Galois keys at a reduced level).
        let (ev, mut rng) = setup(39);
        let slots = ev.context().slots();
        let va = ramp(slots);
        let vb: Vec<f64> = va.iter().map(|v| 1.0 - v.abs()).collect();
        let ca = ev.encrypt_values(&va, &mut rng);
        let cb = ev.encrypt_values(&vb, &mut rng);
        let mut prod = ev.mul(&ca, &cb);
        ev.rescale(&mut prod);
        let rot = ev.rotate(&prod, 4);
        let out = ev.decrypt_values(&rot, slots);
        for j in (0..slots).step_by(17) {
            let want = va[(j + 4) % slots] * vb[(j + 4) % slots];
            assert!(
                (out[j] - want).abs() < 2e-2,
                "slot {j}: {} vs {want}",
                out[j]
            );
        }
    }
}
