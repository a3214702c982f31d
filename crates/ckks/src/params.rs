//! Parameter presets.
//!
//! **Security disclaimer:** this crate is a *performance and accuracy
//! simulator* for the SMART-PAF experiments, not a hardened FHE
//! library. The presets trade ring dimension for wall-clock speed, so
//! most of them fall well short of 128-bit security. Use
//! [`CkksParams::paper_scale`] for parameters matching the paper's
//! SEAL configuration (N = 32768, ~881-bit modulus).

use crate::modular::{ntt_primes, ntt_primes_excluding};
use crate::rns::CkksContext;
use std::sync::Arc;

/// A CKKS parameter preset: ring dimension, modulus chain layout and
/// encoding scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkksParams {
    /// Ring dimension (power of two).
    pub n: usize,
    /// Bit size of the base (decode) prime, above `scale_prime_bits`.
    /// A result decoded on one limb — where the level schedule leaves
    /// every result — must hold `|v| < q₀/(2Δ)`: about `2⁹` at the
    /// presets' 50-bit base prime and Δ = 2⁴⁰ (`2¹⁹` at 60 bits).
    pub base_prime_bits: u32,
    /// Bit size of each rescaling prime.
    pub scale_prime_bits: u32,
    /// Number of rescaling primes = supported multiplication depth.
    pub depth: usize,
    /// Key-switch gadget digit size ω in RNS limbs, `1..=8`: ω limbs
    /// group per digit against ω special primes, so a ciphertext with
    /// `L` limbs pays `⌈L/ω⌉` key-switch components.
    pub ks_digit_limbs: usize,
}

/// Largest supported hybrid digit size. The fast base conversion sums
/// ω products of two sub-2^62 residues in a `u128`; ω ≤ 8 keeps the
/// sum below 2^127 with no intermediate reduction, and within the 15
/// products below 2^100 a lane of the IFMA dot kernel holds.
pub const MAX_KS_DIGIT_LIMBS: usize = 8;

impl CkksParams {
    /// Tiny parameters for unit tests: N = 256, depth 12.
    pub fn toy() -> Self {
        CkksParams {
            n: 256,
            base_prime_bits: 50,
            scale_prime_bits: 40,
            depth: 12,
            ks_digit_limbs: 3,
        }
    }

    /// Default working parameters: N = 4096, depth 12 — enough for the
    /// 27-degree comparator's depth-10 sign evaluation plus the ReLU
    /// construction multiply, with margin.
    ///
    /// The serving presets ([`Self::toy`], this one and
    /// [`Self::benchmark`]) put every prime — chain and special — below
    /// `2^50`, where every transform and every key-switch base
    /// conversion and inner product runs on the AVX-512 IFMA kernels
    /// when the CPU has them ([`crate::NttTable::kernel`]).
    pub fn default_params() -> Self {
        CkksParams {
            n: 4096,
            base_prime_bits: 50,
            scale_prime_bits: 40,
            depth: 12,
            ks_digit_limbs: 3,
        }
    }

    /// Benchmark parameters: N = 8192, depth 12. Latency trends match
    /// the paper's setup at roughly quarter cost per ring op.
    pub fn benchmark() -> Self {
        CkksParams {
            n: 8192,
            base_prime_bits: 50,
            scale_prime_bits: 40,
            depth: 12,
            ks_digit_limbs: 3,
        }
    }

    /// Paper-matching scale: N = 32768 with ~881 modulus bits
    /// (60 + 20×40 = 860), the configuration the paper used in SEAL.
    /// Slow; opt-in for headline latency reproduction.
    pub fn paper_scale() -> Self {
        CkksParams {
            n: 32768,
            base_prime_bits: 60,
            scale_prime_bits: 40,
            depth: 20,
            ks_digit_limbs: 3,
        }
    }

    /// Total modulus bits in the chain.
    pub fn modulus_bits(&self) -> u32 {
        self.base_prime_bits + self.scale_prime_bits * self.depth as u32
    }

    /// Checks the conditions every consumer of the parameters relies
    /// on: `n` a power of two ≥ 8, both prime sizes in
    /// `(log2(2n), 62]` bits (an NTT-friendly prime exceeds `2n`; the
    /// kernels need moduli below 2^62), a base prime wider than the
    /// scale primes (at equal widths both prime scans start at the same
    /// prime, and a narrower one wraps every decoded result) and
    /// `ks_digit_limbs` in `1..=MAX_KS_DIGIT_LIMBS`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.n.is_power_of_two() || self.n < 8 {
            return Err(format!(
                "ring dimension {} is not a power of two >= 8",
                self.n
            ));
        }
        let log_2n = self.n.ilog2() + 1;
        for (name, bits) in [
            ("base_prime_bits", self.base_prime_bits),
            ("scale_prime_bits", self.scale_prime_bits),
        ] {
            if bits <= log_2n || bits > 62 {
                return Err(format!("{name} {bits} is outside ({log_2n}, 62]"));
            }
        }
        if self.base_prime_bits <= self.scale_prime_bits {
            return Err(format!(
                "base_prime_bits {} is not above scale_prime_bits {}",
                self.base_prime_bits, self.scale_prime_bits
            ));
        }
        if self.ks_digit_limbs == 0 || self.ks_digit_limbs > MAX_KS_DIGIT_LIMBS {
            return Err(format!(
                "ks_digit_limbs {} is outside 1..={MAX_KS_DIGIT_LIMBS}",
                self.ks_digit_limbs
            ));
        }
        Ok(())
    }

    /// Builds the runtime context: generates the chain primes, the ω
    /// special primes (same bit size as the larger chain prime,
    /// disjoint from the chain) that back the key-switch gadget, and
    /// the NTT tables.
    ///
    /// # Panics
    ///
    /// Panics with [`CkksParams::validate`]'s message on invalid
    /// parameters.
    pub fn build(&self) -> Arc<CkksContext> {
        if let Err(message) = self.validate() {
            panic!("invalid CKKS parameters: {message}");
        }
        let mut primes = ntt_primes(self.base_prime_bits, 1, self.n);
        primes.extend(ntt_primes(self.scale_prime_bits, self.depth, self.n));
        let scale = 2f64.powi(self.scale_prime_bits as i32);
        let bits = self.base_prime_bits.max(self.scale_prime_bits);
        let special = ntt_primes_excluding(bits, self.ks_digit_limbs, self.n, &primes);
        CkksContext::with_special_primes(self.n, primes, special, scale)
    }
}

impl CkksContext {
    /// The parameters this context's shape answers to: ring dimension,
    /// chain depth and key-switch digit size (the special-prime count)
    /// are the context's own, and the two bit sizes are the bit lengths
    /// of its base prime and its last chain prime. [`CkksParams::build`]
    /// round-trips every preset; whatever the primes, the first three
    /// are exact, and they are all [`crate::cost`] reads — which is
    /// what lets a backend holding only an evaluator price a schedule
    /// exactly as the plan did.
    pub fn params(&self) -> CkksParams {
        let bits = |p: &u64| u64::BITS - p.leading_zeros();
        CkksParams {
            n: self.n(),
            base_prime_bits: bits(&self.primes()[0]),
            scale_prime_bits: bits(self.primes().last().expect("a chain has a prime")),
            depth: self.max_level(),
            ks_digit_limbs: self.special_primes().len(),
        }
    }
}

// `validate` runs on read, so a corrupt artifact is a parse error
// rather than a panic in `build()` later.
serde::wire_struct!(CkksParams { n, base_prime_bits, scale_prime_bits, depth, ks_digit_limbs }
    check CkksParams::validate);

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn serde_round_trip_and_validation() {
        let p = CkksParams::toy();
        let text = serde::json::to_string(&p.serialize());
        assert_eq!(
            CkksParams::deserialize(&serde::json::from_str(&text).unwrap()).unwrap(),
            p
        );
        for bad in [
            r#"{"n":300,"base_prime_bits":60,"scale_prime_bits":40,"depth":12,"ks_digit_limbs":3}"#,
            r#"{"n":256,"base_prime_bits":63,"scale_prime_bits":40,"depth":12,"ks_digit_limbs":3}"#,
            r#"{"n":256,"base_prime_bits":60,"depth":12,"ks_digit_limbs":3}"#,
            r#"{"n":256,"base_prime_bits":60,"scale_prime_bits":40,"depth":12,"ks_digit_limbs":9}"#,
            r#"{"n":256,"base_prime_bits":60,"scale_prime_bits":40,"depth":12}"#,
            r#"{"n":256,"base_prime_bits":60,"scale_prime_bits":40,"depth":12,"ks_digit_limbs":0}"#,
            r#"{"n":256,"base_prime_bits":60,"scale_prime_bits":0,"depth":12,"ks_digit_limbs":3}"#,
            r#"{"n":256,"base_prime_bits":40,"scale_prime_bits":40,"depth":12,"ks_digit_limbs":3}"#,
        ] {
            let v = serde::json::from_str(bad).unwrap();
            assert!(CkksParams::deserialize(&v).is_err(), "{bad}");
        }
        // At equal widths the base prime would be the first scale prime.
        let equal = CkksParams {
            base_prime_bits: 40,
            ..CkksParams::toy()
        };
        assert_eq!(
            equal.validate(),
            Err("base_prime_bits 40 is not above scale_prime_bits 40".into())
        );
    }

    #[test]
    fn serving_presets_are_one_vector_width() {
        // Every chain and special prime of the serving presets is below
        // 2^50, the vector kernels' bound, whatever the CPU; the paper's
        // 60-bit base and special primes are not.
        let primes = |params: CkksParams| {
            let ctx = params.build();
            let mut all = ctx.primes().to_vec();
            all.extend(ctx.special_primes());
            all
        };
        for params in [
            CkksParams::toy(),
            CkksParams::default_params(),
            CkksParams::benchmark(),
        ] {
            for q in primes(params.clone()) {
                assert!(q < 1 << 50, "{params:?}: prime {q} is not below 2^50");
            }
        }
        let paper = CkksParams {
            n: 256,
            ..CkksParams::paper_scale()
        };
        let wide = primes(paper).into_iter().filter(|&q| q >= 1 << 50).count();
        assert_eq!(wide, 1 + 3, "the base prime and the three special primes");
    }

    #[test]
    fn toy_builds() {
        let ctx = CkksParams::toy().build();
        assert_eq!(ctx.n(), 256);
        assert_eq!(ctx.primes().len(), 13);
        assert_eq!(ctx.max_level(), 12);
        assert_eq!(ctx.scale(), (1u64 << 40) as f64);
        // The hybrid gadget adds ω special primes outside the chain.
        assert_eq!(ctx.special_primes().len(), 3);
        for &p in ctx.special_primes() {
            assert!(!ctx.primes().contains(&p), "special prime {p} collides");
            assert_eq!((p - 1) % (2 * 256), 0);
        }
    }

    #[test]
    fn a_context_answers_to_the_params_it_was_built_from() {
        let omega_one = CkksParams {
            ks_digit_limbs: 1,
            depth: 5,
            ..CkksParams::toy()
        };
        for params in [CkksParams::toy(), CkksParams::default_params(), omega_one] {
            assert_eq!(params.build().params(), params);
        }
    }

    #[test]
    fn default_depth_covers_comparator() {
        // 27-degree PAF: depth 10 sign + 1 for ReLU = 11 < 12.
        let p = CkksParams::default_params();
        assert!(p.depth >= 11);
    }

    #[test]
    fn primes_distinct_and_friendly() {
        let ctx = CkksParams::toy().build();
        let mut seen = std::collections::HashSet::new();
        for &q in ctx.primes() {
            assert!(seen.insert(q), "duplicate prime {q}");
            assert_eq!((q - 1) % (2 * 256), 0);
        }
    }

    #[test]
    fn paper_scale_matches_published_magnitude() {
        let p = CkksParams::paper_scale();
        assert_eq!(p.n, 32768);
        // Paper: 881 modulus bits; ours is the same magnitude.
        assert!((p.modulus_bits() as i64 - 881).abs() < 30);
    }
}
