//! Property-based tests for the CKKS substrate.

use crate::cipher::Evaluator;
use crate::keys::KeyChain;
use crate::params::CkksParams;
use proptest::prelude::*;
use smartpaf_tensor::Rng64;
use std::sync::OnceLock;

/// Key setup is expensive; share one across all property cases.
fn shared() -> &'static Evaluator {
    static EV: OnceLock<Evaluator> = OnceLock::new();
    EV.get_or_init(|| {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(777);
        let keys = KeyChain::generate(&ctx, &mut rng);
        Evaluator::new(&keys)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Homomorphic addition is exact up to noise for arbitrary slots.
    #[test]
    fn add_homomorphism(
        a in proptest::collection::vec(-2.0f64..2.0, 8),
        b in proptest::collection::vec(-2.0f64..2.0, 8),
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let out = ev.decrypt_values(&ev.add(&ca, &cb), 8);
        for i in 0..8 {
            prop_assert!((out[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    /// Homomorphic multiplication is slotwise up to noise.
    #[test]
    fn mul_homomorphism(
        a in proptest::collection::vec(-1.0f64..1.0, 8),
        b in proptest::collection::vec(-1.0f64..1.0, 8),
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let mut prod = ev.mul(&ca, &cb);
        ev.rescale(&mut prod);
        let out = ev.decrypt_values(&prod, 8);
        for i in 0..8 {
            prop_assert!(
                (out[i] - a[i] * b[i]).abs() < 1e-2,
                "slot {i}: {} vs {}", out[i], a[i] * b[i]
            );
        }
    }

    /// Encrypting different plaintexts gives different ciphertexts, and
    /// fresh randomness gives semantic-security-style non-determinism.
    #[test]
    fn encryption_randomised(v in -1.0f64..1.0, seed in 0u64..1000) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let c1 = ev.encrypt_values(&[v], &mut rng);
        let c2 = ev.encrypt_values(&[v], &mut rng);
        prop_assert_ne!(c1.c0.limb(0), c2.c0.limb(0));
        // Both decrypt to the same value.
        let d1 = ev.decrypt_values(&c1, 1)[0];
        let d2 = ev.decrypt_values(&c2, 1)[0];
        prop_assert!((d1 - v).abs() < 1e-4);
        prop_assert!((d2 - v).abs() < 1e-4);
    }

    /// mul then decrypt == decrypt then multiply (ring homomorphism
    /// composed with plain constants).
    #[test]
    fn const_mul_linear(v in -1.0f64..1.0, c in -3.0f64..3.0, seed in 0u64..1000) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let ct = ev.encrypt_values(&[v], &mut rng);
        let out = ev.decrypt_values(&ev.mul_const(&ct, c), 1)[0];
        prop_assert!((out - c * v).abs() < 1e-3, "{out} vs {}", c * v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rotation by any step count permutes slots cyclically.
    #[test]
    fn rotation_permutes_slots(
        vals in proptest::collection::vec(-1.0f64..1.0, 16),
        steps in 0usize..128,
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let ct = ev.encrypt_replicated(&vals, &mut rng);
        let rot = ev.rotate(&ct, steps as i64);
        let out = ev.decrypt_values(&rot, 16);
        for j in 0..16 {
            let want = vals[(j + steps) % 16];
            prop_assert!((out[j] - want).abs() < 5e-3, "slot {j}: {} vs {want}", out[j]);
        }
    }

    /// Left and right rotations cancel.
    #[test]
    fn rotation_inverse(
        vals in proptest::collection::vec(-1.0f64..1.0, 8),
        steps in 1i64..64,
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let ct = ev.encrypt_replicated(&vals, &mut rng);
        let back = ev.rotate(&ev.rotate(&ct, steps), -steps);
        let out = ev.decrypt_values(&back, 8);
        for j in 0..8 {
            prop_assert!((out[j] - vals[j]).abs() < 5e-3);
        }
    }

    /// Encrypted matvec agrees with the plaintext diagonal product for
    /// random matrices and vectors.
    #[test]
    fn matvec_matches_plain(
        flat in proptest::collection::vec(-1.0f64..1.0, 64),
        v in proptest::collection::vec(-1.0f64..1.0, 8),
        seed in 0u64..1000,
        use_bsgs in proptest::bool::ANY,
    ) {
        let ev = shared();
        let rows: Vec<Vec<f64>> = flat.chunks(8).map(<[f64]>::to_vec).collect();
        let mat = crate::linear::DiagMatrix::from_rows(&rows);
        let mut rng = Rng64::new(seed);
        let ct = ev.encrypt_replicated(&v, &mut rng);
        let out_ct = if use_bsgs { ev.matvec_bsgs(&mat, &ct) } else { ev.matvec(&mat, &ct) };
        let got = ev.decrypt_values(&out_ct, 8);
        let want = mat.apply_plain(&v);
        for i in 0..8 {
            prop_assert!((got[i] - want[i]).abs() < 3e-2, "slot {i}: {} vs {}", got[i], want[i]);
        }
    }

    /// Lazy-reduction NTT: forward→inverse is the identity, and
    /// pointwise multiplication in the NTT domain matches the O(n²)
    /// schoolbook negacyclic product, across random primes and ring
    /// sizes. Pins the Shoup/lazy kernels to the mathematical
    /// transform, not just to a fixed test vector.
    #[test]
    fn lazy_ntt_roundtrip_and_pointwise_mul(
        bits in 40u32..60,
        log_n in 3u32..10,
        seed in 0u64..1_000_000,
    ) {
        use crate::modular::{mul_mod, ntt_primes};
        use crate::ntt::NttTable;
        let n = 1usize << log_n;
        let q = ntt_primes(bits, 1, n)[0];
        let table = NttTable::new(q, n);
        let mut rng = Rng64::new(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.next_u64() % q).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.next_u64() % q).collect();
        // Round trip.
        let mut rt = a.clone();
        table.forward(&mut rt);
        prop_assert!(rt.iter().all(|&x| x < q), "forward must emit canonical residues");
        table.inverse(&mut rt);
        prop_assert_eq!(&rt, &a);
        // Pointwise product vs schoolbook reference.
        let mut fa = a.clone();
        let mut fb = b.clone();
        table.forward(&mut fa);
        table.forward(&mut fb);
        let mut prod: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| mul_mod(x, y, q)).collect();
        table.inverse(&mut prod);
        prop_assert_eq!(prod, table.negacyclic_mul_reference(&a, &b));
    }

    /// The NTT's two kernels return the same words: on a prime below
    /// 2^50 (which takes the vector kernel on a CPU with AVX-512
    /// IFMA), forward and inverse equal the scalar kernel's.
    #[test]
    fn ntt_kernels_agree_word_for_word(
        bits in 20u32..51,
        log_n in 4u32..14,
        seed in 0u64..1_000_000,
    ) {
        use crate::modular::ntt_primes;
        use crate::ntt::NttTable;
        let n = 1usize << log_n;
        let q = ntt_primes(bits, 1, n)[0];
        let table = NttTable::new(q, n);
        let mut rng = Rng64::new(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.next_u64() % q).collect();
        let (mut got, mut want) = (a.clone(), a.clone());
        table.forward(&mut got);
        table.forward_scalar(&mut want);
        prop_assert_eq!(&got, &want, "forward, {} kernel", table.kernel());
        let (mut got, mut want) = (a.clone(), a);
        table.inverse(&mut got);
        table.inverse_scalar(&mut want);
        prop_assert_eq!(&got, &want, "inverse, {} kernel", table.kernel());
    }

    /// Pooled execution is bit-identical to fresh allocation: the same
    /// seeded pipeline (encrypt → mul → relin → rescale → rotate →
    /// decrypt) produces byte-equal ciphertext limbs and decrypted
    /// values whether buffers come from the thread-local pool (with
    /// debug poisoning) or straight from the allocator.
    #[test]
    fn pooled_matches_fresh_allocation(
        vals in proptest::collection::vec(-1.0f64..1.0, 8),
        steps in 0i64..8,
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let run = || {
            let mut rng = Rng64::new(seed);
            let ct = ev.encrypt_replicated(&vals, &mut rng);
            let mut prod = ev.mul(&ct, &ct);
            ev.rescale(&mut prod);
            let rot = ev.rotate(&prod, steps);
            let out = ev.decrypt_values(&rot, 8);
            (rot, out)
        };
        // Warm the pool so the pooled run actually recycles buffers.
        let _ = run();
        let (ct_pooled, out_pooled) = run();
        let (ct_fresh, out_fresh) = crate::pool::with_pool_disabled(run);
        prop_assert_eq!(ct_pooled.c0.limbs().collect::<Vec<_>>(),
                        ct_fresh.c0.limbs().collect::<Vec<_>>());
        prop_assert_eq!(ct_pooled.c1.limbs().collect::<Vec<_>>(),
                        ct_fresh.c1.limbs().collect::<Vec<_>>());
        // f64 equality is intentional: the pipelines must be identical.
        prop_assert_eq!(out_pooled, out_fresh);
    }

    /// Flat-layout aliasing: `automorphism` writes every word of its
    /// pooled (unspecified-content) output buffer — a dirty recycled
    /// buffer yields exactly the same limbs as a fresh zeroed one, for
    /// random Galois elements and both evaluation domains.
    #[test]
    fn automorphism_overwrites_pooled_buffer(
        g_idx in 0usize..64,
        ntt_domain in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        use crate::rns::RnsPoly;
        let ev = shared();
        let ctx = ev.context();
        let n = ctx.n();
        let g = 2 * (g_idx % n) + 1; // odd, in 1..2n
        let mut rng = Rng64::new(seed);
        let q_min = *ctx.primes().iter().min().expect("non-empty chain");
        let coeffs: Vec<u64> = (0..n).map(|_| rng.next_u64() % q_min).collect();
        let make = || {
            let mut p = RnsPoly::from_unsigned_coeffs(ctx, &coeffs, ctx.primes().len());
            if ntt_domain {
                p.to_ntt();
            }
            p
        };
        // Churn the pool so recycled buffers carry poison/garbage.
        drop(make());
        let pooled = make().automorphism(g);
        let fresh = crate::pool::with_pool_disabled(|| make().automorphism(g));
        prop_assert_eq!(pooled.limbs().collect::<Vec<_>>(),
                        fresh.limbs().collect::<Vec<_>>());
    }

    /// The key switch lands on the true product for every digit size
    /// ω ∈ 1..=8 across random levels and ring sizes — partial last
    /// digits and ω above the live limb count included: a seeded
    /// encrypt → drop → mul → relin → rescale → decrypt.
    #[test]
    fn relinearised_product_matches_plaintext_for_every_digit_size(
        omega in 1usize..9,
        log_n in 6u32..9,
        level_limbs in 2usize..8,
        vals in proptest::collection::vec(-1.0f64..1.0, 4),
        seed in 0u64..1000,
    ) {
        let ctx = CkksParams {
            n: 1usize << log_n,
            base_prime_bits: 60,
            scale_prime_bits: 40,
            depth: 6,
            ks_digit_limbs: omega,
        }
        .build();
        let mut krng = Rng64::new(seed ^ 0x5EED);
        let keys = KeyChain::generate(&ctx, &mut krng);
        let ev = Evaluator::new(&keys);
        let mut rng = Rng64::new(seed);
        let mut ct = ev.encrypt_values(&vals, &mut rng);
        ct.drop_to(level_limbs);
        let mut prod = ev.mul(&ct, &ct);
        ev.rescale(&mut prod);
        let out = ev.decrypt_values(&prod, 4);
        for i in 0..4 {
            let want = vals[i] * vals[i];
            prop_assert!(
                (out[i] - want).abs() < 1e-2,
                "ω={omega} slot {i}: {} vs {want}", out[i]
            );
        }
    }

    /// A random odd stage — degree ≤ 15, random coefficients zeroed,
    /// input scale anywhere within 1e-4 of Δ, any entry level that
    /// fits — is `Polynomial::eval` on the slots and leaves at exactly
    /// Δ (every addend of the stage met on one scale, or the
    /// evaluator's debug assertions would have fired).
    #[test]
    fn odd_stage_matches_the_polynomial_at_any_input_scale(
        coeffs in proptest::collection::vec(-1.5f64..1.5, 1..9),
        zeroed in 0usize..256,
        off in -1e-4f64..1e-4,
        spare in 0usize..8,
        xs in proptest::collection::vec(-0.9f64..0.9, 8),
        seed in 0u64..1000,
    ) {
        use smartpaf_polyfit::Polynomial;
        let mut odd: Vec<f64> = coeffs
            .iter()
            .enumerate()
            .map(|(k, &a)| if (zeroed >> k) & 1 == 1 { 0.0 } else { a })
            .collect();
        // The leading coefficient fixes the degree.
        let top = odd.len() - 1;
        odd[top] = if coeffs[top] < 0.0 { -0.7 } else { 0.7 };
        let stage = Polynomial::from_odd(&odd);
        let ev = shared();
        let pe = crate::eval::PafEvaluator::new(ev.clone());
        let delta = ev.context().scale();
        let depth = smartpaf_polyfit::poly_mult_depth(stage.degree());
        let limbs = (depth + 1 + spare).min(13);
        let mut rng = Rng64::new(seed);
        let pt = ev.encoder().encode(&xs, delta * (1.0 + off), limbs);
        let out = pe.eval_odd_stage(&ev.encrypt(&pt, &mut rng), &stage);
        prop_assert_eq!(out.scale.to_bits(), delta.to_bits());
        prop_assert_eq!(out.num_limbs(), limbs - depth);
        let got = ev.decrypt_values(&out, 8);
        for (x, g) in xs.iter().zip(&got) {
            let want = stage.eval(*x);
            prop_assert!((g - want).abs() < 1e-6, "p({x}) = {g}, want {want}");
        }
    }

    /// Relinearising a sum of products once is relinearising each and
    /// summing: the key switch is linear.
    #[test]
    fn lazy_relinearisation_matches_eager(
        terms in 2usize..5,
        limbs in 2usize..14,
        vals in proptest::collection::vec(-1.0f64..1.0, 16),
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let products: Vec<_> = (0..terms)
            .map(|t| {
                let mut a = ev.encrypt_values(&vals[t..t + 8], &mut rng);
                let b = ev.encrypt_values(&vals[2 * t..2 * t + 8], &mut rng);
                a.drop_to(limbs);
                ev.tensor(&a, &b)
            })
            .collect();
        let mut lazy = products[0].clone();
        for p in &products[1..] {
            lazy.add_assign(p);
        }
        let lazy = ev.decrypt_values(&ev.relinearize_rescale(lazy), 8);
        let eager = products
            .into_iter()
            .map(|p| ev.relinearize_rescale(p))
            .reduce(|a, b| ev.add(&a, &b))
            .expect("at least two terms");
        for (l, e) in lazy.iter().zip(&ev.decrypt_values(&eager, 8)) {
            prop_assert!((l - e).abs() < 2f64.powi(-30), "{l} vs {e}");
        }
    }

    /// Limb-parallel kernels are byte-identical to the sequential
    /// path: the same seeded pipeline (encrypt → mul → relin →
    /// rescale → rotate) produces byte-equal ciphertext limbs for
    /// every intra-op worker budget from 1 through 8.
    #[test]
    fn limb_parallel_bit_identical_to_sequential(
        workers in 2usize..9,
        vals in proptest::collection::vec(-1.0f64..1.0, 8),
        steps in 0i64..8,
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let run = || {
            let mut rng = Rng64::new(seed);
            let ct = ev.encrypt_replicated(&vals, &mut rng);
            let mut prod = ev.mul(&ct, &ct);
            ev.rescale(&mut prod);
            let rot = ev.rotate(&prod, steps);
            let out = ev.decrypt_values(&rot, 8);
            (rot, out)
        };
        let (ct_seq, out_seq) = crate::par::with_thread_budget(1, run);
        let (ct_par, out_par) = crate::par::with_thread_budget(workers, run);
        prop_assert_eq!(ct_seq.c0.limbs().collect::<Vec<_>>(),
                        ct_par.c0.limbs().collect::<Vec<_>>());
        prop_assert_eq!(ct_seq.c1.limbs().collect::<Vec<_>>(),
                        ct_par.c1.limbs().collect::<Vec<_>>());
        // f64 equality is intentional: the paths must be identical.
        prop_assert_eq!(out_seq, out_par);
    }

    /// The NTT-domain index permutation *is* the automorphism: for
    /// random odd `g` (and conjugation) and ring sizes 2⁴–2¹², permuting
    /// a transformed limb equals transforming the coefficient-domain
    /// automorphism, byte for byte, on chain and special limbs alike.
    #[test]
    fn ntt_domain_permutation_is_the_automorphism(
        log_n in 4u32..13,
        g_idx in 0usize..4096,
        conjugate in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        use crate::rns::RnsPoly;
        let n = 1usize << log_n;
        let ctx = CkksParams {
            n,
            base_prime_bits: 60,
            scale_prime_bits: 40,
            depth: 2,
            ks_digit_limbs: 2,
        }
        .build();
        let g = if conjugate { 2 * n - 1 } else { 2 * (g_idx % n) + 1 };
        let perm = ctx.galois_perm(g);
        let mut rng = Rng64::new(seed);
        // Chain limbs, through the poly-level API.
        let p = RnsPoly::random_uniform(&ctx, ctx.primes().len(), &mut rng);
        let mut want = p.automorphism(g);
        want.to_ntt();
        let got = p.automorphism_ntt(&perm);
        prop_assert_eq!(got.limbs().collect::<Vec<_>>(), want.limbs().collect::<Vec<_>>());
        // Special limbs: the coefficient-domain map written out.
        for (l, &m) in ctx.special_primes().iter().enumerate() {
            let table = ctx.ntt_special(l);
            let coeffs: Vec<u64> = (0..n).map(|_| rng.next_u64() % m).collect();
            let mut mapped = vec![0u64; n];
            for (i, &c) in coeffs.iter().enumerate() {
                let e = (i * g) % (2 * n);
                if e < n {
                    mapped[e] = c;
                } else {
                    mapped[e - n] = if c == 0 { 0 } else { m - c };
                }
            }
            table.forward(&mut mapped);
            let mut transformed = coeffs;
            table.forward(&mut transformed);
            let permuted: Vec<u64> = perm.iter().map(|&i| transformed[i as usize]).collect();
            prop_assert_eq!(permuted, mapped, "special limb {}", l);
        }
    }

    /// Hoisting changes when the decomposition runs, never what it
    /// computes: rotating one ciphertext by many steps from one
    /// decomposition is byte-identical to rotating it one step at a
    /// time, for digit sizes ω ∈ 1..5, random levels and ring sizes,
    /// and every thread budget from 1 through 8 — and the rotations
    /// land on the right slots.
    #[test]
    fn hoisted_rotations_match_one_at_a_time(
        omega in 1usize..5,
        log_n in 5u32..9,
        level_limbs in 1usize..6,
        workers in 1usize..9,
        steps in proptest::collection::vec(-40i64..40, 1..6),
        vals in proptest::collection::vec(-1.0f64..1.0, 8),
        seed in 0u64..1000,
    ) {
        let ctx = CkksParams {
            n: 1usize << log_n,
            base_prime_bits: 60,
            scale_prime_bits: 40,
            depth: 5,
            ks_digit_limbs: omega,
        }
        .build();
        let keys = KeyChain::generate(&ctx, &mut Rng64::new(seed ^ 0x5EED));
        let ev = Evaluator::new(&keys);
        let mut ct = ev.encrypt_replicated(&vals, &mut Rng64::new(seed));
        ct.drop_to(level_limbs);
        let many = crate::par::with_thread_budget(workers, || ev.rotate_many(&ct, &steps));
        prop_assert_eq!(many.len(), steps.len());
        for (rot, &s) in many.iter().zip(&steps) {
            let one = crate::par::with_thread_budget(1, || ev.rotate(&ct, s));
            prop_assert_eq!(rot.c0.limbs().collect::<Vec<_>>(), one.c0.limbs().collect::<Vec<_>>());
            prop_assert_eq!(rot.c1.limbs().collect::<Vec<_>>(), one.c1.limbs().collect::<Vec<_>>());
            let out = ev.decrypt_values(rot, 8);
            for j in 0..8 {
                let want = vals[(j as i64 + s).rem_euclid(8) as usize];
                prop_assert!((out[j] - want).abs() < 5e-3, "step {s} slot {j}: {} vs {want}", out[j]);
            }
        }
    }

    /// A bootstrap refresh preserves slot values and restores the top
    /// level regardless of how deep the input sits.
    #[test]
    fn refresh_preserves_values(
        vals in proptest::collection::vec(-1.0f64..1.0, 8),
        burn in 0usize..6,
        seed in 0u64..1000,
    ) {
        let ev = shared();
        let mut rng = Rng64::new(seed);
        let mut ct = ev.encrypt_replicated(&vals, &mut rng);
        for _ in 0..burn {
            ct = ev.mul_const(&ct, 1.0);
        }
        let bs = crate::noise::Bootstrapper::new(ev.clone(), 8, seed ^ 0xB007);
        let fresh = bs.refresh(&ct);
        prop_assert_eq!(fresh.level(), ev.context().max_level());
        let out = ev.decrypt_values(&fresh, 8);
        for j in 0..8 {
            prop_assert!((out[j] - vals[j]).abs() < 5e-3);
        }
    }
}
