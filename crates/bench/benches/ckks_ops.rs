//! Criterion benchmarks of CKKS primitive operations — the cost model
//! behind every latency number in the paper reproduction.
//!
//! Covers the raw-speed hot path end to end: the lazy-reduction NTT at
//! three ring sizes on uniformly random residues (plus one row on the
//! structured input, for the ratio, and a 60-bit-prime pair at N = 4096
//! for the scalar kernel beside the vector one), and the ciphertext pipeline
//! (encrypt, add, mul+relin, rescale, rotate, mul_const, and the pointwise
//! ring products alone: `tensor`, `mul_plain`) at N = 4096 and N = 8192,
//! with the cold-start path beside it (`encode`, `decrypt_values`,
//! `refresh_to_l7`, and the relinearisation and Galois keys on 8 limbs,
//! `relin_key_l8` and `galois_key_l8`, each on a key chain that has
//! generated no key yet),
//! with the key-switch gadget's digit count and the host core count
//! recorded as group metadata, the two key-switching ops again on 7 of
//! the 13 limbs (`…/n4096_l7`: the per-level ratio the level schedule's
//! price is held to) and a 13-limb plus 7-limb add (`add/n4096_l13_l7`),
//! plus the PAF-ReLU (`relu_f1g2`) and the
//! 2×2 max-pool fold (`pool_fold_2x2`) every CNN inference runs, and
//! the CNN's linear head interleaved across 32 lanes on 2 limbs
//! (`matvec_bsgs_interleaved_x32`), the packed server's affine. `bench_hoist` fails the bench
//! unless 8 hoisted rotations of one ciphertext run 1 key-switch
//! decomposition and 8 applications, against 8 of each standalone,
//! and prints the two paths' timed ratio.
//! Emits `BENCH_ckks.json` through the criterion shim's JSON hook; CI
//! diffs a timed run against the committed
//! `BENCH_ckks.reference.json` so hot-path regressions fail the build.

use criterion::{criterion_group, criterion_main, Criterion};
use smartpaf_ckks::modular::ntt_primes;
use smartpaf_ckks::{
    cost, galois, par, take_key_switch_counts, Bootstrapper, Ciphertext, CkksContext, CkksParams,
    DiagMatrix, Evaluator, KeyChain, NttTable, PafEvaluator,
};
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Rng64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The transforms on what the system feeds them: a ciphertext residue
/// is uniform in `[0, q)`, and on a kernel whose modular corrections
/// are branches that is the slow case. Every timed call gets a vector
/// it has not seen (a predictor that has met one before replays it).
/// `ntt_forward_structured_4096` keeps the arithmetic-progression input
/// these rows used to have; the ratio of `ntt_forward_4096` to it is
/// ≈ 1 while the corrections are selects and ≈ 1.6 when one has
/// turned back into a branch.
///
/// The rows without a suffix run on a 40-bit scale prime, which takes
/// the AVX-512 IFMA kernel on a CPU that has it; the `_q60` pair runs
/// on a 60-bit prime, which always takes the scalar kernel, so a run
/// shows both kernels side by side. Each table's kernel is printed.
fn bench_ntt(c: &mut Criterion) {
    // One input per timed call of a row: the shim's warm-up + 10 samples.
    const INPUTS: usize = 11;
    let mut rng = Rng64::new(0x5EED_0177);
    let tables = [(2048usize, 40u32), (4096, 40), (8192, 40), (4096, 60)];
    for (n, bits) in tables {
        let q = ntt_primes(bits, 1, n)[0];
        let table = NttTable::new(q, n);
        println!("ntt n={n} {bits}-bit q: {} kernel", table.kernel());
        let random: Vec<Vec<u64>> = (0..INPUTS)
            .map(|_| (0..n).map(|_| rng.next_u64() % q).collect())
            .collect();
        let structured = vec![(0..n).map(|i| (i as u64 * 7919) % q).collect::<Vec<u64>>()];
        let suffix = if bits == 40 {
            String::new()
        } else {
            format!("_q{bits}")
        };
        let mut rows = vec![
            (format!("ntt_forward_{n}{suffix}"), true, &random),
            (format!("ntt_inverse_{n}{suffix}"), false, &random),
        ];
        if (n, bits) == (4096, 40) {
            rows.insert(1, ("ntt_forward_structured_4096".into(), true, &structured));
        }
        for (id, forward, inputs) in rows {
            let mut next = inputs.iter().cycle();
            c.bench_function(&id, |b| {
                b.iter(|| {
                    let mut a = next.next().expect("non-empty").clone();
                    if forward {
                        table.forward(&mut a);
                    } else {
                        table.inverse(&mut a);
                    }
                    std::hint::black_box(a);
                })
            });
        }
    }
}

/// Host logical-core count (what `BatchRunner::auto` would see without
/// an env override), recorded so bench consumers can tell a 1-core
/// recording from a many-core one.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn bench_cipher_ops_at(c: &mut Criterion, params: CkksParams) {
    let n = params.n;
    let top_limbs = params.depth + 1;
    let mut g = c.benchmark_group(format!("ckks_n{n}"));
    g.meta("ks_digit_limbs", params.ks_digit_limbs)
        .meta("digits", cost::hybrid_digits(&params, top_limbs))
        .meta("cores", host_cores())
        .meta("threads", par::max_intra_workers());
    let ctx = params.build();
    let mut rng = Rng64::new(1);
    let keys = KeyChain::generate(&ctx, &mut rng);
    let ev = Evaluator::new(&keys);
    let vals: Vec<f64> = (0..64).map(|i| i as f64 / 64.0 - 0.5).collect();
    let ct = ev.encrypt_values(&vals, &mut rng);
    // Warm up the relin/rotation key caches and the thread-local buffer
    // pool so every measurement sees steady-state (allocation-free)
    // cost.
    let _ = ev.rotate(&ev.mul(&ct, &ct), 1);

    g.bench_function("encrypt", |b| {
        let pt = ev.encoder().encode(&vals, ctx.scale(), ctx.primes().len());
        let mut r = Rng64::new(2);
        b.iter(|| std::hint::black_box(ev.encrypt(&pt, &mut r)))
    });
    // What a request pays around its evaluation, and a tenant before
    // its first answer: an encoding, a decrypt + decode, a refresh to
    // level 7, and the switching keys first generated on 8 limbs.
    g.bench_function("encode", |b| {
        b.iter(|| std::hint::black_box(ev.encoder().encode(&vals, ctx.scale(), ctx.primes().len())))
    });
    g.bench_function("decrypt_values", |b| {
        b.iter(|| std::hint::black_box(ev.decrypt_values(&ct, vals.len())))
    });
    let bootstrapper = Bootstrapper::new(ev.clone(), vals.len(), 4);
    g.bench_function("refresh_to_l7", |b| {
        b.iter(|| std::hint::black_box(bootstrapper.refresh_to(&ct, 7)))
    });
    let rotation = galois::rotation_element(n, 1);
    for (id, galois) in [("relin_key_l8", None), ("galois_key_l8", Some(rotation))] {
        // Used chains are dropped after the row, not inside a sample.
        let (mut fresh, mut used) = (fresh_chains(&ctx), Vec::new());
        g.bench_function(id, |b| {
            b.iter(|| {
                let kc = fresh.pop().expect("one fresh key chain per timed call");
                let key = std::hint::black_box(match galois {
                    None => kc.relin_key(8),
                    Some(g) => kc.galois_key(g, 8),
                });
                used.push(kc);
                key
            })
        });
    }
    g.bench_function("add", |b| b.iter(|| std::hint::black_box(ev.add(&ct, &ct))));
    // The pointwise ring products with no key switch around them: the
    // tensor's four products (its cross term one two-product sum) and a
    // plaintext multiply's two.
    g.bench_function("tensor", |b| {
        b.iter(|| std::hint::black_box(ev.tensor(&ct, &ct)))
    });
    let pt = ev.encoder().encode(&vals, ctx.scale(), ctx.primes().len());
    g.bench_function("mul_plain", |b| {
        b.iter(|| std::hint::black_box(ev.mul_plain(&ct, &pt)))
    });
    g.bench_function("mul_relin", |b| {
        b.iter(|| std::hint::black_box(ev.mul(&ct, &ct)))
    });
    // Rescale alone: the clone is microseconds (pooled memcpy) against
    // a milliseconds-scale rescale, so the id still tracks the RNS
    // basis drop.
    let prod = ev.mul(&ct, &ct);
    g.bench_function("rescale", |b| {
        b.iter(|| {
            let mut p = prod.clone();
            ev.rescale(&mut p);
            std::hint::black_box(p)
        })
    });
    // The product as the PAF evaluator takes it: one division by
    // P·q_last (compare `mul_relin` + `rescale`).
    g.bench_function("mul_relin_rescale", |b| {
        b.iter(|| std::hint::black_box(ev.relinearize_rescale(ev.tensor(&ct, &ct))))
    });
    g.bench_function("rotate", |b| {
        b.iter(|| std::hint::black_box(ev.rotate(&ct, 1)))
    });
    g.bench_function("mul_const", |b| {
        b.iter(|| std::hint::black_box(ev.mul_const(&ct, 0.5)))
    });
    // Eight rotations of one ciphertext: one decomposition, eight key
    // applications (compare 8 × `rotate`).
    let _ = ev.rotate_many(&ct, &HOISTED_STEPS); // Galois keys + index tables
    g.bench_function("rotate_hoisted_x8", |b| {
        b.iter(|| std::hint::black_box(ev.rotate_many(&ct, &HOISTED_STEPS)))
    });
    // Dense 16×16 BSGS product: 3 hoisted baby steps + 3 giant steps.
    let dense: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            (0..16)
                .map(|j| ((i * 16 + j) % 7) as f64 / 7.0 - 0.4)
                .collect()
        })
        .collect();
    let mat = DiagMatrix::from_rows(&dense);
    let _ = ev.matvec_bsgs(&mat, &ct); // diagonal encodings + Galois keys
    g.bench_function("matvec_bsgs_16x16", |b| {
        b.iter(|| std::hint::black_box(ev.matvec_bsgs(&mat, &ct)))
    });
}

/// Timed samples per benchmark, set on the whole group.
const SAMPLES: usize = 10;

/// Key chains that have generated no switching key, one per call of a
/// key row (the untimed warm-up + [`SAMPLES`]): a key row times a key's
/// generation, not a cache hit.
fn fresh_chains(ctx: &Arc<CkksContext>) -> Vec<Arc<KeyChain>> {
    (0..SAMPLES as u64 + 1)
        .map(|seed| KeyChain::generate(ctx, &mut Rng64::new(100 + seed)))
        .collect()
}

/// The eight rotation steps of the hoisting rows and gate.
const HOISTED_STEPS: [i64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

fn bench_cipher_ops(c: &mut Criterion) {
    bench_cipher_ops_at(c, CkksParams::default_params());
    bench_cipher_ops_at(c, CkksParams::benchmark());
}

/// The PAF evaluator's two composite ops under f1∘g2 on the default
/// ring. `relu_f1g2`: one PAF-ReLU entered on the 7 limbs it consumes,
/// as the level schedule enters it. `pool_fold_2x2`: the 2×2 max pool
/// of an 8×8 activation as `heinfer` folds it — rotate by 1, PAF-max,
/// rotate by a row, PAF-max, on one ciphertext from the top of the
/// 13-limb chain to its last limb (6 levels per PAF-max).
fn bench_paf_ops(c: &mut Criterion) {
    let params = CkksParams::default_params();
    let mut rng = Rng64::new(3);
    let keys = KeyChain::generate(&params.build(), &mut rng);
    let pe = PafEvaluator::new(Evaluator::new(&keys));
    let paf = CompositePaf::from_form(PafForm::F1G2);
    let vals: Vec<f64> = (0..64)
        .map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.5)
        .collect();
    let ct = pe.evaluator().encrypt_replicated(&vals, &mut rng);
    let mut entered = ct.clone();
    entered.drop_to(PafEvaluator::relu_depth(&paf) + 1);
    let relu = || pe.relu(&entered, &paf);
    let fold = || {
        let mut v = ct.clone();
        for step in [1, 8] {
            let shifted = pe.evaluator().rotate(&v, step);
            v = pe.max(&v, &shifted, &paf);
        }
        v
    };
    // Relin and Galois keys at every level the two ops touch.
    let _ = (relu(), fold());
    let ops: [(&str, &dyn Fn() -> Ciphertext); 2] =
        [("relu_f1g2", &relu), ("pool_fold_2x2", &fold)];
    for (name, op) in ops {
        let mut g = c.benchmark_group(name);
        g.meta("ks_digit_limbs", params.ks_digit_limbs)
            .meta("cores", host_cores())
            .meta("threads", par::max_intra_workers());
        g.bench_function(format!("n{}", params.n), |b| {
            b.iter(|| std::hint::black_box(op()))
        });
    }
}

/// The two key-switching ops of `ckks_n4096` again, on the same
/// ciphertext dropped to 7 of its 13 limbs: the per-level point the
/// level schedule's price relies on. It places refreshes so the
/// benchmark CNN's PAF-max folds enter on 7 and 8 limbs instead of 13
/// and 7; `mul_relin_rescale` at 13 limbs over this row is the ratio
/// `cost::relin_rescale_modmuls` puts at 2.4 by count (ARCHITECTURE,
/// "Level schedule"). `add/n4096_l13_l7` adds the 7-limb ciphertext to
/// the 13-limb one it was dropped from: the sum runs on 7 limbs and
/// reads the higher operand through its prefix.
fn bench_level_curve(c: &mut Criterion) {
    let params = CkksParams::default_params();
    let mut rng = Rng64::new(1);
    let keys = KeyChain::generate(&params.build(), &mut rng);
    let ev = Evaluator::new(&keys);
    let vals: Vec<f64> = (0..64).map(|i| i as f64 / 64.0 - 0.5).collect();
    let top = ev.encrypt_values(&vals, &mut rng);
    let mut ct = top.clone();
    ct.drop_to(7);
    let product = || ev.relinearize_rescale(ev.tensor(&ct, &ct));
    let rotate = || ev.rotate(&ct, 1);
    let add = || ev.add(&top, &ct);
    // Relin and Galois keys at 7 limbs.
    let _ = (product(), rotate());
    let ops: [(&str, &str, &dyn Fn() -> Ciphertext); 3] = [
        ("mul_relin_rescale", "l7", &product),
        ("rotate", "l7", &rotate),
        ("add", "l13_l7", &add),
    ];
    for (name, limbs, op) in ops {
        let mut g = c.benchmark_group(name);
        g.meta("ks_digit_limbs", params.ks_digit_limbs)
            .meta("digits", cost::hybrid_digits(&params, 7))
            .meta("cores", host_cores())
            .meta("threads", par::max_intra_workers());
        g.bench_function(format!("n{}_{limbs}", params.n), |b| {
            b.iter(|| std::hint::black_box(op()))
        });
    }
}

/// The benchmark CNN's linear head (linear ∘ the pool's selection, a
/// dense 64-dimensional matrix) interleaved across 32 lanes, applied on
/// the 2 limbs the level schedule enters it at: the lane-packed affine
/// of the packed server. It keeps the one-lane head's 64 diagonals and
/// split, so it takes the one-lane key switches.
fn bench_interleaved(c: &mut Criterion) {
    use smartpaf::{Objective, Session};
    use smartpaf_heinfer::Stage;
    use smartpaf_nn::{Conv2d, Flatten, Linear};
    const LANES: usize = 32;
    let params = CkksParams::default_params();
    let mut rng = Rng64::new(9001);
    let plan = Session::builder(&[1, 8, 8])
        .affine(Conv2d::new(1, 1, 3, 1, 1, &mut rng))
        .relu(4.0)
        .maxpool(2, 2, 4.0)
        .affine(Flatten::new())
        .affine(Linear::new(16, 16, &mut rng))
        .params(params.clone())
        .objective(Objective::FixedForm(PafForm::F1G2))
        .plan()
        .expect("the benchmark CNN plans");
    let head = plan
        .pipeline()
        .stages()
        .iter()
        .rev()
        .find_map(|stage| match stage {
            Stage::Affine { mat, .. } => Some(mat.interleave(LANES)),
            _ => None,
        })
        .expect("the CNN ends in an affine head");
    let keys = KeyChain::generate(&params.build(), &mut rng);
    let ev = Evaluator::new(&keys);
    let vals: Vec<f64> = (0..head.dim())
        .map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.5)
        .collect();
    let mut ct = ev.encrypt_replicated(&vals, &mut rng);
    ct.drop_to(2);
    let _ = ev.matvec_bsgs(&head, &ct); // diagonal encodings + Galois keys
    let mut g = c.benchmark_group(format!("matvec_bsgs_interleaved_x{LANES}"));
    g.meta("ks_digit_limbs", params.ks_digit_limbs)
        .meta("digits", cost::hybrid_digits(&params, 2))
        .meta("cores", host_cores())
        .meta("threads", par::max_intra_workers());
    g.bench_function(format!("n{}_l2", params.n), |b| {
        b.iter(|| std::hint::black_box(ev.matvec_bsgs(&head, &ct)))
    });
}

/// Best-of-`iters` wall time of `f`, measured inline.
fn min_time(iters: usize, mut f: impl FnMut()) -> Duration {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("at least one iteration")
}

/// The hoisting acceptance gate: eight rotations of one ciphertext at
/// the top of the default 13-limb chain, hoisted against standalone.
/// The gate is the structural fact, counted on one thread: hoisted runs
/// one key-switch decomposition and eight applications, standalone
/// eight of each. The timed run also prints the single-core time
/// ratio, which is not gated: it reads 0.48–0.61× from run to run.
fn bench_hoist(_c: &mut Criterion) {
    let ctx = CkksParams::default_params().build();
    let mut rng = Rng64::new(11);
    let keys = KeyChain::generate(&ctx, &mut rng);
    let ev = Evaluator::new(&keys);
    let ct = ev.encrypt_values(&[0.25, -0.5, 0.75], &mut rng);
    let singles = || {
        for &s in &HOISTED_STEPS {
            std::hint::black_box(ev.rotate(&ct, s));
        }
    };
    let hoisted = || {
        std::hint::black_box(ev.rotate_many(&ct, &HOISTED_STEPS));
    };
    // Counting runs each path once, which also warms the pools, key
    // caches and index tables before any timing.
    let counts = par::with_thread_budget(1, || {
        take_key_switch_counts();
        singles();
        let single = take_key_switch_counts();
        hoisted();
        (single, take_key_switch_counts())
    });
    assert_eq!(
        counts,
        ((8, 8), (1, 8)),
        "(decompositions, applications) of 8 standalone vs 8 hoisted rotations"
    );
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let (single, hoist) =
        par::with_thread_budget(1, || (min_time(5, singles), min_time(5, hoisted)));
    let ratio = hoist.as_secs_f64() / single.as_secs_f64();
    println!(
        "hoist gate: 8 hoisted rotations {hoist:?} vs 8 standalone {single:?} \
         single-core → {ratio:.2}x"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(SAMPLES)
        .json_output("BENCH_ckks.json");
    targets = bench_ntt, bench_cipher_ops, bench_level_curve, bench_paf_ops, bench_interleaved, bench_hoist
}
criterion_main!(benches);
