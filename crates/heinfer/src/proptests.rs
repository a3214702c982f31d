//! Property-based tests for pipeline compilation and the execution
//! backends.

use crate::backends::ENTRY_LEVELS;
use crate::pack::LanePacker;
use crate::pipeline::PipelineBuilder;
use crate::schedule::tests::price_of_cut;
use crate::schedule::{greedy_refreshes, AtomicOp, LevelSchedule};
use proptest::prelude::*;
use smartpaf_ckks::cost::{OpPrices, OpWork};
use smartpaf_ckks::{Bootstrapper, CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_nn::{Conv2d, Layer, Linear};
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::Rng64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A probed affine pipeline is actually affine:
    /// f(x + y) - f(0) = (f(x) - f(0)) + (f(y) - f(0)).
    #[test]
    fn probed_pipeline_is_affine(
        seed in 0u64..1000,
        x in proptest::collection::vec(-2.0f64..2.0, 6),
        y in proptest::collection::vec(-2.0f64..2.0, 6),
    ) {
        let mut rng = Rng64::new(seed);
        let pipe = PipelineBuilder::new(&[6])
            .affine(Linear::new(6, 5, &mut rng))
            .affine(Linear::new(5, 4, &mut rng))
            .try_compile().unwrap();
        let zero = pipe.eval_plain(&[0.0; 6]);
        let fx = pipe.eval_plain(&x);
        let fy = pipe.eval_plain(&y);
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let fxy = pipe.eval_plain(&xy);
        for o in 0..4 {
            let lhs = fxy[o] - zero[o];
            let rhs = (fx[o] - zero[o]) + (fy[o] - zero[o]);
            prop_assert!((lhs - rhs).abs() < 1e-3, "output {o}: {lhs} vs {rhs}");
        }
    }

    /// Scale folding never changes plaintext semantics, for arbitrary
    /// static scales: with every `1/s` and `s` placed in the linear
    /// stages, the pipeline computes `s·paf.relu(x/s)` per ReLU.
    #[test]
    fn fold_scales_semantics_invariant(
        seed in 0u64..1000,
        s1 in 0.5f64..16.0,
        s2 in 0.5f64..16.0,
        x in proptest::collection::vec(-1.0f64..1.0, 4),
    ) {
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let layers = || {
            let mut rng = Rng64::new(seed);
            [
                Linear::new(4, 4, &mut rng),
                Linear::new(4, 4, &mut rng),
                Linear::new(4, 3, &mut rng),
            ]
        };
        let [l1, l2, l3] = layers();
        let pipe = PipelineBuilder::new(&[4])
            .affine(l1)
            .paf_relu(&paf, s1)
            .affine(l2)
            .paf_relu(&paf, s2)
            .affine(l3)
            .try_compile().unwrap();
        let affine = |layer: Linear, v: &[f64]| {
            PipelineBuilder::new(&[4]).affine(layer).try_compile().unwrap().eval_plain(v)
        };
        let relu = |s: f64, v: Vec<f64>| -> Vec<f64> {
            v.iter().map(|v| s * paf.relu(v / s)).collect()
        };
        let [l1, l2, l3] = layers();
        let want = affine(l3, &relu(s2, affine(l2, &relu(s1, affine(l1, &x)))));
        let got = pipe.eval_plain(&x);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-6 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    /// Slot packing is invisible to plaintext semantics: packing
    /// `count` random inputs into `lanes` lanes, evaluating the
    /// lane-expanded pipeline once, and unpacking is *bit-identical*
    /// to `count` sequential single-input evaluations — for arbitrary
    /// weights, PAF scales, lane counts, and partial fills.
    #[test]
    fn packed_plain_eval_is_bit_identical_to_sequential(
        seed in 0u64..1000,
        scale in 1.0f64..6.0,
        lanes_log2 in 0u32..4,
        raw in proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, 4), 1..9),
    ) {
        let mut rng = Rng64::new(seed);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .paf_relu(&paf, scale)
            .affine(Linear::new(4, 4, &mut rng))
            .try_compile().unwrap();

        let lanes = 1usize << lanes_log2;
        let inputs = &raw[..raw.len().min(lanes)];
        let packer = LanePacker::new(&pipe, 64, lanes).expect("dim 4 divides 64 slots");
        let batch = packer.pack(inputs).expect("inputs fit the lanes");
        let packed = packer.eval_plain(&batch);

        prop_assert_eq!(packed.len(), inputs.len());
        for (i, x) in inputs.iter().enumerate() {
            let want = pipe.eval_plain(x);
            prop_assert_eq!(packed[i].len(), want.len());
            for (o, (p, w)) in packed[i].iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    p.to_bits(), w.to_bits(),
                    "input {i} output {o}: packed {p} vs sequential {w}"
                );
            }
        }
    }

    /// Every op is one ciphertext wide, so the greedy refresh count is
    /// monotone in op depth — a cut that works for deeper ops works for
    /// shallower ones: on random affine / ReLU / max-pool sequences and
    /// chains of 6 to 14 levels, the deeper of two forms never takes
    /// fewer refreshes than the shallower.
    #[test]
    fn a_deeper_form_never_takes_fewer_refreshes(
        max_level in 6usize..15,
        kinds in proptest::collection::vec(0usize..3, 1..8),
        first in 0usize..6,
        second in 0usize..6,
    ) {
        let form = |i| CompositePaf::from_form(PafForm::all()[i]);
        let (a, b) = (form(first), form(second));
        let (shallow, deep) = if a.mult_depth() <= b.mult_depth() { (a, b) } else { (b, a) };
        let mut builder = PipelineBuilder::new(&[1, 8, 8]);
        let mut side = 8;
        for kind in kinds {
            builder = match kind {
                1 => builder.paf_relu(&shallow, 2.0),
                // A 1×1 map has no window left to pool.
                2 if side > 1 => {
                    side /= 2;
                    builder.paf_maxpool(2, 2, &shallow, 3.0)
                }
                _ => builder.affine(Conv2d::new(1, 1, 3, 1, 1, &mut Rng64::new(7))),
            };
        }
        let pipe = builder.try_compile().unwrap();
        let params = CkksParams { depth: max_level, ..CkksParams::default_params() };
        let refreshes = |paf: &CompositePaf| {
            let uniform = pipe
                .try_with_pafs(&vec![paf.clone(); pipe.num_paf_stages()])
                .expect("one composite per slot");
            let traced = uniform.trace(&params, true);
            traced.map(|report| report.total_bootstraps())
        };
        match (refreshes(&shallow), refreshes(&deep)) {
            (Ok(shallow), Ok(deep)) => prop_assert!(shallow <= deep, "{shallow} > {deep}"),
            // A form too deep for the chain rules out every deeper one.
            (Err(_), deep) => prop_assert!(deep.is_err()),
            (Ok(_), Err(_)) => {}
        }
    }

    /// Stage level accounting is consistent: a folded scale costs no
    /// level, so one PAF between two affines takes the same levels at
    /// any scale as at scale 1 — the affines' two and the PAF's depth.
    #[test]
    fn fold_scales_level_accounting(seed in 0u64..1000, s in 1.5f64..8.0) {
        let paf = CompositePaf::from_form(PafForm::F2G2);
        let build = |s: f64| {
            let mut rng = Rng64::new(seed);
            PipelineBuilder::new(&[4])
                .affine(Linear::new(4, 4, &mut rng))
                .paf_relu(&paf, s)
                .affine(Linear::new(4, 2, &mut rng))
                .try_compile().unwrap()
        };
        let (scaled, unscaled) = (build(s), build(1.0));
        prop_assert_eq!(scaled.stages().len(), 3);
        prop_assert_eq!(scaled.total_levels(), 2 + PafEvaluator::relu_depth(&paf));
        prop_assert_eq!(scaled.total_levels(), unscaled.total_levels());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The cut is exact. For random ops (up to 12, each 1 to 12 levels
    /// deep with random work), chains of up to 20 levels, inputs at or
    /// below the refresh level and three key-switch digit sizes, the
    /// schedule's (refreshes, price) is the lexicographic minimum over
    /// every one of the `2^(ops − 1)` ways to place refreshes between
    /// ops; its refresh count is the greedy walk's; every op is entered
    /// at what the rest of its segment consumes; and cutting again from
    /// the level it enters the first op at changes nothing (but that
    /// the first segment, which had to be refreshed to get there, no
    /// longer is).
    #[test]
    fn the_cut_is_the_cheapest_minimum_refresh_cut(
        // One op per entry: need, products, rotations and plaintext
        // multiplies are its mixed-radix digits.
        raw in proptest::collection::vec(0usize..12 * 20 * 70 * 130, 1..13),
        refresh_level in 1usize..21,
        start_below in 0usize..21,
        omega in 0usize..3,
    ) {
        let start_level = refresh_level - start_below.min(refresh_level);
        let params = CkksParams { ks_digit_limbs: [1, 3, 8][omega], ..CkksParams::toy() };
        let ops: Vec<AtomicOp> = raw
            .iter()
            .enumerate()
            .map(|(stage, &raw)| {
                let (products, rotations) = (raw / 12 % 20, raw / (12 * 20) % 70);
                AtomicOp {
                    stage,
                    need: 1 + raw % 12 % refresh_level,
                    work: OpWork {
                        tensors: products,
                        relins: products * 6 / 7,
                        rotations,
                        decompositions: rotations.div_ceil(7),
                        plain_mults: raw / (12 * 20 * 70),
                    },
                }
            })
            .collect();
        let schedule = LevelSchedule::cut(&ops, &params, start_level, refresh_level, true);
        prop_assert_eq!(schedule.ops().len(), ops.len());

        let prices = OpPrices::new(&params, refresh_level);
        let cheapest = (0..1u32 << (ops.len() - 1))
            .filter_map(|cuts| price_of_cut(&ops, &prices, (start_level, refresh_level), cuts))
            .min()
            .expect("ops no deeper than a refresh can be cut");
        let refreshes = schedule.ops().iter().filter(|o| o.refresh).count();
        let price: u128 = schedule.ops().iter().map(|o| o.modmuls).sum();
        prop_assert_eq!((refreshes, price), cheapest);

        let needs = ops.iter().map(|op| op.need);
        prop_assert_eq!(refreshes, greedy_refreshes(needs, start_level, refresh_level));

        let mut rest_of_segment = 0;
        for op in schedule.ops().iter().rev() {
            rest_of_segment += op.op.need;
            prop_assert_eq!(op.level_in, rest_of_segment);
            prop_assert_eq!(op.modmuls, prices.op_modmuls(&op.op.work, op.level_in, op.op.need));
            if op.refresh {
                rest_of_segment = 0;
            }
        }

        let mut again =
            LevelSchedule::cut(&ops, &params, schedule.ops()[0].level_in, refresh_level, true)
                .ops()
                .to_vec();
        prop_assert!(!again[0].refresh);
        again[0].refresh = schedule.ops()[0].refresh;
        prop_assert_eq!(again.as_slice(), schedule.ops());
    }
}

proptest! {
    // CKKS keygen per case keeps these heavier: a handful of cases
    // still covers random shapes, scales, and inputs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Backend agreement across random small pipelines: the plain
    /// backend's output matches the decrypted CKKS backend output
    /// within the simulator's noise bound, and the trace backend's
    /// per-stage level counts equal the levels the CKKS backend
    /// actually consumed.
    #[test]
    fn backends_agree_on_random_pipelines(
        seed in 0u64..500,
        scale in 1.0f64..6.0,
        hidden in 4usize..9,
        x in proptest::collection::vec(-1.0f64..1.0, 8),
    ) {
        let mut rng = Rng64::new(seed);
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let pipe = PipelineBuilder::new(&[8])
            .affine(Linear::new(8, hidden, &mut rng))
            .paf_relu(&paf, scale)
            .affine(Linear::new(hidden, 4, &mut rng))
            .try_compile().unwrap();

        let ctx = CkksParams::toy().build();
        let keys = KeyChain::generate(&ctx, &mut rng);
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
        let (out_ct, enc_stats) = pipe.try_eval_encrypted(&pe, None, &ct).unwrap();

        // PlainBackend ≈ decrypt(CkksBackend ...) within noise.
        let plain = pipe.eval_plain(&x);
        let dec = pe.evaluator().decrypt_values(&out_ct, 4);
        for (i, (p, d)) in plain.iter().zip(&dec).enumerate() {
            prop_assert!((p - d).abs() < 0.1, "slot {i}: plain {p} vs decrypted {d}");
        }

        // Traced level counts == levels CkksBackend consumed.
        let report = pipe
            .trace(&CkksParams::toy(), false)
            .expect("pipeline fits the toy chain");
        let stage_levels: Vec<usize> = report.stages.iter().map(|s| s.levels).collect();
        prop_assert_eq!(&stage_levels, &enc_stats.stage_levels);
        prop_assert_eq!(report.total_bootstraps(), enc_stats.bootstraps);
        prop_assert_eq!(report.final_level, enc_stats.final_level);
        prop_assert_eq!(report.total_levels(), enc_stats.total_levels());
    }

    /// Random affine / ReLU / max-pool sequences on chains of 6 to 14
    /// levels run the schedule they trace: every refresh-free segment
    /// is entered at exactly the levels it consumes, the last one ends
    /// on the last limb, the ops of the encrypted run enter where the
    /// trace says, and the decrypted result still matches the plain
    /// backend within the simulator's noise bound.
    #[test]
    fn random_pipelines_run_their_level_schedule(
        seed in 0u64..500,
        max_level in 6usize..15,
        kinds in proptest::collection::vec(0usize..3, 1..6),
        x in proptest::collection::vec(-1.0f64..1.0, 16),
    ) {
        let mut rng = Rng64::new(seed);
        let pipe = random_pipeline(&kinds, &mut rng);
        let params = CkksParams { depth: max_level, ..CkksParams::toy() };
        let keys = KeyChain::generate(&params.build(), &mut rng);
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let bs = Bootstrapper::new(pe.evaluator().clone(), pipe.dim(), seed);
        let ct = pe
            .evaluator()
            .encrypt_replicated(&pipe.try_pad_input(&x).unwrap(), &mut rng);
        ENTRY_LEVELS.with(|levels| levels.borrow_mut().clear());
        let executed = pipe.try_eval_encrypted(&pe, Some(&bs), &ct);
        let entered = ENTRY_LEVELS.with(|levels| levels.take());
        match pipe.trace(&params, true) {
            Ok(report) => {
                // The schedule itself: a segment starts at the input
                // and at every refresh, and each op is entered at what
                // the rest of its segment consumes.
                let ops = pipe.atomic_ops();
                let schedule = LevelSchedule::cut(&ops, &params, max_level, max_level, true);
                let mut rest_of_segment = 0;
                for op in schedule.ops().iter().rev() {
                    rest_of_segment += op.op.need;
                    prop_assert_eq!(op.level_in, rest_of_segment);
                    if op.refresh {
                        rest_of_segment = 0;
                    }
                }

                let (out_ct, stats) = executed.expect("a traceable pipeline runs");
                let traced: Vec<usize> = schedule.ops().iter().map(|o| o.level_in).collect();
                prop_assert_eq!(&entered, &traced);
                let traced: Vec<usize> =
                    report.stages.iter().flat_map(|s| s.op_levels.iter().copied()).collect();
                prop_assert_eq!(entered, traced);
                prop_assert_eq!(stats.bootstraps, report.total_bootstraps());
                prop_assert_eq!(stats.bootstraps, bs.refresh_count());
                prop_assert_eq!(stats.final_level, 0);
                let plain = pipe.eval_plain(&x);
                let dec = pe.evaluator().decrypt_values(&out_ct, plain.len());
                for (i, (p, d)) in plain.iter().zip(&dec).enumerate() {
                    prop_assert!((p - d).abs() < 0.1, "slot {i}: plain {p} vs decrypted {d}");
                }
            }
            // A stage deeper than the whole chain stops both backends
            // alike.
            Err(traced) => prop_assert_eq!(executed.map(|(_, stats)| stats).unwrap_err(), traced),
        }
    }

    /// The same random pipelines slot-packed at 2 and at all 8 lanes
    /// of the toy ring, a distinct input per lane, run the one-lane
    /// schedule: each lane's plain answer is the sequential eval's bit
    /// for bit, the encrypted ops enter at the one-lane trace's levels
    /// and execute its key switches exactly, and each lane decrypts
    /// within the simulator's noise bound of its plain answer.
    #[test]
    fn packed_pipelines_run_the_one_lane_schedule(
        seed in 0u64..500,
        max_level in 6usize..15,
        kinds in proptest::collection::vec(0usize..3, 1..6),
        xs in proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, 16), 8),
        all_lanes in proptest::bool::ANY,
    ) {
        let mut rng = Rng64::new(seed);
        let pipe = random_pipeline(&kinds, &mut rng);
        let params = CkksParams { depth: max_level, ..CkksParams::toy() };
        let keys = KeyChain::generate(&params.build(), &mut rng);
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let ev = pe.evaluator();
        let lanes = if all_lanes { 8 } else { 2 };
        let packer = LanePacker::new(&pipe, ev.context().slots(), lanes).expect("dim 16 fits");
        let batch = packer.pack(&xs[..lanes]).expect("one input per lane");
        let plain = packer.eval_plain(&batch);
        for (x, lane) in xs.iter().zip(&plain) {
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(lane), bits(&pipe.eval_plain(x)));
        }

        let wide = packer.expanded();
        let bs = Bootstrapper::new(ev.clone(), wide.dim(), seed);
        let ct = packer.encrypt(&batch, ev, &mut rng);
        ENTRY_LEVELS.with(|levels| levels.borrow_mut().clear());
        // The key-switch counters are per thread.
        let (executed, key_switches) = smartpaf_ckks::par::with_thread_budget(1, || {
            smartpaf_ckks::take_key_switch_counts();
            let executed = wide.try_eval_encrypted(&pe, Some(&bs), &ct);
            (executed, smartpaf_ckks::take_key_switch_counts())
        });
        let entered = ENTRY_LEVELS.with(|levels| levels.take());
        match pipe.trace(&params, true) {
            Ok(report) => {
                let (out_ct, stats) = executed.expect("a traceable pipeline runs");
                let traced: Vec<usize> =
                    report.stages.iter().flat_map(|s| s.op_levels.iter().copied()).collect();
                prop_assert_eq!(entered, traced);
                let relins = report.total_relins();
                prop_assert_eq!(
                    key_switches,
                    (report.total_decompositions() + relins, report.total_rotations() + relins)
                );
                prop_assert_eq!(stats.bootstraps, report.total_bootstraps());
                for (i, (got, want)) in packer.decrypt(&out_ct, &batch, ev).iter().zip(&plain).enumerate() {
                    for (g, w) in got.iter().zip(want) {
                        prop_assert!((g - w).abs() < 0.1, "lane {i}: plain {w} vs decrypted {g}");
                    }
                }
            }
            Err(traced) => prop_assert_eq!(executed.map(|(_, stats)| stats).unwrap_err(), traced),
        }
    }
}

/// A random sequence of `kinds` stages over a 1×4×4 input (0: a 3×3
/// convolution, 1: a PAF-ReLU, 2: a 2×2 max pool while the map is
/// wider than one pixel), with every scale folded.
fn random_pipeline(kinds: &[usize], rng: &mut Rng64) -> crate::HePipeline {
    // A 3×3 convolution scaled to an ℓ¹ norm of one: no sequence of
    // stages can push a value out of the PAF's domain.
    let mut contraction = || {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, rng);
        let weight = &mut conv.params_mut()[0].value;
        let norm: f32 = weight.data().iter().map(|w| w.abs()).sum();
        weight.map_in_place(|w| w / norm);
        conv
    };
    let paf = CompositePaf::from_form(PafForm::F1G2);
    let mut builder = PipelineBuilder::new(&[1, 4, 4]);
    let mut side = 4;
    for &kind in kinds {
        builder = match kind {
            1 => builder.paf_relu(&paf, 2.0),
            // A 1×1 map has no window left to pool.
            2 if side > 1 => {
                side /= 2;
                builder.paf_maxpool(2, 2, &paf, 2.0)
            }
            _ => builder.affine(contraction()),
        };
    }
    builder.try_compile().unwrap()
}
