//! Criterion benchmark: plaintext PAF evaluation.
//!
//! Two layers:
//!
//! - batched PAF-ReLU over a 4096-point grid for every Tab. 2 form;
//! - the evaluation-engine ablation matrix: plan
//!   (dense / odd / batched) × degree (7 / 15 / 27), all through
//!   `smartpaf_polyfit::PolyEval`. The `dense` vs `odd` rows are the
//!   odd-Horner vs dense-Horner head-to-head.
//!
//! The run emits a machine-readable `BENCH_paf.json` (in the bench
//! package directory) via the criterion shim's JSON hook; the CI
//! `bench-smoke` job uploads it as a workflow artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smartpaf_polyfit::{CompositePaf, EvalPlan, PafForm, PolyEval, Polynomial};

fn grid(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64 / (n as f64 / 2.0) - 1.0).collect()
}

/// A deterministic odd polynomial of the given degree with tame,
/// sign-alternating coefficients.
fn odd_poly(degree: usize) -> Polynomial {
    assert!(degree % 2 == 1, "ablation degrees are odd");
    let n = degree.div_ceil(2);
    let odd: Vec<f64> = (0..n)
        .map(|k| {
            let mag = 2.0 / (k as f64 + 1.0);
            if k % 2 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect();
    Polynomial::from_odd(&odd)
}

fn bench_plain_forms(c: &mut Criterion) {
    let xs = grid(4096);
    let mut group = c.benchmark_group("paf_plain_eval_4096");
    for form in PafForm::all() {
        let paf = CompositePaf::from_form(form);
        group.bench_with_input(
            BenchmarkId::from_parameter(form.paper_name()),
            &paf,
            |b, paf| {
                let eng = paf.prepare();
                let mut out = vec![0.0; xs.len()];
                b.iter(|| {
                    eng.relu_slice(&xs, &mut out);
                    std::hint::black_box(out.iter().sum::<f64>())
                })
            },
        );
    }
    group.finish();
}

/// The engine ablation matrix: plan × degree, 4096-point grid.
fn bench_eval_ablation(c: &mut Criterion) {
    let xs = grid(4096);
    for degree in [7usize, 15, 27] {
        let p = odd_poly(degree);
        let mut group = c.benchmark_group(format!("polyeval_deg{degree}"));

        let dense = PolyEval::with_plan(&p, EvalPlan::DenseHorner);
        group.bench_function("dense", |b| {
            b.iter(|| {
                let s: f64 = xs.iter().map(|&x| dense.eval(x)).sum();
                std::hint::black_box(s)
            })
        });

        let odd = PolyEval::with_plan(&p, EvalPlan::OddHorner);
        group.bench_function("odd", |b| {
            b.iter(|| {
                let s: f64 = xs.iter().map(|&x| odd.eval(x)).sum();
                std::hint::black_box(s)
            })
        });

        // The auto-selected plan through the batch lane loop.
        let auto = PolyEval::new(&p);
        let mut out = vec![0.0; xs.len()];
        group.bench_function("batched", |b| {
            b.iter(|| {
                auto.eval_slice(&xs, &mut out);
                std::hint::black_box(out.iter().sum::<f64>())
            })
        });

        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().json_output("BENCH_paf.json");
    targets = bench_plain_forms, bench_eval_ablation
}
criterion_main!(benches);
