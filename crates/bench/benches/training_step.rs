//! Criterion benchmark: the plaintext fine-tuning path, layer by layer
//! — one training step of a PAF-approximated model (the unit of work
//! the SMART-PAF scheduler repeats), its eval forward pass, and the
//! tensor substrate's convolution forward and backward kernels beneath
//! both.
//!
//! Emits `BENCH_train.json` through the criterion shim's JSON hook; CI
//! diffs a timed run against the committed `BENCH_train.reference.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use smartpaf::replace_all_with;
use smartpaf_nn::{cross_entropy, mini_cnn, Adam, Mode, OptimConfig};
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::{conv2d, conv2d_backward, ConvSpec, Rng64, Tensor};

fn bench_step(c: &mut Criterion) {
    let mut rng = Rng64::new(6);
    let mut model = mini_cnn(8, 0.125, &mut rng);
    replace_all_with(
        &mut model,
        &[CompositePaf::from_form(PafForm::F1SqG1Sq)],
        false,
    );
    let mut opt = Adam::new(OptimConfig::paper_tab5());
    let x = Tensor::rand_normal(&[8, 3, 16, 16], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 8).collect();
    c.bench_function("paf_model_train_step_b8", |b| {
        b.iter(|| {
            let logits = model.forward(&x, Mode::Train);
            let (_, grad) = cross_entropy(&logits, &labels);
            model.backward(&grad);
            opt.step(&mut model.params_mut());
        })
    });
    c.bench_function("paf_model_eval_b8", |b| {
        b.iter(|| std::hint::black_box(model.forward(&x, Mode::Eval)))
    });
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = Rng64::new(5);
    let x = Tensor::rand_normal(&[4, 16, 16, 16], 0.0, 1.0, &mut rng);
    let w = Tensor::rand_normal(&[32, 16, 3, 3], 0.0, 0.2, &mut rng);
    let bias = Tensor::zeros(&[32]);
    let spec = ConvSpec::new(3, 1, 1);
    c.bench_function("conv2d_fwd_4x16x16x16", |b| {
        b.iter(|| std::hint::black_box(conv2d(&x, &w, &bias, &spec)))
    });
    let y = conv2d(&x, &w, &bias, &spec);
    let g = Tensor::ones(y.dims());
    c.bench_function("conv2d_bwd_4x16x16x16", |b| {
        b.iter(|| std::hint::black_box(conv2d_backward(&x, &w, &g, &spec)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .json_output("BENCH_train.json");
    targets = bench_step, bench_conv
}
criterion_main!(benches);
