//! The complete SMART-PAF deployment story in one binary:
//!
//! 1. **Pretrain** a small CNN with exact ReLU on a synthetic task.
//! 2. **Replace** the ReLU with a low-degree PAF under Dynamic Scaling
//!    and **fine-tune** the PAF coefficients with the paper's Tab. 5
//!    hyperparameters (Adam, separate learning rates).
//! 3. **Freeze** the scale (DS → SS conversion, §4.5) and extract the
//!    trained composite.
//! 4. **Compile** the very same trained layers into the encrypted
//!    inference pipeline and classify validation images under CKKS.
//!
//! Run with: `cargo run -p smartpaf-examples --release --bin train_then_encrypt`

use smartpaf_ckks::{Bootstrapper, CkksParams, Evaluator, KeyChain, PafEvaluator};
use smartpaf_datasets::{Split, SynthDataset, SynthSpec};
use smartpaf_heinfer::PipelineBuilder;
use smartpaf_nn::{
    cross_entropy, Adam, BatchNorm2d, Conv2d, GlobalAvgPool, GroupConfig, Layer, Linear, Mode,
    OptimConfig, ReluSlot, ScaleMode, SlotRef,
};
use smartpaf_polyfit::{CompositePaf, PafForm};
use smartpaf_tensor::{Rng64, Tensor};

const CH: usize = 6;

struct Net {
    conv: Conv2d,
    bn: BatchNorm2d,
    relu: ReluSlot,
    pool: GlobalAvgPool,
    lin: Linear,
}

impl Net {
    fn new(classes: usize, rng: &mut Rng64) -> Self {
        Net {
            conv: Conv2d::new(3, CH, 3, 1, 1, rng),
            bn: BatchNorm2d::new(CH),
            relu: ReluSlot::new(0),
            pool: GlobalAvgPool::new(),
            lin: Linear::new(CH, classes, rng),
        }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let h = self.conv.forward(x, mode);
        let h = self.bn.forward(&h, mode);
        let h = self.relu.forward(&h, mode);
        let h = self.pool.forward(&h, mode);
        self.lin.forward(&h, mode)
    }

    fn backward(&mut self, grad: &Tensor) {
        let g = self.lin.backward(grad);
        let g = self.pool.backward(&g);
        let g = self.relu.backward(&g);
        let g = self.bn.backward(&g);
        let _ = self.conv.backward(&g);
    }

    fn step(&mut self, opt: &mut Adam) {
        let mut params = Vec::new();
        params.extend(self.conv.params_mut());
        params.extend(self.bn.params_mut());
        params.extend(self.relu.params_mut());
        params.extend(self.lin.params_mut());
        opt.step(&mut params);
    }

    fn accuracy(&mut self, dataset: &SynthDataset, batches: usize, batch: usize) -> f32 {
        let mut hits = 0usize;
        for b in 0..batches {
            let (x, labels) = dataset.batch(Split::Val, b * batch, batch);
            let logits = self.forward(&x, Mode::Eval);
            for (i, &l) in labels.iter().enumerate() {
                let row = logits.row(i);
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(c, _)| c)
                    .expect("non-empty");
                hits += (pred == l) as usize;
            }
        }
        hits as f32 / (batches * batch) as f32
    }
}

fn train(net: &mut Net, dataset: &SynthDataset, opt: &mut Adam, epochs: usize, batch: usize) {
    for epoch in 0..epochs {
        for b in 0..8 {
            let (x, labels) = dataset.batch(Split::Train, (epoch * 8 + b) * batch, batch);
            let logits = net.forward(&x, Mode::Train);
            let (_, grad) = cross_entropy(&logits, &labels);
            net.backward(&grad);
            net.step(opt);
        }
    }
}

fn main() {
    let spec = SynthSpec {
        image_size: 8,
        ..SynthSpec::tiny(123)
    };
    let dataset = SynthDataset::new(spec);
    let batch = 16;
    let mut rng = Rng64::new(123);
    let mut net = Net::new(spec.classes, &mut rng);

    // Phase 1: pretrain with exact ReLU.
    let mut pre_opt = Adam::new(OptimConfig {
        paf: GroupConfig {
            lr: 1e-3,
            weight_decay: 0.0,
        },
        other: GroupConfig {
            lr: 1e-3,
            weight_decay: 0.0,
        },
    });
    train(&mut net, &dataset, &mut pre_opt, 80, batch);
    let exact_acc = net.accuracy(&dataset, 8, batch);
    println!(
        "[1] pretrained with exact ReLU:        val acc {:.1}%",
        exact_acc * 100.0
    );

    // Phase 2: replace ReLU with a low-degree PAF (Dynamic Scaling) and
    // fine-tune coefficients with the paper's Tab. 5 hyperparameters.
    let base = CompositePaf::from_form(PafForm::F1G2);
    net.relu.replace_with(&base, ScaleMode::Dynamic);
    let drop_acc = net.accuracy(&dataset, 8, batch);
    println!(
        "[2] PAF-replaced (before fine-tune):   val acc {:.1}%",
        drop_acc * 100.0
    );

    let mut ft_opt = Adam::new(OptimConfig::paper_tab5());
    train(&mut net, &dataset, &mut ft_opt, 10, batch);
    let ft_acc = net.accuracy(&dataset, 8, batch);
    println!(
        "[3] after Tab. 5 fine-tuning (DS):     val acc {:.1}%",
        ft_acc * 100.0
    );

    // Phase 3: DS → SS conversion and extraction of the trained PAF.
    let mut slot = SlotRef::Relu(&mut net.relu);
    slot.freeze_scale();
    let Some(ScaleMode::Static(scale)) = slot.scale_mode() else {
        unreachable!("frozen above")
    };
    let scale = scale as f64;
    let ss_acc = net.accuracy(&dataset, 8, batch);
    let trained_paf = net.relu.paf().expect("replaced").to_composite();
    println!(
        "[4] Static Scaling (s = {scale:.3}):       val acc {:.1}%",
        ss_acc * 100.0
    );

    // Phase 4: compile the trained layers into the encrypted pipeline.
    let Net {
        conv,
        bn,
        relu: _,
        pool,
        lin,
    } = net;
    let pipeline = PipelineBuilder::new(&[3, 8, 8])
        .affine(conv)
        .affine(bn)
        .paf_relu(&trained_paf, scale)
        .affine(pool)
        .affine(lin)
        .try_compile()
        .expect("the pipeline compiles");
    println!(
        "[5] compiled: {} stages, dim {}, {} levels per inference",
        pipeline.stages().len(),
        pipeline.dim(),
        pipeline.total_levels()
    );

    // 45-bit scale primes over a 60-bit base prime: a one-limb result
    // decodes up to q₀/(2Δ) = 2¹⁴ (the preset's 50 bits would leave 16).
    let ctx = CkksParams {
        base_prime_bits: 60,
        scale_prime_bits: 45,
        ..CkksParams::default_params()
    }
    .build();
    let keys = KeyChain::generate(&ctx, &mut rng);
    let pe = PafEvaluator::new(Evaluator::new(&keys));
    let bs = Bootstrapper::new(pe.evaluator().clone(), pipeline.dim(), 17);

    let n_eval = 8usize;
    let mut plain_hits = 0usize;
    let mut enc_hits = 0usize;
    let mut agree = 0usize;
    let t0 = std::time::Instant::now();
    println!(
        "\n{:>6} {:>6} {:>11} {:>10} {:>7}",
        "sample", "label", "plain pred", "enc pred", "match"
    );
    for i in 0..n_eval {
        let (x, label) = dataset.sample(Split::Val, i);
        let flat: Vec<f64> = x.data().iter().map(|&v| v as f64).collect();
        let plain_logits = pipeline.eval_plain(&flat);
        let ct = pe.evaluator().encrypt_replicated(
            &pipeline.try_pad_input(&flat).expect("the input fits"),
            &mut rng,
        );
        let (out_ct, _) = pipeline
            .try_eval_encrypted(&pe, Some(&bs), &ct)
            .expect("the bootstrapper refreshes before the chain runs dry");
        let enc_logits = pe
            .evaluator()
            .decrypt_values(&out_ct, pipeline.output_dim());
        let p = argmax(&plain_logits);
        let e = argmax(&enc_logits);
        plain_hits += (p == label) as usize;
        enc_hits += (e == label) as usize;
        agree += (p == e) as usize;
        println!(
            "{i:>6} {label:>6} {p:>11} {e:>10} {:>7}",
            if p == e { "yes" } else { "NO" }
        );
    }
    println!(
        "\nencrypted inference of {n_eval} samples: {:.2?} total, {} bootstraps",
        t0.elapsed(),
        bs.refresh_count()
    );
    println!(
        "plain-PAF accuracy {}/{n_eval}, encrypted accuracy {}/{n_eval}, agreement {}/{n_eval}",
        plain_hits, enc_hits, agree
    );
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}
