//! Non-polynomial operator slots and their PAF replacements.
//!
//! [`ReluSlot`] and [`MaxPoolSlot`] are the two operators FHE cannot
//! evaluate. Each slot starts in exact mode and can be switched to a
//! PAF approximation — that switch *is* the paper's "replacement", and
//! Progressive Approximation performs it one slot at a time.

use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamGroup};
use smartpaf_polyfit::{CompositePaf, EvalPlan, PolyEval, Polynomial};
use smartpaf_tensor::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward, MaxPoolIndices, PoolSpec, Tensor,
};

/// How a PAF's input is scaled into its accurate range (paper §4.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleMode {
    /// Dynamic Scaling: divide by the batch's max |x| (training only —
    /// FHE has no value-dependent operators).
    Dynamic,
    /// Static Scaling: divide by a frozen constant (FHE-deployable).
    Static(f32),
}

/// The scaling state of a replaced slot: its [`ScaleMode`] and the
/// running max, over training batches, of the statistic the slot
/// scales by (max |x| for a ReLU, the max window difference for a
/// pool).
struct Scaling {
    mode: ScaleMode,
    running_max: f32,
}

impl Scaling {
    fn new(mode: ScaleMode) -> Self {
        Scaling {
            mode,
            running_max: 0.0,
        }
    }

    /// The scale for a batch whose statistic is `batch_stat`; a
    /// training batch also folds the statistic into the running max.
    fn pick(&mut self, batch_stat: f32, mode: Mode) -> f32 {
        if mode == Mode::Train {
            self.running_max = self.running_max.max(batch_stat);
        }
        match self.mode {
            ScaleMode::Dynamic => batch_stat,
            ScaleMode::Static(s) => s.max(1e-6),
        }
    }

    /// DS→SS conversion: a dynamic scale freezes at the running max.
    fn freeze(&mut self) {
        if self.mode == ScaleMode::Dynamic {
            self.mode = ScaleMode::Static(self.running_max.max(1e-6));
        }
    }

    /// Multiplies a static scale by `factor` (no-op in dynamic mode).
    fn scale_by(&mut self, factor: f32) {
        if let ScaleMode::Static(s) = self.mode {
            self.mode = ScaleMode::Static((s * factor).max(1e-6));
        }
    }
}

/// A slot's input recorder: while attached, every forward pass appends
/// a subsample of its input.
#[derive(Default)]
struct Probe(Option<Vec<f32>>);

impl Probe {
    fn record(&mut self, x: &Tensor) {
        if let Some(buf) = &mut self.0 {
            // Subsample to keep profiling cheap on big feature maps.
            let stride = (x.numel() / 512).max(1);
            buf.extend(x.data().iter().step_by(stride).copied());
        }
    }
}

/// A trainable PAF activation replacing ReLU:
/// `y = (x + x·p(x/s)) / 2` with `p` the composite sign approximation.
pub struct PafActivation {
    stage_sizes: Vec<usize>,
    coeffs: Param,
    scale: Scaling,
    cache: Option<(Tensor, f32)>,
}

impl PafActivation {
    /// Builds from a composite PAF (coefficients become trainable).
    pub fn from_composite(paf: &CompositePaf, scale_mode: ScaleMode) -> Self {
        let stage_sizes: Vec<usize> = paf.stages().iter().map(|s| s.odd_coeffs().len()).collect();
        let flat: Vec<f32> = paf
            .stages()
            .iter()
            .flat_map(|s| s.odd_coeffs().into_iter().map(|c| c as f32))
            .collect();
        let n = flat.len();
        PafActivation {
            stage_sizes,
            coeffs: Param::new(Tensor::from_vec(flat, &[n]), ParamGroup::PafCoeff),
            scale: Scaling::new(scale_mode),
            cache: None,
        }
    }

    /// Reassembles the (possibly fine-tuned) composite PAF.
    pub fn to_composite(&self) -> CompositePaf {
        let mut stages = Vec::with_capacity(self.stage_sizes.len());
        let mut off = 0;
        for &sz in &self.stage_sizes {
            let odd: Vec<f64> = self.coeffs.value.data()[off..off + sz]
                .iter()
                .map(|&c| c as f64)
                .collect();
            stages.push(Polynomial::from_odd(&odd));
            off += sz;
        }
        CompositePaf::new(stages)
    }

    /// Each stage of the current coefficients: its odd-Horner plan and
    /// its odd coefficients (for the derivative).
    fn stages(&self) -> Vec<(PolyEval, Vec<f64>)> {
        self.to_composite()
            .stages()
            .iter()
            .map(|p| (PolyEval::with_plan(p, EvalPlan::OddHorner), p.odd_coeffs()))
            .collect()
    }

    fn eval_stage_deriv(odd: &[f64], x: f64) -> f64 {
        // d/dx sum c_k x^(2k+1) = sum (2k+1) c_k x^(2k)
        let y = x * x;
        let mut acc = 0.0;
        let mut pow = 1.0;
        for (k, &c) in odd.iter().enumerate() {
            acc += (2 * k + 1) as f64 * c * pow;
            pow *= y;
        }
        acc
    }

    /// Forward pass (see type docs for the formula).
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let s = self.scale.pick(x.abs_max().max(1e-6), mode);
        let stages = self.stages();
        let y = x.map(|v| {
            let z = stages
                .iter()
                .fold((v / s) as f64, |z, (stage, _)| stage.eval(z));
            0.5 * (v + v * z as f32)
        });
        self.cache = Some((x.clone(), s));
        y
    }

    /// Backward pass: input gradient; PAF-coefficient gradients are
    /// accumulated into the internal [`Param`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (x, s) = self.cache.clone().expect("backward before forward");
        let stages = self.stages();
        let n_stages = stages.len();
        let mut grad_in = Tensor::zeros(x.dims());
        let mut coeff_grad = vec![0.0f64; self.coeffs.numel()];
        // Per-stage flat offsets.
        let mut offsets = Vec::with_capacity(n_stages);
        let mut off = 0;
        for &sz in &self.stage_sizes {
            offsets.push(off);
            off += sz;
        }
        for (i, (&v, &g)) in x.data().iter().zip(grad_output.data()).enumerate() {
            let u = (v / s) as f64;
            // Forward tape.
            let mut zs = Vec::with_capacity(n_stages + 1);
            zs.push(u);
            for (stage, _) in &stages {
                let z = *zs.last().expect("non-empty");
                zs.push(stage.eval(z));
            }
            let p = zs[n_stages];
            // dp/du = product of stage derivatives.
            let mut dp_du = 1.0;
            for ((_, odd), &z) in stages.iter().zip(&zs) {
                dp_du *= Self::eval_stage_deriv(odd, z);
            }
            // y = (v + v p(u))/2, u = v/s (s treated as constant).
            let dy_dv = 0.5 * (1.0 + p + u * dp_du);
            grad_in.data_mut()[i] = g * dy_dv as f32;
            // Coefficient gradients: dy/dc = (v/2) dp/dc.
            let gv = g as f64 * v as f64 * 0.5;
            if gv != 0.0 {
                let mut chain = 1.0f64;
                for sidx in (0..n_stages).rev() {
                    let z_in = zs[sidx];
                    let y2 = z_in * z_in;
                    let mut pow = z_in;
                    for k in 0..self.stage_sizes[sidx] {
                        coeff_grad[offsets[sidx] + k] += gv * chain * pow;
                        pow *= y2;
                    }
                    chain *= Self::eval_stage_deriv(&stages[sidx].1, z_in);
                }
            }
        }
        for (g, &cg) in self.coeffs.grad.data_mut().iter_mut().zip(&coeff_grad) {
            *g += cg as f32;
        }
        grad_in
    }

    /// Mutable access to the coefficient parameter.
    fn param_mut(&mut self) -> &mut Param {
        &mut self.coeffs
    }
}

enum ReluMode {
    Exact {
        mask: Option<Tensor>,
    },
    Paf(Box<PafActivation>),
    /// Identity pass-through: the slot's non-linearity has been culled
    /// (DeepReDuce-style ReLU reduction, paper §7 "orthogonal" work).
    Culled,
}

/// A ReLU slot: exact ReLU until replaced with a PAF.
pub struct ReluSlot {
    index: usize,
    mode: ReluMode,
    probe: Probe,
}

impl ReluSlot {
    /// Creates an exact ReLU slot with a replacement-order index.
    pub fn new(index: usize) -> Self {
        ReluSlot {
            index,
            mode: ReluMode::Exact { mask: None },
            probe: Probe::default(),
        }
    }

    /// The slot's position in inference order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the slot has been replaced by a PAF.
    pub fn is_replaced(&self) -> bool {
        matches!(self.mode, ReluMode::Paf(_))
    }

    /// Replaces the exact ReLU with a PAF activation.
    pub fn replace_with(&mut self, paf: &CompositePaf, scale_mode: ScaleMode) {
        self.mode = ReluMode::Paf(Box::new(PafActivation::from_composite(paf, scale_mode)));
    }

    /// Reverts to the exact ReLU.
    pub fn restore_exact(&mut self) {
        self.mode = ReluMode::Exact { mask: None };
    }

    /// Culls the non-linearity: the slot becomes an identity map,
    /// costing zero multiplicative depth under FHE (DeepReDuce-style
    /// ReLU reduction; combinable with PAF replacement of the
    /// surviving slots — paper §7).
    pub fn cull(&mut self) {
        self.mode = ReluMode::Culled;
    }

    /// Whether the slot has been culled to an identity.
    pub fn is_culled(&self) -> bool {
        matches!(self.mode, ReluMode::Culled)
    }

    /// The PAF activation, if replaced.
    pub fn paf_mut(&mut self) -> Option<&mut PafActivation> {
        match &mut self.mode {
            ReluMode::Paf(p) => Some(p),
            _ => None,
        }
    }

    /// Immutable PAF access, if replaced.
    pub fn paf(&self) -> Option<&PafActivation> {
        match &self.mode {
            ReluMode::Paf(p) => Some(p),
            _ => None,
        }
    }
}

impl Layer for ReluSlot {
    fn name(&self) -> String {
        match &self.mode {
            ReluMode::Exact { .. } => format!("ReLU[{}]", self.index),
            ReluMode::Paf(_) => format!("PafReLU[{}]", self.index),
            ReluMode::Culled => format!("CulledReLU[{}]", self.index),
        }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.probe.record(x);
        match &mut self.mode {
            ReluMode::Exact { mask } => {
                let m = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                let y = x.mul(&m);
                *mask = Some(m);
                y
            }
            ReluMode::Paf(p) => p.forward(x, mode),
            ReluMode::Culled => x.clone(),
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &mut self.mode {
            ReluMode::Exact { mask } => {
                grad_output.mul(mask.as_ref().expect("backward before forward"))
            }
            ReluMode::Paf(p) => p.backward(grad_output),
            ReluMode::Culled => grad_output.clone(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match &mut self.mode {
            ReluMode::Paf(p) => vec![p.param_mut()],
            _ => Vec::new(),
        }
    }

    fn slots_mut(&mut self) -> Vec<SlotRef<'_>> {
        vec![SlotRef::Relu(self)]
    }
}

enum PoolMode {
    Exact,
    Paf { paf: CompositePaf, scale: Scaling },
}

/// A MaxPooling slot: exact pooling until replaced with a PAF-based
/// tournament of `max(a,b) = ((a+b) + (a−b)·p((a−b)/s))/2`.
///
/// The backward pass always routes gradients to the window winner
/// (straight-through); PAF coefficients of MaxPool slots are not
/// trained, matching the dominant role ReLU plays in the paper's
/// coefficient tables (App. B covers ReLU layers only).
pub struct MaxPoolSlot {
    index: usize,
    spec: PoolSpec,
    mode: PoolMode,
    cache: Option<MaxPoolIndices>,
    probe: Probe,
}

impl MaxPoolSlot {
    /// Creates an exact max-pool slot.
    pub fn new(index: usize, k: usize, stride: usize) -> Self {
        MaxPoolSlot {
            index,
            spec: PoolSpec::new(k, stride),
            mode: PoolMode::Exact,
            cache: None,
            probe: Probe::default(),
        }
    }

    /// The slot's position in inference order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the slot has been replaced by a PAF.
    pub fn is_replaced(&self) -> bool {
        matches!(self.mode, PoolMode::Paf { .. })
    }

    /// Replaces exact pooling with PAF-based pooling.
    pub fn replace_with(&mut self, paf: &CompositePaf, scale_mode: ScaleMode) {
        self.mode = PoolMode::Paf {
            paf: paf.clone(),
            scale: Scaling::new(scale_mode),
        };
    }

    /// Reverts to exact max pooling.
    pub fn restore_exact(&mut self) {
        self.mode = PoolMode::Exact;
    }

    fn paf_pool(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let k = self.spec.k;
        let stride = self.spec.stride;
        let oh = (h - k) / stride + 1;
        let ow = (w - k) / stride + 1;
        // First pass: find the max |pairwise difference| for scaling.
        let mut batch_diff_max = 1e-6f32;
        let data = x.data();
        for b in 0..n {
            for ci in 0..c {
                let base = (b * c + ci) * h * w;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut lo = f32::INFINITY;
                        let mut hi = f32::NEG_INFINITY;
                        for ki in 0..k {
                            for kj in 0..k {
                                let v = data[base + (oi * stride + ki) * w + oj * stride + kj];
                                lo = lo.min(v);
                                hi = hi.max(v);
                            }
                        }
                        batch_diff_max = batch_diff_max.max(hi - lo);
                    }
                }
            }
        }
        let PoolMode::Paf { paf, scale } = &mut self.mode else {
            unreachable!("paf_pool in exact mode")
        };
        let s = scale.pick(batch_diff_max, mode) as f64;
        // Second pass: sequential PAF-max fold over each window.
        let mut out = Vec::with_capacity(n * c * oh * ow);
        for b in 0..n {
            for ci in 0..c {
                let base = (b * c + ci) * h * w;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = data[base + (oi * stride) * w + oj * stride] as f64;
                        for ki in 0..k {
                            for kj in 0..k {
                                if ki == 0 && kj == 0 {
                                    continue;
                                }
                                let v =
                                    data[base + (oi * stride + ki) * w + oj * stride + kj] as f64;
                                let d = acc - v;
                                acc = ((acc + v) + d * paf.eval(d / s)) / 2.0;
                            }
                        }
                        out.push(acc as f32);
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }
}

impl Layer for MaxPoolSlot {
    fn name(&self) -> String {
        match self.mode {
            PoolMode::Exact => format!("MaxPool[{}]", self.index),
            PoolMode::Paf { .. } => format!("PafMaxPool[{}]", self.index),
        }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.probe.record(x);
        // Winner indices from the exact pool drive the backward pass in
        // both modes (straight-through for the PAF variant).
        let (exact, idx) = max_pool2d(x, &self.spec);
        self.cache = Some(idx);
        match self.mode {
            PoolMode::Exact => exact,
            PoolMode::Paf { .. } => self.paf_pool(x, mode),
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        max_pool2d_backward(
            grad_output,
            self.cache.as_ref().expect("backward before forward"),
        )
    }

    fn slots_mut(&mut self) -> Vec<SlotRef<'_>> {
        vec![SlotRef::MaxPool(self)]
    }
}

/// A mutable reference to a replaceable non-polynomial operator slot,
/// as [`Layer::slots_mut`] lists them in inference order.
///
/// Every operation the replacement engine applies to either kind of
/// slot is one method here: Progressive Approximation replaces slots
/// one at a time, Coefficient Tuning probes their inputs, and the
/// DS→SS conversion freezes their scales. The ReLU-only operations
/// (`cull`, `paf`, `paf_mut`) stay on [`ReluSlot`].
pub enum SlotRef<'a> {
    /// A ReLU activation slot.
    Relu(&'a mut ReluSlot),
    /// A MaxPooling slot.
    MaxPool(&'a mut MaxPoolSlot),
}

impl SlotRef<'_> {
    /// The slot's position in inference order.
    pub fn index(&self) -> usize {
        match self {
            SlotRef::Relu(r) => r.index(),
            SlotRef::MaxPool(p) => p.index(),
        }
    }

    /// Whether the slot has been replaced by a PAF.
    pub fn is_replaced(&self) -> bool {
        match self {
            SlotRef::Relu(r) => r.is_replaced(),
            SlotRef::MaxPool(p) => p.is_replaced(),
        }
    }

    /// Replaces the exact operator with `paf` under `scale_mode`.
    pub fn replace_with(&mut self, paf: &CompositePaf, scale_mode: ScaleMode) {
        match self {
            SlotRef::Relu(r) => r.replace_with(paf, scale_mode),
            SlotRef::MaxPool(p) => p.replace_with(paf, scale_mode),
        }
    }

    /// Reverts to the exact operator.
    pub fn restore_exact(&mut self) {
        match self {
            SlotRef::Relu(r) => r.restore_exact(),
            SlotRef::MaxPool(p) => p.restore_exact(),
        }
    }

    /// The scaling state of a replaced slot.
    fn scaling(&mut self) -> Option<&mut Scaling> {
        match self {
            SlotRef::Relu(r) => r.paf_mut().map(|p| &mut p.scale),
            SlotRef::MaxPool(p) => match &mut p.mode {
                PoolMode::Paf { scale, .. } => Some(scale),
                PoolMode::Exact => None,
            },
        }
    }

    /// The scaling mode of a replaced slot (`None` for an exact or
    /// culled one).
    pub fn scale_mode(&self) -> Option<ScaleMode> {
        match self {
            SlotRef::Relu(r) => r.paf().map(|p| p.scale.mode),
            SlotRef::MaxPool(p) => match &p.mode {
                PoolMode::Paf { scale, .. } => Some(scale.mode),
                PoolMode::Exact => None,
            },
        }
    }

    /// Converts Dynamic Scaling to Static Scaling at the running max —
    /// the DS→SS conversion applied before FHE deployment. No-op
    /// unless the slot is replaced.
    pub fn freeze_scale(&mut self) {
        if let Some(s) = self.scaling() {
            s.freeze();
        }
    }

    /// Multiplies a static scale by `factor` — the §4.5 sensitivity
    /// experiment (both larger and smaller scales should hurt). No-op
    /// in dynamic mode and on an unreplaced slot.
    pub fn scale_static_by(&mut self, factor: f32) {
        if let Some(s) = self.scaling() {
            s.scale_by(factor);
        }
    }

    fn probe(&mut self) -> &mut Probe {
        match self {
            SlotRef::Relu(r) => &mut r.probe,
            SlotRef::MaxPool(p) => &mut p.probe,
        }
    }

    /// Starts recording (subsampled) forward inputs — the profiling
    /// step of Coefficient Tuning (paper Fig. 3 step 2).
    pub fn start_probe(&mut self) {
        self.probe().0 = Some(Vec::new());
    }

    /// Stops recording and returns the collected input samples.
    pub fn take_probe(&mut self) -> Vec<f32> {
        self.probe().0.take().unwrap_or_default()
    }
}

/// Average pooling layer (polynomial — never needs replacement).
pub struct AvgPool2d {
    spec: PoolSpec,
    input_dims: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    pub fn new(k: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: PoolSpec::new(k, stride),
            input_dims: Vec::new(),
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        format!("AvgPool2d(k{})", self.spec.k)
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.input_dims = x.dims().to_vec();
        avg_pool2d(x, &self.spec)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        avg_pool2d_backward(grad_output, &self.input_dims, &self.spec)
    }
}

/// Global average pooling `[N,C,H,W] -> [N,C]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    input_dims: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> String {
        "GlobalAvgPool".to_string()
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.input_dims = x.dims().to_vec();
        global_avg_pool(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        global_avg_pool_backward(grad_output, &self.input_dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpaf_polyfit::PafForm;

    #[test]
    fn exact_relu_forward_backward() {
        let mut slot = ReluSlot::new(0);
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0], &[1, 4]);
        let y = slot.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = slot.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
        assert!(!slot.is_replaced());
    }

    #[test]
    fn paf_relu_approximates_exact() {
        let mut slot = ReluSlot::new(0);
        slot.replace_with(
            &CompositePaf::from_form(PafForm::F1SqG1Sq),
            ScaleMode::Dynamic,
        );
        assert!(slot.is_replaced());
        let x = Tensor::from_vec(vec![-0.8, -0.2, 0.3, 0.9], &[1, 4]);
        let y = slot.forward(&x, Mode::Eval);
        let expect = [0.0, 0.0, 0.3, 0.9];
        for (a, b) in y.data().iter().zip(&expect) {
            assert!((a - b).abs() < 0.07, "{a} vs {b}");
        }
    }

    #[test]
    fn paf_relu_input_gradcheck() {
        let mut paf = PafActivation::from_composite(
            &CompositePaf::from_form(PafForm::F1G2),
            ScaleMode::Static(1.0),
        );
        let x = Tensor::from_vec(vec![-0.7, -0.2, 0.15, 0.6], &[1, 4]);
        let _ = paf.forward(&x, Mode::Eval);
        let gx = paf.backward(&Tensor::ones(&[1, 4]));
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (paf.forward(&xp, Mode::Eval).sum() - paf.forward(&xm, Mode::Eval).sum())
                / (2.0 * eps);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-2,
                "dX[{i}]: fd {fd} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn paf_relu_coeff_gradcheck() {
        let mut paf = PafActivation::from_composite(
            &CompositePaf::from_form(PafForm::F1G2),
            ScaleMode::Static(1.0),
        );
        let x = Tensor::from_vec(vec![-0.5, 0.4, 0.8], &[1, 3]);
        let _ = paf.forward(&x, Mode::Eval);
        let _ = paf.backward(&Tensor::ones(&[1, 3]));
        let analytic: Vec<f32> = paf.coeffs.grad.data().to_vec();
        let eps = 1e-3f32;
        for (i, &analytic_grad) in analytic.iter().enumerate() {
            let orig = paf.coeffs.value.data()[i];
            paf.coeffs.value.data_mut()[i] = orig + eps;
            let lp = paf.forward(&x, Mode::Eval).sum();
            paf.coeffs.value.data_mut()[i] = orig - eps;
            let lm = paf.forward(&x, Mode::Eval).sum();
            paf.coeffs.value.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic_grad).abs() < 0.05 * (1.0 + fd.abs()),
                "dC[{i}]: fd {fd} vs {analytic_grad}"
            );
        }
    }

    #[test]
    fn dynamic_scaling_tracks_running_max() {
        let mut paf = PafActivation::from_composite(
            &CompositePaf::from_form(PafForm::Alpha7),
            ScaleMode::Dynamic,
        );
        let x1 = Tensor::from_vec(vec![-3.0, 1.0], &[1, 2]);
        let x2 = Tensor::from_vec(vec![5.0, -1.0], &[1, 2]);
        paf.forward(&x1, Mode::Train);
        assert_eq!(paf.scale.running_max, 3.0);
        paf.forward(&x2, Mode::Train);
        assert_eq!(paf.scale.running_max, 5.0);
        paf.scale.freeze();
        assert_eq!(paf.scale.mode, ScaleMode::Static(5.0));
    }

    #[test]
    fn eval_mode_does_not_update_running_max() {
        let mut paf = PafActivation::from_composite(
            &CompositePaf::from_form(PafForm::Alpha7),
            ScaleMode::Dynamic,
        );
        paf.forward(&Tensor::from_vec(vec![10.0], &[1, 1]), Mode::Eval);
        assert_eq!(paf.scale.running_max, 0.0);
    }

    #[test]
    fn dynamic_scale_keeps_paf_accurate_on_large_inputs() {
        // Without scaling, |x| >> 1 explodes a composite PAF; DS keeps
        // inputs in the accurate band (the paper's §4.5 motivation).
        let mut paf = PafActivation::from_composite(
            &CompositePaf::from_form(PafForm::F1SqG1Sq),
            ScaleMode::Dynamic,
        );
        let x = Tensor::from_vec(vec![-40.0, -10.0, 15.0, 50.0], &[1, 4]);
        let y = paf.forward(&x, Mode::Train);
        let expect = [0.0, 0.0, 15.0, 50.0];
        for (a, b) in y.data().iter().zip(&expect) {
            assert!((a - b).abs() < 4.0, "{a} vs {b}");
        }
    }

    #[test]
    fn exact_maxpool_slot() {
        let mut slot = MaxPoolSlot::new(0, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = slot.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[4.0]);
        let g = slot.backward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn paf_maxpool_approximates_exact() {
        let mut slot = MaxPoolSlot::new(0, 2, 2);
        slot.replace_with(
            &CompositePaf::from_form(PafForm::F1SqG1Sq),
            ScaleMode::Dynamic,
        );
        let x = Tensor::from_vec(
            vec![0.1, 0.9, -0.3, 0.2, 0.5, 0.4, 0.6, -0.1],
            &[1, 2, 2, 2],
        );
        let y = slot.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 2, 1, 1]);
        assert!((y.data()[0] - 0.9).abs() < 0.1, "{}", y.data()[0]);
        assert!((y.data()[1] - 0.6).abs() < 0.1, "{}", y.data()[1]);
    }

    #[test]
    fn paf_maxpool_error_accumulates_with_window_size() {
        // Nested PAF calls accumulate error (paper §5.4.3): a 3x3
        // window (8 nested max ops) should err more than a 2x2 (3 ops).
        let paf = CompositePaf::from_form(PafForm::F1G2);
        let mk = |k: usize| {
            let mut slot = MaxPoolSlot::new(0, k, k);
            slot.replace_with(&paf, ScaleMode::Static(1.0));
            slot
        };
        let mut rng = smartpaf_tensor::Rng64::new(42);
        let x2 = Tensor::rand_uniform(&[4, 2, 4, 4], -0.5, 0.5, &mut rng);
        let x3 = Tensor::rand_uniform(&[4, 2, 6, 6], -0.5, 0.5, &mut rng);
        let err = |slot: &mut MaxPoolSlot, x: &Tensor| {
            let approx = slot.forward(x, Mode::Eval);
            let mut exact_slot = MaxPoolSlot::new(0, slot.spec.k, slot.spec.stride);
            let exact = exact_slot.forward(x, Mode::Eval);
            approx.sub(&exact).map(f32::abs).mean()
        };
        let e2 = err(&mut mk(2), &x2);
        let e3 = err(&mut mk(3), &x3);
        assert!(e3 > e2, "3x3 error {e3} should exceed 2x2 error {e2}");
    }

    #[test]
    fn avgpool_and_global_layers() {
        let mut ap = AvgPool2d::new(2, 2);
        let x = Tensor::arange(16, 0.0, 1.0).reshape(&[1, 1, 4, 4]);
        let y = ap.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
        let g = ap.backward(&Tensor::ones(&[1, 1, 2, 2]));
        assert_eq!(g.sum(), 4.0);

        let mut gp = GlobalAvgPool::new();
        let y = gp.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[7.5]);
        let g = gp.backward(&Tensor::ones(&[1, 1]));
        assert_eq!(g.dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn restore_exact_reverts() {
        let mut slot = ReluSlot::new(3);
        slot.replace_with(&CompositePaf::from_form(PafForm::F1G2), ScaleMode::Dynamic);
        assert!(slot.is_replaced());
        slot.restore_exact();
        assert!(!slot.is_replaced());
        assert_eq!(slot.index(), 3);
    }
    #[test]
    fn culled_relu_is_identity() {
        let mut slot = ReluSlot::new(0);
        slot.cull();
        assert!(slot.is_culled());
        assert!(!slot.is_replaced());
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0], &[1, 4]);
        let y = slot.forward(&x, Mode::Eval);
        assert_eq!(y.data(), x.data());
        let g = slot.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]));
        assert_eq!(g.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn culled_relu_has_no_params_and_restores() {
        let mut slot = ReluSlot::new(3);
        slot.replace_with(&CompositePaf::from_form(PafForm::F1G2), ScaleMode::Dynamic);
        assert!(!slot.params_mut().is_empty());
        slot.cull();
        assert!(slot.params_mut().is_empty());
        assert!(slot.paf().is_none());
        assert!(slot.name().starts_with("CulledReLU"));
        slot.restore_exact();
        assert!(!slot.is_culled());
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]);
        let y = slot.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 1.0]);
    }
}
