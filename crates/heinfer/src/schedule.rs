//! The level schedule: where a run refreshes and the level every
//! atomic op is entered at.
//!
//! A pipeline is a sequence of **atomic ops** — level-consuming steps a
//! refresh can fall before but never inside ([`HePipeline::atomic_ops`]).
//! Refreshes cut the run into refresh-free **segments**, and two things
//! about a cut are decided separately.
//!
//! *How many* refreshes it takes is forced: the fewest any cut of the
//! run can have — the number a greedy walk (refresh only when the next
//! op no longer fits) arrives at. The schedule never takes one more
//! than that; a refresh is never traded for cheaper ops.
//!
//! *Where* they fall is not. conv 1, ReLU 6, max 6, max 6, linear 1 on
//! a 12-level chain takes two refreshes as `[1, 6 | 6, 6 | 1]` and as
//! `[1, 6 | 6 | 6, 1]`, but the first enters a PAF-max on 13 limbs
//! where the second never runs anything on more than 8. An op's work is
//! fixed ([`AtomicOp::work`]); what it costs depends on the level it is
//! entered at ([`OpPrices`]), and that is what the rest of its segment
//! consumes ([`ScheduledOp::level_in`]) — a refreshed ciphertext sits
//! at the top of the chain whatever the segment goes on to use, so the
//! limbs it will not use are dropped first (an exact truncation) and a
//! segment ends at level 0. Among the cuts with the minimum refresh
//! count [`LevelSchedule::cut`] takes the cheapest, exactly.
//!
//! A planner asks one question more: which form each PAF slot should
//! take. A slot's form fixes only its ops' `need` and `work`, so
//! [`LevelSchedule::cut_forms`] answers it inside the same dynamic
//! program — one alternative op list per form, the ops of one stage
//! sharing a form — and [`LevelSchedule::cut`] is its one-alternative
//! call.
//!
//! [`CkksBackend`](crate::CkksBackend) executes the schedule and the
//! trace reads it ([`HePipeline::trace`]), so a dry run's levels are
//! the executed levels and its price is the one that was minimised, by
//! construction.

use crate::exec::RunError;
use crate::pipeline::{HePipeline, Stage};
use smartpaf_ckks::cost::{OpPrices, OpWork};
use smartpaf_ckks::{CkksParams, PafEvaluator};

/// One indivisible level-consuming step of a pipeline, on one
/// ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicOp {
    /// Index of the stage the op belongs to.
    pub stage: usize,
    /// Levels the op consumes.
    pub need: usize,
    /// What the op computes, whatever level it is entered at.
    pub work: OpWork,
}

impl Stage {
    /// `(ops, need)`: the stage's atomic ops (see [`AtomicOp`]) and the
    /// levels each consumes. An affine map is one op of one level; a
    /// PAF-ReLU is one op covering its scale multiplications; a max
    /// pool's fold is one PAF-max per shift, and a refresh can fall
    /// between two of them.
    pub(crate) fn atomic_shape(&self) -> (usize, usize) {
        match self {
            Stage::Affine { .. } => (1, 1),
            Stage::PafRelu {
                paf,
                pre_scale,
                post_scale,
                ..
            } => {
                let scales = usize::from(*pre_scale != 1.0) + usize::from(*post_scale != 1.0);
                (1, PafEvaluator::relu_depth(paf) + scales)
            }
            Stage::PafMax { shifts, paf, .. } => (shifts.len(), PafEvaluator::relu_depth(paf)),
        }
    }
}

impl HePipeline {
    /// The pipeline's atomic ops, in execution order, with their work:
    /// an affine's key switches and plaintext multiplies are those of
    /// its BSGS product, a PAF acts per slot and a pool's shift is one
    /// rotation. A lane expansion ([`HePipeline::expand_lanes`]) has
    /// the same ops, so this is the work of a packed request too.
    pub fn atomic_ops(&self) -> Vec<AtomicOp> {
        let mut ops = Vec::new();
        for (stage, s) in self.stages.iter().enumerate() {
            let work = match s {
                Stage::Affine { mat, .. } => {
                    let key_switches = mat.bsgs_counts();
                    OpWork {
                        rotations: key_switches.rotations,
                        decompositions: key_switches.decompositions,
                        plain_mults: mat.num_diagonals(),
                        ..OpWork::default()
                    }
                }
                Stage::PafRelu { engine, .. } | Stage::PafMax { engine, .. } => {
                    // The sign stages plus the `x·sign(x)` product; a
                    // max also rotates the running fold, which has its
                    // own decomposition.
                    let shift = usize::from(matches!(s, Stage::PafMax { .. }));
                    OpWork {
                        tensors: engine.exact_ct_mults() + 1,
                        relins: engine.exact_relins() + 1,
                        rotations: shift,
                        decompositions: shift,
                        plain_mults: 0,
                    }
                }
            };
            let (count, need) = s.atomic_shape();
            ops.extend(std::iter::repeat_n(AtomicOp { stage, need, work }, count));
        }
        ops
    }
}

/// What the schedule fixed for one atomic op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The op.
    pub op: AtomicOp,
    /// Whether a segment starts here: the ciphertext is refreshed
    /// before the op.
    pub refresh: bool,
    /// The level the op is entered at: what it and the rest of its
    /// segment consume.
    pub level_in: usize,
    /// The op's price entered there ([`OpPrices::op_modmuls`]).
    pub modmuls: u128,
}

/// What a cut costs, compared lexicographically: refreshes first — a
/// refresh is never traded for cheaper ops — then tensor products when
/// the [`Tiebreak`] counts them, then the ops' price.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CutKey {
    /// Refreshes the run takes.
    pub refreshes: usize,
    /// Tensor products ([`OpWork::tensors`]), or 0 under
    /// [`Tiebreak::Price`].
    pub products: usize,
    /// Modular multiplies of the ops at the levels they are entered
    /// at ([`OpPrices::op_modmuls`]).
    pub price: u128,
}

impl std::ops::Add for CutKey {
    type Output = CutKey;

    fn add(self, other: CutKey) -> CutKey {
        CutKey {
            refreshes: self.refreshes + other.refreshes,
            products: self.products + other.products,
            price: self.price + other.price,
        }
    }
}

/// What decides between two cuts that take equally few refreshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiebreak {
    /// The ops' price.
    Price,
    /// Tensor products, then the ops' price.
    ProductsThenPrice,
}

impl Tiebreak {
    /// The key of a run with these totals.
    pub fn key(self, refreshes: usize, products: usize, price: u128) -> CutKey {
        let products = match self {
            Tiebreak::Price => 0,
            Tiebreak::ProductsThenPrice => products,
        };
        CutKey {
            refreshes,
            products,
            price,
        }
    }
}

/// Why a run stops before the last op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The op needs more than the `available` levels and refreshing is
    /// not allowed.
    OutOfLevels { available: usize },
    /// The op needs more levels than a refresh provides.
    AtomicDepthExceeded,
}

/// The cheapest minimum-refresh schedule of one run (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSchedule {
    /// The scheduled ops: all of them, or those before `stopped_at`.
    ops: Vec<ScheduledOp>,
    /// The op the run cannot get past, and why.
    stopped_at: Option<(AtomicOp, Stop)>,
    start_level: usize,
    refresh_level: usize,
}

impl LevelSchedule {
    /// Cuts `ops` into refresh-free segments for an input at
    /// `start_level`, refreshes that return a ciphertext at
    /// `refresh_level`, and `allow_refresh` saying whether there is a
    /// refresher at all: of the cuts with the fewest refreshes, the one
    /// whose ops cost least at `params` — [`LevelSchedule::cut_forms`]
    /// with one form. A first segment deeper than `start_level` is
    /// refreshed on entry. Equal prices go to the shorter last segment,
    /// so cutting again from the level the schedule enters the first op
    /// at — where a plan has its requests encrypted — changes nothing.
    ///
    /// A run that cannot complete keeps its failure for
    /// [`LevelSchedule::stage`] to report when execution reaches it.
    /// Without a refresher it is one open segment with no consumption
    /// to be entered at, and keeps the levels it would have had
    /// undropped; with one, the ops before one too deep for any refresh
    /// are cut as a run of their own.
    pub fn cut(
        ops: &[AtomicOp],
        params: &CkksParams,
        start_level: usize,
        refresh_level: usize,
        allow_refresh: bool,
    ) -> LevelSchedule {
        if allow_refresh {
            let forms = [ops];
            return Self::cut_forms(&forms, params, start_level, refresh_level, Tiebreak::Price).0;
        }
        let (mut schedule, runnable) = LevelSchedule::open(&[ops], start_level, refresh_level);
        let prices = OpPrices::new(params, start_level.max(refresh_level));
        schedule.walk_one_segment(&ops[..runnable], &prices);
        schedule
    }

    /// Cuts a run whose PAF slots may each take one of several forms,
    /// choosing the forms with the cut. `forms[a]` is the run with
    /// every slot under form `a`: the same stages and op count, each op
    /// with the `need` and `work` the form gives it. The ops of a stage
    /// share its form, so a pool's shifts take their slot's. Of every
    /// cut of every choice, the one with the least [`CutKey`] under
    /// `tiebreak`, exactly — a dynamic program over (op, the levels the
    /// rest of its segment consumes, its form), linear in the op count —
    /// with the form each stage takes, indexed by stage. An op is
    /// hosted only by the forms no deeper than a refresh; where none
    /// is, the run stops as [`LevelSchedule::cut`]'s does.
    ///
    /// Equal keys go to the later cut, then to the lower form index.
    ///
    /// # Panics
    ///
    /// Panics unless `forms` is non-empty and its runs agree op for op
    /// on the stage.
    pub fn cut_forms(
        forms: &[&[AtomicOp]],
        params: &CkksParams,
        start_level: usize,
        refresh_level: usize,
        tiebreak: Tiebreak,
    ) -> (LevelSchedule, Vec<usize>) {
        let ops = forms.first().expect("at least one form");
        assert!(
            forms.iter().all(|run| run.len() == ops.len()
                && run.iter().zip(*ops).all(|(a, b)| a.stage == b.stage)),
            "every form's run has the same stages"
        );
        let (mut schedule, runnable) = LevelSchedule::open(forms, start_level, refresh_level);
        let prices = OpPrices::new(params, start_level.max(refresh_level));
        let stage_forms = schedule.cut_by_key(forms, runnable, &prices, tiebreak);
        (schedule, stage_forms)
    }

    /// An empty schedule of the run, stopped at its first op no form
    /// can host — no refresh helps an op deeper than the refresh level,
    /// and a stage's ops are equally deep, so the run stops where the
    /// stage starts — and the number of ops before it.
    fn open(forms: &[&[AtomicOp]], start_level: usize, refresh_level: usize) -> (Self, usize) {
        let ops = forms[0];
        let too_deep =
            (0..ops.len()).position(|t| forms.iter().all(|run| run[t].need > refresh_level));
        let schedule = LevelSchedule {
            ops: Vec::with_capacity(ops.len()),
            stopped_at: too_deep.map(|t| (ops[t], Stop::AtomicDepthExceeded)),
            start_level,
            refresh_level,
        };
        (schedule, too_deep.unwrap_or(ops.len()))
    }

    /// The schedule without a refresher: one segment from the start
    /// level, entered at what it consumes if the run gets through it.
    fn walk_one_segment(&mut self, ops: &[AtomicOp], prices: &OpPrices) {
        let mut level = self.start_level;
        for &op in ops {
            if level < op.need {
                self.stopped_at = Some((op, Stop::OutOfLevels { available: level }));
                break;
            }
            self.ops.push(ScheduledOp {
                op,
                refresh: false,
                level_in: level,
                modmuls: 0,
            });
            level -= op.need;
        }
        let spare = if self.stopped_at.is_none() { level } else { 0 };
        for op in &mut self.ops {
            op.level_in -= spare;
            op.modmuls = prices.op_modmuls(&op.op.work, op.level_in, op.op.need);
        }
    }

    /// The schedule with a refresher: of every cut of the first
    /// `runnable` ops under every choice of one form per stage, the one
    /// with the least key. Returns the form each stage takes.
    fn cut_by_key(
        &mut self,
        forms: &[&[AtomicOp]],
        runnable: usize,
        prices: &OpPrices,
        tiebreak: Tiebreak,
    ) -> Vec<usize> {
        let (start_level, refresh_level) = (self.start_level, self.refresh_level);
        let top = start_level.max(refresh_level);
        let mut stage_forms = vec![0; forms[0].last().map_or(0, |op| op.stage + 1)];
        let Some(last) = runnable.checked_sub(1) else {
            return stage_forms;
        };
        // `best[at(t, level, form)]`: the least key of `ops[..=t]` with
        // op `t` under `form` entered at `level` — what the rest of its
        // segment consumes — as (key, the form of op `t − 1`, whether a
        // refresh falls between the two). A refresh ends the segment of
        // op `t − 1` at its own need.
        let at = |t: usize, level: usize, form: usize| (t * (top + 1) + level) * forms.len() + form;
        let refreshes = |refresh: bool| CutKey {
            refreshes: usize::from(refresh),
            ..CutKey::default()
        };
        let mut best: Vec<Option<(CutKey, usize, bool)>> =
            vec![None; runnable * (top + 1) * forms.len()];
        for t in 0..runnable {
            for (form, run) in forms.iter().enumerate() {
                let op = run[t];
                if op.need > refresh_level {
                    continue;
                }
                // Op `t − 1` shares the form when it is of the same stage.
                let previous = if t > 0 && forms[0][t - 1].stage == op.stage {
                    form..form + 1
                } else {
                    0..forms.len()
                };
                for level in op.need..=top {
                    let price = prices.op_modmuls(&op.work, level, op.need);
                    let cost = tiebreak.key(0, op.work.tensors, price);
                    let mut choice: Option<(CutKey, usize, bool)> = None;
                    if t == 0 {
                        let refresh = level > start_level;
                        if !refresh || level <= refresh_level {
                            choice = Some((cost + refreshes(refresh), 0, refresh));
                        }
                    } else {
                        // Equal keys go to the refresh — the later cut —
                        // and then to the lower form.
                        for refresh in [true, false] {
                            if refresh && level > refresh_level {
                                continue;
                            }
                            for prev in previous.clone() {
                                let need = forms[prev][t - 1].need;
                                let prev_level = if refresh { need } else { level + need };
                                if prev_level > top {
                                    continue;
                                }
                                if let Some((key, ..)) = best[at(t - 1, prev_level, prev)] {
                                    let key = key + cost + refreshes(refresh);
                                    if choice.is_none_or(|(k, ..)| key < k) {
                                        choice = Some((key, prev, refresh));
                                    }
                                }
                            }
                        }
                    }
                    best[at(t, level, form)] = choice;
                }
            }
        }
        // The run ends on its last limb: the last op is entered at its
        // own need.
        let (_, mut form) = (0..forms.len())
            .filter(|&form| forms[form][last].need <= refresh_level)
            .filter_map(|form| {
                let end = best[at(last, forms[form][last].need, form)];
                end.map(|(key, ..)| (key, form))
            })
            .min()
            .expect("an op no deeper than a refresh is a segment");
        let mut level = forms[form][last].need;
        for t in (0..runnable).rev() {
            let op = forms[form][t];
            let (_, prev, refresh) = best[at(t, level, form)].expect("on the best path");
            self.ops.push(ScheduledOp {
                op,
                refresh,
                level_in: level,
                modmuls: prices.op_modmuls(&op.work, level, op.need),
            });
            stage_forms[op.stage] = form;
            if t > 0 {
                let need = forms[prev][t - 1].need;
                level = if refresh { need } else { level + need };
                form = prev;
            }
        }
        self.ops.reverse();
        #[cfg(debug_assertions)]
        self.check_cut();
        stage_forms
    }

    /// The schedule's [`CutKey`] under `tiebreak`.
    pub fn key(&self, tiebreak: Tiebreak) -> CutKey {
        let refreshes = self.ops.iter().filter(|o| o.refresh).count();
        let products = self.ops.iter().map(|o| o.op.work.tensors).sum();
        tiebreak.key(
            refreshes,
            products,
            self.ops.iter().map(|o| o.modmuls).sum(),
        )
    }

    /// The invariants of a completed cut: every op is entered at what
    /// the rest of its segment consumes, no segment is deeper than the
    /// ciphertext it starts from, and the refreshes are as few as the
    /// greedy walk takes.
    #[cfg(debug_assertions)]
    fn check_cut(&self) {
        let mut rest_of_segment = 0;
        for op in self.ops.iter().rev() {
            rest_of_segment += op.op.need;
            assert_eq!(op.level_in, rest_of_segment);
            if op.refresh {
                assert!(rest_of_segment <= self.refresh_level);
                rest_of_segment = 0;
            }
        }
        assert!(rest_of_segment <= self.start_level);
        let needs = self.ops.iter().map(|o| o.op.need);
        assert_eq!(
            self.ops.iter().filter(|o| o.refresh).count(),
            greedy_refreshes(needs, self.start_level, self.refresh_level)
        );
    }

    /// The scheduled ops of stage `stage`, or — when the run cannot get
    /// past one of them — the error that stops it, under the stage's
    /// `label`.
    pub fn stage(&self, stage: usize, label: &str) -> Result<&[ScheduledOp], RunError> {
        if let Some((op, stop)) = self.stopped_at.filter(|(op, _)| op.stage == stage) {
            let label = label.to_string();
            return Err(match stop {
                Stop::OutOfLevels { available } => RunError::OutOfLevels {
                    label,
                    available,
                    needed: op.need,
                    // Not the first op of its stage: the op before it
                    // was scheduled, and belongs to the same stage.
                    mid_stage: self.ops.last().is_some_and(|o| o.op.stage == stage),
                },
                Stop::AtomicDepthExceeded => RunError::AtomicDepthExceeded {
                    label,
                    needed: op.need,
                    max_level: self.refresh_level,
                },
            });
        }
        let from = self.ops.partition_point(|o| o.op.stage < stage);
        let to = self.ops.partition_point(|o| o.op.stage <= stage);
        Ok(&self.ops[from..to])
    }

    /// Every scheduled op, in execution order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// The level a run stands at once its first `stages` stages have
    /// executed (the input's level before any). Entering a segment
    /// below the level the ciphertext arrived at is not consumption,
    /// but it does mean a completed run ends at level 0.
    pub fn level_after(&self, stages: usize) -> usize {
        let done = self.ops.partition_point(|o| o.op.stage < stages);
        done.checked_sub(1).map_or(self.start_level, |last| {
            self.ops[last].level_in - self.ops[last].op.need
        })
    }
}

/// The refreshes of the greedy walk over ops consuming `needs` —
/// refresh only when the next op no longer fits — which no cut can
/// undercut: the reference [`LevelSchedule::cut`]'s count is held to.
#[cfg(any(test, debug_assertions))]
pub(crate) fn greedy_refreshes(
    needs: impl Iterator<Item = usize>,
    start_level: usize,
    refresh_level: usize,
) -> usize {
    let (mut level, mut refreshes) = (start_level, 0);
    for need in needs {
        if level < need {
            refreshes += 1;
            level = refresh_level;
        }
        level -= need;
    }
    refreshes
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A PAF-shaped op: products over `need` levels, nothing else.
    fn paf(stage: usize, need: usize) -> AtomicOp {
        let work = OpWork {
            tensors: need + 1,
            relins: need,
            ..OpWork::default()
        };
        AtomicOp { stage, need, work }
    }

    fn ops(needs: &[usize]) -> Vec<AtomicOp> {
        let op = |(stage, &need)| paf(stage, need);
        needs.iter().enumerate().map(op).collect()
    }

    /// One pool stage from its shifts' needs.
    fn pool(needs: &[usize]) -> Vec<AtomicOp> {
        needs.iter().map(|&need| paf(0, need)).collect()
    }

    fn cut(ops: &[AtomicOp], start: usize, refresh: usize, allow: bool) -> LevelSchedule {
        LevelSchedule::cut(ops, &CkksParams::default_params(), start, refresh, allow)
    }

    fn levels_in(s: &LevelSchedule) -> Vec<usize> {
        s.ops().iter().map(|o| o.level_in).collect()
    }

    fn refreshed(s: &LevelSchedule) -> Vec<bool> {
        s.ops().iter().map(|o| o.refresh).collect()
    }

    /// `(refreshes, price)` of `ops` cut before every op whose bit is
    /// set in `cuts` (bit `i` ↔ a refresh before `ops[i + 1]`), or
    /// `None` when a segment is deeper than the ciphertext it starts
    /// from. A first segment deeper than `start` is refreshed on entry.
    pub(crate) fn price_of_cut(
        ops: &[AtomicOp],
        prices: &OpPrices,
        (start, refresh): (usize, usize),
        cuts: u32,
    ) -> Option<(usize, u128)> {
        let (mut refreshes, mut price, mut rest_of_segment) = (0, 0, 0);
        for (i, op) in ops.iter().enumerate().rev() {
            rest_of_segment += op.need;
            if rest_of_segment > start.max(refresh) {
                return None;
            }
            price += prices.op_modmuls(&op.work, rest_of_segment, op.need);
            let cut_here = i > 0 && cuts >> (i - 1) & 1 == 1;
            if cut_here || (i == 0 && rest_of_segment > start) {
                if rest_of_segment > refresh {
                    return None;
                }
                refreshes += 1;
                rest_of_segment = 0;
            }
        }
        Some((refreshes, price))
    }

    #[test]
    fn segments_are_entered_at_what_they_consume() {
        // 1 + 7 + 1 + 6 + 6 + 1 + 1 on a 12-level chain cannot take
        // fewer than two refreshes, and the walk that refreshes on
        // exhaustion takes them as [1 7 1 | 6 6 | 1 1]: levels
        // [9 8 1 | 12 6 | 2 1], the first 6-level op at the top of the
        // chain. Re-recorded for the priced cut: [1 7 | 1 6 | 6 1 1]
        // takes the same two and never runs anything above 9 limbs.
        let s = cut(&ops(&[1, 7, 1, 6, 6, 1, 1]), 12, 12, true);
        assert_eq!(
            levels_in(&s),
            [8, 7, 7, 6, 8, 2, 1],
            "the cheapest of the two-refresh cuts, not the greedy one"
        );
        assert_eq!(
            refreshed(&s),
            [false, false, true, false, true, false, false]
        );
        assert_eq!(s.level_after(0), 12);
        assert_eq!(s.level_after(2), 0);
        assert_eq!(s.level_after(3), 6);
        assert_eq!(s.level_after(4), 0);
        assert_eq!(s.level_after(7), 0);
    }

    #[test]
    fn the_benchmark_cnn_never_runs_above_eight_limbs() {
        // conv, ReLU, a two-shift pool, linear∘selection under each of
        // the six forms' needs (the sign's depth plus the product; the
        // ReLU's scales are folded away): a deeper-than-6 form takes a
        // refresh before each max and one more before the head or not
        // at all, and for f1∘g2 the table of ARCHITECTURE "Level
        // schedule" — conv 7, ReLU 6 | max 6 | max 7, head 1.
        let cnn = |need: usize| {
            let mut ops = vec![paf(0, 1), paf(1, need)];
            ops.extend([paf(2, need), paf(2, need)]);
            ops.push(paf(3, 1));
            ops
        };
        let s = cut(&cnn(6), 12, 12, true);
        assert_eq!(levels_in(&s), [7, 6, 6, 7, 1]);
        assert_eq!(refreshed(&s), [false, false, true, true, false]);
        let prices = OpPrices::new(&CkksParams::default_params(), 12);
        let price = |s: &LevelSchedule| s.ops().iter().map(|o| o.modmuls).sum::<u128>();
        // [1 6 | 6 6 | 1], what the greedy walk cut, is the dearest of
        // the two-refresh cuts.
        let greedy = price_of_cut(&cnn(6), &prices, (12, 12), 0b1010).unwrap();
        assert_eq!(greedy.0, 2);
        assert!(price(&s) < greedy.1, "{} vs {}", price(&s), greedy.1);
        for need in [7, 8, 10, 11] {
            let s = cut(&cnn(need), 12, 12, true);
            let refreshes = s.ops().iter().filter(|o| o.refresh).count();
            let needs = cnn(need).into_iter().map(|o| o.need);
            assert_eq!(refreshes, greedy_refreshes(needs, 12, 12), "need {need}");
            assert_eq!(refreshes, 2, "need {need}");
            assert_eq!(levels_in(&s), [1 + need, need, need, need + 1, 1]);
        }
    }

    #[test]
    fn the_cut_is_a_fixed_point_of_its_own_input_level() {
        // Encrypting at the schedule's input level must not move a cut.
        let needs = [1, 7, 1, 6, 6, 1, 1];
        let top = cut(&ops(&needs), 12, 12, true);
        let low = cut(&ops(&needs), top.ops()[0].level_in, 12, true);
        assert_eq!(top.ops(), low.ops());
        // Equal prices — ops with no work — go to the shorter last
        // segment from either start.
        let idle: Vec<AtomicOp> = (0..6)
            .map(|stage| AtomicOp {
                stage,
                need: 5,
                work: OpWork::default(),
            })
            .collect();
        let top = cut(&idle, 12, 12, true);
        assert_eq!(levels_in(&top), [10, 5, 10, 5, 10, 5]);
        assert_eq!(cut(&idle, top.ops()[0].level_in, 12, true).ops(), top.ops());
    }

    #[test]
    fn a_refresh_can_fall_between_two_shifts_of_a_pool() {
        // 11 + 11 > 12: the second shift starts a segment of its own,
        // inside the stage, and the refresh is one ciphertext's.
        let s = cut(&pool(&[11, 11]), 12, 12, true);
        assert_eq!(levels_in(&s), [11, 11]);
        assert_eq!(refreshed(&s), [false, true]);
        assert_eq!(s.stage(0, "pool").unwrap().len(), 2);
        assert!(s.stage(1, "none").unwrap().is_empty());
    }

    #[test]
    fn a_pools_shifts_share_their_slots_form() {
        let op = |stage, need, tensors| AtomicOp {
            stage,
            need,
            work: OpWork {
                tensors,
                ..OpWork::default()
            },
        };
        // A ReLU of 1 level, then a two-shift pool: form 0 is cheap
        // and 6 levels a shift, form 1 dear and 5. Uniform form 0
        // takes 13 levels, so a refresh; the ReLU under form 0 and the
        // pool under form 1 fit 11 without one. A pool that mixed its
        // shifts (6 + 5) would fit too with fewer products, but a slot
        // has one form.
        let cheap = [op(0, 1, 1), op(1, 6, 2), op(1, 6, 2)];
        let shallow = [op(0, 1, 5), op(1, 5, 10), op(1, 5, 10)];
        let params = CkksParams::default_params();
        let key = |ops: &[AtomicOp]| cut(ops, 12, 12, true).key(Tiebreak::ProductsThenPrice);
        assert_eq!(key(&cheap).refreshes, 1);
        let (s, forms) = LevelSchedule::cut_forms(
            &[&cheap, &shallow],
            &params,
            12,
            12,
            Tiebreak::ProductsThenPrice,
        );
        assert_eq!(forms, [0, 1]);
        assert_eq!(levels_in(&s), [11, 10, 5]);
        let mixed = [cheap[0], shallow[1], shallow[2]];
        assert_eq!(s.key(Tiebreak::ProductsThenPrice), key(&mixed));
        assert_eq!((key(&mixed).refreshes, key(&mixed).products), (0, 21));
    }

    #[test]
    fn an_input_below_its_first_segment_is_refreshed_on_entry() {
        // A request that arrives with 2 levels cannot start a 6-level
        // op: the refresh comes first, and buys the whole chain.
        let s = cut(&ops(&[6, 5, 1]), 2, 12, true);
        assert_eq!(levels_in(&s), [12, 6, 1]);
        assert_eq!(refreshed(&s), [true, false, false]);
        // An input above what a refresh returns (a real bootstrap hands
        // back fewer levels than the chain has) may open with a segment
        // no refresh could host.
        let s = cut(&ops(&[6, 6, 3, 6, 6]), 16, 12, true);
        assert_eq!(levels_in(&s), [15, 9, 3, 12, 6]);
        assert_eq!(refreshed(&s), [false, false, false, true, false]);
    }

    #[test]
    fn a_run_that_cannot_complete_drops_nothing() {
        // No refresher: the third op finds 4 < 7 — the values an
        // undropped walk from level 12 meets — and the ops before it
        // stay at their undropped levels.
        let s = cut(&ops(&[1, 7, 7]), 12, 12, false);
        assert_eq!(levels_in(&s), [12, 11]);
        assert!(s.stage(1, "relu").is_ok());
        assert_eq!(
            s.stage(2, "relu").unwrap_err(),
            RunError::OutOfLevels {
                label: "relu".into(),
                available: 4,
                needed: 7,
                mid_stage: false,
            }
        );
        // A pool whose second shift runs dry fails mid-stage.
        let err = cut(&pool(&[6, 6]), 8, 12, false)
            .stage(0, "pool")
            .unwrap_err();
        assert_eq!(
            err,
            RunError::OutOfLevels {
                label: "pool".into(),
                available: 2,
                needed: 6,
                mid_stage: true,
            }
        );
        // One that fits is one segment, entered at what it consumes.
        assert_eq!(levels_in(&cut(&ops(&[1, 7, 1]), 12, 12, false)), [9, 8, 1]);
    }

    #[test]
    fn an_op_deeper_than_the_chain_stops_its_stage_at_the_door() {
        // The depth check comes before the level check: a pool deeper
        // than the chain is infeasible, not out of levels, even when it
        // is entered with none left.
        for allow_refresh in [false, true] {
            let s = cut(&ops(&[1, 11, 11]), 1, 8, allow_refresh);
            assert_eq!(levels_in(&s), [1]);
            assert_eq!(
                s.stage(1, "pool").unwrap_err(),
                RunError::AtomicDepthExceeded {
                    label: "pool".into(),
                    needed: 11,
                    max_level: 8,
                }
            );
        }
    }
}
