//! The level schedule: where a run refreshes and the level every
//! atomic op is entered at.
//!
//! A pipeline is a sequence of **atomic ops** — level-consuming steps a
//! refresh can fall before but never inside ([`HePipeline::atomic_ops`]).
//! Walking them greedily (refresh only when the next op no longer fits)
//! cuts the run into refresh-free **segments**, and the positions of
//! those cuts are forced: a later cut would overflow the chain, an
//! earlier one could only add refreshes. What is *not* forced is the
//! level a segment is entered at. A fresh or refreshed ciphertext sits
//! at the top of the chain whatever the segment goes on to consume, and
//! every limb it does not consume is carried through each NTT, key
//! switch and rescale of the segment for nothing. So the schedule keeps,
//! per op, the levels the rest of its segment consumes
//! ([`ScheduledOp::level_in`]): entering the op there — dropping the
//! spare limbs, an exact truncation — makes the segment end at level 0.
//!
//! [`CkksBackend`](crate::CkksBackend) executes the schedule and
//! [`TraceBackend`](crate::TraceBackend) records it, so a dry run's
//! levels are the executed levels by construction.

use crate::exec::RunError;
use crate::pipeline::{HePipeline, Stage};
use smartpaf_ckks::PafEvaluator;

/// One indivisible level-consuming step of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicOp {
    /// Index of the stage the op belongs to.
    pub stage: usize,
    /// Levels the op consumes.
    pub need: usize,
    /// Ciphertexts entering the op: 1, except a max-pool fold round,
    /// which takes every tap still in the fold. A refresh before the op
    /// refreshes all of them, and only a fold round can refresh *inside*
    /// its stage.
    pub width: usize,
}

impl Stage {
    /// Calls `f(need, width)` for each of the stage's atomic ops, in
    /// execution order (see [`AtomicOp`]): an affine map is one op of
    /// one level; a PAF-ReLU is one op covering its scale
    /// multiplications; a max pool is the tap selection, one op per
    /// pairwise fold round, then its post-scale.
    pub(crate) fn for_each_atomic_op(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            Stage::Affine { .. } => f(1, 1),
            Stage::PafRelu {
                paf,
                pre_scale,
                post_scale,
            } => {
                let scales = usize::from(*pre_scale != 1.0) + usize::from(*post_scale != 1.0);
                f(PafEvaluator::relu_depth(paf) + scales, 1);
            }
            Stage::PafMax {
                taps,
                paf,
                post_scale,
            } => {
                f(1, 1);
                let mut items = taps.len();
                while items > 1 {
                    f(PafEvaluator::relu_depth(paf), items);
                    items = items.div_ceil(2);
                }
                if *post_scale != 1.0 {
                    f(1, 1);
                }
            }
        }
    }
}

impl HePipeline {
    /// The pipeline's atomic ops, in execution order.
    pub fn atomic_ops(&self) -> Vec<AtomicOp> {
        let mut ops = Vec::new();
        for (stage, s) in self.stages.iter().enumerate() {
            s.for_each_atomic_op(|need, width| ops.push(AtomicOp { stage, need, width }));
        }
        ops
    }
}

/// What the schedule fixed for one atomic op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The op.
    pub op: AtomicOp,
    /// Whether a segment starts here: every ciphertext entering the op
    /// is refreshed first.
    pub refresh: bool,
    /// The level the op is entered at: what it and the rest of its
    /// segment consume.
    pub level_in: usize,
}

impl ScheduledOp {
    /// Ciphertexts refreshed before the op.
    pub fn refreshes(&self) -> usize {
        usize::from(self.refresh) * self.op.width
    }
}

/// Why a walk stopped before the last op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The op needs more than the `available` levels and refreshing is
    /// not allowed.
    OutOfLevels { available: usize },
    /// An op of the stage needs more levels than a refresh provides.
    AtomicDepthExceeded { needed: usize },
}

/// The greedy refresh-on-exhaustion schedule of one run (module docs).
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
    /// refresher at all.
    ///
    /// A run that cannot complete keeps its failure for
    /// [`LevelSchedule::stage`] to report when execution reaches it.
    /// Its open segment has no consumption to be entered at, so that
    /// segment keeps the levels it would have had undropped.
    pub fn cut(
        ops: &[AtomicOp],
        start_level: usize,
        refresh_level: usize,
        allow_refresh: bool,
    ) -> LevelSchedule {
        let mut schedule = LevelSchedule {
            ops: Vec::with_capacity(ops.len()),
            stopped_at: None,
            start_level,
            refresh_level,
        };
        let mut level = start_level;
        let mut segment = 0;
        for (i, &op) in ops.iter().enumerate() {
            // No refresh can help a stage with an op deeper than the
            // refresh level, so it stops the run where the stage starts.
            if i == 0 || ops[i - 1].stage != op.stage {
                let deepest = ops[i..]
                    .iter()
                    .take_while(|o| o.stage == op.stage)
                    .map(|o| o.need)
                    .max()
                    .expect("the stage has this op");
                if deepest > refresh_level {
                    let stop = Stop::AtomicDepthExceeded { needed: deepest };
                    schedule.stopped_at = Some((op, stop));
                    return schedule;
                }
            }
            let refresh = level < op.need;
            if refresh {
                if !allow_refresh {
                    let stop = Stop::OutOfLevels { available: level };
                    schedule.stopped_at = Some((op, stop));
                    return schedule;
                }
                schedule.close_segment(segment, level);
                segment = i;
                level = refresh_level;
            }
            schedule.ops.push(ScheduledOp {
                op,
                refresh,
                level_in: level,
            });
            level -= op.need;
        }
        schedule.close_segment(segment, level);
        schedule
    }

    /// Lowers the segment `ops[from..]` by the `spare` levels it was
    /// found not to consume.
    fn close_segment(&mut self, from: usize, spare: usize) {
        for op in &mut self.ops[from..] {
            op.level_in -= spare;
        }
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
                    mid_stage: op.width > 1,
                },
                Stop::AtomicDepthExceeded { needed } => RunError::AtomicDepthExceeded {
                    label,
                    needed,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(needs: &[usize]) -> Vec<AtomicOp> {
        needs
            .iter()
            .enumerate()
            .map(|(stage, &need)| AtomicOp {
                stage,
                need,
                width: 1,
            })
            .collect()
    }

    /// One pool stage from its ops' `(need, width)`.
    fn pool(ops: &[(usize, usize)]) -> Vec<AtomicOp> {
        let op = |&(need, width)| AtomicOp {
            stage: 0,
            need,
            width,
        };
        ops.iter().map(op).collect()
    }

    fn levels_in(s: &LevelSchedule) -> Vec<usize> {
        s.ops().iter().map(|o| o.level_in).collect()
    }

    #[test]
    fn segments_are_entered_at_what_they_consume() {
        // 1 + 7 + 1 fit the 12-level chain and the next 6 do not; then
        // 6 + 6 fill it exactly; the last two ops are a segment of 2.
        let s = LevelSchedule::cut(&ops(&[1, 7, 1, 6, 6, 1, 1]), 12, 12, true);
        assert_eq!(levels_in(&s), [9, 8, 1, 12, 6, 2, 1]);
        let refreshed: Vec<bool> = s.ops().iter().map(|o| o.refresh).collect();
        assert_eq!(refreshed, [false, false, false, true, false, true, false]);
        assert_eq!(s.level_after(0), 12);
        assert_eq!(s.level_after(3), 0);
        assert_eq!(s.level_after(7), 0);
    }

    #[test]
    fn the_cut_is_a_fixed_point_of_its_own_input_level() {
        // Encrypting at the schedule's input level must not move a cut.
        let needs = [1, 7, 1, 6, 6, 1, 1];
        let top = LevelSchedule::cut(&ops(&needs), 12, 12, true);
        let low = LevelSchedule::cut(&ops(&needs), top.ops()[0].level_in, 12, true);
        assert_eq!(top.ops(), low.ops());
    }

    #[test]
    fn a_fold_round_refreshes_every_tap_it_takes() {
        let s = LevelSchedule::cut(&pool(&[(1, 1), (6, 4), (6, 2), (1, 1)]), 3, 12, true);
        assert_eq!(levels_in(&s), [1, 12, 6, 1]);
        let refreshes: Vec<usize> = s.ops().iter().map(ScheduledOp::refreshes).collect();
        assert_eq!(refreshes, [0, 4, 0, 1]);
        assert_eq!(s.stage(0, "pool").unwrap().len(), 4);
        assert!(s.stage(1, "none").unwrap().is_empty());
    }

    #[test]
    fn a_run_that_cannot_complete_drops_nothing() {
        // No refresher: the third op finds 4 < 7 — the values an
        // undropped walk from level 12 meets — and the ops before it
        // stay at their undropped levels.
        let s = LevelSchedule::cut(&ops(&[1, 7, 7]), 12, 12, false);
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
        // A fold round that runs dry is a mid-stage failure.
        let err = LevelSchedule::cut(&pool(&[(1, 1), (6, 4)]), 3, 12, false)
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
    }

    #[test]
    fn an_op_deeper_than_the_chain_stops_its_stage_at_the_door() {
        // The fold depth is checked before the tap selection runs, even
        // when the taps themselves would already be out of levels.
        for allow_refresh in [false, true] {
            let err = LevelSchedule::cut(&pool(&[(1, 1), (11, 4)]), 0, 8, allow_refresh)
                .stage(0, "pool")
                .unwrap_err();
            assert_eq!(
                err,
                RunError::AtomicDepthExceeded {
                    label: "pool".into(),
                    needed: 11,
                    max_level: 8,
                }
            );
        }
    }
}
