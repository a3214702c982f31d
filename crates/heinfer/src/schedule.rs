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

/// One indivisible level-consuming step of a pipeline, on one
/// ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicOp {
    /// Index of the stage the op belongs to.
    pub stage: usize,
    /// Levels the op consumes.
    pub need: usize,
}

impl Stage {
    /// Calls `f(need)` for each of the stage's atomic ops, in execution
    /// order (see [`AtomicOp`]): an affine map is one op of one level;
    /// a PAF-ReLU is one op covering its scale multiplications; a max
    /// pool's fold is one PAF-max per shift, and a refresh can fall
    /// between two of them.
    pub(crate) fn for_each_atomic_op(&self, mut f: impl FnMut(usize)) {
        match self {
            Stage::Affine { .. } => f(1),
            Stage::PafRelu {
                paf,
                pre_scale,
                post_scale,
            } => {
                let scales = usize::from(*pre_scale != 1.0) + usize::from(*post_scale != 1.0);
                f(PafEvaluator::relu_depth(paf) + scales);
            }
            Stage::PafMax { shifts, paf, .. } => {
                for _ in shifts {
                    f(PafEvaluator::relu_depth(paf));
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
            s.for_each_atomic_op(|need| ops.push(AtomicOp { stage, need }));
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
}

/// Why a walk stopped before the last op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The op needs more than the `available` levels and refreshing is
    /// not allowed.
    OutOfLevels { available: usize },
    /// The op needs more levels than a refresh provides.
    AtomicDepthExceeded,
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
            // No refresh can help an op deeper than the refresh level.
            // A stage's ops are equally deep, so this stops the run
            // where the stage starts.
            if op.need > refresh_level {
                schedule.stopped_at = Some((op, Stop::AtomicDepthExceeded));
                return schedule;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(needs: &[usize]) -> Vec<AtomicOp> {
        let op = |(stage, &need)| AtomicOp { stage, need };
        needs.iter().enumerate().map(op).collect()
    }

    /// One pool stage from its shifts' needs.
    fn pool(needs: &[usize]) -> Vec<AtomicOp> {
        needs
            .iter()
            .map(|&need| AtomicOp { stage: 0, need })
            .collect()
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
    fn a_refresh_can_fall_between_two_shifts_of_a_pool() {
        // 11 + 11 > 12: the second shift starts a segment of its own,
        // inside the stage, and the refresh is one ciphertext's.
        let s = LevelSchedule::cut(&pool(&[11, 11]), 12, 12, true);
        assert_eq!(levels_in(&s), [11, 11]);
        let refreshed: Vec<bool> = s.ops().iter().map(|o| o.refresh).collect();
        assert_eq!(refreshed, [false, true]);
        assert_eq!(s.stage(0, "pool").unwrap().len(), 2);
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
        // A pool whose second shift runs dry fails mid-stage.
        let err = LevelSchedule::cut(&pool(&[6, 6]), 8, 12, false)
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
        // The depth check comes before the level check: a pool deeper
        // than the chain is infeasible, not out of levels, even when it
        // is entered with none left.
        for allow_refresh in [false, true] {
            let s = LevelSchedule::cut(&ops(&[1, 11, 11]), 1, 8, allow_refresh);
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
