//! The one fold over a finished [`Trace`].
//!
//! Every per-stage number a job reports — the paper's Tables II/III stage
//! timers, the [`MetricsSummary`] rollup and the [`PerfAnalysis`] — is a
//! view over the same single pass: [`TraceFold::new`] walks
//! `Trace.lanes` once and keeps, per `(node, pipeline, stage)`, everything
//! any view reads. No view re-walks the events, and nothing in pipeline
//! code keeps timing state of its own: one source of stage time, many
//! readers.
//!
//! Spans pair per trace lane (each sub-lane of a widened stage is a
//! single writer), innermost same-id begin first. A span end with no
//! begin (a front-truncated lane) or a begin never closed (a lane cut
//! off by a crash) counts only in [`Anomalies`], in every view.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::analysis::{Anomalies, PerfAnalysis, ServiceStats};
use crate::event::{CounterId, EventKind, MarkId, Realm, SpanId};
use crate::metrics::MetricsSummary;
use crate::stage::{PipelineKind, StageId};
use crate::tracer::Trace;

/// One stage's duration for one chunk (wall, modeled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSample {
    /// Measured host time.
    pub wall: Duration,
    /// Model-transformed time.
    pub modeled: Duration,
}

/// Per-stage wall and modeled totals of one pipeline (or, merged, of
/// many): the paper's "timers for each pipeline stage".
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerReport {
    /// Wall totals indexed by [`StageId::index`].
    pub wall: [Duration; 5],
    /// Modeled totals indexed by [`StageId::index`].
    pub modeled: [Duration; 5],
}

impl TimerReport {
    /// Wall total of a stage.
    pub fn wall(&self, stage: StageId) -> Duration {
        self.wall[stage.index()]
    }

    /// Modeled total of a stage.
    pub fn modeled(&self, stage: StageId) -> Duration {
        self.modeled[stage.index()]
    }

    /// Merge another report into this one (summing stage totals), used to
    /// aggregate across nodes.
    pub fn merge(&mut self, other: &TimerReport) {
        for i in 0..5 {
            self.wall[i] += other.wall[i];
            self.modeled[i] += other.modeled[i];
        }
    }
}

/// Key of one stage's fold: `(node, pipeline, stage)`.
pub(crate) type StageKey = (u32, PipelineKind, StageId);

/// Everything folded out of one stage's lanes (the sub-lanes of a
/// widened stage fold into one entry).
#[derive(Debug, Default)]
pub(crate) struct StageFold {
    /// Chunk and finish span intervals, as a sorted disjoint union.
    pub(crate) busy: Vec<(u64, u64)>,
    /// Token-wait span intervals, as a sorted disjoint union.
    pub(crate) waits: Vec<(u64, u64)>,
    /// Token-wait spans closed, and the sum (not union) of their lengths.
    pub(crate) wait_count: u64,
    pub(crate) wait_ns: u64,
    /// Accounted chunk spans plus fused passages.
    pub(crate) chunks: u64,
    /// Accounted chunk wall durations by sequence number.
    pub(crate) chunk_wall: BTreeMap<u64, u64>,
    pub(crate) service: ServiceStats,
    /// Stage-timer total over accounted chunk and finish spans.
    pub(crate) total: StageSample,
    /// Stage-timer samples by sequence number: accounted chunk and finish
    /// spans, and zero for fused passages; the last one of a seq wins.
    pub(crate) samples: BTreeMap<u64, StageSample>,
    /// Token-group topology marks seen on this stage's lanes.
    pub(crate) groups: Vec<(u32, StageId, StageId)>,
    /// Worker lanes: the max of the `StageLanes` mark and the highest
    /// sub-lane index observed.
    pub(crate) lanes: usize,
    /// Latest event timestamp on this stage's lanes.
    pub(crate) last_at: u64,
}

/// The single pass over a finished trace that every per-stage view reads.
#[derive(Debug, Default)]
pub struct TraceFold {
    /// Counter totals keyed by `(node, counter)`, over every lane.
    pub(crate) counters: BTreeMap<(u32, CounterId), u64>,
    pub(crate) stages: BTreeMap<StageKey, StageFold>,
    /// First and last event timestamp over every lane.
    pub(crate) window: Option<(u64, u64)>,
    pub(crate) anomalies: Anomalies,
}

impl TraceFold {
    /// Fold `trace` in one pass over its events. Never panics on
    /// truncated or unaccounted streams; see [`Anomalies`].
    pub fn new(trace: &Trace) -> Self {
        let mut f = TraceFold::default();
        // Fused passages are observed on the fronting stage's lane and
        // re-homed onto the fused stage's own entry after the pass.
        let mut fused: Vec<(StageKey, u64)> = Vec::new();
        for (lane, events) in &trace.lanes {
            let mut pipeline = match lane.realm {
                Realm::Pipeline {
                    kind,
                    stage,
                    lane: sub,
                } => {
                    let fold = f.stages.entry((lane.node, kind, stage)).or_default();
                    fold.lanes = fold.lanes.max(sub as usize + 1);
                    Some((kind, fold))
                }
                _ => None,
            };
            let mut open: Vec<(SpanId, u64)> = Vec::new();
            for ev in events {
                let (lo, hi) = f.window.unwrap_or((ev.at_ns, ev.at_ns));
                f.window = Some((lo.min(ev.at_ns), hi.max(ev.at_ns)));
                if let EventKind::Count { counter, delta } = ev.kind {
                    *f.counters.entry((lane.node, counter)).or_default() += delta;
                }
                let Some((kind, fold)) = pipeline.as_mut() else {
                    continue;
                };
                fold.last_at = fold.last_at.max(ev.at_ns);
                match ev.kind {
                    EventKind::Begin { span } => open.push((span, ev.at_ns)),
                    EventKind::End {
                        span,
                        wall_ns,
                        modeled_ns,
                        accounted,
                    } => {
                        let Some(pos) = open.iter().rposition(|(s, _)| *s == span) else {
                            f.anomalies.orphan_ends += 1;
                            continue;
                        };
                        let (_, t0) = open.remove(pos);
                        let iv = (t0, ev.at_ns.max(t0));
                        let seq = match span {
                            SpanId::TokenWait { .. } => {
                                fold.waits.push(iv);
                                fold.wait_count += 1;
                                fold.wait_ns += iv.1 - iv.0;
                                continue;
                            }
                            SpanId::Chunk { .. } if !accounted => {
                                fold.busy.push(iv);
                                f.anomalies.unaccounted_chunks += 1;
                                continue;
                            }
                            SpanId::Chunk { seq } => {
                                fold.chunks += 1;
                                fold.chunk_wall.insert(seq, wall_ns);
                                fold.service.push(wall_ns);
                                seq
                            }
                            SpanId::Finish { seq } => seq,
                        };
                        fold.busy.push(iv);
                        if accounted {
                            let sample = StageSample {
                                wall: Duration::from_nanos(wall_ns),
                                modeled: Duration::from_nanos(modeled_ns),
                            };
                            fold.total.wall += sample.wall;
                            fold.total.modeled += sample.modeled;
                            fold.samples.insert(seq, sample);
                        }
                    }
                    EventKind::Instant {
                        mark: MarkId::FusedPassage { fused: stage, seq },
                    } => fused.push(((lane.node, *kind, stage), seq)),
                    EventKind::Instant {
                        mark: MarkId::TokenGroup { group, first, last },
                    } => fold.groups.push((group, first, last)),
                    EventKind::Instant {
                        mark: MarkId::StageLanes { lanes, .. },
                    } => fold.lanes = fold.lanes.max(lanes as usize),
                    _ => {}
                }
            }
            if pipeline.is_some() {
                f.anomalies.unclosed_spans += open.len() as u64;
            }
        }
        for (key, seq) in fused {
            let fold = f.stages.entry(key).or_default();
            fold.chunks += 1;
            fold.samples.insert(seq, StageSample::default());
        }
        for fold in f.stages.values_mut() {
            fold.busy = merge_intervals(std::mem::take(&mut fold.busy));
            fold.waits = merge_intervals(std::mem::take(&mut fold.waits));
        }
        f
    }

    /// The counter, chunk and token-wait rollup.
    pub fn metrics(&self) -> MetricsSummary {
        let per_stage = |value: fn(&StageFold) -> Option<u64>| {
            let pick = |(key, fold): (&StageKey, &StageFold)| Some((*key, value(fold)?));
            self.stages.iter().filter_map(pick).collect()
        };
        MetricsSummary {
            counters: self.counters.clone(),
            stage_chunks: per_stage(|s| (s.chunks > 0).then_some(s.chunks)),
            token_wait_ns: per_stage(|s| (s.wait_count > 0).then_some(s.wait_ns)),
        }
    }

    /// The post-hoc performance analysis.
    pub fn analysis(&self) -> PerfAnalysis {
        PerfAnalysis::from_fold(self)
    }

    /// Stage-timer totals of `node`'s `kind` pipeline (zero when absent).
    pub fn timers(&self, node: u32, kind: PipelineKind) -> TimerReport {
        let mut report = TimerReport::default();
        for stage in StageId::ALL {
            if let Some(fold) = self.stages.get(&(node, kind, stage)) {
                report.wall[stage.index()] = fold.total.wall;
                report.modeled[stage.index()] = fold.total.modeled;
            }
        }
        report
    }

    /// Per-chunk stage samples of `node`'s `kind` pipeline, indexed by
    /// chunk sequence number (rows a stage never saw read zero), for
    /// schedule replay.
    pub fn samples(&self, node: u32, kind: PipelineKind) -> Vec<[StageSample; 5]> {
        let mut rows: Vec<[StageSample; 5]> = Vec::new();
        for stage in StageId::ALL {
            let Some(fold) = self.stages.get(&(node, kind, stage)) else {
                continue;
            };
            for (&seq, &sample) in &fold.samples {
                if rows.len() <= seq as usize {
                    rows.resize(seq as usize + 1, Default::default());
                }
                rows[seq as usize][stage.index()] = sample;
            }
        }
        rows
    }
}

/// Coalesce intervals into a sorted, disjoint union.
pub(crate) fn merge_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some((_, pe)) if s <= *pe => *pe = (*pe).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, LaneId};

    fn lane(stage: StageId, sub: u32) -> LaneId {
        LaneId {
            job: 0,
            node: 0,
            realm: Realm::Pipeline {
                kind: PipelineKind::Reduce,
                stage,
                lane: sub,
            },
        }
    }

    fn ev(at_ns: u64, kind: EventKind) -> Event {
        Event { at_ns, kind }
    }

    fn end(at: u64, span: SpanId, wall_ns: u64, accounted: bool) -> Event {
        ev(
            at,
            EventKind::End {
                span,
                wall_ns,
                modeled_ns: wall_ns * 2,
                accounted,
            },
        )
    }

    #[test]
    fn timers_sum_accounted_chunk_and_finish_spans_only() {
        let chunk = |seq| SpanId::Chunk { seq };
        let begin = |at, span| ev(at, EventKind::Begin { span });
        let trace = Trace {
            lanes: vec![(
                lane(StageId::Partition, 0),
                vec![
                    begin(0, chunk(0)),
                    end(10, chunk(0), 1_000, true),
                    begin(10, chunk(1)),
                    end(20, chunk(1), 5_000, true),
                    // An aborted chunk and a token wait never count.
                    begin(20, chunk(2)),
                    end(30, chunk(2), 9_000, false),
                    begin(30, SpanId::TokenWait { group: 0, seq: 3 }),
                    end(40, SpanId::TokenWait { group: 0, seq: 3 }, 0, false),
                    // An accounted finish overwrites its seq's sample.
                    begin(40, SpanId::Finish { seq: 1 }),
                    end(50, SpanId::Finish { seq: 1 }, 3_000, true),
                    ev(
                        55,
                        EventKind::Instant {
                            mark: MarkId::FusedPassage {
                                fused: StageId::Retrieve,
                                seq: 4,
                            },
                        },
                    ),
                ],
            )],
        };
        let fold = TraceFold::new(&trace);
        let t = fold.timers(0, PipelineKind::Reduce);
        assert_eq!(t.wall(StageId::Partition), Duration::from_nanos(9_000));
        assert_eq!(t.modeled(StageId::Partition), Duration::from_nanos(18_000));
        assert_eq!(t.wall(StageId::Retrieve), Duration::ZERO);
        let samples = fold.samples(0, PipelineKind::Reduce);
        // The fused passage of seq 4 extends the table with a zero row.
        assert_eq!(samples.len(), 5);
        let p = StageId::Partition.index();
        assert_eq!(samples[0][p].wall, Duration::from_nanos(1_000));
        assert_eq!(samples[1][p].wall, Duration::from_nanos(3_000));
        assert_eq!(samples[2][p], StageSample::default());
        assert_eq!(
            fold.timers(1, PipelineKind::Reduce).wall,
            [Duration::ZERO; 5]
        );
        assert!(fold.samples(0, PipelineKind::Map).is_empty());
    }

    #[test]
    fn sub_lanes_fold_into_one_stage_and_reports_merge_across_nodes() {
        let begin = |at, seq| {
            ev(
                at,
                EventKind::Begin {
                    span: SpanId::Chunk { seq },
                },
            )
        };
        let trace = Trace {
            lanes: vec![
                (
                    lane(StageId::Kernel, 0),
                    vec![begin(0, 0), end(7, SpanId::Chunk { seq: 0 }, 7, true)],
                ),
                (
                    lane(StageId::Kernel, 1),
                    vec![begin(0, 1), end(5, SpanId::Chunk { seq: 1 }, 5, true)],
                ),
            ],
        };
        let fold = TraceFold::new(&trace);
        let mut t = fold.timers(0, PipelineKind::Reduce);
        assert_eq!(t.wall(StageId::Kernel), Duration::from_nanos(12));
        assert_eq!(fold.samples(0, PipelineKind::Reduce).len(), 2);
        t.merge(&fold.timers(0, PipelineKind::Reduce));
        assert_eq!(t.modeled(StageId::Kernel), Duration::from_nanos(48));
    }
}
