//! The stage timers, per-chunk samples and metrics rollup of a
//! `JobReport` are views over one fold of the job's trace. This test
//! recomputes each of them from `JobReport.trace` with a naive loop —
//! exactly the definitions the engine's reports promise — and checks
//! the report agrees, for fused and unfused graphs, one and two lanes
//! per stage, and one and two nodes.
//!
//! * Stage timers: every accounted chunk or finish span end adds its
//!   (wall, modeled) pair to its stage; per-chunk samples are indexed by
//!   sequence number (last write wins), and a fused passage contributes
//!   a zero sample to the fused stage.
//! * Metrics: counters summed per node over every lane; chunks per stage
//!   are accounted chunk span ends plus fused passages; token-wait time
//!   is the sum of each lane's paired token-wait spans.

use std::sync::Arc;
use std::time::Duration;

use glasswing::apps::WordCount;
use glasswing::core::{
    EventKind, MarkId, MetricsSummary, PipelineKind, Realm, SpanId, StageId, StageSample,
    TimerReport,
};
use glasswing::prelude::*;

fn run(nodes: u32, lanes: usize, disable_stage_fusion: bool) -> JobReport {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/views/in",
        NodeId(0),
        256,
        1,
        (0..48)
            .map(|i| {
                (
                    format!("{i:04}").into_bytes(),
                    format!("alpha beta gamma line{}", i % 7).into_bytes(),
                )
            })
            .collect::<Vec<_>>()
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut cfg = JobConfig::new("/views/in", "/views/out");
    cfg.device_threads = 1;
    cfg.partition_threads = 1;
    cfg.output_replication = 1;
    cfg.disable_stage_fusion = disable_stage_fusion;
    cfg.lane_plan = LanePlan {
        input: lanes,
        kernel: lanes,
        partition: lanes,
    };
    cluster.run(Arc::new(WordCount::new()), &cfg).unwrap()
}

/// Naive stage timers and samples of one node's `kind` pipeline.
fn naive_timers(
    report: &JobReport,
    node: u32,
    kind: PipelineKind,
) -> (TimerReport, Vec<[StageSample; 5]>) {
    let mut timers = TimerReport::default();
    let mut samples: Vec<[StageSample; 5]> = Vec::new();
    let mut put = |seq: u64, stage: StageId, sample: StageSample| {
        let seq = seq as usize;
        if samples.len() <= seq {
            samples.resize(seq + 1, [StageSample::default(); 5]);
        }
        samples[seq][stage.index()] = sample;
    };
    for (lane, events) in &report.trace.lanes {
        let Realm::Pipeline { kind: k, stage, .. } = lane.realm else {
            continue;
        };
        if lane.node != node || k != kind {
            continue;
        }
        for ev in events {
            match ev.kind {
                EventKind::End {
                    span: SpanId::Chunk { seq } | SpanId::Finish { seq },
                    wall_ns,
                    modeled_ns,
                    accounted: true,
                } => {
                    let sample = StageSample {
                        wall: Duration::from_nanos(wall_ns),
                        modeled: Duration::from_nanos(modeled_ns),
                    };
                    timers.wall[stage.index()] += sample.wall;
                    timers.modeled[stage.index()] += sample.modeled;
                    put(seq, stage, sample);
                }
                EventKind::Instant {
                    mark: MarkId::FusedPassage { fused, seq },
                } => put(seq, fused, StageSample::default()),
                _ => {}
            }
        }
    }
    (timers, samples)
}

/// Naive metrics rollup of the whole trace.
fn naive_metrics(report: &JobReport) -> MetricsSummary {
    let mut m = MetricsSummary::default();
    for (lane, events) in &report.trace.lanes {
        let mut waits: Vec<u64> = Vec::new();
        for ev in events {
            if let EventKind::Count { counter, delta } = ev.kind {
                *m.counters.entry((lane.node, counter)).or_default() += delta;
            }
            let Realm::Pipeline { kind, stage, .. } = lane.realm else {
                continue;
            };
            match ev.kind {
                EventKind::End {
                    span: SpanId::Chunk { .. },
                    accounted: true,
                    ..
                } => *m.stage_chunks.entry((lane.node, kind, stage)).or_default() += 1,
                EventKind::Instant {
                    mark: MarkId::FusedPassage { fused, .. },
                } => *m.stage_chunks.entry((lane.node, kind, fused)).or_default() += 1,
                EventKind::Begin {
                    span: SpanId::TokenWait { .. },
                } => waits.push(ev.at_ns),
                EventKind::End {
                    span: SpanId::TokenWait { .. },
                    ..
                } => {
                    let t0 = waits.pop().expect("token wait closes an open wait");
                    *m.token_wait_ns.entry((lane.node, kind, stage)).or_default() += ev.at_ns - t0;
                }
                _ => {}
            }
        }
    }
    m
}

#[test]
fn report_views_equal_naive_recomputation_from_the_trace() {
    for nodes in [1, 2] {
        for lanes in [1, 2] {
            for disable_stage_fusion in [false, true] {
                let case = format!("nodes={nodes} lanes={lanes} unfused={disable_stage_fusion}");
                let report = run(nodes, lanes, disable_stage_fusion);
                assert_eq!(report.nodes.len(), nodes as usize, "{case}");
                assert_eq!(report.metrics, naive_metrics(&report), "{case}");

                let mut map_total = TimerReport::default();
                let mut reduce_total = TimerReport::default();
                for n in &report.nodes {
                    let (map, samples) = naive_timers(&report, n.node.0, PipelineKind::Map);
                    let (reduce, _) = naive_timers(&report, n.node.0, PipelineKind::Reduce);
                    assert_eq!(n.map_timers.wall, map.wall, "{case}");
                    assert_eq!(n.map_timers.modeled, map.modeled, "{case}");
                    assert_eq!(n.reduce_timers.wall, reduce.wall, "{case}");
                    assert_eq!(n.reduce_timers.modeled, reduce.modeled, "{case}");
                    assert_eq!(n.map_samples, samples, "{case}");
                    map_total.merge(&map);
                    reduce_total.merge(&reduce);
                }
                assert_eq!(report.map_timers_total().wall, map_total.wall, "{case}");
                assert_eq!(report.reduce_timers_total().modeled, reduce_total.modeled);

                // The views are not vacuous: every job maps and reduces.
                assert!(map_total.wall(StageId::Kernel) > Duration::ZERO, "{case}");
                assert!(
                    reduce_total.wall(StageId::Kernel) > Duration::ZERO,
                    "{case}"
                );
                assert!(report.nodes.iter().any(|n| !n.map_samples.is_empty()));
                assert!(report.metrics.token_wait_total() > Duration::ZERO, "{case}");
            }
        }
    }
}
