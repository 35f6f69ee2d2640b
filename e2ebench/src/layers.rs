//! Per-layer figures read from what the engine already returns for a job:
//! `JobReport` stage timers, `MetricsSummary` counters, `StoreMetrics`
//! and `PerfAnalysis::critical_path`. Nothing here adds tracing inside
//! the engine.

use std::collections::BTreeMap;
use std::time::Duration;

use gw_core::{CounterId, JobReport, PipelineKind, StageId};

use crate::stats::{median, share};

/// Named per-layer values of one job, or their medians over many jobs.
pub type Layers = BTreeMap<&'static str, f64>;

const MB: f64 = (1u64 << 20) as f64;

/// The per-layer values of one finished job. `engine_wall` is the
/// caller-measured duration of the engine call, so `report.fold_s` is
/// the after-job work `JobReport.elapsed` leaves out. `budget` is the
/// job's `memory_budget`.
pub fn job_layers(report: &JobReport, engine_wall: Duration, budget: Option<usize>) -> Layers {
    let m = &report.metrics;
    let count = |c: CounterId| m.counter_total(c) as f64;
    let map = report.map_timers_total();
    let reduce = report.reduce_timers_total();
    let secs = |d: Duration| d.as_secs_f64();
    let token_wait = |kind: PipelineKind| {
        let ns: u64 = m
            .token_wait_ns
            .iter()
            .filter(|((_, k, _), _)| *k == kind)
            .map(|(_, v)| v)
            .sum();
        ns as f64 / 1e9
    };
    let (busy_sum, busy_union) = report
        .analysis
        .nodes
        .iter()
        .flat_map(|n| &n.pipelines)
        .filter(|p| p.kind == PipelineKind::Map)
        .fold((0u64, 0u64), |(s, u), p| {
            (s + p.busy_sum_ns, u + p.busy_union_ns)
        });
    let store = |f: fn(&gw_core::NodeReport) -> usize| -> f64 {
        report.nodes.iter().map(|n| f(n) as f64).sum()
    };
    let spilled_raw = store(|n| n.intermediate.spilled_raw);
    let peak_resident = report
        .nodes
        .iter()
        .map(|n| n.intermediate.peak_resident_bytes)
        .max()
        .unwrap_or(0) as f64;
    let cp = &report.analysis.critical_path;
    let named: u64 = cp.attribution.values().sum();
    let reads_local = count(CounterId::DfsReadLocal);
    let reads_remote = count(CounterId::DfsReadRemote) + count(CounterId::DfsReadRemoteFault);

    Layers::from([
        ("storage.read_mb", count(CounterId::DfsReadBytes) / MB),
        (
            "storage.remote_read_share",
            share(reads_remote, reads_local + reads_remote),
        ),
        ("map.input_busy_s", secs(map.wall(StageId::Input))),
        ("map.kernel_busy_s", secs(map.wall(StageId::Kernel))),
        (
            "map.chunks",
            m.chunks_total(PipelineKind::Map, StageId::Kernel) as f64,
        ),
        ("map.partition_busy_s", secs(map.wall(StageId::Partition))),
        (
            "runpool.hit_share",
            share(
                count(CounterId::RunPoolHit),
                count(CounterId::RunPoolHit) + count(CounterId::RunPoolMiss),
            ),
        ),
        ("map.token_wait_s", token_wait(PipelineKind::Map)),
        ("map.efficiency", share(busy_sum as f64, busy_union as f64)),
        ("reduce.token_wait_s", token_wait(PipelineKind::Reduce)),
        ("intermediate.merge_delay_s", secs(report.merge_delay())),
        ("intermediate.spilled_mb", spilled_raw / MB),
        (
            "intermediate.compress_ratio",
            share(spilled_raw, store(|n| n.intermediate.spilled_disk)),
        ),
        (
            "intermediate.frames_written",
            store(|n| n.intermediate.frames_written),
        ),
        (
            "intermediate.frames_read",
            store(|n| n.intermediate.frames_read),
        ),
        (
            "intermediate.compactions",
            store(|n| n.intermediate.compactions),
        ),
        (
            "intermediate.merge_fanin",
            share(
                store(|n| n.intermediate.merge_fanin),
                store(|n| n.intermediate.merges),
            ),
        ),
        (
            "intermediate.peak_over_budget",
            share(peak_resident, budget.unwrap_or(0) as f64),
        ),
        ("shuffle.sent_mb", count(CounterId::ShuffleSendBytes) / MB),
        ("shuffle.msgs", count(CounterId::ShuffleSendMsgs)),
        ("shuffle.retransmits", count(CounterId::ShuffleRetransmit)),
        (
            "reduce.merge_read_busy_s",
            secs(reduce.wall(StageId::Input)),
        ),
        ("reduce.kernel_busy_s", secs(reduce.wall(StageId::Kernel))),
        (
            "reduce.output_busy_s",
            secs(reduce.wall(StageId::Partition)),
        ),
        (
            "critical.named_share",
            share(named as f64, cp.wall_ns as f64),
        ),
        ("critical.idle_s", cp.idle_ns as f64 / 1e9),
        ("critical.token_idle_s", cp.token_idle_ns as f64 / 1e9),
        (
            "report.fold_s",
            secs(engine_wall.saturating_sub(report.elapsed)),
        ),
    ])
}

/// Median of every key over `jobs`.
pub fn medians(jobs: &[Layers]) -> Layers {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for job in jobs {
        for (k, v) in job {
            values.entry(k).or_default().push(*v);
        }
    }
    values.into_iter().map(|(k, v)| (k, median(&v))).collect()
}
