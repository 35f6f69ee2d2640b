//! Shared helpers for the experiment harnesses.
//!
//! Each `cargo bench` target in `benches/` regenerates one table or figure
//! of the paper (see DESIGN.md's experiment index). Real-engine
//! experiments run scaled-down workloads on this machine; cluster-scaling
//! experiments run the `gw-sim` models at paper scale. Harnesses print the
//! same rows/series the paper reports.

use std::sync::Arc;
use std::time::Duration;

use gw_apps::workloads::{self, CorpusSpec, KmeansSpec};
use gw_core::{simulate, Buffering, Cluster, JobConfig, NodeId, StageSample, MAP_TOKEN_GROUPS};
use gw_net::NetProfile;
use gw_storage::split::FileStoreExt;
use gw_storage::{Dfs, DfsConfig};

/// Format a duration as fractional seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a simulated time (f64 seconds).
pub fn sim_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else {
        format!("{s:.1}")
    }
}

/// Replay per-chunk map-stage samples through the §III-D schedule
/// recurrence ([`gw_core::simulate`]) at buffering level `b`; `time`
/// picks the wall or modeled side of each sample.
pub fn replay_makespan(
    samples: &[[StageSample; 5]],
    time: impl Fn(&StageSample) -> Duration,
    b: Buffering,
) -> Duration {
    let durs: Vec<[u64; 5]> = samples
        .iter()
        .map(|row| row.each_ref().map(|s| time(s).as_nanos() as u64))
        .collect();
    Duration::from_nanos(simulate(&durs, &MAP_TOKEN_GROUPS, b.depth(), [1; 5]).makespan())
}

/// Print a rule line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// A Zipf text corpus loaded into a fresh single-or-multi-node DFS with a
/// free I/O model (local-FS-like: the pipeline-analysis experiments were
/// run "on one Type-1 node without HDFS").
pub fn corpus_cluster(lines: usize, vocabulary: usize, nodes: u32, block: usize) -> Cluster {
    corpus_cluster_with(
        lines,
        vocabulary,
        nodes,
        block,
        DfsConfig::new(nodes).free_io(),
    )
}

/// Like [`corpus_cluster`] but with *paced* local-FS-style reads, so the
/// Input stage carries a real (scaled) duration in pipeline breakdowns.
pub fn corpus_cluster_paced(lines: usize, vocabulary: usize, nodes: u32, block: usize) -> Cluster {
    // Scale the local-FS model down so the bench corpus (MBs) produces
    // input times of the same order as its kernel times, as the paper's
    // local-FS runs do.
    let model = gw_storage::IoModel {
        per_call_overhead: std::time::Duration::from_micros(100),
        local_bandwidth: 60.0e6,
        remote_bandwidth: 200.0e6,
        copy_amplification: 1.0,
    };
    corpus_cluster_with(
        lines,
        vocabulary,
        nodes,
        block,
        DfsConfig::new(nodes).paced_io(model),
    )
}

/// Like [`corpus_cluster_paced`] with a caller-supplied I/O model, for
/// benches that need a specific input-time regime (e.g. the lane-scaling
/// sweep's input-bound pacing).
pub fn corpus_cluster_paced_io(
    lines: usize,
    vocabulary: usize,
    nodes: u32,
    block: usize,
    model: gw_storage::IoModel,
) -> Cluster {
    corpus_cluster_with(
        lines,
        vocabulary,
        nodes,
        block,
        DfsConfig::new(nodes).paced_io(model),
    )
}

fn corpus_cluster_with(
    lines: usize,
    vocabulary: usize,
    nodes: u32,
    block: usize,
    dfs_cfg: DfsConfig,
) -> Cluster {
    assert_eq!(dfs_cfg.nodes, nodes, "node count mismatch");
    let spec = CorpusSpec {
        lines,
        words_per_line: 12,
        vocabulary,
        zipf_s: 1.05,
        seed: 424_242,
    };
    let recs = workloads::text_corpus(&spec);
    let dfs = Arc::new(Dfs::new(dfs_cfg));
    dfs.write_records(
        "/bench/in",
        NodeId(0),
        block,
        3,
        recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .expect("load corpus");
    Cluster::new(dfs, NetProfile::unlimited())
}

/// A K-Means point set loaded into a fresh DFS; returns the cluster and
/// the app's centers.
pub fn kmeans_cluster(
    points: usize,
    dims: usize,
    centers: usize,
    nodes: u32,
    block: usize,
) -> (Cluster, Vec<f32>) {
    let spec = KmeansSpec {
        points,
        dims,
        centers,
        seed: 77_001,
    };
    let pts = workloads::kmeans_points(&spec);
    let c = workloads::kmeans_centers(&spec);
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/bench/in",
        NodeId(0),
        block,
        3,
        pts.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .expect("load points");
    (Cluster::new(dfs, NetProfile::unlimited()), c)
}

pub mod baseline;
pub mod flatjson;

/// The standard bench job configuration (scaled to this machine).
pub fn bench_cfg() -> JobConfig {
    let mut cfg = JobConfig::new("/bench/in", "/bench/out");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    cfg.device_threads = (host / 2).clamp(2, 8);
    cfg.partition_threads = 2;
    cfg.collector_capacity = 16 << 20;
    cfg.hash_buckets = 1 << 14;
    cfg
}
