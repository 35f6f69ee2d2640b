//! The two batch workloads: one client running whole jobs back to back
//! on a resident cluster (a closed loop), each job checked against the
//! sequential reference.
//!
//! * `wordcount` — the vertical half of the paper: one node, hash-table
//!   collector with the combiner. Map kernel and partition carry the
//!   time; nothing is shuffled and little is spilled.
//! * `terasort` — the horizontal half: two nodes, no combiner, a memory
//!   budget far below each node's intermediate data, so every record
//!   crosses the push shuffle, is radix-sorted, spilled in compressed
//!   frames, merged externally and written back out.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gw_apps::workloads::{sample_keys, teragen, text_corpus, CorpusSpec, Records};
use gw_apps::{reference, TeraSort, WordCount};
use gw_core::{read_job_output, Cluster, CounterId, GwApp, JobConfig, JobReport, NodeId};
use gw_net::NetProfile;
use gw_storage::split::FileStoreExt;
use gw_storage::{Dfs, DfsConfig, KvVec};

use crate::layers::{job_layers, medians, Layers};
use crate::spans::Recorder;
use crate::stats::{median, share};
use crate::{set_up, Outcome};

/// Fewer jobs than this make a median meaningless, whatever `--seconds`.
const MIN_JOBS: usize = 3;

const INPUT: &str = "/bench/in";

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WordCount,
    TeraSort,
}

/// Input shape and engine settings of one batch workload.
struct Shape {
    nodes: u32,
    block: usize,
    replication: usize,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::WordCount => Shape {
                nodes: 1,
                block: 1 << 20,
                replication: 1,
            },
            Kind::TeraSort => Shape {
                nodes: 2,
                block: 2 << 20,
                replication: 2,
            },
        }
    }

    /// Generate the input records and the app that consumes them.
    fn generate(self, seed: u64) -> (Records, Arc<dyn GwApp>) {
        match self {
            Kind::WordCount => {
                // ~25 MB of Zipf text: 210k lines of 12 ten-byte words.
                let records = text_corpus(&CorpusSpec {
                    lines: 210_000,
                    words_per_line: 12,
                    vocabulary: 50_000,
                    zipf_s: 1.05,
                    seed,
                });
                (records, Arc::new(WordCount::new()))
            }
            Kind::TeraSort => {
                // ~100 MB of 100-byte TeraGen records.
                let records = teragen(TERASORT_RECORDS, seed);
                let partitions = self.config().partitions_per_node * self.shape().nodes;
                let samples = sample_keys(&records, 1000, seed);
                (records, Arc::new(TeraSort::new(samples, partitions)))
            }
        }
    }

    /// The job configuration (output path excluded).
    fn config(self) -> JobConfig {
        let mut cfg = JobConfig::new(INPUT, "/bench/out");
        match self {
            Kind::WordCount => {
                cfg.device_threads = 2;
                cfg.partitions_per_node = 2;
            }
            Kind::TeraSort => {
                cfg.device_threads = 1;
                cfg.partitions_per_node = 2;
                cfg.output_replication = 1;
                // Each node holds ~50 MB of intermediate data.
                cfg.memory_budget = Some(TERASORT_BUDGET);
            }
        }
        cfg
    }
}

const TERASORT_RECORDS: usize = 1_000_000;
/// Makes each partition spill between 9 and 16 times, so
/// under the default limit of 8 spill files every partition compacts its
/// spills exactly once. Near 8 spills per partition (an 8 MiB budget),
/// whether the last flush tips a partition over the limit depends on
/// thread timing, so some jobs compact and take ~0.4 s longer than the
/// rest, and job times split into two modes.
const TERASORT_BUDGET: usize = 5 << 20;

/// What a correct job outputs.
enum Expected {
    /// Word counts sorted by word (`reference::wordcount`).
    Counts(Vec<(Vec<u8>, u64)>),
    /// Record count and order-sensitive digest of the records sorted by
    /// `(key, value)`, the order `reference::terasort` gives.
    Sorted { records: usize, digest: u64 },
}

impl Expected {
    fn of(kind: Kind, records: &Records) -> Self {
        match kind {
            Kind::WordCount => Expected::Counts(reference::wordcount(records)),
            Kind::TeraSort => {
                // Sort references rather than cloning the input the way
                // `reference::terasort` does: same order, without a
                // second copy of the input inflating the peak RSS.
                let mut refs: Vec<&(Vec<u8>, Vec<u8>)> = records.iter().collect();
                refs.sort_unstable();
                Expected::Sorted {
                    records: refs.len(),
                    digest: digest(refs.into_iter()),
                }
            }
        }
    }

    fn check(&self, output: &KvVec) -> Result<(), String> {
        match self {
            Expected::Counts(want) => check_counts(output, want),
            Expected::Sorted { records, digest: d } => {
                if output.len() != *records {
                    return Err(format!("{} records, input has {records}", output.len()));
                }
                if digest(output.iter()) != *d {
                    return Err("records differ from the sorted input in order or content".into());
                }
                Ok(())
            }
        }
    }
}

/// Compare `(key, little-endian u64 count)` output with `want`, sorted by
/// key, as a multiset: the engine's partition order is not the
/// reference's.
pub fn check_counts(output: &KvVec, want: &[(Vec<u8>, u64)]) -> Result<(), String> {
    let mut got = Vec::with_capacity(output.len());
    for (k, v) in output {
        let count = <[u8; 8]>::try_from(v.as_slice())
            .map_err(|_| format!("count of {k:?} is {} bytes", v.len()))?;
        got.push((k.clone(), u64::from_le_bytes(count)));
    }
    got.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} distinct keys, reference has {}",
            got.len(),
            want.len()
        ))
    }
}

/// FNV-1a over length-prefixed keys and values, in sequence order.
fn digest<'r>(records: impl Iterator<Item = &'r (Vec<u8>, Vec<u8>)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (k, v) in records {
        eat(k);
        eat(v);
    }
    h
}

/// A cluster loaded with one workload's input and warmed up.
struct Prepared {
    cluster: Cluster,
    app: Arc<dyn GwApp>,
    records: Records,
}

fn prepare(kind: Kind, seed: u64, rec: &mut Recorder) -> Result<Prepared, String> {
    let shape = kind.shape();
    let (records, app) = rec.scope("generate", |_| kind.generate(seed));
    let dfs = rec.scope("load", |_| {
        let dfs = Dfs::new(DfsConfig::new(shape.nodes).free_io());
        dfs.write_records(
            INPUT,
            NodeId(0),
            shape.block,
            shape.replication,
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .map(|_| dfs)
        .map_err(|e| format!("load input: {e}"))
    })?;
    let cluster = rec.scope("start", |_| {
        Cluster::new(Arc::new(dfs), NetProfile::unlimited())
    });
    rec.scope("warmup", |_| {
        let mut cfg = kind.config();
        cfg.output = "/bench/warmup".into();
        let report = cluster
            .run(Arc::clone(&app), &cfg)
            .map_err(|e| format!("warm-up job: {e}"))?;
        delete_output(&cluster, &report);
        Ok::<_, String>(())
    })?;
    Ok(Prepared {
        cluster,
        app,
        records,
    })
}

fn delete_output(cluster: &Cluster, report: &JobReport) {
    for file in report.output_files() {
        cluster.store().delete(&file);
    }
}

/// One measured job: the engine call, then reading its result back.
struct Job {
    report: JobReport,
    output: KvVec,
    run: Duration,
    turnaround: Duration,
}

fn run_job(p: &Prepared, cfg: &JobConfig, rec: &mut Recorder) -> Result<Job, String> {
    rec.scope("job", |rec| {
        let t0 = Instant::now();
        let report = rec
            .scope("run", |_| p.cluster.run(Arc::clone(&p.app), cfg))
            .map_err(|e| format!("job failed: {e}"))?;
        let run = t0.elapsed();
        let output = rec.scope("read_output", |_| {
            read_job_output(p.cluster.store(), &report)
        });
        let turnaround = t0.elapsed();
        let output = output.map_err(|e| format!("read output: {e}"))?;
        Ok(Job {
            report,
            output,
            run,
            turnaround,
        })
    })
}

/// Run one batch workload for `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let Some(mut p) = set_up(&mut out, rec, |rec| prepare(kind, seed, rec)) else {
        return out;
    };
    let expected = Expected::of(kind, &p.records);
    let input_mb = p
        .records
        .iter()
        .map(|(k, v)| k.len() + v.len())
        .sum::<usize>() as f64
        / (1u64 << 20) as f64;
    p.records = Records::new();

    let mut cfg = kind.config();
    let mut layers = Vec::new();
    let mut walls = [Vec::new(), Vec::new()];
    let mut shuffled_mb = Vec::new();
    let start = Instant::now();
    while out.attempted < MIN_JOBS || start.elapsed() < Duration::from_secs(seconds) {
        let traced = trace && out.attempted % 2 == 1;
        rec.set_enabled(traced);
        cfg.output = format!("/bench/out-{}", out.attempted);
        out.attempted += 1;
        let job = run_job(&p, &cfg, rec);
        rec.set_enabled(false);
        let job = match job {
            Ok(job) => job,
            Err(e) => {
                out.failed += 1;
                out.problems.push(e);
                continue;
            }
        };
        delete_output(&p.cluster, &job.report);
        if let Err(e) = expected.check(&job.output) {
            out.failed += 1;
            out.problems.push(format!("job {}: {e}", out.attempted));
            continue;
        }
        out.job_s.push(job.run.as_secs_f64());
        out.turnaround_ms.push(job.turnaround.as_secs_f64() * 1e3);
        if trace {
            walls[traced as usize].push(job.run.as_secs_f64());
            shuffled_mb.push(
                job.report
                    .metrics
                    .counter_total(CounterId::ShuffleSendBytes) as f64
                    / (1u64 << 20) as f64,
            );
            layers.push(job_layers(&job.report, job.run, cfg.memory_budget));
        }
    }

    // The second round of set-ups, with the measured cluster gone.
    drop(p);
    rec.set_enabled(trace);
    drop(set_up(&mut out, rec, |rec| prepare(kind, seed, rec)));

    if trace {
        out.layers = medians(&layers);
        // Only the span recorder differs between the alternate jobs; the
        // layer fold above runs for every job, after its timed region.
        out.layers.insert(
            "trace_overhead",
            share(median(&walls[1]), median(&walls[0])) - 1.0,
        );
        sanity(kind, &out.layers, &shuffled_mb, input_mb, &mut out.problems);
    }
    out.note = format!("input_mb={input_mb:.1}");
    out
}

/// The traced run fails when a workload stops doing what it is for.
fn sanity(
    kind: Kind,
    layers: &Layers,
    shuffled_mb: &[f64],
    input_mb: f64,
    problems: &mut Vec<String>,
) {
    match kind {
        Kind::WordCount => {
            if shuffled_mb.iter().any(|&mb| mb > 0.0) {
                problems.push("sanity: wordcount shuffled bytes on one node".into());
            }
        }
        Kind::TeraSort => {
            if layers
                .get("intermediate.frames_written")
                .copied()
                .unwrap_or(0.0)
                == 0.0
            {
                problems.push("sanity: terasort wrote no spill frames".into());
            }
            // Each node keeps the records of its own partitions, so two
            // nodes send about half the input, as evenly as the sampled
            // range partitioner splits it. The floor sits a fifth below.
            let nodes = kind.shape().nodes as f64;
            let floor = input_mb * (nodes - 1.0) / nodes * 0.8;
            if shuffled_mb.iter().any(|&mb| mb < floor) {
                problems.push(format!(
                    "sanity: terasort shuffled less than {floor:.1} MB of its {input_mb:.1} MB input"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_apps::codec;

    #[test]
    fn sorted_digest_matches_the_reference_sort() {
        let records = teragen(500, 9);
        let Expected::Sorted {
            records: n,
            digest: d,
        } = Expected::of(Kind::TeraSort, &records)
        else {
            panic!("terasort expects sorted output");
        };
        let sorted = reference::terasort(&records);
        assert_eq!(n, 500);
        assert_eq!(d, digest(sorted.iter()));
        let expected = Expected::of(Kind::TeraSort, &records);
        assert!(expected.check(&sorted).is_ok());
        assert!(
            expected.check(&records).is_err(),
            "unsorted input must fail"
        );
    }

    #[test]
    fn word_counts_are_compared_as_a_sorted_multiset() {
        let records = vec![(b"0".to_vec(), b"b a b".to_vec())];
        let expected = Expected::of(Kind::WordCount, &records);
        let out = |a: u64| {
            vec![
                (b"b".to_vec(), codec::enc_u64(2).to_vec()),
                (b"a".to_vec(), codec::enc_u64(a).to_vec()),
            ]
        };
        assert!(expected.check(&out(1)).is_ok());
        assert!(expected.check(&out(2)).is_err());
        assert!(expected
            .check(&vec![(b"a".to_vec(), vec![1, 2, 3])])
            .is_err());
    }
}
