//! End-to-end and per-layer benchmark of the Glasswing engine and its job
//! service. See README.md in this directory for the workloads, the
//! metrics and how to run it.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload wordcount --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero when any job failed or gave wrong output.

mod batch;
mod layers;
mod service;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use layers::Layers;
use spans::Recorder;
use stats::{median, sorted, tail};

/// A run sets up in two rounds, one before its measured window and one
/// after it, and `setup_s` is the median of all set-ups. Each round sets
/// up at least [`SETUP_MIN_REPS`] times, and more until the round has
/// taken [`SETUP_ROUND_S`] or holds [`SETUP_MAX_REPS`] set-ups. A short
/// set-up (the service's is ~0.25 s) varies by half with the host's load,
/// and the load drifts over seconds, so the set-ups are both many and
/// spread over the run.
const SETUP_MIN_REPS: usize = 2;
const SETUP_MAX_REPS: usize = 8;
const SETUP_ROUND_S: f64 = 2.0;

/// End-to-end metrics, reported by the untraced run of every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("turnaround_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run of every workload. A
/// layer a workload does not exercise reads 0. The turnaround tail leads
/// the list: it is an end-to-end figure, but on a shared VM it mostly
/// measures the hypervisor's CPU steal, too unsteady to carry a bound.
const PER_LAYER: [(&str, &str); 43] = [
    ("turnaround_tail_ms", "ms"),
    ("setup.generate_s", "s"),
    ("setup.load_s", "s"),
    ("storage.read_mb", "MB"),
    ("storage.remote_read_share", "share"),
    ("map.input_busy_s", "s"),
    ("map.kernel_busy_s", "s"),
    ("map.chunks", "count"),
    ("map.partition_busy_s", "s"),
    ("runpool.hit_share", "share"),
    ("map.token_wait_s", "s"),
    ("map.efficiency", "ratio"),
    ("reduce.token_wait_s", "s"),
    ("intermediate.merge_delay_s", "s"),
    ("intermediate.spilled_mb", "MB"),
    ("intermediate.compress_ratio", "ratio"),
    ("intermediate.frames_written", "count"),
    ("intermediate.frames_read", "count"),
    ("intermediate.compactions", "count"),
    ("intermediate.merge_fanin", "count"),
    ("intermediate.peak_over_budget", "ratio"),
    ("shuffle.sent_mb", "MB"),
    ("shuffle.msgs", "count"),
    ("shuffle.retransmits", "count"),
    ("reduce.merge_read_busy_s", "s"),
    ("reduce.kernel_busy_s", "s"),
    ("reduce.output_busy_s", "s"),
    ("critical.named_share", "share"),
    ("critical.idle_s", "s"),
    ("critical.token_idle_s", "s"),
    ("report.fold_s", "s"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p95", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p95", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.cache_hit_share", "share"),
    ("service.rejected", "count"),
    ("service.slo_miss_share", "share"),
    ("service.generator_lag_ms_p95", "ms"),
    ("service.queued_at_end", "count"),
    ("service.trace_lanes_at_end", "count"),
    ("trace_overhead", "share"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs (or submissions) attempted.
    pub attempted: usize,
    /// Jobs that errored, were refused or gave wrong output.
    pub failed: usize,
    /// Why the run is not correct: failures and broken sanity checks.
    pub problems: Vec<String>,
    /// Duration of each set-up.
    pub setup_s: Vec<f64>,
    /// Engine run time of each correct job.
    pub job_s: Vec<f64>,
    /// Due-to-result time of each correct job.
    pub turnaround_ms: Vec<f64>,
    /// Per-layer medians (traced run only).
    pub layers: Layers,
    /// Workload-specific facts for the human-readable summary.
    pub note: String,
}

/// One round of set-ups (see [`SETUP_MIN_REPS`]), each timed into
/// `out.setup_s`; keeps the last. Only one set-up is resident at a time.
/// Returns `None`, with the problem recorded, if a set-up fails.
pub fn set_up<P>(
    out: &mut Outcome,
    rec: &mut Recorder,
    mut prepare: impl FnMut(&mut Recorder) -> Result<P, String>,
) -> Option<P> {
    let mut prepared = None;
    let (mut reps, mut spent) = (0, 0.0);
    while reps < SETUP_MIN_REPS || (spent < SETUP_ROUND_S && reps < SETUP_MAX_REPS) {
        drop(prepared.take());
        let t0 = Instant::now();
        let p = rec.scope("setup", &mut prepare);
        let secs = t0.elapsed().as_secs_f64();
        out.setup_s.push(secs);
        reps += 1;
        spent += secs;
        match p {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                out.problems.push(e);
                return None;
            }
        }
    }
    prepared
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `(steal, total)` CPU ticks from `/proc/stat`: time the hypervisor
/// gave this host's vCPUs to someone else, and all time.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload wordcount|terasort|service --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Spill files go under the working directory, not the system temp
    // root, and are removed with it when the run ends.
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);

    let ticks = cpu_ticks();
    let mut rec = Recorder::new(args.trace);
    let out = match args.workload.as_str() {
        "wordcount" => batch::run(
            batch::Kind::WordCount,
            args.seed,
            args.seconds,
            args.trace,
            &mut rec,
        ),
        "terasort" => batch::run(
            batch::Kind::TeraSort,
            args.seed,
            args.seconds,
            args.trace,
            &mut rec,
        ),
        "service" => service::run(args.seed, args.seconds, args.trace, &mut rec),
        other => {
            eprintln!("error: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&tmp);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    let steal = match (ticks, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.3}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    finish(&args, out, &rec, &steal)
}

fn finish(args: &Args, mut out: Outcome, rec: &Recorder, steal: &str) -> ExitCode {
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        out.problems.push(e);
        0.0
    });
    let turns = sorted(&out.turnaround_ms);
    let t = tail(&turns);
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        out.layers
            .insert("setup.generate_s", median(&rec.self_secs("generate")));
        out.layers
            .insert("setup.load_s", median(&rec.self_secs("load")));
        out.layers.insert("turnaround_tail_ms", t.value);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, out.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            median(&out.setup_s),
            median(&out.job_s),
            median(&turns),
            rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        out.problems.push(format!("{name} is not a number ({v})"));
    }
    if out.attempted == 0 {
        // A set-up that failed before any job counts as one failed job.
        out.attempted = 1;
        out.failed = 1;
        out.problems.push("no job was attempted".into());
    }
    let correct = out.problems.is_empty();

    println!(
        "host: available_parallelism={} profile={} cpu_steal_share={steal} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
    );
    println!(
        "run: attempted={} failed={} correct_jobs={} turnaround_tail=p{:.1}={:.3}ms over {} samples ({} beyond) {}",
        out.attempted,
        out.failed,
        out.turnaround_ms.len(),
        t.quantile * 100.0,
        t.value,
        turns.len(),
        t.beyond,
        out.note
    );
    for (name, unit, value) in &metrics {
        println!("metric: {name} = {value:.6} {unit}");
    }
    if args.trace {
        print!("{}", rec.summary());
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in the `list` array of BENCHMARK.json.
    fn listed(list: &str) -> Vec<(String, String)> {
        let spec = include_str!("../../BENCHMARK.json");
        let start = spec
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("the list ends")];
        let field = |entry: &str, key: &str| {
            let tag = format!("\"{key}\": \"");
            let at = entry
                .find(&tag)
                .unwrap_or_else(|| panic!("no {key} in {entry}"));
            entry[at + tag.len()..]
                .split('"')
                .next()
                .unwrap()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_names() {
        assert_eq!(owned(&END_TO_END), listed("end_to_end"));
        assert_eq!(owned(&PER_LAYER), listed("per_layer"));
    }
}
