//! Property-based tests of the analytical and simulation models.

use proptest::prelude::*;

use glasswing::sim::engine::Sim;
use glasswing::sim::sweep::{simulate, FrameworkKind};
use glasswing::sim::{AppParams, ClusterParams};
use glasswing::trace::MAP_TOKEN_GROUPS;

/// Per-chunk map-stage durations in ms, chunk-major.
fn chunk_strategy() -> impl Strategy<Value = Vec<[u64; 5]>> {
    proptest::collection::vec(proptest::array::uniform5(0u64..50), 0..40)
}

/// The §III-D replay of the map pipeline at buffering level `b`.
fn schedule(chunks: &[[u64; 5]], b: usize) -> glasswing::trace::Schedule {
    glasswing::trace::simulate(chunks, &MAP_TOKEN_GROUPS, b, [1; 5])
}

proptest! {
    /// More buffering never increases the pipeline makespan.
    #[test]
    fn schedule_monotone_in_buffering(chunks in chunk_strategy()) {
        let single = schedule(&chunks, 1).makespan();
        let double = schedule(&chunks, 2).makespan();
        let triple = schedule(&chunks, 3).makespan();
        prop_assert!(double <= single);
        prop_assert!(triple <= double);
    }

    /// The makespan is bounded below by every stage's total busy time and
    /// by the per-chunk critical path, and bounded above by fully serial
    /// execution.
    #[test]
    fn schedule_is_sandwiched(chunks in chunk_strategy()) {
        for b in 1..=3 {
            let makespan = schedule(&chunks, b).makespan();
            for s in 0..5 {
                let stage_total: u64 = chunks.iter().map(|c| c[s]).sum();
                prop_assert!(makespan >= stage_total);
            }
            let serial: u64 = chunks.iter().flat_map(|c| c.iter()).sum();
            prop_assert!(makespan <= serial);
        }
    }

    /// Stage completion times are monotone within a chunk and per stage
    /// across chunks (the schedule is a valid partial order).
    #[test]
    fn schedule_respects_precedence(chunks in chunk_strategy()) {
        let sched = schedule(&chunks, 2);
        for (c, stages) in sched.end.iter().enumerate() {
            for s in 1..5 {
                prop_assert!(stages[s] >= stages[s - 1], "chunk {c} stage order");
            }
            if c > 0 {
                for s in 0..5 {
                    prop_assert!(
                        sched.end[c][s] >= sched.end[c - 1][s],
                        "stage {s} FIFO order"
                    );
                }
            }
        }
    }

    /// DES resources conserve work: with a single server, the completion
    /// time of n requests equals the max arrival plus queued service.
    #[test]
    fn des_single_server_conserves_work(
        services in proptest::collection::vec(0.0f64..10.0, 1..20))
    {
        let mut sim = Sim::new();
        let r = sim.add_resource(1);
        let total: f64 = services.iter().sum();
        for &s in &services {
            sim.schedule(0.0, move |sim| {
                sim.use_resource(r, s, |_| {});
            });
        }
        let end = sim.run();
        prop_assert!((end - total).abs() < 1e-9, "end {end} vs total {total}");
    }

    /// DES semaphores never lose permits: after all acquire/release pairs
    /// complete, the event queue drains and time is finite.
    #[test]
    fn des_semaphore_pairs_drain(
        holds in proptest::collection::vec(0.0f64..5.0, 1..25),
        permits in 1usize..4)
    {
        let mut sim = Sim::new();
        let sem = sim.add_semaphore(permits);
        for &h in &holds {
            sim.schedule(0.0, move |sim| {
                sim.acquire(sem, move |sim| {
                    sim.schedule(h, move |sim| sim.release(sem));
                });
            });
        }
        let end = sim.run();
        let total: f64 = holds.iter().sum();
        // With k permits the span is at least total/k and at most total.
        prop_assert!(end <= total + 1e-9);
        prop_assert!(end + 1e-9 >= total / permits as f64);
    }

    /// Simulated job times scale down monotonically with node count for
    /// every framework (no superlinear anomalies in the models).
    #[test]
    fn sim_total_monotone_in_nodes(app_idx in 0usize..5, fw in 0usize..3) {
        let app = &AppParams::all()[app_idx];
        let cluster = ClusterParams::das4_cpu_hdfs();
        let framework = [
            FrameworkKind::Glasswing,
            FrameworkKind::Hadoop,
            FrameworkKind::GPMR,
        ][fw];
        let mut prev = f64::INFINITY;
        for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
            let t = simulate(framework, app, &cluster, nodes).total;
            prop_assert!(t > 0.0);
            prop_assert!(
                t <= prev * 1.001,
                "{} under {:?}: {nodes} nodes took {t} > prev {prev}",
                app.name, framework
            );
            prev = t;
        }
    }

    /// Glasswing's simulated total is never worse than the Hadoop model's
    /// on the same configuration (the paper's blanket result).
    #[test]
    fn sim_glasswing_dominates_hadoop(app_idx in 0usize..5, nodes_pow in 0u32..7) {
        let app = &AppParams::all()[app_idx];
        let cluster = ClusterParams::das4_cpu_hdfs();
        let nodes = 1usize << nodes_pow;
        let gw = simulate(FrameworkKind::Glasswing, app, &cluster, nodes).total;
        let hd = simulate(FrameworkKind::Hadoop, app, &cluster, nodes).total;
        prop_assert!(gw < hd, "{}: glasswing {gw} !< hadoop {hd} at {nodes}", app.name);
    }
}
