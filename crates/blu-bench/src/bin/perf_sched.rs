//! Hot-path perf telemetry for the speculative scheduler.
//!
//! Times three things on a testbed-scale scenario and writes
//! `BENCH_sched.json` (repo root) so the perf trajectory is tracked
//! in-tree:
//!
//! * **subframes/sec** — full emulator replays under PF and BLU;
//! * **schedules/sec** — raw sub-frame scheduling throughput of the
//!   current hot path (bounded `Arc` cache + pruned incremental
//!   greedy) versus a reconstruction of the pre-overhaul baseline
//!   (per-query vector clone + exhaustive candidate loop), with the
//!   measured speedup;
//! * **inference latency** — mean wall-clock of one blue-printing
//!   pass (measurement statistics → inferred topology), routed
//!   through the same backend + scratch entry point
//!   ([`blueprint_from_measurements_with`], one
//!   [`InferenceBackend::solve`]) `perf_infer` times, so
//!   `BENCH_sched.json` and `BENCH_infer.json` report the same code
//!   path and must agree.
//!
//! `--quick` shrinks every loop for CI smoke runs; the JSON is
//! written either way.

use blu_bench::runners::topology_with_hts_per_ue;
use blu_bench::{ExpArgs, Table};
use blu_core::blueprint::{InferScratch, InferenceBackend, InferenceConfig};
use blu_core::emulator::{EmulationConfig, Emulator};
use blu_core::error::BluError;
use blu_core::joint::{AccessDistribution, TopologyAccess};
use blu_core::measure::OutcomeEstimator;
use blu_core::orchestrator::blueprint_from_measurements_with;
use blu_core::sched::{MatrixRates, PfScheduler, SchedInput, SpeculativeScheduler, UlScheduler};
use blu_phy::cell::CellConfig;
use blu_sim::clientset::ClientSet;
use blu_sim::rng::DetRng;
use blu_sim::time::Micros;
use blu_sim::topology::InterferenceTopology;
use blu_traces::capture::capture_from_topology;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Reconstruction of the pre-overhaul provider behavior: every query
/// hands back a freshly allocated vector (the old unbounded
/// `RefCell<HashMap>` cloned a `2^|w|` `Vec` out of the map on every
/// hit). Pair with [`SpeculativeScheduler::exhaustive`] to get the
/// pre-overhaul scheduling path end to end.
struct CloningAccess<'a>(TopologyAccess<'a>);

impl AccessDistribution for CloningAccess<'_> {
    fn pattern_distribution(&self, w: ClientSet) -> Result<Arc<[f64]>, BluError> {
        let d = self.0.pattern_distribution(w)?;
        Ok(Arc::from(d.to_vec()))
    }
}

#[derive(Serialize)]
struct BenchSched {
    quick: bool,
    seed: u64,
    // Emulator replays (4 UEs / 6 HTs testbed trace, SISO cell).
    emu_n_txops: u64,
    emu_rounds: u64,
    pf_subframes_per_sec: f64,
    blu_subframes_per_sec: f64,
    /// Mean wall-clock of one emulated BLU sub-frame, in nanoseconds
    /// (`1e9 / blu_subframes_per_sec`) — the CI floor metric.
    subframe_ns: f64,
    // Raw scheduler throughput (10 UEs / 8 HTs, MU-MIMO cell).
    sched_iters: u64,
    hot_schedules_per_sec: f64,
    baseline_schedules_per_sec: f64,
    sched_speedup: f64,
    // Distribution-cache counters of the emulator's shared provider:
    // each replay round constructs a fresh scheduler (fresh private
    // memo), so these count how much pattern-distribution work the
    // shared bounded LRU absorbs across scheduler instances — the
    // fleet sharing pattern.
    sched_cache_hits: u64,
    sched_cache_misses: u64,
    sched_cache_hit_rate: f64,
    // Blue-printing (measurement stats -> topology).
    inference_runs: u64,
    inference_latency_ms: f64,
}

fn time_secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Emulator subframes/sec for one scheduler over the trace.
fn emu_rate(
    trace: &blu_traces::schema::TestbedTrace,
    cell: &CellConfig,
    n_txops: u64,
    sched: &mut dyn UlScheduler,
) -> f64 {
    let mut cfg = EmulationConfig::new(cell.clone());
    cfg.n_txops = n_txops;
    let mut emu = Emulator::new(trace, cfg).expect("emulator setup");
    let (report, secs) = time_secs(|| emu.run(sched, None));
    report.metrics.subframes as f64 / secs.max(1e-9)
}

/// Raw schedules/sec: drive `schedule()` over a fixed rate matrix
/// with slowly rotating PF averages (so candidate orderings shift the
/// way they do across real sub-frames).
fn sched_rate(sched: &mut SpeculativeScheduler<'_>, n: usize, n_rbs: usize, iters: u64) -> f64 {
    let rates = MatrixRates::build(n, n_rbs, |u, b| {
        600.0 + ((u * 31 + b * 17) % 13) as f64 * 40.0
    });
    let avgs: Vec<Vec<f64>> = (0..8)
        .map(|k| {
            (0..n)
                .map(|u| 400.0 + ((u + k) % n) as f64 * 120.0)
                .collect()
        })
        .collect();
    let (_, secs) = time_secs(|| {
        for i in 0..iters {
            let input = SchedInput {
                n_clients: n,
                n_rbs,
                m_antennas: 2,
                k_max: n,
                max_group: 4,
                rates: &rates,
                avg_tput: &avgs[(i % 8) as usize],
            };
            std::hint::black_box(sched.schedule(&input));
        }
    });
    iters as f64 / secs.max(1e-9)
}

fn main() {
    let args = ExpArgs::parse();

    // Emulator replays on the testbed-scale trace.
    let topo = topology_with_hts_per_ue(4, 6, 3, (0.3, 0.6), args.seed);
    let trace = capture_from_topology(
        &topo,
        Micros::from_secs(args.scaled(60, 8)),
        1_500.0,
        2,
        50,
        (12.0, 28.0),
        args.seed + 7,
    );
    let cell = CellConfig::testbed_siso();
    // Long enough that the per-subframe figure (and the blu-vs-pf
    // ratio CI asserts on) is dominated by steady-state work, not
    // timer granularity or first-touch faults — in quick mode too,
    // since CI runs the floor assertions against the quick JSON.
    let emu_n_txops = args.scaled(2_000, 300);
    let access = TopologyAccess::new(&trace.ground_truth);
    // Alternating best-of-rounds: both replays are deterministic, so
    // timing noise is one-sided (interference only ever slows a
    // pass). Interleaving PF and BLU passes cancels frequency drift
    // between them, and the per-path maximum rate rejects one-sided
    // slowdowns instead of averaging them into the blu/pf ratio CI
    // asserts on — same discipline as perf_infer's batch timing.
    let emu_rounds = args.scaled(5, 3);
    let mut pf_sps = 0.0f64;
    let mut blu_sps = 0.0f64;
    for _ in 0..emu_rounds {
        pf_sps = pf_sps.max(emu_rate(&trace, &cell, emu_n_txops, &mut PfScheduler));
        blu_sps = blu_sps.max(emu_rate(
            &trace,
            &cell,
            emu_n_txops,
            &mut SpeculativeScheduler::new(&access),
        ));
    }
    // Counters of the provider shared by every BLU replay round: each
    // round's scheduler starts with a cold private memo, so round 2+
    // traffic is served by the shared DistributionCache.
    let sched_cache = access.cache_stats();

    // Raw scheduler throughput: hot path vs pre-overhaul baseline on
    // a denser cell where the 2^w expectations actually bite.
    let mut rng = DetRng::seed_from_u64(args.seed + 13);
    let dense = InterferenceTopology::random(10, 8, (0.2, 0.6), 0.4, &mut rng);
    let sched_iters = args.scaled(3_000, 100);
    let hot_access = TopologyAccess::new(&dense);
    let hot = sched_rate(
        &mut SpeculativeScheduler::new(&hot_access),
        10,
        20,
        sched_iters,
    );
    let base_access = CloningAccess(TopologyAccess::new(&dense));
    let baseline = sched_rate(
        &mut SpeculativeScheduler::exhaustive(&base_access),
        10,
        20,
        sched_iters,
    );

    // Blue-printing latency from full-trace statistics, through the
    // same backend + scratch path perf_infer times (the two JSON
    // files must agree; CI cross-checks them).
    let inference_runs = args.scaled(20, 3);
    let mut est = OutcomeEstimator::new(trace.ground_truth.n_clients);
    *est.stats_mut() = blu_traces::stats::EmpiricalAccess::from_trace(&trace.access);
    let backend = InferenceBackend::default();
    let mut inf_scratch = InferScratch::default();
    let (_, inf_secs) = time_secs(|| {
        for _ in 0..inference_runs {
            std::hint::black_box(blueprint_from_measurements_with(
                &est,
                &InferenceConfig::default(),
                &backend,
                &mut inf_scratch,
            ));
        }
    });

    let out = BenchSched {
        quick: args.quick,
        seed: args.seed,
        emu_n_txops,
        emu_rounds,
        pf_subframes_per_sec: pf_sps,
        blu_subframes_per_sec: blu_sps,
        subframe_ns: 1e9 / blu_sps.max(1e-9),
        sched_iters,
        hot_schedules_per_sec: hot,
        baseline_schedules_per_sec: baseline,
        sched_speedup: hot / baseline.max(1e-9),
        sched_cache_hits: sched_cache.hits,
        sched_cache_misses: sched_cache.misses,
        sched_cache_hit_rate: sched_cache.hit_rate(),
        inference_runs,
        inference_latency_ms: 1e3 * inf_secs / inference_runs.max(1) as f64,
    };

    let mut table = Table::new("perf_sched: hot-path telemetry", &["metric", "value"]);
    table.row(vec![
        "PF subframes/sec".into(),
        format!("{:.0}", out.pf_subframes_per_sec),
    ]);
    table.row(vec![
        "BLU subframes/sec".into(),
        format!("{:.0}", out.blu_subframes_per_sec),
    ]);
    table.row(vec![
        "BLU subframe".into(),
        format!("{:.0} ns", out.subframe_ns),
    ]);
    table.row(vec![
        "hot schedules/sec".into(),
        format!("{:.0}", out.hot_schedules_per_sec),
    ]);
    table.row(vec![
        "baseline schedules/sec".into(),
        format!("{:.0}", out.baseline_schedules_per_sec),
    ]);
    table.row(vec![
        "sched speedup".into(),
        format!("{:.2}x", out.sched_speedup),
    ]);
    table.row(vec![
        "sched cache hit rate".into(),
        format!(
            "{:.3} ({} hits / {} lookups)",
            out.sched_cache_hit_rate,
            out.sched_cache_hits,
            out.sched_cache_hits + out.sched_cache_misses
        ),
    ]);
    table.row(vec![
        "inference latency".into(),
        format!("{:.2} ms", out.inference_latency_ms),
    ]);
    table.print();

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_sched.json", json + "\n").expect("write BENCH_sched.json");
    println!("\nperf telemetry written to BENCH_sched.json");
}
