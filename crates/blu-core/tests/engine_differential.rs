//! Engine differential tests: the `CellEngine` and the loops built on
//! it must reproduce the pre-refactor subframe loops **bit-for-bit**.
//!
//! The golden file `tests/data/engine_golden_v1.json` was generated
//! by the standalone-loop implementations (`Emulator::run`,
//! `Emulator::run_contended`, `orchestrator::run_blu`,
//! `robust::run_blu_robust_cell`) immediately before the engine
//! refactor. Every scenario digest below — emulator runs across
//! traffic/HARQ/NOMA/contention modes, full two-phase BLU runs, and
//! robust runs with and without injected faults — must match that
//! file exactly: the engine is a structure change, never a numbers
//! change.
//!
//! Regenerate (only when intentionally changing semantics) with
//! `BLU_REGEN_ENGINE_GOLDEN=1 cargo test -p blu-core --test
//! engine_differential`.

use blu_core::emulator::{EmulationConfig, Emulator, TrafficModel};
use blu_core::joint::TopologyAccess;
use blu_core::metrics::UplinkMetrics;
use blu_core::orchestrator::{run_blu, BluConfig, BluRunReport};
use blu_core::robust::{run_blu_robust, RobustConfig, RobustRunReport};
use blu_core::sched::{PfScheduler, SpeculativeScheduler};
use blu_phy::cell::CellConfig;
use blu_sim::clientset::ClientSet;
use blu_sim::faults::{FaultEvent, FaultKind, FaultScript};
use blu_sim::rng::DetRng;
use blu_sim::time::Micros;
use blu_traces::capture::{capture_synthetic, CaptureConfig};
use blu_traces::faults::{capture_with_faults, FaultyCapture};
use blu_traces::schema::TestbedTrace;
use blu_wifi::onoff::OnOffSource;
use std::collections::BTreeMap;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/engine_golden_v1.json"
);

/// Order-sensitive fold of a `f64` slice down to one word, by exact
/// bit pattern (never by approximate value).
fn fold_bits(xs: &[f64]) -> u64 {
    xs.iter().fold(0x9E37_79B9_7F4A_7C15u64, |h, x| {
        h.rotate_left(7) ^ x.to_bits()
    })
}

fn digest_metrics(m: &UplinkMetrics) -> String {
    format!(
        "sf={} sch={} ut={} col={} blk={} fad={} full={} bits={:016x} pc={:016x}",
        m.subframes,
        m.rbs_scheduled,
        m.rbs_utilized,
        m.rbs_collided,
        m.rbs_blocked,
        m.rbs_faded,
        m.fully_utilized_subframes,
        m.bits_delivered.to_bits(),
        fold_bits(&m.bits_per_client),
    )
}

fn digest_blu(r: &BluRunReport) -> String {
    let topo = &r.inference.topology;
    let topo_fold = topo.hts.iter().fold(topo.n_clients as u64, |h, ht| {
        h.rotate_left(9) ^ ht.q.to_bits() ^ (ht.edges.0 as u64) ^ ((ht.edges.0 >> 64) as u64)
    });
    format!(
        "meas={} floor={} viol={:016x} iters={} restarts={} resid={:016x} verdict={} \
         topo={:016x} acc={}/{}/{} spec=[{}]",
        r.measurement_subframes,
        r.measurement_floor,
        r.inference.violation.to_bits(),
        r.inference.iterations,
        r.inference.restarts,
        r.inference.residual_fraction.to_bits(),
        r.inference.verdict,
        topo_fold,
        r.accuracy.exact_matches,
        r.accuracy.n_truth,
        r.accuracy.n_inferred,
        digest_metrics(&r.speculative.metrics),
    )
}

fn digest_robust(r: &RobustRunReport) -> String {
    // `inference_micros` is wall-clock timing and explicitly outside
    // the determinism contract; everything else is pinned.
    let trans_fold = r.transitions.iter().fold(0u64, |h, t| {
        h.rotate_left(5) ^ t.at_subframe ^ ((t.state as u64) << 56)
    });
    let verdict_fold = r
        .verdicts
        .iter()
        .fold(0u64, |h, v| h.rotate_left(3) ^ (*v as u64 + 1));
    format!(
        "meas={} remeas={} spec={} fb={} trans={}x{:016x} verdicts={}x{:016x} conf={:016x} \
         drift={:016x} brk={} panics={} ddl={} quar={} metrics=[{}]",
        r.measurement_subframes,
        r.n_remeasurements,
        r.speculative_txops,
        r.fallback_txops,
        r.transitions.len(),
        trans_fold,
        r.verdicts.len(),
        verdict_fold,
        r.final_confidence.to_bits(),
        r.peak_drift.to_bits(),
        r.breaker_transitions.len(),
        r.inference_panics,
        r.deadline_misses,
        r.quarantined_constraints,
        digest_metrics(&r.metrics),
    )
}

fn trace(secs: u64, seed: u64) -> TestbedTrace {
    capture_synthetic(
        &CaptureConfig {
            duration: Micros::from_secs(secs),
            q_range: (0.25, 0.55),
            ..CaptureConfig::testbed_default()
        },
        seed,
    )
}

fn emu_config(n_txops: u64) -> EmulationConfig {
    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = 10;
    let mut cfg = EmulationConfig::new(cell);
    cfg.n_txops = n_txops;
    cfg
}

fn faulty_capture(secs: u64, seed: u64, script: FaultScript) -> FaultyCapture {
    capture_with_faults(
        &CaptureConfig {
            duration: Micros::from_secs(secs),
            q_range: (0.25, 0.55),
            ..CaptureConfig::testbed_default()
        },
        &script,
        seed,
    )
    .unwrap()
}

/// The scenario the robust-loop goldens (and the kill-and-resume
/// unit test inside `robust.rs`) share: a strong hidden terminal
/// appears mid-run and blankets four clients.
fn ht_appear_script() -> FaultScript {
    FaultScript::new(vec![FaultEvent {
        at_subframe: 20_000,
        kind: FaultKind::HtAppear {
            q: 0.6,
            edges: ClientSet::from_iter([0, 1, 2, 3]),
        },
    }])
}

fn scenario_digests() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();

    // Back-to-back emulator runs across three seeds (PF scheduler).
    for seed in [1u64, 2, 3] {
        let t = trace(12, seed);
        let mut emu = Emulator::new(&t, emu_config(40)).unwrap();
        let report = emu.run(&mut PfScheduler, None);
        out.insert(
            format!("emulator_pf_seed{seed}"),
            digest_metrics(&report.metrics),
        );
    }

    // Speculative scheduler over the ground-truth blueprint.
    {
        let t = trace(12, 1);
        let access = TopologyAccess::new(&t.ground_truth);
        let mut sched = SpeculativeScheduler::new(&access);
        let mut emu = Emulator::new(&t, emu_config(40)).unwrap();
        let report = emu.run(&mut sched, None);
        out.insert(
            "emulator_speculative_seed1".into(),
            digest_metrics(&report.metrics),
        );
    }

    // Finite-buffer traffic + HARQ + SISO NOMA: the loop branches the
    // contended path never takes.
    {
        let t = trace(12, 2);
        let mut cfg = emu_config(60);
        cfg.traffic = TrafficModel::Poisson {
            bursts_per_sec: 40.0,
            burst_bits: 24_000.0,
        };
        cfg.harq_max_retx = 3;
        cfg.noma_sic = true;
        let mut emu = Emulator::new(&t, cfg).unwrap();
        let report = emu.run(&mut PfScheduler, None);
        out.insert(
            "emulator_poisson_harq_noma_seed2".into(),
            digest_metrics(&report.metrics),
        );
    }

    // LBT-contended runs against a 30%-duty neighbour, two seeds.
    for seed in [1u64, 2] {
        let t = trace(30, seed);
        let mut rng = DetRng::seed_from_u64(seed + 100);
        let busy =
            OnOffSource::with_duty_cycle(0.3, 2_000.0).generate(Micros::from_secs(120), &mut rng);
        let mut emu = Emulator::new(&t, emu_config(60)).unwrap();
        let report = emu.run_contended(
            &mut PfScheduler,
            None,
            &busy,
            DetRng::seed_from_u64(seed + 200),
        );
        out.insert(
            format!("emulator_contended_seed{seed}"),
            format!(
                "wall={} {}",
                report.wall_clock.unwrap().as_u64(),
                digest_metrics(&report.metrics)
            ),
        );
    }

    // Full two-phase BLU loop across three seeds.
    for seed in [2u64, 3, 4] {
        let t = trace(60, seed);
        let config = BluConfig::new(emu_config(40));
        let report = run_blu(&t, &config).unwrap();
        out.insert(format!("run_blu_seed{seed}"), digest_blu(&report));
    }

    // Robust loop: one clean run and one fault-injected run (the
    // kill-and-resume twin of the fault scenario is pinned against
    // the same digest by `robust::tests`).
    {
        let cap = faulty_capture(60, 11, FaultScript::none());
        let cfg = RobustConfig::new(BluConfig::new(emu_config(40)));
        let report = run_blu_robust(&cap, &cfg).unwrap();
        out.insert("robust_clean_seed11".into(), digest_robust(&report));
    }
    {
        let cap = faulty_capture(90, 12, ht_appear_script());
        let cfg = RobustConfig::new(BluConfig::new(emu_config(40)));
        let report = run_blu_robust(&cap, &cfg).unwrap();
        out.insert("robust_ht_appear_seed12".into(), digest_robust(&report));
    }

    out
}

#[test]
fn engine_reports_match_pre_refactor_golden() {
    let got = scenario_digests();
    if std::env::var_os("BLU_REGEN_ENGINE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&got).unwrap();
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, json + "\n").unwrap();
    }
    let golden: BTreeMap<String, String> =
        serde_json::from_str(&std::fs::read_to_string(GOLDEN_PATH).unwrap()).unwrap();
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "scenario set drifted from the golden file"
    );
    for (name, want) in &golden {
        assert_eq!(
            got.get(name).unwrap(),
            want,
            "scenario `{name}` no longer matches the pre-refactor report"
        );
    }
}
