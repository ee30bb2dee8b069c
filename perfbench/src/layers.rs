//! Replayed layer calls of the traced run: each times one layer's
//! public entry point on the workload's own captures, statistics and
//! final snapshots, inside a span named after the layer metric.

use crate::spans::Tracer;
use crate::sys;
use blu_core::blueprint::constraints::TransformedTopology;
use blu_core::blueprint::{
    refine_topology_with, ConstraintSystem, InferScratch, InferenceBackend, ObservationWindow,
};
use blu_core::engine::observer::SubframeView;
use blu_core::engine::{AccessMode, CellEngine, FleetEngine, SubframeObserver};
use blu_core::joint::TopologyAccess;
use blu_core::orchestrator::blueprint_from_measurements_with;
use blu_core::robust::{RobustConfig, RobustSnapshot, StreamingConfig};
use blu_core::runtime::checkpoint::{load_robust_checkpoint, save_robust_checkpoint};
use blu_core::runtime::snapshot_digest;
use blu_core::runtime::wire::{
    decode_response, encode_request, encode_response, Request, Response,
};
use blu_core::sched::{MatrixRates, SchedInput, SpeculativeScheduler, UlScheduler};
use blu_phy::mimo::{zf_sinrs_into, ZfScratch};
use blu_sim::time::SubframeIndex;
use blu_traces::faults::FaultyCapture;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repeat `f` until at least `min_calls` calls and `min_ms` of wall
/// time; returns the mean seconds per call. The whole batch is one
/// span named `name`.
fn timed(
    t: &mut Tracer,
    name: &'static str,
    min_calls: usize,
    min_ms: f64,
    mut f: impl FnMut(),
) -> f64 {
    let id = t.enter(name);
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || start.elapsed().as_secs_f64() * 1e3 < min_ms {
        f();
        calls += 1;
    }
    t.exit(id).as_secs_f64() / calls as f64
}

/// `capture_for_spec`-style synthesis, timed per cell: mean ms per
/// cell and resident-set growth per cell (MiB) while every capture is
/// held.
pub fn captures<T>(
    t: &mut Tracer,
    n: usize,
    mut synthesize: impl FnMut(usize) -> T,
) -> (Vec<T>, f64, f64) {
    let rss0 = sys::rss_mb();
    let mut out = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        let id = t.enter("traces.capture");
        out.push(synthesize(i));
        total += t.exit(id).as_secs_f64();
    }
    let grown = (sys::rss_mb() - rss0).max(0.0);
    (out, total * 1e3 / n as f64, grown / n as f64)
}

/// `save_robust_checkpoint` then `load_robust_checkpoint` of each
/// snapshot under `dir`: mean µs per save, µs per load, mean bytes.
pub fn checkpoint(t: &mut Tracer, snaps: &[&RobustSnapshot], dir: &Path) -> (f64, f64, f64) {
    let (mut save, mut load, mut bytes) = (0.0, 0.0, 0.0);
    for (i, snap) in snaps.iter().enumerate() {
        let path = dir.join(format!("replay-{i}.json"));
        let id = t.enter("checkpoint.save");
        save_robust_checkpoint(&path, snap).expect("replayed checkpoint save");
        save += t.exit(id).as_secs_f64();
        bytes += std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64);
        let id = t.enter("checkpoint.load");
        black_box(load_robust_checkpoint(&path).expect("replayed checkpoint load"));
        load += t.exit(id).as_secs_f64();
    }
    let n = snaps.len().max(1) as f64;
    (save * 1e6 / n, load * 1e6 / n, bytes / n)
}

/// `snapshot_digest` on every snapshot: µs per cell.
pub fn status_digest(t: &mut Tracer, snaps: &[&RobustSnapshot]) -> f64 {
    let per_round = timed(t, "service.status_digest", 20, 200.0, || {
        for snap in snaps {
            black_box(snapshot_digest(snap));
        }
    });
    per_round * 1e6 / snaps.len().max(1) as f64
}

/// Counts decoded sub-frames.
#[derive(Default)]
struct SubframeCounter(u64);

impl SubframeObserver for SubframeCounter {
    fn on_subframe(&mut self, _view: &SubframeView<'_>) {
        self.0 += 1;
    }
}

/// `CellEngine::run_segment` with the speculative scheduler on each
/// cell's final blueprint: ns per transmitted sub-frame.
pub fn transmit(
    t: &mut Tracer,
    config: &RobustConfig,
    cells: &[(&FaultyCapture, &RobustSnapshot)],
) -> f64 {
    let id = t.enter("engine.transmit");
    let start = Instant::now();
    let mut subframes = 0u64;
    for (capture, snap) in cells {
        let Some(blueprint) = &snap.blueprint else {
            continue;
        };
        let access = TopologyAccess::new(&blueprint.topology);
        let mut engine = CellEngine::with_config(&capture.trace, &config.blu.emulation)
            .expect("replayed engine")
            .segment(400, 0);
        let mut counter = SubframeCounter::default();
        black_box(engine.run_segment(
            &mut SpeculativeScheduler::new(&access),
            None,
            AccessMode::BackToBack,
            &mut counter,
        ));
        subframes += counter.0;
    }
    let secs = start.elapsed().as_secs_f64();
    t.exit(id);
    secs * 1e9 / subframes.max(1) as f64
}

/// `zf_sinrs_into` over each capture's CSI at the cell's antenna
/// count: ns per RB decode.
pub fn zf(t: &mut Tracer, config: &RobustConfig, captures: &[&FaultyCapture]) -> f64 {
    let m = config.blu.emulation.cell.m_antennas;
    let mut scratch = ZfScratch::default();
    let mut out = Vec::new();
    let per_batch = timed(t, "phy.zf", 20, 100.0, || {
        for capture in captures {
            let csi = &capture.trace.csi;
            let streams = m.min(capture.trace.ground_truth.n_clients);
            let powers = vec![100.0; streams];
            for sf in 0..ZF_SUBFRAMES {
                black_box(zf_sinrs_into(
                    |i| &csi.channel(i, SubframeIndex(sf))[..m],
                    streams,
                    m,
                    &powers,
                    1.0,
                    &mut scratch,
                    &mut out,
                ));
            }
        }
    });
    per_batch * 1e9 / (ZF_SUBFRAMES as usize * captures.len().max(1)) as f64
}

/// Sub-frames of CSI each capture contributes to one ZF batch.
const ZF_SUBFRAMES: u64 = 256;

/// `UlScheduler::schedule` of the speculative scheduler on each cell's
/// final blueprint: µs per sub-frame schedule.
pub fn schedule(t: &mut Tracer, config: &RobustConfig, snaps: &[&RobustSnapshot]) -> f64 {
    let n_rbs = config.blu.emulation.cell.numerology.n_rbs;
    let m = config.blu.emulation.cell.m_antennas;
    let mut total = 0.0;
    let mut calls = 0u64;
    for snap in snaps {
        let Some(blueprint) = &snap.blueprint else {
            continue;
        };
        let n = blueprint.topology.n_clients;
        let access = TopologyAccess::new(&blueprint.topology);
        let mut sched = SpeculativeScheduler::new(&access);
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
        let mut i = 0usize;
        total += timed(t, "sched.schedule", 200, 20.0, || {
            let input = SchedInput {
                n_clients: n,
                n_rbs,
                m_antennas: m,
                k_max: n,
                max_group: 4,
                rates: &rates,
                avg_tput: &avgs[i % 8],
            };
            black_box(sched.schedule(&input));
            i += 1;
        });
        calls += 1;
    }
    total * 1e6 / calls.max(1) as f64
}

/// Cold `blueprint_from_measurements_with` (fresh scratch) on each
/// snapshot's estimator: ms per solve.
pub fn solve(t: &mut Tracer, config: &RobustConfig, snaps: &[&RobustSnapshot]) -> f64 {
    let mut total = 0.0;
    for snap in snaps {
        let id = t.enter("blueprint.solve");
        black_box(blueprint_from_measurements_with(
            &snap.est,
            &config.blu.inference,
            &InferenceBackend::default(),
            &mut InferScratch::default(),
        ));
        total += t.exit(id).as_secs_f64();
    }
    total * 1e3 / snaps.len().max(1) as f64
}

/// Warm `refine_topology_with` from each streaming cell's serving
/// blueprint over its final window, under the streaming step budget:
/// ms per refine (0 when no cell streams).
pub fn refine(t: &mut Tracer, config: &RobustConfig, snaps: &[&RobustSnapshot]) -> f64 {
    let budget = StreamingConfig::new(2_000).refine_deadline_steps;
    let cfg = blu_core::InferenceConfig {
        deadline: blu_core::runtime::Deadline::Steps(budget.max(1)),
        ..config.blu.inference
    };
    let mut scratch = InferScratch::default();
    let mut total = 0.0;
    let mut calls = 0usize;
    for snap in snaps {
        let (Some(stream), Some(blueprint)) = (&snap.stream, &snap.blueprint) else {
            continue;
        };
        let mut sys = ConstraintSystem::from_measurements(stream.window.stats());
        sys.sanitize();
        let id = t.enter("blueprint.refine");
        let start = TransformedTopology::from_topology(&blueprint.topology);
        black_box(refine_topology_with(&sys, &cfg, start, &mut scratch));
        total += t.exit(id).as_secs_f64();
        calls += 1;
    }
    if calls == 0 {
        0.0
    } else {
        total * 1e3 / calls as f64
    }
}

/// `ObservationWindow` retire plus admit, cycling each streaming
/// cell's final window through itself: ns per admit+retire pair (0
/// when no cell streams).
pub fn window(t: &mut Tracer, snaps: &[&RobustSnapshot]) -> f64 {
    let mut windows: Vec<ObservationWindow> = snaps
        .iter()
        .filter_map(|s| s.stream.as_ref().map(|st| st.window.clone()))
        .filter(|w| !w.is_empty())
        .collect();
    if windows.is_empty() {
        return 0.0;
    }
    timed(t, "stream.window", 20_000, 50.0, || {
        for w in windows.iter_mut() {
            if let Some((observed, accessible)) = w.retire() {
                w.admit(observed, accessible);
            }
        }
    }) * 1e9
        / windows.len() as f64
}

/// `FleetEngine::run` over `cells` no-op items: µs per fork/join.
pub fn dispatch(t: &mut Tracer, cells: usize) -> f64 {
    timed(t, "fleet.dispatch", 200, 100.0, || {
        let items: Vec<usize> = (0..cells).collect();
        black_box(FleetEngine::run(items, || (), |_, i| black_box(i)));
    }) * 1e6
}

/// Client-side `encode_request(Step)` plus `decode_response(Status)`:
/// µs per pair.
pub fn codec(t: &mut Tracer, status: &Response) -> f64 {
    let payload = encode_response(status).expect("re-encoding a Status response");
    let req = Request::Step { rounds: 8 };
    timed(t, "wire.codec", 200, 50.0, || {
        black_box(encode_request(&req).expect("encoding Step"));
        black_box(decode_response(&payload).expect("decoding Status"));
    }) * 1e6
}
