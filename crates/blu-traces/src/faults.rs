//! Fault-script trace capture: synthesize traces whose ground truth
//! *changes mid-run*.
//!
//! A [`FaultScript`]'s topology-mutating events split the capture
//! horizon into **epochs**. Within each epoch the interference
//! topology is fixed; at each boundary the scripted mutations are
//! applied and fresh on/off activity is generated for the affected
//! terminals. Access sets are derived per epoch against that epoch's
//! edges, then spliced into one continuous [`AccessTrace`] — so the
//! emulator and schedulers replay a single trace while the world
//! shifts underneath them, exactly the §3.7 tracking scenario.
//!
//! Hidden terminals keep stable indices for the whole capture
//! (disappearance zeroes a terminal's duty cycle rather than removing
//! its lane), which keeps activity timelines, labels and fault-event
//! indices aligned.
//!
//! With an empty script the output is bit-identical to
//! [`capture_synthetic`](crate::capture::capture_synthetic) (same RNG stream discipline), so fault-free
//! baselines and faulted runs share their first epoch exactly.

use crate::capture::{capture_csi, CaptureConfig};
use crate::schema::{AccessTrace, TestbedTrace, WifiActivityTrace};
use blu_phy::laa::UE_CCA_US;
use blu_sim::clientset::ClientSet;
use blu_sim::error::SimError;
use blu_sim::faults::{apply_topology_fault, FaultScript};
use blu_sim::medium::ActivityTimeline;
use blu_sim::rng::DetRng;
use blu_sim::time::{Micros, SUBFRAME_US};
use blu_sim::topology::{HiddenTerminal, InterferenceTopology};
use blu_wifi::onoff::OnOffSource;
use serde::{Deserialize, Serialize};

/// The ground truth in force from `start_sf` until the next epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEpoch {
    /// First subframe governed by this epoch's topology.
    pub start_sf: u64,
    /// The interference topology during the epoch (target duty
    /// cycles; disappeared terminals carry `q = 0`).
    pub topology: InterferenceTopology,
}

/// A captured trace plus the fault script that shaped it and the
/// per-epoch ground truths (the single `trace.ground_truth` can only
/// describe one topology; robustness experiments need the real one at
/// every instant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyCapture {
    /// The spliced trace (its `ground_truth` holds measured full-run
    /// airtimes and the **union** of each terminal's edges across
    /// epochs — see [`capture_with_faults`]).
    pub trace: TestbedTrace,
    /// Ground-truth topology per epoch, ascending by `start_sf`.
    pub epochs: Vec<FaultEpoch>,
    /// The script that was applied.
    pub script: FaultScript,
}

/// Capture a synthetic trace with a [`FaultScript`] applied.
///
/// Epoch 0 reproduces
/// [`capture_synthetic`](crate::capture::capture_synthetic)'s topology, activity, SNR
/// and CSI streams exactly; each later epoch re-generates activity
/// only (derived per-epoch/per-terminal streams), so an empty script
/// yields the same trace as the fault-free path.
///
/// The returned `trace.ground_truth` is the **universe** topology:
/// one entry per terminal that ever existed, `q` set to its measured
/// full-run airtime, edges set to the union over epochs — adequate
/// for schema validation and client counts, *not* for instantaneous
/// accuracy checks (use [`FaultyCapture::epochs`] for those).
pub fn capture_with_faults(
    cfg: &CaptureConfig,
    script: &FaultScript,
    seed: u64,
) -> Result<FaultyCapture, SimError> {
    script.validate(cfg.n_ues, cfg.n_hts)?;
    let n_subframes = cfg.duration.as_u64() / SUBFRAME_US;
    let duration = cfg.duration;

    let root = DetRng::seed_from_u64(seed);
    let mut topo_rng = root.derive("topology");
    let mut topo = InterferenceTopology::random(
        cfg.n_ues,
        cfg.n_hts,
        cfg.q_range,
        cfg.edge_prob,
        &mut topo_rng,
    );

    // Epoch boundaries: subframe 0 plus every in-range topology event.
    let mut bounds: Vec<u64> = vec![0];
    for sf in script.topology_event_subframes() {
        if sf > 0 && sf < n_subframes && Some(&sf) != bounds.last() {
            bounds.push(sf);
        }
    }

    let n_universe = cfg.n_hts + script.n_appearing();
    let mut timelines: Vec<ActivityTimeline> = vec![ActivityTimeline::new(); n_universe];
    let mut epochs: Vec<FaultEpoch> = Vec::with_capacity(bounds.len());

    for (e, &start) in bounds.iter().enumerate() {
        let end = bounds.get(e + 1).copied().unwrap_or(n_subframes);
        for ev in script.topology_events_at(start) {
            apply_topology_fault(&mut topo, &ev.kind)?;
        }
        epochs.push(FaultEpoch {
            start_sf: start,
            topology: topo.clone(),
        });

        let t0 = Micros(start * SUBFRAME_US);
        let t1 = Micros(end * SUBFRAME_US);
        // Epoch 0 consumes the shared "activity" stream in HT order
        // over the *full* horizon — the exact discipline of
        // `capture_synthetic` — then clips to the epoch, so the
        // pre-fault prefix is bit-identical to a fault-free capture.
        // Later epochs get independent per-(epoch, terminal) streams
        // so inserting an event never perturbs unrelated terminals.
        let mut epoch0_rng = root.derive("activity");
        for (k, ht) in topo.hts.iter().enumerate() {
            if ht.q <= 0.0 {
                continue; // absent or disappeared: lane stays idle
            }
            let src = OnOffSource::with_duty_cycle(ht.q.clamp(0.01, 0.99), cfg.mean_on_us);
            let seg = if e == 0 {
                src.generate(duration, &mut epoch0_rng).window(t0, t1)
            } else {
                let mut rng = root.derive_indexed("fault-activity", ((e as u64) << 32) | k as u64);
                src.generate(t1 - t0, &mut rng)
            };
            for iv in seg.shifted(t0).intervals() {
                timelines[k].push(iv.start, iv.end);
            }
        }
    }

    // Derive access per epoch against that epoch's edges.
    let mut accessible = Vec::with_capacity(n_subframes as usize);
    for (e, epoch) in epochs.iter().enumerate() {
        let end = epochs.get(e + 1).map_or(n_subframes, |next| next.start_sf);
        let epoch_topo = &epoch.topology;
        for sf in epoch.start_sf..end {
            let boundary = Micros(sf * SUBFRAME_US);
            let window_start = boundary.saturating_sub(Micros(UE_CCA_US));
            let mut acc = ClientSet::all(cfg.n_ues);
            for (k, ht) in epoch_topo.hts.iter().enumerate() {
                if !ht.edges.is_empty() && timelines[k].busy_in(window_start, boundary) {
                    acc = acc.difference(ht.edges);
                }
            }
            accessible.push(acc);
        }
    }
    let access = AccessTrace {
        n_ues: cfg.n_ues,
        accessible,
    };

    // Universe ground truth: measured airtime + union of edges.
    let hts: Vec<HiddenTerminal> = (0..n_universe)
        .map(|k| HiddenTerminal {
            q: timelines[k].airtime_in(Micros::ZERO, duration),
            edges: epochs
                .iter()
                .filter_map(|ep| ep.topology.hts.get(k))
                .fold(ClientSet::EMPTY, |acc, ht| acc.union(ht.edges)),
        })
        .collect();
    let ground_truth = InterferenceTopology {
        n_clients: cfg.n_ues,
        hts,
    };

    let mut snr_rng = root.derive("snr");
    let mean_snr_db: Vec<f64> = (0..cfg.n_ues)
        .map(|_| snr_rng.range_f64(cfg.snr_range_db.0, cfg.snr_range_db.1))
        .collect();
    let csi = capture_csi(
        cfg.n_ues,
        cfg.n_antennas,
        n_subframes,
        cfg.coherence_subframes,
        &root.derive("csi-root"),
    );
    let labels = (0..n_universe)
        .map(|k| {
            if k < cfg.n_hts {
                format!("ht{k}")
            } else {
                format!("fault-ht{k}")
            }
        })
        .collect();

    let trace = TestbedTrace {
        description: format!("faulty seed={seed} events={}", script.len()),
        ground_truth,
        wifi: WifiActivityTrace {
            labels,
            timelines,
            horizon: duration,
        },
        access,
        csi,
        mean_snr_db,
    };
    debug_assert_eq!(trace.validate(), Ok(()));
    Ok(FaultyCapture {
        trace,
        epochs,
        script: script.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_synthetic;
    use blu_sim::faults::{FaultEvent, FaultKind};

    fn quick_cfg() -> CaptureConfig {
        CaptureConfig::quick()
    }

    #[test]
    fn empty_script_matches_fault_free_capture() {
        let cfg = quick_cfg();
        let plain = capture_synthetic(&cfg, 11);
        let faulty = capture_with_faults(&cfg, &FaultScript::none(), 11).unwrap();
        assert_eq!(faulty.trace.access, plain.access);
        assert_eq!(faulty.trace.wifi, plain.wifi);
        assert_eq!(faulty.trace.csi, plain.csi);
        assert_eq!(faulty.trace.mean_snr_db, plain.mean_snr_db);
        assert_eq!(faulty.trace.ground_truth, plain.ground_truth);
        assert_eq!(faulty.epochs.len(), 1);
    }

    #[test]
    fn first_epoch_shared_with_fault_free_capture() {
        // The faulted run must be a perfect counterfactual: identical
        // to the clean capture until the first topology event.
        let cfg = quick_cfg();
        let plain = capture_synthetic(&cfg, 12);
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 4_000,
            kind: FaultKind::HtAppear {
                q: 0.5,
                edges: ClientSet::from_iter([0, 1]),
            },
        }]);
        let faulty = capture_with_faults(&cfg, &script, 12).unwrap();
        assert_eq!(
            &faulty.trace.access.accessible[..4_000],
            &plain.access.accessible[..4_000]
        );
        assert_ne!(
            &faulty.trace.access.accessible[4_000..],
            &plain.access.accessible[4_000..],
            "new terminal must perturb the post-fault access sets"
        );
    }

    #[test]
    fn appearance_blocks_its_victims() {
        let cfg = quick_cfg();
        let edges = ClientSet::from_iter([0, 1]);
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 5_000,
            kind: FaultKind::HtAppear { q: 0.6, edges },
        }]);
        let faulty = capture_with_faults(&cfg, &script, 13).unwrap();
        assert_eq!(faulty.epochs.len(), 2);
        assert_eq!(faulty.epochs[1].start_sf, 5_000);
        assert_eq!(faulty.epochs[1].topology.n_hidden(), cfg.n_hts + 1);
        assert_eq!(faulty.epochs[0].topology.n_hidden(), cfg.n_hts);

        // Victims of the new HT lose measurable access share.
        let blocked_share = |lo: usize, hi: usize| {
            let rows = &faulty.trace.access.accessible[lo..hi];
            rows.iter().filter(|a| !a.contains(0)).count() as f64 / rows.len() as f64
        };
        let before = blocked_share(0, 5_000);
        let after = blocked_share(5_000, 10_000);
        assert!(
            after > before + 0.2,
            "client 0 blocked {before:.3} before vs {after:.3} after"
        );
    }

    #[test]
    fn disappearance_frees_its_victims() {
        // Build an explicit heavy blocker as HT 0 wouldn't be under
        // our control with a random topology — instead drive all six
        // random HTs silent and check access becomes universal.
        let cfg = quick_cfg();
        let script = FaultScript::new(
            (0..cfg.n_hts)
                .map(|k| FaultEvent {
                    at_subframe: 5_000,
                    kind: FaultKind::HtDisappear { ht: k },
                })
                .collect(),
        );
        let faulty = capture_with_faults(&cfg, &script, 14).unwrap();
        let all = ClientSet::all(cfg.n_ues);
        // Subframe 5000's CCA window still sees the tail of epoch-0
        // activity; from 5001 on the air is silent.
        assert!(faulty.trace.access.accessible[5_001..]
            .iter()
            .all(|&a| a == all));
    }

    #[test]
    fn capture_is_deterministic() {
        let cfg = quick_cfg();
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 2_500,
                kind: FaultKind::QDrift { ht: 1, q: 0.9 },
            },
            FaultEvent {
                at_subframe: 7_000,
                kind: FaultKind::EdgeChurn {
                    ht: 0,
                    toggle: ClientSet::from_iter([2, 3]),
                },
            },
        ]);
        let a = capture_with_faults(&cfg, &script, 15).unwrap();
        let b = capture_with_faults(&cfg, &script, 15).unwrap();
        assert_eq!(a, b);
        let c = capture_with_faults(&cfg, &script, 16).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn trace_schema_stays_valid_under_faults() {
        let cfg = quick_cfg();
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 1_000,
                kind: FaultKind::HtAppear {
                    q: 0.4,
                    edges: ClientSet::singleton(3),
                },
            },
            FaultEvent {
                at_subframe: 6_000,
                kind: FaultKind::HtDisappear { ht: 6 },
            },
            FaultEvent {
                at_subframe: 8_000,
                kind: FaultKind::MisclassifyRate { rate: 0.05 },
            },
        ]);
        let faulty = capture_with_faults(&cfg, &script, 17).unwrap();
        assert_eq!(faulty.trace.validate(), Ok(()));
        assert_eq!(faulty.trace.ground_truth.n_hidden(), cfg.n_hts + 1);
        // Observation faults do not create epochs.
        assert_eq!(faulty.epochs.len(), 3);
    }

    #[test]
    fn invalid_script_is_rejected() {
        let cfg = quick_cfg();
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 100,
            kind: FaultKind::QDrift { ht: 99, q: 0.5 },
        }]);
        assert!(capture_with_faults(&cfg, &script, 18).is_err());
    }
}
