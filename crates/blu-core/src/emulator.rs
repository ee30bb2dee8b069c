//! Trace-driven uplink emulation (paper §4.2).
//!
//! Replays a captured [`TestbedTrace`] through a scheduler at
//! sub-frame granularity, reproducing the paper's experiment setup:
//! TxOPs of 1 DL + 3 UL sub-frames, per-sub-frame CCA from the access
//! trace, orthogonal DMRS pilots, zero-forcing MU-MIMO decoding
//! against the CSI trace, MCS fixed at grant time (so deep fades
//! produce fading losses, not blocking), PF averaging of delivered
//! throughput, and the utilization/throughput accounting behind
//! Figs. 10–13 and 15–18.
//!
//! The sub-frame loop itself lives in
//! [`crate::engine::CellEngine`] — this module is the emulation
//! facade over it: [`Emulator::run`] is a back-to-back engine
//! segment, and [`Emulator::run_contended`] the same segment in LBT
//! [`AccessMode::Contended`] mode.

use crate::engine::{AccessMode, CellEngine, NullObserver};
use crate::error::BluError;
use crate::measure::OutcomeEstimator;
use crate::metrics::UplinkMetrics;
use crate::sched::UlScheduler;
use blu_phy::cell::CellConfig;
use blu_sim::rng::DetRng;
use blu_traces::schema::TestbedTrace;

/// Uplink traffic model (paper footnote 1: finite-buffer coupling is
/// a "simple extension" to the scheduler — realized here by zeroing
/// the rates of clients with empty queues and draining queues by
/// delivered bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Every client always has data (the paper's evaluation setting).
    Backlogged,
    /// Poisson arrivals of `burst_bits` chunks at `bursts_per_sec`
    /// per client, buffered until delivered.
    Poisson {
        /// Mean bursts per second per client.
        bursts_per_sec: f64,
        /// Bits per burst.
        burst_bits: f64,
    },
}

/// Emulation parameters.
#[derive(Debug, Clone)]
pub struct EmulationConfig {
    /// Cell configuration (antennas, RBs, TxOP shape, K, f).
    pub cell: CellConfig,
    /// Number of TxOPs to run.
    pub n_txops: u64,
    /// Link-adaptation margin subtracted from estimated SINR when
    /// picking the grant MCS (dB).
    pub mcs_margin_db: f64,
    /// Per-RB frequency-selectivity jitter amplitude (dB): adds
    /// deterministic per-(client, RB, coherence-block) variation so
    /// OFDMA has diversity to exploit.
    pub rb_jitter_db: f64,
    /// PF averaging window α (sub-frames).
    pub pf_alpha: f64,
    /// HARQ retransmission limit within a TxOP burst (0 disables
    /// HARQ; fading losses are then final). Chase combining per
    /// `blu_phy::harq`.
    pub harq_max_retx: u8,
    /// Uplink traffic model.
    pub traffic: TrafficModel,
    /// SISO NOMA reception: when two over-scheduled clients both
    /// transmit on one RB of a single-antenna eNB, attempt
    /// successive interference cancellation instead of declaring a
    /// collision (paper §5: BLU's gains apply to NOMA).
    pub noma_sic: bool,
    /// RNG seed (jitter derivation).
    pub seed: u64,
    /// Sub-frame at which the run starts reading the trace. Lets a
    /// segmented orchestrator (e.g. the robust loop's
    /// measure/speculate/fallback phases) resume mid-trace instead of
    /// replaying the same prefix.
    pub start_subframe: u64,
}

impl EmulationConfig {
    /// Defaults matching the paper's setup for a given cell config.
    pub fn new(cell: CellConfig) -> Self {
        EmulationConfig {
            cell,
            n_txops: 500,
            mcs_margin_db: 1.0,
            rb_jitter_db: 2.0,
            pf_alpha: 100.0,
            harq_max_retx: 0,
            traffic: TrafficModel::Backlogged,
            noma_sic: false,
            seed: 0x0B1E,
            start_subframe: 0,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct EmulationReport {
    /// Scheduler display name.
    pub scheduler: &'static str,
    /// Accumulated counters.
    pub metrics: UplinkMetrics,
    /// Wall-clock span of the run when TxOPs were acquired through
    /// LBT contention (`None` for the idealized back-to-back mode).
    pub wall_clock: Option<blu_sim::time::Micros>,
}

/// The emulator: the classic facade over one [`CellEngine`]. Owns its
/// engine (and therefore the PF state) and drives a scheduler over a
/// trace.
pub struct Emulator<'a> {
    engine: CellEngine<'a>,
}

impl<'a> Emulator<'a> {
    /// Create an emulator; validates the trace against the cell.
    pub fn new(trace: &'a TestbedTrace, config: EmulationConfig) -> Result<Self, BluError> {
        Ok(Emulator {
            engine: CellEngine::new(trace, config)?,
        })
    }

    /// Run the emulation. `estimator`, when provided, receives every
    /// sub-frame's observations (this is how the orchestrator keeps
    /// measuring during the speculative phase).
    pub fn run(
        &mut self,
        scheduler: &mut dyn UlScheduler,
        estimator: Option<&mut OutcomeEstimator>,
    ) -> EmulationReport {
        self.engine.run_segment(
            scheduler,
            estimator,
            AccessMode::BackToBack,
            &mut NullObserver,
        )
    }

    /// Run with **LBT contention**: instead of back-to-back TxOPs,
    /// the eNB acquires each TxOP through Cat-4 listen-before-talk
    /// against `enb_busy` — the union activity of the WiFi nodes it
    /// can sense. Sub-frame indices (and therefore the clients'
    /// interference state) follow the wall clock, so throughput can
    /// be reported per wall-clock second: the honest coexistence
    /// number for a loaded channel.
    pub fn run_contended(
        &mut self,
        scheduler: &mut dyn UlScheduler,
        estimator: Option<&mut OutcomeEstimator>,
        enb_busy: &blu_sim::medium::ActivityTimeline,
        lbt_rng: DetRng,
    ) -> EmulationReport {
        self.engine.run_segment(
            scheduler,
            estimator,
            AccessMode::Contended {
                busy: enb_busy,
                lbt_rng,
            },
            &mut NullObserver,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::TopologyAccess;
    use crate::sched::{AccessAwareScheduler, PfScheduler, SpeculativeScheduler};
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    fn small_cell() -> CellConfig {
        let mut c = CellConfig::testbed_siso();
        c.numerology.n_rbs = 10; // keep unit tests fast
        c
    }

    fn quick_trace(seed: u64) -> blu_traces::schema::TestbedTrace {
        capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(20),
                q_range: (0.3, 0.6),
                ..CaptureConfig::testbed_default()
            },
            seed,
        )
    }

    fn quick_config(n_txops: u64) -> EmulationConfig {
        let mut cfg = EmulationConfig::new(small_cell());
        cfg.n_txops = n_txops;
        cfg
    }

    #[test]
    fn pf_emulation_produces_sane_metrics() {
        let trace = quick_trace(1);
        let mut emu = Emulator::new(&trace, quick_config(200)).unwrap();
        let report = emu.run(&mut PfScheduler, None);
        let m = &report.metrics;
        assert_eq!(m.subframes, 600);
        assert!(m.rbs_scheduled > 0);
        assert!(m.rbs_utilized <= m.rbs_scheduled);
        assert!(m.bits_delivered > 0.0);
        assert!(m.rb_utilization() < 1.0, "hidden terminals must bite");
        assert!(m.rbs_blocked > 0, "blocking must occur");
    }

    #[test]
    fn blu_beats_pf_on_interference_heavy_trace() {
        // The headline claim at small scale: with ground-truth
        // topology, speculative scheduling delivers more throughput
        // and higher utilization than PF.
        let trace = quick_trace(2);
        let topo = trace.ground_truth.clone();
        let acc = TopologyAccess::new(&topo);

        let mut emu_pf = Emulator::new(&trace, quick_config(200)).unwrap();
        let pf = emu_pf.run(&mut PfScheduler, None);

        let mut emu_blu = Emulator::new(&trace, quick_config(200)).unwrap();
        let mut blu = SpeculativeScheduler::new(&acc);
        let blu_report = emu_blu.run(&mut blu, None);

        assert!(
            blu_report.metrics.rb_utilization() > pf.metrics.rb_utilization(),
            "BLU {} vs PF {}",
            blu_report.metrics.rb_utilization(),
            pf.metrics.rb_utilization()
        );
        assert!(
            blu_report.metrics.throughput_mbps() > pf.metrics.throughput_mbps(),
            "BLU {} vs PF {} Mbps",
            blu_report.metrics.throughput_mbps(),
            pf.metrics.throughput_mbps()
        );
    }

    #[test]
    fn aa_tracks_pf_without_boosting_utilization() {
        // The paper's observation: AA cannot compensate for
        // under-utilization during access (it never over-schedules).
        let trace = quick_trace(3);
        let p: Vec<f64> = (0..trace.ground_truth.n_clients)
            .map(|i| trace.ground_truth.p_individual(i))
            .collect();
        let mut emu = Emulator::new(&trace, quick_config(150)).unwrap();
        let aa = emu.run(&mut AccessAwareScheduler::new(p), None);
        let mut emu2 = Emulator::new(&trace, quick_config(150)).unwrap();
        let pf = emu2.run(&mut PfScheduler, None);
        let ratio = aa.metrics.rb_utilization() / pf.metrics.rb_utilization().max(1e-9);
        assert!(
            (0.6..1.4).contains(&ratio),
            "AA utilization ratio vs PF: {ratio}"
        );
    }

    #[test]
    fn estimator_receives_observations() {
        let trace = quick_trace(4);
        let mut est = OutcomeEstimator::new(trace.ground_truth.n_clients);
        let mut emu = Emulator::new(&trace, quick_config(100)).unwrap();
        emu.run(&mut PfScheduler, Some(&mut est));
        // Scheduled clients must have been observed, and the measured
        // access probability should be in the right region.
        let observed: Vec<usize> = (0..trace.ground_truth.n_clients)
            .filter(|&i| est.stats().p_individual(i).is_some())
            .collect();
        assert!(!observed.is_empty());
        for i in observed {
            let emp = est.stats().p_individual(i).unwrap();
            let truth = trace.ground_truth.p_individual(i);
            assert!(
                (emp - truth).abs() < 0.25,
                "client {i}: measured {emp} vs truth {truth}"
            );
        }
    }

    #[test]
    fn emulation_is_deterministic() {
        let trace = quick_trace(5);
        let mut a = Emulator::new(&trace, quick_config(50)).unwrap();
        let ra = a.run(&mut PfScheduler, None);
        let mut b = Emulator::new(&trace, quick_config(50)).unwrap();
        let rb = b.run(&mut PfScheduler, None);
        assert_eq!(ra.metrics, rb.metrics);
    }

    #[test]
    fn collisions_occur_only_with_overscheduling() {
        let trace = quick_trace(6);
        let mut emu = Emulator::new(&trace, quick_config(150)).unwrap();
        let pf = emu.run(&mut PfScheduler, None);
        assert_eq!(pf.metrics.rbs_collided, 0, "PF cannot collide (SISO)");
    }
}

#[cfg(test)]
mod contended_tests {
    use super::*;
    use crate::sched::PfScheduler;
    use blu_sim::medium::ActivityTimeline;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};
    use blu_wifi::onoff::OnOffSource;

    fn quick_trace(seed: u64) -> blu_traces::schema::TestbedTrace {
        capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(30),
                ..CaptureConfig::testbed_default()
            },
            seed,
        )
    }

    fn small_config(n_txops: u64) -> EmulationConfig {
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut cfg = EmulationConfig::new(cell);
        cfg.n_txops = n_txops;
        cfg
    }

    #[test]
    fn idle_channel_contention_is_nearly_free() {
        let trace = quick_trace(1);
        let mut emu = Emulator::new(&trace, small_config(200)).unwrap();
        let report = emu.run_contended(
            &mut PfScheduler,
            None,
            &ActivityTimeline::new(),
            DetRng::seed_from_u64(1),
        );
        let wall = report.wall_clock.unwrap();
        // 200 TxOPs × 4 sub-frames = 800 ms of airtime; LBT on an
        // idle channel adds ≤ ~1 sub-frame per TxOP.
        assert!(wall >= Micros::from_millis(800));
        assert!(wall <= Micros::from_millis(1_100), "wall {wall}");
        assert_eq!(report.metrics.subframes, 600);
    }

    #[test]
    fn busy_channel_stretches_wall_clock() {
        let trace = quick_trace(2);
        let mut rng = DetRng::seed_from_u64(3);
        // Heavily loaded neighbour the eNB must defer to: 85% duty
        // in 20 ms bursts.
        let busy =
            OnOffSource::with_duty_cycle(0.85, 20_000.0).generate(Micros::from_secs(600), &mut rng);
        let mut emu_idle = Emulator::new(&trace, small_config(150)).unwrap();
        let idle = emu_idle.run_contended(
            &mut PfScheduler,
            None,
            &ActivityTimeline::new(),
            DetRng::seed_from_u64(4),
        );
        let mut emu_busy = Emulator::new(&trace, small_config(150)).unwrap();
        let contended =
            emu_busy.run_contended(&mut PfScheduler, None, &busy, DetRng::seed_from_u64(4));
        let w_idle = idle.wall_clock.unwrap().as_u64();
        let w_busy = contended.wall_clock.unwrap().as_u64();
        // 85% duty in 20 ms bursts: each TxOP waits out the residual
        // burst (~20 ms) most of the time — wall clock several times
        // the idle-channel run.
        assert!(
            w_busy as f64 > w_idle as f64 * 2.0,
            "busy {w_busy} vs idle {w_idle}"
        );
        // Same number of TxOPs delivered, just later.
        assert_eq!(idle.metrics.subframes, contended.metrics.subframes);
    }

    #[test]
    fn contended_run_is_deterministic() {
        let trace = quick_trace(5);
        let mut rng = DetRng::seed_from_u64(7);
        let busy =
            OnOffSource::with_duty_cycle(0.3, 2_000.0).generate(Micros::from_secs(60), &mut rng);
        let mut a = Emulator::new(&trace, small_config(80)).unwrap();
        let ra = a.run_contended(&mut PfScheduler, None, &busy, DetRng::seed_from_u64(9));
        let mut b = Emulator::new(&trace, small_config(80)).unwrap();
        let rb = b.run_contended(&mut PfScheduler, None, &busy, DetRng::seed_from_u64(9));
        assert_eq!(ra.metrics, rb.metrics);
        assert_eq!(ra.wall_clock, rb.wall_clock);
    }
}

#[cfg(test)]
mod harq_tests {
    use super::*;
    use crate::sched::PfScheduler;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    /// Low SNR + aggressive MCS: HARQ must convert a chunk of fading
    /// losses into delivered bits without touching blocking losses.
    #[test]
    fn harq_recovers_fading_losses_only() {
        let trace = capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(30),
                snr_range_db: (7.0, 11.0),
                q_range: (0.3, 0.5),
                ..CaptureConfig::testbed_default()
            },
            11,
        );
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut base = EmulationConfig::new(cell);
        base.n_txops = 800;
        base.mcs_margin_db = -2.0;

        let off = Emulator::new(&trace, base.clone())
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        let mut cfg_on = base.clone();
        cfg_on.harq_max_retx = 3;
        let on = Emulator::new(&trace, cfg_on)
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;

        assert!(
            off.rbs_faded > 100,
            "need fading pressure: {}",
            off.rbs_faded
        );
        assert!(
            on.rbs_faded < off.rbs_faded,
            "HARQ should reduce fading losses: {} vs {}",
            on.rbs_faded,
            off.rbs_faded
        );
        assert!(on.bits_delivered > off.bits_delivered);
        // HARQ cannot help blocked grants (no energy to combine).
        let diff = (on.rbs_blocked as f64 - off.rbs_blocked as f64).abs();
        assert!(
            diff / (off.rbs_blocked.max(1) as f64) < 0.01,
            "blocking must be untouched: {} vs {}",
            on.rbs_blocked,
            off.rbs_blocked
        );
    }

    #[test]
    fn harq_is_deterministic_and_off_by_default() {
        let trace = capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(10),
                ..CaptureConfig::testbed_default()
            },
            12,
        );
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let cfg = EmulationConfig::new(cell);
        assert_eq!(cfg.harq_max_retx, 0);
        let mut cfg = cfg;
        cfg.n_txops = 100;
        cfg.harq_max_retx = 2;
        let a = Emulator::new(&trace, cfg.clone())
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        let b = Emulator::new(&trace, cfg)
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod traffic_tests {
    use super::*;
    use crate::sched::PfScheduler;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    fn quick_trace(seed: u64) -> blu_traces::schema::TestbedTrace {
        capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(20),
                q_range: (0.2, 0.4),
                ..CaptureConfig::testbed_default()
            },
            seed,
        )
    }

    fn cfg(n_txops: u64) -> EmulationConfig {
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut c = EmulationConfig::new(cell);
        c.n_txops = n_txops;
        c
    }

    #[test]
    fn light_load_caps_delivery_at_offered_traffic() {
        let trace = quick_trace(21);
        let mut light = cfg(2_000);
        // 50 bursts/s × 2 kbit = 100 kbit/s per UE, far below capacity.
        light.traffic = TrafficModel::Poisson {
            bursts_per_sec: 50.0,
            burst_bits: 2_000.0,
        };
        let m = Emulator::new(&trace, light)
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        let n = trace.ground_truth.n_clients as f64;
        // Arrivals accrue over all 4 TxOP sub-frames but throughput
        // is accounted per UL sub-frame (3 of 4): rescale.
        let offered_mbps = n * 50.0 * 2_000.0 / 1e6 * (4.0 / 3.0);
        let got = m.throughput_mbps();
        // Delivery cannot exceed offered load (plus queueing slack),
        // and under light load most of it should get through.
        assert!(got <= offered_mbps * 1.1, "{got} vs offered {offered_mbps}");
        assert!(got >= offered_mbps * 0.4, "{got} vs offered {offered_mbps}");
    }

    #[test]
    fn backlogged_delivers_more_than_finite_load() {
        let trace = quick_trace(22);
        let back = Emulator::new(&trace, cfg(500))
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        let mut finite = cfg(500);
        finite.traffic = TrafficModel::Poisson {
            bursts_per_sec: 20.0,
            burst_bits: 1_000.0,
        };
        let fin = Emulator::new(&trace, finite)
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        assert!(back.bits_delivered > fin.bits_delivered * 2.0);
    }

    #[test]
    fn empty_queues_release_grants() {
        // With tiny offered load, most sub-frames should have few or
        // no scheduled RBs (rates zeroed for empty queues).
        let trace = quick_trace(23);
        let mut c = cfg(500);
        c.traffic = TrafficModel::Poisson {
            bursts_per_sec: 2.0,
            burst_bits: 500.0,
        };
        let m = Emulator::new(&trace, c)
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        let full_allocation = m.subframes * 10;
        assert!(
            m.rbs_scheduled < full_allocation / 2,
            "{} of {} RBs scheduled despite near-empty queues",
            m.rbs_scheduled,
            full_allocation
        );
    }

    #[test]
    fn finite_buffer_is_deterministic() {
        let trace = quick_trace(24);
        let mut c = cfg(200);
        c.traffic = TrafficModel::Poisson {
            bursts_per_sec: 100.0,
            burst_bits: 3_000.0,
        };
        let a = Emulator::new(&trace, c.clone())
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        let b = Emulator::new(&trace, c)
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod noma_tests {
    use super::*;
    use crate::joint::TopologyAccess;
    use crate::sched::{PfScheduler, SpeculativeScheduler};
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    fn heavy_trace(seed: u64) -> blu_traces::schema::TestbedTrace {
        capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(30),
                q_range: (0.4, 0.65),
                // Wide SNR spread: power-domain separation is viable.
                snr_range_db: (8.0, 30.0),
                ..CaptureConfig::testbed_default()
            },
            seed,
        )
    }

    fn cfg(noma: bool) -> EmulationConfig {
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut c = EmulationConfig::new(cell);
        c.n_txops = 400;
        c.noma_sic = noma;
        c
    }

    #[test]
    fn sic_rescues_overscheduling_collisions() {
        let trace = heavy_trace(41);
        let acc = TopologyAccess::new(&trace.ground_truth);
        let plain = Emulator::new(&trace, cfg(false))
            .unwrap()
            .run(&mut SpeculativeScheduler::new(&acc), None)
            .metrics;
        let noma = Emulator::new(&trace, cfg(true))
            .unwrap()
            .run(&mut SpeculativeScheduler::new(&acc), None)
            .metrics;
        assert!(plain.rbs_collided > 20, "need collision pressure");
        assert!(
            noma.rbs_collided < plain.rbs_collided,
            "SIC should resolve some pile-ups: {} vs {}",
            noma.rbs_collided,
            plain.rbs_collided
        );
        assert!(noma.bits_delivered > plain.bits_delivered);
    }

    #[test]
    fn noma_is_noop_for_pf() {
        // PF never over-schedules, so SIC has nothing to rescue.
        let trace = heavy_trace(42);
        let a = Emulator::new(&trace, cfg(false))
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        let b = Emulator::new(&trace, cfg(true))
            .unwrap()
            .run(&mut PfScheduler, None)
            .metrics;
        assert_eq!(a, b);
    }

    #[test]
    fn noma_estimator_still_counts_collisions_as_access() {
        // Both SIC outcomes (Success or Collision) prove the client
        // transmitted — the access statistics stay unbiased.
        let trace = heavy_trace(43);
        let acc = TopologyAccess::new(&trace.ground_truth);
        let mut est = crate::measure::OutcomeEstimator::new(trace.ground_truth.n_clients);
        Emulator::new(&trace, cfg(true))
            .unwrap()
            .run(&mut SpeculativeScheduler::new(&acc), Some(&mut est));
        for i in 0..trace.ground_truth.n_clients {
            if let Some(p) = est.stats().p_individual(i) {
                let truth = trace.ground_truth.p_individual(i);
                assert!((p - truth).abs() < 0.15, "UE {i}: {p} vs {truth}");
            }
        }
    }
}
