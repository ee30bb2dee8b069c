//! The per-cell sub-frame engine.
//!
//! [`CellEngine`] owns the paper's per-subframe sequencing — CCA from
//! the access trace, grant construction, DMRS pilot classification,
//! ZF (or NOMA-SIC) decode, HARQ soft-combining, and the PF/estimator
//! update — exactly once. The former `Emulator::run` and
//! `Emulator::run_contended` loops are the **same loop** here,
//! parameterized by [`AccessMode`]: back-to-back TxOPs replay the
//! trace directly, while contended TxOPs win the channel through
//! Cat-4 LBT first and follow the wall clock. Every sub-frame is also
//! streamed to a [`SubframeObserver`], which is how the robust
//! orchestrator taps the engine for estimator feeding and drift
//! detection without owning a loop of its own.
//!
//! The engine borrows its [`EmulationConfig`] (via [`Cow`]) so
//! segmented callers — the robust loop runs hundreds of short
//! segments per trace — never clone the config on the hot path.

use crate::emulator::{EmulationConfig, EmulationReport, TrafficModel};
use crate::engine::hot::{BlockCache, CellHotState, EngineArena, RbScratch};
use crate::engine::observer::{SubframeObserver, SubframeView};
use crate::error::BluError;
use crate::measure::OutcomeEstimator;
use crate::metrics::UplinkMetrics;
use crate::sched::{mimo_penalty, MatrixRates, PfAverager, SchedInput, UlScheduler};
use blu_phy::laa::{Lbt, LbtConfig};
use blu_phy::mcs::{Cqi, McsTable};
use blu_phy::mimo::zf_sinrs_into;
use blu_phy::outcome::{classify_rb_into, DecodeOutcome, RbObservation};
use blu_sim::clientset::ClientSet;
use blu_sim::medium::ActivityTimeline;
use blu_sim::power::Db;
use blu_sim::rng::DetRng;
use blu_sim::time::{Micros, SubframeIndex, SUBFRAME_US};
use blu_traces::schema::TestbedTrace;
use std::borrow::Cow;
use std::sync::OnceLock;

/// How the engine acquires TxOPs for a segment.
pub enum AccessMode<'m> {
    /// Idealized back-to-back TxOPs: the trace is replayed directly
    /// and traffic/HARQ/finite-buffer coupling are active.
    BackToBack,
    /// Cat-4 listen-before-talk against the union activity of the
    /// WiFi nodes the eNB can sense. Sub-frame indices follow the
    /// wall clock, so throughput is honest per wall-clock second.
    Contended {
        /// Sensed neighbour activity the eNB defers to.
        busy: &'m ActivityTimeline,
        /// Contention RNG (backoff draws).
        lbt_rng: DetRng,
    },
}

/// Deterministic per-(client, RB, block) frequency-selectivity jitter
/// in dB, zero-mean uniform in ±`amp`.
fn rb_jitter(seed: u64, ue: usize, rb: usize, block: u64, amp: f64) -> f64 {
    if amp == 0.0 {
        return 0.0;
    }
    let key = (ue as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rb as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(block.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(seed);
    let mut rng = DetRng::seed_from_u64(key);
    rng.range_f64(-amp, amp)
}

/// CQI rows of the Release-10 MCS table.
const RELEASE10_CQIS: usize = 15;

/// The Release-10 table's linear decode floors
/// ([`McsTable::linear_decode_floors`]), computed once per process.
/// The robust loop builds an engine for every short segment, and the
/// floors' bisection (64 `log10` steps per CQI row) would otherwise
/// run with each build. The floors live in static memory, not on the
/// heap: a block that lives as long as the process would pin the top
/// of the heap of whichever thread first built an engine (a daemon's
/// engine thread, say), and that heap could then never shrink.
fn release10_decode_floors() -> &'static [f64; RELEASE10_CQIS] {
    static FLOORS: OnceLock<[f64; RELEASE10_CQIS]> = OnceLock::new();
    FLOORS.get_or_init(|| {
        let floors = McsTable::release10().linear_decode_floors();
        floors
            .try_into()
            .expect("the Release-10 table has 15 CQI rows")
    })
}

/// The per-cell sub-frame engine: owns PF state and drives a
/// scheduler over a trace segment.
pub struct CellEngine<'a> {
    trace: &'a TestbedTrace,
    config: Cow<'a, EmulationConfig>,
    /// TxOPs this segment runs (defaults to `config.n_txops`).
    n_txops: u64,
    /// Trace sub-frame the segment starts at (defaults to
    /// `config.start_subframe`).
    start_subframe: u64,
    mcs: McsTable,
    /// Per-CQI decode floors in linear SINR, exact against `decodes`
    /// fed the `10·log10(max(·, 1e-12))` conversion (see
    /// [`McsTable::linear_decode_floors`]) — the hot decode compares
    /// in the linear domain and skips a `log10` per member.
    dec_floor_mw: &'static [f64],
    averager: PfAverager,
    /// Per-client buffered bits (finite-buffer mode only).
    queues: Vec<f64>,
    /// Arrival RNG (finite-buffer mode only).
    traffic_rng: DetRng,
    /// SoA hot state: coherence-block caches and every per-subframe
    /// buffer the loop recycles (see [`crate::engine::hot`]).
    hot: CellHotState,
}

impl<'a> CellEngine<'a> {
    /// Create an engine that owns its config; validates the trace
    /// against the cell.
    pub fn new(trace: &'a TestbedTrace, config: EmulationConfig) -> Result<Self, BluError> {
        Self::build(trace, Cow::Owned(config))
    }

    /// Create an engine that **borrows** its config — the zero-clone
    /// constructor for segmented callers.
    pub fn with_config(
        trace: &'a TestbedTrace,
        config: &'a EmulationConfig,
    ) -> Result<Self, BluError> {
        Self::build(trace, Cow::Borrowed(config))
    }

    fn build(trace: &'a TestbedTrace, config: Cow<'a, EmulationConfig>) -> Result<Self, BluError> {
        trace.validate().map_err(BluError::InvalidTrace)?;
        config.cell.validate()?;
        if trace.csi.n_antennas < config.cell.m_antennas {
            return Err(BluError::InvalidConfig(format!(
                "trace CSI has {} antennas but the cell needs {}",
                trace.csi.n_antennas, config.cell.m_antennas
            )));
        }
        let n = trace.ground_truth.n_clients;
        Ok(CellEngine {
            trace,
            averager: PfAverager::new(n, config.pf_alpha),
            mcs: McsTable::release10(),
            dec_floor_mw: release10_decode_floors(),
            queues: vec![0.0; n],
            traffic_rng: DetRng::seed_from_u64(config.seed ^ 0x007A_FF1C),
            n_txops: config.n_txops,
            start_subframe: config.start_subframe,
            hot: CellHotState::default(),
            config,
        })
    }

    /// Install hot-state buffers recycled from a fleet arena. The
    /// block caches are invalidated (they belong to whatever cell used
    /// the arena last) but every buffer keeps its capacity.
    pub(crate) fn adopt_hot(&mut self, mut hot: CellHotState) {
        hot.invalidate();
        self.hot = hot;
    }

    /// Hand the hot-state buffers back (to be returned to an arena).
    pub(crate) fn take_hot(&mut self) -> CellHotState {
        std::mem::take(&mut self.hot)
    }

    /// Adopt the recycled hot-state buffers of a fleet shard's
    /// [`EngineArena`]: the arena is emptied into this engine, block
    /// caches invalidated (they belong to whatever cell ran last),
    /// buffer capacities kept. Pair with
    /// [`CellEngine::yield_arena`] after the segment so the next cell
    /// on the shard inherits the buffers.
    pub fn adopt_arena(&mut self, arena: &mut EngineArena) {
        self.adopt_hot(std::mem::take(&mut arena.hot));
    }

    /// Return the hot-state buffers to a fleet shard's arena.
    pub fn yield_arena(&mut self, arena: &mut EngineArena) {
        arena.hot = self.take_hot();
    }

    /// Override the segment window (TxOP count and starting
    /// sub-frame) without touching the shared config.
    pub fn segment(mut self, n_txops: u64, start_subframe: u64) -> Self {
        self.n_txops = n_txops;
        self.start_subframe = start_subframe;
        self
    }

    /// The PF throughput averages accumulated so far (one per
    /// client).
    pub fn pf_averages(&self) -> &[f64] {
        &self.averager.avg
    }

    /// Seed the PF averages — used by segmented runs to carry
    /// fairness state from one segment into the next. Ignores a slice
    /// of the wrong length.
    pub fn seed_pf_averages(&mut self, avg: &[f64]) {
        if avg.len() == self.averager.avg.len() {
            self.averager.avg.copy_from_slice(avg);
        }
    }

    /// Advance the traffic model by one sub-frame (1 ms): new arrivals
    /// land in the queues. No-op when backlogged.
    fn traffic_tick(&mut self) {
        if let TrafficModel::Poisson {
            bursts_per_sec,
            burst_bits,
        } = self.config.traffic
        {
            let p_arrival = (bursts_per_sec / 1_000.0).min(1.0);
            for q in self.queues.iter_mut() {
                if self.traffic_rng.chance(p_arrival) {
                    *q += burst_bits;
                }
            }
        }
    }

    /// Whether a client currently has data to send.
    fn has_data(&self, ue: usize) -> bool {
        matches!(self.config.traffic, TrafficModel::Backlogged) || self.queues[ue] > 0.0
    }

    /// Drain a client's queue by delivered bits.
    fn drain(&mut self, ue: usize, bits: f64) {
        if !matches!(self.config.traffic, TrafficModel::Backlogged) {
            self.queues[ue] = (self.queues[ue] - bits).max(0.0);
        }
    }

    /// Scalar channel power gain of a client at a sub-frame (average
    /// over the eNB antennas, mean ≈ 1).
    fn channel_gain(&self, ue: usize, sf: SubframeIndex) -> f64 {
        let h = self.trace.csi.channel(ue, sf);
        let m = self.config.cell.m_antennas;
        h.iter().take(m).map(|c| c.norm_sq()).sum::<f64>() / m as f64
    }

    /// True single-stream SINR (dB) of a client on an RB at a
    /// sub-frame.
    fn true_sinr_db(&self, ue: usize, rb: usize, sf: SubframeIndex) -> f64 {
        let block = sf.0 / self.trace.csi.coherence_subframes;
        self.trace.mean_snr_db[ue]
            + 10.0 * self.channel_gain(ue, sf).max(1e-9).log10()
            + rb_jitter(self.config.seed, ue, rb, block, self.config.rb_jitter_db)
    }

    /// Locate the SoA block cache covering a sub-frame, filling a
    /// slot on miss. Returns the slot *index* so the decode path can
    /// borrow the current and the grant block simultaneously; two
    /// slots suffice because those are the only blocks live at once.
    fn block_slot(&self, s: &mut RbScratch, sf: SubframeIndex) -> usize {
        let raw = sf.0 / self.trace.csi.coherence_subframes;
        if s.blocks[0].block == raw {
            s.mru = 0;
            return 0;
        }
        if s.blocks[1].block == raw {
            s.mru = 1;
            return 1;
        }
        let slot = 1 - s.mru;
        self.fill_block(&mut s.blocks[slot], &s.pen_db, raw, sf);
        s.mru = slot;
        slot
    }

    /// Recompute one block's SoA lanes. Every expression replays the
    /// retired per-call path's float operations in the same order —
    /// `(mean + 10·log10(gain.max(1e-9))) + jitter` then `− margin` —
    /// so cached values are bit-identical to what the loop used to
    /// compute inline (the engine-differential goldens pin this). The
    /// grant-time CQI/bits lanes fold the per-stream-count ZF penalty
    /// (`pen_db`, from [`RbScratch::ensure_pen_db`]) into the table
    /// lookup once per block instead of once per decoded member.
    fn fill_block(
        &self,
        cache: &mut BlockCache,
        pen_db: &[f64],
        raw_block: u64,
        sf: SubframeIndex,
    ) {
        let n = self.trace.ground_truth.n_clients;
        let n_rbs = self.config.cell.numerology.n_rbs;
        let m = self.config.cell.m_antennas;
        debug_assert_eq!(pen_db.len(), m + 1, "ensure_pen_db must run first");
        cache.block = raw_block;
        cache.pilot_ok = ClientSet::EMPTY;
        cache.power_mw.clear();
        cache.est_db.clear();
        cache.rate.clear();
        cache.cqi.clear();
        cache.bits.clear();
        for ue in 0..n {
            let gain = self.channel_gain(ue, sf);
            let snr_base = self.trace.mean_snr_db[ue] + 10.0 * gain.max(1e-9).log10();
            if snr_base >= blu_phy::pilot::PILOT_DETECT_SINR_DB {
                cache.pilot_ok.insert(ue);
            }
            for rb in 0..n_rbs {
                let jit = rb_jitter(
                    self.config.seed,
                    ue,
                    rb,
                    raw_block,
                    self.config.rb_jitter_db,
                );
                cache
                    .power_mw
                    .push(10f64.powf((self.trace.mean_snr_db[ue] + jit) / 10.0));
                let est = snr_base + jit - self.config.mcs_margin_db;
                cache.est_db.push(est);
                cache.rate.push(
                    self.mcs
                        .rate_for_sinr(Db(est), &self.config.cell.numerology),
                );
                for &pen in &pen_db[1..=m] {
                    let cqi = self.mcs.cqi_for_sinr(Db(est + pen));
                    cache.cqi.push(cqi);
                    cache
                        .bits
                        .push(self.mcs.bits_per_rb(cqi, &self.config.cell.numerology));
                }
            }
        }
    }

    /// Grant-time MCS for a client on an RB given the group size the
    /// scheduler built (applies the expected ZF penalty).
    fn grant_cqi(&self, ue: usize, rb: usize, sf: SubframeIndex, group_size: usize) -> Cqi {
        let m = self.config.cell.m_antennas;
        let expected_streams = group_size.min(m);
        let pen = mimo_penalty(expected_streams, m).max(1e-3);
        let est = self.true_sinr_db(ue, rb, sf) - self.config.mcs_margin_db + 10.0 * pen.log10();
        self.mcs.cqi_for_sinr(Db(est))
    }

    /// Decode one RB at one sub-frame into a recycled observation:
    /// who transmitted, batched ZF SINRs from the arena kernel,
    /// per-client outcomes. With `use_harq`, the burst's in-flight
    /// processes (keyed by (client, RB)) live in the scratch and
    /// soft-combine across retransmissions.
    #[allow(clippy::too_many_arguments)]
    fn decode_rb_into(
        &self,
        s: &mut RbScratch,
        rb: usize,
        sf: SubframeIndex,
        group: ClientSet,
        accessible: ClientSet,
        grant_sf: SubframeIndex,
        use_harq: bool,
        out: &mut RbObservation,
    ) {
        let m = self.config.cell.m_antennas;
        let n_rbs = self.config.cell.numerology.n_rbs;
        // The cyclic-shift budget must accommodate the whole group
        // (guaranteed by CellConfig::validate's f·M ≤ 8 cap).
        debug_assert!(
            blu_phy::pilot::PilotAssignment::for_group(group).is_some(),
            "group exceeds orthogonal pilot budget"
        );
        let transmitting = group.intersection(accessible);
        let slot_sf = self.block_slot(s, sf);
        let slot_grant = self.block_slot(s, grant_sf);
        // DMRS pilot detection: cyclic shifts keep over-scheduled
        // pilots orthogonal, so each pilot's SINR is its single-stream
        // SNR (no inter-stream interference); detection fails only in
        // a very deep fade (below the −10 dB correlation floor). The
        // floor comparison is block-constant, so it collapses to an
        // intersection with the cached detectable set.
        let pilots = blu_phy::pilot::detect_pilots_cached(transmitting, s.blocks[slot_sf].pilot_ok);
        let transmitting = pilots.detected;
        if transmitting.len() > m {
            // SISO NOMA: a 2-stream pile-up may still be separable by
            // successive interference cancellation (rare path — kept
            // on the reference implementation).
            if self.config.noma_sic && m == 1 && transmitting.len() == 2 {
                *out = self.decode_rb_noma(rb, sf, group, transmitting, grant_sf);
                return;
            }
            classify_rb_into(group, transmitting, m, |_| None, out);
            return;
        }
        // Zero-forcing decode of ≤ M streams through the batched
        // arena kernel (bit-identical to the `zf_sinrs` reference).
        let RbScratch {
            blocks,
            members,
            powers,
            zf,
            zf_out,
            results,
            harq,
            ..
        } = s;
        members.clear();
        members.extend(transmitting.iter());
        let decode_block = &blocks[slot_sf];
        powers.clear();
        for &ue in members.iter() {
            powers.push(decode_block.power_mw[ue * n_rbs + rb]);
        }
        let trace = self.trace;
        let separable = zf_sinrs_into(
            |i| &trace.csi.channel(members[i], sf)[..m],
            members.len(),
            m,
            powers,
            1.0,
            zf,
            zf_out,
        );
        let group_size = group.len();
        let expected_streams = group_size.min(m);
        let grant_block = &blocks[slot_grant];
        // Pre-compute per-transmitter decode results (HARQ mutates
        // state, so this cannot live in the classify closure). The
        // grant MCS comes straight from the block cache's CQI/bits
        // lanes — the penalty for `expected_streams` was folded in at
        // block-fill time.
        results.clear();
        for (idx, &ue) in members.iter().enumerate() {
            let lane = (ue * n_rbs + rb) * m + (expected_streams - 1);
            let cqi = grant_block.cqi[lane];
            let realized_linear = if separable {
                zf_out[idx].max(0.0)
            } else {
                0.0 // rank-deficient channel: no usable energy
            };
            let bits = grant_block.bits[lane];
            let decoded = if !cqi.is_usable() {
                false
            } else if realized_linear >= self.dec_floor_mw[usize::from(cqi.0) - 1] {
                // Clean first-shot decode; drop any stale process.
                if use_harq {
                    *harq.slot_mut(ue, rb) = None;
                }
                true
            } else if use_harq {
                // Fading loss: soft-combine with the burst's pending
                // process (or open one).
                use blu_phy::harq::{HarqOutcome, HarqProcess};
                let slot = harq.slot_mut(ue, rb);
                match slot {
                    Some(p) => {
                        let outcome = p.receive_retransmission(realized_linear, &self.mcs);
                        match outcome {
                            HarqOutcome::Decoded => {
                                *slot = None;
                                true
                            }
                            HarqOutcome::Exhausted => {
                                *slot = None;
                                false
                            }
                            HarqOutcome::Pending => false,
                        }
                    }
                    None => {
                        *slot = Some(HarqProcess::new(
                            cqi,
                            realized_linear,
                            self.config.harq_max_retx,
                        ));
                        false
                    }
                }
            } else {
                false // fading loss, HARQ disabled
            };
            results.push((ue, if decoded { Some(bits) } else { None }));
        }
        classify_rb_into(
            group,
            transmitting,
            m,
            |ue| {
                results
                    .iter()
                    .find(|&&(u, _)| u == ue)
                    .and_then(|&(_, r)| r)
            },
            out,
        );
    }

    /// SIC decode of exactly two superposed SISO streams: outcomes are
    /// `Success` for decoded streams and `Collision` for the rest.
    fn decode_rb_noma(
        &self,
        rb: usize,
        sf: SubframeIndex,
        group: ClientSet,
        transmitting: ClientSet,
        grant_sf: SubframeIndex,
    ) -> RbObservation {
        let members: Vec<usize> = transmitting.iter().collect();
        let block = sf.0 / self.trace.csi.coherence_subframes;
        let powers: Vec<f64> = members
            .iter()
            .map(|&ue| {
                let jit = rb_jitter(self.config.seed, ue, rb, block, self.config.rb_jitter_db);
                10f64.powf((self.trace.mean_snr_db[ue] + jit) / 10.0)
                    * self.channel_gain(ue, sf).max(1e-9)
            })
            .collect();
        let group_size = group.len();
        let decoded = blu_phy::noma::sic_decode(&powers, 1.0, |idx, sinr| {
            let ue = members[idx];
            let cqi = self.grant_cqi(ue, rb, grant_sf, group_size);
            cqi.is_usable() && self.mcs.decodes(cqi, Db(10.0 * sinr.max(1e-12).log10()))
        });
        let outcomes = group
            .iter()
            .map(|ue| {
                let outcome = if !transmitting.contains(ue) {
                    DecodeOutcome::Blocked
                } else if let Some(idx) = members.iter().position(|&u| u == ue) {
                    if decoded.contains(&idx) {
                        let cqi = self.grant_cqi(ue, rb, grant_sf, group_size);
                        DecodeOutcome::Success {
                            bits: self.mcs.bits_per_rb(cqi, &self.config.cell.numerology),
                        }
                    } else {
                        DecodeOutcome::Collision
                    }
                } else {
                    DecodeOutcome::Collision
                };
                (ue, outcome)
            })
            .collect();
        RbObservation {
            scheduled: group,
            outcomes,
        }
    }

    /// Run one segment of the cell's sub-frame loop: CCA → grant →
    /// pilot classification → ZF decode → PF/estimator update, for
    /// `n_txops` TxOPs.
    ///
    /// `estimator`, when provided, receives every sub-frame's
    /// observations (how the orchestrator keeps measuring during the
    /// speculative phase). `observer` is called once per stage event;
    /// pass [`NullObserver`](crate::engine::NullObserver) to observe
    /// nothing at zero cost.
    ///
    /// The [`AccessMode`] branches preserve the historical loop
    /// semantics exactly: finite-buffer traffic arrivals, HARQ
    /// soft-combining, queue-capped transport blocks, full-utilization
    /// accounting and queue draining are back-to-back concerns, while
    /// the contended mode charges LBT waits to the wall clock and
    /// credits raw decoded bits.
    pub fn run_segment<O: SubframeObserver + ?Sized>(
        &mut self,
        scheduler: &mut dyn UlScheduler,
        mut estimator: Option<&mut OutcomeEstimator>,
        mode: AccessMode<'_>,
        observer: &mut O,
    ) -> EmulationReport {
        let n = self.trace.ground_truth.n_clients;
        let n_rbs = self.config.cell.numerology.n_rbs;
        let mut metrics = UplinkMetrics::new(n);
        // The SoA hot state moves out of `self` for the segment so the
        // loop can borrow its lanes while mutating the engine's own
        // state (queues, averager, RNGs).
        let mut hot = std::mem::take(&mut self.hot);
        hot.rb.ensure_pen_db(self.config.cell.m_antennas);
        hot.rb.harq.ensure(n, n_rbs);
        let mut lbt_state = match mode {
            AccessMode::Contended { busy, lbt_rng } => {
                Some((Lbt::new(LbtConfig::default(), lbt_rng), busy))
            }
            AccessMode::BackToBack => None,
        };
        let contended = lbt_state.is_some();
        let use_harq = !contended && self.config.harq_max_retx > 0;
        let mut now = Micros::ZERO;
        let mut sf = SubframeIndex(self.start_subframe);
        for txop in 0..self.n_txops {
            if let Some((lbt, busy)) = lbt_state.as_mut() {
                // Win the channel, then align to the next sub-frame
                // boundary (LTE transmissions start on boundaries; the
                // reservation-signal gap is charged to the TxOP).
                let acquired = lbt.acquire(busy, now);
                sf = SubframeIndex(acquired.as_u64().div_ceil(SUBFRAME_US));
            } else {
                // DL part of the TxOP (grants go out here); traffic
                // keeps arriving while the eNB transmits.
                for _ in 0..self.config.cell.txop.dl_subframes {
                    self.traffic_tick();
                }
            }
            sf = sf.advance(self.config.cell.txop.dl_subframes);
            let grant_sf = sf;
            observer.on_txop_start(txop, grant_sf);
            // One schedule per TxOP, reused over the UL burst (the
            // paper's 3-sub-frame grants). Grant-time rates come from
            // the grant block's cached SoA lane, gated per TxOP by
            // queue occupancy (footnote-1 coupling: clients with empty
            // buffers get rate 0 and are simply never granted).
            let slot_grant = self.block_slot(&mut hot.rb, grant_sf);
            let rates = {
                let grant_block = &hot.rb.blocks[slot_grant];
                MatrixRates::build(n, n_rbs, |ue, rb| {
                    if self.has_data(ue) {
                        grant_block.rate[ue * n_rbs + rb]
                    } else {
                        0.0
                    }
                })
            };
            let input = SchedInput {
                n_clients: n,
                n_rbs,
                m_antennas: self.config.cell.m_antennas,
                k_max: self.config.cell.max_ues_per_subframe,
                max_group: self.config.cell.max_group_size(),
                rates: &rates,
                avg_tput: &self.averager.avg,
            };
            let schedule = scheduler.schedule(&input);
            hot.rb.harq.clear();
            for _ in 0..self.config.cell.txop.ul_subframes {
                if !contended {
                    self.traffic_tick();
                }
                let accessible = self.trace.access.at(sf);
                hot.delivered.clear();
                hot.delivered.resize(n, 0.0);
                // Transport blocks only carry real payload: cap each
                // client's deliverable bits at its queue contents
                // (backlogged mode: unlimited). Contended runs credit
                // raw decoded bits and skip the finite-buffer cap.
                hot.sendable.clear();
                if !contended {
                    for ue in 0..n {
                        hot.sendable.push(
                            if matches!(self.config.traffic, TrafficModel::Backlogged) {
                                f64::INFINITY
                            } else {
                                self.queues[ue]
                            },
                        );
                    }
                }
                hot.n_obs = 0;
                let mut all_rbs_utilized = true;
                for rb in 0..n_rbs {
                    let group = schedule.group(rb);
                    if group.is_empty() {
                        all_rbs_utilized = false;
                        continue;
                    }
                    metrics.rbs_scheduled += 1;
                    let obs_i = hot.next_obs_index();
                    self.decode_rb_into(
                        &mut hot.rb,
                        rb,
                        sf,
                        group,
                        accessible,
                        grant_sf,
                        use_harq,
                        &mut hot.observations[obs_i],
                    );
                    let obs = &hot.observations[obs_i];
                    // Single pass over the outcomes: the raw
                    // delivered-bits sum (same ascending-client add
                    // order as `RbObservation::delivered_bits` — the
                    // skipped non-`Success` terms contribute exact
                    // zeros) fused with per-client crediting.
                    let mut bits = 0.0;
                    if contended {
                        for &(ue, outcome) in &obs.outcomes {
                            if let DecodeOutcome::Success { bits: b } = outcome {
                                bits += b;
                                hot.delivered[ue] += b;
                                metrics.bits_per_client[ue] += b;
                            }
                        }
                        metrics.bits_delivered += bits;
                    } else {
                        let mut credited_on_rb = 0.0;
                        for &(ue, outcome) in &obs.outcomes {
                            if let DecodeOutcome::Success { bits: b } = outcome {
                                bits += b;
                                let credited = b.min(hot.sendable[ue]);
                                hot.sendable[ue] -= credited;
                                hot.delivered[ue] += credited;
                                metrics.bits_per_client[ue] += credited;
                                credited_on_rb += credited;
                            }
                        }
                        metrics.bits_delivered += credited_on_rb;
                    }
                    if bits > 0.0 {
                        metrics.rbs_utilized += 1;
                    } else {
                        all_rbs_utilized = false;
                        if obs.collided() {
                            metrics.rbs_collided += 1;
                        } else if obs.transmitters().is_empty() {
                            metrics.rbs_blocked += 1;
                        } else {
                            metrics.rbs_faded += 1;
                        }
                    }
                }
                metrics.subframes += 1;
                if !contended && all_rbs_utilized && hot.n_obs > 0 {
                    metrics.fully_utilized_subframes += 1;
                }
                if let Some(est) = estimator.as_deref_mut() {
                    est.record_subframe(&hot.observations[..hot.n_obs]);
                }
                observer.on_subframe(&SubframeView {
                    sf,
                    observations: &hot.observations[..hot.n_obs],
                    delivered: &hot.delivered,
                });
                if !contended {
                    for ue in 0..n {
                        let bits = hot.delivered[ue];
                        if bits > 0.0 {
                            self.drain(ue, bits);
                        }
                    }
                }
                self.averager.update(&hot.delivered);
                sf = sf.next();
            }
            if let Some((lbt, _)) = lbt_state.as_mut() {
                now = sf.start();
                lbt.reset_cw();
            }
        }
        self.hot = hot;
        EmulationReport {
            scheduler: scheduler.name(),
            metrics,
            wall_clock: contended.then_some(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_decode_floors_equal_a_fresh_computation_bit_for_bit() {
        let floors = release10_decode_floors();
        let fresh_floors = McsTable::release10().linear_decode_floors();
        assert_eq!(floors.len(), fresh_floors.len());
        for (cached, fresh) in floors.iter().zip(&fresh_floors) {
            assert_eq!(cached.to_bits(), fresh.to_bits());
        }
    }
}
