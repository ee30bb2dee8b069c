//! Struct-of-arrays hot state for the sub-frame loop.
//!
//! [`CellEngine::run_segment`](crate::engine::CellEngine::run_segment)
//! used to recompute channel gains, per-RB jitter, linear powers and
//! grant-time rates from the trace on every call, and allocated fresh
//! `Vec`s per sub-frame (delivered bits, sendable caps, observations,
//! ZF channel/power vectors). This module carves that state out into
//! [`CellHotState`]:
//!
//! * **Block caches** ([`BlockCache`]) — every PHY quantity the loop
//!   derives from CSI is constant within one coherence block
//!   (`coherence_subframes` sub-frames, 50 in the testbed captures):
//!   per-UE pilot detectability and per-(UE, RB) linear power,
//!   rate-estimation SINR and grant-time rate live in contiguous
//!   arrays recomputed once per block. Two slots form a
//!   tiny LRU because decode needs the *current* block while
//!   grant-time MCS selection needs the *grant* sub-frame's block.
//!   The cache key is the **raw** coherence quotient `sf /
//!   coherence_subframes` — the RB-jitter hash uses it unwrapped,
//!   while the CSI lookup wraps it over the stored blocks, so the raw
//!   quotient is the only key under which both are constant.
//! * **Per-sub-frame buffers** — delivered/sendable vectors, the
//!   observation pool (recycled [`RbObservation`]s via
//!   `classify_rb_into`), ZF members/powers and the
//!   [`ZfScratch`] arena, and the per-TxOP HARQ lanes.
//!
//! The hot state is *pure cache*: every array is a deterministic
//! function of `(trace, config, block)`, and the kernels that consume
//! it replay the reference implementations' float operations in the
//! same order, so engine output is bit-identical to the pre-SoA loop
//! (pinned by `tests/engine_differential.rs`). Fleet callers move the
//! state between cells through [`EngineArena`] — one arena per
//! [`FleetEngine`](crate::engine::FleetEngine) shard — so the fleet
//! path stops allocating per sub-frame; adoption invalidates the
//! block caches (they are cell-specific) but keeps every buffer's
//! capacity.

use blu_phy::harq::HarqProcess;
use blu_phy::mcs::Cqi;
use blu_phy::mimo::ZfScratch;
use blu_phy::outcome::RbObservation;
use blu_sim::clientset::ClientSet;

/// Sentinel for an unfilled [`BlockCache`] slot (no real trace
/// reaches a raw coherence quotient of `u64::MAX`).
pub(crate) const INVALID_BLOCK: u64 = u64::MAX;

/// All coherence-block-periodic PHY quantities, in SoA layout.
#[derive(Debug, Clone)]
pub(crate) struct BlockCache {
    /// Raw coherence quotient this slot holds ([`INVALID_BLOCK`] =
    /// empty).
    pub block: u64,
    /// UEs whose pilot-domain SNR (`mean_snr_db + 10·log10(gain)`)
    /// clears the detection floor this block.
    pub pilot_ok: ClientSet,
    /// Per-(UE, RB) linear received power `10^((snr+jitter)/10)` mW,
    /// row-major `[ue·n_rbs + rb]`.
    pub power_mw: Vec<f64>,
    /// Per-(UE, RB) rate-estimation SINR in dB (jittered, margin
    /// applied), row-major.
    pub est_db: Vec<f64>,
    /// Per-(UE, RB) grant-time rate at `est_db`, row-major.
    pub rate: Vec<f64>,
    /// Grant-time CQI per (UE, RB, expected stream count), layout
    /// `(ue·n_rbs + rb)·m + (s − 1)` for `s ∈ 1..=m`: the MCS chosen
    /// at `est_db + pen_db[s]`. Block-constant, so the decode loop
    /// reads one element instead of scanning the CQI table per member
    /// per sub-frame.
    pub cqi: Vec<Cqi>,
    /// Transport-block bits at the corresponding `cqi` entry, same
    /// layout.
    pub bits: Vec<f64>,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache {
            block: INVALID_BLOCK,
            pilot_ok: ClientSet::EMPTY,
            power_mw: Vec::new(),
            est_db: Vec::new(),
            rate: Vec::new(),
            cqi: Vec::new(),
            bits: Vec::new(),
        }
    }
}

/// In-flight HARQ processes of one TxOP burst, stored as flat
/// per-(client, RB) lanes. Replaces the historical
/// `HashMap<(usize, usize), HarqProcess>`: the key space is the dense
/// `clients × RBs` grid, so a flat `Vec<Option<_>>` gives the same
/// semantics without hashing on every decode. Cleared per TxOP.
#[derive(Debug, Clone, Default)]
pub(crate) struct HarqLanes {
    slots: Vec<Option<HarqProcess>>,
    /// Row stride (`n_rbs`).
    stride: usize,
}

impl HarqLanes {
    /// Size the grid for a cell; drops residue when the shape changes.
    pub fn ensure(&mut self, n_clients: usize, n_rbs: usize) {
        let want = n_clients * n_rbs;
        if self.stride != n_rbs || self.slots.len() != want {
            self.stride = n_rbs;
            self.slots.clear();
            self.slots.resize(want, None);
        }
    }

    /// Abandon every in-flight process (start of a TxOP burst).
    pub fn clear(&mut self) {
        for s in self.slots.iter_mut() {
            *s = None;
        }
    }

    /// The process slot of one (client, RB) pair.
    #[inline]
    pub fn slot_mut(&mut self, ue: usize, rb: usize) -> &mut Option<HarqProcess> {
        &mut self.slots[ue * self.stride + rb]
    }
}

/// Per-RB decode scratch: block caches plus every buffer the ZF/HARQ
/// path used to allocate per call.
#[derive(Debug, Clone, Default)]
pub(crate) struct RbScratch {
    /// Two-slot LRU of block caches (decode block + grant block).
    pub blocks: [BlockCache; 2],
    /// Most-recently-used slot (the *other* one is evicted on miss).
    pub mru: usize,
    /// `pen_db[s] = 10·log10(mimo_penalty(s, m).max(1e-3))` for
    /// expected stream counts `s ∈ 1..=m` (index 0 unused). Depends
    /// only on the antenna count.
    pub pen_db: Vec<f64>,
    /// Transmitting members of the RB under decode, ascending.
    pub members: Vec<usize>,
    /// Their linear receive powers (gathered from the block cache).
    pub powers: Vec<f64>,
    /// ZF matrix arena.
    pub zf: ZfScratch,
    /// ZF output SINRs.
    pub zf_out: Vec<f64>,
    /// Per-member decode results before classification.
    pub results: Vec<(usize, Option<f64>)>,
    /// In-flight HARQ processes of the current TxOP burst.
    pub harq: HarqLanes,
}

impl RbScratch {
    /// Make sure the ZF-penalty LUT matches the antenna count.
    pub fn ensure_pen_db(&mut self, m: usize) {
        if self.pen_db.len() == m + 1 {
            return;
        }
        self.pen_db.clear();
        self.pen_db.push(0.0); // s = 0: never granted
        for s in 1..=m {
            let pen = crate::sched::mimo_penalty(s, m).max(1e-3);
            self.pen_db.push(10.0 * pen.log10());
        }
    }
}

/// The sub-frame loop's entire mutable scratch, SoA-organized. Owned
/// by a [`CellEngine`](crate::engine::CellEngine); moved between
/// cells via [`EngineArena`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CellHotState {
    /// Per-RB decode scratch (block caches, ZF arena, HARQ lanes).
    pub rb: RbScratch,
    /// Per-UE bits delivered this sub-frame.
    pub delivered: Vec<f64>,
    /// Per-UE queue-capped deliverable bits this sub-frame.
    pub sendable: Vec<f64>,
    /// Recycled observation pool; `observations[..n_obs]` is the
    /// current sub-frame's output.
    pub observations: Vec<RbObservation>,
    /// Observations live this sub-frame.
    pub n_obs: usize,
}

impl CellHotState {
    /// Drop all cell-specific cached values (block caches, penalty
    /// LUT, HARQ residue) while keeping every buffer's capacity.
    /// Called when the state moves to a different cell.
    pub fn invalidate(&mut self) {
        for b in &mut self.rb.blocks {
            b.block = INVALID_BLOCK;
        }
        self.rb.pen_db.clear();
        self.rb.harq.clear();
        self.n_obs = 0;
    }

    /// Grow the observation pool by one empty slot if needed and
    /// return the index of the next free slot.
    pub fn next_obs_index(&mut self) -> usize {
        if self.n_obs == self.observations.len() {
            self.observations.push(RbObservation {
                scheduled: ClientSet::EMPTY,
                outcomes: Vec::new(),
            });
        }
        let i = self.n_obs;
        self.n_obs += 1;
        i
    }
}

/// Per-shard engine scratch for fleet runs: one arena per
/// [`FleetEngine`](crate::engine::FleetEngine) shard keeps the SoA
/// hot state alive across the cells the shard processes, so steady
/// state allocates nothing per sub-frame. Adopting an arena into an
/// engine invalidates the block caches (they belong to the previous
/// cell) but keeps the capacity of every buffer.
#[derive(Debug, Default)]
pub struct EngineArena {
    pub(crate) hot: CellHotState,
    /// Solver buffers reused by every full solve and streaming refine
    /// of the cell (see [`InferStage`](crate::engine::InferStage)).
    pub(crate) infer: crate::blueprint::InferScratch,
}

impl EngineArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        EngineArena::default()
    }
}
