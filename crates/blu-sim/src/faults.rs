//! Deterministic fault injection.
//!
//! The paper's robustness story (§3.7) hinges on LTE-U deployments
//! facing a *moving target*: WiFi hidden terminals appear, disappear,
//! change their offered load `q(k)`, and shift which clients they
//! impact; meanwhile the measurement channel itself is noisy (pilot
//! misclassification, lost outcome reports). This module provides the
//! scripted, seed-deterministic fault substrate those conditions are
//! injected through:
//!
//! * [`FaultKind`] — the catalogue of environment and observation
//!   faults;
//! * [`FaultScript`] — a validated, subframe-ordered list of
//!   [`FaultEvent`]s, serializable so experiments and the CLI can
//!   share scenario files;
//! * [`apply_topology_fault`] — the topology mutation hook used by
//!   trace capture to evolve the ground truth mid-run;
//! * [`ObservationChannel`] — the estimator-input corruption channel
//!   (bit-flip misclassification and dropped subframe reports), driven
//!   by a [`DetRng`] stream so runs remain exactly reproducible.
//!
//! Fault *application* lives next to the consumers: `blu-traces`
//! splices faulted epochs into access traces, and `blu-core`'s robust
//! orchestrator reads [`FaultScript::obs_state_at`] while recording
//! measurement outcomes.

use crate::clientset::ClientSet;
use crate::error::SimError;
use crate::rng::DetRng;
use crate::topology::{HiddenTerminal, InterferenceTopology};
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A new hidden terminal appears with duty cycle `q`, impacting
    /// the clients in `edges`. It is appended to the topology, so it
    /// receives the next free HT index.
    HtAppear {
        /// Stationary busy probability of the new terminal.
        q: f64,
        /// Clients whose CCA the new terminal blocks.
        edges: ClientSet,
    },
    /// Hidden terminal `ht` leaves the air. Its slot is kept (with
    /// `q = 0`) so later events can keep referring to stable indices.
    HtDisappear {
        /// Index of the terminal (in order of appearance).
        ht: usize,
    },
    /// Hidden terminal `ht`'s duty cycle drifts to a new value.
    QDrift {
        /// Index of the terminal (in order of appearance).
        ht: usize,
        /// New stationary busy probability.
        q: f64,
    },
    /// The client-impact edge set of `ht` churns: every client in
    /// `toggle` flips between impacted and unimpacted.
    EdgeChurn {
        /// Index of the terminal (in order of appearance).
        ht: usize,
        /// Clients whose edge to `ht` is toggled.
        toggle: ClientSet,
    },
    /// From this subframe on, each observed client's access outcome is
    /// misclassified (bit-flipped) independently with this rate.
    MisclassifyRate {
        /// Per-client flip probability in `[0, 1]`.
        rate: f64,
    },
    /// From this subframe on, entire subframe outcome reports are
    /// dropped (never reach the estimator) with this rate.
    DropRate {
        /// Per-subframe drop probability in `[0, 1]`.
        rate: f64,
    },
    /// From this subframe on, every blueprint inference takes `factor`
    /// times its normal wall-clock cost (the runtime re-executes the
    /// solve). Models a CPU-starved or thermally throttled cell;
    /// results are unchanged, only latency — which is exactly what
    /// deadline-bounded inference must absorb.
    InferenceStall {
        /// Wall-clock multiplier; `1` means no stall.
        factor: u32,
    },
    /// From this subframe on, every blueprint inference panics (when
    /// `active`). Models a latent solver bug on one cell; the runtime's
    /// `catch_unwind` isolation must contain it.
    InferencePanic {
        /// Whether the panic injector is armed.
        active: bool,
    },
    /// From this subframe on, each constraint target fed to inference
    /// is replaced with NaN with this rate. Models corrupted
    /// measurement statistics; the input-sanitization pass must
    /// quarantine poisoned targets rather than propagate NaN energies.
    StatPoison {
        /// Per-constraint poison probability in `[0, 1]`.
        rate: f64,
    },
    /// The whole cell task crashes (panics between orchestrator
    /// steps), losing its in-memory state. Unlike
    /// [`FaultKind::InferencePanic`] — which is contained *inside* the
    /// guarded inference call and routed to PF fallback — a crash
    /// escapes the cell's step entirely and is visible only to a
    /// supervision layer, which must restart the cell from its latest
    /// checkpoint. One-shot: fires the first time the cell's cursor
    /// reaches `at_subframe`; an event scheduled past the end of the
    /// trace never fires.
    CellCrash,
}

impl FaultKind {
    /// Whether this fault mutates the interference topology (and thus
    /// forces a new trace epoch), as opposed to corrupting the
    /// observation path only.
    pub fn is_topological(&self) -> bool {
        matches!(
            self,
            FaultKind::HtAppear { .. }
                | FaultKind::HtDisappear { .. }
                | FaultKind::QDrift { .. }
                | FaultKind::EdgeChurn { .. }
        )
    }
}

/// A fault scheduled at a subframe boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Subframe at whose start the fault takes effect.
    pub at_subframe: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Observation-path fault rates in force at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObsFaultState {
    /// Per-client access-outcome flip probability.
    pub misclassify_rate: f64,
    /// Per-subframe report drop probability.
    pub drop_rate: f64,
}

/// Inference-runtime fault knobs in force at some instant (step
/// function over [`FaultKind::InferenceStall`] /
/// [`FaultKind::InferencePanic`] / [`FaultKind::StatPoison`] events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeFaultState {
    /// Wall-clock multiplier for each inference (`1` = healthy).
    pub stall_factor: u32,
    /// Whether inference panics instead of returning.
    pub panic: bool,
    /// Per-constraint NaN-poison probability.
    pub poison_rate: f64,
}

impl Default for RuntimeFaultState {
    fn default() -> Self {
        RuntimeFaultState {
            stall_factor: 1,
            panic: false,
            poison_rate: 0.0,
        }
    }
}

impl RuntimeFaultState {}

/// A subframe-ordered fault scenario.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultScript {
    /// Events sorted by `at_subframe` (stable on ties).
    pub events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty (fault-free) script.
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Build a script, sorting events by subframe (stable on ties, so
    /// same-subframe events apply in authoring order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_subframe);
        FaultScript { events }
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many `HtAppear` events the script contains.
    pub fn n_appearing(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HtAppear { .. }))
            .count()
    }

    /// Validate against a cell of `n_clients` clients whose initial
    /// topology has `n_initial_hts` hidden terminals: indices must
    /// refer to terminals that exist by the time the event fires,
    /// probabilities and rates must be in `[0, 1]`, and edge sets must
    /// stay within the client population.
    pub fn validate(&self, n_clients: usize, n_initial_hts: usize) -> Result<(), SimError> {
        let all = ClientSet::all(n_clients);
        let mut universe = n_initial_hts;
        let mut sorted = true;
        for w in self.events.windows(2) {
            sorted &= w[0].at_subframe <= w[1].at_subframe;
        }
        if !sorted {
            return Err(SimError::InvalidConfig(
                "fault events not sorted by subframe (use FaultScript::new)".into(),
            ));
        }
        for ev in &self.events {
            match ev.kind {
                FaultKind::HtAppear { q, edges } => {
                    check_probability("HtAppear q", q)?;
                    if !edges.is_subset_of(all) {
                        return Err(SimError::InvalidConfig(format!(
                            "HtAppear edges {edges} outside client population {all}"
                        )));
                    }
                    if edges.is_empty() {
                        return Err(SimError::InvalidConfig(
                            "HtAppear with empty edge set has no observable effect".into(),
                        ));
                    }
                    universe += 1;
                }
                FaultKind::HtDisappear { ht } => check_ht_index(ht, universe)?,
                FaultKind::QDrift { ht, q } => {
                    check_ht_index(ht, universe)?;
                    check_probability("QDrift q", q)?;
                }
                FaultKind::EdgeChurn { ht, toggle } => {
                    check_ht_index(ht, universe)?;
                    if !toggle.is_subset_of(all) {
                        return Err(SimError::InvalidConfig(format!(
                            "EdgeChurn toggle {toggle} outside client population {all}"
                        )));
                    }
                }
                FaultKind::MisclassifyRate { rate } => check_probability("misclassify rate", rate)?,
                FaultKind::DropRate { rate } => check_probability("drop rate", rate)?,
                FaultKind::InferenceStall { factor } => {
                    if factor == 0 {
                        return Err(SimError::InvalidConfig(
                            "InferenceStall factor must be >= 1 (1 = no stall)".into(),
                        ));
                    }
                }
                FaultKind::InferencePanic { .. } => {}
                FaultKind::StatPoison { rate } => check_probability("stat poison rate", rate)?,
                FaultKind::CellCrash => {}
            }
        }
        Ok(())
    }

    /// The distinct subframes at which topology-mutating events fire,
    /// ascending.
    pub fn topology_event_subframes(&self) -> Vec<u64> {
        let mut sfs: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.kind.is_topological())
            .map(|e| e.at_subframe)
            .collect();
        sfs.dedup();
        sfs
    }

    /// Topology-mutating events firing exactly at `sf`, in order.
    pub fn topology_events_at(&self, sf: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.kind.is_topological() && e.at_subframe == sf)
    }

    /// The observation-fault rates in force at subframe `sf` (step
    /// function over the scripted rate changes).
    pub fn obs_state_at(&self, sf: u64) -> ObsFaultState {
        let mut state = ObsFaultState::default();
        for ev in &self.events {
            if ev.at_subframe > sf {
                break;
            }
            match ev.kind {
                FaultKind::MisclassifyRate { rate } => state.misclassify_rate = rate,
                FaultKind::DropRate { rate } => state.drop_rate = rate,
                _ => {}
            }
        }
        state
    }

    /// The inference-runtime fault knobs in force at subframe `sf`
    /// (step function over the scripted changes, like
    /// [`obs_state_at`](Self::obs_state_at)).
    pub fn runtime_state_at(&self, sf: u64) -> RuntimeFaultState {
        let mut state = RuntimeFaultState::default();
        for ev in &self.events {
            if ev.at_subframe > sf {
                break;
            }
            match ev.kind {
                FaultKind::InferenceStall { factor } => state.stall_factor = factor.max(1),
                FaultKind::InferencePanic { active } => state.panic = active,
                FaultKind::StatPoison { rate } => state.poison_rate = rate,
                _ => {}
            }
        }
        state
    }

    /// The subframes at which [`FaultKind::CellCrash`] events fire,
    /// ascending. Duplicates are kept — each event is one crash, so a
    /// crash *storm* is simply several events.
    pub fn crash_subframes(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::CellCrash))
            .map(|e| e.at_subframe)
            .collect()
    }

    /// Whether the script ever crashes the cell task itself.
    pub fn has_crash_faults(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CellCrash))
    }
}

fn check_probability(what: &'static str, p: f64) -> Result<(), SimError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(SimError::InvalidProbability { what, value: p })
    }
}

fn check_ht_index(ht: usize, universe: usize) -> Result<(), SimError> {
    if ht < universe {
        Ok(())
    } else {
        Err(SimError::IndexOutOfRange {
            what: "fault hidden-terminal",
            index: ht,
            bound: universe,
        })
    }
}

/// Apply one topology-mutating fault to `topo` in place. Returns
/// `Ok(true)` if the topology changed, `Ok(false)` for
/// observation-path faults (which leave it untouched).
pub fn apply_topology_fault(
    topo: &mut InterferenceTopology,
    kind: &FaultKind,
) -> Result<bool, SimError> {
    let all = ClientSet::all(topo.n_clients);
    match *kind {
        FaultKind::HtAppear { q, edges } => {
            check_probability("HtAppear q", q)?;
            if !edges.is_subset_of(all) {
                return Err(SimError::InvalidConfig(format!(
                    "HtAppear edges {edges} outside client population {all}"
                )));
            }
            topo.hts.push(HiddenTerminal { q, edges });
            Ok(true)
        }
        FaultKind::HtDisappear { ht } => {
            check_ht_index(ht, topo.hts.len())?;
            // Keep the slot so indices (and activity-timeline lanes)
            // stay stable; q = 0 means "never on the air".
            topo.hts[ht].q = 0.0;
            Ok(true)
        }
        FaultKind::QDrift { ht, q } => {
            check_ht_index(ht, topo.hts.len())?;
            check_probability("QDrift q", q)?;
            topo.hts[ht].q = q;
            Ok(true)
        }
        FaultKind::EdgeChurn { ht, toggle } => {
            check_ht_index(ht, topo.hts.len())?;
            if !toggle.is_subset_of(all) {
                return Err(SimError::InvalidConfig(format!(
                    "EdgeChurn toggle {toggle} outside client population {all}"
                )));
            }
            let e = topo.hts[ht].edges;
            topo.hts[ht].edges = ClientSet(e.0 ^ toggle.0);
            Ok(true)
        }
        FaultKind::MisclassifyRate { .. }
        | FaultKind::DropRate { .. }
        | FaultKind::InferenceStall { .. }
        | FaultKind::InferencePanic { .. }
        | FaultKind::StatPoison { .. }
        | FaultKind::CellCrash => Ok(false),
    }
}

/// The observation corruption channel: everything between the PHY's
/// true CCA outcome and the estimator's books. Deterministic given
/// its RNG stream; serializable so checkpoint/restore can freeze the
/// stream mid-run and resume bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationChannel {
    rng: DetRng,
}

impl ObservationChannel {
    /// Build from a dedicated RNG stream.
    pub fn new(rng: DetRng) -> Self {
        ObservationChannel { rng }
    }

    /// Pass one subframe report `(observed, accessible)` through the
    /// channel under fault state `state`. Returns `None` when the
    /// whole report is dropped; otherwise the (possibly bit-flipped)
    /// report. The observed set is never altered — only what the eNB
    /// *concludes* about each observed client's access.
    pub fn corrupt(
        &mut self,
        state: ObsFaultState,
        observed: ClientSet,
        accessible: ClientSet,
    ) -> Option<(ClientSet, ClientSet)> {
        if state.drop_rate > 0.0 && self.rng.chance(state.drop_rate) {
            return None;
        }
        let mut acc = accessible;
        if state.misclassify_rate > 0.0 {
            for ue in observed.iter() {
                if self.rng.chance(state.misclassify_rate) {
                    acc = ClientSet(acc.0 ^ (1u128 << ue));
                }
            }
        }
        Some((observed, acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_topo() -> InterferenceTopology {
        InterferenceTopology {
            n_clients: 4,
            hts: vec![
                HiddenTerminal {
                    q: 0.3,
                    edges: ClientSet::from_iter([0, 1]),
                },
                HiddenTerminal {
                    q: 0.5,
                    edges: ClientSet::singleton(2),
                },
            ],
        }
    }

    #[test]
    fn script_sorts_and_validates() {
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 500,
                kind: FaultKind::QDrift { ht: 0, q: 0.8 },
            },
            FaultEvent {
                at_subframe: 100,
                kind: FaultKind::MisclassifyRate { rate: 0.05 },
            },
        ]);
        assert_eq!(script.events[0].at_subframe, 100);
        assert_eq!(script.validate(4, 2), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_events() {
        let bad_q = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::QDrift { ht: 0, q: 1.5 },
        }]);
        assert!(bad_q.validate(4, 2).is_err());

        let bad_index = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::HtDisappear { ht: 2 },
        }]);
        assert!(bad_index.validate(4, 2).is_err());

        let bad_edges = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::HtAppear {
                q: 0.4,
                edges: ClientSet::singleton(7),
            },
        }]);
        assert!(bad_edges.validate(4, 2).is_err());
    }

    #[test]
    fn appearance_extends_the_index_universe() {
        // Index 2 only exists because the appearance precedes it.
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 100,
                kind: FaultKind::HtAppear {
                    q: 0.4,
                    edges: ClientSet::singleton(0),
                },
            },
            FaultEvent {
                at_subframe: 200,
                kind: FaultKind::HtDisappear { ht: 2 },
            },
        ]);
        assert_eq!(script.validate(4, 2), Ok(()));
        // Reversed order: index 2 referenced before it exists.
        let early = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 50,
                kind: FaultKind::HtDisappear { ht: 2 },
            },
            FaultEvent {
                at_subframe: 100,
                kind: FaultKind::HtAppear {
                    q: 0.4,
                    edges: ClientSet::singleton(0),
                },
            },
        ]);
        assert!(early.validate(4, 2).is_err());
    }

    #[test]
    fn topology_faults_mutate_in_place() {
        let mut topo = base_topo();
        apply_topology_fault(
            &mut topo,
            &FaultKind::HtAppear {
                q: 0.6,
                edges: ClientSet::from_iter([1, 3]),
            },
        )
        .unwrap();
        assert_eq!(topo.n_hidden(), 3);
        assert_eq!(topo.hts[2].q, 0.6);

        apply_topology_fault(&mut topo, &FaultKind::QDrift { ht: 0, q: 0.9 }).unwrap();
        assert_eq!(topo.hts[0].q, 0.9);

        apply_topology_fault(
            &mut topo,
            &FaultKind::EdgeChurn {
                ht: 1,
                toggle: ClientSet::from_iter([2, 3]),
            },
        )
        .unwrap();
        assert_eq!(topo.hts[1].edges, ClientSet::singleton(3));

        apply_topology_fault(&mut topo, &FaultKind::HtDisappear { ht: 2 }).unwrap();
        assert_eq!(topo.n_hidden(), 3, "slot kept for index stability");
        assert_eq!(topo.hts[2].q, 0.0);
    }

    #[test]
    fn observation_faults_leave_topology_alone() {
        let mut topo = base_topo();
        let before = topo.clone();
        let changed =
            apply_topology_fault(&mut topo, &FaultKind::MisclassifyRate { rate: 0.1 }).unwrap();
        assert!(!changed);
        assert_eq!(topo, before);
    }

    #[test]
    fn obs_state_is_a_step_function() {
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 100,
                kind: FaultKind::MisclassifyRate { rate: 0.05 },
            },
            FaultEvent {
                at_subframe: 300,
                kind: FaultKind::DropRate { rate: 0.2 },
            },
            FaultEvent {
                at_subframe: 500,
                kind: FaultKind::MisclassifyRate { rate: 0.0 },
            },
        ]);
        assert_eq!(script.obs_state_at(0), ObsFaultState::default());
        assert_eq!(script.obs_state_at(100).misclassify_rate, 0.05);
        assert_eq!(script.obs_state_at(299).drop_rate, 0.0);
        let mid = script.obs_state_at(400);
        assert_eq!(mid.misclassify_rate, 0.05);
        assert_eq!(mid.drop_rate, 0.2);
        let late = script.obs_state_at(9_999);
        assert_eq!(late.misclassify_rate, 0.0);
        assert_eq!(late.drop_rate, 0.2);
    }

    #[test]
    fn channel_is_deterministic_and_bounded() {
        let state = ObsFaultState {
            misclassify_rate: 0.5,
            drop_rate: 0.25,
        };
        let observed = ClientSet::from_iter([0, 1, 2, 3]);
        let accessible = ClientSet::from_iter([0, 2]);
        let mut a = ObservationChannel::new(DetRng::seed_from_u64(9));
        let mut b = ObservationChannel::new(DetRng::seed_from_u64(9));
        let mut dropped = 0;
        for _ in 0..2_000 {
            let ra = a.corrupt(state, observed, accessible);
            let rb = b.corrupt(state, observed, accessible);
            assert_eq!(ra, rb, "channel must be replayable");
            match ra {
                None => dropped += 1,
                Some((obs, _)) => assert_eq!(obs, observed, "observed set never altered"),
            }
        }
        // ~25% of 2000 reports dropped; loose deterministic bound.
        assert!((300..=700).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn clean_channel_is_transparent() {
        let mut ch = ObservationChannel::new(DetRng::seed_from_u64(1));
        let observed = ClientSet::from_iter([0, 3]);
        let accessible = ClientSet::singleton(3);
        for _ in 0..100 {
            assert_eq!(
                ch.corrupt(ObsFaultState::default(), observed, accessible),
                Some((observed, accessible))
            );
        }
    }

    #[test]
    fn misclassification_flips_both_ways() {
        // With rate 1.0 every observed client's bit flips exactly.
        let state = ObsFaultState {
            misclassify_rate: 1.0,
            drop_rate: 0.0,
        };
        let mut ch = ObservationChannel::new(DetRng::seed_from_u64(3));
        let observed = ClientSet::from_iter([0, 1]);
        let accessible = ClientSet::singleton(0);
        let (_, acc) = ch.corrupt(state, observed, accessible).unwrap();
        assert_eq!(acc, ClientSet::singleton(1));
    }

    #[test]
    fn runtime_state_is_a_step_function() {
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 100,
                kind: FaultKind::InferenceStall { factor: 10 },
            },
            FaultEvent {
                at_subframe: 300,
                kind: FaultKind::InferencePanic { active: true },
            },
            FaultEvent {
                at_subframe: 500,
                kind: FaultKind::StatPoison { rate: 0.5 },
            },
            FaultEvent {
                at_subframe: 700,
                kind: FaultKind::InferencePanic { active: false },
            },
        ]);
        assert_eq!(script.runtime_state_at(0), RuntimeFaultState::default());
        assert_eq!(script.runtime_state_at(99), RuntimeFaultState::default());
        assert_eq!(script.runtime_state_at(100).stall_factor, 10);
        assert!(!script.runtime_state_at(299).panic);
        assert!(script.runtime_state_at(300).panic);
        let mid = script.runtime_state_at(600);
        assert!(mid.panic && mid.stall_factor == 10 && mid.poison_rate == 0.5);
        let late = script.runtime_state_at(9_999);
        assert!(!late.panic, "panic disarmed at 700");
        assert_eq!(late.stall_factor, 10);
    }

    #[test]
    fn runtime_faults_validate_and_stay_non_topological() {
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 0,
                kind: FaultKind::InferenceStall { factor: 10 },
            },
            FaultEvent {
                at_subframe: 0,
                kind: FaultKind::InferencePanic { active: true },
            },
            FaultEvent {
                at_subframe: 0,
                kind: FaultKind::StatPoison { rate: 0.25 },
            },
        ]);
        assert_eq!(script.validate(4, 2), Ok(()));
        assert!(script.topology_event_subframes().is_empty());
        for ev in &script.events {
            assert!(!ev.kind.is_topological());
            let mut topo = base_topo();
            let before = topo.clone();
            assert!(!apply_topology_fault(&mut topo, &ev.kind).unwrap());
            assert_eq!(topo, before);
        }

        let zero_stall = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::InferenceStall { factor: 0 },
        }]);
        assert!(zero_stall.validate(4, 2).is_err());

        let bad_poison = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::StatPoison { rate: f64::NAN },
        }]);
        assert!(bad_poison.validate(4, 2).is_err());
    }

    #[test]
    fn cell_crash_is_non_topological_and_enumerable() {
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 9_000,
                kind: FaultKind::CellCrash,
            },
            FaultEvent {
                at_subframe: 3_000,
                kind: FaultKind::CellCrash,
            },
            FaultEvent {
                at_subframe: 100,
                kind: FaultKind::MisclassifyRate { rate: 0.05 },
            },
        ]);
        assert_eq!(script.validate(4, 2), Ok(()));
        assert!(script.has_crash_faults());
        assert_eq!(script.crash_subframes(), vec![3_000, 9_000]);
        // A crash never perturbs the captured air or the runtime
        // fault knobs — it is strictly a process-level event.
        assert!(!FaultKind::CellCrash.is_topological());
        assert!(script.topology_event_subframes().is_empty());
        assert_eq!(
            script.runtime_state_at(10_000),
            RuntimeFaultState::default()
        );
        let mut topo = base_topo();
        let before = topo.clone();
        assert!(!apply_topology_fault(&mut topo, &FaultKind::CellCrash).unwrap());
        assert_eq!(topo, before);
        // And it round-trips through serde like every other kind.
        let json = serde_json::to_string(&script).unwrap();
        let back: FaultScript = serde_json::from_str(&json).unwrap();
        assert_eq!(back, script);

        assert!(!FaultScript::none().has_crash_faults());
        assert!(FaultScript::none().crash_subframes().is_empty());
    }

    #[test]
    fn rng_and_channel_round_trip_through_serde() {
        // Freeze a channel mid-stream, thaw it, and check both copies
        // continue identically — the property checkpoint/restore
        // leans on.
        let state = ObsFaultState {
            misclassify_rate: 0.3,
            drop_rate: 0.1,
        };
        let observed = ClientSet::from_iter([0, 1, 2]);
        let accessible = ClientSet::from_iter([0, 2]);
        let mut ch = ObservationChannel::new(DetRng::seed_from_u64(77));
        for _ in 0..57 {
            ch.corrupt(state, observed, accessible);
        }
        let json = serde_json::to_string(&ch).unwrap();
        let mut thawed: ObservationChannel = serde_json::from_str(&json).unwrap();
        assert_eq!(thawed, ch);
        for _ in 0..200 {
            assert_eq!(
                thawed.corrupt(state, observed, accessible),
                ch.corrupt(state, observed, accessible)
            );
        }

        // Same for a bare DetRng with a cached Gaussian spare.
        let mut rng = DetRng::seed_from_u64(5);
        let _ = rng.gaussian(); // populates gauss_spare
        let json = serde_json::to_string(&rng).unwrap();
        let mut thawed: DetRng = serde_json::from_str(&json).unwrap();
        assert_eq!(thawed, rng);
        assert_eq!(thawed.gaussian(), rng.gaussian());
        assert_eq!(thawed.f64(), rng.f64());
    }

    #[test]
    fn script_round_trips_through_serde() {
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 42,
                kind: FaultKind::HtAppear {
                    q: 0.45,
                    edges: ClientSet::from_iter([0, 1]),
                },
            },
            FaultEvent {
                at_subframe: 42,
                kind: FaultKind::DropRate { rate: 0.1 },
            },
        ]);
        let json = serde_json::to_string(&script).unwrap();
        let back: FaultScript = serde_json::from_str(&json).unwrap();
        assert_eq!(back, script);
    }
}
