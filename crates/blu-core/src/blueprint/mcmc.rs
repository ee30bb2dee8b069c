//! MCMC baseline for topology inference.
//!
//! The paper (§3.4) reports having applied Markov-Chain Monte Carlo
//! before designing the deterministic repair: the topology is adapted
//! by random proposals and accepted by Metropolis–Hastings against a
//! likelihood that decays with constraint violation, with simulated
//! annealing. It converges *in distribution*, needs a sample to be
//! drawn for real-time use, and is slower — which is exactly what the
//! ablation bench demonstrates. Kept as a faithful baseline.
//!
//! ## Incremental energy
//!
//! The energy is `total_violation + ht_penalty · |HTs|`. Every
//! proposal edits exactly one hidden terminal, so its energy delta
//! only involves the constraints that terminal touches — the chain
//! therefore maintains a [`ResidualTracker`] and evaluates proposals
//! with `shift_cost`/`edge_change_cost` in O(constraints touched)
//! instead of recomputing `ConstraintSystem::total_violation` over
//! every individual/pair/triple constraint on all 20k steps. The
//! Metropolis accept test uses the delta directly:
//! `ΔE ≤ 0 or U < exp(−ΔE/T)`.
//!
//! [`infer_mcmc_scratch`] keeps the pre-fast-path behavior alive —
//! clone the state, apply the proposal, recompute the full energy —
//! drawing the *identical* proposal/acceptance RNG stream, so the
//! differential tests below can pin that both chains visit the same
//! states and return bit-identical topologies, and `perf_infer` can
//! measure the speedup against it.
//!
//! [`ResidualTracker`]: crate::blueprint::residual::ResidualTracker

use crate::blueprint::constraints::{ConstraintSystem, TransformedHt, TransformedTopology};
use crate::blueprint::infer::{InferenceConfig, InferenceResult};
use crate::blueprint::residual::ResidualTracker;
use crate::error::BluError;
use crate::runtime::deadline::Deadline;
use blu_sim::clientset::ClientSet;
use blu_sim::rng::DetRng;
use blu_sim::topology::InterferenceTopology;

/// MCMC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McmcConfig {
    /// Number of proposal steps.
    pub steps: usize,
    /// Initial temperature (violation units).
    pub t_start: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Maximum hidden terminals the chain may hold.
    pub max_hts: usize,
    /// Penalty per hidden terminal (Occam prior).
    pub ht_penalty: f64,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig {
            steps: 20_000,
            t_start: 1.0,
            t_end: 0.005,
            max_hts: 64,
            ht_penalty: 0.01,
        }
    }
}

impl McmcConfig {
    /// Reject configurations that would make the chain degenerate
    /// instead of letting them surface as NaN temperatures or a
    /// silently empty run 20k subframes later.
    pub fn validate(&self) -> Result<(), BluError> {
        if self.steps == 0 {
            return Err(BluError::InvalidConfig("mcmc steps must be > 0".into()));
        }
        if !self.t_start.is_finite() || !self.t_end.is_finite() {
            return Err(BluError::InvalidConfig(
                "mcmc temperatures must be finite".into(),
            ));
        }
        if !(self.t_end > 0.0 && self.t_start >= self.t_end) {
            return Err(BluError::InvalidConfig(format!(
                "mcmc annealing needs t_start >= t_end > 0 (got t_start={}, t_end={})",
                self.t_start, self.t_end
            )));
        }
        if self.max_hts == 0 {
            return Err(BluError::InvalidConfig("mcmc max_hts must be > 0".into()));
        }
        if !(self.ht_penalty.is_finite() && self.ht_penalty >= 0.0) {
            return Err(BluError::InvalidConfig(format!(
                "mcmc ht_penalty must be finite and >= 0 (got {})",
                self.ht_penalty
            )));
        }
        Ok(())
    }
}

/// Result of an MCMC run.
#[derive(Debug, Clone)]
pub struct McmcResult {
    /// Best-scoring topology visited.
    pub topology: InterferenceTopology,
    /// Its total violation.
    pub violation: f64,
    /// Steps accepted.
    pub accepted: usize,
    /// Proposal steps actually executed (equals `config.steps` unless
    /// a deadline cut the chain short).
    pub steps_done: usize,
    /// Whether the chain ran its full proposal budget.
    pub completed: bool,
}

/// One Metropolis proposal. `Stay` stands in for draw outcomes the
/// legacy chain treated as no-ops (add when full, remove/toggle/
/// reweight on an empty state); it has zero energy delta and is
/// always accepted, exactly as the no-op clone was.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Proposal {
    /// No state change.
    Stay,
    /// Push a new hidden terminal.
    AddHt { edges: ClientSet, q_t: f64 },
    /// `swap_remove` terminal `k`.
    RemoveHt { k: usize },
    /// Toggle client `c` on terminal `k` (terminal is removed if its
    /// edge set empties).
    ToggleEdge { k: usize, c: usize },
    /// Set terminal `k`'s weight to `q_new`.
    Reweight { k: usize, q_new: f64 },
}

/// Draw the next proposal. This is the single source of randomness
/// for both the incremental and the from-scratch chain: the draw
/// order (kind, then per-kind parameters) replicates the legacy
/// implementation exactly, so both consume the same RNG stream.
fn draw_proposal(
    rng: &mut DetRng,
    n: usize,
    hts: &[TransformedHt],
    config: &McmcConfig,
    max_stat: f64,
) -> Proposal {
    match rng.below(4) {
        0 => {
            // Add a hidden terminal with a random small edge set.
            if hts.len() < config.max_hts {
                let mut edges = ClientSet::EMPTY;
                let k = 1 + rng.below(3.min(n));
                for _ in 0..k {
                    edges.insert(rng.below(n));
                }
                Proposal::AddHt {
                    edges,
                    q_t: rng.range_f64(0.01, max_stat),
                }
            } else {
                Proposal::Stay
            }
        }
        1 => {
            // Remove a random hidden terminal.
            if hts.is_empty() {
                Proposal::Stay
            } else {
                Proposal::RemoveHt {
                    k: rng.below(hts.len()),
                }
            }
        }
        2 => {
            // Toggle a random edge.
            if hts.is_empty() {
                Proposal::Stay
            } else {
                let k = rng.below(hts.len());
                let c = rng.below(n);
                Proposal::ToggleEdge { k, c }
            }
        }
        _ => {
            // Perturb a weight multiplicatively.
            if hts.is_empty() {
                Proposal::Stay
            } else {
                let k = rng.below(hts.len());
                let f = rng.range_f64(0.6, 1.6);
                Proposal::Reweight {
                    k,
                    q_new: (hts[k].q_t * f).max(1e-4),
                }
            }
        }
    }
}

/// The toggled edge set of `ToggleEdge`.
fn toggled(edges: ClientSet, c: usize) -> ClientSet {
    if edges.contains(c) {
        edges.without(c)
    } else {
        edges.with(c)
    }
}

fn max_individual_stat(sys: &ConstraintSystem) -> f64 {
    sys.individual.iter().cloned().fold(0.1f64, f64::max)
}

/// Run Metropolis–Hastings with annealing; returns the best state.
///
/// Hot path: per-proposal cost is O(constraints touched by the edited
/// hidden terminal), via an incrementally maintained
/// [`ResidualTracker`]; no state clone is made except when a new best
/// is recorded.
pub fn infer_mcmc(sys: &ConstraintSystem, config: &McmcConfig, seed: u64) -> McmcResult {
    infer_mcmc_bounded(sys, config, seed, Deadline::None)
}

/// [`infer_mcmc`] under an anytime deadline: the token is checked
/// once per proposal, and on expiry the best state visited so far is
/// returned with `completed = false`. `Deadline::None` reproduces
/// [`infer_mcmc`] bit-identically (the token then touches no counter
/// and no randomness).
pub fn infer_mcmc_bounded(
    sys: &ConstraintSystem,
    config: &McmcConfig,
    seed: u64,
    deadline: Deadline,
) -> McmcResult {
    let mut token = deadline.token();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut tracker = ResidualTracker::new(sys);
    let mut hts: Vec<TransformedHt> = Vec::new();
    // Running violation of the current state: the empty-state sum,
    // then accumulated proposal deltas.
    let mut violation = tracker.recompute_violation();
    let mut best = hts.clone();
    let mut best_v = violation;
    let mut accepted = 0usize;
    let max_stat = max_individual_stat(sys);
    let mut steps_done = 0usize;

    for step in 0..config.steps {
        if token.tick() {
            break;
        }
        steps_done += 1;
        // Annealing schedule (geometric).
        let frac = step as f64 / config.steps.max(1) as f64;
        let temp = config.t_start * (config.t_end / config.t_start).powf(frac);

        let prop = draw_proposal(&mut rng, sys.n, &hts, config, max_stat);

        // Violation and HT-count-penalty deltas, without touching the
        // state.
        let (dv, dpen) = match prop {
            Proposal::Stay => (0.0, 0.0),
            Proposal::AddHt { edges, q_t } => (tracker.shift_cost(edges, q_t), config.ht_penalty),
            Proposal::RemoveHt { k } => (
                tracker.shift_cost(hts[k].edges, -hts[k].q_t),
                -config.ht_penalty,
            ),
            Proposal::ToggleEdge { k, c } => {
                let old = hts[k].edges;
                let new = toggled(old, c);
                let dpen = if new.is_empty() {
                    -config.ht_penalty
                } else {
                    0.0
                };
                (tracker.edge_change_cost(old, new, hts[k].q_t), dpen)
            }
            Proposal::Reweight { k, q_new } => {
                (tracker.shift_cost(hts[k].edges, q_new - hts[k].q_t), 0.0)
            }
        };
        let de = dv + dpen;
        // The acceptance uniform is drawn unconditionally (common
        // random numbers): the incremental and from-scratch energies
        // can land on opposite sides of zero by one part in 1e15, and
        // a conditional draw would let that desynchronize the RNG
        // streams of the two chains forever after.
        let u = rng.f64();
        let accept = de <= 0.0 || u < (-de / temp.max(1e-9)).exp();
        if accept {
            match prop {
                Proposal::Stay => {}
                Proposal::AddHt { edges, q_t } => {
                    tracker.shift(edges, q_t);
                    hts.push(TransformedHt { q_t, edges });
                }
                Proposal::RemoveHt { k } => {
                    tracker.shift(hts[k].edges, -hts[k].q_t);
                    hts.swap_remove(k);
                }
                Proposal::ToggleEdge { k, c } => {
                    let old = hts[k].edges;
                    let new = toggled(old, c);
                    tracker.apply_edge_change(old, new, hts[k].q_t);
                    if new.is_empty() {
                        hts.swap_remove(k);
                    } else {
                        hts[k].edges = new;
                    }
                }
                Proposal::Reweight { k, q_new } => {
                    tracker.shift(hts[k].edges, q_new - hts[k].q_t);
                    hts[k].q_t = q_new;
                }
            }
            violation += dv;
            accepted += 1;
            if violation < best_v {
                best_v = violation;
                best = hts.clone();
            }
        }
    }
    let mut best = TransformedTopology { hts: best };
    best.prune(1e-4);
    McmcResult {
        topology: best.to_topology(sys.n).canonicalize(),
        violation: best_v,
        accepted,
        steps_done,
        completed: !token.expired(),
    }
}

/// The pre-fast-path reference chain: clone the state, apply the
/// proposal, recompute the full energy with
/// `ConstraintSystem::total_violation`. Kept for differential tests
/// and as the `perf_infer` baseline; it draws the identical RNG
/// stream as [`infer_mcmc`].
pub fn infer_mcmc_scratch(sys: &ConstraintSystem, config: &McmcConfig, seed: u64) -> McmcResult {
    fn apply(topo: &mut TransformedTopology, prop: Proposal) {
        match prop {
            Proposal::Stay => {}
            Proposal::AddHt { edges, q_t } => topo.hts.push(TransformedHt { q_t, edges }),
            Proposal::RemoveHt { k } => {
                topo.hts.swap_remove(k);
            }
            Proposal::ToggleEdge { k, c } => {
                topo.hts[k].edges = toggled(topo.hts[k].edges, c);
                if topo.hts[k].edges.is_empty() {
                    topo.hts.swap_remove(k);
                }
            }
            Proposal::Reweight { k, q_new } => topo.hts[k].q_t = q_new,
        }
    }
    let energy = |topo: &TransformedTopology| -> f64 {
        sys.total_violation(topo) + config.ht_penalty * topo.hts.len() as f64
    };

    let mut rng = DetRng::seed_from_u64(seed);
    let mut state = TransformedTopology::default();
    let mut e = energy(&state);
    let mut best = state.clone();
    let mut best_v = sys.total_violation(&state);
    let mut accepted = 0usize;
    let max_stat = max_individual_stat(sys);

    for step in 0..config.steps {
        let frac = step as f64 / config.steps.max(1) as f64;
        let temp = config.t_start * (config.t_end / config.t_start).powf(frac);

        let prop = draw_proposal(&mut rng, sys.n, &state.hts, config, max_stat);
        let mut proposal = state.clone();
        apply(&mut proposal, prop);
        let e_new = energy(&proposal);
        // Unconditional draw — see the matching comment in
        // `infer_mcmc`.
        let u = rng.f64();
        let accept = e_new <= e || u < ((e - e_new) / temp.max(1e-9)).exp();
        if accept {
            state = proposal;
            e = e_new;
            accepted += 1;
            let v = sys.total_violation(&state);
            if v < best_v {
                best_v = v;
                best = state.clone();
            }
        }
    }
    best.prune(1e-4);
    McmcResult {
        topology: best.to_topology(sys.n).canonicalize(),
        violation: best_v,
        accepted,
        steps_done: config.steps,
        completed: true,
    }
}

/// Run the chain and report it as an [`InferenceResult`], with
/// residual-fraction/verdict semantics shared with the gradient path
/// — the pluggable-backend entry point used by
/// [`crate::blueprint::InferenceBackend`].
pub fn infer_mcmc_result(
    sys: &ConstraintSystem,
    config: &McmcConfig,
    seed: u64,
    acceptance: &InferenceConfig,
) -> InferenceResult {
    let r = infer_mcmc_bounded(sys, config, seed, acceptance.deadline);
    // Score the pruned, canonicalized output from scratch (the
    // chain's running `violation` tracks the unpruned best state).
    let t = TransformedTopology::from_topology(&r.topology);
    let violation = sys.total_violation(&t);
    let (residual_fraction, verdict) =
        crate::blueprint::infer::classify(sys, violation, acceptance);
    InferenceResult {
        topology: r.topology,
        violation,
        iterations: r.steps_done,
        restarts: 1,
        residual_fraction,
        verdict,
        completed: r.completed,
        overshoot: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::accuracy::topology_accuracy;
    use blu_sim::topology::HiddenTerminal;

    #[test]
    fn mcmc_finds_single_terminal() {
        let truth = InterferenceTopology {
            n_clients: 3,
            hts: vec![HiddenTerminal {
                q: 0.5,
                edges: ClientSet::from_iter([0, 1, 2]),
            }],
        };
        let sys = ConstraintSystem::from_topology(&truth);
        let result = infer_mcmc(&sys, &McmcConfig::default(), 1);
        assert!(
            result.violation < 0.1,
            "mcmc violation {}",
            result.violation
        );
        let acc = topology_accuracy(&truth, &result.topology);
        assert!(acc.exact_fraction() >= 1.0, "{:?}", result.topology);
    }

    #[test]
    fn mcmc_handles_empty_truth() {
        let truth = InterferenceTopology::interference_free(3);
        let sys = ConstraintSystem::from_topology(&truth);
        let result = infer_mcmc(&sys, &McmcConfig::default(), 2);
        assert!(result.violation < 1e-6);
        assert_eq!(result.topology.n_hidden(), 0);
    }

    #[test]
    fn mcmc_accepts_some_steps() {
        let truth = InterferenceTopology {
            n_clients: 4,
            hts: vec![HiddenTerminal {
                q: 0.3,
                edges: ClientSet::from_iter([1, 2]),
            }],
        };
        let sys = ConstraintSystem::from_topology(&truth);
        let result = infer_mcmc(&sys, &McmcConfig::default(), 3);
        assert!(result.accepted > 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let truth = InterferenceTopology {
            n_clients: 3,
            hts: vec![HiddenTerminal {
                q: 0.4,
                edges: ClientSet::from_iter([0, 2]),
            }],
        };
        let sys = ConstraintSystem::from_topology(&truth);
        let cfg = McmcConfig {
            steps: 2_000,
            ..Default::default()
        };
        let a = infer_mcmc(&sys, &cfg, 7);
        let b = infer_mcmc(&sys, &cfg, 7);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.accepted, b.accepted);
    }

    /// The differential contract of the fast path: on the same seed
    /// the incremental chain and the from-scratch reference draw the
    /// same proposals, make the same accept decisions, and return
    /// **bit-identical** topologies. Exercised across seeds and
    /// system shapes (with and without triple constraints).
    #[test]
    fn incremental_matches_scratch() {
        use blu_sim::rng::DetRng;
        let cfg = McmcConfig {
            steps: 3_000,
            ..Default::default()
        };
        for seed in 0..6u64 {
            let mut rng = DetRng::seed_from_u64(100 + seed);
            let truth = InterferenceTopology::random(6, 4, (0.15, 0.65), 0.4, &mut rng);
            let mut sys = ConstraintSystem::from_topology(&truth);
            if seed % 2 == 0 {
                sys.add_triples_from_topology(&truth, &[(0, 1, 2), (2, 4, 5)]);
            }
            let fast = infer_mcmc(&sys, &cfg, seed);
            let scratch = infer_mcmc_scratch(&sys, &cfg, seed);
            assert_eq!(
                fast.accepted, scratch.accepted,
                "seed {seed}: accept sequences diverged"
            );
            assert_eq!(
                fast.topology, scratch.topology,
                "seed {seed}: topologies not bit-identical"
            );
            assert!(
                (fast.violation - scratch.violation).abs() < 1e-9,
                "seed {seed}: violation {} vs {}",
                fast.violation,
                scratch.violation
            );
        }
    }

    /// The running (incrementally accumulated) violation must stay
    /// glued to a from-scratch recompute of the final best state.
    #[test]
    fn running_violation_matches_recompute() {
        let mut rng = blu_sim::rng::DetRng::seed_from_u64(42);
        let truth = InterferenceTopology::random(5, 3, (0.2, 0.6), 0.45, &mut rng);
        let sys = ConstraintSystem::from_topology(&truth);
        let cfg = McmcConfig {
            steps: 5_000,
            ..Default::default()
        };
        let r = infer_mcmc(&sys, &cfg, 11);
        // `violation` is the running value of the best pre-prune
        // state; the pruned output can only drop sub-1e-4 weights, so
        // a recompute stays within that band plus accumulation noise.
        let t = TransformedTopology::from_topology(&r.topology);
        let recomputed = sys.total_violation(&t);
        assert!(
            (recomputed - r.violation).abs() < 1e-2,
            "running {} vs recomputed {}",
            r.violation,
            recomputed
        );
    }

    #[test]
    fn mcmc_result_reports_confidence() {
        let truth = InterferenceTopology {
            n_clients: 3,
            hts: vec![HiddenTerminal {
                q: 0.5,
                edges: ClientSet::from_iter([0, 1, 2]),
            }],
        };
        let sys = ConstraintSystem::from_topology(&truth);
        let res = infer_mcmc_result(&sys, &McmcConfig::default(), 1, &InferenceConfig::default());
        assert!(res.confidence() > 0.9, "confidence {}", res.confidence());
        assert_eq!(res.restarts, 1);
        let acc = topology_accuracy(&truth, &res.topology);
        assert!(acc.exact_fraction() >= 1.0);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(McmcConfig::default().validate().is_ok());
        let bad = [
            McmcConfig {
                steps: 0,
                ..Default::default()
            },
            McmcConfig {
                t_start: f64::NAN,
                ..Default::default()
            },
            McmcConfig {
                t_end: 0.0,
                ..Default::default()
            },
            McmcConfig {
                t_start: 0.001,
                t_end: 0.1,
                ..Default::default()
            },
            McmcConfig {
                max_hts: 0,
                ..Default::default()
            },
            McmcConfig {
                ht_penalty: -1.0,
                ..Default::default()
            },
        ];
        for cfg in bad {
            assert!(
                matches!(cfg.validate(), Err(BluError::InvalidConfig(_))),
                "{cfg:?} should be rejected"
            );
        }
    }

    fn deadline_test_system() -> ConstraintSystem {
        use blu_sim::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(9);
        let truth = InterferenceTopology::random(6, 4, (0.15, 0.65), 0.4, &mut rng);
        ConstraintSystem::from_topology(&truth)
    }

    /// `Deadline::None` must be bit-identical to the plain entry
    /// point, and a budget ≥ steps must behave as unbounded
    /// (`completed = true`).
    #[test]
    fn unbounded_deadline_is_bit_identical() {
        use crate::runtime::deadline::Deadline;
        let sys = deadline_test_system();
        let cfg = McmcConfig {
            steps: 2_000,
            ..Default::default()
        };
        let plain = infer_mcmc(&sys, &cfg, 11);
        let none = infer_mcmc_bounded(&sys, &cfg, 11, Deadline::None);
        let roomy = infer_mcmc_bounded(&sys, &cfg, 11, Deadline::Steps(cfg.steps as u64));
        for r in [&none, &roomy] {
            assert_eq!(r.topology, plain.topology);
            assert_eq!(r.violation.to_bits(), plain.violation.to_bits());
            assert_eq!(r.accepted, plain.accepted);
            assert_eq!(r.steps_done, cfg.steps);
            assert!(r.completed);
        }
    }

    /// A step budget below the configured chain length cuts the run
    /// short **exactly** at the budget, deterministically, returning
    /// a usable (finite-violation) best-so-far.
    #[test]
    fn step_budget_cuts_chain_short_deterministically() {
        use crate::runtime::deadline::Deadline;
        let sys = deadline_test_system();
        let cfg = McmcConfig {
            steps: 20_000,
            ..Default::default()
        };
        let a = infer_mcmc_bounded(&sys, &cfg, 11, Deadline::Steps(500));
        let b = infer_mcmc_bounded(&sys, &cfg, 11, Deadline::Steps(500));
        assert_eq!(a.steps_done, 500);
        assert!(!a.completed);
        assert!(a.violation.is_finite());
        assert_eq!(a.topology, b.topology, "bounded runs are deterministic");
        assert_eq!(a.accepted, b.accepted);
        // The truncated chain is a prefix of the full chain's proposal
        // stream: with the same seed it can never *accept more* than
        // the full run.
        let full = infer_mcmc(&sys, &cfg, 11);
        assert!(a.accepted <= full.accepted);
    }
}
