//! `blu robust` — run the degraded-mode orchestrator under scripted
//! faults.
//!
//! Synthesizes a fault-scripted capture (same generator as the robust
//! test-bench) and drives [`blu_core::robust::run_blu_robust`] over
//! it, printing the state-machine timeline, the inference verdicts,
//! and the effective-throughput accounting.
//!
//! Fault scripts are given on the command line in a small DSL —
//! events separated by `;`, each `kind@subframe key=value...`:
//!
//! ```text
//! blu robust --seconds 90 \
//!     --faults "appear@20000 q=0.6 edges=0,1,2,3; misclassify@0 rate=0.05"
//! ```

use crate::args::Flags;
use blu_core::blueprint::{FleetBlueprintCache, InferenceBackend, McmcConfig};
use blu_core::orchestrator::BluConfig;
use blu_core::robust::{run_blu_robust, CheckpointPolicy, RobustConfig};
use blu_core::runtime::supervisor::{run_supervised_fleet, CellHealthReport, SupervisorConfig};
use blu_core::runtime::Deadline;
use blu_core::EmulationConfig;
use blu_phy::cell::CellConfig;
use blu_sim::clientset::ClientSet;
use blu_sim::faults::{FaultEvent, FaultKind, FaultScript};
use blu_sim::time::Micros;
use blu_traces::capture::CaptureConfig;
use blu_traces::faults::capture_with_faults;

const HELP: &str = "blu robust — degraded-mode BLU under scripted faults

OPTIONS:
    --faults <spec>   fault script (see below; default: none)
    --ues <n>         number of UEs (default 6)
    --hts <n>         initial hidden terminals (default 8)
    --seconds <s>     capture duration (default 60)
    --rbs <n>         resource blocks (default 25)
    --seed <u64>      RNG seed, shared by capture and MCMC (default 1)
    --mcmc-steps <n>  blue-print with the annealed MCMC backend
                      (this many proposals) instead of gradient repair
    --t-start <f>     MCMC start temperature (default 1.0)
    --t-end <f>       MCMC end temperature (default 0.005)
    --deadline-steps <n>  anytime inference: cap each blue-printing
                      pass at n work units, speculate on best-so-far
    --fleet-cache-capacity <n>  share blue-printing results through
                      the fleet blueprint cache (n entries; 0 = off,
                      the default). Hits are byte-identical to a
                      fresh solve; counters print at end of run

STREAMING (continuous churn absorption):
    --stream          run the streaming online-inference loop: a
                      sliding observation window feeds incremental
                      blue-print refinement between sub-frames; full
                      re-measurement demotes to the drift-monitor
                      fallback arm
    --window <sf>     observation-window capacity in sub-frame
                      observations (default 2000; needs --stream)
    --churn-rate <hz> overlay Poisson UE/HT topology churn on the
                      capture at this total rate (default 0 = off;
                      composes with --faults)
    --churn-start <sf>  sub-frame the churn window opens at (default:
                      one third of the trace)
    --churn-seed <u64>  churn stream seed (default: derived from --seed)

SUPERVISION:
    --supervise               run under the fleet supervisor: crashes
                              and hard stalls restart the cell from
                              its latest checkpoint (or quarantine it
                              to PF once the retry budget is spent)
    --max-restarts <n>        restarts before quarantine (default 3)
    --stall-factor-limit <n>  scripted stall factor treated as a hard
                              stall while measuring (default 8)

CRASH RECOVERY:
    --checkpoint-dir <dir>    persist orchestrator snapshots to
                              <dir>/cell-0.json (atomic temp+rename)
    --checkpoint-every <sf>   also save whenever the cursor crosses
                              a multiple of <sf> sub-frames (default
                              10000; 0 = only at clean shutdown)
    --resume                  restore from an existing snapshot in
                              --checkpoint-dir and continue; the
                              resumed run is bit-identical to an
                              uninterrupted one

FAULT SCRIPT:
    events separated by `;`, each `kind@subframe key=value ...`:
      appear@SF q=Q edges=I,J,..     new hidden terminal
      disappear@SF ht=H              remove terminal H
      qdrift@SF ht=H q=Q             terminal H's duty cycle drifts
      churn@SF ht=H toggle=I,J,..    flip edges of terminal H
      misclassify@SF rate=R          pilot misclassification onward
      drop@SF rate=R                 measurement reports dropped
      stall@SF factor=N              inference runs N× slower onward
      panic@SF active=1|0            inference panics (contained and
                                     routed to PF fallback) onward
      poison@SF rate=R               constraint targets NaN-poisoned
                                     at rate R (quarantined) onward
      crash@SF                       the whole cell task crashes once
                                     at SF (needs --supervise)

    example:
      --faults \"appear@20000 q=0.6 edges=0,1,2,3; misclassify@0 rate=0.05\"";

fn parse_clientset(s: &str) -> Result<ClientSet, String> {
    let mut set = ClientSet::EMPTY;
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let ue: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("bad client index `{part}`"))?;
        set.insert(ue);
    }
    if set.is_empty() {
        return Err("empty client set".into());
    }
    Ok(set)
}

fn parse_event(spec: &str) -> Result<FaultEvent, String> {
    let mut words = spec.split_whitespace();
    let head = words.next().ok_or("empty fault event")?;
    let (kind, at) = head
        .split_once('@')
        .ok_or_else(|| format!("`{head}`: expected kind@subframe"))?;
    let at_subframe: u64 = at
        .parse()
        .map_err(|_| format!("`{head}`: bad subframe `{at}`"))?;
    let mut kv = std::collections::HashMap::new();
    for w in words {
        let (k, v) = w
            .split_once('=')
            .ok_or_else(|| format!("`{w}`: expected key=value"))?;
        kv.insert(k, v);
    }
    let need = |k: &str| -> Result<&str, String> {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("`{kind}@{at}` needs {k}=..."))
    };
    let f64_of = |k: &str| -> Result<f64, String> {
        need(k)?
            .parse()
            .map_err(|_| format!("`{kind}@{at}`: bad {k}"))
    };
    let usize_of = |k: &str| -> Result<usize, String> {
        need(k)?
            .parse()
            .map_err(|_| format!("`{kind}@{at}`: bad {k}"))
    };
    let kind = match kind {
        "appear" => FaultKind::HtAppear {
            q: f64_of("q")?,
            edges: parse_clientset(need("edges")?)?,
        },
        "disappear" => FaultKind::HtDisappear {
            ht: usize_of("ht")?,
        },
        "qdrift" => FaultKind::QDrift {
            ht: usize_of("ht")?,
            q: f64_of("q")?,
        },
        "churn" => FaultKind::EdgeChurn {
            ht: usize_of("ht")?,
            toggle: parse_clientset(need("toggle")?)?,
        },
        "misclassify" => FaultKind::MisclassifyRate {
            rate: f64_of("rate")?,
        },
        "drop" => FaultKind::DropRate {
            rate: f64_of("rate")?,
        },
        "stall" => {
            let factor: u32 = need("factor")?
                .parse()
                .map_err(|_| format!("`{kind}@{at}`: bad factor"))?;
            if factor < 1 {
                return Err(format!("`{kind}@{at}`: factor must be >= 1, got {factor}"));
            }
            FaultKind::InferenceStall { factor }
        }
        "panic" => FaultKind::InferencePanic {
            active: match need("active")? {
                "1" | "true" => true,
                "0" | "false" => false,
                bad => return Err(format!("`{kind}@{at}`: bad active `{bad}` (want 1|0)")),
            },
        },
        "poison" => {
            // "nan".parse::<f64>() succeeds, so an explicit range +
            // finiteness check is the only thing standing between the
            // command line and a NaN poison rate.
            let rate = f64_of("rate")?;
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "`{kind}@{at}`: rate must be finite in [0, 1], got {rate}"
                ));
            }
            FaultKind::StatPoison { rate }
        }
        "crash" => FaultKind::CellCrash,
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok(FaultEvent { at_subframe, kind })
}

/// Parse the `;`-separated fault-script DSL.
pub fn parse_fault_script(spec: &str) -> Result<FaultScript, String> {
    let events = spec
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_event)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FaultScript::new(events))
}

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "seconds",
            "seed",
            "ues",
            "hts",
            "rbs",
            "faults",
            "mcmc-steps",
            "t-start",
            "t-end",
            "deadline-steps",
            "stall-factor-limit",
            "checkpoint-dir",
            "checkpoint-every",
            "max-restarts",
            "fleet-cache-capacity",
            "window",
            "churn-rate",
            "churn-seed",
            "churn-start",
        ],
        &["help", "resume", "supervise", "stream"],
    )?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let mut script = match flags.get("faults") {
        Some(spec) => parse_fault_script(spec)?,
        None => FaultScript::none(),
    };
    if script.has_crash_faults() && !flags.has("supervise") {
        return Err("crash@ faults escape the unsupervised loop; add --supervise".into());
    }
    let seconds = flags.get_or("seconds", 60u64)?;
    let cfg = CaptureConfig {
        n_ues: flags.get_or("ues", 6usize)?,
        n_hts: flags.get_or("hts", 8usize)?,
        duration: Micros::from_secs(seconds),
        q_range: (0.25, 0.55),
        ..CaptureConfig::testbed_default()
    };
    let seed = flags.get_or("seed", 1u64)?;
    let churn_rate: f64 = flags.get_or("churn-rate", 0.0f64)?;
    if !churn_rate.is_finite() || churn_rate < 0.0 {
        return Err(format!(
            "--churn-rate must be finite and >= 0, got {churn_rate}"
        ));
    }
    if churn_rate > 0.0 {
        let total = seconds
            .checked_mul(1_000)
            .ok_or("--seconds too large for a sub-frame count")?;
        let start = flags.get_or("churn-start", total / 3)?;
        let duration = total.saturating_sub(start);
        if duration == 0 {
            return Err(format!(
                "--churn-start {start} leaves no room in a {total} sub-frame trace"
            ));
        }
        let churn_cfg =
            blu_sim::churn::ChurnConfig::with_total_rate(cfg.n_ues, duration, churn_rate);
        let churn_seed = flags.get_or("churn-seed", seed.wrapping_add(0xC0FF))?;
        let churn = blu_sim::churn::generate_churn(&churn_cfg, cfg.n_hts, churn_seed)
            .map_err(|e| e.to_string())?;
        let mut events = script.events.clone();
        events.extend(
            blu_core::robust::compile_churn_script(&churn, start)
                .map_err(|e| e.to_string())?
                .events,
        );
        script = FaultScript::new(events);
    }
    script
        .validate(cfg.n_ues, cfg.n_hts)
        .map_err(|e| e.to_string())?;
    let cap = capture_with_faults(&cfg, &script, seed).map_err(|e| e.to_string())?;

    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = flags.get_or("rbs", 25usize)?;
    let mut config = RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)));
    if let Some(budget) = flags.get("deadline-steps") {
        let steps: u64 = budget
            .parse()
            .map_err(|_| format!("bad --deadline-steps `{budget}`"))?;
        config.blu.inference.deadline = Deadline::Steps(steps);
    }
    if flags.has("stream") {
        let streaming = blu_core::robust::StreamingConfig::new(flags.get_or("window", 2_000usize)?);
        streaming.validate().map_err(|e| e.to_string())?;
        config.streaming = Some(streaming);
    } else if flags.get("window").is_some() {
        return Err("--window needs --stream".into());
    }
    if flags.has("resume") && flags.get("checkpoint-dir").is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    if let Some(dir) = flags.get("checkpoint-dir") {
        config.checkpoint = Some(CheckpointPolicy {
            dir: std::path::PathBuf::from(dir),
            every_subframes: flags.get_or("checkpoint-every", 10_000u64)?,
            resume: flags.has("resume"),
        });
    }
    let fleet_cache = match flags.get_or("fleet-cache-capacity", 0usize)? {
        0 => None,
        cap => {
            let cache = std::sync::Arc::new(FleetBlueprintCache::new(cap));
            config.fleet_cache = Some(std::sync::Arc::clone(&cache));
            Some(cache)
        }
    };
    if flags.get("mcmc-steps").is_some() {
        config.backend = InferenceBackend::Mcmc {
            config: McmcConfig {
                steps: flags.get_or("mcmc-steps", 20_000usize)?,
                t_start: flags.get_or("t-start", 1.0f64)?,
                t_end: flags.get_or("t-end", 0.005f64)?,
                ..Default::default()
            },
            seed,
        };
    }
    super::quiet_injected_panics();
    let (report, health): (_, Option<CellHealthReport>) = if flags.has("supervise") {
        let sup = SupervisorConfig {
            max_restarts: flags.get_or("max-restarts", 3u32)?,
            stall_factor_limit: flags.get_or("stall-factor-limit", 8u32)?,
            ..SupervisorConfig::default()
        };
        let mut outcome = run_supervised_fleet(std::slice::from_ref(&cap), &config, &sup)
            .map_err(|e| e.to_string())?;
        let report = outcome
            .reports
            .pop()
            .ok_or("supervised run lost its cell")?;
        let health = outcome.health.cells.pop();
        (report, health)
    } else {
        (
            run_blu_robust(&cap, &config).map_err(|e| e.to_string())?,
            None,
        )
    };

    println!(
        "{} sub-frames, {} fault event(s), {} epoch(s)",
        cap.trace.access.len(),
        cap.script.len(),
        cap.epochs.len()
    );
    println!("\nstate timeline:");
    for t in &report.transitions {
        println!("  sf {:>8}  -> {}", t.at_subframe, t.state);
    }
    println!("\nverdicts: {:?}", report.verdicts);
    println!(
        "re-measurements: {} | speculative TxOPs: {} | fallback TxOPs: {}",
        report.n_remeasurements, report.speculative_txops, report.fallback_txops
    );
    println!(
        "inference latency: {:.2} ms total across {} blue-printing pass(es)",
        report.inference_micros as f64 / 1e3,
        report.verdicts.len()
    );
    println!(
        "peak drift score: {:.3} | final confidence: {:.3} | final state: {}",
        report.peak_drift,
        report.final_confidence,
        report.final_state()
    );
    println!(
        "throughput: {:.2} Mbps raw, {:.2} Mbps effective ({} measurement sub-frames charged)",
        report.metrics.throughput_mbps(),
        report.effective_throughput_mbps(),
        report.measurement_subframes
    );
    if config.streaming.is_some() {
        println!(
            "streaming: {} incremental refine(s) ({} installed) | {} fallback \
             re-measurement(s) | {} churn event(s) applied | window occupancy {}",
            report.stream_refines,
            report.stream_refines_installed,
            report.stream_fallback_remeasurements,
            report.stream_churn_events,
            report.stream_window_occupancy
        );
    }
    if !report.breaker_transitions.is_empty() {
        println!("\ncircuit breaker:");
        for t in &report.breaker_transitions {
            println!("  sf {:>8}  {:?} -> {:?}", t.at_subframe, t.from, t.to);
        }
    }
    if report.inference_panics > 0
        || report.deadline_misses > 0
        || report.quarantined_constraints > 0
    {
        println!(
            "resilience: {} contained panic(s), {} deadline miss(es), {} constraint(s) quarantined",
            report.inference_panics, report.deadline_misses, report.quarantined_constraints
        );
    }
    if let Some(h) = &health {
        println!(
            "\nsupervision: final health {:?} | {} restart(s) | {} crash(es) observed",
            h.final_health, h.restarts, h.crashes_observed
        );
        if !h.restart_sources.is_empty() {
            println!("  restored from: {:?}", h.restart_sources);
        }
        if let Some(err) = &h.last_error {
            println!("  last contained failure: {err}");
        }
        if !h.transitions.is_empty() {
            println!("  health timeline:");
            for t in &h.transitions {
                println!(
                    "    sf {:>8}  {:?} -> {:?} ({:?})",
                    t.at_subframe, t.from, t.to, t.cause
                );
            }
        }
    }
    if let Some(cache) = &fleet_cache {
        let s = cache.stats();
        println!(
            "\nfleet cache: {} hit(s), {} delayed hit(s), {} miss(es), {} bypass(es), \
             {} eviction(s) | work saved: {:.1}%",
            s.hits,
            s.delayed_hits,
            s.misses,
            s.bypasses,
            s.evictions,
            100.0 * s.work_saved()
        );
    }
    if let Some(policy) = &config.checkpoint {
        println!(
            "checkpoint saved to {}",
            policy.dir.join("cell-0.json").display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsl_round_trip() {
        let s = parse_fault_script("appear@20000 q=0.6 edges=0,1,2,3; misclassify@0 rate=0.05")
            .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.events[0].at_subframe, 0); // sorted by subframe
        assert!(matches!(
            s.events[0].kind,
            FaultKind::MisclassifyRate { rate } if (rate - 0.05).abs() < 1e-12
        ));
        match &s.events[1].kind {
            FaultKind::HtAppear { q, edges } => {
                assert!((q - 0.6).abs() < 1e-12);
                assert_eq!(edges.len(), 4);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn dsl_all_kinds_parse() {
        let s = parse_fault_script(
            "disappear@5 ht=1; qdrift@6 ht=0 q=0.9; churn@7 ht=2 toggle=1,3; drop@8 rate=0.2",
        )
        .unwrap();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn dsl_runtime_kinds_parse() {
        let s = parse_fault_script("stall@100 factor=10; panic@200 active=1; poison@300 rate=0.25")
            .unwrap();
        assert_eq!(s.len(), 3);
        assert!(matches!(
            s.events[0].kind,
            FaultKind::InferenceStall { factor: 10 }
        ));
        assert!(matches!(
            s.events[1].kind,
            FaultKind::InferencePanic { active: true }
        ));
        assert!(matches!(
            s.events[2].kind,
            FaultKind::StatPoison { rate } if (rate - 0.25).abs() < 1e-12
        ));
        assert!(parse_fault_script("panic@0 active=maybe").is_err());
        assert!(parse_fault_script("stall@0").is_err()); // missing factor
    }

    #[test]
    fn dsl_crash_parses_bare() {
        let s = parse_fault_script("crash@30000").unwrap();
        assert!(matches!(s.events[0].kind, FaultKind::CellCrash));
        assert!(s.has_crash_faults());
        assert_eq!(s.crash_subframes(), vec![30_000]);
    }

    #[test]
    fn dsl_rejects_degenerate_runtime_faults_at_parse_time() {
        // A zero stall factor would divide the runtime's pacing.
        let err = parse_fault_script("stall@0 factor=0").unwrap_err();
        assert!(err.contains("factor must be >= 1"), "{err}");
        // "nan" and "inf" parse as f64 — the validator must catch them.
        for bad in ["nan", "inf", "-0.5", "1.5"] {
            let err = parse_fault_script(&format!("poison@0 rate={bad}")).unwrap_err();
            assert!(err.contains("finite in [0, 1]"), "rate={bad}: {err}");
        }
        // Boundary rates stay valid.
        assert!(parse_fault_script("poison@0 rate=0").is_ok());
        assert!(parse_fault_script("poison@0 rate=1").is_ok());
        assert!(parse_fault_script("stall@0 factor=1").is_ok());
    }

    #[test]
    fn dsl_errors_are_descriptive() {
        assert!(parse_fault_script("appear@x q=0.5 edges=0").is_err());
        assert!(parse_fault_script("appear@10 edges=0").is_err()); // missing q
        assert!(parse_fault_script("warp@10 q=0.5").is_err());
        assert!(parse_fault_script("appear@10 q=0.5 edges=").is_err());
    }

    #[test]
    fn empty_script_is_none() {
        let s = parse_fault_script("  ").unwrap();
        assert!(s.is_empty());
    }
}
