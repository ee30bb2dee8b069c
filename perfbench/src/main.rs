//! `blu-perfbench`: one run of one workload.
//!
//! ```text
//! blu-perfbench --workload <serve_phased|serve_churn|chaos_storm> --seed <n>
//!               --seconds <s> --trace <0|1> [--work-dir <dir>] [--out-dir <dir>]
//!               [--reference-dir <dir>] [--write-reference]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! workload with probes and replayed layer calls and reports the
//! per-layer metrics. Either way the last line of standard output is
//! the JSON result object, and the exit code is nonzero when the
//! correctness gate fails.

use blu_core::runtime::capture_for_spec;
use blu_core::runtime::supervisor::RestartSource;
use blu_perfbench::episode::{fold, EpisodeStats};
use blu_perfbench::gate::{self, CellRecord};
use blu_perfbench::gen::{self, Workload};
use blu_perfbench::report::MetricSet;
use blu_perfbench::serve::{self, ServeEpisode};
use blu_perfbench::spans::{self_times, Tracer};
use blu_perfbench::stats::{mean, median, percentile, tail_percentile};
use blu_perfbench::storm::{self, StormEpisode};
use blu_perfbench::{layers, sys};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Traced runs replay this many episodes, each once untraced and once
/// traced.
const TRACE_EPISODES: usize = 2;

/// The step and status samples every measured run must collect.
const MIN_SAMPLES: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
    out_dir: PathBuf,
    reference_dir: PathBuf,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ServePhased,
        seed: gen::DEFAULT_SEED,
        seconds: 35,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
        out_dir: PathBuf::from(".bench_out"),
        reference_dir: PathBuf::from("perfbench/reference"),
        write_reference: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--reference-dir" => args.reference_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Injected chaos crashes panic on purpose; keep their reports off
/// stderr and let every other panic through.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected"))
            .or_else(|| {
                payload
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected"))
            })
            .unwrap_or(false);
        if !injected {
            prev(info);
        }
    }));
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    quiet_injected_panics();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("blu-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("blu-perfbench: creating {}: {e}", work.0.display());
        return ExitCode::from(1);
    }
    header(&args, &work.0);
    let outcome = if args.trace {
        run_traced(&args, &work.0)
    } else {
        run_measured(&args, &work.0)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("blu-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn header(args: &Args, work: &Path) {
    let revision = std::env::var("BLU_BENCH_REVISION").unwrap_or_else(|_| "unknown".into());
    println!("# workload       {}", args.workload.name());
    println!("# seed           {}", args.seed);
    println!("# seconds        {}", args.seconds);
    println!("# trace          {}", u8::from(args.trace));
    println!("# revision       {revision}");
    println!(
        "# threads        fleet {} (RAYON_NUM_THREADS={}), available {}",
        sys::fleet_threads(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "# RUST_BACKTRACE {} (injected-crash panics quieted)",
        std::env::var("RUST_BACKTRACE").unwrap_or_else(|_| "unset".into())
    );
    println!(
        "# checkpoints    {} on {}",
        work.display(),
        sys::fs_type(work)
    );
}

/// One episode of any workload.
enum Episode {
    Serve(ServeEpisode),
    Storm(StormEpisode),
}

impl Episode {
    fn stats(&self) -> &EpisodeStats {
        match self {
            Episode::Serve(e) => &e.stats,
            Episode::Storm(e) => &e.stats,
        }
    }
}

fn run_episode(
    w: Workload,
    seed: u64,
    episode: usize,
    dir: &Path,
    burst: Option<u64>,
    tracer: Option<&mut Tracer>,
) -> Result<Episode, String> {
    if !w.is_serve() {
        return storm::run_episode(seed, episode, dir, tracer).map(Episode::Storm);
    }
    let shape = gen::serve_shape(w);
    let specs = gen::serve_specs(w, seed, episode);
    let period = Duration::from_millis(shape.status_period_ms);
    let mut ep = serve::run_episode(&specs, dir, burst.unwrap_or(shape.burst), period, tracer)?;
    for r in &mut ep.stats.records {
        r.episode = episode;
    }
    Ok(Episode::Serve(ep))
}

fn episode_line(label: &str, s: &EpisodeStats) {
    println!(
        "# {label:<10} setup {:.3} s | run {:.3} s | {:.0} cell-sf/s | {} steps {} status | \
         {} rounds | cpu {:.2} s | steal {:.2} s | failed {}/{}",
        s.setup_s,
        s.run_s,
        s.cell_subframes as f64 / s.run_s,
        s.step_ms.len(),
        s.status.len(),
        s.rounds,
        s.cpu_s,
        s.steal_s,
        s.failed,
        s.attempted
    );
}

fn reference_path(args: &Args, w: Workload) -> PathBuf {
    args.reference_dir
        .join(format!("{}-seed{}.txt", w.name(), args.seed))
}

/// Compare against the committed reference when one exists for this
/// seed (or write it with `--write-reference`).
fn reference_gate(args: &Args, records: &[CellRecord], problems: &mut Vec<String>) {
    let path = reference_path(args, args.workload);
    if args.write_reference {
        match std::fs::write(&path, gate::render(records)) {
            Ok(()) => println!("# reference      wrote {}", path.display()),
            Err(e) => problems.push(format!("writing {}: {e}", path.display())),
        }
        return;
    }
    if !path.exists() {
        if args.seed == gen::DEFAULT_SEED {
            problems.push(format!("reference {} is missing", path.display()));
        }
        return;
    }
    match gate::load(&path) {
        Ok(expected) => {
            let diffs = gate::compare("reference", &expected, records);
            println!(
                "# reference      {} ({} differences)",
                path.display(),
                diffs.len()
            );
            problems.extend(diffs);
        }
        Err(e) => problems.push(e),
    }
}

fn run_measured(args: &Args, work: &Path) -> Result<bool, String> {
    let w = args.workload;
    let n_episodes = gen::episodes(args.seconds, episode_seconds(w));
    println!("# episodes       {n_episodes}");
    let mut problems = Vec::new();
    let mut all = Vec::with_capacity(n_episodes);
    let mut storms = Vec::new();
    // Each episode's own high-water mark: the fleet's workers are
    // scheduled dynamically, so which cells' allocations overlap, and
    // with it one moment's peak, depends on thread timing.
    let mut peaks = Vec::with_capacity(n_episodes);
    let mut peak_reset = true;
    for e in 0..n_episodes {
        let dir = work.join(format!("episode-{e}"));
        peak_reset &= sys::reset_peak_rss();
        let ep = run_episode(w, args.seed, e, &dir, None, None)?;
        peaks.push(sys::peak_rss_mb());
        episode_line(&format!("episode {e}"), ep.stats());
        all.push(ep.stats().clone());
        if let Episode::Storm(storm_ep) = ep {
            storms.push(storm_ep);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The median over episodes; where the peak cannot be reset, every
    // reading is the run's peak so far.
    let peak_rss_mb = median(&peaks);
    println!(
        "# peak rss       per episode {} MiB (reset {})",
        peaks
            .iter()
            .map(|p| format!("{p:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
        if peak_reset { "ok" } else { "refused" }
    );
    for (e, storm_ep) in storms.into_iter().enumerate() {
        if let Err(v) = storm::check_invariants(storm_ep) {
            problems.extend(v.into_iter().map(|v| format!("episode {e}: {v}")));
        }
    }
    let records: Vec<CellRecord> = all.iter().flat_map(|s| s.records.clone()).collect();

    if w.is_serve() {
        // Digests are independent of cadence: episode 0 again, with a
        // different burst size, must end bit-identical.
        let shape = gen::serve_shape(w);
        let dir = work.join("cadence-check");
        let again = run_episode(w, args.seed, 0, &dir, Some(shape.check_burst), None)?;
        let diffs = gate::compare(
            &format!("Step{{{}}} vs Step{{{}}}", shape.burst, shape.check_burst),
            &all[0].records,
            &again.stats().records,
        );
        println!(
            "# cadence check  episode 0 re-run with Step{{{}}}: {} differences",
            shape.check_burst,
            diffs.len()
        );
        problems.extend(diffs);
        let _ = std::fs::remove_dir_all(&dir);
    }
    reference_gate(args, &records, &mut problems);

    let e2e = fold(&all);
    if e2e.step_samples < MIN_SAMPLES || e2e.status_samples < MIN_SAMPLES {
        problems.push(format!(
            "too few samples: {} steps, {} status (need {MIN_SAMPLES} each)",
            e2e.step_samples, e2e.status_samples
        ));
    }
    let tail = |n: usize| tail_percentile(n).map_or("none".into(), |q| format!("p{q}"));
    println!(
        "# samples        step {} (tail {}), status {} (tail {})",
        e2e.step_samples,
        tail(e2e.step_samples),
        e2e.status_samples,
        tail(e2e.status_samples)
    );
    let steps: Vec<f64> = all.iter().flat_map(|s| s.step_ms.clone()).collect();
    let status: Vec<f64> = all.iter().flat_map(|s| ms_list(&s.status)).collect();
    distribution("step ms", &steps);
    distribution("status ms", &status);
    let list = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# episode p95    step {} ms",
        list(all.iter().map(|s| percentile(&s.step_ms, 95.0)).collect())
    );
    println!(
        "# episode p90    status {} ms",
        list(
            all.iter()
                .map(|s| percentile(&ms_list(&s.status), 90.0))
                .collect()
        )
    );
    println!(
        "# episode counts step {} to {}, status {} to {} samples",
        all.iter().map(|s| s.step_ms.len()).min().unwrap_or(0),
        all.iter().map(|s| s.step_ms.len()).max().unwrap_or(0),
        all.iter().map(|s| s.status.len()).min().unwrap_or(0),
        all.iter().map(|s| s.status.len()).max().unwrap_or(0)
    );
    println!(
        "# open loop      period {} ms, late p50 {:.3} ms, late max {:.3} ms",
        status_period_ms(w),
        e2e.status_late_p50_ms,
        e2e.status_late_max_ms
    );
    println!(
        "# host           run phase {:.2} s, process cpu {:.2} s, host steal {:.2} s",
        e2e.run_s, e2e.cpu_s, e2e.steal_s
    );
    let mut m = MetricSet::default();
    m.push("setup_s", e2e.setup_s, "s");
    m.push(
        "cell_subframes_per_s",
        e2e.cell_subframes_per_s,
        "cell-sf/s",
    );
    m.push("step_p50_ms", e2e.step_p50_ms, "ms");
    m.push("step_p95_ep_ms", e2e.step_p95_ep_ms, "ms");
    m.push("status_p50_ms", e2e.status_p50_ms, "ms");
    m.push("status_p90_ep_ms", e2e.status_p90_ep_ms, "ms");
    m.push("ul_mbps", e2e.ul_mbps, "Mbit/s");
    m.push("rb_utilization", e2e.rb_utilization, "ratio");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    finish(&m, problems, e2e.ops.attempted, e2e.ops.failed)
}

fn finish(
    m: &MetricSet,
    mut problems: Vec<String>,
    attempted: u64,
    failed: u64,
) -> Result<bool, String> {
    for name in m.non_finite() {
        problems.push(format!("metric {name} is not a finite number"));
    }
    for p in &problems {
        println!("# GATE FAILURE   {p}");
    }
    let correct = problems.is_empty();
    print!("{}", m.table());
    println!("{}", m.result_line(correct, attempted.max(1), failed));
    Ok(correct)
}

fn episode_seconds(w: Workload) -> f64 {
    if w.is_serve() {
        gen::serve_shape(w).episode_seconds
    } else {
        gen::storm_shape().episode_seconds
    }
}

fn status_period_ms(w: Workload) -> u64 {
    if w.is_serve() {
        gen::serve_shape(w).status_period_ms
    } else {
        gen::storm_shape().status_period_ms
    }
}

fn rate(stats: &[EpisodeStats]) -> f64 {
    let sf: u64 = stats.iter().map(|s| s.cell_subframes).sum();
    let secs: f64 = stats.iter().map(|s| s.run_s).sum();
    sf as f64 / secs
}

/// One header line with the shape of a latency distribution.
fn distribution(label: &str, values: &[f64]) {
    let mut line = format!("# {label:<14}");
    for q in [10.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
        line += &format!(" p{q} {:.3}", percentile(values, q));
    }
    println!("{line}");
}

fn ms_list(samples: &[blu_perfbench::openloop::Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.latency().as_secs_f64() * 1e3)
        .collect()
}

/// The supervisor and fleet-cache counters of one storm episode.
struct StormCounters {
    restarts: f64,
    disk_restores: f64,
    hit_ratio: f64,
}

fn storm_counters(ep: &StormEpisode) -> StormCounters {
    let lookups = ep.cache.lookups();
    StormCounters {
        restarts: ep.outcome.health.total_restarts() as f64,
        disk_restores: ep
            .outcome
            .health
            .cells
            .iter()
            .flat_map(|c| c.restart_sources.iter())
            .filter(|s| **s == RestartSource::DiskCheckpoint)
            .count() as f64,
        hit_ratio: if lookups == 0 {
            0.0
        } else {
            (ep.cache.hits + ep.cache.delayed_hits) as f64 / lookups as f64
        },
    }
}

/// The serve workloads run no chaos, so their traced runs also play
/// episode 0 of the same seed's chaos storm, traced, for the supervisor
/// and fleet-cache layers. It passes the storm's gates: the invariants
/// and, where one is committed, the `chaos_storm` reference.
fn companion_storm(
    args: &Args,
    work: &Path,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<StormCounters, String> {
    let dir = work.join("companion-storm");
    let ep = storm::run_episode(args.seed, 0, &dir, Some(tracer))?;
    episode_line("storm 0", &ep.stats);
    let counters = storm_counters(&ep);
    let path = reference_path(args, Workload::ChaosStorm);
    if path.exists() {
        match gate::load(&path) {
            Ok(expected) => {
                let diffs = gate::compare("storm reference", &expected, &ep.stats.records);
                println!(
                    "# reference      {} episode 0 ({} differences)",
                    path.display(),
                    diffs.len()
                );
                problems.extend(diffs);
            }
            Err(e) => problems.push(e),
        }
    }
    if let Err(v) = storm::check_invariants(ep) {
        problems.extend(v.into_iter().map(|v| format!("storm episode 0: {v}")));
    }
    Ok(counters)
}

/// The traced run: each episode once untraced and once traced
/// (alternating which goes first), then the replayed layer calls.
fn run_traced(args: &Args, work: &Path) -> Result<bool, String> {
    let w = args.workload;
    let mut tracer = Tracer::new();
    let mut problems = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for e in 0..TRACE_EPISODES {
        for traced_pass in [e % 2 == 1, e % 2 == 0] {
            let dir = work.join(format!(
                "episode-{e}-{}",
                if traced_pass { "traced" } else { "plain" }
            ));
            let ep = run_episode(
                w,
                args.seed,
                e,
                &dir,
                None,
                traced_pass.then_some(&mut tracer),
            )?;
            let label = format!("{} {e}", if traced_pass { "traced" } else { "plain" });
            episode_line(&label, ep.stats());
            if traced_pass {
                traced.push((ep, dir));
            } else {
                untraced.push(ep);
            }
        }
    }
    for (plain, (tr, _)) in untraced.iter().zip(&traced) {
        problems.extend(gate::compare(
            "traced vs plain",
            &plain.stats().records,
            &tr.stats().records,
        ));
    }
    let records: Vec<CellRecord> = traced
        .iter()
        .flat_map(|(e, _)| e.stats().records.clone())
        .collect();
    reference_gate(args, &records, &mut problems);

    let plain_stats: Vec<EpisodeStats> = untraced.iter().map(|e| e.stats().clone()).collect();
    let traced_stats: Vec<EpisodeStats> = traced.iter().map(|(e, _)| e.stats().clone()).collect();
    let overhead = 1.0 - rate(&traced_stats) / rate(&plain_stats);
    let cpu_per_wall = plain_stats.iter().map(|s| s.cpu_s).sum::<f64>()
        / plain_stats.iter().map(|s| s.run_s).sum::<f64>();
    let rounds: u64 = traced_stats.iter().map(|s| s.rounds).sum();
    let failed: u64 = traced_stats
        .iter()
        .chain(&plain_stats)
        .map(|s| s.failed)
        .sum();
    let attempted: u64 = traced_stats
        .iter()
        .chain(&plain_stats)
        .map(|s| s.attempted)
        .sum();
    let step_ms: Vec<f64> = traced_stats
        .iter()
        .flat_map(|s| s.step_ms.clone())
        .collect();
    let open_ms: Vec<f64> = traced_stats
        .iter()
        .flat_map(|s| ms_list(&s.status))
        .collect();
    let cell_sf: u64 = traced_stats.iter().map(|s| s.cell_subframes).sum();
    let cells = traced_stats[0].records.len();
    let threads = sys::fleet_threads().min(cells).max(1) as f64;

    let replay_dir = work.join("replay");
    std::fs::create_dir_all(&replay_dir).map_err(|e| format!("creating replay dir: {e}"))?;
    let config = serve::robust_config();
    let mut m = MetricSet::default();
    let (first, first_dir) = traced.swap_remove(0);
    let storm_layers = match &first {
        Episode::Serve(_) => companion_storm(args, work, &mut tracer, &mut problems)?,
        Episode::Storm(ep) => storm_counters(ep),
    };
    // Every replayed call is a child of this span, so its self time is
    // the replay's own glue (inputs built between the timed calls).
    let replay_span = tracer.enter("replay");

    // Per-workload probes and the inputs of the replayed calls.
    let (snapshots, captures, capture_ms, capture_mb);
    let (mut hello_us, mut codec_us, mut queue_us, mut digest_us, mut wait_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (round_ms, step_mean_ms);
    let (mut refines, mut installed) = (0.0, 0.0);
    let solves;

    match first {
        Episode::Serve(ep) => {
            let specs = gen::serve_specs(w, args.seed, 0);
            let mut probes = ep.probes.clone();
            if let Some((Episode::Serve(second), _)) = traced.first() {
                probes.hello_ms.extend(&second.probes.hello_ms);
                probes.step0_ms.extend(&second.probes.step0_ms);
                probes.status_ms.extend(&second.probes.status_ms);
            }
            let hello = median(&probes.hello_ms);
            let step0 = median(&probes.step0_ms);
            let burst = gen::serve_shape(w).burst as f64;
            hello_us = hello * 1e3;
            queue_us = (step0 - hello) * 1e3;
            wait_ms = median(&open_ms) - median(&probes.status_ms);
            round_ms = (median(&step_ms) - step0) / burst;
            step_mean_ms = Some(mean(&step_ms));
            if let Some(status) = &probes.last_status {
                codec_us = layers::codec(&mut tracer, status);
            }
            let snaps: Vec<_> = ep.snapshots.iter().collect();
            digest_us = layers::status_digest(&mut tracer, &snaps);
            refines = serve::prom_counter(&ep.metrics_text, "blu_stream_refines_total");
            installed = serve::prom_counter(&ep.metrics_text, "blu_stream_refines_installed_total");
            solves = ep
                .snapshots
                .iter()
                .map(|s| s.verdicts.len() as f64)
                .sum::<f64>()
                - refines;
            let (caps, ms, mb) = layers::captures(&mut tracer, specs.len(), |i| {
                capture_for_spec(&specs[i]).expect("replayed capture")
            });
            (captures, capture_ms, capture_mb) = (caps, ms, mb);
            snapshots = ep.snapshots;
        }
        Episode::Storm(ep) => {
            let n = ep.plan.config.n_cells as f64;
            round_ms = median(&step_ms) / gen::storm_shape().step_rounds as f64;
            step_mean_ms = None;
            solves = ep
                .outcome
                .reports
                .iter()
                .map(|r| r.verdicts.len() as f64)
                .sum();
            let (mut caps, ms, mb) = layers::captures(&mut tracer, 1, |_| {
                ep.plan.captures().expect("replayed captures")
            });
            (captures, capture_ms, capture_mb) = (caps.pop().unwrap_or_default(), ms / n, mb / n);
            // Final snapshots of the cells whose checkpoints were not torn.
            snapshots = (0..ep.plan.config.n_cells)
                .filter(|c| !ep.plan.torn_cells.contains(c))
                .filter_map(|c| {
                    blu_core::runtime::checkpoint::load_robust_checkpoint(
                        &first_dir.join(format!("cell-{c}.json")),
                    )
                    .ok()
                })
                .collect();
        }
    }
    let snaps: Vec<_> = snapshots.iter().collect();
    let (save_us, load_us, bytes) = layers::checkpoint(&mut tracer, &snaps, &replay_dir);
    let cap_refs: Vec<_> = captures.iter().collect();
    let cells_for_engine: Vec<_> = captures.iter().zip(snapshots.iter()).collect();
    let transmit_ns = layers::transmit(&mut tracer, &config, &cells_for_engine);
    let zf_ns = layers::zf(&mut tracer, &config, &cap_refs);
    let sched_us = layers::schedule(&mut tracer, &config, &snaps);
    let solve_ms = layers::solve(&mut tracer, &config, &snaps);
    let refine_ms = layers::refine(&mut tracer, &config, &snaps);
    let window_ns = layers::window(&mut tracer, &snaps);
    let dispatch_us = layers::dispatch(&mut tracer, cells);

    tracer.exit(replay_span);

    // Accounting of the fleet round: replayed transmit and blueprint
    // work per round, spread over the fleet's worker threads, plus one
    // fork/join. Every term is measured apart from the Step round trips
    // it explains.
    let sf_per_round = cell_sf as f64 / rounds.max(1) as f64;
    let blueprint_ms_per_round = (solves.max(0.0) * solve_ms + refines * refine_ms)
        / (rounds.max(1) as f64 / traced_stats.len() as f64);
    let transmit_ms_per_round = sf_per_round * transmit_ns / 1e6;
    let dispatch_ms = dispatch_us / 1e3;
    let round_explained = (transmit_ms_per_round + blueprint_ms_per_round) / threads + dispatch_ms;
    println!(
        "# accounting     fleet.round_ms {round_ms:.4}: transmit {:.4} + blueprint {:.4} over {threads} threads + dispatch {dispatch_ms:.4} = {round_explained:.4} explained, remainder {:.4} ms ({:.1}%)",
        transmit_ms_per_round / threads,
        blueprint_ms_per_round / threads,
        round_ms - round_explained,
        100.0 * (round_ms - round_explained) / round_ms
    );
    let (step_ratio, step_remainder) = match step_mean_ms {
        Some(step_mean) => {
            let burst = gen::serve_shape(w).burst as f64;
            let explained = (hello_us + queue_us) / 1e3 + burst * round_explained;
            println!(
                "# accounting     mean Step RTT {step_mean:.4} ms: hello {:.4} + queue {:.4} + {burst} x replayed round {round_explained:.4} = {explained:.4} explained, remainder {:.4} ms ({:.1}%)",
                hello_us / 1e3,
                queue_us / 1e3,
                step_mean - explained,
                100.0 * (step_mean - explained) / step_mean
            );
            (explained / step_mean, step_mean - explained)
        }
        None => {
            println!(
                "# accounting     no wire: Step accounting does not apply to {}",
                w.name()
            );
            (0.0, 0.0)
        }
    };
    println!(
        "# tracing        overhead {:.2}% of cell_subframes_per_s ({:.0} traced vs {:.0} plain)",
        overhead * 100.0,
        rate(&traced_stats),
        rate(&plain_stats)
    );
    println!("# self time per span:");
    for (name, d) in self_times(tracer.spans()) {
        println!("#   {name:<28} {:>10.3} ms", d.as_secs_f64() * 1e3);
    }
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    match std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&spans_path, tracer.to_jsonl()))
    {
        Ok(()) => println!(
            "# spans          {} written to {}",
            tracer.spans().len(),
            spans_path.display()
        ),
        Err(e) => problems.push(format!("writing {}: {e}", spans_path.display())),
    }

    m.push("traces.capture_ms", capture_ms, "ms");
    m.push("traces.capture_mb", capture_mb, "MiB");
    m.push("wire.hello_rtt_us", hello_us, "us");
    m.push("wire.codec_us", codec_us, "us");
    m.push("service.queue_us", queue_us, "us");
    m.push("service.status_us_per_cell", digest_us, "us");
    m.push("service.status_wait_ms", wait_ms, "ms");
    m.push("service.failed_ops", failed as f64, "count");
    m.push("fleet.round_ms", round_ms, "ms");
    m.push("fleet.rounds", rounds as f64, "count");
    m.push("fleet.dispatch_us", dispatch_us, "us");
    m.push("fleet.cpu_per_wall", cpu_per_wall, "ratio");
    m.push("engine.transmit_ns_per_subframe", transmit_ns, "ns");
    m.push("phy.zf_ns_per_rb", zf_ns, "ns");
    m.push("sched.schedule_us", sched_us, "us");
    m.push("blueprint.solve_ms", solve_ms, "ms");
    m.push("blueprint.refine_ms", refine_ms, "ms");
    m.push("stream.window_ns", window_ns, "ns");
    m.push("stream.refines", refines, "count");
    m.push(
        "stream.installed_ratio",
        if refines > 0.0 {
            installed / refines
        } else {
            0.0
        },
        "ratio",
    );
    m.push("checkpoint.save_us", save_us, "us");
    m.push("checkpoint.load_us", load_us, "us");
    m.push("checkpoint.bytes", bytes, "bytes");
    m.push("supervisor.restarts", storm_layers.restarts, "count");
    m.push(
        "supervisor.disk_restores",
        storm_layers.disk_restores,
        "count",
    );
    m.push("fleetcache.hit_ratio", storm_layers.hit_ratio, "ratio");
    m.push("accounting.step_explained_ratio", step_ratio, "ratio");
    m.push("accounting.step_remainder_ms", step_remainder, "ms");
    m.push(
        "accounting.round_explained_ratio",
        round_explained / round_ms,
        "ratio",
    );
    m.push(
        "accounting.round_remainder_ms",
        round_ms - round_explained,
        "ms",
    );
    m.push("trace.overhead_ratio", overhead, "ratio");
    finish(&m, problems, attempted, failed)
}
