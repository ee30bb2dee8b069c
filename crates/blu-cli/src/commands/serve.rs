//! `blu serve` — run the resident fleet daemon.
//!
//! Binds a TCP socket, resumes any persisted fleet (with `--resume`),
//! and serves the wire protocol until a shutdown command or a
//! SIGINT/SIGTERM arrives; either triggers the graceful path (stop
//! admissions → final fleet checkpoint → clean exit). Drive it with
//! `blu ctl`.
//!
//! ```text
//! blu serve --dir /tmp/fleet --addr 127.0.0.1:0 --port-file /tmp/fleet.addr
//! blu ctl --addr-file /tmp/fleet.addr add --seed 7 --seconds 30
//! blu ctl --addr-file /tmp/fleet.addr step --rounds 500
//! blu ctl --addr-file /tmp/fleet.addr status
//! blu ctl --addr-file /tmp/fleet.addr shutdown
//! ```

use crate::args::Flags;
use blu_core::blueprint::FleetBlueprintCache;
use blu_core::orchestrator::BluConfig;
use blu_core::robust::RobustConfig;
use blu_core::runtime::supervisor::{SheddingPolicy, SupervisorConfig};
use blu_core::runtime::{BluService, ServiceConfig};
use blu_core::EmulationConfig;
use blu_phy::cell::CellConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

const HELP: &str = "blu serve — resident fleet daemon with admission control and crash-safe resume

SOCKET:
    --addr <host:port>     listen address (default 127.0.0.1:0 = ephemeral)
    --port-file <path>     write the actually-bound address here once
                           listening (atomic rename; lets scripts use :0)
    --max-frame <bytes>    per-frame payload ceiling (default 1 MiB)
    --read-timeout-ms <ms> per-connection read deadline (default 5000)
    --queue-depth <n>      control-command queue bound; a full queue
                           answers Busy (default 16)

FLEET:
    --dir <path>           checkpoint directory (required)
    --resume               resume every cell persisted in --dir
    --max-cells <n>        admission budget (default 64)
    --cadence-ms <ms>      step the fleet every <ms> (0 = manual via
                           `blu ctl step`, the default)
    --every-subframes <sf> grid-aligned checkpoint cadence (default 2000)
    --high <pressure>      shed low-priority cells above this fleet
                           inference pressure (default: off)
    --low <pressure>       re-admit one shed cell per round at or below
                           this (default: --high)
    --max-restarts <n>     per-cell restarts before quarantine (default 3)
    --rbs <n>              resource blocks per cell (default 10)
    --seed <u64>           robust-loop seed (default 0xD1F7)
    --fleet-cache-capacity <n>  share blue-printing results through the
                           fleet blueprint cache (0 = off, the default)
    --stream-window <sf>   run every cell in streaming mode with this
                           observation-window capacity (0 = phased, the
                           default; per-cell `blu ctl add --window` still
                           overrides upward from phased)

SIGINT/SIGTERM drain gracefully: admissions close, every cell persists
a final checkpoint + sidecar, and the process exits 0. A later
`blu serve --resume --dir <same>` replays to bit-identical state.";

/// Set by the SIGINT/SIGTERM handlers; polled by the serve loop.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    // Declared directly (no libc crate in the workspace): SIGINT=2,
    // SIGTERM=15 on every supported platform.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "dir",
            "addr",
            "port-file",
            "rbs",
            "seed",
            "fleet-cache-capacity",
            "stream-window",
            "high",
            "low",
            "every-subframes",
            "max-cells",
            "queue-depth",
            "max-frame",
            "max-restarts",
            "read-timeout-ms",
            "cadence-ms",
        ],
        &["help", "resume"],
    )?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let dir = PathBuf::from(
        flags
            .get("dir")
            .ok_or("--dir <path> is required (the checkpoint directory)")?,
    );

    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = flags.get_or("rbs", 10usize)?;
    let mut robust = RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)));
    robust.seed = flags.get_or("seed", robust.seed)?;
    if let cap @ 1.. = flags.get_or("fleet-cache-capacity", 0usize)? {
        robust.fleet_cache = Some(std::sync::Arc::new(FleetBlueprintCache::new(cap)));
    }
    if let window @ 1.. = flags.get_or("stream-window", 0usize)? {
        let streaming = blu_core::robust::StreamingConfig::new(window);
        streaming.validate().map_err(|e| e.to_string())?;
        robust.streaming = Some(streaming);
    }

    let high = flags.get_or("high", f64::INFINITY)?;
    let low = flags.get_or("low", high)?;
    let mut config = ServiceConfig::new(robust, dir);
    config.addr = flags.get_or("addr", config.addr)?;
    config.resume = flags.has("resume");
    config.every_subframes = flags.get_or("every-subframes", config.every_subframes)?;
    config.max_cells = flags.get_or("max-cells", config.max_cells)?;
    config.queue_depth = flags.get_or("queue-depth", config.queue_depth)?;
    config.max_frame = flags.get_or("max-frame", config.max_frame)?;
    config.read_timeout_ms = flags.get_or("read-timeout-ms", config.read_timeout_ms)?;
    config.cadence_ms = flags.get_or("cadence-ms", 0u64)?;
    config.supervisor = SupervisorConfig {
        max_restarts: flags.get_or("max-restarts", 3u32)?,
        // The default, an infinite high watermark, never sheds.
        shedding: high.is_finite().then(|| SheddingPolicy {
            high_watermark: high,
            low_watermark: low,
            priorities: Vec::new(),
        }),
        ..SupervisorConfig::default()
    };

    super::quiet_injected_panics();
    install_signal_handlers();
    let handle = BluService::start(config).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    println!("blu serve: listening on {addr}");
    if let Some(port_file) = flags.get("port-file") {
        let tmp = format!("{port_file}.tmp");
        std::fs::write(&tmp, addr.to_string())
            .and_then(|()| std::fs::rename(&tmp, port_file))
            .map_err(|e| format!("writing --port-file {port_file}: {e}"))?;
    }

    // Serve until a wire `shutdown` stops the engine (which raises the
    // shared flag) or a signal lands; then drain gracefully.
    let engine_stop = handle.stop_flag();
    while !STOP.load(Ordering::SeqCst) && !engine_stop.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    if STOP.load(Ordering::SeqCst) {
        println!("blu serve: signal received, draining");
    }
    handle.shutdown();
    handle.wait().map_err(|e| e.to_string())?;
    println!("blu serve: stopped cleanly");
    Ok(())
}
