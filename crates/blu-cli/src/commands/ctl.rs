//! `blu ctl` — wire-protocol client for a running `blu serve` daemon.
//!
//! One verb per invocation, one frame each way, JSON (or raw metrics
//! text) on stdout — deliberately script-friendly: the CI smoke job
//! is a handful of `blu ctl` lines.
//!
//! ```text
//! blu ctl --addr 127.0.0.1:4915 add --seed 7 --seconds 30
//! blu ctl --addr-file /tmp/fleet.addr step --rounds 500
//! blu ctl --addr-file /tmp/fleet.addr wait-done --timeout-ms 120000
//! blu ctl --addr-file /tmp/fleet.addr digest
//! ```

use crate::args::Flags;
use blu_core::runtime::wire::{
    roundtrip, CellSpec, Request, Response, DEFAULT_MAX_FRAME, WIRE_VERSION,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const HELP: &str = "blu ctl — control a running `blu serve` daemon

CONNECTION:
    --addr <host:port>   daemon address
    --addr-file <path>   read the address from a `blu serve --port-file`
    --timeout-ms <ms>    socket read deadline for the reply (default 600000)

VERBS:
    hello                          handshake; prints daemon version and
                                   how many cells it resumed
    add --seed <u64> --seconds <s> admit a cell (deterministic capture)
        [--priority <n>]           shed-last/readmit-first weight (default 0)
        [--stall-at <sf>]          scripted inference stall start
        [--stall-factor <n>]       stall wall-clock multiplier (default 4)
        [--churn-rate <hz>]        Poisson topology churn rate (default 0 =
                                   off; stored as integral milli-hertz)
        [--window <sf>]            streaming observation-window capacity
                                   (default 0 = phased loop)
    remove --cell <id>             final checkpoint, then retire the cell
    step --rounds <n>              advance the fleet n rounds; Done once
                                   they are run, every cell is done, or
                                   a shutdown ends them. Other commands
                                   are answered between the rounds; a
                                   second step waits for this one
    status                         full JSON status report, including each
                                   streaming cell's window occupancy
    digest                         one `cell-<id> <fnv64>` line per cell
                                   (timing-normalized state digests)
    metrics                        Prometheus text counters
    snapshot                       force-persist every cell now
    drain                          close admissions, keep serving
    shutdown                       graceful stop: final checkpoints, exit
    wait-done [--min-cells <n>]    poll status until every cell's trace
              [--poll-ms <ms>]     is exhausted (default min 1 cell,
                                   poll 200 ms, bounded by --timeout-ms)

Busy and Rejected are protocol outcomes, printed and exited 0 — scripts
count them. Transport failures and daemon Errors exit nonzero.";

fn resolve_addr(flags: &Flags) -> Result<String, String> {
    if let Some(addr) = flags.get("addr") {
        return Ok(addr.to_string());
    }
    if let Some(path) = flags.get("addr-file") {
        return std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .map_err(|e| format!("reading --addr-file {path}: {e}"));
    }
    Err("one of --addr or --addr-file is required".into())
}

fn connect(addr: &str, timeout_ms: u64) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(timeout_ms)))
        .map_err(|e| format!("configuring socket: {e}"))?;
    Ok(stream)
}

fn send(addr: &str, timeout_ms: u64, req: &Request) -> Result<Response, String> {
    let mut stream = connect(addr, timeout_ms)?;
    roundtrip(&mut stream, req, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())
}

/// Print a reply and fold it into an exit status. `Busy`/`Rejected`
/// are expected protocol outcomes, not command failures.
fn report(resp: &Response) -> Result<(), String> {
    match resp {
        Response::Metrics { text } => {
            print!("{text}");
            Ok(())
        }
        Response::Error { message } => Err(format!("daemon error: {message}")),
        other => {
            println!(
                "{}",
                serde_json::to_string_pretty(other).map_err(|e| e.to_string())?
            );
            Ok(())
        }
    }
}

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "addr-file",
            "timeout-ms",
            "seed",
            "seconds",
            "priority",
            "stall-at",
            "stall-factor",
            "churn-rate",
            "window",
            "cell",
            "rounds",
            "min-cells",
            "poll-ms",
        ],
        &["help"],
    )?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let verb = flags
        .positional(0)
        .ok_or("a verb is required (see --help)")?;
    let addr = resolve_addr(&flags)?;
    let timeout_ms = flags.get_or("timeout-ms", 600_000u64)?;

    match verb {
        "hello" => report(&send(
            &addr,
            timeout_ms,
            &Request::Hello {
                version: WIRE_VERSION,
            },
        )?),
        "add" => {
            let spec = CellSpec {
                seed: flags.get_or("seed", 7u64)?,
                seconds: flags.get_or("seconds", 30u64)?,
                priority: flags.get_or("priority", 0u32)?,
                stall_at: flags
                    .get("stall-at")
                    .map(str::parse)
                    .transpose()
                    .map_err(|e: std::num::ParseIntError| format!("--stall-at: {e}"))?,
                stall_factor: flags.get_or("stall-factor", 4u32)?,
                churn_millihz: {
                    let rate: f64 = flags.get_or("churn-rate", 0.0f64)?;
                    if !rate.is_finite() || rate < 0.0 {
                        return Err(format!("--churn-rate must be finite and >= 0, got {rate}"));
                    }
                    (rate * 1_000.0).round() as u64
                },
                stream_window: flags.get_or("window", 0u64)?,
            };
            report(&send(&addr, timeout_ms, &Request::AddCell { spec })?)
        }
        "remove" => {
            let cell = flags.get_or("cell", u64::MAX)?;
            if cell == u64::MAX {
                return Err("remove requires --cell <id>".into());
            }
            report(&send(&addr, timeout_ms, &Request::RemoveCell { cell })?)
        }
        "step" => {
            let rounds = flags.get_or("rounds", 1u64)?;
            report(&send(&addr, timeout_ms, &Request::Step { rounds })?)
        }
        "status" => report(&send(&addr, timeout_ms, &Request::Status)?),
        "digest" => match send(&addr, timeout_ms, &Request::Status)? {
            Response::Status(report) => {
                for cell in &report.cells {
                    println!("cell-{} {}", cell.cell, cell.digest);
                }
                Ok(())
            }
            other => report(&other),
        },
        "metrics" => report(&send(&addr, timeout_ms, &Request::Metrics)?),
        "snapshot" => report(&send(&addr, timeout_ms, &Request::Snapshot)?),
        "drain" => report(&send(&addr, timeout_ms, &Request::Drain)?),
        "shutdown" => report(&send(&addr, timeout_ms, &Request::Shutdown)?),
        "wait-done" => {
            let min_cells = flags.get_or("min-cells", 1u64)?;
            let poll = Duration::from_millis(flags.get_or("poll-ms", 200u64)?);
            let deadline = Instant::now() + Duration::from_millis(timeout_ms);
            loop {
                match send(&addr, timeout_ms, &Request::Status)? {
                    Response::Status(status) => {
                        let done = status.cells.len() as u64 >= min_cells
                            && status.cells.iter().all(|c| c.done);
                        if done {
                            println!(
                                "all {} cell(s) done after {} round(s)",
                                status.cells.len(),
                                status.counters.rounds
                            );
                            return Ok(());
                        }
                    }
                    Response::Busy => {}
                    other => report(&other)?,
                }
                if Instant::now() >= deadline {
                    return Err(format!("wait-done timed out after {timeout_ms} ms"));
                }
                std::thread::sleep(poll);
            }
        }
        other => Err(format!("unknown ctl verb `{other}`\n\n{HELP}")),
    }
}
