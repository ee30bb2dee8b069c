//! Length-prefixed binary wire protocol for the `blu serve` daemon.
//!
//! One frame = a 4-byte big-endian payload length followed by exactly
//! that many payload bytes; the payload is the JSON encoding of one
//! [`Request`] or [`Response`]. The framing layer is deliberately
//! paranoid — it is the daemon's exposure surface to arbitrary bytes:
//!
//! * the length prefix is validated **before** any payload allocation
//!   — zero or beyond the configured frame limit is a typed
//!   [`BluError::Wire`], so a hostile prefix can neither allocate
//!   unbounded memory nor wedge the reader;
//! * truncation anywhere (inside the prefix, inside the payload) is a
//!   typed error, never a hang — reads run under the socket's read
//!   deadline, and a timeout surfaces as `Wire` too;
//! * a connection closing *cleanly between frames* is not an error
//!   ([`read_frame`] returns `Ok(None)`), so client disconnects and
//!   malformed clients are distinguishable;
//! * payload decode failures (garbage bytes, unknown commands,
//!   type-mismatched fields) are typed errors carried back to the
//!   client as a [`Response::Error`] frame where possible.
//!
//! Every request/response type here is plain serde data — the daemon
//! in [`super::service`] owns all behavior.

use crate::engine::context::OrchestratorState;
use crate::error::BluError;
use crate::runtime::supervisor::CellHealth;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Protocol version spoken by this build. A [`Request::Hello`] with a
/// different version is answered with [`Response::Error`].
pub const WIRE_VERSION: u32 = 1;

/// Default ceiling on one frame's payload, in bytes (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Bytes of the frame length prefix.
pub const FRAME_HEADER_LEN: usize = 4;

/// Longest cell trace a spec may ask for, in seconds: 5× the longest
/// cell the benchmark and CI run. The daemon synthesises the whole
/// capture on its engine thread at admission; admitting one 600 s cell
/// grows a release daemon's resident set by about 32 MiB (6.6 MiB for
/// a 120 s cell).
pub const MAX_CELL_SECONDS: u64 = 600;

/// Highest churn rate a spec may ask for, in milli-hertz (10 events
/// per second, 20× the benchmark's churn cells): every event becomes
/// fault-script entries of the capture.
pub const MAX_CHURN_MILLIHZ: u64 = 10_000;

/// A cell's workload specification: the daemon synthesizes the cell's
/// capture deterministically from this (same generator as `blu
/// chaos`), so the spec is also the resume record — a restarted
/// daemon regenerates the identical trace from the persisted spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Capture seed: topology, activity and SNR streams derive from
    /// it.
    pub seed: u64,
    /// Trace duration in seconds.
    pub seconds: u64,
    /// Admission priority (higher = shed last, re-admitted first).
    pub priority: u32,
    /// Optional scripted inference stall: the sub-frame it starts at.
    pub stall_at: Option<u64>,
    /// Stall wall-clock multiplier (1 = healthy; only meaningful with
    /// `stall_at`).
    pub stall_factor: u32,
    /// Poisson topology-churn rate in **milli-hertz** (events per
    /// 1000 s), `0` = no churn. Kept integral so `CellSpec` stays
    /// `Eq`-comparable and byte-stable as a resume record.
    pub churn_millihz: u64,
    /// Streaming observation-window capacity in sub-frames; `0` runs
    /// the cell in the phased (non-streaming) loop.
    pub stream_window: u64,
}

impl CellSpec {
    /// A healthy cell spec with default priority.
    pub fn new(seed: u64, seconds: u64) -> Self {
        CellSpec {
            seed,
            seconds,
            priority: 0,
            stall_at: None,
            stall_factor: 1,
            churn_millihz: 0,
            stream_window: 0,
        }
    }

    /// The churn rate in hertz (`churn_millihz / 1000`).
    pub fn churn_rate_hz(&self) -> f64 {
        self.churn_millihz as f64 / 1_000.0
    }

    /// Reject specs the capture generator or the supervisor would
    /// choke on.
    pub fn validate(&self) -> Result<(), BluError> {
        if self.seconds == 0 || self.seconds > MAX_CELL_SECONDS {
            return Err(BluError::InvalidConfig(format!(
                "cell spec seconds must be in 1..={MAX_CELL_SECONDS}, got {}",
                self.seconds
            )));
        }
        if self.churn_millihz > MAX_CHURN_MILLIHZ {
            return Err(BluError::InvalidConfig(format!(
                "cell spec churn_millihz must be at most {MAX_CHURN_MILLIHZ}, got {}",
                self.churn_millihz
            )));
        }
        if self.stall_factor == 0 {
            return Err(BluError::InvalidConfig(
                "cell spec stall_factor must be >= 1".into(),
            ));
        }
        if self.stream_window > crate::robust::MAX_STREAM_WINDOW as u64 {
            return Err(BluError::InvalidConfig(format!(
                "cell spec stream_window must be at most {} sub-frames, got {}",
                crate::robust::MAX_STREAM_WINDOW,
                self.stream_window
            )));
        }
        Ok(())
    }
}

/// A client → daemon command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: announces the client's protocol version.
    Hello {
        /// Client protocol version.
        version: u32,
    },
    /// Admit a new cell (admission-controlled).
    AddCell {
        /// The cell's workload spec.
        spec: CellSpec,
    },
    /// Retire a cell: final checkpoint, then drop it from the fleet.
    RemoveCell {
        /// Cell id to retire.
        cell: u64,
    },
    /// Step the whole fleet `rounds` rounds (manual-cadence driving;
    /// also legal alongside a timed cadence).
    Step {
        /// Rounds to step.
        rounds: u64,
    },
    /// Per-cell status report with state digests.
    Status,
    /// Prometheus-style text counters.
    Metrics,
    /// Force-persist every cell's checkpoint and sidecar now.
    Snapshot,
    /// Stop admissions; the daemon keeps stepping resident cells.
    Drain,
    /// Graceful shutdown: stop admissions, final checkpoint, exit.
    Shutdown,
}

/// Per-cell slice of a [`StatusReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStatus {
    /// Cell id (stable across the daemon's lifetime and across
    /// resume).
    pub cell: u64,
    /// Supervisor health.
    pub health: CellHealth,
    /// Orchestrator state-machine position.
    pub state: OrchestratorState,
    /// Trace cursor, in sub-frames.
    pub cursor: u64,
    /// Total sub-frames in the cell's trace.
    pub trace_len: u64,
    /// Whether the trace is exhausted.
    pub done: bool,
    /// Restarts consumed.
    pub restarts: u32,
    /// Whether the cell is currently shed to PF fallback.
    pub shed: bool,
    /// Rounds spent shed so far.
    pub shed_rounds: u64,
    /// Admission priority.
    pub priority: u32,
    /// FNV-1a-64 digest (hex) of the cell's timing-normalized
    /// snapshot: two runs are bit-identical iff their digests match.
    pub digest: String,
    /// Streaming observation-window occupancy, in sub-frame
    /// observations (`0` for phased cells).
    pub window_occupancy: u64,
    /// Streaming observation-window capacity (`0` for phased cells).
    pub window_capacity: u64,
}

/// Daemon-side counters, surfaced through `Status` and `Metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceCounters {
    /// Cells admitted.
    pub admissions: u64,
    /// Admissions rejected (budget exhausted or draining).
    pub rejections: u64,
    /// Commands answered `Busy` because the command queue was full.
    pub busy_responses: u64,
    /// Malformed frames received (each one also closes its
    /// connection).
    pub malformed_frames: u64,
    /// Fleet rounds stepped.
    pub rounds: u64,
    /// Cells shed to PF under backpressure.
    pub shed_events: u64,
    /// Shed cells re-admitted.
    pub readmit_events: u64,
    /// Total cell-rounds served in shed (PF-only) mode.
    pub shed_rounds_total: u64,
    /// Supervisor restarts across the fleet.
    pub restarts: u64,
    /// Cells currently quarantined.
    pub quarantined: u64,
    /// Cells resumed from disk at daemon startup.
    pub resumed_cells: u64,
}

/// Full daemon status snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Wire protocol version of the daemon.
    pub version: u32,
    /// Whether admissions are closed (drain in progress).
    pub draining: bool,
    /// Configured admission budget.
    pub max_cells: u64,
    /// Daemon counters.
    pub counters: ServiceCounters,
    /// Per-cell status, in cell-id order.
    pub cells: Vec<CellStatus>,
}

/// A daemon → client reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    Hello {
        /// Daemon protocol version.
        version: u32,
        /// Cells restored from the checkpoint directory at startup.
        resumed_cells: u64,
    },
    /// Command applied. `cell` carries the assigned id for `AddCell`.
    Done {
        /// Cell id the command created or removed, when applicable.
        cell: Option<u64>,
    },
    /// The daemon's command queue is full — backpressure, try again.
    /// The command was **not** enqueued.
    Busy,
    /// Admission control refused the command.
    Rejected {
        /// Why admission was refused.
        reason: String,
    },
    /// Status reply.
    Status(StatusReport),
    /// Metrics reply (Prometheus text exposition format).
    Metrics {
        /// The exposition body.
        text: String,
    },
    /// The daemon acknowledged shutdown/drain and will close this
    /// connection.
    Bye,
    /// The command failed (or could not be decoded).
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame: 4-byte big-endian length, then the payload.
/// Payloads larger than `max_frame` are refused with a typed error
/// before anything is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: usize) -> Result<(), BluError> {
    if payload.is_empty() {
        return Err(BluError::Wire("refusing to write an empty frame".into()));
    }
    if payload.len() > max_frame {
        return Err(BluError::Wire(format!(
            "frame payload of {} bytes exceeds the {} byte limit",
            payload.len(),
            max_frame
        )));
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| BluError::Wire("frame payload exceeds u32::MAX bytes".into()))?;
    w.write_all(&len.to_be_bytes())
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| BluError::Wire(format!("writing frame: {e}")))
}

/// Read one frame. Returns `Ok(None)` on a clean close **at a frame
/// boundary** (zero bytes read); every other shortfall — a truncated
/// prefix, a truncated payload, a read timeout — is a typed
/// [`BluError::Wire`]. The length prefix is validated against
/// `max_frame` before the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, BluError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(BluError::Wire(format!(
                    "connection closed mid-prefix ({got} of {FRAME_HEADER_LEN} header bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(wire_io_error("reading frame prefix", &e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(BluError::Wire("zero-length frame".into()));
    }
    if len > max_frame {
        return Err(BluError::Wire(format!(
            "frame length prefix {len} exceeds the {max_frame} byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(BluError::Wire(format!(
                    "connection closed mid-frame ({got} of {len} payload bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(wire_io_error("reading frame payload", &e)),
        }
    }
    Ok(Some(payload))
}

fn wire_io_error(what: &str, e: &std::io::Error) -> BluError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            BluError::Wire(format!("{what}: read deadline exceeded"))
        }
        _ => BluError::Wire(format!("{what}: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

/// Encode a request as a frame payload.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, BluError> {
    serde_json::to_vec(req).map_err(|e| BluError::Wire(format!("encoding request: {e}")))
}

/// Decode a frame payload as a request (garbage → typed error).
pub fn decode_request(payload: &[u8]) -> Result<Request, BluError> {
    serde_json::from_slice(payload).map_err(|e| BluError::Wire(format!("decoding request: {e}")))
}

/// Encode a response as a frame payload.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, BluError> {
    serde_json::to_vec(resp).map_err(|e| BluError::Wire(format!("encoding response: {e}")))
}

/// Decode a frame payload as a response (garbage → typed error).
pub fn decode_response(payload: &[u8]) -> Result<Response, BluError> {
    serde_json::from_slice(payload).map_err(|e| BluError::Wire(format!("decoding response: {e}")))
}

/// Client-side round trip: send one request, read one response.
pub fn roundtrip(
    stream: &mut (impl Read + Write),
    req: &Request,
    max_frame: usize,
) -> Result<Response, BluError> {
    write_frame(stream, &encode_request(req)?, max_frame)?;
    match read_frame(stream, max_frame)? {
        Some(payload) => decode_response(&payload),
        None => Err(BluError::Wire(
            "daemon closed the connection without replying".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"world!", DEFAULT_MAX_FRAME).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"world!"
        );
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = vec![
            Request::Hello {
                version: WIRE_VERSION,
            },
            Request::AddCell {
                spec: CellSpec::new(7, 30),
            },
            Request::AddCell {
                spec: CellSpec {
                    churn_millihz: 200,
                    stream_window: 2_000,
                    ..CellSpec::new(11, 45)
                },
            },
            Request::RemoveCell { cell: 3 },
            Request::Step { rounds: 12 },
            Request::Status,
            Request::Metrics,
            Request::Snapshot,
            Request::Drain,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_request(&req).unwrap();
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
        let resp = Response::Rejected {
            reason: "budget".into(),
        };
        let bytes = encode_response(&resp).unwrap();
        assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn oversized_and_zero_prefixes_are_typed_errors() {
        // Length prefix claims 2 MiB against a 1 MiB limit: rejected
        // before allocation.
        let mut bytes = (2u32 << 20).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut Cursor::new(bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, BluError::Wire(ref m) if m.contains("exceeds")),
            "{err}"
        );

        let zero = 0u32.to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(zero), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, BluError::Wire(ref m) if m.contains("zero-length")),
            "{err}"
        );
    }

    #[test]
    fn truncated_prefix_and_payload_are_typed_errors() {
        // Two of four header bytes.
        let err = read_frame(&mut Cursor::new(vec![0u8, 0]), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, BluError::Wire(ref m) if m.contains("mid-prefix")),
            "{err}"
        );

        // Prefix promises 10 bytes, 3 arrive.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, BluError::Wire(ref m) if m.contains("mid-frame")),
            "{err}"
        );
    }

    #[test]
    fn garbage_payload_is_a_typed_decode_error() {
        for garbage in [
            b"not json at all".to_vec(),
            b"{\"Unknown\":{}}".to_vec(),
            b"{\"Step\":{\"rounds\":\"twelve\"}}".to_vec(),
            vec![0xFFu8; 32],
        ] {
            let err = decode_request(&garbage).unwrap_err();
            assert!(matches!(err, BluError::Wire(_)), "{err}");
        }
    }

    #[test]
    fn cell_spec_stream_window_is_bounded() {
        let spec = |stream_window| CellSpec {
            stream_window,
            ..CellSpec::new(1, 10)
        };
        assert!(spec(2_000).validate().is_ok());
        assert!(spec(crate::robust::MAX_STREAM_WINDOW as u64)
            .validate()
            .is_ok());
        for window in [
            crate::robust::MAX_STREAM_WINDOW as u64 + 1,
            1 << 40,
            u64::MAX,
        ] {
            assert!(
                matches!(spec(window).validate(), Err(BluError::InvalidConfig(_))),
                "stream_window {window} must be refused"
            );
        }
    }

    #[test]
    fn write_frame_refuses_oversize_and_empty() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &[0u8; 64], 16).unwrap_err(),
            BluError::Wire(_)
        ));
        assert!(matches!(
            write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap_err(),
            BluError::Wire(_)
        ));
        assert!(buf.is_empty(), "nothing written on refusal");
    }
}
