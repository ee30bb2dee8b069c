//! Versioned, atomically written snapshots of the robust
//! orchestrator.
//!
//! An eNB restart must not discard hours of accumulated measurement
//! evidence, and a resumed run must be **bit-identical** to one that
//! never stopped — so the snapshot captures every piece of mutable
//! loop state, including the RNG streams (observation channel, poison
//! source, breaker jitter), not just the blueprint.
//!
//! ## Durability
//!
//! Saves are atomic at the filesystem level: the JSON is written to a
//! `<file>.tmp` sibling, fsynced, and then `rename`d over the target,
//! so a crash mid-write leaves either the previous complete
//! checkpoint or a stray temp file — never a torn snapshot at the
//! load path. On Unix the parent directory is fsynced after the
//! rename as well: without it the rename lives only in the directory
//! page cache, and a power loss could roll the directory entry back
//! to the old (or no) checkpoint even though the data blocks hit
//! disk.
//!
//! ## Versioning
//!
//! The on-disk document is `{"version": N, "snapshot": {…}}`. Loading
//! first parses to a raw [`serde::Value`] tree and probes `version`
//! **before** attempting the full typed decode, so a format bump
//! surfaces as the precise [`BluError::CheckpointVersion`] — not as a
//! misleading field-by-field decode failure deep inside the snapshot.
//! Any schema change to [`crate::robust::RobustSnapshot`] that is not
//! purely additive (the vendored serde ignores unknown fields and
//! tolerates missing `Option`s) must bump [`CHECKPOINT_VERSION`].

use crate::error::BluError;
use crate::robust::RobustSnapshot;
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::path::Path;

/// Snapshot-format version written and required by this build.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The on-disk checkpoint document: a version tag wrapping the
/// orchestrator snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustCheckpoint {
    /// Snapshot-format version (see [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The orchestrator state proper.
    pub snapshot: RobustSnapshot,
}

/// The on-disk document of [`RobustCheckpoint`], borrowing its
/// snapshot: a save serializes the cell's state in place instead of
/// cloning it into the owned document first. Same bytes as the
/// derived `Serialize` of [`RobustCheckpoint`] (pinned by the
/// checkpoint golden and the emitter differential test).
pub(crate) struct CheckpointRef<'a>(pub(crate) &'a RobustSnapshot);

impl Serialize for CheckpointRef<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("RobustCheckpoint", 2)?;
        st.serialize_field("version", &CHECKPOINT_VERSION)?;
        st.serialize_field("snapshot", self.0)?;
        st.end()
    }
}

/// A checkpoint-file failure naming the file: `"<what> <path>: <e>"`.
pub(crate) fn io_err(what: &str, path: &Path, e: impl std::fmt::Display) -> BluError {
    BluError::Checkpoint(format!("{what} {}: {e}", path.display()))
}

/// Whether a cell whose cursor moved from `last_saved` to `cursor`
/// is due an interval save: the cursor crossed a multiple of
/// `every_subframes` (0 = never). A grid, not a distance since the
/// last save, so the on-disk restore points are a pure function of
/// the step sequence and a killed-and-resumed run re-creates the
/// checkpoints of an uninterrupted one.
pub(crate) fn save_due(every_subframes: u64, last_saved: u64, cursor: u64) -> bool {
    every_subframes > 0 && cursor / every_subframes != last_saved / every_subframes
}

/// Atomically write `snapshot` (wrapped in the current format
/// version) to `path` (`write_json_atomic`), then fsync the parent
/// directory so the rename itself is durable (Unix only; other
/// platforms have no portable directory-sync primitive).
pub fn save_robust_checkpoint(path: &Path, snapshot: &RobustSnapshot) -> Result<(), BluError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).map_err(|e| io_err("creating directory for", path, e))?;
        }
    }
    write_json_atomic(path, &CheckpointRef(snapshot))?;
    sync_parent_dir(path)
}

/// Write `value` as pretty JSON to `path` atomically: serialize,
/// write to a `.tmp` sibling, fsync, rename into place. Supervisor
/// sidecars are written this way too.
pub(crate) fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> Result<(), BluError> {
    use std::io::Write;
    let json = serde_json::to_string_pretty(value).map_err(|e| io_err("serializing", path, e))?;
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
    f.write_all(json.as_bytes())
        .map_err(|e| io_err("writing", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("renaming into place", path, e))
}

/// Fsync the directory containing `path` so the rename that installed
/// the checkpoint survives a power loss. A relative path with no
/// parent component syncs the current directory.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> Result<(), BluError> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let handle = fs::File::open(dir).map_err(|e| io_err("opening directory of", path, e))?;
    handle
        .sync_all()
        .map_err(|e| io_err("syncing directory of", path, e))?;
    Ok(())
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> Result<(), BluError> {
    Ok(())
}

/// Load a checkpoint, verifying the format version before decoding
/// the snapshot body.
pub fn load_robust_checkpoint(path: &Path) -> Result<RobustSnapshot, BluError> {
    let text = fs::read_to_string(path).map_err(|e| io_err("reading", path, e))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| io_err("parsing", path, e))?;
    let map = value
        .as_map()
        .ok_or_else(|| io_err("decoding", path, "top-level value is not an object"))?;
    let found = serde::field(map, "version")
        .and_then(Value::as_u128)
        .ok_or_else(|| io_err("decoding", path, "missing or non-integer `version` field"))?;
    if found != u128::from(CHECKPOINT_VERSION) {
        return Err(BluError::CheckpointVersion {
            found: u32::try_from(found).unwrap_or(u32::MAX),
            expected: CHECKPOINT_VERSION,
        });
    }
    let doc: RobustCheckpoint =
        serde_json::from_value(&value).map_err(|e| io_err("decoding", path, e))?;
    Ok(doc.snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::breaker::BreakerConfig;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("blu-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_reopen_round_trips_durably() {
        let dir = scratch_dir("reopen");
        let path = dir.join("nested").join("cell-0.json");
        let mut snap = RobustSnapshot::fresh(4, 10_000, 0xFEED, BreakerConfig::default());
        snap.cursor = 1234;

        save_robust_checkpoint(&path, &snap).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp sibling must be renamed away, not left behind"
        );
        // Drop every in-memory handle and reopen from the path alone —
        // the only state that survives a crash.
        let reloaded = load_robust_checkpoint(&path).unwrap();
        assert_eq!(reloaded, snap);

        // Overwrite with new state: the rename must replace, and the
        // directory fsync must not error on the second pass either.
        snap.cursor = 5678;
        save_robust_checkpoint(&path, &snap).unwrap();
        assert_eq!(load_robust_checkpoint(&path).unwrap().cursor, 5678);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn relative_path_without_parent_saves_in_cwd_sync() {
        // `sync_parent_dir` must handle a bare filename (empty parent)
        // by syncing ".", not by erroring out.
        let snap = RobustSnapshot::fresh(2, 1_000, 7, BreakerConfig::default());
        let name = format!("blu-ckpt-bare-{}.json", std::process::id());
        let path = Path::new(&name);
        save_robust_checkpoint(path, &snap).unwrap();
        assert_eq!(load_robust_checkpoint(path).unwrap(), snap);
        let _ = fs::remove_file(path);
    }
}
