//! Correctness gate: per-cell outcome records, compared bit-exactly
//! against a committed reference (the default seed) or against a
//! second run of the same cells (any other seed).

use std::fmt::Write as _;
use std::path::Path;

/// What one cell's run must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Episode the cell ran in.
    pub episode: usize,
    /// Cell index within its episode.
    pub cell: usize,
    /// Digest of the cell's final state (the daemon's `Status`
    /// digest, or a digest of the batch report).
    pub digest: String,
    /// Effective UL throughput in simulated time, Mbit/s.
    pub ul_mbps: f64,
    /// RB-grants issued.
    pub rbs_scheduled: u64,
    /// RB-grants that delivered data.
    pub rbs_utilized: u64,
}

impl CellRecord {
    fn to_line(&self) -> String {
        format!(
            "{} {} {} {:016x} {} {}",
            self.episode,
            self.cell,
            self.digest,
            self.ul_mbps.to_bits(),
            self.rbs_scheduled,
            self.rbs_utilized
        )
    }

    fn from_line(line: &str) -> Option<CellRecord> {
        let mut it = line.split_whitespace();
        let record = CellRecord {
            episode: it.next()?.parse().ok()?,
            cell: it.next()?.parse().ok()?,
            digest: it.next()?.to_string(),
            ul_mbps: f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?),
            rbs_scheduled: it.next()?.parse().ok()?,
            rbs_utilized: it.next()?.parse().ok()?,
        };
        it.next().is_none().then_some(record)
    }
}

/// Serialize records, one per line (`ul_mbps` as its IEEE-754 bits).
pub fn render(records: &[CellRecord]) -> String {
    let mut out = String::from("# episode cell digest ul_mbps_bits rbs_scheduled rbs_utilized\n");
    for r in records {
        let _ = writeln!(out, "{}", r.to_line());
    }
    out
}

/// Parse [`render`]'s output.
pub fn parse(text: &str) -> Result<Vec<CellRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| CellRecord::from_line(l).ok_or_else(|| format!("bad reference line: {l}")))
        .collect()
}

/// Read a reference file.
pub fn load(path: &Path) -> Result<Vec<CellRecord>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&text)
}

/// Every difference between `expected` and `got`, keyed by
/// (episode, cell). Cells present in only one of the two are reported
/// only when `got` lacks them; `got` may cover fewer episodes than the
/// reference when the run was shorter.
pub fn compare(what: &str, expected: &[CellRecord], got: &[CellRecord]) -> Vec<String> {
    let mut diffs = Vec::new();
    let max_episode = got.iter().map(|r| r.episode).max();
    for e in expected {
        if max_episode.is_none_or(|m| e.episode > m) {
            continue;
        }
        let Some(g) = got
            .iter()
            .find(|g| g.episode == e.episode && g.cell == e.cell)
        else {
            diffs.push(format!(
                "{what}: episode {} cell {} is missing",
                e.episode, e.cell
            ));
            continue;
        };
        let at = format!("{what}: episode {} cell {}", e.episode, e.cell);
        if g.digest != e.digest {
            diffs.push(format!("{at}: digest {} != {}", g.digest, e.digest));
        }
        if g.ul_mbps.to_bits() != e.ul_mbps.to_bits() {
            diffs.push(format!("{at}: ul_mbps {} != {}", g.ul_mbps, e.ul_mbps));
        }
        if (g.rbs_scheduled, g.rbs_utilized) != (e.rbs_scheduled, e.rbs_utilized) {
            diffs.push(format!(
                "{at}: rbs {}/{} != {}/{}",
                g.rbs_utilized, g.rbs_scheduled, e.rbs_utilized, e.rbs_scheduled
            ));
        }
    }
    diffs
}

/// FNV-1a-64 of `text`, hex — the digest the batch fleet's reports are
/// fingerprinted with (the daemon's own digest uses the same hash).
pub fn fnv64(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<CellRecord> {
        (0..2)
            .flat_map(|episode| {
                (0..3).map(move |cell| CellRecord {
                    episode,
                    cell,
                    digest: fnv64(&format!("{episode}/{cell}")),
                    ul_mbps: 1.0 / (3.0 + cell as f64),
                    rbs_scheduled: 1_000 + cell as u64,
                    rbs_utilized: 900 + cell as u64,
                })
            })
            .collect()
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let r = records();
        assert_eq!(parse(&render(&r)).unwrap(), r);
        assert!(compare("x", &r, &r).is_empty());
    }

    #[test]
    fn gate_rejects_a_perturbed_digest() {
        let reference = records();
        let mut got = reference.clone();
        got[4].digest = fnv64("tampered");
        let diffs = compare("x", &reference, &got);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("episode 1 cell 1: digest"));
    }

    #[test]
    fn gate_rejects_a_perturbed_ul_mbps() {
        let reference = records();
        let mut got = reference.clone();
        // One ulp: the gate is bit-exact, not approximately equal.
        got[2].ul_mbps = f64::from_bits(got[2].ul_mbps.to_bits() + 1);
        let diffs = compare("x", &reference, &got);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("ul_mbps"));
    }

    #[test]
    fn gate_rejects_a_missing_cell_but_not_a_shorter_run() {
        let reference = records();
        let mut got = reference.clone();
        got.remove(1);
        assert_eq!(compare("x", &reference, &got).len(), 1);
        let first_episode: Vec<CellRecord> = reference
            .iter()
            .filter(|r| r.episode == 0)
            .cloned()
            .collect();
        assert!(compare("x", &reference, &first_episode).is_empty());
    }
}
