//! Host and process readings from `/proc`.

use std::path::Path;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

fn status_kib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset this process's `VmHWM` to its current resident set size
/// (`/proc/self/clear_refs`, value 5); false where that is refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |k| k / 1024.0)
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS:").map_or(f64::NAN, |k| k / 1024.0)
}

/// User plus system CPU seconds of this process, all threads.
pub fn process_cpu_s() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesized command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Host-wide CPU steal seconds so far (all CPUs, from `/proc/stat`).
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let cpu = text.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |t| t / USER_HZ)
}

/// Type of the filesystem holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let _dev = it.next()?;
            let mount = it.next()?;
            let kind = it.next()?;
            abs.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Worker threads the fleet engine will use (`RAYON_NUM_THREADS`, else
/// the available parallelism).
pub fn fleet_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
