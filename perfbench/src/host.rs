//! What every result is stamped with, and the process-level gauges
//! (peak RSS, CPU time) read from `/proc`.

use std::collections::BTreeMap;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host stamp: CPUs, OS, compiler, source revision, build profile.
pub fn stamp() -> BTreeMap<&'static str, String> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    BTreeMap::from([
        ("nproc", nproc().to_string()),
        ("os", format!("{} {}", std::env::consts::OS, kernel.trim()).trim().to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
        ("rustc", rustc),
        ("git_rev", git_rev()),
        ("profile", profile.to_string()),
    ])
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git; a source tree that is not a git checkout says so.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|line| line.ends_with(reference))
                        .and_then(|line| line.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

/// `VmHWM` (peak resident set) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this guest wanted the CPU.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// User plus system CPU time of this process, seconds (clock ticks of
/// `/proc/self/stat`, 100 per second on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}
