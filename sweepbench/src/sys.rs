//! Process and machine readings taken from `/proc` and the checkout,
//! with no dependency beyond the standard library.

use std::path::Path;

/// Clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported these in USER_HZ = 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Process user + system CPU seconds so far, threads that already
/// exited included (`utime` + `stime` of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Peak resident set size of the process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores the process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else { continue };
        let (Some(mount), Some(fstype)) =
            (left.split_whitespace().nth(4), right.split_whitespace().next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).map(|h| h.trim().to_string()).filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..3_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(available_parallelism() >= 1);
        assert_ne!(filesystem_of(Path::new(".")), "");
    }
}
