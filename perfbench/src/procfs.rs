//! The few `/proc` readings the benchmark needs: peak RSS, its reset,
//! and per-thread CPU time.

use std::collections::BTreeMap;
use std::io;

/// `VmHWM` of this process in KiB.
pub fn vm_hwm_kib() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_status_kib(&status, "VmHWM:")
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Resets `VmHWM` to the current RSS, so memory freed before this call
/// cannot set the peak read later.
pub fn reset_hwm() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Kernel thread id of the calling thread.
pub fn thread_id() -> io::Result<u32> {
    let link = std::fs::read_link("/proc/thread-self")?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| io::Error::other(format!("unexpected /proc/thread-self -> {link:?}")))
}

/// On-CPU nanoseconds of the calling thread.
pub fn own_cpu_ns() -> io::Result<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other(format!("unexpected schedstat {text:?}")))
}

/// On-CPU nanoseconds of every live thread of this process, by thread
/// id (first field of `/proc/self/task/<tid>/schedstat`).
pub fn thread_cpu_ns() -> io::Result<BTreeMap<u32, u64>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) {
            if let Some(ns) = text.split_whitespace().next().and_then(|v| v.parse().ok()) {
                out.insert(tid, ns);
            }
        }
    }
    Ok(out)
}

/// CPU nanoseconds spent between two [`thread_cpu_ns`] readings by the
/// threads not in `exclude`. A thread born in between counts from zero.
pub fn cpu_ns_excluding(
    before: &BTreeMap<u32, u64>,
    after: &BTreeMap<u32, u64>,
    exclude: &[u32],
) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_status_fields() {
        let status = "Name:\tperfbench\nVmPeak:\t  10 kB\nVmHWM:\t    1300 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(1300));
        assert_eq!(parse_status_kib(status, "VmSwap:"), None);
        assert!(vm_hwm_kib().unwrap() > 0);
    }

    #[test]
    fn cpu_excludes_named_threads() {
        let before = BTreeMap::from([(1, 100), (2, 50), (3, 7)]);
        let after = BTreeMap::from([(1, 160), (2, 90), (4, 5)]);
        // Thread 3 exited, thread 4 was born; thread 2 is excluded.
        assert_eq!(cpu_ns_excluding(&before, &after, &[2]), 60 + 5);
        let me = thread_id().unwrap();
        assert!(thread_cpu_ns().unwrap().contains_key(&me));
        // The kernel updates a running thread's figure at scheduler
        // events, so spin past a few ticks before reading it.
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(30) {}
        assert!(own_cpu_ns().unwrap() > 0);
    }
}
