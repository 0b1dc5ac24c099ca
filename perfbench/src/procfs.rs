//! Process-level readings: peak resident memory, on-CPU and run-queue
//! time of the measuring thread, and bytes under a directory.

use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// This thread's scheduler counters: nanoseconds on CPU and nanoseconds
/// spent runnable but waiting in the run queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Nanoseconds waiting to run.
    pub wait_ns: u64,
}

impl Sched {
    /// Reads `/proc/thread-self/schedstat` (zeros if unavailable).
    pub fn now() -> Sched {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        Sched {
            cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
