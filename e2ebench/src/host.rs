//! Host facts recorded with every result, this process's peak memory,
//! and the last-resort cleanup of worker processes.

use std::process::{Command, Stdio};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restart the peak-resident-set counter (`VmHWM`) at the current resident
/// set, so the next [`peak_rss_mib`] covers only what ran in between.
/// False where `/proc/self/clear_refs` is unavailable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`), if `/proc` says.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, if readable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of the host's CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings (0 on bare metal).
pub fn steal_share(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (a?, b?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// The CPU model string from `/proc/cpuinfo`, if present.
pub fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
}

/// The commit of the source tree, when the benchmark runs inside a git
/// checkout; `None` otherwise (an exported tree carries no history).
pub fn git_commit() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !sha.is_empty()).then_some(sha)
}

/// The compiler that built this binary (captured by the build script).
pub fn rustc_version() -> &'static str {
    env!("E2E_RUSTC_VERSION")
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// SIGKILL every direct child of this process (the worker kernels a
/// wedged `NetEngine` spawned) and return how many were signalled. Uses
/// the Linux `/proc/self/task/*/children` lists.
pub fn kill_children() -> usize {
    const SIGKILL: i32 = 9;
    let mut killed = 0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    for task in tasks.flatten() {
        let Ok(list) = std::fs::read_to_string(task.path().join("children")) else {
            continue;
        };
        for pid in list
            .split_whitespace()
            .filter_map(|p| p.parse::<i32>().ok())
        {
            // SAFETY: kill(2) has no memory-safety preconditions; a stale
            // pid at worst fails with ESRCH.
            if unsafe { kill(pid, SIGKILL) } == 0 {
                killed += 1;
            }
        }
    }
    killed
}
