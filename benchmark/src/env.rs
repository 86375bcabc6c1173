//! The environment a result was measured in, and the process's own
//! memory high-water mark.

use std::process::Command;

/// What a reader needs to judge whether two result sets are comparable.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub load_1min: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// One-minute load average right now (0 where `/proc` has none).
pub fn load_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

impl Environment {
    pub fn capture() -> Self {
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            // A checkout without .git (an exported tree) has no revision.
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            load_1min: load_1min(),
        }
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`). One
/// workload runs per process, so this is that workload's peak.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
