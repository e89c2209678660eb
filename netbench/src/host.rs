//! What a result was measured on: core counts, CPU model, build profile,
//! source commit, and the process's peak resident memory.

use std::fs;
use std::path::Path;

/// The host and build facts recorded with every result.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `std::thread::available_parallelism` (affinity and cgroup quota).
    pub available_parallelism: usize,
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The commit the benchmark was built from, or `unknown` outside a git
    /// checkout.
    pub commit: String,
}

impl HostInfo {
    /// Reads the facts of the running host and build.
    pub fn detect() -> HostInfo {
        HostInfo {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            nproc: allowed_cpus().unwrap_or(0),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Counts the CPUs in `Cpus_allowed_list` (e.g. `0-1,4`), the affinity mask
/// `nproc` reports.
fn allowed_cpus() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut count = 0;
    for part in list.split(',') {
        count += match part.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(count)
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_owned())
}

/// Resolves `HEAD` of the git directory under `root` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
