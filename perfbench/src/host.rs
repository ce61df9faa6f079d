//! Host facts recorded with every result, and process-level gauges read
//! from `/proc/self/status`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What a result depends on besides the code under test.
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub host_threads: usize,
    /// Compiler that built the benchmark and the library.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Commit of the source tree (`unknown` outside a git checkout).
    pub commit: &'static str,
    /// The workload seed.
    pub seed: u64,
}

impl HostFacts {
    /// Facts of this process, for a run with workload seed `seed`.
    pub fn collect(seed: u64) -> Self {
        HostFacts {
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: env!("PERFBENCH_COMMIT"),
            seed,
        }
    }

    /// One report line, with the peak OS thread count and the share of CPU
    /// time the hypervisor stole during the run.
    pub fn line(&self, peak_threads: usize, steal_pct: f64) -> String {
        format!(
            "host host_threads={} peak_os_threads={peak_threads} steal_pct={steal_pct:.1} \
             rustc=\"{}\" profile=\"{}\" commit={} seed={}",
            self.host_threads, self.rustc, self.profile, self.commit, self.seed
        )
    }
}

/// Machine-wide CPU time counters from `/proc/stat`: (steal, total) in
/// clock ticks; zeros where `/proc` is unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Percentage of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings. On a shared virtual machine this is the first
/// suspect when wall figures move while the modeled ones do not.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process so far, in MiB (0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn os_threads() -> usize {
    status_field("Threads:").map_or(1, |n| n as usize)
}

/// Runs `f` while a sampler thread polls this process's OS thread count;
/// returns `f`'s result and the highest count seen (the sampler included).
pub fn with_thread_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = os_threads();
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(os_threads());
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("thread sampler does not panic");
        (out, peak)
    })
}
