//! Host calibration recorded alongside every result, so that absolute
//! times from different machines can be compared as ratios.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Median wall time of a 4 KiB write + `sync_all` in `dir`, in ms.
pub fn fsync_ms(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync-calibration.bin");
    let block = [0x5Au8; 4096];
    let mut samples = Vec::new();
    for _ in 0..15 {
        let start = Instant::now();
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&block)?;
        file.sync_all()?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// Median wall time of a fixed integer loop, in ms.
pub fn cpu_calib_ms() -> f64 {
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The host's CPU ticks so far, from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        Some(Self {
            steal: *ticks.get(7)?,
            total: ticks.iter().sum(),
        })
    }

    /// Percent of the CPU time since `self` that the hypervisor gave to
    /// other guests (steal): on a shared virtual machine, the main cause
    /// of run-to-run spread in the wall-clock metrics.
    pub fn steal_pct_since(self) -> f64 {
        Self::now().map_or(0.0, |now| {
            100.0 * (now.steal - self.steal) as f64 / (now.total - self.total).max(1) as f64
        })
    }
}

/// Resets the peak resident set to the current one (`clear_refs` 5), so
/// that [`peak_rss_mb`] reads the peak of what ran since. Without the
/// reset, the peak is the whole process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
