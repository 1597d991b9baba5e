//! Summaries, process memory and the host-speed calibration loop.

use std::time::Instant;

/// Nearest-rank percentile of unsorted samples (`q` in `(0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile with at least ten of `n` samples beyond it:
/// the eleventh-largest sample sits at `(n - 10) / n` (the median when
/// there are fewer than 20 samples).
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        (n - 10) as f64 / n as f64
    }
}

/// The sample at [`tail_quantile`].
pub fn tail(samples: &[f64]) -> f64 {
    if samples.len() < 20 {
        return median(samples);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() - 11]
}

/// A field of `/proc/self/status` in MB (`VmHWM`, `VmRSS`).
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Time a fixed CPU-bound loop (median of five), in milliseconds. The same
/// work on every run, so a slow reading marks a contended host.
pub fn calibrate() -> f64 {
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..4_000_000u64 {
            x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        std::hint::black_box(x);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}
