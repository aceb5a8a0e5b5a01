//! Small numeric and host helpers: percentiles, per-frame timing,
//! report digests, peak memory.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `v` by linear interpolation between
/// closest ranks (the convention of `numpy.percentile`). 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Samples that lie strictly beyond the `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The quantile of per-frame wall time that the bounded end-to-end
/// metrics are read at. A 2-vCPU virtual machine on a busy shared host
/// runs the same code 1.5-3x slower for stretches of seconds to minutes
/// at a time; a run's median frame, mean frame and whole-run rate land
/// wherever its share of slow stretches puts them. The fastest 1% of
/// frames are the ones the host did not slow, and move when the
/// program's own per-frame cost does.
pub const FAST_QUANTILE: f64 = 0.01;

/// Per-frame times are kept in log-spaced buckets this many per e-fold
/// (0.5% wide), so the benchmark's own memory stays fixed however many
/// calls a run makes.
const BUCKETS_PER_E: f64 = 200.0;
/// Buckets up to e^25 ns (~72 s).
const BUCKETS: usize = 25 * BUCKETS_PER_E as usize;

/// Timings of the calls into the program during one measured phase, in
/// memory fixed at construction.
pub struct Timing {
    start: Instant,
    seconds: f64,
    /// Per-frame wall time histogram, one entry per call.
    buckets: Vec<u32>,
    calls: u64,
    frames: u64,
    sat_frames: u64,
    wall: Duration,
}

impl Timing {
    /// Timing of a phase that measures for `seconds` from now.
    pub fn new(seconds: f64) -> Self {
        Timing {
            start: Instant::now(),
            seconds,
            buckets: vec![0; BUCKETS],
            calls: 0,
            frames: 0,
            sat_frames: 0,
            wall: Duration::ZERO,
        }
    }

    /// Restarts the clock (after set-up).
    pub fn start(&mut self) {
        self.start = Instant::now();
    }

    /// Whether the measured time is up.
    pub fn done(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Records one call of `wall` that advanced `frames` frames and
    /// simulated `sat_frames` satellite-frames.
    pub fn record(&mut self, wall: Duration, frames: u64, sat_frames: u64) {
        let per_frame_ns = wall.as_nanos() as f64 / frames.max(1) as f64;
        let b = ((per_frame_ns.max(1.0).ln() * BUCKETS_PER_E) as usize).min(BUCKETS - 1);
        self.buckets[b] += 1;
        self.calls += 1;
        self.frames += frames;
        self.sat_frames += sat_frames;
        self.wall += wall;
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Frames the recorded calls advanced.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Satellite-frames the recorded calls simulated.
    pub fn sat_frames(&self) -> u64 {
        self.sat_frames
    }

    /// Summed wall time of the recorded calls.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Mean wall time per frame, in microseconds.
    pub fn mean_frame_us(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.frames.max(1) as f64
    }

    /// Satellite-frames per wall-second at the [`FAST_QUANTILE`] frame
    /// time: the rate the program keeps while the host lets it run.
    pub fn fast_rate(&self) -> f64 {
        let per_frame = self.sat_frames as f64 / self.frames.max(1) as f64;
        per_frame / (self.frame_ms(FAST_QUANTILE) / 1e3)
    }

    /// The `q`-quantile of per-frame wall time, in milliseconds:
    /// rank-interpolated inside its 0.5% bucket.
    pub fn frame_ms(&self, q: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.calls - 1) as f64;
        let mut below = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            let n = n as u64;
            if n > 0 && (below + n) as f64 > rank {
                let within = (rank - below as f64 + 0.5) / n as f64;
                let ln_ns = (b as f64 + within) / BUCKETS_PER_E;
                return ln_ns.exp() / 1e6;
            }
            below += n;
        }
        unreachable!("rank {rank} beyond {} calls", self.calls)
    }
}

/// FNV-1a over `bytes`, folded into `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of a deterministic report through its `Debug` rendering,
/// which covers every field.
pub fn digest<T: std::fmt::Debug>(h: u64, report: &T) -> u64 {
    fnv1a(h, format!("{report:?}").as_bytes())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A child seed of the workload seed for stream `tag`, index `i`.
pub fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    rand::splitmix64_mix(seed ^ rand::splitmix64_mix(tag.wrapping_mul(0x1_0000_0001) ^ i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
    }

    #[test]
    fn timing_quantiles_land_within_half_a_percent() {
        let mut t = Timing::new(60.0);
        for ms in 1..=100u64 {
            t.record(Duration::from_millis(ms), 1, 4);
        }
        assert_eq!(t.calls(), 100);
        let p50 = t.frame_ms(0.5);
        assert!((p50 - 50.5).abs() / 50.5 < 0.01, "p50 {p50}");
        let p99 = t.frame_ms(0.99);
        assert!((p99 - 99.0).abs() / 99.0 < 0.01, "p99 {p99}");
        // 4 sat-frames per frame at the p1 frame time.
        let p1 = t.frame_ms(FAST_QUANTILE);
        assert!((p1 - 1.0).abs() < 0.01, "p1 {p1}");
        assert!((t.fast_rate() - 4.0 / (p1 / 1e3)).abs() < 1e-6);
        assert_eq!(t.sat_frames(), 400);
    }

    #[test]
    fn batched_calls_record_per_frame_time() {
        let mut t = Timing::new(60.0);
        t.record(Duration::from_millis(80), 8, 8);
        assert!((t.frame_ms(0.5) - 10.0).abs() < 0.1);
        assert_eq!(t.frames(), 8);
    }
}
