//! `fig2-pool`: the Fig. 2 MF-TDMA chain on the payload worker pool.
//!
//! `ChainConfig::default()` (8-channel polyphase DEMUX, 6 carriers × 96
//! information bits, K=9 rate-½ Viterbi) at Es/N0 12 dB runs on
//! `PipelineEngine::with_workers(cfg, nproc)`, driven through
//! `run_frames` in batches of [`BATCH`] so cross-frame pipelining stays
//! on. One call is one batch.

use crate::stats::{self, Timing};
use crate::trace::Tracer;
use crate::{Layers, Opts, SetupTimes};
use gsp_payload::chain::{ChainConfig, ChainReport};
use gsp_payload::pipeline::{PipelineEngine, PipelineStats};
use gsp_telemetry::Registry;
use std::time::Instant;

/// Frames per `run_frames` call: the batch `bench_payload` times by
/// default at the same 12 dB. `run_frames` fills and drains its
/// three-slot pipeline on every call, so the batch sets how much of a
/// call runs with frames overlapped; the README records `decoded_mbps`
/// measured at 4, 8, 16 and 32.
pub const BATCH: usize = 32;
/// Leading batches checked bit for bit against a one-worker engine.
pub const PREFIX_BATCHES: usize = 1;
/// Seed stream tag of this workload's batches.
const TAG: u64 = 0xF162;

/// The workload's chain: the paper's Fig. 2 configuration at 12 dB.
pub fn chain() -> ChainConfig {
    ChainConfig {
        esn0_db: Some(12.0),
        ..ChainConfig::default()
    }
}

/// Seed of batch `j` (batch `u64::MAX` is the warm-up).
fn batch_seed(seed: u64, j: u64) -> u64 {
    stats::derive(seed, TAG, j)
}

/// Burst outcomes folded over every frame of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BurstTally {
    /// Frames run.
    pub frames: u64,
    /// Bursts attempted (carriers × frames).
    pub bursts: u64,
    /// Bursts whose unique word was not found.
    pub uw_misses: u64,
    /// Bursts that demodulated but failed the CRC.
    pub crc_failures: u64,
    /// Bursts lost to a DEMUX short count (every burst of such a frame).
    pub demux_short: u64,
    /// Bursts that failed for any of the three reasons.
    pub failed: u64,
    /// CRC-verified information bits delivered.
    pub decoded_bits: u64,
}

impl BurstTally {
    /// Folds one frame's report in.
    pub fn add(&mut self, r: &ChainReport) {
        let short = !r.demux_ok();
        self.frames += 1;
        for c in &r.carriers {
            self.bursts += 1;
            self.uw_misses += u64::from(!c.detected);
            self.crc_failures += u64::from(c.detected && !c.crc_ok);
            self.demux_short += u64::from(short);
            if short || !c.crc_ok {
                self.failed += 1;
            } else {
                self.decoded_bits += c.bits as u64;
            }
        }
    }

    /// Failed bursts over bursts attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.bursts.max(1) as f64
    }
}

/// The per-frame correctness check: the DEMUX produced every channel
/// block, and every CRC-clean carrier decoded its ground-truth bits
/// without error.
pub fn check_frame(r: &ChainReport) -> Result<(), String> {
    if !r.demux_ok() {
        return Err(format!(
            "demux short count: {} of {} blocks",
            r.demux_produced, r.demux_expected
        ));
    }
    for c in &r.carriers {
        if c.crc_ok && c.bit_errors != 0 {
            return Err(format!(
                "carrier {} passed the CRC with {} bit errors",
                c.carrier, c.bit_errors
            ));
        }
    }
    Ok(())
}

/// The prefix check: the pooled engine's leading frames equal a
/// one-worker engine's, bit for bit.
pub fn check_prefix(pooled: &[ChainReport], serial: &[ChainReport]) -> Result<(), String> {
    if pooled.len() != serial.len() {
        return Err(format!(
            "prefix of {} frames vs {}",
            pooled.len(),
            serial.len()
        ));
    }
    match pooled.iter().zip(serial).position(|(a, b)| a != b) {
        Some(i) => Err(format!("frame {i} differs from the one-worker engine")),
        None => Ok(()),
    }
}

/// What one measured phase produced.
pub struct Run {
    /// The timed `run_frames` batches.
    pub timing: Timing,
    /// Wall time of each engine set-up (construction, pool spawn, one
    /// warm-up batch).
    pub setup: SetupTimes,
    /// The engine's stage counters over the measured batches.
    pub stats: PipelineStats,
    /// Effective worker count.
    pub workers: usize,
    /// Burst outcomes over the measured batches.
    pub tally: BurstTally,
    /// The first [`PREFIX_BATCHES`] batches' reports.
    pub prefix: Vec<ChainReport>,
    /// Batches holding a frame that failed [`check_frame`].
    pub bad_batches: u64,
    /// The first failure's reason.
    pub first_bad: Option<String>,
    /// `payload.frame.ns` p50 from the live registry (0 when off).
    pub frame_ns_p50: u64,
}

/// Builds and warms one engine.
fn setup(opts: &Opts, registry: &Registry) -> PipelineEngine {
    let mut engine = PipelineEngine::with_workers(chain(), stats::nproc());
    engine.set_telemetry(registry);
    let _ = engine.run_frames(BATCH, batch_seed(opts.seed, u64::MAX));
    engine.reset_stats();
    engine
}

/// Runs the workload for `seconds`.
pub fn run(opts: &Opts, seconds: f64, tracer: &mut Tracer, registry: &Registry) -> Run {
    let mut timing = Timing::new(seconds);
    let (mut engine, setup_times) =
        crate::set_up(tracer, "payload.setup", registry, |_, reg| setup(opts, reg));

    let mut tally = BurstTally::default();
    let mut prefix = Vec::new();
    let (mut bad_batches, mut first_bad) = (0, None);
    timing.start();
    let mut j = 0u64;
    while j < PREFIX_BATCHES as u64 || !timing.done() {
        let seed = batch_seed(opts.seed, j);
        let t0 = Instant::now();
        let reports = tracer.span("payload.run_frames", j, |_| engine.run_frames(BATCH, seed));
        timing.record(t0.elapsed(), BATCH as u64, BATCH as u64);
        let mut bad = false;
        for r in &reports {
            tally.add(r);
            if let Err(e) = check_frame(r) {
                bad = true;
                first_bad.get_or_insert(e);
            }
        }
        bad_batches += u64::from(bad);
        if j < PREFIX_BATCHES as u64 {
            prefix.extend(reports);
        }
        j += 1;
    }
    let frame_ns_p50 = registry
        .snapshot()
        .histogram("payload.frame.ns")
        .map_or(0, |h| h.p50);
    Run {
        timing,
        setup: setup_times,
        stats: engine.stats(),
        workers: engine.workers(),
        tally,
        prefix,
        bad_batches,
        first_bad,
        frame_ns_p50,
    }
}

/// The same leading batches on a one-worker engine.
pub fn serial_prefix(opts: &Opts) -> Vec<ChainReport> {
    let mut engine = PipelineEngine::with_workers(chain(), 1);
    let _ = engine.run_frames(BATCH, batch_seed(opts.seed, u64::MAX));
    (0..PREFIX_BATCHES as u64)
        .flat_map(|j| engine.run_frames(BATCH, batch_seed(opts.seed, j)))
        .collect()
}

/// Per-layer split of one traced phase. Stage counters are summed over
/// lanes, so the parallel stages are CPU time.
pub fn layers(run: &Run, out: &mut Layers) {
    let s = &run.stats;
    let frames = s.frames.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / frames;
    let bursts = run.tally.bursts.max(1) as f64;
    let detected = (run.tally.bursts - run.tally.uw_misses).max(1) as f64;
    let wall_ns = run.timing.wall().as_nanos() as f64;
    let busy = (s.tx_synth_ns + s.demod_ns + s.decode_ns) as f64;
    let coordinator = us(s.tx_ns + s.demux_ns + s.switch_ns);
    out.set("payload.coordinator_us_per_frame", coordinator);
    out.set(
        "payload.pool_idle_frac",
        (1.0 - busy / (wall_ns * run.workers as f64)).max(0.0),
    );
    out.set("payload.stimulus_us_per_frame", us(s.tx_synth_ns));
    out.set("payload.switch_us_per_frame", us(s.switch_ns));
    out.set("payload.frame_us_p50", run.frame_ns_p50 as f64 / 1e3);
    out.set("payload.packets_forwarded", s.packets_forwarded as f64);
    out.set("channel.tx_residue_us_per_frame", us(s.tx_ns));
    out.set("dsp.demux_us_per_frame", us(s.demux_ns));
    out.set("modem.demod_us_per_burst", s.demod_ns as f64 / 1e3 / bursts);
    out.set("modem.uw_miss_ratio", run.tally.uw_misses as f64 / bursts);
    out.set(
        "coding.decode_us_per_burst",
        s.decode_ns as f64 / 1e3 / detected,
    );
    out.set(
        "coding.crc_fail_ratio",
        run.tally.crc_failures as f64 / detected,
    );
    out.set("burst_fail_ratio", run.tally.fail_ratio());
    // The engine thread's own stages are attributed; the rest of a
    // frame's wall time is waiting on the pool and dispatch glue.
    out.set(
        "trace.unattributed_us_per_frame",
        wall_ns / 1e3 / frames - coordinator,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> ChainReport {
        let mut engine = PipelineEngine::with_workers(chain(), 1);
        engine.run_frame(11)
    }

    #[test]
    fn a_clean_frame_passes_and_a_corrupted_one_fails() {
        let r = frame();
        assert_eq!(check_frame(&r), Ok(()));
        let mut bad = r.clone();
        let c = bad
            .carriers
            .iter_mut()
            .find(|c| c.crc_ok)
            .expect("a CRC-clean carrier at 12 dB");
        c.bit_errors = 1;
        assert!(check_frame(&bad).is_err());
        let mut short = r;
        short.demux_produced -= 1;
        assert!(check_frame(&short).is_err());
    }

    #[test]
    fn the_prefix_check_catches_one_flipped_bit() {
        let r = [frame()];
        assert_eq!(check_prefix(&r, &r), Ok(()));
        let mut flipped = r.clone();
        flipped[0].info_bits[0][0] ^= 1;
        assert!(check_prefix(&flipped, &r).is_err());
        assert!(check_prefix(&[], &r).is_err());
    }

    #[test]
    fn the_tally_counts_failed_bursts_and_decoded_bits() {
        let mut r = frame();
        r.carriers[0].crc_ok = false;
        let mut t = BurstTally::default();
        t.add(&r);
        assert_eq!(t.bursts, r.carriers.len() as u64);
        assert!(t.failed >= 1);
        assert_eq!(t.decoded_bits, (t.bursts - t.failed) * 96);
    }
}
