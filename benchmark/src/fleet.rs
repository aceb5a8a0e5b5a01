//! `fleet-isl` and `fleet-phy`: the 4-satellite constellation stepped
//! with `ConstellationEngine::run_frame` on `nproc` shard threads.
//!
//! `fleet-isl` flies `ConstellationConfig::standard(4, 1.0)` with the
//! PHY off; `fleet-phy` adds the Fig. 2 chain at 12 dB on every
//! satellite (one serial `PipelineEngine` per satellite). Before timing
//! starts, the first [`PREFIX_FRAMES`] frames are checked against one
//! shard thread, then satellite 1 fails and the supervisor's quarantine
//! and the coordinator's beam migration run under load for
//! [`SETTLE_FRAMES`]; every timed frame is flown by the three
//! survivors. One call is one frame of the whole constellation.

use crate::stats::{self, Timing};
use crate::trace::Tracer;
use crate::{Layers, Opts, SetupTimes};
use gsp_constellation::{ConstellationConfig, ConstellationEngine, ConstellationReport};
use gsp_telemetry::{Registry, Snapshot};
use std::time::Instant;

/// Satellites in the fleet.
pub const SATS: usize = 4;
/// The satellite that fails before timing starts.
pub const FAILED_SAT: usize = 1;
/// Frames run during set-up.
pub const WARMUP_FRAMES: u64 = 2;
/// Leading frames (warm-up included) checked against one shard thread;
/// [`FAILED_SAT`] fails at this tick.
pub const PREFIX_FRAMES: u64 = 24;
/// Untimed frames after the fault, for the quarantine and the beam
/// migration to complete before timing starts.
pub const SETTLE_FRAMES: u64 = 8;
/// Seed stream tag of the constellation seed.
const TAG: u64 = 0xF1EE7;

/// The workload's constellation, with or without the PHY.
pub fn config(phy: bool, shard_threads: usize) -> ConstellationConfig {
    ConstellationConfig {
        shard_threads,
        payload: phy.then(crate::fig2::chain),
        ..ConstellationConfig::standard(SATS, 1.0)
    }
}

fn seed_of(opts: &Opts) -> u64 {
    stats::derive(opts.seed, TAG, 0)
}

/// The packet ledger of a constellation at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Packets offered by every population.
    pub offered: u64,
    /// Packets delivered out of a downlink beam.
    pub delivered: u64,
    /// Packets dropped anywhere (DAMA age-out, switch, shed, ISL queue).
    pub dropped: u64,
    /// Voice packets offered.
    pub voice_offered: u64,
    /// Voice packets dropped anywhere.
    pub voice_dropped: u64,
    /// Packets awaiting a DAMA grant.
    pub backlog: u64,
    /// Packets queued in satellite switches.
    pub switch: u64,
    /// Packets on inter-satellite links.
    pub isl_in_flight: u64,
    /// ISL ingress buffered behind a frozen satellite.
    pub pending: u64,
}

impl Ledger {
    /// Reads the ledger off a report and the live engine.
    pub fn of(report: &ConstellationReport, engine: &ConstellationEngine) -> Self {
        let classes = report.class_totals().len();
        Ledger {
            offered: report.offered(),
            delivered: report.delivered(),
            dropped: (0..classes).map(|c| report.class_dropped(c)).sum(),
            voice_offered: report.class_totals()[0].offered,
            voice_dropped: report.class_dropped(0),
            backlog: report.satellites.iter().map(|s| s.traffic.backlog).sum(),
            switch: (0..SATS).map(|s| engine.switch_depth(s) as u64).sum(),
            isl_in_flight: report.isl_in_flight,
            pending: report.satellites.iter().map(|s| s.pending_isl).sum(),
        }
    }
}

/// Packet conservation: everything offered is delivered, dropped,
/// backlogged, queued in a switch, on a link, or buffered.
pub fn check_conservation(l: &Ledger) -> Result<(), String> {
    let accounted = l.delivered + l.dropped + l.backlog + l.switch + l.isl_in_flight + l.pending;
    if l.offered == accounted {
        Ok(())
    } else {
        Err(format!(
            "offered {} but accounted {accounted} ({l:?})",
            l.offered
        ))
    }
}

/// The quarantine check: satellite [`FAILED_SAT`] was quarantined
/// exactly once, no earlier than its fault, and every one of its beams
/// migrated to a live satellite.
pub fn check_quarantine(
    report: &ConstellationReport,
    fail_tick: u64,
    owned_by_failed: &[u64],
) -> Result<(), String> {
    let homed_beams = SATS * config(false, 1).traffic.beams;
    match report.quarantines.as_slice() {
        [q] if q.sat == FAILED_SAT && q.tick >= fail_tick => {}
        other => {
            return Err(format!(
                "expected one quarantine of satellite {FAILED_SAT} at or after tick {fail_tick}, got {other:?}"
            ))
        }
    }
    if !owned_by_failed.is_empty() {
        return Err(format!(
            "beams {owned_by_failed:?} still owned by the failed satellite"
        ));
    }
    let total: usize = report.satellites.iter().map(|s| s.home_beams.len()).sum();
    if total != homed_beams || !report.satellites[FAILED_SAT].home_beams.is_empty() {
        return Err(format!(
            "{total} of {homed_beams} beams homed after migration"
        ));
    }
    Ok(())
}

/// The prefix check: the threaded run's report at tick
/// [`PREFIX_FRAMES`] equals the one-shard-thread run's.
pub fn check_prefix(
    threaded: &ConstellationReport,
    serial: &ConstellationReport,
) -> Result<(), String> {
    if threaded == serial {
        Ok(())
    } else {
        Err(format!(
            "report at tick {PREFIX_FRAMES} differs from the one-shard-thread run"
        ))
    }
}

/// What one measured phase produced.
pub struct Run {
    /// Whether the satellites fly the PHY.
    pub phy: bool,
    /// The timed constellation frames.
    pub timing: Timing,
    /// Construction, shard spawn and warm-up frames, per set-up.
    pub setup: SetupTimes,
    /// Shard threads in use.
    pub threads: usize,
    /// Tick at which [`FAILED_SAT`] was failed.
    pub fail_tick: u64,
    /// The report at tick [`PREFIX_FRAMES`].
    pub prefix: ConstellationReport,
    /// The report at the end of the run.
    pub report: ConstellationReport,
    /// The ledger at the end of the run.
    pub ledger: Ledger,
    /// Beams the failed satellite still owns at the end.
    pub owned_by_failed: Vec<u64>,
    /// Shard busy ns over the measured frames.
    pub busy_ns: u64,
    /// Coordinator ns over the measured frames.
    pub coord_ns: u64,
    /// The live registry's snapshots when timing starts and when it
    /// ends (empty when telemetry is off).
    pub snapshots: [Snapshot; 2],
}

fn setup(phy: bool, opts: &Opts, registry: &Registry) -> ConstellationEngine {
    let mut engine =
        ConstellationEngine::with_telemetry(config(phy, stats::nproc()), seed_of(opts), registry);
    engine.run(WARMUP_FRAMES);
    engine
}

/// Runs the workload for `seconds`.
pub fn run(phy: bool, opts: &Opts, seconds: f64, tracer: &mut Tracer, registry: &Registry) -> Run {
    let mut timing = Timing::new(seconds);
    let (mut engine, setup_times) =
        crate::set_up(tracer, "constellation.setup", registry, |_, reg| {
            setup(phy, opts, reg)
        });
    let threads = engine.config().shard_threads.min(SATS);

    while engine.tick() < PREFIX_FRAMES {
        engine.run_frame();
    }
    let prefix = engine.report();
    let fail_tick = engine.tick();
    engine.fail_satellite(FAILED_SAT);
    engine.run(SETTLE_FRAMES);

    let snapshot0 = registry.snapshot();
    let busy0 = engine.shard_busy_ns();
    let coord0 = engine.coordinator_ns();
    timing.start();
    while !timing.done() {
        let tick = engine.tick();
        let live = (0..SATS).filter(|&s| engine.routing().alive(s)).count();
        let t0 = Instant::now();
        tracer.span("constellation.run_frame", tick, |_| engine.run_frame());
        timing.record(t0.elapsed(), 1, live as u64);
    }
    let report = engine.report();
    Run {
        phy,
        timing,
        setup: setup_times,
        threads,
        fail_tick,
        prefix,
        ledger: Ledger::of(&report, &engine),
        owned_by_failed: engine.routing().owned_beams(FAILED_SAT),
        report,
        busy_ns: engine.shard_busy_ns() - busy0,
        coord_ns: engine.coordinator_ns() - coord0,
        snapshots: [snapshot0, registry.snapshot()],
    }
}

/// The one-shard-thread report at tick [`PREFIX_FRAMES`].
pub fn serial_prefix(phy: bool, opts: &Opts) -> ConstellationReport {
    let mut engine = ConstellationEngine::new(config(phy, 1), seed_of(opts));
    engine.run(PREFIX_FRAMES);
    engine.report()
}

/// Satellite-frames the satellites executed over the whole run (a
/// frozen satellite executes none).
pub fn sat_frames_run(run: &Run) -> u64 {
    run.report.satellites.iter().map(|s| s.frames_run).sum()
}

/// CRC-clean bursts the satellites' transponders forwarded.
fn clean_bursts(run: &Run) -> u64 {
    run.report
        .satellites
        .iter()
        .map(|s| s.payload_packets)
        .sum()
}

/// Information bits delivered over the whole run: CRC-clean decoded
/// bursts with the PHY on, delivered traffic packets with it off.
pub fn delivered_bits(run: &Run) -> u64 {
    let cfg = config(run.phy, 1);
    match cfg.payload {
        Some(chain) => clean_bursts(run) * chain.info_bits as u64,
        None => run.report.delivered() * cfg.traffic.payload_bytes as u64 * 8,
    }
}

/// Bursts the satellites' transponders attempted, and how many failed
/// (none attempted with the PHY off).
pub fn bursts(run: &Run) -> (u64, u64) {
    let Some(chain) = config(run.phy, 1).payload else {
        return (0, 0);
    };
    let attempted = sat_frames_run(run) * chain.active_carriers as u64;
    (attempted, attempted - clean_bursts(run))
}

/// Sum over satellites of a scoped histogram's (sum, count) over the
/// timed frames, and each satellite's p50 at the end.
fn sat_hist(snaps: &[Snapshot; 2], name: &str) -> (u64, u64, Vec<u64>) {
    (0..SATS).fold((0, 0, Vec::new()), |(s, c, mut p), i| {
        let name = format!("sat{i}.{name}");
        match (snaps[0].histogram(&name), snaps[1].histogram(&name)) {
            (before, Some(h)) => {
                let (s0, c0) = before.map_or((0, 0), |b| (b.sum, b.count));
                p.push(h.p50);
                (s + h.sum - s0, c + h.count - c0, p)
            }
            _ => (s, c, p),
        }
    })
}

/// Sum over satellites of a scoped counter over the timed frames.
fn sat_counter(snaps: &[Snapshot; 2], name: &str) -> u64 {
    (0..SATS)
        .map(|i| {
            let name = format!("sat{i}.{name}");
            snaps[1].counter(&name) - snaps[0].counter(&name)
        })
        .sum()
}

/// Per-layer split of one traced phase.
pub fn layers(run: &Run, out: &mut Layers) {
    let frames = run.timing.frames().max(1) as f64;
    let sat_frames = run.timing.sat_frames().max(1) as f64;
    let wall_ns = run.timing.wall().as_nanos() as f64;
    let step_us = run.busy_ns as f64 / 1e3 / sat_frames;
    let coord_us = run.coord_ns as f64 / 1e3 / frames;
    let barrier_us =
        wall_ns / 1e3 / frames - coord_us - run.busy_ns as f64 / 1e3 / run.threads as f64 / frames;
    out.set("constellation.step_us_per_sat_frame", step_us);
    out.set("constellation.coordinator_us_per_frame", coord_us);
    out.set("constellation.barrier_us_per_frame", barrier_us);
    // The coordinator and the shards' busy time are attributed; what is
    // left of a frame's wall time is the barrier round trip.
    out.set("trace.unattributed_us_per_frame", barrier_us);
    let totals = run.report.class_totals();
    let isl_out: u64 = totals.iter().map(|c| c.isl_out).sum();
    out.set(
        "constellation.isl_packets_per_frame",
        isl_out as f64 / run.report.frames.max(1) as f64,
    );
    out.set(
        "constellation.isl_dropped",
        run.report.isl_dropped.iter().sum::<u64>() as f64,
    );
    out.set(
        "constellation.quarantines",
        run.report.quarantines.len() as f64,
    );
    out.set("traffic.offered", run.ledger.offered as f64);
    out.set("traffic.delivered", run.ledger.delivered as f64);
    out.set("traffic.backlog_end", run.ledger.backlog as f64);
    out.set(
        "packet_drop_ratio",
        run.ledger.dropped as f64 / run.ledger.offered.max(1) as f64,
    );
    out.set(
        "voice_drop_ratio",
        run.ledger.voice_dropped as f64 / run.ledger.voice_offered.max(1) as f64,
    );

    let snap = &run.snapshots;
    let (frame_sum, frame_count, p50s) = sat_hist(snap, "payload.frame.ns");
    let payload_frames = frame_count.max(1) as f64;
    let payload_us_per_sat_frame = frame_sum as f64 / 1e3 / sat_frames;
    out.set(
        "traffic.self_us_per_sat_frame",
        step_us - payload_us_per_sat_frame,
    );
    if !run.phy {
        return;
    }
    let per_frame = |name: &str| sat_hist(snap, name).0 as f64 / 1e3 / payload_frames;
    let (tx, demux, switch) = (
        per_frame("payload.tx.ns"),
        per_frame("payload.demux.ns"),
        per_frame("payload.switch.ns"),
    );
    out.set("payload.coordinator_us_per_frame", tx + demux + switch);
    out.set(
        "payload.stimulus_us_per_frame",
        per_frame("payload.tx.synth.ns"),
    );
    out.set("payload.switch_us_per_frame", switch);
    out.set(
        "payload.frame_us_p50",
        stats::median(&p50s.iter().map(|&p| p as f64).collect::<Vec<_>>()) / 1e3,
    );
    out.set(
        "payload.packets_forwarded",
        sat_counter(snap, "payload.packets.forwarded") as f64,
    );
    out.set("channel.tx_residue_us_per_frame", tx);
    out.set("dsp.demux_us_per_frame", demux);
    let lane_bursts =
        sat_counter(snap, "payload.frames") as f64 * crate::fig2::chain().active_carriers as f64;
    let uw = sat_counter(snap, "payload.uw_misses") as f64;
    let crc = sat_counter(snap, "payload.crc.failures") as f64;
    let detected = (lane_bursts - uw).max(1.0);
    out.set(
        "modem.demod_us_per_burst",
        sat_hist(snap, "payload.demod.ns").0 as f64 / 1e3 / lane_bursts.max(1.0),
    );
    out.set("modem.uw_miss_ratio", uw / lane_bursts.max(1.0));
    out.set(
        "coding.decode_us_per_burst",
        sat_hist(snap, "payload.decode.ns").0 as f64 / 1e3 / detected,
    );
    out.set("coding.crc_fail_ratio", crc / detected);
    let (attempted, failed) = bursts(run);
    out.set("burst_fail_ratio", failed as f64 / attempted.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_after(frames: u64) -> ConstellationEngine {
        let mut e = ConstellationEngine::new(config(false, 1), 5);
        e.run(frames);
        e
    }

    #[test]
    fn conservation_holds_and_one_missing_packet_breaks_it() {
        let e = engine_after(16);
        let ledger = Ledger::of(&e.report(), &e);
        assert_eq!(check_conservation(&ledger), Ok(()));
        let missing = Ledger {
            delivered: ledger.delivered - 1,
            ..ledger
        };
        assert!(check_conservation(&missing).is_err());
    }

    #[test]
    fn the_quarantine_check_needs_the_failure_and_the_migration() {
        let mut e = engine_after(4);
        assert!(check_quarantine(&e.report(), 4, &[]).is_err());
        e.fail_satellite(FAILED_SAT);
        e.run(16);
        let r = e.report();
        let owned = e.routing().owned_beams(FAILED_SAT);
        assert_eq!(check_quarantine(&r, 4, &owned), Ok(()));
        assert!(check_quarantine(&r, 4, &[6]).is_err());
        assert!(check_quarantine(&r, 1_000, &owned).is_err());
    }

    #[test]
    fn the_prefix_check_catches_a_changed_counter() {
        let r = engine_after(4).report();
        assert_eq!(check_prefix(&r, &r.clone()), Ok(()));
        let mut bad = r.clone();
        bad.satellites[0].traffic.classes[0].delivered += 1;
        assert!(check_prefix(&bad, &r).is_err());
    }
}
