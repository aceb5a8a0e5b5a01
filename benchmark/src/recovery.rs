//! `recovery`: the FDIR closed loop stepped with `FdirHarness::step`.
//!
//! The full recovery ladder runs at the Table 1 SEU rate
//! (`HarnessConfig::soak(1.0)`) with 48-frame beam FPGAs, and the
//! golden re-upload crosses the standard three-station LEO contact plan
//! with soak fades. A run is one continuous soak of [`SOAK_TICKS`]
//! ticks, the length at which long runs expose voice drops, ending in
//! a quiet tail of [`TAIL_TICKS`] so the ladder can bring every
//! equipment back. One call is one tick. Ticks are timed until
//! `--seconds` is up; a soak that ends sooner starts again from tick 0
//! as a fresh harness on the same seed, and every pass must end in the
//! same state. After timing, the pass under way runs to its end
//! untimed, side by side with a replay of the soak through
//! `FdirHarness::run` that checks it. A traced run times its plain and
//! its traced halves on the same passes.

use crate::replay;
use crate::stats::{self, Timing};
use crate::trace::Tracer;
use crate::{Layers, Opts, SetupTimes};
use gsp_fdir::{FdirHarness, HarnessConfig, SoakReport};
use gsp_netproto::ContactSchedule;
use gsp_telemetry::Registry;
use std::time::Instant;

/// Ticks of the soak.
pub const SOAK_TICKS: u64 = 20_000;
/// Injection-free ticks that end the soak.
pub const TAIL_TICKS: u64 = 96;
/// Seed stream tag of the soak.
const TAG: u64 = 0x5EC0;

fn soak_seed(opts: &Opts) -> u64 {
    stats::derive(opts.seed, TAG, 0)
}

/// The soak configuration over `plan`.
pub fn config(link: &gsp_ground::ContactLink, plan: ContactSchedule) -> HarnessConfig {
    HarnessConfig {
        frames: SOAK_TICKS,
        inject_until: SOAK_TICKS - TAIL_TICKS,
        golden_frames: replay::GOLDEN_FRAMES,
        uplink: replay::uplink(link, plan),
        ..HarnessConfig::soak(1.0)
    }
}

/// What a stepped soak leaves observable through the harness's
/// public accessors.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    /// Confirmed detections.
    pub detections: u64,
    /// Health transitions.
    pub transitions: u64,
    /// Completed recoveries' detection-to-healthy ticks.
    pub mttr_ticks: Vec<u64>,
    /// Equipment-tick availability.
    pub availability: f64,
    /// Recovery actions per rung (scrub, reset, reconfigure).
    pub escalations: [u64; 3],
    /// Every equipment healthy.
    pub healthy: bool,
    /// Voice packets offered.
    pub voice_offered: u64,
    /// Voice packets dropped.
    pub voice_dropped: u64,
    /// Packets offered, all classes.
    pub offered: u64,
    /// Packets dropped, all classes.
    pub dropped: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets awaiting a grant.
    pub backlog: u64,
}

impl Observed {
    fn of(h: &FdirHarness) -> Self {
        let sup = h.supervisor();
        let stats = h.engine().stats();
        Observed {
            detections: sup.detections(),
            transitions: sup.transitions(),
            mttr_ticks: sup.mttr_ticks().to_vec(),
            availability: sup.availability(),
            escalations: sup.escalations(),
            healthy: sup.all_healthy(),
            voice_offered: stats.classes[0].offered,
            voice_dropped: stats.classes[0].dropped(),
            offered: stats.classes.iter().map(|c| c.offered).sum(),
            dropped: stats.classes.iter().map(|c| c.dropped()).sum(),
            delivered: stats.delivered(),
            backlog: stats.backlog,
        }
    }
}

/// The soak check: every completed upload delivered the golden image
/// byte-exact, every equipment is healthy at the end, and the stepped
/// soak agrees with the same soak run by `FdirHarness::run`.
pub fn check_soak(report: &SoakReport, stepped: &Observed) -> Result<(), String> {
    if let Some(u) = report
        .uploads
        .iter()
        .find(|u| u.outcome.delivered && !u.outcome.verified)
    {
        return Err(format!(
            "upload to equipment {} at tick {} was not byte-exact",
            u.equipment, u.tick
        ));
    }
    if !report.healthy_at_end {
        return Err("an equipment is unhealthy at the end of the soak".into());
    }
    let replayed = Observed {
        detections: report.detections,
        transitions: report.transitions,
        mttr_ticks: report.mttr_ticks.clone(),
        availability: report.availability,
        escalations: report.escalations,
        healthy: report.healthy_at_end,
        voice_offered: report.voice_offered,
        voice_dropped: report.voice_dropped,
        delivered: report.delivered,
        backlog: report.backlog,
        ..stepped.clone()
    };
    if &replayed != stepped {
        return Err(format!(
            "stepped soak {stepped:?} differs from the run() soak {replayed:?}"
        ));
    }
    Ok(())
}

/// The repeat check: every pass of the soak ended in the same state.
pub fn check_passes(ended: &[Observed]) -> Result<(), String> {
    match ended.iter().position(|o| o != &ended[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "pass {i} ended as {:?}, pass 0 as {:?}",
            ended[i], ended[0]
        )),
    }
}

/// Passes of the soak, stepped one tick at a time.
struct Passes {
    cfg: HarnessConfig,
    seed: u64,
    harness: FdirHarness,
    tick: u64,
    /// The stepped state at the end of each completed pass.
    ended: Vec<Observed>,
    /// Each equipment's health at the end of the first pass.
    health_at_end: Vec<gsp_fdir::Health>,
}

impl Passes {
    /// Ends the pass under way: its state and, for the first pass, its
    /// health are kept.
    fn end_pass(&mut self) {
        self.ended.push(Observed::of(&self.harness));
        if self.health_at_end.is_empty() {
            self.health_at_end = (0..=self.cfg.beams)
                .map(|e| self.harness.health(e))
                .collect();
        }
    }

    /// Steps one tick through `step`, starting a new pass first when
    /// the last one has ended.
    fn step(&mut self, step: impl FnOnce(&mut FdirHarness, u64)) {
        if self.tick == SOAK_TICKS {
            self.end_pass();
            self.harness = FdirHarness::new(self.cfg.clone(), self.seed);
            self.tick = 0;
        }
        step(&mut self.harness, self.tick);
        self.tick += 1;
    }

    /// Steps ticks under `timing` until its time is up.
    fn timed(&mut self, timing: &mut Timing, mut step: impl FnMut(&mut FdirHarness, u64)) {
        timing.start();
        while !timing.done() {
            let t0 = Instant::now();
            self.step(&mut step);
            timing.record(t0.elapsed(), 1, 1);
        }
    }
}

/// What the soak produced, apart from its timings.
pub struct Run {
    /// Contact-plan compile plus harness construction, per set-up.
    pub setup: SetupTimes,
    /// The stepped soak at the end of its first pass.
    pub stepped: Observed,
    /// The stepped state at the end of every pass.
    pub ended: Vec<Observed>,
    /// The same soak run by `FdirHarness::run`.
    pub report: SoakReport,
    /// Each equipment's health at the end (beams, then the scheduler).
    pub health_at_end: Vec<gsp_fdir::Health>,
}

/// Runs the soak, timing its ticks for `seconds`. With `traced` the
/// timed ticks are split into two halves of `seconds / 2`: the first
/// plain, the second inside spans, so that one soak serves both halves
/// of a traced run. Returns the soak and the timings of the plain and
/// (when `traced`) the traced ticks.
pub fn run(
    opts: &Opts,
    seconds: f64,
    tracer: &mut Tracer,
    traced: bool,
) -> (Run, Timing, Option<Timing>) {
    let link = replay::contact_link(opts.seed);
    let half = if traced { seconds / 2.0 } else { seconds };
    let mut plain = Timing::new(half);
    let mut spanned = traced.then(|| Timing::new(half));
    let ((cfg, harness), setup_times) =
        crate::set_up(tracer, "recovery.setup", &Registry::noop(), |t, _| {
            let plan = t.span("ground.schedule", 0, |_| link.schedule(replay::HORIZON_NS));
            let cfg = config(&link, plan);
            let harness = t.span("fdir.new", 0, |_| {
                FdirHarness::new(cfg.clone(), soak_seed(opts))
            });
            (cfg, harness)
        });

    let mut passes = Passes {
        cfg,
        seed: soak_seed(opts),
        harness,
        tick: 0,
        ended: Vec::new(),
        health_at_end: Vec::new(),
    };
    passes.timed(&mut plain, |h, _| h.step());
    if let Some(timing) = spanned.as_mut() {
        passes.timed(timing, |h, tick| {
            tracer.span("fdir.step", tick, |_| h.step())
        });
    }
    // Timing is over: the rest of the pass under way and the replay run
    // side by side.
    let (cfg, seed) = (passes.cfg.clone(), passes.seed);
    let report = std::thread::scope(|s| {
        let replay = s.spawn(move || FdirHarness::new(cfg, seed).run());
        while passes.tick < SOAK_TICKS {
            passes.step(|h, _| h.step());
        }
        passes.end_pass();
        replay.join().expect("the replayed soak completes")
    });
    let run = Run {
        setup: setup_times,
        stepped: passes.ended[0].clone(),
        ended: passes.ended,
        health_at_end: passes.health_at_end,
        report,
    };
    (run, plain, spanned)
}

/// Per-layer split of one traced phase. The read-back scan and the
/// traffic frame come from replays on this workload's shapes; uploads
/// are charged at the replayed upload time.
pub fn layers(run: &Run, timing: &Timing, out: &mut Layers) {
    let r = &run.report;
    out.set("fdir.detections", r.detections as f64);
    out.set("fdir.recovery.scrub", r.escalations[0] as f64);
    out.set("fdir.recovery.reset", r.escalations[1] as f64);
    out.set("fdir.recovery.reconfig", r.escalations[2] as f64);
    out.set("fdir.mttr_ticks_p50", r.mttr_p50().unwrap_or(0) as f64);
    out.set("fdir.availability", r.availability);
    out.set("radiation.seu_injected", r.total_injected() as f64);
    let s = &run.stepped;
    out.set("traffic.offered", s.offered as f64);
    out.set("traffic.delivered", s.delivered as f64);
    out.set("traffic.backlog_end", s.backlog as f64);
    out.set(
        "packet_drop_ratio",
        s.dropped as f64 / s.offered.max(1) as f64,
    );
    out.set("voice_drop_ratio", r.voice_drop_rate());
    let ticks = timing.calls().max(1) as f64;
    let wall_us = timing.wall().as_nanos() as f64 / 1e3;
    let uploads_per_tick = r.uploads.len() as f64 / r.frames.max(1) as f64;
    let attributed = out.get("fpga.readback_us_per_tick")
        + out.get("traffic.self_us_per_sat_frame")
        + out.get("netproto.upload_ms") * 1e3 * uploads_per_tick;
    out.set(
        "trace.unattributed_us_per_frame",
        wall_us / ticks - attributed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_soak() -> (SoakReport, Observed) {
        let link = replay::contact_link(3);
        let cfg = HarnessConfig {
            frames: 160,
            inject_until: 64,
            golden_frames: 4,
            ..config(&link, link.schedule(replay::HORIZON_NS))
        };
        let mut h = FdirHarness::new(cfg.clone(), 9);
        for _ in 0..cfg.frames {
            h.step();
        }
        (FdirHarness::new(cfg, 9).run(), Observed::of(&h))
    }

    #[test]
    fn a_stepped_soak_matches_its_run_and_corruption_is_caught() {
        let (report, stepped) = short_soak();
        assert_eq!(check_soak(&report, &stepped), Ok(()));

        let mut unhealthy = report.clone();
        unhealthy.healthy_at_end = false;
        assert!(check_soak(&unhealthy, &stepped).is_err());

        let dropped_one = Observed {
            voice_dropped: stepped.voice_dropped + 1,
            ..stepped.clone()
        };
        assert!(check_soak(&report, &dropped_one).is_err());
        assert_eq!(check_passes(&[stepped.clone(), stepped.clone()]), Ok(()));
        assert!(check_passes(&[stepped, dropped_one]).is_err());
    }

    #[test]
    fn a_delivered_but_corrupted_upload_fails_the_check() {
        let (mut report, stepped) = short_soak();
        let mut record = gsp_fdir::UploadRecord {
            equipment: 0,
            tick: 1,
            outcome: Default::default(),
        };
        record.outcome.delivered = true;
        record.outcome.verified = false;
        report.uploads.push(record);
        assert!(check_soak(&report, &stepped).is_err());
    }
}
