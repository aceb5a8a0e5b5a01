//! The gsp benchmark: decoded Mbit/s and per-frame wall time of the
//! regenerative payload on four workloads, with a per-layer trace.
//!
//! ```text
//! gsp-benchmark --workload <fig2-pool|fleet-isl|fleet-phy|recovery>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark's main thread is the only caller, in a closed loop
//! with one call outstanding; the program's own threads are sized to
//! the host (`nproc` pool workers or shard threads). Every input is
//! derived from `--seed`. Each run checks the program's outputs and
//! prints, after `# ` lines recording the host, set-up, sample counts,
//! checks and report digest, one JSON object as its last line. With
//! `--trace 0` it holds the end-to-end metrics, measured with telemetry
//! off; with `--trace 1` the per-layer metrics of a traced run that
//! spends half its time untraced (for the tracing overhead) and half
//! traced, and writes its spans to `.bench_trace/`.

mod catalog;
mod fig2;
mod fleet;
mod recovery;
mod replay;
mod stats;
mod trace;

use gsp_telemetry::Registry;
use stats::{Timing, FNV_BASIS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Fewest set-ups per phase; `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;
/// Most set-ups per phase.
pub const MAX_SETUPS: usize = 50;
/// Set-ups repeat until they have taken this long (or [`MAX_SETUPS`]).
pub const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 2 chain on the payload worker pool.
    Fig2Pool,
    /// The 4-satellite fleet, PHY off.
    FleetIsl,
    /// The 4-satellite fleet, PHY on.
    FleetPhy,
    /// The FDIR loop over the contact plan.
    Recovery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig2Pool,
        Workload::FleetIsl,
        Workload::FleetPhy,
        Workload::Recovery,
    ];

    /// The span around one timed call.
    pub fn call_span(self) -> &'static str {
        match self {
            Workload::Fig2Pool => "payload.run_frames",
            Workload::FleetIsl | Workload::FleetPhy => "constellation.run_frame",
            Workload::Recovery => "fdir.step",
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Pool => "fig2-pool",
            Workload::FleetIsl => "fleet-isl",
            Workload::FleetPhy => "fleet-phy",
            Workload::Recovery => "recovery",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed; the program sees only seeds derived from it.
    pub seed: u64,
    /// Measured wall time of the run.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: gsp-benchmark --workload <fig2-pool|fleet-isl|fleet-phy|recovery> --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut map = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name.as_str())
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(k) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Wall times of repeated set-ups.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Records one set-up.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// The median set-up, seconds.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// Sets the workload up repeatedly and keeps the last result: the
/// throw-away set-ups report to a no-op registry, the kept one to
/// `registry`. Every set-up is timed and recorded as a span `name`.
pub fn set_up<T>(
    tracer: &mut Tracer,
    name: &'static str,
    registry: &Registry,
    mut build: impl FnMut(&mut Tracer, &Registry) -> T,
) -> (T, SetupTimes) {
    let mut times = SetupTimes::default();
    let noop = Registry::noop();
    let start = Instant::now();
    while times.0.len() + 1 < MIN_SETUPS
        || (start.elapsed() < SETUP_BUDGET && times.0.len() + 1 < MAX_SETUPS)
    {
        let t0 = Instant::now();
        let thrown_away = tracer.span(name, 0, |t| build(t, &noop));
        times.push(t0.elapsed());
        drop(thrown_away);
    }
    let t0 = Instant::now();
    let kept = tracer.span(name, 0, |t| build(t, registry));
    times.push(t0.elapsed());
    (kept, times)
}

/// The per-layer table: every name of [`catalog::PER_LAYER`], 0 until
/// set.
#[derive(Clone, Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(catalog::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric of the catalogue"));
        *slot = value;
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One measured phase of a workload, checked.
pub struct Phase {
    /// Timed calls into the program.
    pub timing: Timing,
    /// Set-up wall times.
    pub setup: SetupTimes,
    /// Information bits delivered per satellite-frame.
    pub bits_per_sat_frame: f64,
    /// Named correctness checks.
    pub checks: Vec<(&'static str, Result<(), String>)>,
    /// Calls whose own output failed a check.
    pub failed_calls: u64,
    /// Digest of the deterministic report the checks verified.
    pub digest: u64,
    /// Facts about the run worth recording beside the metrics.
    pub notes: Vec<String>,
}

fn fig2_phase(
    opts: &Opts,
    seconds: f64,
    tracer: &mut Tracer,
    reg: &Registry,
    layers: &mut Layers,
) -> Phase {
    let run = fig2::run(opts, seconds, tracer, reg);
    let serial = fig2::serial_prefix(opts);
    fig2::layers(&run, layers);
    let t = run.tally;
    Phase {
        bits_per_sat_frame: t.decoded_bits as f64 / t.frames.max(1) as f64,
        checks: vec![
            (
                "fig2.frames_demux_ok_and_clean_bits",
                match &run.first_bad {
                    None => Ok(()),
                    Some(e) => Err(format!("{} batches failed; first: {e}", run.bad_batches)),
                },
            ),
            (
                "fig2.prefix_matches_one_worker",
                fig2::check_prefix(&run.prefix, &serial),
            ),
        ],
        failed_calls: run.bad_batches,
        digest: run.prefix.iter().fold(FNV_BASIS, stats::digest),
        notes: vec![
            format!("workers={} batch_frames={}", run.workers, fig2::BATCH),
            format!(
                "bursts={} failed={} uw_misses={} crc_failures={} demux_short={} prefix_frames={}",
                t.bursts,
                t.failed,
                t.uw_misses,
                t.crc_failures,
                t.demux_short,
                run.prefix.len()
            ),
        ],
        timing: run.timing,
        setup: run.setup,
    }
}

fn fleet_phase(
    phy: bool,
    opts: &Opts,
    seconds: f64,
    tracer: &mut Tracer,
    reg: &Registry,
    layers: &mut Layers,
) -> Phase {
    let run = fleet::run(phy, opts, seconds, tracer, reg);
    let serial = fleet::serial_prefix(phy, opts);
    fleet::layers(&run, layers);
    let (bursts, failed_bursts) = fleet::bursts(&run);
    Phase {
        bits_per_sat_frame: fleet::delivered_bits(&run) as f64
            / fleet::sat_frames_run(&run).max(1) as f64,
        checks: vec![
            (
                "fleet.prefix_matches_one_shard_thread",
                fleet::check_prefix(&run.prefix, &serial),
            ),
            (
                "fleet.quarantine_fired_and_beams_migrated",
                fleet::check_quarantine(&run.report, run.fail_tick, &run.owned_by_failed),
            ),
            (
                "fleet.packets_conserved",
                fleet::check_conservation(&run.ledger),
            ),
        ],
        failed_calls: 0,
        digest: stats::digest(FNV_BASIS, &run.prefix),
        notes: vec![
            format!(
                "shard_threads={} frames={} fail_tick={} quarantines={:?}",
                run.threads, run.report.frames, run.fail_tick, run.report.quarantines
            ),
            format!("ledger={:?}", run.ledger),
            format!(
                "phy_bursts={bursts} phy_bursts_failed={failed_bursts} prefix_frames={}",
                fleet::PREFIX_FRAMES
            ),
        ],
        timing: run.timing,
        setup: run.setup,
    }
}

fn recovery_phase(run: &recovery::Run, timing: Timing, layers: &mut Layers) -> Phase {
    recovery::layers(run, &timing, layers);
    let r = &run.report;
    Phase {
        bits_per_sat_frame: (r.delivered
            * gsp_traffic::TrafficConfig::standard(0.75).payload_bytes as u64
            * 8) as f64
            / r.frames.max(1) as f64,
        checks: vec![
            (
                "recovery.uploads_exact_healthy_and_stepped_matches_run",
                recovery::check_soak(r, &run.stepped),
            ),
            (
                "recovery.every_pass_ends_alike",
                recovery::check_passes(&run.ended),
            ),
        ],
        failed_calls: 0,
        digest: stats::digest(FNV_BASIS, r),
        notes: vec![
            format!(
                "soak_ticks={} passes={} timed_ticks={} uploads={} uploads_verified={}",
                r.frames,
                run.ended.len(),
                timing.calls(),
                r.uploads.len(),
                r.uploads.iter().filter(|u| u.outcome.verified).count()
            ),
            format!(
                "voice_dropped={} voice_offered={} permanently_quarantined={} health_at_end={:?}",
                r.voice_dropped, r.voice_offered, r.permanently_quarantined, run.health_at_end
            ),
        ],
        timing,
        setup: run.setup.clone(),
    }
}

/// The untraced phase and, with `--trace 1`, the traced one. `recovery`
/// times both on one soak; the other workloads run a phase each.
fn phases(
    opts: &Opts,
    tracer: &mut Tracer,
    layers: &mut Layers,
    traced_layers: &mut Layers,
) -> (Phase, Option<Phase>) {
    if opts.workload == Workload::Recovery {
        let (run, plain, spanned) = recovery::run(opts, opts.seconds, tracer, opts.trace);
        let untraced = recovery_phase(&run, plain, layers);
        // One soak: its checks are counted once, with the untraced half.
        let traced = spanned.map(|t| Phase {
            checks: Vec::new(),
            ..recovery_phase(&run, t, traced_layers)
        });
        return (untraced, traced);
    }
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = phase(
        opts,
        seconds,
        &mut Tracer::new(false),
        &Registry::noop(),
        layers,
    );
    let traced = opts
        .trace
        .then(|| phase(opts, seconds, tracer, &Registry::new(), traced_layers));
    (untraced, traced)
}

fn phase(
    opts: &Opts,
    seconds: f64,
    tracer: &mut Tracer,
    reg: &Registry,
    layers: &mut Layers,
) -> Phase {
    match opts.workload {
        Workload::Fig2Pool => fig2_phase(opts, seconds, tracer, reg, layers),
        Workload::FleetIsl => fleet_phase(false, opts, seconds, tracer, reg, layers),
        Workload::FleetPhy => fleet_phase(true, opts, seconds, tracer, reg, layers),
        Workload::Recovery => unreachable!("recovery phases are built by phases()"),
    }
}

/// The run's result: the last line's four keys, plus `# ` lines.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Calls made into the program.
    pub attempted: u64,
    /// Calls or checks that failed.
    pub failed: u64,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines printed before the result.
    pub info: Vec<String>,
}

fn host_line(opts: &Opts) -> String {
    let sel = gsp_kernels::selection();
    format!(
        "host nproc={} kernel_backend={} kernel_reason={:?} simd_available={} workload={} seed={} seconds={} trace={}",
        stats::nproc(),
        sel.backend.label(),
        sel.reason,
        gsp_kernels::simd_available(),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    )
}

fn phase_info(tag: &str, p: &Phase, info: &mut Vec<String>) {
    let calls = p.timing.calls() as usize;
    info.push(format!(
        "{tag} samples calls={calls} frames={} below_p1={} beyond_p99={} setups={}",
        p.timing.frames(),
        calls - stats::samples_beyond(calls, stats::FAST_QUANTILE),
        stats::samples_beyond(calls, 0.99),
        p.setup.0.len()
    ));
    let quantiles: Vec<String> = [0.01, 0.1, 0.5, 0.9, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.4}", (q * 100.0_f64).round(), p.timing.frame_ms(q)))
        .collect();
    info.push(format!(
        "{tag} frame_ms {} over {calls} samples",
        quantiles.join(" ")
    ));
    info.push(format!("{tag} digest={:016x}", p.digest));
    for n in &p.notes {
        info.push(format!("{tag} {n}"));
    }
    for (name, r) in &p.checks {
        match r {
            Ok(()) => info.push(format!("{tag} check {name}: ok")),
            Err(e) => info.push(format!("{tag} check {name}: FAILED: {e}")),
        }
    }
}

/// Runs the workload `opts` names and collects its result.
pub fn run(opts: &Opts) -> Outcome {
    let mut info = vec![host_line(opts)];
    let mut layers = Layers::default();
    let mut traced_layers = Layers::default();
    let mut tracer = Tracer::new(opts.trace);
    if opts.trace {
        replay::all(opts.workload, opts.seed, &mut tracer, &mut traced_layers);
    }
    let (untraced, traced) = phases(opts, &mut tracer, &mut layers, &mut traced_layers);
    phase_info("e2e", &untraced, &mut info);
    for name in ["burst_fail_ratio", "packet_drop_ratio", "voice_drop_ratio"] {
        info.push(format!("e2e behaviour {name}={}", layers.get(name)));
    }
    let mut phases = vec![untraced];

    let metrics = if let Some(traced) = traced {
        let mut layers = traced_layers;
        phase_info("traced", &traced, &mut info);
        // Mean wall per frame, the total the per-layer split adds up to,
        // from the spans around the timed calls.
        let untraced_us = phases[0].timing.mean_frame_us();
        let (span_ns, _) = tracer.total_ns(opts.workload.call_span());
        let traced_us = span_ns as f64 / 1e3 / traced.timing.frames().max(1) as f64;
        layers.set("trace.frame_us", traced_us);
        layers.set("frame_p50_ms", phases[0].timing.frame_ms(0.5));
        layers.set("frame_p99_ms", phases[0].timing.frame_ms(0.99));
        layers.set("trace.overhead_us_per_frame", traced_us - untraced_us);
        let path = PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => info.push(format!(
                "traced spans={} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => info.push(format!("traced spans not written: {e}")),
        }
        phases.push(traced);
        catalog::PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name), m.unit))
            .collect()
    } else {
        let p = &phases[0];
        let rate = p.timing.fast_rate();
        let value = |name: &str| match name {
            "decoded_mbps" => p.bits_per_sat_frame * rate / 1e6,
            "sat_frames_per_s" => rate,
            "frame_p1_ms" => p.timing.frame_ms(stats::FAST_QUANTILE),
            "setup_s" => p.setup.median_s(),
            "peak_rss_mb" => stats::peak_rss_mb(),
            other => unreachable!("no end-to-end metric {other}"),
        };
        catalog::END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect()
    };

    let failed_checks = phases
        .iter()
        .flat_map(|p| &p.checks)
        .filter(|(_, r)| r.is_err())
        .count() as u64;
    let digests_agree = phases.windows(2).all(|w| w[0].digest == w[1].digest);
    if !digests_agree {
        info.push("check digests_agree_between_phases: FAILED".into());
    }
    Outcome {
        correct: failed_checks == 0 && digests_agree,
        attempted: phases.iter().map(|p| p.timing.calls()).sum(),
        failed: phases.iter().map(|p| p.failed_calls).sum::<u64>() + failed_checks,
        metrics,
        info,
    }
}

/// The result line.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&opts);
    for line in &outcome.info {
        println!("# {line}");
    }
    println!("{}", result_json(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_command_line_is_parsed_and_checked() {
        let o = parse_args(args("--workload fleet-phy --seed 7 --seconds 10 --trace 1"))
            .expect("valid arguments");
        assert_eq!(o.workload, Workload::FleetPhy);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload recovery --seed x --seconds 1 --trace 0",
            "--workload recovery --seed 1 --seconds 0 --trace 0",
            "--workload recovery --seed 1 --seconds 1 --trace 2",
            "--workload recovery --seed 1 --seconds 1",
            "--workload recovery --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad}");
        }
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} list"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("the list closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().expect("a name").to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("a unit")
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    fn catalogue(list: &[catalog::Metric]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), catalogue(catalog::END_TO_END));
        assert_eq!(declared("per_layer"), catalogue(catalog::PER_LAYER));
    }

    fn smoke(workload: Workload, trace: bool) {
        let o = run(&Opts {
            workload,
            seed: 3,
            seconds: 0.2,
            trace,
        });
        assert!(o.correct, "{:?}", o.info);
        assert_eq!(o.failed, 0);
        assert!(o.attempted >= 1);
        let list = if trace {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        };
        let emitted: Vec<(String, String)> = o
            .metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(emitted, catalogue(list));
        assert!(o.metrics.iter().all(|(_, v, _)| v.is_finite()));
        if !trace {
            assert!(
                o.metrics.iter().all(|(_, v, _)| *v > 0.0),
                "{:?}",
                o.metrics
            );
        }
        let line = result_json(&o);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for (name, _, unit) in &o.metrics {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"}}")));
        }
    }

    #[test]
    fn every_workload_emits_every_end_to_end_metric() {
        for w in Workload::ALL {
            smoke(w, false);
        }
    }

    #[test]
    fn every_workload_emits_every_per_layer_metric_when_traced() {
        for w in Workload::ALL {
            smoke(w, true);
        }
    }
}
