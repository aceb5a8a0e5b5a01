//! Public calls replayed outside the workload loop, on the shapes the
//! workloads use, to time layers whose work happens inside a single
//! program call: the compute kernels, FPGA read-back, the golden-image
//! upload, the contact-plan compile and one traffic frame.

use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Layers, Workload};
use gsp_coding::{kernels as trellis_kernels, ConvCode, ViterbiDecoder};
use gsp_dsp::fft::Fft;
use gsp_dsp::kernels as cpx_kernels;
use gsp_dsp::Cpx;
use gsp_fpga::mitigation::ReadbackStrategy;
use gsp_fpga::{Bitstream, ConfigPort, FpgaDevice, FpgaFabric};
use gsp_netproto::{BackoffPolicy, ContactSchedule};
use gsp_traffic::{TrafficConfig, TrafficEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Contact-plan horizon per upload, as the ground-contact soak uses.
pub const HORIZON_NS: u64 = 40_000_000_000;
/// Configuration frames per beam FPGA in the `recovery` workload.
pub const GOLDEN_FRAMES: usize = 48;
/// Beam equipments of the FDIR soak.
const BEAMS: usize = 6;
/// Repetitions behind each replayed median.
const REPS: usize = 9;
/// Seed stream tag of the replays' inputs.
const TAG: u64 = 0x4E71A7;

/// The standard three-station LEO network with soak-grade fades, its
/// fade pattern drawn from the workload seed.
pub fn contact_link(seed: u64) -> gsp_ground::ContactLink {
    gsp_ground::ContactLink::standard(gsp_ground::FadeConfig::soak(), stats::derive(seed, TAG, 0))
}

/// The golden-image uplink over `plan`, built as the ground-contact soak
/// builds it: the orbit's zenith channel, a backoff sized for the
/// per-block lockstep, sessions bounded by each contact's loss of signal.
pub fn uplink(link: &gsp_ground::ContactLink, plan: ContactSchedule) -> gsp_fdir::ReconfigUplink {
    gsp_fdir::ReconfigUplink {
        backoff: BackoffPolicy {
            base_ns: 30_000_000,
            max_ns: 120_000_000,
            jitter: 0.25,
            max_attempts: 4,
        },
        link: link.orbit.base,
        max_sessions: 40,
        session_deadline_ns: 400_000_000,
        contacts: None,
        resume_expiry_ns: 0,
    }
    .over_contacts(plan, 0)
}

/// The per-beam processing FPGA of the FDIR soak.
fn beam_device(frames: usize) -> FpgaDevice {
    FpgaDevice {
        name: "BEAM-DPP",
        clb_rows: 4,
        clb_cols: 4,
        frames,
        frame_bytes: 256,
        gate_capacity: 10_000,
        partial_reconfig: true,
        port: ConfigPort::Jtag {
            clock_hz: 10_000_000,
        },
        essential_fraction: 0.2,
    }
}

/// The golden image of beam `beam`, and a fabric configured with it.
fn beam_equipment(beam: usize) -> (Bitstream, FpgaFabric) {
    let device = beam_device(GOLDEN_FRAMES);
    let golden = Bitstream::synthesise(100 + beam as u32, &device, device.frames);
    let mut fabric = FpgaFabric::new(device);
    fabric
        .configure_full(&golden)
        .expect("a golden image fits its own device");
    fabric.power_on();
    (golden, fabric)
}

/// Median wall ns of `f` over [`REPS`] runs, read off their spans;
/// `tracer` must be recording.
fn time_ns(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    f();
    let first = tracer.spans().len();
    for i in 0..REPS as u64 {
        tracer.span(name, i, |_| f());
    }
    let runs: Vec<f64> = tracer.spans()[first..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    assert_eq!(runs.len(), REPS, "replays need a recording tracer");
    median(&runs)
}

/// Replays the compute kernels on the Fig. 2 shapes (ns per call).
fn kernels(seed: u64, tracer: &mut Tracer, out: &mut Layers) {
    let mut rng = StdRng::seed_from_u64(stats::derive(seed, TAG, 1));
    let mut cpx = |n: usize| -> Vec<Cpx> {
        (0..n)
            .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    };
    let handle = cpx_kernels::active();
    const CALLS: usize = 4096;

    // Matched filter: 48 real taps slid over a complex window.
    let x = cpx(CALLS + 48);
    let taps: Vec<f64> = x.iter().take(48).map(|c| c.re).collect();
    let ns = time_ns(tracer, "kernels.dot_real", || {
        let mut acc = Cpx::ZERO;
        for p in 0..CALLS {
            acc = handle.dot_real(&x[p..p + 48], &taps, acc);
        }
        black_box(acc);
    });
    out.set("kernels.dot_real_ns", ns / CALLS as f64);

    // Unique-word search: a 24-symbol reference at every offset.
    let r = cpx(24);
    let ns = time_ns(tracer, "kernels.corr_energy", || {
        let mut best = 0.0f64;
        for p in 0..CALLS {
            let (acc, energy) = handle.corr_energy(&x[p..p + 24], &r);
            best = best.max(acc.norm_sqr() * energy);
        }
        black_box(best);
    });
    out.set("kernels.corr_energy_ns", ns / CALLS as f64);

    // The channelizer-sized transform.
    let fft = Fft::with_kernels(256, handle);
    let input = cpx(256);
    let mut buf = input.clone();
    const FFTS: usize = 128;
    let ns = time_ns(tracer, "kernels.fft256", || {
        for _ in 0..FFTS {
            buf.copy_from_slice(&input);
            fft.forward(&mut buf);
            black_box(buf[0]);
        }
    });
    out.set("kernels.fft256_ns", ns / FFTS as f64);

    // One burst's decode: K=9 rate-1/2, 96 + 16 CRC + 8 tail bits.
    let steps = 96 + 16 + 8;
    let llrs: Vec<f64> = (0..2 * steps).map(|_| rng.gen_range(-4.0..4.0)).collect();
    let mut dec = ViterbiDecoder::with_kernels(ConvCode::umts_half(), trellis_kernels::active());
    let mut decoded = Vec::new();
    const DECODES: usize = 32;
    let ns = time_ns(tracer, "kernels.viterbi", || {
        for _ in 0..DECODES {
            dec.decode_into(&llrs, &mut decoded);
            black_box(decoded.len());
        }
    });
    out.set("kernels.viterbi_ns", ns / DECODES as f64);
}

/// Replays one tick's read-back scan of every beam FPGA: the CRC
/// compare plus the function check the FDIR detectors run.
fn readback(tracer: &mut Tracer, out: &mut Layers) {
    let beams: Vec<(Bitstream, FpgaFabric)> = (0..BEAMS).map(beam_equipment).collect();
    let ns = time_ns(tracer, "fpga.readback", || {
        for (golden, fabric) in &beams {
            let bad = ReadbackStrategy::CrcCompare
                .detect(fabric, golden)
                .expect("read-back of a powered fabric");
            black_box(bad.is_empty() && fabric.function_correct(golden));
        }
    });
    out.set("fpga.readback_us_per_tick", ns / 1e3);
}

/// Replays the contact-plan compile and one golden-image upload over
/// the plan, the one `recovery` compiles for the same seed.
fn ground_and_upload(seed: u64, tracer: &mut Tracer, out: &mut Layers) {
    let link = contact_link(seed);
    let mut plan = None;
    let ns = time_ns(tracer, "ground.schedule", || {
        plan = Some(black_box(link.schedule(HORIZON_NS)));
    });
    out.set("ground.schedule_ms", ns / 1e6);

    let up = uplink(&link, plan.expect("the plan compiled"));
    let (golden, _) = beam_equipment(0);
    let wire = golden.serialise().to_vec();
    let upload_seed = stats::derive(seed, TAG, 3);
    let mut outcome = None;
    let ns = time_ns(tracer, "netproto.upload", || {
        outcome = Some(up.upload(&wire, upload_seed));
    });
    let o = outcome.expect("the upload ran");
    out.set("netproto.upload_ms", ns / 1e6);
    out.set("netproto.sessions_per_upload", o.sessions as f64);
    out.set("netproto.retransmissions", o.retransmissions as f64);
    out.set("netproto.frames_lost_contact", o.frames_lost_contact as f64);
}

/// Replays traffic frames of the FDIR soak's plane (6 beams at 0.75
/// load); returns µs per frame.
fn traffic_frame_us(seed: u64, tracer: &mut Tracer) -> f64 {
    let cfg = TrafficConfig {
        beams: BEAMS,
        ..TrafficConfig::standard(0.75)
    };
    let mut engine = TrafficEngine::new(cfg, stats::derive(seed, TAG, 4));
    engine.run(64);
    const FRAMES: u64 = 64;
    time_ns(tracer, "traffic.run_frame", || engine.run(FRAMES)) / 1e3 / FRAMES as f64
}

/// Every replay, into `out`. The traffic frame is replayed for
/// `recovery` only: the fleets measure theirs.
pub fn all(workload: Workload, seed: u64, tracer: &mut Tracer, out: &mut Layers) {
    kernels(seed, tracer, out);
    readback(tracer, out);
    ground_and_upload(seed, tracer, out);
    if workload == Workload::Recovery {
        let us = traffic_frame_us(seed, tracer);
        out.set("traffic.self_us_per_sat_frame", us);
    }
}
