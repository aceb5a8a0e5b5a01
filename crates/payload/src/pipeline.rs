//! The reusable Fig. 2 pipeline engine: per-carrier Tx synthesis and
//! DEMOD → DECOD → CRC fanned across a **persistent worker pool**, with
//! cross-frame software pipelining.
//!
//! [`crate::chain::run_mf_tdma_frame`] builds the whole chain from scratch
//! for every frame. This module keeps all of that state alive in a
//! [`PipelineEngine`] instead:
//!
//! * each active carrier owns a **Tx lane** (encoder, modulator,
//!   ×M upconverter onto its carrier) and an **Rx lane** (burst
//!   demodulator, Viterbi decoder, CRC) that persist across frames;
//! * with `workers > 1` the lanes live inside long-lived pool threads
//!   (spawned once in [`PipelineEngine::with_workers`], joined on drop)
//!   fed over bounded SPSC job queues — not re-spawned per frame behind a
//!   join barrier, which is what kept the old sweep flat;
//! * both halves are parallel: Tx burst synthesis, the frame's ADC noise
//!   *and* the per-carrier receive chain run on the pool, with only bit
//!   drawing, carrier summation, the polyphase DEMUX and switch ingress
//!   left on the engine thread;
//! * [`PipelineEngine::run_frames`] pipelines across frames: frame
//!   `i+1`'s Tx synthesis is dispatched *before* frame `i`'s receive
//!   jobs, so workers always have queued work while the engine thread
//!   runs the serial stages — steady-state throughput approaches
//!   `max(serial_ns, parallel_ns / workers)` per frame instead of their
//!   sum;
//! * per-stage counters accumulate in [`PipelineStats`].
//!
//! # Determinism
//!
//! A frame's [`ChainReport`] is **bitwise identical** for any worker
//! count, including the serial `workers == 1` path, and whether frames
//! are run one at a time or as a pipelined batch:
//!
//! * everything that consumes randomness runs serially on one per-frame
//!   `StdRng`: the information bits on the engine thread, in carrier
//!   order, then the ADC noise, drawn from the same generator by one job
//!   into the frame's own composite buffer;
//! * each Tx lane synthesizes its burst into a **lane-private** buffer;
//!   the engine sums those buffers serially in carrier order and adds
//!   the sum to the noise, so the float additions happen in exactly the
//!   serial order no matter which worker finished first;
//! * lanes are bound to workers in fixed carrier-order chunks (the same
//!   `ceil(lanes / workers)` chunking for every run), each worker owns
//!   its lanes' state outright, and job/result buffers ping-pong by lane
//!   index — scheduling can reorder *completion*, never *content*;
//! * the switch ingests CRC-clean packets serially in carrier order, and
//!   all counters are folded in frame order when a frame retires.

use crate::chain::{CarrierOutcome, ChainConfig, ChainReport};
use crate::switch::{BasebandPacket, PacketSwitch};
use gsp_channel::awgn::{AwgnChannel, GaussianSampler};
use gsp_coding::{kernels as trellis_kernels, ConvCode, ConvEncoder, Crc, CrcKind, ViterbiDecoder};
use gsp_dsp::channelizer::PolyphaseChannelizer;
use gsp_dsp::kernels as cpx_kernels;
use gsp_dsp::resample::Upconverter;
use gsp_dsp::Cpx;
use gsp_modem::framing::BurstFormat;
use gsp_modem::tdma::{TdmaBurstDemodulator, TdmaBurstModulator, TdmaConfig, TdmaDemodResult};
use gsp_telemetry::{Counter, Gauge, Histogram, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames in flight at once: frame `i-1` retiring (Rx collect + switch),
/// frame `i` in the serial stages, frame `i+1`'s Tx synthesis queued.
const SLOTS: usize = 3;

/// How long a result collect waits before declaring a worker dead. The
/// pool never legitimately stalls — jobs are bounded and workers are
/// compute-only — so this only turns a wedged test into a loud failure.
const COLLECT_TIMEOUT: Duration = Duration::from_secs(120);

/// Accumulated per-stage counters across every frame an engine has run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Frames processed.
    pub frames: u64,
    /// Composite (ADC-rate) samples processed.
    pub composite_samples: u64,
    /// Bursts whose unique word was not found.
    pub uw_misses: u64,
    /// Bursts that demodulated but failed the CRC after decoding.
    pub crc_failures: u64,
    /// Packets the switch accepted and forwarded.
    pub packets_forwarded: u64,
    /// Packets the switch dropped on a full beam queue.
    pub packets_dropped_overflow: u64,
    /// Packets the switch dropped for want of a route.
    pub packets_dropped_no_route: u64,
    /// Nanoseconds in the *serial* Tx residue: information-bit drawing
    /// and carrier summation into the composite. (Burst synthesis and ADC
    /// noise run as pool jobs — see [`PipelineStats::tx_synth_ns`].)
    pub tx_ns: u64,
    /// Nanoseconds of stimulus: per-lane burst synthesis (CRC attach,
    /// conv encode, modulate, upconvert onto the carrier) plus drawing the
    /// frame's ADC noise, summed across jobs — CPU time, not wall time,
    /// when workers > 1.
    pub tx_synth_ns: u64,
    /// Nanoseconds in the polyphase DEMUX.
    pub demux_ns: u64,
    /// Frames whose DEMUX produced a block count different from the
    /// expected `ceil(composite / channels)` — formerly a
    /// `debug_assert`, now a real counter (see [`ChainReport::demux_ok`]).
    pub demux_errors: u64,
    /// Nanoseconds in burst demodulation, summed across lanes (CPU time,
    /// not wall time, when workers > 1).
    pub demod_ns: u64,
    /// Nanoseconds in Viterbi decoding + CRC, summed across lanes.
    pub decode_ns: u64,
    /// Nanoseconds in switch ingress.
    pub switch_ns: u64,
}

/// Derives the seed of frame `i` of a batched run from the run `seed`
/// (SplitMix64-mixed so distinct `(seed, i)` pairs cannot collide).
pub fn frame_seed(seed: u64, i: usize) -> u64 {
    seed ^ rand::splitmix64_mix(0xF2A3_0000_0000_0000 ^ i as u64)
}

/// A fault an FDIR injector can impose on one carrier lane (the live
/// manifestation of an SEU landing in lane state — see `gsp-fdir`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneFault {
    /// The lane's receive half stops running: its watchdog heartbeat
    /// freezes and every burst on the carrier is lost.
    Stall,
    /// The lane keeps running but its CRC checker is corrupted: every
    /// burst decodes and then fails the check.
    CorruptCrc,
}

/// One lane's liveness counters, as sampled by an FDIR watchdog.
///
/// `heartbeats` advances once per completed receive pass and freezes
/// while the lane is stalled; `crc_failures` counts bursts that
/// demodulated but failed the CRC. Both are cumulative since engine
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneHealth {
    /// Receive passes completed.
    pub heartbeats: u64,
    /// Bursts that demodulated but failed the CRC on this lane.
    pub crc_failures: u64,
}

/// Per-lane, per-frame I/O that ping-pongs between the engine and the
/// worker owning the lane: ground-truth bits and the synthesized burst on
/// the way out, channel samples on the way in, outcome and packet on the
/// way back. Boxed so a job message moves a pointer, not kilobytes; the
/// buffers reach steady-state capacity after the first frame (or at
/// construction, via pre-warm) and are never reallocated.
struct LaneIo {
    /// Ground-truth information bits (drawn serially by the engine).
    info: Vec<u8>,
    /// The lane's burst, upsampled to composite rate and mixed onto its
    /// carrier — summed into the composite by the engine, in lane order.
    upsampled: Vec<Cpx>,
    /// The lane's channel samples out of the DEMUX.
    samples: Vec<Cpx>,
    /// Per-frame Rx output.
    outcome: Option<CarrierOutcome>,
    /// Per-frame Rx output: the CRC-clean packet, if any.
    packet: Option<BasebandPacket>,
    tx_ns: u64,
    demod_ns: u64,
    decode_ns: u64,
    /// Mirror of the lane's cumulative heartbeat counter, carried back so
    /// the engine can answer watchdog queries without touching the
    /// worker-owned lane.
    heartbeats: u64,
    /// Mirror of the lane's cumulative CRC-failure counter.
    crc_failures: u64,
}

impl LaneIo {
    fn with_capacity(info: usize, upsampled: usize, samples: usize) -> Box<Self> {
        Box::new(LaneIo {
            info: Vec::with_capacity(info),
            upsampled: Vec::with_capacity(upsampled),
            samples: Vec::with_capacity(samples),
            outcome: None,
            packet: None,
            tx_ns: 0,
            demod_ns: 0,
            decode_ns: 0,
            heartbeats: 0,
            crc_failures: 0,
        })
    }
}

/// One carrier's long-lived transmit state.
struct TxLane {
    encoder: ConvEncoder,
    crc: Crc,
    /// ×M upsampler and mixer onto this lane's carrier.
    upconverter: Upconverter,
    modulator: TdmaBurstModulator,
    /// Tx scratch: info bits with the CRC attached.
    protected: Vec<u8>,
    /// Tx scratch: the convolutionally coded block.
    coded: Vec<u8>,
    /// Tx scratch: the assembled burst symbols before pulse shaping.
    syms: Vec<Cpx>,
    /// Tx scratch: this carrier's modulated burst.
    wave: Vec<Cpx>,
}

impl TxLane {
    /// Synthesizes the lane's burst from `io.info`: CRC → conv encode →
    /// modulate → upconvert ×M onto the carrier centre, into
    /// `io.upsampled`. Touches only lane-local state and `io`, so it is
    /// safe on any worker; the engine later sums the per-lane buffers in
    /// carrier order, reproducing the serial accumulation bit for bit.
    fn synth(&mut self, io: &mut LaneIo) {
        self.crc.attach_into(&io.info, &mut self.protected);
        self.encoder.encode_into(&self.protected, &mut self.coded);
        self.modulator
            .modulate_into(&self.coded, &mut self.syms, &mut self.wave);

        self.upconverter.reset();
        io.upsampled.clear();
        for &s in &self.wave {
            self.upconverter.push(s, &mut io.upsampled);
        }
    }
}

/// One carrier's long-lived receive state.
struct RxLane {
    carrier: usize,
    demod: TdmaBurstDemodulator,
    viterbi: ViterbiDecoder,
    crc: Crc,
    beams: usize,
    /// Rx scratch: the demodulator's reusable result slot.
    demod_out: TdmaDemodResult,
    /// Rx scratch: the Viterbi decoder's reusable output buffer.
    decoded: Vec<u8>,
    /// Injected fault, if any (see [`LaneFault`]).
    fault: Option<LaneFault>,
    /// Receive passes completed (frozen while stalled).
    heartbeats: u64,
    /// Cumulative CRC failures on this lane.
    crc_fail_count: u64,
}

impl RxLane {
    /// Demodulate, decode, CRC-check one channel's samples (`io.samples`
    /// against ground truth `io.info`). Touches only lane-local state,
    /// and — via the demodulator's and decoder's `_into` entry points —
    /// no heap in steady state (the CRC-clean packet handed to the switch
    /// is the one escaping allocation).
    fn receive(&mut self, io: &mut LaneIo) {
        let k = self.carrier;
        io.packet = None;

        if self.fault == Some(LaneFault::Stall) {
            // Stalled lane: the receive half never runs, so the burst is
            // lost and the heartbeat counter freezes — exactly what a
            // watchdog deadline is there to catch. (The Tx half already
            // ran, so the RNG draw sequence is unchanged.)
            io.demod_ns = 0;
            io.decode_ns = 0;
            io.outcome = Some(CarrierOutcome {
                carrier: k,
                detected: false,
                crc_ok: false,
                bit_errors: io.info.len(),
                bits: io.info.len(),
            });
            io.heartbeats = self.heartbeats;
            io.crc_failures = self.crc_fail_count;
            return;
        }

        let t0 = Instant::now();
        let detected = self.demod.demodulate_into(&io.samples, &mut self.demod_out);
        io.demod_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let outcome = if detected {
            self.viterbi
                .decode_into(&self.demod_out.llrs, &mut self.decoded);
            let decoded = &self.decoded;
            let crc_ok =
                self.crc.check(decoded).is_some() && self.fault != Some(LaneFault::CorruptCrc);
            let recovered = &decoded[..decoded.len().saturating_sub(16)];
            let bits = &io.info;
            let bit_errors = recovered.iter().zip(bits).filter(|(a, b)| a != b).count()
                + bits.len().saturating_sub(recovered.len());
            if crc_ok {
                io.packet = Some(BasebandPacket {
                    source: k as u16,
                    dest_beam: (k % self.beams) as u8,
                    class: 0,
                    // Stamped with the engine's frame tick in the serial
                    // ingress section (the lane does not know it).
                    born_tick: 0,
                    data: gsp_coding::bits::pack_bits(recovered),
                });
            }
            CarrierOutcome {
                carrier: k,
                detected: true,
                crc_ok,
                bit_errors,
                bits: bits.len(),
            }
        } else {
            CarrierOutcome {
                carrier: k,
                detected: false,
                crc_ok: false,
                bit_errors: io.info.len(),
                bits: io.info.len(),
            }
        };
        io.decode_ns = t1.elapsed().as_nanos() as u64;
        if outcome.detected && !outcome.crc_ok {
            self.crc_fail_count += 1;
        }
        self.heartbeats += 1;
        io.outcome = Some(outcome);
        io.heartbeats = self.heartbeats;
        io.crc_failures = self.crc_fail_count;
    }
}

/// A frame's FDM composite at ADC rate. On a noisy channel phase A fills
/// it with the frame's ADC noise and phase B adds the carrier sum to it;
/// a noiseless frame holds the carrier sum alone.
struct Composite {
    samples: Vec<Cpx>,
    /// Nanoseconds spent drawing this frame's noise (stimulus time).
    noise_ns: u64,
}

impl Composite {
    /// Fills the buffer with `len` complex Gaussian samples of
    /// per-component deviation `sigma`: the draws an [`AwgnChannel`]
    /// would add sample by sample, taken from the frame RNG after the
    /// information bits.
    fn draw_noise(&mut self, rng: &mut StdRng, sigma: f64, len: usize) {
        let t0 = Instant::now();
        let mut gauss = GaussianSampler::new();
        self.samples.clear();
        self.samples
            .extend((0..len).map(|_| gauss.next_complex(rng, sigma)));
        self.noise_ns = t0.elapsed().as_nanos() as u64;
    }
}

/// Adds the lanes' bursts, each starting `guard` samples into the frame,
/// in carrier order, and writes the sum `s` into `composite` — as `s + n`
/// onto the noise `n` it holds when `noisy` (the add [`AwgnChannel::push`]
/// makes), as `s` alone otherwise. The sum runs a stack chunk at a time,
/// so it needs no frame-sized buffer of its own.
fn fold_carriers(ios: &[Option<Box<LaneIo>>], guard: usize, composite: &mut [Cpx], noisy: bool) {
    const CHUNK: usize = 256;
    let mut sum = [Cpx::ZERO; CHUNK];
    for (c, out) in composite.chunks_mut(CHUNK).enumerate() {
        let start = c * CHUNK;
        let sum = &mut sum[..out.len()];
        sum.fill(Cpx::ZERO);
        for io in ios {
            let burst = &io.as_ref().expect("tx collected").upsampled;
            let lo = start.max(guard);
            let hi = (start + out.len()).min(guard + burst.len());
            for i in lo..hi {
                sum[i - start] += burst[i - guard];
            }
        }
        if noisy {
            for (o, s) in out.iter_mut().zip(sum.iter()) {
                *o = *s + *o;
            }
        } else {
            out.copy_from_slice(sum);
        }
    }
}

/// A unit of work for a pool worker. Lane jobs carry the frame slot they
/// belong to, so results of different in-flight frames cannot be
/// confused; control messages ride the same FIFO queues and therefore
/// take effect in program order relative to frame jobs.
enum Job {
    /// Synthesize lane `lane`'s burst for the frame in `slot`.
    Tx {
        slot: usize,
        lane: usize,
        io: Box<LaneIo>,
    },
    /// Receive lane `lane`'s channel samples for the frame in `slot`.
    Rx {
        slot: usize,
        lane: usize,
        io: Box<LaneIo>,
    },
    /// Draw the ADC noise of the frame in `slot` into its composite,
    /// continuing the frame's RNG where bit drawing left it.
    Noise {
        slot: usize,
        rng: StdRng,
        sigma: f64,
        len: usize,
        composite: Composite,
    },
    /// Register the worker's demodulators on a telemetry registry.
    Telemetry(Registry),
    /// Impose (or clear) a fault on one lane.
    Fault {
        lane: usize,
        fault: Option<LaneFault>,
    },
}

/// A finished job on its way back to the engine. `rx` is false for the
/// frame's stimulus: lane synthesis and the noise draw.
struct Done {
    slot: usize,
    rx: bool,
    work: Finished,
}

/// What a finished job hands back.
enum Finished {
    Lane { lane: usize, io: Box<LaneIo> },
    Noise(Composite),
}

impl Finished {
    /// Puts the returned buffers back into the frame slot.
    fn restore(self, sl: &mut FrameSlot) {
        match self {
            Finished::Lane { lane, io } => sl.ios[lane] = Some(io),
            Finished::Noise(composite) => sl.composite = Some(composite),
        }
    }
}

fn worker_loop(
    base: usize,
    mut lanes: Vec<(TxLane, RxLane)>,
    jobs: Receiver<Job>,
    done: Sender<Done>,
) {
    while let Ok(job) = jobs.recv() {
        let finished = match job {
            Job::Tx { slot, lane, mut io } => {
                let t0 = Instant::now();
                lanes[lane - base].0.synth(&mut io);
                io.tx_ns = t0.elapsed().as_nanos() as u64;
                Done {
                    slot,
                    rx: false,
                    work: Finished::Lane { lane, io },
                }
            }
            Job::Rx { slot, lane, mut io } => {
                lanes[lane - base].1.receive(&mut io);
                Done {
                    slot,
                    rx: true,
                    work: Finished::Lane { lane, io },
                }
            }
            Job::Noise {
                slot,
                mut rng,
                sigma,
                len,
                mut composite,
            } => {
                composite.draw_noise(&mut rng, sigma, len);
                Done {
                    slot,
                    rx: false,
                    work: Finished::Noise(composite),
                }
            }
            Job::Telemetry(registry) => {
                for (_, rx) in &mut lanes {
                    rx.demod.set_telemetry(&registry);
                }
                continue;
            }
            Job::Fault { lane, fault } => {
                lanes[lane - base].1.fault = fault;
                continue;
            }
        };
        if done.send(finished).is_err() {
            return;
        }
    }
}

/// The persistent worker pool: one long-lived thread per lane chunk, fed
/// over a bounded SPSC job queue (the engine is the only sender), results
/// funneled back over one shared channel. Lane state is *moved into* the
/// workers at spawn; the engine talks to it only through messages, so
/// there is no shared mutable state and no unsafe.
struct WorkerPool {
    job_txs: Vec<SyncSender<Job>>,
    done_rx: Receiver<Done>,
    handles: Vec<JoinHandle<()>>,
    /// Lanes per worker: lane `l` belongs to worker `l / chunk` — the
    /// same fixed carrier-order chunking the scoped fan-out used, so the
    /// lane→worker binding is independent of scheduling.
    chunk: usize,
    /// Results that arrived while collecting a different (slot, kind) —
    /// the pipelined schedule interleaves frames, so a Tx result of frame
    /// `i+1` can land while the engine is draining frame `i`'s Rx.
    pending: Vec<Done>,
}

impl WorkerPool {
    fn spawn(lanes: Vec<(TxLane, RxLane)>, workers: usize) -> Self {
        let n = lanes.len();
        let chunk = n.div_ceil(workers);
        let spawned = n.div_ceil(chunk);
        let (done_tx, done_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(spawned);
        let mut handles = Vec::with_capacity(spawned);
        let mut iter = lanes.into_iter();
        for w in 0..spawned {
            let my: Vec<_> = iter.by_ref().take(chunk).collect();
            // Worst case in flight per worker: one frame's Tx plus one
            // frame's Rx for its chunk, a noise job, plus a couple of
            // control messages between batches.
            let (job_tx, job_rx) = mpsc::sync_channel(2 * chunk + 5);
            let done = done_tx.clone();
            let base = w * chunk;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gsp-payload-{w}"))
                    .spawn(move || worker_loop(base, my, job_rx, done))
                    .expect("spawn payload worker"),
            );
            job_txs.push(job_tx);
        }
        WorkerPool {
            job_txs,
            done_rx,
            handles,
            chunk,
            pending: Vec::new(),
        }
    }

    /// Sends a lane-addressed job to the worker owning that lane.
    fn dispatch(&self, lane: usize, job: Job) {
        self.job_txs[lane / self.chunk]
            .send(job)
            .expect("payload worker alive");
    }

    /// Sends a frame's noise job to the last worker, whose lane chunk is
    /// never larger than the others'.
    fn dispatch_noise(&self, job: Job) {
        self.job_txs
            .last()
            .expect("pool has workers")
            .send(job)
            .expect("payload worker alive");
    }

    /// Sends a control message to every worker.
    fn broadcast(&self, make: impl Fn() -> Job) {
        for tx in &self.job_txs {
            tx.send(make()).expect("payload worker alive");
        }
    }

    /// Collects `need` results of the given (slot, kind), restoring each
    /// buffer to its place in `sl`. Results belonging to other in-flight
    /// frames are parked in `pending`.
    fn collect(&mut self, slot: usize, want_rx: bool, mut need: usize, sl: &mut FrameSlot) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].slot == slot && self.pending[i].rx == want_rx {
                self.pending.swap_remove(i).work.restore(sl);
                need -= 1;
            } else {
                i += 1;
            }
        }
        while need > 0 {
            let d = self
                .done_rx
                .recv_timeout(COLLECT_TIMEOUT)
                .expect("payload worker died or wedged");
            if d.slot == slot && d.rx == want_rx {
                d.work.restore(sl);
                need -= 1;
            } else {
                self.pending.push(d);
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job queues ends each worker's recv loop; they
        // drain whatever was queued, then exit.
        self.job_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Where the lanes live: inline for the serial path, in pool threads
/// otherwise. `workers == 1` deliberately stays a plain in-thread loop —
/// it is the bitwise reference and the bench baseline, and must carry
/// zero queue overhead.
enum Backend {
    Serial(Vec<(TxLane, RxLane)>),
    Pool(WorkerPool),
}

/// Per-slot state of one in-flight frame.
struct FrameSlot {
    /// One I/O buffer per lane; `None` while the lane's job is in flight.
    ios: Vec<Option<Box<LaneIo>>>,
    /// The frame's composite; `None` while its noise job is in flight.
    composite: Option<Composite>,
    /// Frame wall-clock start (phase A entry).
    started: Option<Instant>,
    /// Serial Tx nanoseconds so far (bit draw + summation).
    tx_serial_ns: u64,
    demux_ns: u64,
    /// Channel blocks the DEMUX produced.
    produced: usize,
    /// Channel blocks the DEMUX should have produced.
    expected: usize,
    composite_len: usize,
}

/// The engine's metric handles, all no-op until
/// [`PipelineEngine::set_telemetry`] installs live ones.
///
/// Everything recorded here is an order-independent sum or a per-burst
/// observation: telemetry is observed, never consulted, so an enabled
/// engine stays bitwise identical to a disabled one at any worker count
/// (asserted by `tests/tests/telemetry_plane.rs`).
#[derive(Clone, Debug, Default)]
struct EngineTelemetry {
    /// Whether the handles are live (gates the extra wall-clock reads).
    enabled: bool,
    /// `payload.frame.ns` — whole-frame wall time (dispatch to retire; in
    /// a pipelined batch this overlaps neighbouring frames).
    frame_ns: Histogram,
    /// `payload.tx.ns` — serial Tx residue (bit draw + carrier sum), per
    /// frame.
    tx_ns: Histogram,
    /// `payload.tx.synth.ns` — stimulus: per-lane burst synthesis, plus
    /// one observation per noisy frame for the noise draw.
    tx_synth_ns: Histogram,
    /// `payload.demux.ns` — polyphase channelizer stage, per frame.
    demux_ns: Histogram,
    /// `payload.demod.ns` — burst demodulation, per carrier lane.
    demod_ns: Histogram,
    /// `payload.decode.ns` — Viterbi + CRC, per carrier lane.
    decode_ns: Histogram,
    /// `payload.switch.ns` — serial switch ingress stage, per frame.
    switch_ns: Histogram,
    frames: Counter,
    composite_samples: Counter,
    uw_misses: Counter,
    crc_failures: Counter,
    /// `payload.demux.errors` — frames whose DEMUX block count was off.
    demux_errors: Counter,
    packets_forwarded: Counter,
    packets_dropped_overflow: Counter,
    packets_dropped_no_route: Counter,
    /// `payload.workers` — configured worker count.
    workers: Gauge,
    /// `payload.workers.utilization` — summed lane CPU time over
    /// `workers` × wall time of the last `run_frame*`/`run_frames` call.
    utilization: Gauge,
    /// `payload.pool.queue_depth` — lane jobs in flight right after an Rx
    /// dispatch (pool mode only).
    queue_depth: Gauge,
}

/// Reusable Fig. 2 payload pipeline with a persistent worker pool.
pub struct PipelineEngine {
    cfg: ChainConfig,
    workers: usize,
    n_lanes: usize,
    backend: Backend,
    /// Composite samples per frame: the bursts at ADC rate between two
    /// guard intervals (fixed by the burst format).
    composite_len: usize,
    /// Per-component deviation of the composite's ADC noise; `None` on a
    /// noiseless channel.
    noise_sigma: Option<f64>,
    channelizer: PolyphaseChannelizer,
    stats: PipelineStats,
    /// Per-frame scratch: the channelizer's one-block output vector.
    demux_frame: Vec<Cpx>,
    /// In-flight frame slots (only slot 0 is used outside pipelined
    /// batches).
    slots: Vec<FrameSlot>,
    /// Reusable switch scratch: reset + swapped with the outgoing
    /// report's switch each frame, so steady-state ingress allocates
    /// nothing (PR 3's hot-path guarantee, restored).
    switch: PacketSwitch,
    /// Engine-side mirror of each lane's injected fault (the lane itself
    /// may live in a worker thread).
    lane_faults: Vec<Option<LaneFault>>,
    /// Engine-side mirror of each lane's watchdog counters, refreshed
    /// when the lane's frame retires.
    lane_health: Vec<LaneHealth>,
    /// Lane CPU ns accumulated since the current public call began.
    busy_ns: u64,
    tel: EngineTelemetry,
}

impl PipelineEngine {
    /// Engine with one worker per available CPU (at most one per carrier).
    pub fn new(cfg: ChainConfig) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_workers(cfg, cores)
    }

    /// Engine with an explicit worker count (`1` = fully serial, no pool
    /// threads). Workers beyond one per active carrier are clamped.
    ///
    /// Construction pre-warms every lane — survivor matrices, demodulator
    /// workspaces, modulation scratch and the per-slot I/O buffers are
    /// sized here — so first-frame latency matches steady state instead
    /// of spiking on cold allocations.
    pub fn with_workers(cfg: ChainConfig, workers: usize) -> Self {
        assert!(cfg.active_carriers <= cfg.channels);
        assert!(workers >= 1);
        let m = cfg.channels;
        let n = cfg.active_carriers;
        let code = ConvCode::umts_half();
        // Resolve the receive chain's compute-kernel handles once; every
        // lane (and the shared channelizer) is pinned to the same backend
        // so a frame's report never depends on which lane ran where.
        let (cpx_k, trellis_k) = match cfg.kernel_backend {
            Some(b) => (cpx_kernels::for_backend(b), trellis_kernels::for_backend(b)),
            None => (cpx_kernels::active(), trellis_kernels::active()),
        };
        let coded_bits = (cfg.info_bits + 16 + 8) * 2;
        let fmt = BurstFormat::standard(24, 24, coded_bits / 2);
        let tdma_cfg = TdmaConfig::new(fmt, cfg.timing);
        let modulator = TdmaBurstModulator::new(tdma_cfg.clone());
        let burst_len = modulator.modulate(&vec![0u8; coded_bits]).len();
        let guard = 64 * m;
        let composite_len = burst_len * m + 2 * guard;
        let blocks = composite_len / m;

        let mut lanes: Vec<(TxLane, RxLane)> = (0..n)
            .map(|k| {
                (
                    TxLane {
                        encoder: ConvEncoder::new(code.clone()),
                        crc: Crc::new(CrcKind::Crc16),
                        upconverter: Upconverter::new(
                            m,
                            std::f64::consts::TAU * k as f64 / m as f64,
                        ),
                        modulator: modulator.clone(),
                        protected: Vec::new(),
                        coded: Vec::new(),
                        syms: Vec::new(),
                        wave: Vec::new(),
                    },
                    RxLane {
                        carrier: k,
                        demod: TdmaBurstDemodulator::with_kernels(tdma_cfg.clone(), cpx_k),
                        viterbi: ViterbiDecoder::with_kernels(code.clone(), trellis_k),
                        crc: Crc::new(CrcKind::Crc16),
                        beams: cfg.beams,
                        demod_out: TdmaDemodResult::default(),
                        decoded: Vec::new(),
                        fault: None,
                        heartbeats: 0,
                        crc_fail_count: 0,
                    },
                )
            })
            .collect();

        // Pre-warm: run one throwaway burst through each Tx lane (sizes
        // the encode/modulate/upsample scratch), grow each Viterbi
        // survivor matrix to block size, and push one zero block through
        // each demodulator (sizes its matched-filter and symbol buffers;
        // telemetry handles are still no-op, and lane heartbeats are
        // untouched, so nothing observable changes).
        let mut warm = LaneIo::with_capacity(cfg.info_bits, 0, blocks);
        warm.info = vec![0u8; cfg.info_bits];
        warm.samples = vec![Cpx::ZERO; blocks];
        for (tx, rx) in &mut lanes {
            tx.synth(&mut warm);
            rx.viterbi.reserve_steps(coded_bits / 2);
            let _ = rx.demod.demodulate_into(&warm.samples, &mut rx.demod_out);
            rx.decoded.reserve(cfg.info_bits + 24);
        }
        let upsampled_len = warm.upsampled.len();

        let workers = workers.min(n.max(1));
        let slots = (0..SLOTS)
            .map(|i| FrameSlot {
                ios: (0..n)
                    .map(|_| Some(LaneIo::with_capacity(cfg.info_bits, upsampled_len, blocks)))
                    .collect(),
                // Slot 0 runs every frame and is sized here; the other
                // slots only run in pipelined batches and size on first
                // use.
                composite: Some(Composite {
                    samples: Vec::with_capacity(if i == 0 { composite_len } else { 0 }),
                    noise_ns: 0,
                }),
                started: None,
                tx_serial_ns: 0,
                demux_ns: 0,
                produced: 0,
                expected: 0,
                composite_len: 0,
            })
            .collect();
        let backend = if workers <= 1 || n <= 1 {
            Backend::Serial(lanes)
        } else {
            Backend::Pool(WorkerPool::spawn(lanes, workers))
        };
        // Per-carrier Es/N0 calibration: the channelizer passes an
        // on-centre carrier with unit gain while keeping only the
        // channel's share of the composite noise (measured noise
        // bandwidth ≈ 1.1/m of the prototype), so composite noise is
        // 1.1·m times the per-channel target.
        let noise_sigma = cfg
            .esn0_db
            .map(|db| AwgnChannel::from_esn0_db(db - 10.0 * (1.1 * m as f64).log10()).sigma());

        PipelineEngine {
            workers,
            n_lanes: n,
            backend,
            composite_len,
            noise_sigma,
            channelizer: PolyphaseChannelizer::with_kernels(m, 12, cpx_k),
            stats: PipelineStats::default(),
            demux_frame: vec![Cpx::ZERO; m],
            slots,
            switch: PacketSwitch::new(cfg.beams, cfg.switch_queue_limit),
            lane_faults: vec![None; n],
            lane_health: vec![LaneHealth::default(); n],
            busy_ns: 0,
            tel: EngineTelemetry::default(),
            cfg,
        }
    }

    /// Registers the engine's metrics on `registry` and starts recording
    /// into them: per-stage latency histograms (`payload.tx.ns`,
    /// `payload.tx.synth.ns`, `payload.demux.ns`, per-lane
    /// `payload.demod.ns` / `payload.decode.ns`, `payload.switch.ns`,
    /// `payload.frame.ns`), outcome counters (`payload.frames`,
    /// `payload.uw_misses`, `payload.crc.failures`,
    /// `payload.demux.errors`, `payload.packets.*`) and worker gauges
    /// (`payload.workers`, `payload.workers.utilization`,
    /// `payload.pool.queue_depth`). The lanes' burst demodulators
    /// register their `modem.tdma.*` counters on the same registry —
    /// delivered to pool workers as a control message on the same FIFO
    /// queues as frame jobs, so it takes effect before the next frame.
    ///
    /// Telemetry is observed, never consulted: frame reports stay bitwise
    /// identical whether `registry` is live, no-op, or never installed.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.tel = EngineTelemetry {
            enabled: registry.enabled(),
            frame_ns: registry.histogram_ns("payload.frame.ns"),
            tx_ns: registry.histogram_ns("payload.tx.ns"),
            tx_synth_ns: registry.histogram_ns("payload.tx.synth.ns"),
            demux_ns: registry.histogram_ns("payload.demux.ns"),
            demod_ns: registry.histogram_ns("payload.demod.ns"),
            decode_ns: registry.histogram_ns("payload.decode.ns"),
            switch_ns: registry.histogram_ns("payload.switch.ns"),
            frames: registry.counter("payload.frames"),
            composite_samples: registry.counter("payload.composite_samples"),
            uw_misses: registry.counter("payload.uw_misses"),
            crc_failures: registry.counter("payload.crc.failures"),
            demux_errors: registry.counter("payload.demux.errors"),
            packets_forwarded: registry.counter("payload.packets.forwarded"),
            packets_dropped_overflow: registry.counter("payload.packets.dropped_overflow"),
            packets_dropped_no_route: registry.counter("payload.packets.dropped_no_route"),
            workers: registry.gauge("payload.workers"),
            utilization: registry.gauge("payload.workers.utilization"),
            queue_depth: registry.gauge("payload.pool.queue_depth"),
        };
        self.tel.workers.set(self.workers as f64);
        match &mut self.backend {
            Backend::Serial(lanes) => {
                for (_, rx) in lanes {
                    rx.demod.set_telemetry(registry);
                }
            }
            Backend::Pool(pool) => pool.broadcast(|| Job::Telemetry(registry.clone())),
        }
    }

    /// The engine's chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.cfg
    }

    /// Worker count (clamped to the active carrier count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Accumulated per-stage counters since construction (or the last
    /// [`PipelineEngine::reset_stats`]).
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Zeroes the accumulated counters.
    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
    }

    fn set_fault(&mut self, carrier: usize, fault: Option<LaneFault>) {
        if carrier >= self.n_lanes {
            return;
        }
        self.lane_faults[carrier] = fault;
        match &mut self.backend {
            Backend::Serial(lanes) => lanes[carrier].1.fault = fault,
            Backend::Pool(pool) => pool.dispatch(
                carrier,
                Job::Fault {
                    lane: carrier,
                    fault,
                },
            ),
        }
    }

    /// Imposes `fault` on carrier lane `carrier` (no-op out of range).
    /// The fault persists across frames until [`Self::clear_lane_fault`].
    pub fn inject_lane_fault(&mut self, carrier: usize, fault: LaneFault) {
        self.set_fault(carrier, Some(fault));
    }

    /// Clears any injected fault on lane `carrier` — the recovery side of
    /// an FDIR lane reset (no-op out of range).
    pub fn clear_lane_fault(&mut self, carrier: usize) {
        self.set_fault(carrier, None);
    }

    /// The fault currently imposed on lane `carrier`, if any.
    pub fn lane_fault(&self, carrier: usize) -> Option<LaneFault> {
        self.lane_faults.get(carrier).copied().flatten()
    }

    /// Watchdog counters for lane `carrier` (default-zero out of range).
    /// Sampled when the lane's most recent frame retired.
    pub fn lane_health(&self, carrier: usize) -> LaneHealth {
        self.lane_health.get(carrier).copied().unwrap_or_default()
    }

    /// Queues `packets` into the frame switch ahead of the next frame's
    /// own lane traffic — the hot-swap replay path. Preloaded packets
    /// ride the next frame's switch accounting (forwarded / overflow /
    /// no-route) and leave in that frame's report, exactly as if the
    /// lanes had regenerated them, so a waveform brought up mid-soak can
    /// absorb its predecessor's undrained queues without inventing a
    /// side channel around the switch.
    pub fn preload_ingress(&mut self, packets: impl IntoIterator<Item = BasebandPacket>) {
        for pkt in packets {
            self.switch.ingress(pkt);
        }
    }

    /// Quiesces the engine at a frame boundary: the single-frame entry
    /// points are synchronous (software pipelining only overlaps frames
    /// inside [`PipelineEngine::run_frames`]), so this only has to hand
    /// back whatever a replay preloaded but never ran — the hot-swap
    /// controller's guarantee that deactivating a personality strands no
    /// ingress.
    pub fn quiesce(&mut self) -> Vec<BasebandPacket> {
        let mut held = Vec::new();
        for beam in 0..self.switch.beams() {
            held.append(&mut self.switch.drain_beam(beam));
        }
        held
    }

    /// An empty report shell shaped for this engine (recycled by
    /// [`PipelineEngine::run_frame_into`] callers to keep the hot loop
    /// allocation-free).
    fn empty_report(&self) -> ChainReport {
        ChainReport {
            carriers: Vec::new(),
            packets_forwarded: 0,
            packets_dropped_overflow: 0,
            packets_dropped_no_route: 0,
            composite_samples: 0,
            switch: PacketSwitch::new(self.cfg.beams, self.cfg.switch_queue_limit),
            info_bits: Vec::new(),
            demux_produced: 0,
            demux_expected: 0,
        }
    }

    /// Phase A of a frame: draw every lane's information bits (serially,
    /// in carrier order, on the frame's own RNG) and hand out the frame's
    /// stimulus work: each lane's Tx synthesis and, on a noisy channel,
    /// the ADC noise, drawn from the same RNG into the slot's composite.
    /// In a pipelined batch this runs for frame `i+1` *before* frame `i`'s
    /// Rx jobs are dispatched, so workers pick Tx work up the moment they
    /// drain the previous frame.
    fn phase_a(&mut self, slot: usize, seed: u64) {
        let n = self.n_lanes;
        let info_bits = self.cfg.info_bits;
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        {
            let sl = &mut self.slots[slot];
            sl.started = Some(started);
            let t0 = Instant::now();
            for io in sl.ios[..n].iter_mut() {
                let io = io.as_mut().expect("frame slot busy");
                io.info.clear();
                io.info
                    .extend((0..info_bits).map(|_| rng.gen_range(0..2u8)));
            }
            sl.tx_serial_ns = t0.elapsed().as_nanos() as u64;
        }
        let len = self.composite_len;
        let sl = &mut self.slots[slot];
        match &mut self.backend {
            Backend::Serial(lanes) => {
                for (k, (tx, _)) in lanes.iter_mut().enumerate().take(n) {
                    let io = sl.ios[k].as_mut().expect("frame slot busy");
                    let t0 = Instant::now();
                    tx.synth(io);
                    io.tx_ns = t0.elapsed().as_nanos() as u64;
                }
                if let Some(sigma) = self.noise_sigma {
                    let composite = sl.composite.as_mut().expect("frame slot busy");
                    composite.draw_noise(&mut rng, sigma, len);
                }
            }
            Backend::Pool(pool) => {
                for (k, io) in sl.ios[..n].iter_mut().enumerate() {
                    let io = io.take().expect("frame slot busy");
                    pool.dispatch(k, Job::Tx { slot, lane: k, io });
                }
                if let Some(sigma) = self.noise_sigma {
                    let composite = sl.composite.take().expect("frame slot busy");
                    pool.dispatch_noise(Job::Noise {
                        slot,
                        rng,
                        sigma,
                        len,
                        composite,
                    });
                }
            }
        }
    }

    /// Phase B of a frame: collect the stimulus, add the synthesized
    /// bursts in carrier order onto the frame's noise (bitwise identical
    /// to summing them and then passing the sum through an
    /// [`AwgnChannel`]), run the polyphase DEMUX straight into each lane's
    /// sample buffer, and dispatch the receive jobs.
    fn phase_b(&mut self, slot: usize) {
        let n = self.n_lanes;
        let m = self.cfg.channels;
        let guard = 64 * m;
        let composite_len = self.composite_len;
        let noisy = self.noise_sigma.is_some();
        if let Backend::Pool(pool) = &mut self.backend {
            let need = n + usize::from(noisy);
            pool.collect(slot, false, need, &mut self.slots[slot]);
        }

        // ---- Serial Tx residue: carrier summation.
        let t_tx = Instant::now();
        {
            let sl = &mut self.slots[slot];
            let composite = &mut sl.composite.as_mut().expect("noise collected").samples;
            if !noisy {
                composite.resize(composite_len, Cpx::ZERO);
            }
            fold_carriers(&sl.ios[..n], guard, composite, noisy);
            sl.tx_serial_ns += t_tx.elapsed().as_nanos() as u64;
        }

        // ---- DEMUX (serial): polyphase channelizer, scattered straight
        // into each active lane's sample buffer (lane k demodulates
        // channel k; inactive channels are discarded).
        let t_demux = Instant::now();
        let blocks = composite_len / m;
        {
            let sl = &mut self.slots[slot];
            self.channelizer.reset();
            for io in sl.ios[..n].iter_mut() {
                let samples = &mut io.as_mut().expect("tx collected").samples;
                samples.clear();
                samples.resize(blocks, Cpx::ZERO);
            }
            let mut produced = 0usize;
            let composite = &sl.composite.as_ref().expect("noise collected").samples;
            for &x in composite {
                if self.channelizer.push(x, &mut self.demux_frame) {
                    if produced < blocks {
                        for (k, io) in sl.ios[..n].iter_mut().enumerate() {
                            io.as_mut().expect("tx collected").samples[produced] =
                                self.demux_frame[k];
                        }
                    }
                    produced += 1;
                }
            }
            // Formerly `debug_assert_eq!(produced, blocks)`, which
            // vanished in release builds and let a short composite decode
            // zero-padded garbage silently. Now it is bookkeeping that
            // phase C turns into a counter and report field.
            sl.produced = produced;
            sl.expected = composite_len.div_ceil(m);
            sl.composite_len = composite_len;
            sl.demux_ns = t_demux.elapsed().as_nanos() as u64;
        }

        // ---- Rx dispatch.
        match &mut self.backend {
            Backend::Serial(lanes) => {
                let sl = &mut self.slots[slot];
                for (k, (_, rx)) in lanes.iter_mut().enumerate().take(n) {
                    rx.receive(sl.ios[k].as_mut().expect("tx collected"));
                }
            }
            Backend::Pool(pool) => {
                let sl = &mut self.slots[slot];
                for (k, io) in sl.ios[..n].iter_mut().enumerate() {
                    let io = io.take().expect("tx collected");
                    pool.dispatch(k, Job::Rx { slot, lane: k, io });
                }
                if self.tel.enabled {
                    let in_flight = self
                        .slots
                        .iter()
                        .flat_map(|s| s.ios.iter())
                        .filter(|io| io.is_none())
                        .count();
                    self.tel.queue_depth.set(in_flight as f64);
                }
            }
        }
    }

    /// Phase C of a frame: collect the receive results, ingest CRC-clean
    /// packets into the (reused) switch serially in carrier order, fold
    /// every counter in frame order, and assemble the report into
    /// `report` (whose buffers are recycled).
    fn phase_c(&mut self, slot: usize, tick: u64, report: &mut ChainReport) {
        let n = self.n_lanes;
        if let Backend::Pool(pool) = &mut self.backend {
            pool.collect(slot, true, n, &mut self.slots[slot]);
        }

        let t_switch = Instant::now();
        report.carriers.clear();
        report.info_bits.clear();
        report.carriers.reserve(n);
        report.info_bits.reserve(n);
        let mut busy = 0u64;
        {
            let sl = &mut self.slots[slot];
            for (k, io) in sl.ios[..n].iter_mut().enumerate() {
                let io = io.as_mut().expect("rx collected");
                let outcome = io.outcome.take().expect("lane ran");
                if !outcome.detected {
                    self.stats.uw_misses += 1;
                    self.tel.uw_misses.inc();
                } else if !outcome.crc_ok {
                    self.stats.crc_failures += 1;
                    self.tel.crc_failures.inc();
                }
                if let Some(mut pkt) = io.packet.take() {
                    pkt.born_tick = tick;
                    self.switch.ingress(pkt);
                }
                self.stats.tx_synth_ns += io.tx_ns;
                self.stats.demod_ns += io.demod_ns;
                self.stats.decode_ns += io.decode_ns;
                self.tel.tx_synth_ns.record(io.tx_ns);
                self.tel.demod_ns.record(io.demod_ns);
                self.tel.decode_ns.record(io.decode_ns);
                busy += io.tx_ns + io.demod_ns + io.decode_ns;
                self.lane_health[k] = LaneHealth {
                    heartbeats: io.heartbeats,
                    crc_failures: io.crc_failures,
                };
                report.carriers.push(outcome);
                // The report owns the ground-truth bits (they escape the
                // frame); taking them instead of cloning skips the copy,
                // and phase A refills the buffer next frame.
                report.info_bits.push(std::mem::take(&mut io.info));
            }
        }
        let switch_ns = t_switch.elapsed().as_nanos() as u64;
        if self.noise_sigma.is_some() {
            let noise_ns = self.slots[slot]
                .composite
                .as_ref()
                .expect("noise collected")
                .noise_ns;
            self.stats.tx_synth_ns += noise_ns;
            self.tel.tx_synth_ns.record(noise_ns);
            busy += noise_ns;
        }
        self.busy_ns += busy;
        self.stats.switch_ns += switch_ns;
        self.tel.switch_ns.record(switch_ns);

        let sl = &mut self.slots[slot];
        self.stats.tx_ns += sl.tx_serial_ns;
        self.tel.tx_ns.record(sl.tx_serial_ns);
        self.stats.demux_ns += sl.demux_ns;
        self.tel.demux_ns.record(sl.demux_ns);
        if sl.produced != sl.expected {
            self.stats.demux_errors += 1;
            self.tel.demux_errors.inc();
        }

        let sw_stats = self.switch.stats();
        self.stats.frames += 1;
        self.stats.composite_samples += sl.composite_len as u64;
        self.stats.packets_forwarded += sw_stats.forwarded;
        self.stats.packets_dropped_overflow += sw_stats.dropped_overflow;
        self.stats.packets_dropped_no_route += sw_stats.dropped_no_route;
        self.tel.frames.inc();
        self.tel.composite_samples.add(sl.composite_len as u64);
        self.tel.packets_forwarded.add(sw_stats.forwarded);
        self.tel
            .packets_dropped_overflow
            .add(sw_stats.dropped_overflow);
        self.tel
            .packets_dropped_no_route
            .add(sw_stats.dropped_no_route);

        report.packets_forwarded = sw_stats.forwarded;
        report.packets_dropped_overflow = sw_stats.dropped_overflow;
        report.packets_dropped_no_route = sw_stats.dropped_no_route;
        report.composite_samples = sl.composite_len;
        report.demux_produced = sl.produced;
        report.demux_expected = sl.expected;
        // Hand the filled switch to the report and keep its (reset)
        // predecessor as next frame's scratch — the queues' capacity
        // survives the swap, so steady-state ingress never allocates.
        report.switch.reset();
        std::mem::swap(&mut self.switch, &mut report.switch);

        if let Some(t0) = sl.started.take() {
            self.tel.frame_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    fn finish_utilization(&mut self, t0: Instant) {
        if self.tel.enabled {
            let wall = t0.elapsed().as_nanos() as u64;
            if wall > 0 {
                self.tel
                    .utilization
                    .set(self.busy_ns as f64 / (wall as f64 * self.workers as f64));
            }
        }
    }

    /// Runs one MF-TDMA frame; equivalent to
    /// [`crate::chain::run_mf_tdma_frame`] but reusing all per-carrier
    /// state and the worker pool.
    ///
    /// Packets leave the switch with `born_tick == 0`; a frame-clocked
    /// caller should use [`PipelineEngine::run_frame_at`] instead.
    pub fn run_frame(&mut self, seed: u64) -> ChainReport {
        self.run_frame_at(seed, 0)
    }

    /// [`PipelineEngine::run_frame`] with an explicit frame tick: every
    /// packet the switch accepts is stamped `born_tick = tick`, so a
    /// traffic layer driving the engine on its own frame clock gets
    /// end-to-end packet latency for free. The report is a pure function
    /// of `(config, seed, tick)` — the tick is an input, never read from
    /// engine state.
    pub fn run_frame_at(&mut self, seed: u64, tick: u64) -> ChainReport {
        let mut report = self.empty_report();
        self.run_frame_into(seed, tick, &mut report);
        report
    }

    /// [`PipelineEngine::run_frame_at`] into a caller-recycled report:
    /// the report's switch, outcome and ground-truth buffers are reused,
    /// so a tick loop that feeds the previous report back in runs the
    /// whole frame without heap allocation. The result is bitwise
    /// identical to a fresh [`PipelineEngine::run_frame_at`] regardless
    /// of what `report` held before.
    pub fn run_frame_into(&mut self, seed: u64, tick: u64, report: &mut ChainReport) {
        let t0 = Instant::now();
        self.busy_ns = 0;
        self.phase_a(0, seed);
        self.phase_b(0);
        self.phase_c(0, tick, report);
        self.finish_utilization(t0);
    }

    /// Runs `n_frames` frames, frame `i` seeded with
    /// [`frame_seed`]`(seed, i)`, and returns the per-frame reports.
    ///
    /// With a pool backend the frames are software-pipelined (`SLOTS`
    /// deep): frame `i+1`'s Tx synthesis is dispatched before frame `i`'s
    /// receive jobs so the workers stay busy through the engine's serial
    /// stages, and frame `i-1` retires while `i` and `i+1` are still in
    /// flight. Reports are identical to running the frames one at a time.
    pub fn run_frames(&mut self, n_frames: usize, seed: u64) -> Vec<ChainReport> {
        let t0 = Instant::now();
        self.busy_ns = 0;
        let mut reports = Vec::with_capacity(n_frames);
        if n_frames == 0 {
            return reports;
        }
        if matches!(self.backend, Backend::Serial(_)) {
            // Serial backend: nothing to overlap; keep frames strictly
            // sequential (this is the bitwise reference and the bench
            // baseline).
            for i in 0..n_frames {
                let mut report = self.empty_report();
                self.phase_a(0, frame_seed(seed, i));
                self.phase_b(0);
                self.phase_c(0, 0, &mut report);
                reports.push(report);
            }
        } else {
            self.phase_a(0, frame_seed(seed, 0));
            for i in 0..n_frames {
                if i + 1 < n_frames {
                    self.phase_a((i + 1) % SLOTS, frame_seed(seed, i + 1));
                }
                self.phase_b(i % SLOTS);
                if i >= 1 {
                    let mut report = self.empty_report();
                    self.phase_c((i - 1) % SLOTS, 0, &mut report);
                    reports.push(report);
                }
            }
            let mut report = self.empty_report();
            self.phase_c((n_frames - 1) % SLOTS, 0, &mut report);
            reports.push(report);
        }
        self.finish_utilization(t0);
        reports
    }
}

/// Batched convenience entry: runs `n_frames` frames of `cfg` on a fresh
/// engine (auto worker count) and returns the reports with the engine's
/// accumulated stage counters.
pub fn run_frames(
    cfg: &ChainConfig,
    n_frames: usize,
    seed: u64,
) -> (Vec<ChainReport>, PipelineStats) {
    let mut engine = PipelineEngine::new(cfg.clone());
    let reports = engine.run_frames(n_frames, seed);
    (reports, engine.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_modem::tdma::TimingRecoveryKind;

    #[test]
    fn engine_matches_itself_across_worker_counts() {
        let cfg = ChainConfig {
            esn0_db: Some(12.0),
            ..ChainConfig::default()
        };
        let mut serial = PipelineEngine::with_workers(cfg.clone(), 1);
        let mut parallel = PipelineEngine::with_workers(cfg, 6);
        for seed in [0u64, 7, 41] {
            let a = serial.run_frame(seed);
            let b = parallel.run_frame(seed);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn engine_state_reuse_does_not_leak_between_frames() {
        // The same frame run twice by one engine (state reused) must match
        // a fresh engine bit for bit.
        let cfg = ChainConfig {
            esn0_db: Some(10.0),
            ..ChainConfig::default()
        };
        let mut engine = PipelineEngine::new(cfg.clone());
        let _ = engine.run_frame(3); // dirty every lane
        let again = engine.run_frame(5);
        let fresh = PipelineEngine::new(cfg).run_frame(5);
        assert_eq!(again, fresh);
    }

    #[test]
    fn pipelined_batches_match_single_frames() {
        // The SLOTS-deep pipelined schedule must be invisible in the
        // reports: a pooled batch equals the same frames run one at a
        // time on a serial engine.
        let cfg = ChainConfig {
            esn0_db: Some(10.0),
            ..ChainConfig::default()
        };
        let mut pooled = PipelineEngine::with_workers(cfg.clone(), 3);
        let batch = pooled.run_frames(7, 123);
        let mut serial = PipelineEngine::with_workers(cfg, 1);
        for (i, report) in batch.iter().enumerate() {
            assert_eq!(report, &serial.run_frame(frame_seed(123, i)), "frame {i}");
        }
    }

    #[test]
    fn run_frame_into_recycles_without_changing_results() {
        // Feeding the previous report back in (switch, outcome and bit
        // buffers reused) must be bitwise identical to fresh reports.
        let cfg = ChainConfig {
            esn0_db: Some(12.0),
            ..ChainConfig::default()
        };
        let mut engine = PipelineEngine::with_workers(cfg.clone(), 2);
        let mut recycled = engine.empty_report();
        let mut fresh_engine = PipelineEngine::with_workers(cfg, 2);
        for seed in [4u64, 9, 100, 9] {
            engine.run_frame_into(seed, 7, &mut recycled);
            let fresh = fresh_engine.run_frame_at(seed, 7);
            assert_eq!(recycled, fresh, "seed {seed}");
        }
    }

    #[test]
    fn demux_shortfall_is_surfaced_not_asserted() {
        // A DEMUX block shortfall must reach the report and the stats as
        // a real error in any build profile — the old debug_assert
        // vanished in release. The engine's own composite is always a
        // block multiple, so fake the bookkeeping the way a channelizer
        // bug would and check the plumbing end to end.
        let mut engine = PipelineEngine::with_workers(ChainConfig::default(), 1);
        let mut report = engine.empty_report();
        engine.phase_a(0, 11);
        engine.phase_b(0);
        assert_eq!(engine.slots[0].produced, engine.slots[0].expected);
        engine.slots[0].produced -= 1; // simulate an under-producing DEMUX
        engine.phase_c(0, 0, &mut report);
        assert!(!report.demux_ok());
        assert!(!report.all_clean(), "demux shortfall must spoil all_clean");
        assert_eq!(report.demux_expected, report.demux_produced + 1);
        assert_eq!(engine.stats().demux_errors, 1);

        // And a healthy frame counts nothing.
        let healthy = engine.run_frame(11);
        assert!(healthy.demux_ok() && healthy.all_clean());
        assert_eq!(engine.stats().demux_errors, 1);
    }

    #[test]
    fn stats_count_frames_and_packets() {
        let cfg = ChainConfig::default(); // noiseless: everything decodes
        let mut engine = PipelineEngine::new(cfg);
        let reports = engine.run_frames(3, 11);
        let s = engine.stats();
        assert_eq!(s.frames, 3);
        assert_eq!(s.uw_misses, 0);
        assert_eq!(s.crc_failures, 0);
        assert_eq!(s.demux_errors, 0);
        assert_eq!(s.packets_forwarded, 18);
        assert_eq!(
            s.composite_samples,
            reports
                .iter()
                .map(|r| r.composite_samples as u64)
                .sum::<u64>()
        );
        assert!(s.demod_ns > 0 && s.decode_ns > 0 && s.tx_synth_ns > 0);
    }

    #[test]
    fn heavy_noise_shows_up_in_failure_counters() {
        let cfg = ChainConfig {
            esn0_db: Some(-2.0),
            ..ChainConfig::default()
        };
        let mut engine = PipelineEngine::new(cfg);
        engine.run_frames(2, 4);
        let s = engine.stats();
        assert!(
            s.uw_misses + s.crc_failures > 0,
            "noise this heavy should break bursts: {s:?}"
        );
        assert_eq!(
            s.packets_forwarded + s.crc_failures + s.uw_misses,
            s.frames * 6
        );
    }

    #[test]
    fn run_frame_at_stamps_packet_birth_ticks() {
        let mut engine = PipelineEngine::new(ChainConfig::default());
        let mut report = engine.run_frame_at(1, 42);
        let pkt = report.switch.egress(0).expect("clean frame forwards");
        assert_eq!(pkt.born_tick, 42);
        // Apart from the stamp, the report is tick-independent.
        let again = PipelineEngine::new(ChainConfig::default()).run_frame_at(1, 0);
        assert_eq!(report.carriers, again.carriers);
        assert_eq!(report.packets_forwarded, again.packets_forwarded);
    }

    #[test]
    fn injected_lane_faults_surface_and_clear() {
        // Noiseless config: absent faults, all six carriers decode clean.
        let mut engine = PipelineEngine::new(ChainConfig::default());
        let clean = engine.run_frame(21);
        assert!(clean.carriers.iter().all(|c| c.crc_ok));

        engine.inject_lane_fault(2, LaneFault::CorruptCrc);
        engine.inject_lane_fault(4, LaneFault::Stall);
        assert_eq!(engine.lane_fault(2), Some(LaneFault::CorruptCrc));
        let faulty = engine.run_frame(22);
        assert!(faulty.carriers[2].detected && !faulty.carriers[2].crc_ok);
        assert!(!faulty.carriers[4].detected, "stalled lane sees nothing");
        assert_eq!(faulty.packets_forwarded, 4);
        // Watchdog view: the stalled lane's heartbeat froze after frame 1,
        // the corrupt lane kept beating and logged one CRC failure.
        assert_eq!(engine.lane_health(4).heartbeats, 1);
        assert_eq!(
            engine.lane_health(2),
            LaneHealth {
                heartbeats: 2,
                crc_failures: 1
            }
        );
        assert_eq!(engine.lane_health(99), LaneHealth::default());

        // A lane reset restores bit-exact healthy behaviour.
        engine.clear_lane_fault(2);
        engine.clear_lane_fault(4);
        let recovered = engine.run_frame(23);
        let fresh = PipelineEngine::new(ChainConfig::default()).run_frame(23);
        assert_eq!(recovered, fresh);
    }

    #[test]
    fn faults_reach_pool_workers_too() {
        // Same fault choreography, but with the lanes living in pool
        // threads: injection and clearing travel as control messages on
        // the job queues and must behave exactly like the serial path.
        let mut pooled = PipelineEngine::with_workers(ChainConfig::default(), 3);
        let mut serial = PipelineEngine::with_workers(ChainConfig::default(), 1);
        for e in [&mut pooled, &mut serial] {
            e.run_frame(50);
            e.inject_lane_fault(1, LaneFault::Stall);
            e.inject_lane_fault(5, LaneFault::CorruptCrc);
        }
        assert_eq!(pooled.run_frame(51), serial.run_frame(51));
        assert_eq!(pooled.lane_health(1), serial.lane_health(1));
        assert_eq!(pooled.lane_health(5), serial.lane_health(5));
        for e in [&mut pooled, &mut serial] {
            e.clear_lane_fault(1);
            e.clear_lane_fault(5);
        }
        assert_eq!(pooled.run_frame(52), serial.run_frame(52));
        assert_eq!(pooled.lane_health(1), serial.lane_health(1));
    }

    #[test]
    fn frame_seeds_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            assert!(seen.insert(frame_seed(33, i)), "collision at frame {i}");
        }
    }

    #[test]
    fn gardner_personality_runs_through_the_engine() {
        let cfg = ChainConfig {
            timing: TimingRecoveryKind::Gardner,
            esn0_db: Some(14.0),
            ..ChainConfig::default()
        };
        let report = PipelineEngine::new(cfg).run_frame(9);
        let clean = report.carriers.iter().filter(|c| c.crc_ok).count();
        assert!(clean >= 5, "Gardner engine: {clean}/6 clean");
    }
}
