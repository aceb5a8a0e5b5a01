//! The metric catalogue: every metric the benchmark emits, with its
//! unit. `BENCHMARK.json` declares the same names and units; a test
//! keeps the two in step.

/// One declared metric.
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics a user of the payload sees, printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("decoded_mbps", "Mbit/s"),
    m("sat_frames_per_s", "1/s"),
    m("frame_p1_ms", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, printed with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    m("payload.coordinator_us_per_frame", "us"),
    m("payload.pool_idle_frac", "ratio"),
    m("payload.stimulus_us_per_frame", "us"),
    m("payload.switch_us_per_frame", "us"),
    m("payload.frame_us_p50", "us"),
    m("payload.packets_forwarded", "count"),
    m("channel.tx_residue_us_per_frame", "us"),
    m("dsp.demux_us_per_frame", "us"),
    m("modem.demod_us_per_burst", "us"),
    m("modem.uw_miss_ratio", "ratio"),
    m("coding.decode_us_per_burst", "us"),
    m("coding.crc_fail_ratio", "ratio"),
    m("kernels.viterbi_ns", "ns"),
    m("kernels.fft256_ns", "ns"),
    m("kernels.dot_real_ns", "ns"),
    m("kernels.corr_energy_ns", "ns"),
    m("constellation.step_us_per_sat_frame", "us"),
    m("constellation.coordinator_us_per_frame", "us"),
    m("constellation.barrier_us_per_frame", "us"),
    m("constellation.isl_packets_per_frame", "count"),
    m("constellation.isl_dropped", "count"),
    m("constellation.quarantines", "count"),
    m("traffic.self_us_per_sat_frame", "us"),
    m("traffic.offered", "count"),
    m("traffic.delivered", "count"),
    m("traffic.backlog_end", "count"),
    m("fpga.readback_us_per_tick", "us"),
    m("netproto.upload_ms", "ms"),
    m("netproto.sessions_per_upload", "count"),
    m("netproto.retransmissions", "count"),
    m("netproto.frames_lost_contact", "count"),
    m("ground.schedule_ms", "ms"),
    m("fdir.detections", "count"),
    m("fdir.recovery.scrub", "count"),
    m("fdir.recovery.reset", "count"),
    m("fdir.recovery.reconfig", "count"),
    m("fdir.mttr_ticks_p50", "ticks"),
    m("fdir.availability", "ratio"),
    m("radiation.seu_injected", "count"),
    m("frame_p50_ms", "ms"),
    m("frame_p99_ms", "ms"),
    m("burst_fail_ratio", "ratio"),
    m("packet_drop_ratio", "ratio"),
    m("voice_drop_ratio", "ratio"),
    m("trace.frame_us", "us"),
    m("trace.unattributed_us_per_frame", "us"),
    m("trace.overhead_us_per_frame", "us"),
];
