//! Fuzz-style robustness tests for every `gsp-netproto` frame decoder
//! (satellite of the ground-contact PR).
//!
//! Two layers:
//!
//! 1. **Pure decoders** — `Frame::decode`, `tcp::Segment::decode`,
//!    `IpPacket::decode`, `UdpDatagram::decode` — fed random byte
//!    soup, truncated prefixes of valid encodings, and single-byte
//!    mutations. The contract is error-not-panic: malformed input
//!    yields `None`, never an out-of-bounds slice or unwrap.
//!
//! 2. **Agents in a live `Sim`** — TFTP server/writer, SCPS-FP
//!    sender/receiver, COPS PDP/PEP — facing a `Blaster` peer that
//!    sends raw garbage frames plus UDP-wrapped garbage aimed at each
//!    protocol's well-known port (so the opcode parsers, not just the
//!    IP header checks, see hostile bytes). The test passes when the
//!    run completes: any panic in `on_frame` fails it.
//!
//! Plus a cut-point property for `gsp-fdir`'s contact-gated
//! `ReconfigUplink`: wherever loss of signal truncates the first
//! pass, the resumed transfer ends byte-exact.

use bytes::Bytes;
use gsp_fdir::recovery::ReconfigUplink;
use gsp_netproto::cops::{CopsPdp, CopsPep, PolicyDecision, COPS_PORT};
use gsp_netproto::frames::{Frame, MAX_FRAME_PAYLOAD};
use gsp_netproto::ip::{
    udp_packet, IpPacket, IpProto, UdpDatagram, ADDR_NCC, ADDR_OBPC, MAX_IP_PAYLOAD,
    MAX_UDP_PACKET_PAYLOAD, MAX_UDP_PAYLOAD,
};
use gsp_netproto::scpsfp::{ScpsFpReceiver, ScpsFpSender, SCPS_PORT};
use gsp_netproto::tcp::{Segment, MAX_SEGMENT_PAYLOAD};
use gsp_netproto::tftp::{TftpServer, TftpWriter, TFTP_PORT};
use gsp_netproto::{Agent, BackoffPolicy, ContactSchedule, ContactWindow, Io, LinkConfig, Sim};
use proptest::prelude::*;

// ---------------------------------------------------------------- pure decoders

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random bytes through every pure decoder: `None` or a value,
    /// never a panic.
    #[test]
    fn decoders_never_panic_on_random_bytes(raw in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Frame::decode(&raw);
        let _ = Segment::decode(&raw);
        let _ = IpPacket::decode(&raw);
        let _ = UdpDatagram::decode(&raw);
    }

    /// Encode then decode is the identity up to `MAX_FRAME_PAYLOAD`
    /// bytes, and encode refuses anything longer. Every case checks both
    /// sides of the limit (1 017 and 1 018 bytes) and one random length.
    #[test]
    fn frame_encode_decode_roundtrips_up_to_the_payload_limit(
        vcid in any::<u8>(),
        flags in any::<u8>(),
        seq in any::<u8>(),
        len in 0usize..2 * MAX_FRAME_PAYLOAD,
        fill in any::<u8>(),
    ) {
        for len in [len, MAX_FRAME_PAYLOAD, MAX_FRAME_PAYLOAD + 1] {
            let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            let frame = Frame { vcid, flags, seq, payload: Bytes::from(payload) };
            match frame.encode() {
                Some(raw) => {
                    prop_assert!(len <= MAX_FRAME_PAYLOAD, "{} bytes encoded", len);
                    prop_assert_eq!(Frame::decode(&raw), Some(frame));
                }
                None => prop_assert!(len > MAX_FRAME_PAYLOAD, "{} bytes refused", len),
            }
        }
    }

    /// The IP, UDP and TCP encoders round-trip every payload their
    /// 16-bit length fields can describe and refuse anything longer,
    /// instead of writing a truncated length their own decoders reject.
    /// Every case checks both sides of each limit and one random length.
    #[test]
    fn ip_udp_tcp_encoders_roundtrip_up_to_their_length_limits(
        len in 0usize..2048,
        fill in any::<u8>(),
    ) {
        let bytes = |len: usize| -> Bytes {
            Bytes::from((0..len).map(|i| fill.wrapping_add(i as u8)).collect::<Vec<u8>>())
        };
        for len in [len, MAX_IP_PAYLOAD, MAX_IP_PAYLOAD + 1] {
            let pkt = IpPacket { src: ADDR_NCC, dst: ADDR_OBPC, proto: IpProto::Esp, payload: bytes(len) };
            match pkt.encode() {
                Some(raw) => prop_assert_eq!(IpPacket::decode(&raw), Some(pkt)),
                None => prop_assert!(len > MAX_IP_PAYLOAD, "{} IP payload bytes refused", len),
            }
        }
        for len in [len, MAX_UDP_PAYLOAD, MAX_UDP_PAYLOAD + 1] {
            let dgram = UdpDatagram { src_port: 5, dst_port: 6, payload: bytes(len) };
            match dgram.encode() {
                Some(raw) => prop_assert_eq!(UdpDatagram::decode(&raw), Some(dgram)),
                None => prop_assert!(len > MAX_UDP_PAYLOAD, "{} UDP payload bytes refused", len),
            }
        }
        for len in [len, MAX_UDP_PACKET_PAYLOAD, MAX_UDP_PACKET_PAYLOAD + 1] {
            match udp_packet(ADDR_NCC, ADDR_OBPC, 5, 6, bytes(len)) {
                Some(raw) => {
                    let ip = IpPacket::decode(&raw).expect("udp_packet output decodes");
                    let udp = UdpDatagram::decode(&ip.payload).expect("inner datagram decodes");
                    prop_assert_eq!(udp.payload, bytes(len));
                }
                None => prop_assert!(len > MAX_UDP_PACKET_PAYLOAD, "{} bytes refused", len),
            }
        }
        for len in [len, MAX_SEGMENT_PAYLOAD, MAX_SEGMENT_PAYLOAD + 1] {
            let seg = Segment { src_port: 1, dst_port: 2, seq: 3, ack: 4, flags: 2, payload: bytes(len) };
            match seg.encode() {
                Some(raw) => prop_assert_eq!(Segment::decode(&raw), Some(seg)),
                None => prop_assert!(len > MAX_SEGMENT_PAYLOAD, "{} TCP payload bytes refused", len),
            }
        }
    }

    /// Every strict prefix of a valid frame must be rejected (the
    /// length field no longer matches), and decoding it must not read
    /// past the slice.
    #[test]
    fn truncated_frames_are_rejected(
        vcid in any::<u8>(),
        flags in any::<u8>(),
        seq in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..4096,
    ) {
        let frame = Frame { vcid, flags, seq, payload: Bytes::from(payload) };
        let encoded = frame.encode().unwrap();
        prop_assert_eq!(Frame::decode(&encoded).as_ref(), Some(&frame));
        let cut = cut % encoded.len();
        prop_assert_eq!(Frame::decode(&encoded[..cut]), None);
    }

    /// Single-byte corruption of a valid frame either flips to another
    /// self-consistent frame or is rejected — decode never panics and
    /// an accepted frame always satisfies its own length field.
    #[test]
    fn mutated_frames_decode_or_reject(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let frame = Frame { vcid: 3, flags: 0, seq: 9, payload: Bytes::from(payload) };
        let mut bytes = frame.encode().unwrap().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Some(f) = Frame::decode(&bytes) {
            prop_assert_eq!(f.encode().unwrap().len(), bytes.len());
        }
    }

    /// Truncated prefixes of valid TCP segments and UDP-in-IP packets
    /// are rejected without panicking.
    #[test]
    fn truncated_segments_and_packets_are_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..4096,
    ) {
        let seg = Segment {
            src_port: 9,
            dst_port: 10,
            seq: 7,
            ack: 3,
            flags: 1,
            payload: Bytes::from(payload.clone()),
        };
        let enc = seg.encode().unwrap();
        prop_assert_eq!(Segment::decode(&enc).as_ref(), Some(&seg));
        prop_assert_eq!(Segment::decode(&enc[..cut % enc.len()]), None);

        let pkt = udp_packet(ADDR_NCC, ADDR_OBPC, 5, 6, Bytes::from(payload)).unwrap();
        prop_assert!(IpPacket::decode(&pkt).is_some());
        prop_assert_eq!(IpPacket::decode(&pkt[..cut % pkt.len()]), None);
    }
}

// ---------------------------------------------------------------- agents under fire

/// A hostile peer: on start it floods the link with raw garbage
/// frames plus UDP datagrams wrapping garbage payloads addressed to
/// each well-known port, then echoes one more garbage volley at the
/// first frame it hears back.
struct Blaster {
    volleys: Vec<Vec<u8>>,
    target: gsp_netproto::ip::IpAddr,
    echoed: bool,
}

impl Blaster {
    fn new(volleys: Vec<Vec<u8>>, target: gsp_netproto::ip::IpAddr) -> Self {
        Blaster {
            volleys,
            target,
            echoed: false,
        }
    }

    fn fire(&self, io: &mut Io) {
        for v in &self.volleys {
            // Raw bytes straight onto the link: exercises the IP
            // header rejection path.
            io.send(Bytes::from(v.clone()));
            // The same bytes as a UDP payload to each protocol port:
            // exercises the opcode parsers behind the header checks.
            for port in [TFTP_PORT, SCPS_PORT, COPS_PORT] {
                io.send(
                    udp_packet(
                        ADDR_NCC ^ 0xFF,
                        self.target,
                        port,
                        port,
                        Bytes::from(v.clone()),
                    )
                    .expect("volleys are under 64 bytes"),
                );
            }
        }
    }
}

impl Agent for Blaster {
    fn start(&mut self, io: &mut Io) {
        self.fire(io);
    }

    fn on_frame(&mut self, io: &mut Io, _frame: Bytes) {
        if !self.echoed {
            self.echoed = true;
            self.fire(io);
        }
    }

    fn on_timer(&mut self, _io: &mut Io, _id: u64) {}

    fn finished(&self) -> bool {
        // The blaster never gates the run: the target's own state (or
        // the deadline) ends it.
        true
    }
}

/// Runs `target` as the space-side agent against a ground-side
/// `Blaster`; completion without panicking is the assertion.
fn survive_as_space(target: &mut dyn Agent, volleys: Vec<Vec<u8>>, seed: u64) {
    let mut sim = Sim::new(LinkConfig::clean_fast(), seed);
    let mut blaster = Blaster::new(volleys, ADDR_OBPC);
    sim.run(&mut blaster, target, 50_000_000);
}

/// Runs `target` as the ground-side initiator against a space-side
/// `Blaster` that answers its opening frames with garbage.
fn survive_as_ground(target: &mut dyn Agent, volleys: Vec<Vec<u8>>, seed: u64) {
    let mut sim = Sim::new(LinkConfig::clean_fast(), seed);
    let mut blaster = Blaster::new(volleys, ADDR_NCC);
    sim.run(target, &mut blaster, 50_000_000);
}

fn volley_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The TFTP server and the SCPS-FP receiver (the space-side
    /// listeners a ground station talks to) survive garbage volleys.
    #[test]
    fn space_listeners_survive_garbage(volleys in volley_strategy(), seed in any::<u64>()) {
        survive_as_space(&mut TftpServer::new(ADDR_OBPC), volleys.clone(), seed);
        survive_as_space(&mut ScpsFpReceiver::new(ADDR_OBPC), volleys.clone(), seed);
        let mut pep = CopsPep::new(ADDR_OBPC, |_d: &PolicyDecision| true);
        survive_as_space(&mut pep, volleys, seed);
    }

    /// The ground-side initiators — TFTP writer, SCPS-FP sender, COPS
    /// PDP — survive garbage replies to their opening frames.
    #[test]
    fn ground_initiators_survive_garbage(volleys in volley_strategy(), seed in any::<u64>()) {
        let mut writer = TftpWriter::new(
            ADDR_NCC,
            ADDR_OBPC,
            "golden.bit",
            vec![0xA5; 700],
            BackoffPolicy::fixed(5_000_000),
        )
        .expect("700 B fits");
        survive_as_ground(&mut writer, volleys.clone(), seed);

        let mut sender = ScpsFpSender::new(ADDR_NCC, ADDR_OBPC, vec![0x5A; 2500], 5_000_000);
        survive_as_ground(&mut sender, volleys.clone(), seed);

        let decision = PolicyDecision {
            policy_id: 1,
            equipment: 2,
            design_id: 3,
            scrub_period_s: 30,
        };
        let mut pdp = CopsPdp::new(ADDR_NCC, ADDR_OBPC, decision, 5_000_000);
        survive_as_ground(&mut pdp, volleys, seed);
    }
}

// ---------------------------------------------------------------- cross-pass resume

fn golden_wire(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wherever loss of signal cuts the first pass — mid-WRQ,
    /// mid-block, mid-ACK — the upload suspends and the next pass
    /// (a different station) finishes it byte-exact, and the whole
    /// outcome is a deterministic function of (plan, seed).
    #[test]
    fn uplink_resumes_byte_exact_from_any_cut_point(
        cut_ns in 500_000u64..22_000_000,
        gap_ns in 1_000_000u64..50_000_000,
        seed in any::<u64>(),
    ) {
        let link = LinkConfig::clean_fast();
        let plan = ContactSchedule::new(vec![
            ContactWindow {
                start_ns: 0,
                end_ns: cut_ns,
                station: 0,
                pass_id: 1,
                link,
            },
            ContactWindow {
                start_ns: cut_ns + gap_ns,
                end_ns: cut_ns + gap_ns + 2_000_000_000,
                station: 1,
                pass_id: 2,
                link,
            },
        ]);
        let uplink = ReconfigUplink {
            link,
            backoff: BackoffPolicy {
                base_ns: 5_000_000,
                max_ns: 20_000_000,
                jitter: 0.25,
                max_attempts: 4,
            },
            max_sessions: 24,
            session_deadline_ns: 400_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        }
        .over_contacts(plan, 0);

        let wire = golden_wire(9 * 512 + 100);
        let out = uplink.upload(&wire, seed);
        prop_assert!(out.delivered, "cut {cut_ns} gap {gap_ns}: {out:?}");
        prop_assert!(out.verified, "resume must be byte-exact: {out:?}");
        // Any resumed session restarts at the stalled block, never
        // from scratch (expiry is disabled here).
        prop_assert_eq!(out.expired_restarts, 0);
        for &blk in &out.resumed_at_block {
            prop_assert!(blk >= 1, "resume restarted from scratch: {out:?}");
        }
        // The 22 ms ceiling on the first window is short of the ~26 ms
        // a 10-block transfer needs, so every case must cross passes.
        prop_assert!(out.stations_used.contains(&1), "{out:?}");

        let again = uplink.upload(&wire, seed);
        prop_assert_eq!(out, again);
    }
}
