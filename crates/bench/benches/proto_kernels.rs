//! Protocol stack: wall-clock cost of *simulating* a transfer (the E4
//! machinery itself) plus frame/TCP codec hot paths.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gsp_netproto::frames::Frame;
use gsp_netproto::ip::{udp_packet, IpPacket};
use gsp_netproto::link::LinkConfig;
use gsp_netproto::scenarios::{simulate_transfer, TransferProtocol};
use gsp_netproto::tcp::Segment;

fn bench_simulated_transfers(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_transfer");
    g.sample_size(10);
    let link = LinkConfig::geo_default();
    for (label, proto) in [
        ("tftp-96k", TransferProtocol::Tftp),
        ("bulk32k-96k", TransferProtocol::Bulk { window: 32 * 1024 }),
    ] {
        g.throughput(Throughput::Bytes(96 * 1024));
        g.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                simulate_transfer(proto, 96 * 1024, link, seed).frames
            });
        });
    }
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("codecs");
    let payload = Bytes::from(vec![0xA5u8; 1000]);
    let ip = udp_packet(1, 2, 1000, 69, payload.clone()).expect("1000 bytes fit one packet");
    g.throughput(Throughput::Bytes(ip.len() as u64));
    g.bench_function("ip+udp decode", |b| {
        b.iter(|| IpPacket::decode(&ip).map(|p| p.payload.len()));
    });
    let seg = Segment {
        src_port: 5000,
        dst_port: 80,
        seq: 1,
        ack: 2,
        flags: 0b0010,
        payload,
    };
    let raw = seg.encode().expect("1000 bytes fit one segment");
    g.bench_function("tcp segment decode", |b| {
        b.iter(|| Segment::decode(&raw).map(|s| s.payload.len()));
    });
    // Frame CRC dominates N1 processing.
    let frame_raw = Frame {
        vcid: 5,
        flags: 0b0011,
        seq: 9,
        payload: Bytes::from(vec![0x5Au8; 1000]),
    }
    .encode()
    .expect("1000 bytes fit one frame");
    g.throughput(Throughput::Bytes(frame_raw.len() as u64));
    g.bench_function("frame decode (CRC-16)", |b| {
        b.iter(|| Frame::decode(&frame_raw).map(|f| f.payload.len()));
    });
    g.finish();
}

criterion_group!(benches, bench_simulated_transfers, bench_codecs);
criterion_main!(benches);
