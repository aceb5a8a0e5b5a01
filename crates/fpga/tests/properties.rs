//! Property tests: SEU detection/repair invariants that the payload's
//! availability argument rests on.

use gsp_fpga::bitstream::{Bitstream, BitstreamError};
use gsp_fpga::device::{ConfigPort, FpgaDevice};
use gsp_fpga::fabric::FpgaFabric;
use gsp_fpga::mitigation::{detect_and_repair, ReadbackStrategy, Scrubber, TmrVoter};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn loaded(design: u32) -> (FpgaFabric, Bitstream) {
    let dev = FpgaDevice::small_100k();
    let bs = Bitstream::synthesise(design, &dev, dev.frames);
    let mut fab = FpgaFabric::new(dev);
    fab.configure_full(&bs).unwrap();
    fab.power_on();
    (fab, bs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_upset_set_is_detected_and_repaired(
        design in 0u32..1000,
        upsets in proptest::collection::vec(
            (0usize..24, 0usize..512, 0u8..8), 1..30),
        strategy_idx in 0usize..2,
    ) {
        let strategy = [ReadbackStrategy::FullCompare, ReadbackStrategy::CrcCompare][strategy_idx];
        let (mut fab, bs) = loaded(design);
        // Net effect of the upset list: a bit flipped an even number of
        // times is back to correct.
        let mut net: BTreeSet<(usize, usize, u8)> = BTreeSet::new();
        for &(f, b, bit) in &upsets {
            fab.inject_upset_at(f, b, bit);
            if !net.remove(&(f, b, bit)) {
                net.insert((f, b, bit));
            }
        }
        let net_frames: BTreeSet<usize> = net.iter().map(|&(f, _, _)| f).collect();
        let detected = strategy.detect(&fab, &bs).unwrap();
        prop_assert_eq!(
            detected.iter().copied().collect::<BTreeSet<_>>(),
            net_frames,
            "detection must equal the net corrupted frame set"
        );
        let (repaired, _) = detect_and_repair(&mut fab, &bs, strategy).unwrap();
        prop_assert_eq!(repaired, detected.len());
        prop_assert!(fab.diff_frames(&bs).is_empty());
        prop_assert!(fab.function_correct(&bs));
        prop_assert_eq!(fab.global_crc(), bs.global_crc);
    }

    #[test]
    fn scrub_full_is_idempotent_restoration(
        design in 0u32..1000,
        upsets in proptest::collection::vec(
            (0usize..24, 0usize..512, 0u8..8), 0..40),
    ) {
        let (mut fab, bs) = loaded(design);
        for &(f, b, bit) in &upsets {
            fab.inject_upset_at(f, b, bit);
        }
        let mut s = Scrubber::new(1);
        s.scrub_full(&mut fab, &bs).unwrap();
        prop_assert!(fab.diff_frames(&bs).is_empty());
        // Scrubbing an already-clean fabric changes nothing.
        let crc = fab.global_crc();
        s.scrub_full(&mut fab, &bs).unwrap();
        prop_assert_eq!(fab.global_crc(), crc);
    }

    /// The FDIR ladder's rung-1 contract: whatever an SEU burst did to
    /// the fabric, **one** scrub pass — monolithic or a full rotation of
    /// per-frame steps — leaves every configuration frame *bitwise*
    /// identical to the golden bitstream, and both readback strategies
    /// then agree there is nothing left to find.
    #[test]
    fn one_scrub_pass_restores_bitwise_identity_under_any_upsets(
        design in 0u32..1000,
        upsets in proptest::collection::vec(
            (0usize..24, 0usize..512, 0u8..8), 0..60),
        strategy_idx in 0usize..2,
        step_wise in any::<bool>(),
    ) {
        let strategy = [ReadbackStrategy::FullCompare, ReadbackStrategy::CrcCompare][strategy_idx];
        let (mut fab, bs) = loaded(design);
        for &(f, b, bit) in &upsets {
            fab.inject_upset_at(f, b, bit);
        }
        let mut s = Scrubber::new(1);
        if step_wise {
            for _ in 0..fab.device().frames {
                s.scrub_step(&mut fab, &bs).unwrap();
            }
        } else {
            s.scrub_full(&mut fab, &bs).unwrap();
        }
        prop_assert_eq!(s.passes(), 1, "exactly one pass was spent");
        for f in 0..fab.device().frames {
            prop_assert_eq!(
                fab.readback_frame(f).unwrap(),
                &bs.frames[f][..],
                "frame {} not bitwise golden after one pass", f
            );
        }
        prop_assert!(strategy.detect(&fab, &bs).unwrap().is_empty());
        prop_assert!(fab.function_correct(&bs));
        prop_assert_eq!(fab.global_crc(), bs.global_crc);
    }

    /// Any geometry inside `deserialise`'s limits round-trips, and one
    /// flipped bit anywhere in the CRC-covered region (frames, frame
    /// CRCs, global CRC) is reported as a frame or global CRC failure.
    #[test]
    fn bitstream_wire_format_rejects_any_single_flip(
        design in any::<u32>(),
        name_len in 0usize..40,
        n_frames in 1usize..12,
        frame_bytes in 1usize..80,
        fill in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let name: String = (0..name_len).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        let mut state = fill | 1;
        let frames: Vec<Vec<u8>> = (0..n_frames)
            .map(|_| {
                (0..frame_bytes)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect()
            })
            .collect();
        let bs = Bitstream::new(design, &name, frames);
        let wire = bs.try_serialise().expect("inside the wire format's limits");
        prop_assert_eq!(Bitstream::deserialise(&wire), Ok(bs.clone()));
        let hdr = 4 + 2 + name_len + 4 + 4;
        let bit = (flip % ((wire.len() - hdr) as u64 * 8)) as usize;
        let mut bad = wire.to_vec();
        bad[hdr + bit / 8] ^= 1 << (bit % 8);
        let got = Bitstream::deserialise(&bad);
        prop_assert!(
            matches!(got, Err(BitstreamError::FrameCrc { .. } | BitstreamError::GlobalCrc)),
            "flip of bit {} past the header gave {:?}",
            bit,
            got
        );
    }

    #[test]
    fn tmr_vote_always_returns_majority_when_one_exists(
        a in 0u8..4, b in 0u8..4, c in 0u8..4, truth in 0u8..4,
    ) {
        let mut v = TmrVoter::new();
        let (result, _) = v.vote([a, b, c], truth);
        // If any two replicas agree, the vote returns that value.
        if a == b || a == c {
            prop_assert_eq!(result, a);
        } else if b == c {
            prop_assert_eq!(result, b);
        }
    }
}

/// Small-scope exhaustion of the read-back scan: on a 3-frame × 4-byte
/// device, after repeated clean scans, every single configuration bit is
/// flipped in turn. Both detection strategies must name exactly that
/// frame, the function check must agree with the essential-bit map, and
/// detect-and-repair must restore the golden image.
#[test]
fn every_single_bit_flip_on_a_tiny_device_is_found_and_repaired() {
    let dev = FpgaDevice {
        name: "tiny",
        clb_rows: 1,
        clb_cols: 3,
        frames: 3,
        frame_bytes: 4,
        gate_capacity: 1_000,
        partial_reconfig: true,
        port: ConfigPort::Jtag {
            clock_hz: 10_000_000,
        },
        essential_fraction: 0.5,
    };
    let golden = Bitstream::synthesise(11, &dev, dev.frames);
    let mut fab = FpgaFabric::new(dev.clone());
    fab.configure_full(&golden).unwrap();
    fab.power_on();
    let strategies = [ReadbackStrategy::CrcCompare, ReadbackStrategy::FullCompare];
    let assert_clean = |fab: &FpgaFabric| {
        for s in strategies {
            assert!(
                s.detect(fab, &golden).unwrap().is_empty(),
                "{s:?} on a clean fabric"
            );
        }
        assert!(fab.function_correct(&golden));
        assert_eq!(fab.global_crc(), golden.global_crc);
    };
    for _ in 0..3 {
        assert_clean(&fab);
    }
    let mut kinds_seen = [false; 2];
    for f in 0..dev.frames {
        for b in 0..dev.frame_bytes {
            for bit in 0..8u8 {
                fab.inject_upset_at(f, b, bit);
                for s in strategies {
                    assert_eq!(
                        s.detect(&fab, &golden).unwrap(),
                        vec![f],
                        "{s:?} at {f}/{b}/{bit}"
                    );
                }
                let essential = fab.bit_is_essential(f, b, bit);
                kinds_seen[essential as usize] = true;
                assert_eq!(fab.function_correct(&golden), !essential, "{f}/{b}/{bit}");
                for s in strategies {
                    let mut repaired = fab.clone();
                    assert_eq!(detect_and_repair(&mut repaired, &golden, s).unwrap().0, 1);
                    assert!(
                        repaired.diff_frames(&golden).is_empty(),
                        "{s:?} at {f}/{b}/{bit}"
                    );
                    assert_clean(&repaired);
                }
                fab.inject_upset_at(f, b, bit);
                assert_clean(&fab);
            }
        }
    }
    assert_eq!(
        kinds_seen,
        [true, true],
        "both essential and non-essential bits flipped"
    );
}
