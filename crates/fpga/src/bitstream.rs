//! Configuration bitstreams: framed, CRC-protected, serialisable.
//!
//! A bitstream is the unit the whole reconfiguration pipeline moves around:
//! built on the ground, transferred via `gsp-netproto`, stored in the
//! on-board memory/library of `gsp-payload`, loaded into a
//! [`crate::fabric::FpgaFabric`], and validated by CRC (§3.2: "at least one
//! auto-test of the new configuration will be realized (e.g. CRC applied on
//! the configuration)").

use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::{Crc, CrcKind};

/// Per-frame CRC: the read-back comparison baseline.
pub const FRAME_CRC: Crc = Crc::new(CrcKind::Crc16);
/// Global CRC over all frame payloads: the §3.2 validation telemetry.
pub const GLOBAL_CRC: Crc = Crc::new(CrcKind::Crc24);
/// Most frames the wire format admits.
pub const MAX_FRAMES: usize = 1 << 16;
/// Largest frame the wire format admits, in bytes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A configuration bitstream for a specific device geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitstream {
    /// Identifies the design (waveform personality, version…).
    pub design_id: u32,
    /// Target device name (checked at load time).
    pub device_name: String,
    /// Frame payloads, all of equal length.
    pub frames: Vec<Vec<u8>>,
    /// Per-frame CRC-16 (read-back comparison baseline).
    pub frame_crcs: Vec<u16>,
    /// Global CRC-24 over all frame payloads.
    pub global_crc: u32,
}

impl Bitstream {
    /// Builds a bitstream from raw frame payloads.
    pub fn new(design_id: u32, device_name: &str, frames: Vec<Vec<u8>>) -> Self {
        assert!(!frames.is_empty());
        let len = frames[0].len();
        assert!(frames.iter().all(|f| f.len() == len), "ragged frames");
        let frame_crcs = frames
            .iter()
            .map(|f| FRAME_CRC.compute_bytes(f) as u16)
            .collect();
        let global_crc = Self::global_crc_of(&frames);
        Bitstream {
            design_id,
            device_name: device_name.to_string(),
            frames,
            frame_crcs,
            global_crc,
        }
    }

    /// Deterministically synthesises a bitstream for a design occupying
    /// `frames_used` of the device's frames (a stand-in for a real place &
    /// route result — content is a keyed pseudo-random pattern so distinct
    /// designs differ).
    pub fn synthesise(
        design_id: u32,
        device: &crate::device::FpgaDevice,
        frames_used: usize,
    ) -> Self {
        assert!(frames_used <= device.frames, "design larger than device");
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (design_id as u64).wrapping_mul(0xD129_42E2);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let frames: Vec<Vec<u8>> = (0..device.frames)
            .map(|f| {
                (0..device.frame_bytes)
                    .map(|_| {
                        if f < frames_used {
                            (next() >> 24) as u8
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        Bitstream::new(design_id, device.name, frames)
    }

    /// Recomputes the global CRC over frame payloads.
    pub fn global_crc_of(frames: &[Vec<u8>]) -> u32 {
        GLOBAL_CRC.compute_chunks(frames.iter().map(Vec::as_slice))
    }

    /// Total payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.frames.len() * self.frames[0].len()
    }

    /// Serialises to a wire format:
    /// `design_id u32 | name_len u16 | name | n_frames u32 | frame_bytes u32
    ///  | frames… | frame_crcs… | global_crc u32`.
    ///
    /// Refuses a name too long for its length field and a geometry
    /// [`Bitstream::deserialise`] would reject, so every image parses back.
    pub fn try_serialise(&self) -> Result<Bytes, BitstreamError> {
        let name_len =
            u16::try_from(self.device_name.len()).map_err(|_| BitstreamError::NameTooLong)?;
        let frame_bytes = self.frames.first().map_or(0, Vec::len);
        if !(1..=MAX_FRAMES).contains(&self.frames.len())
            || !(1..=MAX_FRAME_BYTES).contains(&frame_bytes)
            || self.frames.iter().any(|f| f.len() != frame_bytes)
            || self.frame_crcs.len() != self.frames.len()
        {
            return Err(BitstreamError::BadGeometry);
        }
        let mut buf = BytesMut::with_capacity(self.byte_len() + 64);
        buf.put_u32(self.design_id);
        buf.put_u16(name_len);
        buf.put_slice(self.device_name.as_bytes());
        buf.put_u32(self.frames.len() as u32);
        buf.put_u32(frame_bytes as u32);
        for f in &self.frames {
            buf.put_slice(f);
        }
        for &c in &self.frame_crcs {
            buf.put_u16(c);
        }
        buf.put_u32(self.global_crc);
        Ok(buf.freeze())
    }

    /// [`Bitstream::try_serialise`] of an image known to fit, as every
    /// device's own image does; panics when it does not.
    pub fn serialise(&self) -> Bytes {
        self.try_serialise()
            .unwrap_or_else(|e| panic!("bitstream does not fit its wire format: {e}"))
    }

    /// Parses the wire format; validates structure and the global CRC.
    pub fn deserialise(data: &[u8]) -> Result<Self, BitstreamError> {
        use BitstreamError::*;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], BitstreamError> {
            if *pos + n > data.len() {
                return Err(Truncated);
            }
            let s = &data[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let design_id = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let name_len = u16::from_be_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).map_err(|_| BadName)?;
        let n_frames = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let frame_bytes = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        if !(1..=MAX_FRAMES).contains(&n_frames) || !(1..=MAX_FRAME_BYTES).contains(&frame_bytes) {
            return Err(BadGeometry);
        }
        let mut frames = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            frames.push(take(&mut pos, frame_bytes)?.to_vec());
        }
        let mut frame_crcs = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            frame_crcs.push(u16::from_be_bytes(take(&mut pos, 2)?.try_into().unwrap()));
        }
        let global_crc = u32::from_be_bytes(take(&mut pos, 4)?.try_into().unwrap());
        // Integrity checks.
        for (i, f) in frames.iter().enumerate() {
            if FRAME_CRC.compute_bytes(f) != u32::from(frame_crcs[i]) {
                return Err(FrameCrc { frame: i });
            }
        }
        if Self::global_crc_of(&frames) != global_crc {
            return Err(GlobalCrc);
        }
        Ok(Bitstream {
            design_id,
            device_name: name,
            frames,
            frame_crcs,
            global_crc,
        })
    }
}

/// Bitstream parse/validation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitstreamError {
    /// Input shorter than the declared structure.
    Truncated,
    /// Device name is not UTF-8.
    BadName,
    /// Implausible frame geometry.
    BadGeometry,
    /// Device name longer than its u16 length field can state.
    NameTooLong,
    /// A frame failed its CRC-16.
    FrameCrc {
        /// Index of the corrupt frame.
        frame: usize,
    },
    /// The global CRC-24 failed.
    GlobalCrc,
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::Truncated => write!(f, "bitstream truncated"),
            BitstreamError::BadName => write!(f, "device name not UTF-8"),
            BitstreamError::BadGeometry => write!(f, "implausible frame geometry"),
            BitstreamError::NameTooLong => write!(f, "device name longer than 65535 bytes"),
            BitstreamError::FrameCrc { frame } => write!(f, "frame {frame} CRC mismatch"),
            BitstreamError::GlobalCrc => write!(f, "global CRC mismatch"),
        }
    }
}

impl std::error::Error for BitstreamError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;

    #[test]
    fn crc_reference_behaviour() {
        assert_eq!(FRAME_CRC.compute_bytes(&[]), 0);
        assert_ne!(
            FRAME_CRC.compute_bytes(b"frame A"),
            FRAME_CRC.compute_bytes(b"frame B")
        );
        assert_ne!(
            GLOBAL_CRC.compute_bytes(b"frame A"),
            GLOBAL_CRC.compute_bytes(b"frame B")
        );
        // Single-bit flip always changes the CRC.
        let base = FRAME_CRC.compute_bytes(b"configuration");
        let mut data = b"configuration".to_vec();
        data[3] ^= 0x10;
        assert_ne!(FRAME_CRC.compute_bytes(&data), base);
    }

    #[test]
    fn crcs_are_pinned_to_their_wire_values() {
        // Captured from the bit-serial implementation this engine
        // replaced: the stored CRCs of existing images must not move.
        let bs = Bitstream::synthesise(3, &FpgaDevice::small_100k(), 24);
        assert_eq!(
            bs.frame_crcs,
            [
                0x41e0, 0xa919, 0x2aef, 0xb2bd, 0x5982, 0x556e, 0xffd3, 0xb1c6, 0x147c, 0x7258,
                0x4012, 0xba81, 0x928c, 0xda52, 0x8687, 0x83a8, 0x59f8, 0xc654, 0xcfde, 0xab0b,
                0xf04e, 0xe78a, 0x555a, 0xf1b7,
            ]
        );
        assert_eq!(bs.global_crc, 0xad5bb3);
    }

    #[test]
    fn serialise_rejects_what_deserialise_would() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(1, &dev, 4);
        let long_name = Bitstream {
            device_name: "n".repeat(usize::from(u16::MAX) + 1),
            ..bs.clone()
        };
        assert_eq!(long_name.try_serialise(), Err(BitstreamError::NameTooLong));
        let longest_name = Bitstream {
            device_name: "n".repeat(usize::from(u16::MAX)),
            ..bs.clone()
        };
        let wire = longest_name
            .try_serialise()
            .expect("a 65535-byte name fits");
        assert_eq!(Bitstream::deserialise(&wire), Ok(longest_name));
        let mut ragged = bs.clone();
        ragged.frames[1].pop();
        assert_eq!(ragged.try_serialise(), Err(BitstreamError::BadGeometry));
        let mut crc_short = bs;
        crc_short.frame_crcs.pop();
        assert_eq!(crc_short.try_serialise(), Err(BitstreamError::BadGeometry));
    }

    #[test]
    fn geometry_limits_hold_both_ways() {
        for (n_frames, frame_bytes, fits) in [
            (MAX_FRAMES, 1, true),
            (1, MAX_FRAME_BYTES, true),
            (MAX_FRAMES + 1, 1, false),
            (1, MAX_FRAME_BYTES + 1, false),
        ] {
            let bs = Bitstream::new(9, "edge", vec![vec![0xA5; frame_bytes]; n_frames]);
            match bs.try_serialise() {
                Ok(wire) => {
                    assert!(fits, "{n_frames}×{frame_bytes} serialised");
                    assert_eq!(Bitstream::deserialise(&wire), Ok(bs));
                }
                Err(e) => {
                    assert!(!fits, "{n_frames}×{frame_bytes} refused");
                    assert_eq!(e, BitstreamError::BadGeometry);
                }
            }
        }
    }

    #[test]
    fn synthesise_geometry_matches_device() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(7, &dev, 10);
        assert_eq!(bs.frames.len(), dev.frames);
        assert_eq!(bs.frames[0].len(), dev.frame_bytes);
        assert_eq!(bs.byte_len(), dev.frames * dev.frame_bytes);
        // Unused frames are zero.
        assert!(bs.frames[20].iter().all(|&b| b == 0));
        assert!(bs.frames[3].iter().any(|&b| b != 0));
    }

    #[test]
    fn distinct_designs_differ() {
        let dev = FpgaDevice::small_100k();
        let a = Bitstream::synthesise(1, &dev, 10);
        let b = Bitstream::synthesise(2, &dev, 10);
        assert_ne!(a.frames, b.frames);
        assert_ne!(a.global_crc, b.global_crc);
    }

    #[test]
    fn serialise_roundtrip() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(42, &dev, 12);
        let wire = bs.serialise();
        let back = Bitstream::deserialise(&wire).expect("parse");
        assert_eq!(back, bs);
    }

    #[test]
    fn deserialise_detects_corruption() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(42, &dev, 12);
        let mut wire = bs.serialise().to_vec();
        // Flip a payload bit inside frame 2.
        let hdr = 4 + 2 + dev.name.len() + 4 + 4;
        wire[hdr + 2 * dev.frame_bytes + 5] ^= 0x01;
        match Bitstream::deserialise(&wire) {
            Err(BitstreamError::FrameCrc { frame }) => assert_eq!(frame, 2),
            other => panic!("expected frame CRC error, got {other:?}"),
        }
    }

    #[test]
    fn deserialise_rejects_truncation() {
        let dev = FpgaDevice::small_100k();
        let wire = Bitstream::synthesise(1, &dev, 4).serialise();
        for cut in [3usize, 10, wire.len() / 2, wire.len() - 1] {
            assert!(Bitstream::deserialise(&wire[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_frames() {
        let _ = Bitstream::new(1, "x", vec![vec![0; 8], vec![0; 9]]);
    }
}
