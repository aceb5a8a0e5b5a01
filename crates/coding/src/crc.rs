//! CRC attachment per 3G TS 25.212 §4.2.1.
//!
//! The four UMTS generator polynomials: bit-serial over unpacked PHY bits,
//! and the workspace's one byte CRC (MSB first, init 0), used by FPGA
//! bitstreams and the §4.3 read-back scan, N1 frames and housekeeping.
//! The byte CRC is slice-by-8 over compile-time tables with the L-bit
//! register left-aligned in a `u32`, so one code path serves all lengths.

/// The four 25.212 CRC lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrcKind {
    /// gCRC8(D) = D⁸ + D⁷ + D⁴ + D³ + D + 1
    Crc8,
    /// gCRC12(D) = D¹² + D¹¹ + D³ + D² + D + 1
    Crc12,
    /// gCRC16(D) = D¹⁶ + D¹² + D⁵ + 1
    Crc16,
    /// gCRC24(D) = D²⁴ + D²³ + D⁶ + D⁵ + D + 1
    Crc24,
}

impl CrcKind {
    /// Number of parity bits.
    pub const fn len(self) -> usize {
        match self {
            CrcKind::Crc8 => 8,
            CrcKind::Crc12 => 12,
            CrcKind::Crc16 => 16,
            CrcKind::Crc24 => 24,
        }
    }

    /// Never zero.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Generator polynomial without the leading term, LSB = D⁰ coefficient.
    const fn poly(self) -> u32 {
        match self {
            CrcKind::Crc8 => 0b1001_1011,
            CrcKind::Crc12 => 0b1000_0000_1111,
            CrcKind::Crc16 => 0b0001_0000_0010_0001,
            CrcKind::Crc24 => 0b1000_0000_0000_0000_0110_0011,
        }
    }
}

/// Slice-by-8 tables over a left-aligned register: `t[k][b]` is the
/// register after shifting byte `b` into zero, then `k` zero bytes.
const fn slice8_tables(kind: CrcKind) -> [[u32; 256]; 8] {
    let poly = kind.poly() << (32 - kind.len());
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        let mut reg = if k == 0 {
            (b as u32) << 24
        } else {
            t[k - 1][b]
        };
        let mut bit = 0;
        while bit < 8 {
            reg = (reg << 1) ^ if reg & 0x8000_0000 != 0 { poly } else { 0 };
            bit += 1;
        }
        t[k][b] = reg;
        i += 1;
    }
    t
}

/// The byte engine's tables, indexed by `CrcKind as usize`.
static TABLES: [[[u32; 256]; 8]; 4] = [
    slice8_tables(CrcKind::Crc8),
    slice8_tables(CrcKind::Crc12),
    slice8_tables(CrcKind::Crc16),
    slice8_tables(CrcKind::Crc24),
];

/// CRC engine for one 25.212 polynomial: bit-serial over 0/1 bit slices,
/// table-driven over bytes.
#[derive(Clone, Copy, Debug)]
pub struct Crc {
    kind: CrcKind,
}

impl Crc {
    /// Creates an engine for the given polynomial.
    pub const fn new(kind: CrcKind) -> Self {
        Crc { kind }
    }

    /// The CRC length in bits.
    pub fn parity_len(&self) -> usize {
        self.kind.len()
    }

    /// Computes the parity bits (MSB first, i.e. D^{L−1} coefficient first)
    /// for the message bits, per the 25.212 systematic-division definition.
    pub fn compute(&self, bits: &[u8]) -> Vec<u8> {
        let l = self.kind.len();
        let poly = self.kind.poly();
        let mut reg: u32 = 0;
        for &b in bits {
            debug_assert!(b <= 1);
            let fb = ((reg >> (l - 1)) as u8 ^ b) & 1;
            reg <<= 1;
            if fb == 1 {
                reg ^= poly;
            }
            reg &= (1u32 << l) - 1;
        }
        (0..l).map(|i| ((reg >> (l - 1 - i)) & 1) as u8).collect()
    }

    /// Appends the parity to the message, returning `message ‖ crc`.
    pub fn attach(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bits.len() + self.kind.len());
        self.attach_into(bits, &mut out);
        out
    }

    /// Writes `message ‖ crc` into `out` (cleared first). A reused buffer
    /// of sufficient capacity makes repeated calls allocation-free.
    pub fn attach_into(&self, bits: &[u8], out: &mut Vec<u8>) {
        let l = self.kind.len();
        let poly = self.kind.poly();
        out.clear();
        out.reserve(bits.len() + l);
        out.extend_from_slice(bits);
        let mut reg: u32 = 0;
        for &b in bits {
            debug_assert!(b <= 1);
            let fb = ((reg >> (l - 1)) as u8 ^ b) & 1;
            reg <<= 1;
            if fb == 1 {
                reg ^= poly;
            }
            reg &= (1u32 << l) - 1;
        }
        out.extend((0..l).map(|i| ((reg >> (l - 1 - i)) & 1) as u8));
    }

    /// Checks a `message ‖ crc` block; returns `Some(message)` when the
    /// parity verifies, `None` otherwise.
    pub fn check<'a>(&self, block: &'a [u8]) -> Option<&'a [u8]> {
        let l = self.kind.len();
        if block.len() < l {
            return None;
        }
        let (msg, parity) = block.split_at(block.len() - l);
        if self.compute(msg) == parity {
            Some(msg)
        } else {
            None
        }
    }

    /// Computes the CRC over a byte slice (MSB-first bit order) — the form
    /// used on FPGA bitstream frames and protocol packets.
    pub fn compute_bytes(&self, data: &[u8]) -> u32 {
        self.compute_chunks([data])
    }

    /// Computes the CRC of the concatenation of `chunks` without joining
    /// them: equal to [`Crc::compute_bytes`] over the joined bytes.
    pub fn compute_chunks<'a>(&self, chunks: impl IntoIterator<Item = &'a [u8]>) -> u32 {
        let t = &TABLES[self.kind as usize];
        let mut reg = 0u32;
        for data in chunks {
            let mut words = data.chunks_exact(8);
            for w in &mut words {
                let x = u64::from_be_bytes(w.try_into().expect("8-byte chunk"));
                let x = x ^ (u64::from(reg) << 32);
                reg = (0..8).fold(0, |r, k| r ^ t[k][(x >> (8 * k)) as usize & 0xFF]);
            }
            for &byte in words.remainder() {
                reg = (reg << 8) ^ t[0][((reg >> 24) as u8 ^ byte) as usize];
            }
        }
        reg >> (32 - self.kind.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [CrcKind; 4] = [
        CrcKind::Crc8,
        CrcKind::Crc12,
        CrcKind::Crc16,
        CrcKind::Crc24,
    ];

    /// The 25.212 byte CRC computed bit-serially, one shift and one
    /// conditional XOR per bit: the definition the table-driven engine
    /// must reproduce.
    fn bit_serial_oracle(kind: CrcKind, data: &[u8]) -> u32 {
        let l = kind.len();
        let poly = kind.poly();
        let mut reg: u32 = 0;
        for &byte in data {
            for i in (0..8).rev() {
                let b = (byte >> i) & 1;
                let fb = ((reg >> (l - 1)) as u8 ^ b) & 1;
                reg <<= 1;
                if fb == 1 {
                    reg ^= poly;
                }
                reg &= (1u32 << l) - 1;
            }
        }
        reg
    }

    fn xorshift_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn engine_matches_oracle_on_every_byte_and_every_short_length() {
        for kind in ALL {
            let crc = Crc::new(kind);
            for b in 0..=255u8 {
                assert_eq!(crc.compute_bytes(&[b]), bit_serial_oracle(kind, &[b]));
            }
            for len in 0..=64usize {
                for data in [
                    vec![0u8; len],
                    vec![0xFF; len],
                    xorshift_bytes(len as u64, len),
                ] {
                    assert_eq!(
                        crc.compute_bytes(&data),
                        bit_serial_oracle(kind, &data),
                        "{kind:?} at length {len}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn engine_matches_oracle_up_to_4k_whole_and_split(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            cut in 0usize..4097,
        ) {
            let cut = cut.min(data.len());
            for kind in ALL {
                let crc = Crc::new(kind);
                let want = bit_serial_oracle(kind, &data);
                prop_assert_eq!(crc.compute_bytes(&data), want);
                prop_assert_eq!(crc.compute_chunks([&data[..cut], &data[cut..]]), want);
            }
        }
    }

    #[test]
    fn xmodem_check_value() {
        // CRC-16/XMODEM check value: poly 0x1021, init 0, MSB first.
        assert_eq!(Crc::new(CrcKind::Crc16).compute_bytes(b"123456789"), 0x31C3);
    }

    #[test]
    fn attach_check_roundtrip_all_kinds() {
        for kind in [
            CrcKind::Crc8,
            CrcKind::Crc12,
            CrcKind::Crc16,
            CrcKind::Crc24,
        ] {
            let crc = Crc::new(kind);
            let msg: Vec<u8> = (0..100).map(|i| ((i * 5) % 7 < 3) as u8).collect();
            let block = crc.attach(&msg);
            assert_eq!(block.len(), msg.len() + kind.len());
            assert_eq!(crc.check(&block), Some(&msg[..]));
        }
    }

    #[test]
    fn detects_single_bit_errors() {
        for kind in [
            CrcKind::Crc8,
            CrcKind::Crc12,
            CrcKind::Crc16,
            CrcKind::Crc24,
        ] {
            let crc = Crc::new(kind);
            let msg: Vec<u8> = (0..64).map(|i| (i % 3 == 1) as u8).collect();
            let block = crc.attach(&msg);
            for pos in 0..block.len() {
                let mut bad = block.clone();
                bad[pos] ^= 1;
                assert!(crc.check(&bad).is_none(), "{kind:?} missed flip at {pos}");
            }
        }
    }

    #[test]
    fn detects_all_double_bit_errors_crc16() {
        let crc = Crc::new(CrcKind::Crc16);
        let msg: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
        let block = crc.attach(&msg);
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                let mut bad = block.clone();
                bad[i] ^= 1;
                bad[j] ^= 1;
                assert!(crc.check(&bad).is_none(), "missed double flip {i},{j}");
            }
        }
    }

    #[test]
    fn burst_errors_within_crc_length_are_detected() {
        // A CRC of length L detects all bursts of length ≤ L.
        let crc = Crc::new(CrcKind::Crc12);
        let msg: Vec<u8> = (0..80).map(|i| ((i * 11) % 5 == 0) as u8).collect();
        let block = crc.attach(&msg);
        for start in 0..(block.len() - 12) {
            let mut bad = block.clone();
            for k in 0..12 {
                bad[start + k] ^= 1;
            }
            assert!(crc.check(&bad).is_none(), "missed burst at {start}");
        }
    }

    #[test]
    fn zero_message_yields_zero_parity() {
        // Systematic division of the all-zero message gives all-zero parity.
        let crc = Crc::new(CrcKind::Crc24);
        assert!(crc.compute(&[0u8; 50]).iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_message_is_supported() {
        let crc = Crc::new(CrcKind::Crc8);
        let block = crc.attach(&[]);
        assert_eq!(block.len(), 8);
        assert!(crc.check(&block).is_some());
    }

    #[test]
    fn short_block_fails_check() {
        let crc = Crc::new(CrcKind::Crc16);
        assert!(crc.check(&[1, 0, 1]).is_none());
    }

    #[test]
    fn byte_crc_differs_on_different_data() {
        let crc = Crc::new(CrcKind::Crc24);
        let a = crc.compute_bytes(b"configuration frame A");
        let b = crc.compute_bytes(b"configuration frame B");
        assert_ne!(a, b);
    }

    #[test]
    fn byte_crc_matches_bit_crc() {
        let crc = Crc::new(CrcKind::Crc16);
        let data = [0xA5u8, 0x3C, 0x77];
        let bits: Vec<u8> = data
            .iter()
            .flat_map(|&byte| (0..8).rev().map(move |i| (byte >> i) & 1))
            .collect();
        let from_bits = crc
            .compute(&bits)
            .iter()
            .fold(0u32, |acc, &b| (acc << 1) | b as u32);
        assert_eq!(from_bits, crc.compute_bytes(&data));
    }
}
