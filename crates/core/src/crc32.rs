//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over byte slices.
//!
//! The v2 index format frames every section with a CRC of its payload
//! plus a whole-file trailer checksum (see [`crate::persist`]), so a
//! torn write, truncation, or bit rot is detected *before* any parsing
//! touches the bytes. The build environment is offline, so the
//! implementation is vendored here: the slice-by-16 variant, which folds
//! sixteen input bytes per step through sixteen 256-entry tables
//! computed at compile time, and finishes the tail a byte at a time.
//! It computes the same checksum as the byte-at-a-time table loop.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 tables, computed at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][i]` is the CRC state of byte
/// `i` followed by `k` zero bytes, so the byte `k` positions before the
/// end of a 16-byte group is looked up in `TABLES[k]`.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Table `k`'s entry for byte `b`.
#[inline(always)]
fn t(k: usize, b: u32) -> u32 {
    TABLES[k][(b & 0xFF) as usize]
}

/// A streaming CRC-32 accumulator, for checksumming a file as it is
/// written without buffering it twice.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut groups = bytes.chunks_exact(16);
        for g in &mut groups {
            let w = crc ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]]);
            crc = t(15, w) ^ t(14, w >> 8) ^ t(13, w >> 16) ^ t(12, w >> 24);
            for (k, &b) in (0..12).rev().zip(&g[4..]) {
                crc ^= t(k, b as u32);
            }
        }
        for &b in groups.remainder() {
            crc = (crc >> 8) ^ t(0, crc ^ b as u32);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors for the IEEE polynomial (cross-checked
    /// against zlib's `crc32()`).
    #[test]
    fn known_answer_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time reference the slice-by-16 loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Slice-by-16 equals the bytewise reference at every length up to
    /// 256 and every start offset within a 16-byte group, so each tail
    /// length and alignment is covered.
    #[test]
    fn slice_by_16_matches_bytewise_reference() {
        let data: Vec<u8> =
            (0u32..16 + 256).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for start in 0..16 {
            for len in 0..=256 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    /// Splitting a stream at any point gives the one-shot checksum.
    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 + 3) as u8).collect();
        let want = crc32(&data);
        for split in 0..=data.len() {
            let mut acc = Crc32::new();
            acc.update(&data[..split]);
            acc.update(&data[split..]);
            assert_eq!(acc.finish(), want, "split at {split}");
        }
    }

    /// Every single-bit flip changes the checksum — the property the
    /// torn-write suite leans on.
    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0u16..256).map(|i| (i % 251) as u8).collect();
        let base = crc32(&data);
        for byte in [0usize, 1, 100, 254, 255] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
