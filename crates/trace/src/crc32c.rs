//! CRC32c (Castagnoli) — the checksum guarding the on-disk trace format.
//!
//! Table-driven, reflected, polynomial `0x1EDC6F41` (tables built from the
//! reversed form `0x82F63B78`), the same parametrisation used by iSCSI,
//! ext4 and SSE4.2's `crc32` instruction, so externally produced checksums
//! of trace sections can be cross-checked with standard tooling.
//!
//! Slice-by-16: sixteen compile-time tables let [`Hasher::update`]
//! consume sixteen bytes per step through sixteen independent lookups
//! instead of one latency-chained lookup per byte — the byte-at-a-time
//! loop serialized the audit emit path, where every 42-byte decision
//! record is checksummed on the serving hot path.
//!
//! [`combine`] joins the checksums of two adjacent byte runs without
//! reading either run again (zlib's `crc32_combine`), so a layer that
//! holds a verified checksum of a larger buffer can derive the checksum
//! of a part of it with work logarithmic in the part's length.
//!
//! Self-contained on purpose: the build environment has no registry
//! access, and a hundred lines of table-driven CRC beat a dependency.

/// The reversed CRC32c polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Bytes retired per sliced step (and the number of lookup tables).
const SLICES: usize = 16;

/// Slice-by-16 lookup tables, built at compile time. `TABLE[0]` is the
/// classic byte-at-a-time table; `TABLE[s][b]` advances byte `b` through
/// `s` further zero bytes, so sixteen table hits retire sixteen bytes at
/// once.
static TABLE: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut table = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = table[s - 1][i];
            table[s][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    table
}

/// Powers of x in [`X2N`]: x^(2^k) for every bit `k - 3` of a `u64`
/// byte length.
const X2N_LEN: usize = 64 + 3;

/// `X2N[k]` is x^(2^k) modulo the polynomial, in the reflected bit
/// order the tables use (bit 31 is the coefficient of x^0). Multiplying
/// by it advances a CRC register over 2^k zero bits.
static X2N: [u32; X2N_LEN] = build_x2n();

const fn build_x2n() -> [u32; X2N_LEN] {
    let mut table = [0u32; X2N_LEN];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < X2N_LEN {
        table[k] = p;
        p = mul_mod(p, p);
        k += 1;
    }
    table
}

/// `a * b` modulo the polynomial, both in reflected bit order.
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    product
}

/// x^(8·len) modulo the polynomial: the factor that moves a CRC register
/// past `len` bytes.
fn x_pow_bytes(len: u64) -> u32 {
    let mut p = 1 << 31; // x^0
    let (mut n, mut k) = (len, 3);
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod(X2N[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC32c of `a ‖ b`, given `crc_a` = CRC32c of `a`, `crc_b` = CRC32c
/// of `b` and `len_b` = the length of `b`.
///
/// Because the checksum is linear, the identity also runs the other way:
/// `combine(crc_a, 0, len_b) ^ crc_ab` is the CRC32c of `b` alone, for
/// `crc_ab` the checksum of the whole `a ‖ b`.
///
/// # Example
///
/// ```
/// use csp_trace::crc32c::{checksum, combine};
///
/// let (a, b) = (b"12345".as_slice(), b"6789".as_slice());
/// assert_eq!(combine(checksum(a), checksum(b), 4), checksum(b"123456789"));
/// assert_eq!(combine(checksum(a), 0, 4) ^ checksum(b"123456789"), checksum(b));
/// ```
pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mul_mod(x_pow_bytes(len_b), crc_a) ^ crc_b
}

/// Incremental CRC32c state.
///
/// # Example
///
/// ```
/// use csp_trace::crc32c::Hasher;
///
/// let mut h = Hasher::new();
/// h.update(b"123456789");
/// assert_eq!(h.finalize(), 0xE306_9283); // the CRC32c check value
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Hasher { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(SLICES);
        for c in &mut chunks {
            let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            let d = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
            let e = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
            crc = TABLE[15][(a & 0xFF) as usize]
                ^ TABLE[14][((a >> 8) & 0xFF) as usize]
                ^ TABLE[13][((a >> 16) & 0xFF) as usize]
                ^ TABLE[12][(a >> 24) as usize]
                ^ TABLE[11][(b & 0xFF) as usize]
                ^ TABLE[10][((b >> 8) & 0xFF) as usize]
                ^ TABLE[9][((b >> 16) & 0xFF) as usize]
                ^ TABLE[8][(b >> 24) as usize]
                ^ TABLE[7][(d & 0xFF) as usize]
                ^ TABLE[6][((d >> 8) & 0xFF) as usize]
                ^ TABLE[5][((d >> 16) & 0xFF) as usize]
                ^ TABLE[4][(d >> 24) as usize]
                ^ TABLE[3][(e & 0xFF) as usize]
                ^ TABLE[2][((e >> 8) & 0xFF) as usize]
                ^ TABLE[1][((e >> 16) & 0xFF) as usize]
                ^ TABLE[0][(e >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLE[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the finished checksum (the hasher may keep accumulating).
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// One-shot CRC32c of `bytes`.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // The standard CRC32c test vector.
        assert_eq!(checksum(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(checksum(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Hasher::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), checksum(data));
    }

    /// The slice-by-16 fast path must agree with the one-table reference
    /// at every input length (exercising every head/tail remainder
    /// split) and across every split point of an incremental feed.
    #[test]
    fn sliced_update_matches_byte_at_a_time_reference() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLE[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(checksum(&data[..len]), reference(&data[..len]), "len {len}");
        }
        for split in 0..64 {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference(&data), "split {split}");
        }
    }

    #[test]
    fn combine_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(151) >> 2) as u8)
            .collect();
        let whole = checksum(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let len_b = b.len() as u64;
            assert_eq!(
                combine(checksum(a), checksum(b), len_b),
                whole,
                "split {split}"
            );
            assert_eq!(
                combine(checksum(a), 0, len_b) ^ whole,
                checksum(b),
                "split {split}, suffix derived from the whole"
            );
        }
    }

    /// Advancing over `m + n` bytes is advancing over `m`, then `n`, up
    /// to lengths whose top bits reach the last power of x in the table.
    #[test]
    fn combine_composes_over_any_length() {
        let crc = checksum(b"123456789");
        for (m, n) in [
            (1u64, 2u64),
            (1 << 29, 3),
            (1 << 40, (1 << 40) + 7),
            (u64::MAX / 2, u64::MAX / 2),
        ] {
            assert_eq!(
                combine(crc, 0, m + n),
                combine(combine(crc, 0, m), 0, n),
                "{m} + {n}"
            );
        }
    }

    #[test]
    fn single_bit_flips_change_checksum() {
        let data: Vec<u8> = (0u8..=255).collect();
        let base = checksum(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[i] ^= 1 << bit;
                assert_ne!(
                    checksum(&mutated),
                    base,
                    "flip of bit {bit} in byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn zero_prefix_sensitivity() {
        // CRCs with an all-ones initial state distinguish leading zeros.
        assert_ne!(checksum(&[0]), checksum(&[0, 0]));
    }
}
