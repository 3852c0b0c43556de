//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the per-section
//! integrity check of the snapshot format.
//!
//! The checksum is folded [`STEP`] bytes per step ("slice-by-16"):
//! `TABLES[0]` is the classic byte-at-a-time table, and `TABLES[k][b]` is
//! the CRC of byte `b` followed by `k` zero bytes, so the lookups of one
//! step are independent of each other and only their XOR is serial. The
//! value is the same as the bit-serial definition for every input
//! (`tests/codec_oracle.rs` checks every length and start alignment).

/// Bytes folded per step; the tables take `STEP` KiB, half a typical L1.
const STEP: usize = 16;

const fn build_tables() -> [[u32; 256]; STEP] {
    let mut tables = [[0u32; 256]; STEP];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; STEP] = build_tables();

/// A streaming CRC32: feed it byte ranges where they lie, in order, and
/// the result is the checksum of their concatenation.
///
/// # Example
///
/// ```
/// let mut crc = aibench_ckpt::Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finish(), aibench_ckpt::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut steps = bytes.chunks_exact(STEP);
        for step in &mut steps {
            // The running checksum folds into the first four bytes; byte
            // `i` then has `STEP - 1 - i` bytes behind it in this step.
            let head = c.to_le_bytes();
            c = 0;
            for (i, &b) in step.iter().enumerate() {
                let b = if i < 4 { b ^ head[i] } else { b };
                c ^= TABLES[STEP - 1 - i][usize::from(b)];
            }
        }
        for &b in steps.remainder() {
            c = TABLES[0][usize::from(c as u8 ^ b)] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// The CRC32 checksum of `bytes` (IEEE, as used by zip/png/ethernet).
///
/// # Example
///
/// ```
/// assert_eq!(aibench_ckpt::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard check value plus a couple of fixed points.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"aibench"), crc32(b"aibench"));
    }

    #[test]
    fn sensitive_to_any_byte() {
        let base = crc32(b"hello world");
        assert_ne!(base, crc32(b"hello worle"));
        assert_ne!(base, crc32(b"iello world"));
        assert_ne!(base, crc32(b"hello worl"));
    }
}
