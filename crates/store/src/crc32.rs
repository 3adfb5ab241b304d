//! CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) for chunk and
//! footer integrity, implemented in-tree to keep the workspace hermetic.
//!
//! Two implementations share one definition of the checksum:
//!
//! * [`crc32_bytewise`] — the classic one-table Sarwate loop, one byte
//!   per step. Retained as the differential-testing **oracle**.
//! * [`crc32`] — slice-by-8: eight derived tables consume a 64-bit
//!   word per step, turning the long dependency chain of the bytewise
//!   loop into eight independent table lookups the CPU can overlap.
//!   Every caller uses this one.
//!
//! Both return the same 32 bits for every input — known-answer vectors
//! and an every-length-mod-8 differential property pin that (see
//! `tests/kernel_diff.rs` and the unit tests below).

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 tables: `TABLES[0]` is the classic byte table; entry
/// `TABLES[k][b]` is the CRC contribution of byte `b` positioned `k`
/// bytes before the end of an 8-byte word, derived by feeding `k` zero
/// bytes through the base table.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = build_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data`, one byte at a time — the scalar reference
/// implementation every fast-path result is differentially tested
/// against.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = TABLES[0][((crc ^ byte as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// CRC-32 of `data`, slice-by-8: fold the running CRC into the next 8
/// input bytes and look all eight up in parallel tables; the bytewise
/// loop handles the sub-word tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = TABLES[0][((crc ^ byte as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard check values every CRC-32/ISO-HDLC implementation must
    /// reproduce.
    const KNOWN: &[(&[u8], u32)] = &[
        (b"", 0),
        (b"a", 0xE8B7_BE43),
        (b"abc", 0x3524_41C2),
        (b"message digest", 0x2015_9D7F),
        (b"123456789", 0xCBF4_3926),
        (b"abcdefghijklmnopqrstuvwxyz", 0x4C27_50BD),
    ];

    #[test]
    fn matches_published_check_values() {
        for &(input, expected) in KNOWN {
            assert_eq!(crc32(input), expected, "{input:?}");
            assert_eq!(crc32_bytewise(input), expected, "{input:?} (oracle)");
        }
    }

    #[test]
    fn slice8_equals_bytewise_at_every_length_mod_8() {
        // 0..=64 covers every residue class with word counts 0..8; the
        // pattern exercises all byte values and both table halves.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len={len}"
            );
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"booters-store chunk payload".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {i} bit {bit}");
            }
        }
    }
}
