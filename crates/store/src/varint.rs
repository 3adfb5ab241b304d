//! LEB128 varints and zig-zag signed mapping — the byte-level substrate
//! of the columnar codec.
//!
//! Deltas are computed with *wrapping* arithmetic so any `u64`/`i64`
//! sequence round-trips exactly, including adversarial jumps near the
//! type bounds; zig-zag keeps small-magnitude deltas (the common case for
//! sorted time and clustered victim columns) in one or two bytes.
//!
//! Two decoders share one definition of the format. [`decode_u64`] is
//! the byte-at-a-time scalar loop and the differential-testing
//! **oracle**; [`decode_u64_fast`] probes eight input bytes as one
//! little-endian word (SWAR), finds the terminator with one bit trick,
//! and extracts the 7-bit groups with three masked folds. The fast path
//! only handles the cases where no error is possible — a terminated
//! varint of at most 8 bytes, whose value fits in 56 bits — and
//! delegates everything else (buffer tails, 9–10 byte varints, all
//! error cases) to the scalar decoder, so the two are equal by
//! construction on errors and differentially tested on values
//! (`tests/kernel_diff.rs`). The batch delta decoder
//! [`decode_deltas`] layers the column semantics (zig-zag, wrapping
//! prefix sum, domain check, trailing-byte check) over the fast decoder;
//! [`decode_deltas_scalar`] is its oracle over the scalar one.

use crate::error::StoreError;

/// Continuation-bit mask: bit 7 of every byte in a 64-bit word.
const CONT_MASK: u64 = 0x8080_8080_8080_8080;

/// Append `v` as an LEB128 varint (1–10 bytes).
pub fn encode_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an LEB128 varint at `*pos`, advancing it. Truncated or
/// over-long input is a typed [`StoreError::Corrupt`], never a panic.
pub fn decode_u64(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(StoreError::corrupt("truncated varint"));
        };
        *pos += 1;
        // The 10th byte may only carry the top bit of a u64.
        if shift == 63 && byte > 1 {
            return Err(StoreError::corrupt("varint overflows u64"));
        }
        if shift > 63 {
            return Err(StoreError::corrupt("varint longer than 10 bytes"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Collapse the 7-bit payload groups of a masked `len`-byte LEB128 word
/// into one value. `word` is the little-endian load of the varint's
/// bytes; `len` is 1..=8, so the result is at most 56 bits.
#[inline]
fn swar_extract(word: u64, len: u32) -> u64 {
    // Keep only the varint's own bytes, then drop every continuation bit.
    let mut x = (word & (u64::MAX >> (64 - 8 * len))) & !CONT_MASK;
    // Three folds halve the group count each time: 8×7-bit groups in
    // byte lanes → 4×14-bit in u16 lanes → 2×28-bit in u32 lanes → one
    // 56-bit value. Each step keeps the low group and shifts the high
    // group down next to it.
    x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
    x
}

/// SWAR fast path for [`decode_u64`]: identical results and errors, but
/// a terminated varint of ≤ 8 bytes is decoded branch-light from one
/// 64-bit load instead of a byte-at-a-time loop.
///
/// Equality with the oracle holds by construction: whenever fewer than
/// 8 bytes remain, or the probed word has no terminator (a 9–10 byte or
/// corrupt varint), this delegates to [`decode_u64`] — and within the
/// handled cases (`len ≤ 8`) the value is < 2⁶³, so neither truncation
/// nor overflow is reachable.
pub fn decode_u64_fast(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let Some(window) = buf.get(*pos..*pos + 8) else {
        return decode_u64(buf, pos);
    };
    let word = u64::from_le_bytes(window.try_into().expect("8 bytes"));
    let terminators = !word & CONT_MASK;
    if terminators == 0 {
        // ≥ 9-byte varint: rare (values ≥ 2⁵⁶) and error-prone territory
        // (overflow/over-length live here) — the oracle owns it.
        return decode_u64(buf, pos);
    }
    let len = terminators.trailing_zeros() / 8 + 1;
    *pos += len as usize;
    Ok(swar_extract(word, len))
}

/// Decode `n` delta-zig-zag values from a column slice with the scalar
/// oracle decoder: wrapping prefix sum, inclusive `max` domain check,
/// and a trailing-byte check — the reference semantics for
/// [`decode_deltas`].
pub fn decode_deltas_scalar(
    col: &[u8],
    n: usize,
    max: u64,
    name: &str,
) -> Result<Vec<u64>, StoreError> {
    let mut cpos = 0usize;
    let mut prev = 0i64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let delta = unzigzag(decode_u64(col, &mut cpos)?);
        let v = prev.wrapping_add(delta);
        prev = v;
        let u = v as u64;
        if u > max {
            return Err(StoreError::corrupt(format!(
                "{name} value {u} out of range at row {i}"
            )));
        }
        out.push(u);
    }
    if cpos != col.len() {
        return Err(StoreError::corrupt(format!("{name} column has trailing bytes")));
    }
    Ok(out)
}

/// Decode a delta-zig-zag column — the fast twin of
/// [`decode_deltas_scalar`]: same values, same typed errors on every
/// input.
///
/// On top of the SWAR single-value decoder it batch-decodes runs of
/// eight single-byte varints (one word probe, zero terminator checks) —
/// the dominant shape for sorted time and clustered victim columns. The
/// batch only fires when at least eight values are still *needed*, so a
/// column with trailing garbage takes the same exit as the oracle.
pub fn decode_deltas(col: &[u8], n: usize, max: u64, name: &str) -> Result<Vec<u64>, StoreError> {
    let mut cpos = 0usize;
    let mut prev = 0i64;
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    while i < n {
        if n - i >= 8 {
            if let Some(window) = col.get(cpos..cpos + 8) {
                let word = u64::from_le_bytes(window.try_into().expect("8 bytes"));
                if word & CONT_MASK == 0 {
                    // Eight 1-byte varints at once.
                    for j in 0..8 {
                        let delta = unzigzag((word >> (8 * j)) & 0x7f);
                        let v = prev.wrapping_add(delta);
                        prev = v;
                        let u = v as u64;
                        if u > max {
                            return Err(StoreError::corrupt(format!(
                                "{name} value {u} out of range at row {}",
                                i + j
                            )));
                        }
                        out.push(u);
                    }
                    cpos += 8;
                    i += 8;
                    continue;
                }
            }
        }
        let delta = unzigzag(decode_u64_fast(col, &mut cpos)?);
        let v = prev.wrapping_add(delta);
        prev = v;
        let u = v as u64;
        if u > max {
            return Err(StoreError::corrupt(format!(
                "{name} value {u} out of range at row {i}"
            )));
        }
        out.push(u);
        i += 1;
    }
    if cpos != col.len() {
        return Err(StoreError::corrupt(format!("{name} column has trailing bytes")));
    }
    Ok(out)
}

/// Map a signed value onto an unsigned one with small absolute values
/// staying small (zig-zag).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_across_magnitudes() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            buf.clear();
            encode_u64(v, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips_and_orders_by_magnitude() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-1) < zigzag(2));
        assert!(zigzag(3) < zigzag(-4));
    }

    #[test]
    fn truncated_and_overlong_varints_are_errors() {
        // A continuation bit with nothing after it.
        let mut pos = 0;
        assert!(matches!(
            decode_u64(&[0x80], &mut pos),
            Err(StoreError::Corrupt { .. })
        ));
        // Eleven continuation bytes can never be a u64.
        let mut pos = 0;
        assert!(matches!(
            decode_u64(&[0x80; 11], &mut pos),
            Err(StoreError::Corrupt { .. })
        ));
        // A 10th byte carrying more than the final bit overflows.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert!(matches!(
            decode_u64(&buf, &mut pos),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn fast_decoder_matches_the_oracle_on_every_magnitude() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            (1 << 56) - 1, // largest 8-byte varint — last SWAR-handled value
            1 << 56,       // first 9-byte varint — delegated to the oracle
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            buf.clear();
            encode_u64(v, &mut buf);
            // With and without trailing bytes after the varint.
            for pad in [0usize, 12] {
                buf.extend(std::iter::repeat_n(0xEEu8, pad));
                let (mut sp, mut fp) = (0, 0);
                assert_eq!(decode_u64(&buf, &mut sp).unwrap(), v);
                assert_eq!(decode_u64_fast(&buf, &mut fp).unwrap(), v);
                assert_eq!(sp, fp, "positions diverge for {v}");
                buf.truncate(buf.len() - pad);
            }
        }
    }

    #[test]
    fn fast_decoder_reports_the_oracle_errors_verbatim() {
        // Truncation at every prefix of a max-length varint, plus the
        // overflow and over-length shapes.
        let mut full = Vec::new();
        encode_u64(u64::MAX, &mut full);
        let mut adversarial: Vec<Vec<u8>> = (0..full.len()).map(|c| full[..c].to_vec()).collect();
        adversarial.push(vec![0x80; 11]);
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        adversarial.push(overflow);
        for bytes in adversarial {
            let (mut sp, mut fp) = (0, 0);
            let scalar = decode_u64(&bytes, &mut sp);
            let fast = decode_u64_fast(&bytes, &mut fp);
            let scalar_msg = scalar.expect_err("oracle accepts bad input").to_string();
            let fast_msg = fast.expect_err("fast path accepts bad input").to_string();
            assert_eq!(scalar_msg, fast_msg, "messages diverge for {bytes:?}");
        }
    }

    #[test]
    fn delta_decoders_agree_on_values_and_errors() {
        // A run long enough to hit the 8×1-byte batch, then a multi-byte
        // tail.
        let values: Vec<u64> = (0..40u64).chain([1 << 40, 0, u64::MAX]).collect();
        let mut col = Vec::new();
        let mut prev = 0i64;
        for &v in &values {
            encode_u64(zigzag((v as i64).wrapping_sub(prev)), &mut col);
            prev = v as i64;
        }
        let scalar = decode_deltas_scalar(&col, values.len(), u64::MAX, "time").unwrap();
        let fast = decode_deltas(&col, values.len(), u64::MAX, "time").unwrap();
        assert_eq!(scalar, values);
        assert_eq!(fast, values);
        // Domain violation: same row index in the error message.
        let scalar_err = decode_deltas_scalar(&col, values.len(), 1 << 41, "time")
            .expect_err("oracle misses range")
            .to_string();
        let fast_err = decode_deltas(&col, values.len(), 1 << 41, "time")
            .expect_err("fast path misses range")
            .to_string();
        assert_eq!(scalar_err, fast_err);
        // Trailing bytes: both notice, identically, even when the junk
        // looks like more 1-byte varints (the batch must not eat it).
        let mut trailing = col.clone();
        trailing.extend_from_slice(&[2, 4, 6, 8, 10, 12, 14, 16]);
        let scalar_err = decode_deltas_scalar(&trailing, values.len(), u64::MAX, "time")
            .expect_err("oracle misses trailing bytes")
            .to_string();
        let fast_err = decode_deltas(&trailing, values.len(), u64::MAX, "time")
            .expect_err("fast path misses trailing bytes")
            .to_string();
        assert_eq!(scalar_err, fast_err);
    }

    #[test]
    fn small_deltas_stay_small() {
        let mut buf = Vec::new();
        encode_u64(zigzag(1), &mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        encode_u64(zigzag(-60), &mut buf);
        assert_eq!(buf.len(), 1);
    }
}
