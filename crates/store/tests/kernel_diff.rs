//! Differential tests proving every byte-level fast kernel bit-identical
//! to its scalar oracle (DESIGN.md §5f).
//!
//! Three kernels, one contract: the SWAR varint decoder, the batched
//! column encoder and the slice-by-8 CRC-32 each have a retained scalar
//! reference implementation, called here directly next to the fast one,
//! and for *every* input — well-formed or adversarial — fast and scalar
//! must agree on bytes, values, positions, and typed errors.
//! `StoreError` deliberately has no `PartialEq`, so error equivalence is
//! variant match + rendered-message equality, which also pins the
//! diagnostic text users see.

use booters_store::varint::{
    decode_deltas, decode_deltas_scalar, decode_u64, decode_u64_fast, encode_u64, zigzag,
};
use booters_store::{
    crc32, crc32_bytewise, decode_chunk, encode_chunk, encode_chunk_scalar, StoreError,
};
use booters_netsim::{SensorPacket, UdpProtocol, VictimAddr};
use booters_testkit::strategy::prop;
use booters_testkit::{forall, prop_assert, prop_assert_eq};

/// Assert two decoder results identical: same value and end position on
/// success, same corruption message on failure.
fn assert_same_decode(
    scalar: (Result<u64, StoreError>, usize),
    fast: (Result<u64, StoreError>, usize),
    input: &[u8],
) {
    match (scalar, fast) {
        ((Ok(sv), sp), (Ok(fv), fp)) => {
            assert_eq!(sv, fv, "values diverge on {input:?}");
            assert_eq!(sp, fp, "positions diverge on {input:?}");
        }
        ((Err(se), _), (Err(fe), _)) => {
            assert!(matches!(se, StoreError::Corrupt { .. }), "oracle: {se}");
            assert!(matches!(fe, StoreError::Corrupt { .. }), "fast: {fe}");
            assert_eq!(se.to_string(), fe.to_string(), "errors diverge on {input:?}");
        }
        ((s, _), (f, _)) => panic!("Ok/Err disagreement on {input:?}: oracle {s:?}, fast {f:?}"),
    }
}

fn both_decodes(buf: &[u8], start: usize) -> ((Result<u64, StoreError>, usize), (Result<u64, StoreError>, usize)) {
    let mut sp = start;
    let scalar = decode_u64(buf, &mut sp);
    let mut fp = start;
    let fast = decode_u64_fast(buf, &mut fp);
    ((scalar, sp), (fast, fp))
}

#[test]
fn varint_boundary_values_decode_identically() {
    // Every value class a LEB128 u64 can take: group boundaries, the
    // 8-byte/9-byte SWAR handoff, and the extremes.
    let mut boundaries: Vec<u64> = vec![0, 1, u64::MAX];
    for bytes in 1u32..=9 {
        let bits = 7 * bytes;
        boundaries.push((1u64 << bits) - 1); // largest `bytes`-byte varint
        if bits < 64 {
            boundaries.push(1u64 << bits); // smallest (`bytes`+1)-byte one
        }
    }
    let mut buf = Vec::new();
    for &v in &boundaries {
        buf.clear();
        encode_u64(v, &mut buf);
        let (scalar, fast) = both_decodes(&buf, 0);
        assert_same_decode(scalar, fast, &buf);
        // And mid-buffer, with live bytes on both sides.
        let mut padded = vec![0x81u8, 0x7f];
        padded.extend_from_slice(&buf);
        padded.extend_from_slice(&[0xff, 0xff, 0x01]);
        let (scalar, fast) = both_decodes(&padded, 2);
        assert_same_decode(scalar, fast, &padded);
    }
}

#[test]
fn varint_truncations_yield_the_same_typed_error_at_every_cut() {
    for v in [127u64, 128, 16_384, 1 << 35, (1 << 56) - 1, 1 << 56, u64::MAX] {
        let mut buf = Vec::new();
        encode_u64(v, &mut buf);
        for cut in 0..buf.len() {
            let (scalar, fast) = both_decodes(&buf[..cut], 0);
            assert_same_decode(scalar, fast, &buf[..cut]);
        }
    }
}

forall! {
    #![cases(192)]

    fn varint_decoders_agree_on_arbitrary_bytes(bytes in prop::collection::vec(0u32..256, 0..24), start in 0usize..4) {
        // Raw adversarial streams: most are corrupt (truncated,
        // over-long, overflowing) — exactly where the paths must agree.
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let start = start.min(bytes.len());
        let (scalar, fast) = both_decodes(&bytes, start);
        let ((s, sp), (f, fp)) = (scalar, fast);
        match (s, f) {
            (Ok(sv), Ok(fv)) => {
                prop_assert_eq!(sv, fv);
                prop_assert_eq!(sp, fp);
            }
            (Err(se), Err(fe)) => prop_assert_eq!(se.to_string(), fe.to_string()),
            (s, f) => prop_assert!(false, "Ok/Err disagreement: oracle {:?}, fast {:?}", s, f),
        }
    }

    fn varint_round_trip_is_identical_for_both_decoders(values in prop::collection::vec(0u64..u64::MAX, 1..64)) {
        // Concatenated stream of varints: both decoders must walk it in
        // lockstep and recover every value.
        let mut buf = Vec::new();
        for &v in &values {
            encode_u64(v, &mut buf);
        }
        let (mut sp, mut fp) = (0usize, 0usize);
        for &v in &values {
            let sv = decode_u64(&buf, &mut sp).unwrap();
            let fv = decode_u64_fast(&buf, &mut fp).unwrap();
            prop_assert_eq!(sv, v);
            prop_assert_eq!(fv, v);
            prop_assert_eq!(sp, fp);
        }
        prop_assert_eq!(sp, buf.len());
    }

    fn delta_decoders_round_trip_random_delta_sequences(deltas in prop::collection::vec(-5_000i64..5_000, 1..200), spikes in prop::collection::vec(0u64..u64::MAX, 0..4)) {
        // Mostly-small deltas (the 8×1-byte batch shape) with a few huge
        // jumps spliced in (multi-byte varints breaking the batches).
        let mut values: Vec<u64> = Vec::new();
        let mut acc = 0i64;
        for (i, &d) in deltas.iter().enumerate() {
            acc = acc.wrapping_add(d);
            values.push(acc as u64);
            if let Some(&s) = spikes.get(i % 7) {
                if i % 7 == 3 {
                    values.push(s);
                    acc = s as i64;
                }
            }
        }
        let mut col = Vec::new();
        let mut prev = 0i64;
        for &v in &values {
            encode_u64(zigzag((v as i64).wrapping_sub(prev)), &mut col);
            prev = v as i64;
        }
        let scalar = decode_deltas_scalar(&col, values.len(), u64::MAX, "time").unwrap();
        let fast = decode_deltas(&col, values.len(), u64::MAX, "time").unwrap();
        prop_assert_eq!(&scalar, &values);
        prop_assert_eq!(&fast, &values);
    }

    fn delta_decoders_agree_on_adversarial_columns(bytes in prop::collection::vec(0u32..256, 0..96), n in 0usize..64, max_bits in 0u32..65) {
        // Arbitrary column bytes against an arbitrary row count and
        // domain: truncations, trailing garbage, and range violations
        // must all produce byte-identical typed errors.
        let col: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let max = if max_bits >= 64 { u64::MAX } else { (1u64 << max_bits) - 1 };
        let scalar = decode_deltas_scalar(&col, n, max, "victim");
        let fast = decode_deltas(&col, n, max, "victim");
        match (scalar, fast) {
            (Ok(s), Ok(f)) => prop_assert_eq!(s, f),
            (Err(se), Err(fe)) => prop_assert_eq!(se.to_string(), fe.to_string()),
            (s, f) => prop_assert!(false, "Ok/Err disagreement: oracle {:?}, fast {:?}", s, f),
        }
    }

    fn crc_fast_equals_bytewise_on_arbitrary_buffers(bytes in prop::collection::vec(0u32..256, 0..300)) {
        let data: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
    }
}

#[test]
fn crc_known_answers_hold_for_both_kernels() {
    // The universal CRC-32 check value plus supporting vectors.
    let known: &[(&[u8], u32)] = &[
        (b"123456789", 0xCBF4_3926),
        (b"", 0),
        (b"a", 0xE8B7_BE43),
        (b"abc", 0x3524_41C2),
    ];
    for &(input, expected) in known {
        assert_eq!(crc32(input), expected);
        assert_eq!(crc32_bytewise(input), expected);
    }
}

#[test]
fn crc_kernels_agree_at_every_length_mod_8() {
    // Word-loop iteration counts 0..16 with every tail residue.
    let data: Vec<u8> = (0..128u32).map(|i| (i.wrapping_mul(0xA5) ^ (i >> 3)) as u8).collect();
    for len in 0..=data.len() {
        assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "len={len}");
    }
}

#[test]
fn batched_encoder_emits_the_oracle_bytes_on_every_branch_shape() {
    // Three deliberate shapes: a long all-small run (the packed 8-byte
    // lane), alternating huge jumps (the mixed-batch fallback), and a
    // sub-8 tail — plus type-extreme values in every column.
    let small_run: Vec<SensorPacket> = (0..33).map(|i| pkt(1000 + i, 3, 40, 2)).collect();
    let jumps: Vec<SensorPacket> = (0..17)
        .map(|i| {
            if i % 2 == 0 {
                pkt(u64::MAX - i, u32::MAX, u32::MAX - i as u32, 9)
            } else {
                pkt(i, 0, 0, 0)
            }
        })
        .collect();
    let tail: Vec<SensorPacket> = (0..5).map(|i| pkt(i * 7, i as u32, 1, 1)).collect();
    for packets in [small_run, jumps, tail] {
        let fast = encode_chunk(&packets);
        let scalar = encode_chunk_scalar(&packets);
        assert_eq!(fast, scalar, "encoded bytes diverge for {} packets", packets.len());
        assert_eq!(decode_chunk(&fast).unwrap(), packets);
    }
}

#[test]
fn encode_lane_tails_are_kernel_invariant_at_every_length() {
    // The batched encoder packs 8 all-small zig-zags per lane and falls
    // back to a scalar tail for the last `n % 8` items. Sweep every
    // length through several full lanes so the 7-item and 8-item tail
    // boundaries (and everything between) are each hit explicitly.
    for len in 1usize..=40 {
        let packets: Vec<SensorPacket> = (0..len as u64)
            .map(|i| pkt(1_000 + i * 3, (i % 4) as u32, 60 + (i % 5) as u32, 2))
            .collect();
        let fast = encode_chunk(&packets);
        let scalar = encode_chunk_scalar(&packets);
        assert_eq!(fast, scalar, "encoded bytes diverge at len={len}");
        assert_eq!(decode_chunk(&fast).unwrap(), packets, "round trip at len={len}");
    }
}

#[test]
fn a_large_value_at_each_final_batch_position_breaks_the_lane_identically() {
    // One huge jump placed at every position of the *final* (possibly
    // partial) batch: whichever lane the fast path was packing must
    // bail to the mixed-batch fallback at exactly the same byte the
    // oracle emits. Lengths 17 and 24 give a 1-item and an 8-item final
    // batch after two full lanes.
    for len in [17usize, 20, 23, 24] {
        for big_at in (len - (len % 8).max(1))..len {
            let packets: Vec<SensorPacket> = (0..len)
                .map(|i| {
                    if i == big_at {
                        pkt(u64::MAX - 7, u32::MAX, u32::MAX - 3, 9)
                    } else {
                        pkt(2_000 + i as u64, 1, 80, 4)
                    }
                })
                .collect();
            let fast = encode_chunk(&packets);
            let scalar = encode_chunk_scalar(&packets);
            assert_eq!(fast, scalar, "len={len} big_at={big_at}: bytes diverge");
            assert_eq!(decode_chunk(&fast).unwrap(), packets, "len={len} big_at={big_at}");
        }
    }
}

forall! {
    #![cases(96)]

    fn encode_lanes_agree_on_arbitrary_tail_shapes(
        full_batches in 0usize..3,
        tail in 1usize..=8,
        bigs in prop::collection::vec(0u32..2, 32),
    ) {
        // Arbitrary batch counts with every tail length 1..=8 and an
        // arbitrary big/small pattern: the packed lane must survive any
        // interruption point and agree with the oracle byte-for-byte.
        let n = full_batches * 8 + tail;
        let packets: Vec<SensorPacket> = (0..n)
            .map(|i| {
                if bigs[i] == 1 {
                    pkt(u64::MAX - (i as u64) * 1_000, u32::MAX - i as u32, u32::MAX, 7)
                } else {
                    pkt(500 + i as u64 * 2, 2, 30, 1)
                }
            })
            .collect();
        let fast = encode_chunk(&packets);
        let scalar = encode_chunk_scalar(&packets);
        prop_assert_eq!(&fast, &scalar, "encoded bytes diverge (n={})", n);
        prop_assert_eq!(decode_chunk(&fast).unwrap(), packets);
    }
}

fn pkt(time: u64, sensor: u32, victim: u32, proto: usize) -> SensorPacket {
    SensorPacket {
        time,
        sensor,
        victim: VictimAddr(victim),
        protocol: UdpProtocol::ALL[proto],
        ttl: (time % 251) as u8,
        src_port: (victim % 60_000) as u16,
    }
}

forall! {
    #![cases(48)]

    fn chunk_codec_is_kernel_invariant(seed in prop::collection::vec((0u64..100_000, 0u32..16, 0u32..5_000, 0usize..10), 1..200)) {
        // Full-codec differential: the fast and scalar encoders emit the
        // same bytes, which decode back to the input packets.
        let packets: Vec<SensorPacket> = seed
            .into_iter()
            .map(|(t, s, v, p)| pkt(t, s, v, p))
            .collect();
        let fast_bytes = encode_chunk(&packets);
        prop_assert_eq!(&fast_bytes, &encode_chunk_scalar(&packets), "encoded bytes diverge");
        prop_assert_eq!(&decode_chunk(&fast_bytes).unwrap(), &packets);
    }

    fn chunk_corruption_errors_are_kernel_invariant(seed in prop::collection::vec((0u64..10_000, 0u32..8, 0u32..500, 0usize..10), 1..60), pos in 0usize..1_000_000, bit in 0u32..8) {
        // Flip any bit: the decoder's slice-by-8 CRC must reject the
        // chunk with exactly the error the bytewise oracle predicts.
        let packets: Vec<SensorPacket> = seed
            .into_iter()
            .map(|(t, s, v, p)| pkt(t, s, v, p))
            .collect();
        let mut bytes = encode_chunk(&packets);
        let i = pos % bytes.len();
        bytes[i] ^= 1 << bit;
        let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let computed = crc32_bytewise(payload);
        prop_assert!(stored != computed, "flip at {} bit {} kept the crc", i, bit);
        let expected = StoreError::corrupt(format!(
            "chunk crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
        ));
        match decode_chunk(&bytes) {
            Err(e) => prop_assert_eq!(e.to_string(), expected.to_string()),
            Ok(_) => prop_assert!(false, "flip at {} bit {} decoded", i, bit),
        }
    }
}
