//! The columnar chunk codec.
//!
//! A chunk is a batch of [`SensorPacket`]s transposed into six columns —
//! time, victim, protocol, sensor, ttl, source port — each encoded as
//! wrapping deltas in zig-zag LEB128. Sorted or clustered columns (time in
//! an ingest chunk, victim/protocol in an external-sort run) collapse to
//! one or two bytes per value; the whole chunk is sealed with a CRC-32 and
//! carries a zone map (min/max time, min/max victim key) so scans can skip
//! chunks without decoding them.
//!
//! On-disk layout of one chunk (all integers varint unless noted):
//!
//! ```text
//! +----------+-----------------------------------------+-------------+
//! | n        | zone map: min_time max_time             | 6 columns   |
//! | (varint) |           min_victim max_victim         | len + bytes |
//! +----------+-----------------------------------------+-------------+
//! | crc32 of every preceding byte (4 bytes LE)                       |
//! +------------------------------------------------------------------+
//! ```
//!
//! Decoding validates the CRC before touching the payload, then checks
//! every decoded value against its column's domain and the zone map
//! against the decoded data — corruption surfaces as a typed
//! [`StoreError`], never as a panic or silently wrong packets.

use crate::error::StoreError;
use crate::crc32::crc32;
use crate::varint::{decode_deltas, decode_u64, encode_u64, zigzag};
use booters_netsim::{SensorPacket, UdpProtocol, VictimAddr};

/// Default packets per chunk: small enough that a decoded chunk per
/// spill run stays cheap during k-way merges, large enough to amortise
/// the zone map and CRC.
pub const DEFAULT_CHUNK_CAPACITY: usize = 4096;

/// Per-chunk zone map: the scan-pruning metadata kept both inside the
/// chunk and in the store footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Smallest packet time in the chunk.
    pub min_time: u64,
    /// Largest packet time in the chunk.
    pub max_time: u64,
    /// Smallest victim address in the chunk.
    pub min_victim: u32,
    /// Largest victim address in the chunk.
    pub max_victim: u32,
}

impl ZoneMap {
    /// Zone map of a non-empty packet slice.
    pub fn of(packets: &[SensorPacket]) -> ZoneMap {
        let mut zm = ZoneMap {
            min_time: u64::MAX,
            max_time: 0,
            min_victim: u32::MAX,
            max_victim: 0,
        };
        for p in packets {
            zm.min_time = zm.min_time.min(p.time);
            zm.max_time = zm.max_time.max(p.time);
            zm.min_victim = zm.min_victim.min(p.victim.0);
            zm.max_victim = zm.max_victim.max(p.victim.0);
        }
        zm
    }

    /// Could a packet in `[from, to)` live in this chunk?
    pub fn overlaps_time(&self, from: u64, to: u64) -> bool {
        self.min_time < to && self.max_time >= from
    }

    /// Could this victim address live in this chunk?
    pub fn may_contain_victim(&self, v: VictimAddr) -> bool {
        (self.min_victim..=self.max_victim).contains(&v.0)
    }
}

/// Append one delta-zig-zag column for `field` over `packets` with the
/// scalar reference encoder — the oracle for [`encode_column`]'s batched
/// fast path (both must produce byte-identical columns; pinned through
/// [`encode_chunk_scalar`] by `tests/kernel_diff.rs`).
fn encode_column_scalar(
    packets: &[SensorPacket],
    field: impl Fn(&SensorPacket) -> u64,
    out: &mut Vec<u8>,
) {
    let mut col = Vec::new();
    let mut prev = 0i64;
    for p in packets {
        let v = field(p) as i64;
        encode_u64(zigzag(v.wrapping_sub(prev)), &mut col);
        prev = v;
    }
    encode_u64(col.len() as u64, out);
    out.extend_from_slice(&col);
}

/// Append one delta-zig-zag column for `field` over `packets`, with
/// [`encode_column_scalar`] when `scalar` is set.
///
/// Fast path: deltas are produced eight at a time, and when all eight
/// zig-zags fit single-byte varints (the dominant shape for sorted time
/// and clustered victim/protocol columns) they are packed into one
/// little-endian word and appended with a single 8-byte copy — the
/// encode-side mirror of `decode_deltas`'s batch lane. A 1-byte
/// LEB128 varint *is* its value, so the emitted bytes are identical to
/// the scalar encoder's on every input.
fn encode_column(
    packets: &[SensorPacket],
    field: impl Fn(&SensorPacket) -> u64,
    scalar: bool,
    out: &mut Vec<u8>,
) {
    if scalar {
        return encode_column_scalar(packets, field, out);
    }
    let n = packets.len();
    let mut col = Vec::with_capacity(n + n / 2);
    let mut prev = 0i64;
    let mut i = 0usize;
    while i + 8 <= n {
        let mut zs = [0u64; 8];
        let mut all_small = true;
        for (j, z) in zs.iter_mut().enumerate() {
            let v = field(&packets[i + j]) as i64;
            *z = zigzag(v.wrapping_sub(prev));
            prev = v;
            all_small &= *z < 0x80;
        }
        if all_small {
            let mut word = 0u64;
            for (j, &z) in zs.iter().enumerate() {
                word |= z << (8 * j);
            }
            col.extend_from_slice(&word.to_le_bytes());
        } else {
            for &z in &zs {
                encode_u64(z, &mut col);
            }
        }
        i += 8;
    }
    for p in &packets[i..] {
        let v = field(p) as i64;
        encode_u64(zigzag(v.wrapping_sub(prev)), &mut col);
        prev = v;
    }
    encode_u64(col.len() as u64, out);
    out.extend_from_slice(&col);
}

/// Decode one column of `n` values, validating against `max` (inclusive).
fn decode_column(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    max: u64,
    name: &str,
) -> Result<Vec<u64>, StoreError> {
    let len = decode_u64(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| StoreError::corrupt(format!("{name} column overruns chunk")))?;
    let out = decode_deltas(&buf[*pos..end], n, max, name)?;
    *pos = end;
    Ok(out)
}

/// Encode a non-empty packet batch into one self-contained chunk.
///
/// # Panics
/// On an empty batch — writers never emit empty chunks.
pub fn encode_chunk(packets: &[SensorPacket]) -> Vec<u8> {
    encode_chunk_with(packets, false)
}

/// [`encode_chunk`] with the scalar column encoder: the test oracle
/// whose bytes the batched encoder must reproduce (same panics).
pub fn encode_chunk_scalar(packets: &[SensorPacket]) -> Vec<u8> {
    encode_chunk_with(packets, true)
}

fn encode_chunk_with(packets: &[SensorPacket], scalar: bool) -> Vec<u8> {
    assert!(!packets.is_empty(), "chunks are never empty");
    let zm = ZoneMap::of(packets);
    let mut out = Vec::with_capacity(packets.len() * 4);
    encode_u64(packets.len() as u64, &mut out);
    encode_u64(zm.min_time, &mut out);
    encode_u64(zm.max_time, &mut out);
    encode_u64(zm.min_victim as u64, &mut out);
    encode_u64(zm.max_victim as u64, &mut out);
    encode_column(packets, |p| p.time, scalar, &mut out);
    encode_column(packets, |p| p.victim.0 as u64, scalar, &mut out);
    encode_column(packets, |p| p.protocol.index() as u64, scalar, &mut out);
    encode_column(packets, |p| p.sensor as u64, scalar, &mut out);
    encode_column(packets, |p| p.ttl as u64, scalar, &mut out);
    encode_column(packets, |p| p.src_port as u64, scalar, &mut out);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The decoded columns of one chunk, before any row is materialized.
///
/// This is the late-materialization surface the query layer scans:
/// predicates are evaluated straight against these vectors, and whole
/// [`SensorPacket`] rows are only built (via [`ChunkColumns::materialize`])
/// for the positions that survive. All six columns have the same length
/// and position `i` across them is one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkColumns {
    /// Packet times (seconds).
    pub times: Vec<u64>,
    /// Victim addresses as raw `u32` keys (see [`VictimAddr`]).
    pub victims: Vec<u32>,
    /// Protocol indices into [`UdpProtocol::ALL`].
    pub protocols: Vec<u8>,
    /// Sensor ids.
    pub sensors: Vec<u32>,
    /// Received TTLs.
    pub ttls: Vec<u8>,
    /// Spoofed source ports.
    pub ports: Vec<u16>,
}

impl ChunkColumns {
    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the chunk holds no rows (never true for a valid chunk —
    /// writers do not emit empty chunks).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Build the full [`SensorPacket`] at position `i`.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn materialize(&self, i: usize) -> SensorPacket {
        SensorPacket {
            time: self.times[i],
            victim: VictimAddr(self.victims[i]),
            protocol: UdpProtocol::ALL[self.protocols[i] as usize],
            sensor: self.sensors[i],
            ttl: self.ttls[i],
            src_port: self.ports[i],
        }
    }
}

/// Decode one chunk produced by [`encode_chunk`] into its six columns
/// without materializing any rows. Pure — safe to fan out over
/// `booters-par` (the store readers and the query engine do exactly
/// that). Performs the full validation chain: CRC, per-column domain
/// checks, and the zone map against the decoded column data.
pub fn decode_chunk_columns(bytes: &[u8]) -> Result<ChunkColumns, StoreError> {
    if bytes.len() < 4 {
        return Err(StoreError::corrupt("chunk shorter than its checksum"));
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    let actual = crc32(payload);
    if stored != actual {
        return Err(StoreError::corrupt(format!(
            "chunk crc mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    booters_obs::counter_add("store.crc_validations", 1);
    let mut pos = 0usize;
    let n = decode_u64(payload, &mut pos)? as usize;
    if n == 0 {
        return Err(StoreError::corrupt("empty chunk"));
    }
    // An adversarial count must not trigger a huge allocation before the
    // columns are parsed: each value needs ≥ 1 byte per column.
    if n > payload.len() {
        return Err(StoreError::corrupt("chunk count exceeds payload size"));
    }
    let declared = ZoneMap {
        min_time: decode_u64(payload, &mut pos)?,
        max_time: decode_u64(payload, &mut pos)?,
        min_victim: decode_u64(payload, &mut pos)? as u32,
        max_victim: decode_u64(payload, &mut pos)? as u32,
    };
    let times = decode_column(payload, &mut pos, n, u64::MAX, "time")?;
    let victims = decode_column(payload, &mut pos, n, u32::MAX as u64, "victim")?;
    let protocols = decode_column(
        payload,
        &mut pos,
        n,
        UdpProtocol::ALL.len() as u64 - 1,
        "protocol",
    )?;
    let sensors = decode_column(payload, &mut pos, n, u32::MAX as u64, "sensor")?;
    let ttls = decode_column(payload, &mut pos, n, u8::MAX as u64, "ttl")?;
    let ports = decode_column(payload, &mut pos, n, u16::MAX as u64, "src_port")?;
    if pos != payload.len() {
        return Err(StoreError::corrupt("chunk has trailing bytes"));
    }
    // The zone map is load-bearing (readers prune on it without decoding),
    // so a mismatch with the decoded data is corruption, not a quirk. It
    // only involves the time and victim columns, so it can be checked
    // before any row exists.
    let mut actual_zone = ZoneMap {
        min_time: u64::MAX,
        max_time: 0,
        min_victim: u32::MAX,
        max_victim: 0,
    };
    for i in 0..n {
        actual_zone.min_time = actual_zone.min_time.min(times[i]);
        actual_zone.max_time = actual_zone.max_time.max(times[i]);
        let v = victims[i] as u32;
        actual_zone.min_victim = actual_zone.min_victim.min(v);
        actual_zone.max_victim = actual_zone.max_victim.max(v);
    }
    if actual_zone != declared {
        return Err(StoreError::corrupt("zone map disagrees with chunk data"));
    }
    booters_obs::counter_add("store.chunks_decoded", 1);
    booters_obs::counter_add("store.packets_decoded", n as u64);
    Ok(ChunkColumns {
        times,
        victims: victims.into_iter().map(|v| v as u32).collect(),
        protocols: protocols.into_iter().map(|v| v as u8).collect(),
        sensors: sensors.into_iter().map(|v| v as u32).collect(),
        ttls: ttls.into_iter().map(|v| v as u8).collect(),
        ports: ports.into_iter().map(|v| v as u16).collect(),
    })
}

/// Decode one chunk produced by [`encode_chunk`]. Pure — safe to fan out
/// over `booters-par` (the store readers do exactly that).
pub fn decode_chunk(bytes: &[u8]) -> Result<Vec<SensorPacket>, StoreError> {
    let cols = decode_chunk_columns(bytes)?;
    Ok((0..cols.len()).map(|i| cols.materialize(i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(time: u64, victim: u32, proto: usize, sensor: u32) -> SensorPacket {
        SensorPacket {
            time,
            sensor,
            victim: VictimAddr(victim),
            protocol: UdpProtocol::ALL[proto],
            ttl: 54,
            src_port: 443,
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let packets = vec![
            pkt(1000, 7, 0, 1),
            pkt(1000, 7, 0, 1), // duplicate row
            pkt(990, u32::MAX, 9, 59), // time going backwards
            pkt(u64::MAX, 0, 5, 0), // extreme jump
        ];
        let bytes = encode_chunk(&packets);
        assert_eq!(decode_chunk(&bytes).unwrap(), packets);
    }

    #[test]
    fn singleton_chunk_round_trips() {
        let packets = vec![pkt(0, 0, 0, 0)];
        assert_eq!(decode_chunk(&encode_chunk(&packets)).unwrap(), packets);
    }

    #[test]
    fn sorted_time_column_compresses_well() {
        let packets: Vec<SensorPacket> =
            (0..1000).map(|i| pkt(1_000_000 + i, 0x1907_0001, 6, (i % 60) as u32)).collect();
        let bytes = encode_chunk(&packets);
        let raw = packets.len() * std::mem::size_of::<SensorPacket>();
        assert!(
            bytes.len() * 3 < raw,
            "encoded {} vs raw {raw} — expected ≥3x compression",
            bytes.len()
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let packets: Vec<SensorPacket> = (0..40).map(|i| pkt(i * 7, i as u32 * 13, (i % 10) as usize, i as u32)).collect();
        let bytes = encode_chunk(&packets);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let res = decode_chunk(&bad);
            assert!(
                matches!(res, Err(StoreError::Corrupt { .. })),
                "flip at byte {i} was not caught: {res:?}"
            );
        }
    }

    #[test]
    fn truncated_chunk_is_an_error() {
        let bytes = encode_chunk(&[pkt(1, 2, 3, 4)]);
        for cut in 0..bytes.len() {
            assert!(
                decode_chunk(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn zone_map_prunes_correctly() {
        let packets = vec![pkt(100, 50, 0, 0), pkt(200, 70, 0, 0)];
        let zm = ZoneMap::of(&packets);
        assert!(zm.overlaps_time(150, 160));
        assert!(zm.overlaps_time(200, 201));
        assert!(!zm.overlaps_time(201, 500));
        assert!(!zm.overlaps_time(0, 100));
        assert!(zm.may_contain_victim(VictimAddr(60)));
        assert!(!zm.may_contain_victim(VictimAddr(71)));
    }
}
