//! Store reader: footer-driven random access to chunks, zone-map
//! pruning, and a parallel bulk decode.
//!
//! On-disk file layout:
//!
//! ```text
//! +------------+--------- ... ---------+----------------+-----+------------+------------+
//! | "BSTORE01" | chunk 0 .. chunk k-1  | footer index F | crc | footer_len | "BSEND001" |
//! |  8 bytes   |  (see chunk.rs)       | (varints)      | 4 B | u64 LE 8 B |  8 bytes   |
//! +------------+--------- ... ---------+----------------+-----+------------+------------+
//! ```
//!
//! The footer holds `version, chunk_count, (offset, n, zone map) per
//! chunk, total_packets, raw_bytes`. Every region is validated before
//! use: magic markers, the footer CRC, offset monotonicity, and each
//! chunk's own CRC — corrupt input yields a typed [`StoreError`].

use crate::chunk::{decode_chunk, ZoneMap};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::varint::decode_u64;
use crate::writer::ChunkInfo;
use booters_netsim::SensorPacket;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Leading file magic.
pub const HEAD_MAGIC: &[u8; 8] = b"BSTORE01";
/// Trailing file magic.
pub const TAIL_MAGIC: &[u8; 8] = b"BSEND001";
/// Footer format version this build writes and reads.
pub const FOOTER_VERSION: u64 = 1;

/// A validated, open store file.
#[derive(Debug)]
pub struct ChunkReader {
    file: File,
    index: Vec<ChunkInfo>,
    chunks_end: u64,
    total_packets: u64,
    raw_bytes: u64,
}

impl ChunkReader {
    /// Open and validate a store file (magics, footer CRC, offsets).
    pub fn open(path: impl AsRef<Path>) -> Result<ChunkReader, StoreError> {
        let mut file = File::open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        let min_len = (HEAD_MAGIC.len() + 4 + 8 + TAIL_MAGIC.len()) as u64;
        if file_len < min_len {
            return Err(StoreError::corrupt("file shorter than the fixed framing"));
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != HEAD_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut tail = [0u8; 16];
        file.seek(SeekFrom::End(-16))?;
        file.read_exact(&mut tail)?;
        if &tail[8..] != TAIL_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let footer_len = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        let footer_start = file_len
            .checked_sub(16 + 4)
            .and_then(|v| v.checked_sub(footer_len))
            .filter(|&s| s >= HEAD_MAGIC.len() as u64)
            .ok_or_else(|| StoreError::corrupt("footer length exceeds file"))?;
        let mut footer = vec![0u8; footer_len as usize + 4];
        file.seek(SeekFrom::Start(footer_start))?;
        file.read_exact(&mut footer)?;
        let crc_bytes: [u8; 4] = footer[footer_len as usize..].try_into().expect("4 bytes");
        let footer = &footer[..footer_len as usize];
        if u32::from_le_bytes(crc_bytes) != crc32(footer) {
            return Err(StoreError::corrupt("footer crc mismatch"));
        }

        let mut pos = 0usize;
        let version = decode_u64(footer, &mut pos)?;
        if version != FOOTER_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let chunk_count = decode_u64(footer, &mut pos)? as usize;
        // Each index entry takes at least 6 varint bytes; reject counts
        // the footer cannot possibly hold before allocating.
        if chunk_count > footer.len() {
            return Err(StoreError::corrupt("chunk count exceeds footer size"));
        }
        let mut index = Vec::with_capacity(chunk_count);
        let mut prev_offset = 0u64;
        for i in 0..chunk_count {
            let offset = decode_u64(footer, &mut pos)?;
            let packets = decode_u64(footer, &mut pos)?;
            let zone = ZoneMap {
                min_time: decode_u64(footer, &mut pos)?,
                max_time: decode_u64(footer, &mut pos)?,
                min_victim: decode_u64(footer, &mut pos)? as u32,
                max_victim: decode_u64(footer, &mut pos)? as u32,
            };
            let lower = if i == 0 { HEAD_MAGIC.len() as u64 } else { prev_offset + 1 };
            if offset < lower || offset >= footer_start {
                return Err(StoreError::corrupt(format!("chunk {i} offset out of order")));
            }
            prev_offset = offset;
            index.push(ChunkInfo { offset, packets, zone });
        }
        let total_packets = decode_u64(footer, &mut pos)?;
        let raw_bytes = decode_u64(footer, &mut pos)?;
        if pos != footer.len() {
            return Err(StoreError::corrupt("footer has trailing bytes"));
        }
        if total_packets != index.iter().map(|c| c.packets).sum::<u64>() {
            return Err(StoreError::corrupt("footer packet total disagrees with index"));
        }
        Ok(ChunkReader {
            file,
            index,
            chunks_end: footer_start,
            total_packets,
            raw_bytes,
        })
    }

    /// Number of chunks in the store.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Total packets across all chunks.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// In-memory bytes the stored packets would occupy (`n × 24`).
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// The footer index (offsets + zone maps).
    pub fn index(&self) -> &[ChunkInfo] {
        &self.index
    }

    /// Byte extent `(offset, len)` of chunk `i` within the file (footer
    /// metadata only, no I/O).
    pub fn chunk_extent(&self, i: usize) -> Result<(u64, u64), StoreError> {
        let info = self
            .index
            .get(i)
            .ok_or_else(|| StoreError::corrupt(format!("chunk {i} out of range")))?;
        let end = self
            .index
            .get(i + 1)
            .map(|next| next.offset)
            .unwrap_or(self.chunks_end);
        let len = end
            .checked_sub(info.offset)
            .ok_or_else(|| StoreError::corrupt("negative chunk extent"))?;
        Ok((info.offset, len))
    }

    /// Read one chunk's raw bytes (I/O only; pair with
    /// [`decode_chunk`] to fan the CPU work out over `booters-par`).
    pub fn raw_chunk(&mut self, i: usize) -> Result<Vec<u8>, StoreError> {
        let (offset, len) = self.chunk_extent(i)?;
        let mut bytes = vec![0u8; len as usize];
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    /// Read the raw bytes of as many whole, contiguous chunks starting at
    /// `first` as fit in `max_bytes` — always at least one, so a single
    /// oversized chunk still batches alone. One `seek` + one large
    /// `read_exact` replaces per-chunk round trips; the spill-merge run
    /// cursors use this to amortise I/O across chunk boundaries.
    ///
    /// Returns `(bytes, base_offset, end_chunk)`: `bytes` covers chunks
    /// `first..end_chunk` and chunk `j`'s record is
    /// `bytes[extent_j.0 - base_offset ..][.. extent_j.1]`.
    pub fn raw_chunk_batch(
        &mut self,
        first: usize,
        max_bytes: u64,
    ) -> Result<(Vec<u8>, u64, usize), StoreError> {
        let (base, first_len) = self.chunk_extent(first)?;
        let mut end_offset = base + first_len;
        let mut end_chunk = first + 1;
        while end_chunk < self.index.len() {
            let (off, len) = self.chunk_extent(end_chunk)?;
            debug_assert_eq!(off, end_offset, "chunks are contiguous");
            if off + len - base > max_bytes {
                break;
            }
            end_offset = off + len;
            end_chunk += 1;
        }
        let mut bytes = vec![0u8; (end_offset - base) as usize];
        self.file.seek(SeekFrom::Start(base))?;
        self.file.read_exact(&mut bytes)?;
        Ok((bytes, base, end_chunk))
    }

    /// The zone map of chunk `i`, or `None` past the end of the index.
    ///
    /// Zone maps are the scan-pruning metadata: per-chunk min/max packet
    /// time and min/max victim key, written by the ingest path and kept
    /// in the footer so a reader can decide — without any chunk I/O —
    /// that a chunk cannot contain a row matching a time or victim
    /// predicate. The query layer (`booters-query`) plans on them.
    pub fn zone(&self, i: usize) -> Option<&ZoneMap> {
        self.index.get(i).map(|c| &c.zone)
    }

    /// Selectively decode the chunks named by `indices` (for example a
    /// zone-map-pruned plan): raw bytes are read sequentially (I/O),
    /// then decoded on the `booters-par` executor, one chunk per work
    /// item. The output preserves `indices` order — element `j` is the
    /// decoded chunk `indices[j]` — results merge in submission order
    /// and the earliest failing chunk's error wins, so output and errors
    /// are identical at every `BOOTERS_THREADS` setting.
    fn read_chunks(&mut self, indices: &[usize]) -> Result<Vec<Vec<SensorPacket>>, StoreError> {
        let raw: Vec<Vec<u8>> = indices
            .iter()
            .map(|&i| self.raw_chunk(i))
            .collect::<Result<_, _>>()?;
        // One item per chunk: whole-chunk decodes are heavy enough that
        // even a handful justify workers.
        booters_par::par_map(&raw, |bytes| decode_chunk(bytes))
            .into_iter()
            .collect()
    }

    /// Decode the whole store, one chunk per `booters-par` work item,
    /// flattened in store order.
    pub fn read_all(&mut self) -> Result<Vec<SensorPacket>, StoreError> {
        let all: Vec<usize> = (0..self.chunk_count()).collect();
        let decoded = self.read_chunks(&all)?;
        let mut out = Vec::with_capacity(self.total_packets as usize);
        for chunk in decoded {
            out.extend(chunk);
        }
        Ok(out)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ChunkWriter;
    use booters_netsim::{UdpProtocol, VictimAddr};

    fn pkt(time: u64, victim: u32) -> SensorPacket {
        SensorPacket {
            time,
            sensor: 3,
            victim: VictimAddr(victim),
            protocol: UdpProtocol::Ntp,
            ttl: 54,
            src_port: 80,
        }
    }

    fn write_store(name: &str, packets: &[SensorPacket], cap: usize) -> std::path::PathBuf {
        let path = crate::test_path(name);
        let mut w = ChunkWriter::with_capacity(&path, cap).unwrap();
        w.push_all(packets).unwrap();
        w.finish().unwrap();
        path
    }

    #[test]
    fn written_store_reads_back_identically() {
        let packets: Vec<SensorPacket> = (0..777u64).map(|i| pkt(i * 3, (i % 50) as u32)).collect();
        let path = write_store("reader_roundtrip", &packets, 64);
        let mut r = ChunkReader::open(&path).unwrap();
        assert_eq!(r.chunk_count(), 777usize.div_ceil(64));
        assert_eq!(r.total_packets(), 777);
        assert_eq!(r.read_all().unwrap(), packets);
        // Per-chunk access agrees with bulk decode.
        assert_eq!(decode_chunk(&r.raw_chunk(0).unwrap()).unwrap(), packets[..64]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_all_is_thread_count_invariant() {
        let packets: Vec<SensorPacket> = (0..500u64).map(|i| pkt(i, i as u32)).collect();
        let path = write_store("reader_threads", &packets, 32);
        let baseline = booters_par::with_threads(1, || {
            ChunkReader::open(&path).unwrap().read_all().unwrap()
        });
        for t in [2usize, 4, 8] {
            let got = booters_par::with_threads(t, || {
                ChunkReader::open(&path).unwrap().read_all().unwrap()
            });
            assert_eq!(got, baseline, "threads={t}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn raw_chunk_batch_covers_whole_chunks_and_matches_per_chunk_reads() {
        let packets: Vec<SensorPacket> = (0..600u64).map(|i| pkt(i * 2, (i % 30) as u32)).collect();
        let path = write_store("reader_batch", &packets, 64);
        let mut r = ChunkReader::open(&path).unwrap();
        let n = r.chunk_count();
        // Budget 0 still yields exactly one chunk per batch.
        let (bytes, base, end) = r.raw_chunk_batch(0, 0).unwrap();
        assert_eq!(end, 1);
        assert_eq!(bytes, r.raw_chunk(0).unwrap());
        assert_eq!(base, r.chunk_extent(0).unwrap().0);
        // A huge budget grabs every remaining chunk in one read.
        let (bytes, base, end) = r.raw_chunk_batch(0, u64::MAX).unwrap();
        assert_eq!(end, n);
        for i in 0..n {
            let (off, len) = r.chunk_extent(i).unwrap();
            let slice = &bytes[(off - base) as usize..][..len as usize];
            assert_eq!(slice, r.raw_chunk(i).unwrap(), "chunk {i}");
        }
        // Walking batch-by-batch at a mid-size budget visits every chunk
        // exactly once, in order.
        let (_, first_len) = r.chunk_extent(0).unwrap();
        let mut cursor = 0usize;
        let mut visited = 0usize;
        while cursor < n {
            let (_, _, end) = r.raw_chunk_batch(cursor, 3 * first_len).unwrap();
            assert!(end > cursor);
            visited += end - cursor;
            cursor = end;
        }
        assert_eq!(visited, n);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zone_maps_prune_time_and_victim_scans() {
        // Chunk 0: times 0..99, victims 0..9; chunk 1: times 1000..1099,
        // victims 100..109.
        let mut packets: Vec<SensorPacket> = (0..100u64).map(|i| pkt(i, (i % 10) as u32)).collect();
        packets.extend((0..100u64).map(|i| pkt(1000 + i, 100 + (i % 10) as u32)));
        let path = write_store("reader_prune", &packets, 100);
        let r = ChunkReader::open(&path).unwrap();
        let chunks_where = |keep: &dyn Fn(&ZoneMap) -> bool| -> Vec<usize> {
            (0..r.chunk_count()).filter(|&i| keep(r.zone(i).unwrap())).collect()
        };
        assert_eq!(chunks_where(&|z| z.overlaps_time(0, 100)), vec![0]);
        assert_eq!(chunks_where(&|z| z.overlaps_time(1050, 1060)), vec![1]);
        assert_eq!(chunks_where(&|z| z.overlaps_time(0, 2000)), vec![0, 1]);
        assert!(chunks_where(&|z| z.overlaps_time(200, 900)).is_empty());
        assert_eq!(chunks_where(&|z| z.may_contain_victim(VictimAddr(5))), vec![0]);
        assert_eq!(chunks_where(&|z| z.may_contain_victim(VictimAddr(105))), vec![1]);
        assert!(chunks_where(&|z| z.may_contain_victim(VictimAddr(50))).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn selective_read_chunks_matches_per_chunk_reads() {
        let packets: Vec<SensorPacket> = (0..640u64).map(|i| pkt(i * 5, (i % 40) as u32)).collect();
        let path = write_store("reader_selective", &packets, 64);
        let mut r = ChunkReader::open(&path).unwrap();
        assert_eq!(r.chunk_count(), 10);
        // An arbitrary, non-contiguous plan decodes exactly the named
        // chunks, in plan order.
        let plan = [7usize, 0, 3];
        let got = r.read_chunks(&plan).unwrap();
        assert_eq!(got.len(), plan.len());
        for (j, &i) in plan.iter().enumerate() {
            assert_eq!(got[j], decode_chunk(&r.raw_chunk(i).unwrap()).unwrap(), "chunk {i}");
        }
        // The empty plan decodes nothing and is not an error.
        assert!(r.read_chunks(&[]).unwrap().is_empty());
        // Out-of-range indices surface as typed corruption errors.
        assert!(r.read_chunks(&[99]).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zone_accessors_expose_footer_metadata() {
        let mut packets: Vec<SensorPacket> = (0..100u64).map(|i| pkt(i, (i % 10) as u32)).collect();
        packets.extend((0..100u64).map(|i| pkt(1000 + i, 100 + (i % 10) as u32)));
        let path = write_store("reader_zones", &packets, 100);
        let r = ChunkReader::open(&path).unwrap();
        let z0 = r.zone(0).unwrap();
        assert_eq!((z0.min_time, z0.max_time), (0, 99));
        assert_eq!((z0.min_victim, z0.max_victim), (0, 9));
        let z1 = r.zone(1).unwrap();
        assert_eq!((z1.min_time, z1.max_time), (1000, 1099));
        assert!(r.zone(2).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn not_a_store_file_is_bad_magic() {
        let path = crate::test_path("reader_badmagic");
        std::fs::write(&path, b"definitely not a store file, but long enough").unwrap();
        assert!(matches!(ChunkReader::open(&path), Err(StoreError::BadMagic)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_file_is_corrupt_not_panic() {
        let path = crate::test_path("reader_short");
        std::fs::write(&path, b"BS").unwrap();
        assert!(matches!(
            ChunkReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
