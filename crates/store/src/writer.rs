//! Streaming store writer.
//!
//! [`ChunkWriter`] buffers packets up to the chunk capacity, encodes each
//! full chunk with the columnar codec and appends it to the file, then
//! seals the store with a CRC-protected footer index on
//! [`ChunkWriter::finish`].

use crate::chunk::{encode_chunk, ZoneMap, DEFAULT_CHUNK_CAPACITY};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::reader::{FOOTER_VERSION, HEAD_MAGIC, TAIL_MAGIC};
use crate::varint::encode_u64;
use booters_netsim::SensorPacket;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// In-memory size of one packet record — the "raw" side of the
/// compression ratio and the unit of the spill budget.
pub const PACKET_BYTES: usize = std::mem::size_of::<SensorPacket>();

/// Footer entry for one chunk (also used by the reader).
#[derive(Debug, Clone, Copy)]
pub struct ChunkInfo {
    /// Byte offset of the chunk in the file.
    pub offset: u64,
    /// Packets in the chunk.
    pub packets: u64,
    /// The chunk's zone map.
    pub zone: ZoneMap,
}

/// Summary of a finished store file.
#[derive(Debug, Clone, Copy)]
pub struct StoreMeta {
    /// Total packets written.
    pub packets: u64,
    /// Number of chunks.
    pub chunks: usize,
    /// Final file size in bytes (chunks + framing + footer).
    pub file_bytes: u64,
    /// `packets × size_of::<SensorPacket>()` — the in-memory footprint
    /// the encoding replaced.
    pub raw_bytes: u64,
}

impl StoreMeta {
    /// Raw bytes per stored byte (> 1 means the columnar encoding wins).
    pub fn compression_ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.file_bytes as f64
    }
}

/// Streaming, chunking store writer.
#[derive(Debug)]
pub struct ChunkWriter {
    file: BufWriter<File>,
    path: PathBuf,
    offset: u64,
    buf: Vec<SensorPacket>,
    chunk_capacity: usize,
    index: Vec<ChunkInfo>,
    packets: u64,
}

impl ChunkWriter {
    /// Create (truncate) a store file with the default chunk capacity.
    pub fn create(path: impl AsRef<Path>) -> Result<ChunkWriter, StoreError> {
        ChunkWriter::with_capacity(path, DEFAULT_CHUNK_CAPACITY)
    }

    /// Create a store file cutting chunks every `chunk_capacity` packets.
    pub fn with_capacity(
        path: impl AsRef<Path>,
        chunk_capacity: usize,
    ) -> Result<ChunkWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = BufWriter::new(File::create(&path)?);
        file.write_all(HEAD_MAGIC)?;
        Ok(ChunkWriter {
            file,
            path,
            offset: HEAD_MAGIC.len() as u64,
            buf: Vec::new(),
            chunk_capacity: chunk_capacity.max(1),
            index: Vec::new(),
            packets: 0,
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Packets accepted so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Append one packet, cutting a chunk when the buffer fills.
    pub fn push(&mut self, p: &SensorPacket) -> Result<(), StoreError> {
        self.buf.push(*p);
        self.packets += 1;
        if self.buf.len() >= self.chunk_capacity {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Append a batch of packets. Chunks are cut at exactly the same
    /// boundaries as the per-packet [`ChunkWriter::push`] path — the
    /// batch just replaces per-packet calls with slice copies up to each
    /// boundary.
    pub fn push_all(&mut self, packets: &[SensorPacket]) -> Result<(), StoreError> {
        let mut rest = packets;
        while !rest.is_empty() {
            let room = self.chunk_capacity - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            self.packets += take as u64;
            rest = &rest[take..];
            if self.buf.len() >= self.chunk_capacity {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let bytes = encode_chunk(&self.buf);
        self.file.write_all(&bytes)?;
        booters_obs::counter_add("store.chunks_written", 1);
        booters_obs::counter_add("store.bytes_written", bytes.len() as u64);
        self.index.push(ChunkInfo {
            offset: self.offset,
            packets: self.buf.len() as u64,
            zone: ZoneMap::of(&self.buf),
        });
        self.offset += bytes.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flush the final partial chunk, write the footer index, and seal
    /// the file. Returns the store summary.
    pub fn finish(mut self) -> Result<StoreMeta, StoreError> {
        self.flush_chunk()?;
        let mut footer = Vec::new();
        encode_u64(FOOTER_VERSION, &mut footer);
        encode_u64(self.index.len() as u64, &mut footer);
        for info in &self.index {
            encode_u64(info.offset, &mut footer);
            encode_u64(info.packets, &mut footer);
            encode_u64(info.zone.min_time, &mut footer);
            encode_u64(info.zone.max_time, &mut footer);
            encode_u64(info.zone.min_victim as u64, &mut footer);
            encode_u64(info.zone.max_victim as u64, &mut footer);
        }
        encode_u64(self.packets, &mut footer);
        encode_u64(self.packets * PACKET_BYTES as u64, &mut footer);
        self.file.write_all(&footer)?;
        self.file.write_all(&crc32(&footer).to_le_bytes())?;
        self.file.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.file.write_all(TAIL_MAGIC)?;
        self.file.flush()?;
        let file_bytes = self.offset + footer.len() as u64 + 4 + 8 + TAIL_MAGIC.len() as u64;
        Ok(StoreMeta {
            packets: self.packets,
            chunks: self.index.len(),
            file_bytes,
            raw_bytes: self.packets * PACKET_BYTES as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_netsim::{UdpProtocol, VictimAddr};

    fn pkt(i: u64) -> SensorPacket {
        SensorPacket {
            time: i,
            sensor: (i % 60) as u32,
            victim: VictimAddr(0x1900_0000 + (i % 8) as u32),
            protocol: UdpProtocol::ALL[(i % 10) as usize],
            ttl: 54,
            src_port: 80,
        }
    }

    #[test]
    fn writer_cuts_chunks_at_capacity_and_compresses() {
        let path = crate::test_path("writer_chunks");
        let mut w = ChunkWriter::with_capacity(&path, 100).unwrap();
        for i in 0..1050u64 {
            w.push(&pkt(i)).unwrap();
        }
        let meta = w.finish().unwrap();
        assert_eq!(meta.packets, 1050);
        assert_eq!(meta.chunks, 11); // 10 full + 1 partial
        assert_eq!(meta.raw_bytes, 1050 * PACKET_BYTES as u64);
        assert!(meta.compression_ratio() > 2.0, "ratio={}", meta.compression_ratio());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_store_is_valid() {
        let path = crate::test_path("writer_empty");
        let meta = ChunkWriter::create(&path).unwrap().finish().unwrap();
        assert_eq!(meta.packets, 0);
        assert_eq!(meta.chunks, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
