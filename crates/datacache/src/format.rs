//! Low-level binary format primitives: little-endian encoding helpers,
//! dtype codes, and the FNV-1a checksum shared by shards and manifests.

use crate::CacheError;
use dataio::Dtype;
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every shard file ("CANDLE Data Shard v1").
pub const MAGIC: [u8; 4] = *b"CDS1";

/// Format version written into every shard header.
pub const VERSION: u16 = 1;

/// One-byte on-disk codes for [`Dtype`].
pub fn dtype_code(dtype: Dtype) -> u8 {
    match dtype {
        Dtype::Int64 => 0,
        Dtype::Float64 => 1,
        Dtype::Str => 2,
    }
}

/// Inverse of [`dtype_code`].
pub fn dtype_from_code(code: u8) -> Result<Dtype, CacheError> {
    match code {
        0 => Ok(Dtype::Int64),
        1 => Ok(Dtype::Float64),
        2 => Ok(Dtype::Str),
        other => Err(CacheError::Corrupt(format!("unknown dtype code {other}"))),
    }
}

/// FNV-1a 64-bit hash — the shard checksum and manifest source key. Fast,
/// dependency-free, and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Extends an FNV-1a hash with more bytes (for hashing heterogeneous
/// fields without an intermediate buffer).
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Initial value for incremental FNV-1a hashing via [`fnv1a64_extend`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Little-endian append helpers.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Largest single `write` issued by [`write_file`].
const WRITE_PIECE: usize = 64 * 1024;

/// Creates (or truncates) `path` and writes `bytes` to it, at most
/// [`WRITE_PIECE`] per `write` call. Handing the kernel a whole
/// multi-megabyte shard or checkpoint at once lets it build the page cache
/// from its largest folios, which come from high-order free blocks; a VM
/// that reports free blocks of that size back to its host (free page
/// reporting) faults each of those pages in again at the host. Measured on
/// such a VM with ext4: the same four 19 MB shard writes took 0.13 s or
/// 0.45-0.6 s from one cold load to the next at 1 MiB and larger pieces,
/// and a steady 0.12-0.15 s at 256 KiB and below.
pub fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    for piece in bytes.chunks(WRITE_PIECE) {
        file.write_all(piece)?;
    }
    Ok(())
}

/// What a [`ByteReader`] found wrong with its input: a read past the end
/// or a length field the remaining bytes cannot hold. Each format that
/// decodes with the reader turns it into its own `Corrupt` error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed(pub String);

impl From<Malformed> for CacheError {
    fn from(e: Malformed) -> Self {
        CacheError::Corrupt(e.0)
    }
}

/// The one bounds-checked little-endian reader over a byte slice; `CDS1`
/// shards and `resil`'s `RCP1` checkpoints both decode with it.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        if self.remaining() < n {
            return Err(Malformed(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        Ok(self
            .take_bytes(N)?
            .try_into()
            .expect("take_bytes returned N bytes"))
    }

    pub fn take_u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.take_bytes(1)?[0])
    }

    pub fn take_u16(&mut self) -> Result<u16, Malformed> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    pub fn take_u32(&mut self) -> Result<u32, Malformed> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn take_u64(&mut self) -> Result<u64, Malformed> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` count that is about to size an allocation of elements
    /// at least `elem_bytes` long each, rejecting counts the remaining
    /// bytes cannot possibly hold — a garbled length field must fail as
    /// corruption, never as an absurd allocation.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, Malformed> {
        let n = self.take_u64()?;
        self.plausible(n, elem_bytes)
    }

    /// [`ByteReader::count`] for a count stored as `u32`.
    pub fn count_u32(&mut self, elem_bytes: usize) -> Result<usize, Malformed> {
        let n = self.take_u32()?;
        self.plausible(n.into(), elem_bytes)
    }

    fn plausible(&self, n: u64, elem_bytes: usize) -> Result<usize, Malformed> {
        let cap = (self.remaining() / elem_bytes.max(1)) as u64;
        if n > cap {
            return Err(Malformed(format!(
                "implausible count {n} at offset {}: only {} bytes remain",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn fnv_extend_equals_one_shot() {
        let whole = fnv1a64(b"hello world");
        let split = fnv1a64_extend(fnv1a64_extend(FNV_OFFSET, b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn dtype_codes_round_trip() {
        for d in [Dtype::Int64, Dtype::Float64, Dtype::Str] {
            assert_eq!(dtype_from_code(dtype_code(d)).unwrap(), d);
        }
        assert!(dtype_from_code(9).is_err());
    }

    #[test]
    fn reader_round_trips_scalars() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 7);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_truncation() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        assert!(r.take_u64().is_err());
    }

    #[test]
    fn write_file_replaces_the_file_with_exactly_the_bytes() {
        let dir = parx::scratch("datacache_write_file").expect("scratch dir");
        let path = dir.join("blob.bin");
        // Longer than two pieces and not a multiple of one; then a shorter
        // and an empty payload over the same path (truncation).
        let long: Vec<u8> = (0..2 * WRITE_PIECE + 17).map(|i| (i % 251) as u8).collect();
        for payload in [&long[..], &long[..5], &[]] {
            write_file(&path, payload).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), payload);
        }
        assert!(write_file(&dir.join("missing").join("blob.bin"), b"x").is_err());
    }

    #[test]
    fn count_is_bounded_by_the_bytes_that_remain() {
        // 12 bytes follow the count: two 6-byte elements fit, two 7-byte
        // elements do not.
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(ByteReader::new(&buf).count(6), Ok(2));
        let err = ByteReader::new(&buf).count(7).unwrap_err();
        assert!(err.0.contains("implausible count 2"), "{}", err.0);
        // The same rule for a count stored as u32.
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(ByteReader::new(&buf).count_u32(2), Ok(3));
        assert!(ByteReader::new(&buf).count_u32(3).is_err());
    }
}
