//! Low-level binary format primitives: little-endian encoding helpers,
//! dtype codes, the XXH64 checksum that seals every shard and checkpoint,
//! and the FNV-1a fold that short keys and fingerprints are hashed with.

use crate::CacheError;
use dataio::Dtype;
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every shard file ("CANDLE Data Shard"; revisions
/// of the format are told apart by [`VERSION`], not by the magic).
pub const MAGIC: [u8; 4] = *b"CDS1";

/// Format version written into every shard header. Version 1 sealed the
/// same layout with FNV-1a-64; this build reads version 2 only.
pub const VERSION: u16 = 2;

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

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh_round(0, acc))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// XXH64 (seed 0) of `bytes` — the checksum sealing every CDS shard and
/// RCP checkpoint. Four independent lanes consume 32-byte stripes, so the
/// hash runs at about memory speed where FNV-1a's one multiply per byte on
/// a single dependency chain ran at ~1 GB/s; it is the published
/// algorithm, so a stored checksum can be checked by any implementation.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut acc = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (lane, word) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = acc;
        let hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        acc.iter().fold(hash, |h, &lane| xxh_merge(h, lane))
    } else {
        PRIME64_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        hash ^= xxh_round(0, le_u64(word));
        hash = hash
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        hash ^= u64::from(half).wrapping_mul(PRIME64_1);
        hash = hash
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        hash ^= u64::from(b).wrapping_mul(PRIME64_5);
        hash = hash.rotate_left(11).wrapping_mul(PRIME64_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^ (hash >> 32)
}

/// Extends an FNV-1a 64 hash with more bytes — the fold for short keys and
/// fingerprints (cache source keys, parameter and stream fingerprints),
/// whose values are compared across runs. Start from [`FNV_OFFSET`]. Bulk
/// data is checksummed with [`xxh64`] instead.
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

/// Appends `values` as little-endian `N`-byte words: the buffer grows once
/// and the slice is laid down in one pass (a plain copy on a little-endian
/// host), not one bounds-checked append per value. Shard columns and
/// checkpoint vectors both go to disk through it.
pub fn put_words<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    let at = buf.len();
    buf.resize(at + values.len() * N, 0);
    for (word, &x) in buf[at..].chunks_exact_mut(N).zip(values) {
        word.copy_from_slice(&to_le(x));
    }
}

/// Seals an encoded shard or checkpoint: appends the [`xxh64`] of every
/// byte in `buf` as a trailing `u64`.
pub fn seal(buf: &mut Vec<u8>) {
    let checksum = xxh64(buf);
    put_u64(buf, checksum);
}

/// The trailing checksum of a sealed buffer, as stored (not verified);
/// `None` when there are not even eight bytes.
pub fn sealed_checksum(bytes: &[u8]) -> Option<u64> {
    let at = bytes.len().checked_sub(8)?;
    Some(u64::from_le_bytes(bytes[at..].try_into().expect("8 bytes")))
}

/// Why [`unseal`] refused a buffer before reading any field past its
/// version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsealed {
    /// Shorter than magic + version + checksum.
    TooShort(usize),
    BadMagic([u8; 4]),
    /// A version field other than the one this build reads.
    Version {
        found: u16,
        supported: u16,
    },
    Checksum {
        stored: u64,
        computed: u64,
    },
}

impl Unsealed {
    /// The refusal as a message about a `what` ("shard", "checkpoint").
    pub fn message(&self, what: &str) -> String {
        match *self {
            Unsealed::TooShort(n) => format!("{what} too short: {n} bytes"),
            Unsealed::BadMagic(m) => format!("bad magic {m:?}"),
            Unsealed::Version { found, supported } => {
                format!("unsupported {what} version {found} (this build reads {supported})")
            }
            Unsealed::Checksum { stored, computed } => {
                format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
        }
    }
}

/// Opens a sealed buffer — `magic [u8; 4] | version u16 | fields | xxh64
/// u64` — and returns a reader over the fields. Magic and version are
/// checked before the checksum, so a file of another format revision is
/// named for what it is instead of failing as a checksum mismatch; the
/// checksum is checked before any field is read.
pub fn unseal(bytes: &[u8], magic: [u8; 4], version: u16) -> Result<ByteReader<'_>, Unsealed> {
    if bytes.len() < magic.len() + 2 + 8 {
        return Err(Unsealed::TooShort(bytes.len()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut r = ByteReader::new(body);
    let found_magic = r.take_array().expect("length checked above");
    if found_magic != magic {
        return Err(Unsealed::BadMagic(found_magic));
    }
    let found = r.take_u16().expect("length checked above");
    if found != version {
        return Err(Unsealed::Version {
            found,
            supported: version,
        });
    }
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let computed = xxh64(body);
    if stored != computed {
        return Err(Unsealed::Checksum { stored, computed });
    }
    Ok(r)
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

    /// Reads `n` little-endian `N`-byte words, the inverse of
    /// [`put_words`]: one bounds check for the whole run, then a pass over
    /// the slice.
    pub fn take_words<T, const N: usize>(
        &mut self,
        n: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, Malformed> {
        let len = n
            .checked_mul(N)
            .ok_or_else(|| Malformed(format!("implausible count {n} of {N}-byte words")))?;
        Ok(self
            .take_bytes(len)?
            .chunks_exact(N)
            .map(|word| from_le(word.try_into().expect("chunks_exact(N)")))
            .collect())
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
        // Standard FNV-1a 64 test vectors, folded from the offset basis.
        assert_eq!(fnv1a64_extend(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64_extend(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64_extend(FNV_OFFSET, b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn fnv_extend_equals_one_shot() {
        let whole = fnv1a64_extend(FNV_OFFSET, b"hello world");
        let split = fnv1a64_extend(fnv1a64_extend(FNV_OFFSET, b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn xxh64_matches_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, then a 4-byte and three 1-byte
        // tail steps.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// Every single-bit flip of every input of length 0..=100 moves the
    /// hash: lengths cover no stripe, one to three stripes, and every mix
    /// of the 8-, 4- and 1-byte tails.
    #[test]
    fn xxh64_sees_every_single_bit_flip() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            let base = xxh64(input);
            let mut flipped = input.to_vec();
            for pos in 0..len {
                for bit in 0..8 {
                    flipped[pos] ^= 1 << bit;
                    assert_ne!(xxh64(&flipped), base, "len {len}, byte {pos}, bit {bit}");
                    flipped[pos] ^= 1 << bit;
                }
            }
            // The length is part of the hash: a zero byte appended is seen.
            let mut longer = input.to_vec();
            longer.push(0);
            assert_ne!(xxh64(&longer), base, "len {len} extended by a zero byte");
        }
    }

    /// Each way `unseal` refuses a buffer, by kind. (Version before
    /// checksum is pinned by the CDS and RCP version-1 tests.)
    #[test]
    fn sealed_buffers_round_trip_and_are_refused_by_kind() {
        let mut buf = b"TEST".to_vec();
        put_u16(&mut buf, 2);
        put_u32(&mut buf, 0xABCD);
        seal(&mut buf);
        assert_eq!(sealed_checksum(&buf), Some(xxh64(&buf[..buf.len() - 8])));
        let mut r = unseal(&buf, *b"TEST", 2).unwrap();
        assert_eq!(r.take_u32(), Ok(0xABCD));
        assert_eq!(r.remaining(), 0);

        assert_eq!(
            unseal(&buf, *b"TEST", 3).err(),
            Some(Unsealed::Version {
                found: 2,
                supported: 3
            })
        );
        assert_eq!(
            unseal(&buf, *b"TSET", 2).err(),
            Some(Unsealed::BadMagic(*b"TEST"))
        );
        let mut rotted = buf.clone();
        rotted[7] ^= 1;
        assert!(matches!(
            unseal(&rotted, *b"TEST", 2),
            Err(Unsealed::Checksum { .. })
        ));
        assert_eq!(
            unseal(&buf[..13], *b"TEST", 2).err(),
            Some(Unsealed::TooShort(13))
        );
        assert_eq!(sealed_checksum(&buf[..7]), None);
    }

    #[test]
    fn words_round_trip_at_both_widths() {
        let mut buf = Vec::new();
        put_words(&mut buf, &[-1i64, i64::MIN, 7], i64::to_le_bytes);
        put_words(&mut buf, &[-0.0f32, f32::NAN, 1.5], f32::to_le_bytes);
        assert_eq!(buf.len(), 3 * 8 + 3 * 4);
        assert_eq!(&buf[..8], &(-1i64).to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert_eq!(
            r.take_words(3, i64::from_le_bytes).unwrap(),
            [-1, i64::MIN, 7]
        );
        let floats: Vec<u32> = r
            .take_words(3, f32::from_le_bytes)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(
            floats,
            [(-0.0f32).to_bits(), f32::NAN.to_bits(), 1.5f32.to_bits()]
        );
        assert!(r.take_words(1, f32::from_le_bytes).is_err());
        assert!(ByteReader::new(&buf)
            .take_words(usize::MAX, i64::from_le_bytes)
            .is_err());
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
