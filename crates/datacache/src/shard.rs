//! Shard encoding: one contiguous row range of a [`Frame`], column-major,
//! with a self-describing header and a trailing checksum.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      [u8; 4]   "CDS1"
//! version    u16       2
//! shard_idx  u32
//! start_row  u64       row offset of this shard in the source frame
//! nrows      u64       rows stored in this shard
//! ncols      u32
//! dtypes     [u8]      ncols one-byte dtype codes
//! columns    ...       per column, all nrows values:
//!                        Int64   -> i64 raw
//!                        Float64 -> f64 bit pattern (bit-exact)
//!                        Str     -> u32 byte length + UTF-8 bytes
//! checksum   u64       XXH64 (seed 0) over every preceding byte
//! ```
//!
//! Version 1 was this layout sealed with FNV-1a-64; it is rejected by
//! version, never read.

use crate::format::{
    dtype_code, dtype_from_code, put_u16, put_u32, put_u64, put_words, seal, unseal, MAGIC, VERSION,
};
use crate::CacheError;
use dataio::{Column, Dtype, Frame};

/// Magic, version, shard index, start row, row count, column count.
const HEADER_LEN: usize = 4 + 2 + 4 + 8 + 8 + 4;

/// A decoded shard: its identity within the source frame plus the rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedShard {
    /// Index of this shard in the manifest's shard list.
    pub index: u32,
    /// Row offset of the shard's first row in the source frame.
    pub start_row: usize,
    /// The shard's rows as a frame (same column dtypes as the source).
    pub frame: Frame,
}

/// Encodes rows `[start, end)` of `frame` as shard number `index`.
///
/// # Panics
/// Panics if the row range is out of bounds or reversed.
pub fn encode_shard(frame: &Frame, index: u32, start: usize, end: usize) -> Vec<u8> {
    assert!(start <= end && end <= frame.nrows(), "bad shard row range");
    let nrows = end - start;
    // The exact length, so the buffer is allocated once and never grown:
    // header, one dtype code per column, the columns, the checksum.
    let columns: usize = frame
        .columns()
        .iter()
        .map(|col| match col {
            Column::Int64(_) | Column::Float64(_) => nrows * 8,
            Column::Str(v) => v[start..end].iter().map(|s| 4 + s.len()).sum(),
        })
        .sum();
    let mut buf = Vec::with_capacity(HEADER_LEN + frame.ncols() + columns + 8);
    buf.extend_from_slice(&MAGIC);
    put_u16(&mut buf, VERSION);
    put_u32(&mut buf, index);
    put_u64(&mut buf, start as u64);
    put_u64(&mut buf, nrows as u64);
    put_u32(&mut buf, frame.ncols() as u32);
    for col in frame.columns() {
        buf.push(dtype_code(col.dtype()));
    }
    for col in frame.columns() {
        match col {
            Column::Int64(v) => put_words(&mut buf, &v[start..end], i64::to_le_bytes),
            // Bit-exact: NaN payloads and signed zeros survive the round trip.
            Column::Float64(v) => put_words(&mut buf, &v[start..end], f64::to_le_bytes),
            Column::Str(v) => {
                for s in &v[start..end] {
                    put_u32(&mut buf, s.len() as u32);
                    buf.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    seal(&mut buf);
    buf
}

/// Decodes and validates one shard: magic and version, then the trailing
/// checksum, then structural bounds all have to hold.
pub fn decode_shard(bytes: &[u8]) -> Result<DecodedShard, CacheError> {
    let mut r =
        unseal(bytes, MAGIC, VERSION).map_err(|e| CacheError::Corrupt(e.message("shard")))?;
    let index = r.take_u32()?;
    let start_row = r.take_u64()? as usize;
    // Both counts size allocations below, so each is checked against the
    // bytes that remain: every column stores at least 4 bytes per row (a
    // string's length prefix) and a shard with rows has a column, and every
    // column has a one-byte dtype code. (A string's own length needs no
    // such check: `take_bytes` bounds it before anything is allocated.)
    let nrows = r.count(4)?;
    let ncols = r.count_u32(1)?;

    let mut dtypes = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        dtypes.push(dtype_from_code(r.take_u8()?)?);
    }

    let mut columns = Vec::with_capacity(ncols);
    for dtype in dtypes {
        let col = match dtype {
            Dtype::Int64 => Column::Int64(r.take_words(nrows, i64::from_le_bytes)?),
            Dtype::Float64 => Column::Float64(r.take_words(nrows, f64::from_le_bytes)?),
            Dtype::Str => {
                let mut v = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let len = r.take_u32()? as usize;
                    let raw = r.take_bytes(len)?;
                    let s = std::str::from_utf8(raw)
                        .map_err(|_| CacheError::Corrupt("non-UTF8 string cell".into()))?;
                    v.push(s.to_string());
                }
                Column::Str(v)
            }
        };
        columns.push(col);
    }
    if r.remaining() != 0 {
        return Err(CacheError::Corrupt(format!(
            "{} trailing bytes after column data",
            r.remaining()
        )));
    }
    let frame = Frame::new(columns)
        .map_err(|e| CacheError::Corrupt(format!("decoded columns invalid: {e}")))?;
    if frame.nrows() != nrows {
        return Err(CacheError::Corrupt(format!(
            "header says {nrows} rows, columns hold {}",
            frame.nrows()
        )));
    }
    Ok(DecodedShard {
        index,
        start_row,
        frame,
    })
}

/// Splits `nrows` into `nshards` contiguous `(start, end)` ranges whose
/// sizes differ by at most one row. Fewer shards come back when there are
/// fewer rows than requested shards (empty shards are never produced,
/// except a single empty shard for an empty frame).
pub fn shard_ranges(nrows: usize, nshards: usize) -> Vec<(usize, usize)> {
    let k = nshards.max(1).min(nrows.max(1));
    let base = nrows / k;
    let extra = nrows % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{fnv1a64_extend, xxh64, FNV_OFFSET};
    use xrng::RandomSource;

    fn mixed_frame(rows: usize, seed: u64) -> Frame {
        let mut rng = xrng::seeded(seed);
        let ints = Column::Int64((0..rows).map(|_| rng.next_u64() as i64).collect());
        let floats = Column::Float64(
            (0..rows)
                .map(|i| {
                    // Include the awkward bit patterns on purpose.
                    match i % 5 {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => f64::INFINITY,
                        _ => rng.next_f32() as f64 * 1e9 - 5e8,
                    }
                })
                .collect(),
        );
        let strs = Column::Str(
            (0..rows)
                .map(|i| format!("cell-{}-{}", i, rng.next_below(1000)))
                .collect(),
        );
        Frame::new(vec![ints, floats, strs]).unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let frame = mixed_frame(37, 11);
        let bytes = encode_shard(&frame, 3, 5, 30);
        let decoded = decode_shard(&bytes).unwrap();
        assert_eq!(decoded.index, 3);
        assert_eq!(decoded.start_row, 5);
        assert_eq!(decoded.frame.nrows(), 25);
        // Bit-exact comparison, including NaN payloads and -0.0.
        for (orig, got) in frame.columns().iter().zip(decoded.frame.columns()) {
            match (orig, got) {
                (Column::Int64(a), Column::Int64(b)) => assert_eq!(&a[5..30], &b[..]),
                (Column::Float64(a), Column::Float64(b)) => {
                    let abits: Vec<u64> = a[5..30].iter().map(|x| x.to_bits()).collect();
                    let bbits: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(abits, bbits);
                }
                (Column::Str(a), Column::Str(b)) => assert_eq!(&a[5..30], &b[..]),
                _ => panic!("dtype changed in round trip"),
            }
        }
    }

    /// CDS1 is a stored format: the bytes of one fixed mixed-dtype shard
    /// (and so its checksum, the last eight). Re-pinned once for version
    /// 2: against the version-1 golden only the version field (bytes 4..6,
    /// `0100` -> `0200`) and the trailer (FNV-1a -> XXH64) moved; every
    /// header and column byte is the one the per-value encoder wrote.
    #[test]
    fn encoder_output_is_byte_identical_to_the_stored_format() {
        let frame = golden_frame();
        let golden = "434453310200030000000100000000000000030000000000000003000000000102\
                      0200000000000000000000000000008007000000000000000000000000\
                      00f87f355800662deb417e010000000000f07f000000000600000068c3a96c6c6f\
                      03000000782c797596c102d6975721";
        let hex: String = encode_shard(&frame, 3, 1, 4)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, golden);
    }

    /// The golden test's frame: every dtype, odd bit patterns, an empty
    /// string and a multi-byte one.
    fn golden_frame() -> Frame {
        Frame::new(vec![
            Column::Int64(vec![-1, 2, i64::MIN, 7]),
            Column::Float64(vec![
                -0.0,
                f64::NAN,
                1.5e300,
                f64::from_bits(0x7FF0_0000_0000_0001),
            ]),
            Column::Str(vec![
                "a".into(),
                String::new(),
                "h\u{e9}llo".into(),
                "x,y".into(),
            ]),
        ])
        .unwrap()
    }

    /// The encoder sizes its buffer exactly: a wide frame's last column
    /// used to overflow the estimate and double the allocation.
    #[test]
    fn encoded_buffer_is_allocated_at_its_exact_length() {
        let wide = Frame::new(
            (0..3010)
                .map(|c| Column::Float64((0..5).map(|r| (r * c) as f64).collect()))
                .collect(),
        )
        .unwrap();
        for (frame, start, end) in [(wide, 0, 5), (golden_frame(), 1, 4)] {
            let bytes = encode_shard(&frame, 0, start, end);
            assert_eq!(bytes.capacity(), bytes.len());
        }
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        let frame = mixed_frame(8, 23);
        let bytes = encode_shard(&frame, 0, 0, 8);
        // Flip one bit at a sample of positions spanning header, data, and
        // checksum; every corruption must be rejected.
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode_shard(&bad).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
    }

    /// The CDS1 twin of RCP1's test of the same name: a count garbled to
    /// `u64::MAX` under a valid checksum must fail the plausibility check,
    /// not reach `Vec::with_capacity`.
    #[test]
    fn garbled_count_fails_as_corruption_not_allocation() {
        let mut bytes = encode_shard(&mixed_frame(8, 31), 0, 0, 8);
        // nrows follows magic + version + shard_idx + start_row
        // (4 + 2 + 4 + 8 = offset 18).
        bytes[18..26].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = bytes.len() - 8;
        let checksum = xxh64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        match decode_shard(&bytes) {
            Err(CacheError::Corrupt(msg)) => {
                assert!(msg.contains("implausible count"), "wrong path: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let frame = mixed_frame(8, 29);
        let bytes = encode_shard(&frame, 0, 0, 8);
        assert!(decode_shard(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_shard(&bytes[..10]).is_err());
        assert!(decode_shard(&[]).is_err());
    }

    /// A shard the previous build wrote — version 1 under its FNV-1a
    /// trailer — is refused by version, not as a checksum mismatch.
    #[test]
    fn version_1_shard_is_rejected_by_name() {
        let mut bytes = encode_shard(&mixed_frame(8, 37), 0, 0, 8);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let body_len = bytes.len() - 8;
        let fnv = fnv1a64_extend(FNV_OFFSET, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fnv.to_le_bytes());
        match decode_shard(&bytes) {
            Err(CacheError::Corrupt(msg)) => {
                assert_eq!(msg, "unsupported shard version 1 (this build reads 2)")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn empty_shard_round_trips() {
        let frame = Frame::new(vec![Column::Float64(vec![]), Column::Int64(vec![])]).unwrap();
        let bytes = encode_shard(&frame, 0, 0, 0);
        let decoded = decode_shard(&bytes).unwrap();
        assert_eq!(decoded.frame.nrows(), 0);
        assert_eq!(decoded.frame.ncols(), 2);
    }

    #[test]
    fn shard_ranges_tile_exactly() {
        for (rows, shards) in [(100, 4), (101, 4), (3, 8), (0, 4), (1, 1)] {
            let ranges = shard_ranges(rows, shards);
            let mut cursor = 0;
            for &(s, e) in &ranges {
                assert_eq!(s, cursor);
                assert!(e >= s);
                cursor = e;
            }
            assert_eq!(cursor, rows);
            assert!(ranges.len() <= shards.max(1));
            if rows > 0 {
                let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
            }
        }
    }
}
