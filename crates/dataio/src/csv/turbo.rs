//! Turbo ingest engine: parallel SWAR structural scan, then an exact
//! fused field parse tiled into the final column storage.
//!
//! The three seed strategies all pay per-row costs the hardware does not
//! require: a `Vec<&str>` allocation per record (`split_fields`), a
//! `str::parse::<f64>` round trip per field, and (for the Dask path) a
//! fragment concatenation at the end. This module removes all three, and
//! walks every CSV byte once per stage:
//!
//! 1. **Structural scan** — [`scan_parallel`] cuts the whole-file buffer
//!    into newline-aligned byte partitions and, on one thread each,
//!    validates UTF-8 and walks the partition in 8-byte words, locating
//!    newlines and counting commas with branch-light SWAR bit tricks. The
//!    per-partition results are stitched into one [`StructuralIndex`]: the
//!    byte span of every non-blank record and the validated field count —
//!    the same rows, and for a ragged file the same error and row number,
//!    as the one-partition [`scan`].
//! 2. **Fused numeric parse** — one routine finds a field's delimiter
//!    *while* it accumulates the digits of a plain
//!    `[+-]digits[.digits][eE[+-]digits]` token, and converts mantissas of
//!    up to 19 digits with a decimal exponent within ±22 *bit-identically*
//!    to `str::parse::<f64>`, by Eisel–Lemire on a 45-row 128-bit
//!    power-of-five table. Anything else (20+ digits, larger exponents,
//!    `inf`/`NaN`, stray bytes) is declined to `str::parse` on the token,
//!    so semantics never change. [`parse_f64_fast`] is the same routine on
//!    a lone token.
//! 3. **Tiled parallel materialize** — [`parse_into`] gives each worker a
//!    `split_at_mut` row range of every column. A worker parses eight rows
//!    side by side, eight fields at a time, into an 8×8 tile on its stack
//!    and stores the tile one column at a time: every store fills a whole
//!    cache line of one column instead of scattering a value per column
//!    per row. No per-row `Vec`s, no `Frame::concat`, no `unsafe`; each
//!    value is computed independently of the partition layout, so the
//!    result is bit-identical at any thread count.
//!
//! [`ReadStrategy::TurboParallel`](crate::csv::ReadStrategy) orchestrates
//! the steps behind a parallel whole-file read and reports the per-phase
//! wall time as [`IngestPhases`] (surfaced as `LoadStats::ingest` and as
//! the `ingest_scan` / `ingest_parse` / `ingest_materialize` counters in
//! the candle phase profiler).

use crate::DataError;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Rows below this count per thread are not worth a spawned worker: the
/// parse runs on fewer threads instead.
pub const ROW_GRAIN: usize = 16;

/// Wall-clock attribution of one turbo read, one entry per pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestPhases {
    /// Parallel file read, UTF-8 validation and SWAR structural scan.
    pub scan: Duration,
    /// Parallel numeric parse into the preallocated columns.
    pub parse: Duration,
    /// Column storage prealloc and final `Frame` construction.
    pub materialize: Duration,
}

// ---------------------------------------------------------------------------
// SWAR primitives
// ---------------------------------------------------------------------------

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcasts one byte into every lane of a word.
#[inline(always)]
fn splat(b: u8) -> u64 {
    LO * b as u64
}

/// Exact per-lane zero-byte mask: bit 7 of each lane is set iff that byte
/// of `v` is zero. Uses the carry-free `(v & 0x7f…) + 0x7f… | v` form — the
/// classic `(v - LO) & !v & HI` trick admits false positives after a
/// borrow, which would mis-count commas.
#[inline(always)]
fn zero_byte_mask(v: u64) -> u64 {
    let low7 = (v & !HI).wrapping_add(!HI);
    !(low7 | v) & HI
}

/// Per-lane equality mask against a splatted pattern.
#[inline(always)]
fn eq_mask(v: u64, pattern: u64) -> u64 {
    zero_byte_mask(v ^ pattern)
}

// ---------------------------------------------------------------------------
// Structural index
// ---------------------------------------------------------------------------

/// Byte spans of every non-blank record plus the validated field count.
///
/// The index is a reusable scratch structure: [`scan`] clears and refills
/// it without releasing capacity, so steady-state re-scans of same-shaped
/// buffers perform no heap allocation.
#[derive(Debug, Default)]
pub struct StructuralIndex {
    starts: Vec<u32>,
    ends: Vec<u32>,
    width: usize,
}

/// What makes a byte partition unusable. A ragged row is reported by its
/// field count alone: its row number is the count of rows indexed before it.
enum Flaw {
    NonUtf8,
    Ragged { fields: usize },
}

impl StructuralIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed (non-blank) records.
    pub fn rows(&self) -> usize {
        self.starts.len()
    }

    /// Fields per record (0 until a scan indexes at least one record).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Byte span `[start, end)` of record `row` (trailing `\r` stripped).
    #[inline]
    pub fn row_span(&self, row: usize) -> (usize, usize) {
        (self.starts[row] as usize, self.ends[row] as usize)
    }

    fn clear(&mut self) {
        self.starts.clear();
        self.ends.clear();
        self.width = 0;
    }

    /// Records one line of `part` ending at `end` (exclusive, the `\n`
    /// position or the partition's end) with `commas` commas, skipping
    /// blank lines and enforcing a rectangular field count. Spans are
    /// stored as offsets into the whole buffer, `base` bytes before `part`.
    #[inline]
    fn push_line(
        &mut self,
        part: &[u8],
        base: usize,
        start: usize,
        end: usize,
        commas: u32,
    ) -> Result<(), Flaw> {
        let mut e = end;
        if e > start && part[e - 1] == b'\r' {
            e -= 1;
        }
        // Blank line: what `str::lines` yields as "" and the seed readers
        // skip. `lines` only swallows a `\r` together with its `\n`, so a
        // lone `\r` left at the very end of the buffer is a record of one
        // empty field, not a blank line.
        if e == start && (e == end || end < part.len()) {
            return Ok(());
        }
        let fields = commas as usize + 1;
        if self.width == 0 {
            self.width = fields;
        } else if fields != self.width {
            return Err(Flaw::Ragged { fields });
        }
        self.starts.push((base + start) as u32);
        self.ends.push((base + e) as u32);
        Ok(())
    }

    /// Appends the records of one newline-aligned partition, validating
    /// it as UTF-8. All structural bytes (`\n` `,` `\r`) are ASCII, so
    /// every span stays on a char boundary, and a partition that starts
    /// after a `\n` can never start inside a multi-byte character.
    fn scan_partition(&mut self, part: &[u8], base: usize) -> Result<(), Flaw> {
        let mut seen = 0u64;
        let lines = self.scan_lines(part, base, &mut seen);
        // ASCII is UTF-8 as it stands: the validator only runs where the
        // line scan saw a byte ≥ 0x80 — or stopped early at a ragged row,
        // which bad UTF-8 anywhere in the partition outranks.
        if (seen & HI != 0 || lines.is_err()) && std::str::from_utf8(part).is_err() {
            return Err(Flaw::NonUtf8);
        }
        lines
    }

    /// The line scan proper: newlines and commas 32 bytes at a time, with
    /// every byte read OR-ed into `seen`.
    fn scan_lines(&mut self, part: &[u8], base: usize, seen: &mut u64) -> Result<(), Flaw> {
        let nl = splat(b'\n');
        let comma = splat(b',');
        let mut line_start = 0usize;
        let mut commas_in_line: u32 = 0;

        let mut i = 0usize;
        for block in part.chunks_exact(32) {
            let words: [u64; 4] = std::array::from_fn(|k| {
                u64::from_le_bytes(block[k * 8..k * 8 + 8].try_into().expect("eight bytes"))
            });
            *seen |= words[0] | words[1] | words[2] | words[3];
            let comma_masks = words.map(|w| eq_mask(w, comma));
            let nl_masks = words.map(|w| eq_mask(w, nl));
            if nl_masks.iter().all(|&m| m == 0) {
                // Common path on wide files: whole block inside one record.
                commas_in_line += comma_masks.iter().map(|m| m.count_ones()).sum::<u32>();
                i += 32;
                continue;
            }
            for (comma_mask, mut nl_mask) in comma_masks.into_iter().zip(nl_masks) {
                let mut consumed: u32 = 0;
                while nl_mask != 0 {
                    let lane = (nl_mask.trailing_zeros() / 8) as usize;
                    // Commas strictly before this newline within the word.
                    let below = if lane == 0 {
                        0
                    } else {
                        (comma_mask & ((1u64 << (lane * 8)) - 1)).count_ones()
                    };
                    let commas = commas_in_line + (below - consumed);
                    self.push_line(part, base, line_start, i + lane, commas)?;
                    commas_in_line = 0;
                    consumed = below;
                    line_start = i + lane + 1;
                    nl_mask &= nl_mask - 1;
                }
                commas_in_line += comma_mask.count_ones() - consumed;
                i += 8;
            }
        }
        // Scalar tail (< 32 bytes).
        while i < part.len() {
            *seen |= part[i] as u64;
            match part[i] {
                b'\n' => {
                    self.push_line(part, base, line_start, i, commas_in_line)?;
                    commas_in_line = 0;
                    line_start = i + 1;
                }
                b',' => commas_in_line += 1,
                _ => {}
            }
            i += 1;
        }
        if line_start < part.len() {
            // Final record without a trailing newline.
            self.push_line(part, base, line_start, part.len(), commas_in_line)?;
        }
        Ok(())
    }
}

fn non_utf8() -> DataError {
    DataError::Malformed("non-UTF8 content".into())
}

fn ragged(row: usize, fields: usize, width: usize) -> DataError {
    DataError::Malformed(format!("row {row} has {fields} fields, expected {width}"))
}

/// Indexes `bytes` into `idx` on the calling thread: [`scan_parallel`] with
/// one partition, which allocates nothing once `idx` has its capacity.
pub fn scan(bytes: &[u8], idx: &mut StructuralIndex) -> Result<(), DataError> {
    scan_parallel(bytes, idx, 1)
}

/// Indexes `bytes` into `idx`, scanning up to `parts` newline-aligned byte
/// partitions on a thread each.
///
/// Errors on non-UTF-8 content and on ragged rows, with the row number and
/// text of the one-partition scan whatever `parts` is; `idx` is then
/// unspecified. Buffers of 4 GiB or more are rejected (`u32` offsets);
/// [`read_csv`](crate::csv::read_csv) falls back to the chunked strategy
/// before that limit.
pub fn scan_parallel(
    bytes: &[u8],
    idx: &mut StructuralIndex,
    parts: usize,
) -> Result<(), DataError> {
    idx.clear();
    if bytes.len() >= u32::MAX as usize {
        return Err(DataError::Malformed(
            "file too large for the turbo structural index".into(),
        ));
    }
    let bounds = if parts > 1 {
        partition_bounds(bytes, parts)
    } else {
        Vec::new()
    };
    if bounds.len() <= 2 {
        return idx.scan_partition(bytes, 0).map_err(|flaw| match flaw {
            Flaw::NonUtf8 => non_utf8(),
            Flaw::Ragged { fields } => ragged(idx.rows(), fields, idx.width),
        });
    }

    let mut partials: Vec<StructuralIndex> =
        bounds.windows(2).map(|_| StructuralIndex::new()).collect();
    let flaws = parx::parallel_each(
        partials.iter_mut().zip(bounds.windows(2)),
        |_, (part, b)| part.scan_partition(&bytes[b[0]..b[1]], b[0]).err(),
    );
    // The one-partition scan validates the whole buffer before it looks at
    // a single row, so bad UTF-8 anywhere outranks a ragged row.
    if flaws.iter().any(|f| matches!(f, Some(Flaw::NonUtf8))) {
        return Err(non_utf8());
    }
    for (part, flaw) in partials.iter().zip(&flaws) {
        if part.rows() > 0 {
            if idx.width == 0 {
                idx.width = part.width;
            } else if part.width != idx.width {
                // The partition measured its rows against its own first
                // row; against the file's width that row is the ragged one.
                return Err(ragged(idx.rows(), part.width, idx.width));
            }
        }
        idx.starts.extend_from_slice(&part.starts);
        idx.ends.extend_from_slice(&part.ends);
        if let Some(Flaw::Ragged { fields }) = flaw {
            return Err(ragged(idx.rows(), *fields, idx.width));
        }
    }
    Ok(())
}

/// Cuts `bytes` into at most `parts` non-empty partitions that each start
/// at the beginning of a line: `[0, b1, .., len]`, every inner bound one
/// past a `\n`. Fewer come back when lines are longer than a fair share.
pub(crate) fn partition_bounds(bytes: &[u8], parts: usize) -> Vec<usize> {
    let mut bounds = vec![0usize];
    for i in 1..parts {
        let fair = (bytes.len() as u64 * i as u64 / parts as u64) as usize;
        let from = fair.max(*bounds.last().expect("starts with 0"));
        match bytes[from..].iter().position(|&b| b == b'\n') {
            Some(nl) if from + nl + 1 < bytes.len() => bounds.push(from + nl + 1),
            _ => break,
        }
    }
    bounds.push(bytes.len());
    bounds
}

// ---------------------------------------------------------------------------
// Fixed-format numeric parsing
// ---------------------------------------------------------------------------

/// Largest decimal exponent magnitude the exact conversion covers. A
/// shortest-repr `f64` token has at most 17 significant digits, so −22
/// reaches every value of magnitude ≥ `1e-5` printed without an exponent;
/// and ±22 is well inside `[-27, 55]`, where [`eisel_lemire`] never has to
/// give up.
const MAX_EXP10: i64 = 22;

/// `5^q` for `q = -22..=22` as 128-bit values `(high, low)` normalised so
/// the top bit is set. Non-negative powers are exact (`5^22 < 2^52`);
/// negative ones are `2^b / 5^-q` rounded up, with `b` chosen to give 128
/// significant bits — the table of Lemire's "Number Parsing at a Gigabyte
/// per Second" restricted to this engine's exponents, computed here from
/// its definition instead of being pasted in.
const POW5: [(u64, u64); 45] = {
    let mut table = [(0u64, 0u64); 45];
    let mut k = 0;
    while k < 45 {
        let q = k as i32 - MAX_EXP10 as i32;
        let five = 5u128.pow(q.unsigned_abs());
        let value = if q >= 0 {
            five << five.leading_zeros()
        } else {
            // floor(2^(127 + z) / 5^-q) + 1, where z is the bit length of
            // 5^-q: divide 2^127 first, then feed in z more zero bits.
            let z = 128 - five.leading_zeros();
            let mut quotient = (1u128 << 127) / five;
            let mut rem = (1u128 << 127) % five;
            let mut bit = 0;
            while bit < z {
                quotient <<= 1;
                rem <<= 1;
                if rem >= five {
                    rem -= five;
                    quotient += 1;
                }
                bit += 1;
            }
            quotient + 1
        };
        table[k] = ((value >> 64) as u64, value as u64);
        k += 1;
    }
    table
};

/// Eisel–Lemire: the correctly rounded `f64` nearest `w × 10^q` for a
/// nonzero 64-bit `w` and `|q| ≤ 22`: `w × 5^q` to 128 bits gives the top
/// 55 bits of the result, enough to round except on an exact tie, which
/// can only happen when the product is exact. Inside this exponent range
/// the algorithm never has to give up (its one fallback case needs
/// `q ∉ [-27, 55]`), and the result is a normal number (`1e-22 ≤ value <
/// 2^64 × 1e22`), so the subnormal and overflow branches of the general
/// algorithm do not exist here. It is as cheap as Clinger's
/// convert-and-divide and has no branch that depends on the mantissa's
/// size, so it converts every token, short ones included.
#[inline]
fn eisel_lemire(w: u64, q: i32) -> f64 {
    debug_assert!(w != 0 && q.unsigned_abs() as i64 <= MAX_EXP10);
    const MANTISSA_BITS: i32 = 52;
    let lz = w.leading_zeros();
    let w = w << lz;
    let (high5, low5) = POW5[(q + MAX_EXP10 as i32) as usize];
    // w × 5^q to 128 bits; the low half of the table entry only matters
    // when the bits that decide the rounding are all ones.
    let first = w as u128 * high5 as u128;
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    if hi & 0x1FF == 0x1FF {
        let second_hi = ((w as u128 * low5 as u128) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        if second_hi > lo {
            hi += 1;
        }
    }
    let upper = (hi >> 63) as i32;
    let shift = upper + 64 - MANTISSA_BITS - 3;
    let mut mantissa = hi >> shift;
    // floor(q × log2(10)) + 63, then the f64 exponent bias.
    let mut power2 = ((q * 217_706) >> 16) + 63 + upper - lz as i32 + 1023;
    // Exactly halfway between two floats and the lower one even: round
    // down. Only a product that fits 64 bits can be a true tie.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && (mantissa << shift) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2u64 << MANTISSA_BITS {
        mantissa = 1u64 << MANTISSA_BITS;
        power2 += 1;
    }
    mantissa &= !(1u64 << MANTISSA_BITS);
    debug_assert!((1..0x7FF).contains(&power2), "normal range by construction");
    f64::from_bits(mantissa | (power2 as u64) << MANTISSA_BITS)
}

/// Powers of ten that fit a `u64` multiplier for up to eight digits.
const POW10_U64: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// The value of eight decimal digits held one per byte lane, first digit
/// in the lowest lane: three multiply-shifts fold neighbouring lanes
/// pairwise (digits → 2-digit → 4-digit → 8-digit groups).
#[inline(always)]
fn eight_digits(lanes: u64) -> u64 {
    const PAIRS: u64 = 0x0000_00FF_0000_00FF;
    let pairs = lanes.wrapping_mul(10).wrapping_add(lanes >> 8);
    let high = (pairs & PAIRS).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((pairs >> 16) & PAIRS).wrapping_mul(1 + (10_000 << 32));
    high.wrapping_add(low) >> 32
}

/// Appends the run of ASCII digits at `bytes[i..]` to the decimal number
/// `mant` (wrapping on overflow — the caller counts digits) and returns the
/// position after the run.
///
/// Digits go in a word at a time, not one multiply-add per digit: eight
/// bytes are tested for digits in one step, a full word adds
/// [`eight_digits`], and the word holding the end of the run adds its `n`
/// leading digits shifted up to the top lanes (zeros below), so the length
/// of the run costs no data-dependent loop exit. The probe may read past
/// the end of the field — the delimiter, and a line end after the last
/// field, are not digits; only the last bytes of the buffer go one by one.
#[inline(always)]
fn accumulate_digits(bytes: &[u8], mut i: usize, mut mant: u64) -> (u64, usize) {
    while let Some(word) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        // A lane is a digit iff adding 0x46 stays below 0x80 (byte ≤ '9')
        // and subtracting '0' does not borrow (byte ≥ '0'). Carries and
        // borrows only travel to higher lanes, so every lane below the
        // first flagged one is an exact digit value.
        let above = word.wrapping_add(0x4646_4646_4646_4646);
        let digits = word.wrapping_sub(0x3030_3030_3030_3030);
        let other = (above | digits) & HI;
        if other == 0 {
            mant = mant
                .wrapping_mul(POW10_U64[8])
                .wrapping_add(eight_digits(digits));
            i += 8;
            continue;
        }
        let n = (other.trailing_zeros() / 8) as usize;
        // Shift by 64 - 8n bits in two steps: n can be zero.
        let leading = (digits << 1) << (63 - 8 * n);
        mant = mant
            .wrapping_mul(POW10_U64[n])
            .wrapping_add(eight_digits(leading));
        return (mant, i + n);
    }
    while i < bytes.len() {
        let d = bytes[i].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        mant = mant.wrapping_mul(10).wrapping_add(d as u64);
        i += 1;
    }
    (mant, i)
}

/// The one field routine. Starting at `start` it walks the bytes of a
/// plain `[+-]digits[.digits][eE[+-]digits]` token exactly once — the walk
/// that accumulates the mantissa is also the search for the delimiter —
/// and stops at the `,` that ends the field or at `end`, the end of the
/// record.
///
/// `Ok((value, delim))` when the token is in the exact domain: `value` has
/// the bits `str::parse::<f64>` gives it and `delim` is where the field
/// ends. Correctness: a mantissa of at most 19 significant digits fits a
/// `u64` exactly, and with `|e10| ≤ 22` [`eisel_lemire`] rounds
/// `mantissa × 10^e10` correctly. `Err(at)` declines — no digits, more
/// digits, a larger exponent, `inf`/`NaN`, whitespace, any byte the
/// grammar does not cover — having seen no `,` before `at`.
#[inline(always)]
fn scan_field(bytes: &[u8], start: usize, end: usize) -> Result<(f64, usize), usize> {
    // Only the digit probes read at or past `end`.
    let row = &bytes[..end];
    let first = if start < end { row[start] } else { 0 };
    let negative = first == b'-';
    let digits_start = start + usize::from(negative || first == b'+');
    let mut mant: u64 = 0;
    let mut i = digits_start;
    while i < end {
        let d = row[i].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        mant = mant.wrapping_mul(10).wrapping_add(d as u64);
        i += 1;
    }
    let mut ndigits = i - digits_start;
    let mut e10: i64 = 0;
    if i < end && row[i] == b'.' {
        let frac_start = i + 1;
        (mant, i) = accumulate_digits(bytes, frac_start, mant);
        ndigits += i - frac_start;
        e10 = -((i - frac_start) as i64);
    }
    if ndigits == 0 {
        return Err(i);
    }
    let digits_end = i;
    if i < end && row[i] | 0x20 == b'e' {
        i += 1;
        let mut exp_negative = false;
        if i < end && (row[i] == b'-' || row[i] == b'+') {
            exp_negative = row[i] == b'-';
            i += 1;
        }
        let exp_start = i;
        let mut exp: i64 = 0;
        while i < end {
            let d = row[i].wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            // Saturates far outside the exact domain, far inside i64.
            exp = (exp * 10 + d as i64).min(1 << 32);
            i += 1;
        }
        if i == exp_start {
            return Err(i);
        }
        e10 += if exp_negative { -exp } else { exp };
    }
    if i > end {
        // Digits ran on past `end`: not a record boundary the scan found.
        return Err(end);
    }
    if i < end && row[i] != b',' {
        return Err(i);
    }
    if ndigits > 19 {
        // Twenty digit bytes can wrap the u64 — unless enough of them are
        // leading zeros, which add nothing (`0.0006298970896750689`).
        let zeros = row[digits_start..digits_end]
            .iter()
            .take_while(|&&b| b == b'0' || b == b'.')
            .filter(|&&b| b == b'0')
            .count();
        if ndigits - zeros > 19 {
            return Err(i);
        }
    }
    if !(-MAX_EXP10..=MAX_EXP10).contains(&e10) {
        return Err(i);
    }
    let magnitude = if mant == 0 {
        0.0
    } else {
        eisel_lemire(mant, e10 as i32)
    };
    let sign = u64::from(negative) << 63;
    Ok((f64::from_bits(magnitude.to_bits() | sign), i))
}

/// Parses a plain-format float token, returning `None` whenever the fast
/// path cannot *prove* bit-identity with `str::parse::<f64>`: this is
/// the engine's field routine (see the module docs for its exact domain)
/// on a token that must end where the field does.
#[inline]
pub fn parse_f64_fast(token: &[u8]) -> Option<f64> {
    match scan_field(token, 0, token.len()) {
        Ok((value, delim)) if delim == token.len() => Some(value),
        _ => None,
    }
}

/// One field of a record that ends at `end`: the value and the start of
/// the next field. A token [`scan_field`] declines at `at` gets the seed
/// readers' `field.trim().parse::<f64>()`, once its delimiter is found
/// from `at` on; `None` means the field is not numeric.
#[inline(always)]
fn parse_field(bytes: &[u8], start: usize, end: usize) -> Option<(f64, usize)> {
    match scan_field(bytes, start, end) {
        Ok((value, delim)) => Some((value, delim + 1)),
        Err(at) => parse_field_std(bytes, start, at, end),
    }
}

#[cold]
fn parse_field_std(bytes: &[u8], start: usize, at: usize, end: usize) -> Option<(f64, usize)> {
    let delim = bytes[at..end]
        .iter()
        .position(|&b| b == b',')
        .map_or(end, |p| at + p);
    let token = std::str::from_utf8(&bytes[start..delim]).ok()?;
    Some((token.trim().parse::<f64>().ok()?, delim + 1))
}

/// Parses a plain `[+-]?digits` integer token; `None` outside the
/// guaranteed-exact domain (≥ 19 digits, empty, stray bytes) so callers
/// fall back to `str::parse::<i64>`.
#[inline]
pub fn parse_i64_fast(token: &[u8]) -> Option<i64> {
    let n = token.len();
    if n == 0 {
        return None;
    }
    let mut i = 0usize;
    let neg = match token[0] {
        b'-' => {
            i = 1;
            true
        }
        b'+' => {
            i = 1;
            false
        }
        _ => false,
    };
    let mut v: i64 = 0;
    let mut ndigits = 0usize;
    while i < n && token[i].is_ascii_digit() {
        v = v.wrapping_mul(10).wrapping_add((token[i] - b'0') as i64);
        ndigits += 1;
        i += 1;
    }
    // 18 digits can never overflow i64; longer tokens take the slow path.
    if i != n || ndigits == 0 || ndigits > 18 {
        return None;
    }
    Some(if neg { -v } else { v })
}

// ---------------------------------------------------------------------------
// Tiled parallel parse into column storage
// ---------------------------------------------------------------------------

/// Rows parsed side by side and fields taken from each per step: 8 `f64`s
/// are one cache line, so a tile column is stored as one full line.
const TILE: usize = 8;

/// Parses records `rows` of the index into `cols[c][0..rows.len()]`.
///
/// `cols` is this worker's share of the output: one slice per column,
/// `rows.len()` long (a whole column when one worker parses everything).
/// Up to [`TILE`] rows advance together, [`TILE`] fields each per step,
/// through a cursor per row; the values land in a stack tile that is then
/// stored column by column.
fn parse_rows<C: AsMut<[f64]>>(
    bytes: &[u8],
    idx: &StructuralIndex,
    rows: Range<usize>,
    cols: &mut [C],
    nonnumeric: &AtomicBool,
) {
    let width = cols.len();
    let mut first = rows.start;
    while first < rows.end {
        if nonnumeric.load(Ordering::Relaxed) {
            return;
        }
        let height = TILE.min(rows.end - first);
        let mut cursor = [0usize; TILE];
        let mut row_end = [0usize; TILE];
        for k in 0..height {
            (cursor[k], row_end[k]) = idx.row_span(first + k);
        }
        let out = first - rows.start;
        let mut col = 0;
        while col < width {
            let fields = TILE.min(width - col);
            let mut tile = [[0f64; TILE]; TILE];
            for tile_col in tile.iter_mut().take(fields) {
                // One field from each row in turn: where a field ends is
                // only known once its bytes are read, so consecutive
                // fields of one row form a dependency chain, while the
                // rows' chains are independent and overlap in the core.
                for k in 0..height {
                    // The scan counted `width` fields in this record, so
                    // the cursor is still inside it here.
                    let Some((value, next)) = parse_field(bytes, cursor[k], row_end[k]) else {
                        nonnumeric.store(true, Ordering::Relaxed);
                        return;
                    };
                    tile_col[k] = value;
                    cursor[k] = next;
                }
            }
            for (column, tile_col) in cols[col..col + fields].iter_mut().zip(&tile) {
                column.as_mut()[out..out + height].copy_from_slice(&tile_col[..height]);
            }
            col += fields;
        }
        first += height;
    }
}

/// Parses every indexed record of `bytes` into `columns`, in parallel
/// across up to `threads` workers.
///
/// `columns` becomes `idx.width()` columns × `idx.rows()` values; columns
/// that already have that length are reused — steady-state re-parses of
/// same-shaped buffers on one thread perform **zero** heap allocations
/// (see `dataio/tests/alloc_ingest.rs`). Returns `false` when any field is not
/// parseable as `f64`: the file is mixed-dtype and the caller must fall
/// back to the typed parser (the columns' contents are then unspecified).
///
/// Every value is computed independently of the partition layout, so the
/// materialized columns are bit-identical for any `threads`.
///
/// # Panics
/// Panics if `idx` was not produced by scanning `bytes`.
pub fn parse_into(
    bytes: &[u8],
    idx: &StructuralIndex,
    columns: &mut Vec<Vec<f64>>,
    threads: usize,
) -> bool {
    let width = idx.width();
    let nrows = idx.rows();
    columns.resize_with(width, Vec::new);
    for col in columns.iter_mut() {
        // Every element is about to be overwritten: a column of the right
        // length stays as it is, and a new one comes zeroed from the
        // allocator, so that fresh pages are first touched — faulted in —
        // by the workers that fill them, side by side.
        if col.len() != nrows {
            *col = vec![0.0; nrows];
        }
    }
    let nonnumeric = AtomicBool::new(false);
    let workers = effective_partitions(nrows, threads);
    if workers <= 1 {
        parse_rows(bytes, idx, 0..nrows, columns, &nonnumeric);
    } else {
        // Worker `w` gets rows `chunks[w]` of every column: the columns are
        // split at the same row bounds, so no two workers share an element.
        let chunks = parx::chunk_ranges(nrows, workers);
        let mut shares: Vec<Vec<&mut [f64]>> =
            chunks.iter().map(|_| Vec::with_capacity(width)).collect();
        for col in columns.iter_mut() {
            let mut rest = col.as_mut_slice();
            for (share, chunk) in shares.iter_mut().zip(&chunks) {
                let (head, tail) = rest.split_at_mut(chunk.len());
                share.push(head);
                rest = tail;
            }
        }
        parx::parallel_each(shares.into_iter().zip(&chunks), |_, (mut share, chunk)| {
            parse_rows(bytes, idx, chunk.start..chunk.end, &mut share, &nonnumeric)
        });
    }
    !nonnumeric.load(Ordering::Relaxed)
}

/// Number of disjoint row partitions [`parse_into`] uses for a given row
/// count and thread budget: at most `threads`, each at least [`ROW_GRAIN`]
/// rows.
pub fn effective_partitions(rows: usize, threads: usize) -> usize {
    if rows == 0 {
        return 0;
    }
    threads.max(1).min((rows / ROW_GRAIN).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx_of(text: &str) -> StructuralIndex {
        let mut idx = StructuralIndex::new();
        scan(text.as_bytes(), &mut idx).unwrap();
        idx
    }

    #[test]
    fn swar_masks_are_exact() {
        // Adversarial words for the borrow-propagation false positive:
        // a zero lane followed by a 0x01 lane.
        for word in [
            0x0000_0000_0000_0100u64,
            0x0101_0101_0101_0101,
            0xFF00_01FF_0001_FF00,
            u64::MAX,
            0,
        ] {
            let mask = zero_byte_mask(word);
            for lane in 0..8 {
                let byte = (word >> (lane * 8)) & 0xFF;
                let bit = (mask >> (lane * 8 + 7)) & 1;
                assert_eq!(bit == 1, byte == 0, "word {word:#x} lane {lane}");
            }
        }
    }

    #[test]
    fn scan_indexes_simple_file() {
        let idx = idx_of("1,2,3\n4,5,6\n");
        assert_eq!(idx.rows(), 2);
        assert_eq!(idx.width(), 3);
        assert_eq!(idx.row_span(0), (0, 5));
        assert_eq!(idx.row_span(1), (6, 11));
    }

    #[test]
    fn scan_handles_crlf_blank_lines_and_missing_trailing_newline() {
        let idx = idx_of("1,2\r\n\r\n\n3,4\r\n5,6");
        assert_eq!(idx.rows(), 3);
        assert_eq!(idx.width(), 2);
        // CRLF rows exclude the \r; the last row runs to EOF.
        assert_eq!(idx.row_span(0), (0, 3));
        assert_eq!(idx.row_span(1), (8, 11));
        assert_eq!(idx.row_span(2), (13, 16));
    }

    #[test]
    fn scan_counts_commas_across_word_boundaries() {
        // Rows engineered so newlines land mid-word and multiple newlines
        // share one 8-byte word.
        let text = "a,b\nc,d\ne,f\ng,h\n";
        let idx = idx_of(text);
        assert_eq!(idx.rows(), 4);
        assert_eq!(idx.width(), 2);
        let wide = format!("{},tail\n", "x".repeat(23));
        let idx = idx_of(&wide);
        assert_eq!(idx.rows(), 1);
        assert_eq!(idx.width(), 2);
    }

    #[test]
    fn scan_rejects_ragged_rows() {
        let mut idx = StructuralIndex::new();
        let err = scan(b"1,2\n3\n", &mut idx).unwrap_err();
        assert!(matches!(err, DataError::Malformed(_)));
    }

    #[test]
    fn scan_rejects_non_utf8() {
        let mut idx = StructuralIndex::new();
        let err = scan(&[0xFF, 0xFE, b'\n'], &mut idx).unwrap_err();
        assert!(err.to_string().contains("non-UTF8"));
    }

    /// A stitched scan must be the one-partition scan: same rows, same
    /// spans, and for a flawed buffer the same error text, whatever the
    /// partition count and wherever the cuts fall.
    #[test]
    fn scan_parallel_equals_scan_wherever_the_cuts_fall() {
        let body = "1,2,3\r\n\n44,55,66\n7,8,9\n\r\n";
        let buffers = [
            body.repeat(9),
            format!("{}10,11,12", body.repeat(5)), // no final newline
            format!("{}1,2\n{}", body.repeat(4), body.repeat(4)), // ragged inside
            format!("1,2\n{}", body.repeat(6)),    // every later row is ragged
            format!("{}\u{e9},2,3\n", body.repeat(6)), // multi-byte char
            "\n\r\n\n".repeat(7),                  // blank lines only
            "1,2,3".to_string(),                   // one row, no newline
            String::new(),
        ];
        let outcome = |bytes: &[u8], parts: usize| {
            let mut idx = StructuralIndex::new();
            scan_parallel(bytes, &mut idx, parts)
                .map(|()| (idx.width(), idx.starts, idx.ends))
                .map_err(|e| e.to_string())
        };
        for text in &buffers {
            // Padding the first line by 0..8 bytes walks every cut across
            // every alignment of `\r`, `\n`, blank lines and word edges.
            for pad in 0..8 {
                let bytes = format!("{}{text}", "0".repeat(pad)).into_bytes();
                let serial = outcome(&bytes, 1);
                for parts in [2, 3, 8, 64] {
                    assert_eq!(
                        outcome(&bytes, parts),
                        serial,
                        "pad {pad} parts {parts}: {text:?}"
                    );
                }
            }
        }
        // Bad UTF-8 outranks a ragged row in an earlier partition, as in
        // the one-partition scan, which validates before it counts.
        let mut bytes = format!("1,2\n3\n{}", body.repeat(6)).into_bytes();
        bytes.extend_from_slice(&[0xFF, b'\n']);
        for parts in [1, 2, 8] {
            assert!(
                outcome(&bytes, parts).unwrap_err().contains("non-UTF8"),
                "parts {parts}"
            );
        }
    }

    #[test]
    fn partition_bounds_start_every_partition_on_a_line() {
        let text = "aaaa\nbb\n\ncccccccccccccccccccc\ndd\n";
        for parts in 1..12 {
            let bounds = partition_bounds(text.as_bytes(), parts);
            assert_eq!((bounds[0], *bounds.last().unwrap()), (0, text.len()));
            assert!(bounds.len() <= parts + 1);
            for pair in bounds.windows(2) {
                assert!(pair[0] < pair[1], "empty partition in {bounds:?}");
                assert_eq!(
                    text.as_bytes()[pair[1] - 1] == b'\n',
                    pair[1] != text.len() || text.ends_with('\n')
                );
            }
        }
        // One line longer than every fair share: no cut is possible.
        assert_eq!(partition_bounds(b"123456789", 4), vec![0, 9]);
        assert_eq!(partition_bounds(b"", 4), vec![0, 0]);
    }

    #[test]
    fn power_of_five_table_matches_its_published_rows() {
        // Rows of the table in Lemire's paper / fast_float, spot-checked.
        let row = |q: i32| POW5[(q + 22) as usize];
        assert_eq!(row(0), (0x8000_0000_0000_0000, 0));
        assert_eq!(row(1), (0xA000_0000_0000_0000, 0));
        assert_eq!(row(22), (0x878678326EAC9000, 0));
        assert_eq!(row(-1), (0xCCCC_CCCC_CCCC_CCCC, 0xCCCC_CCCC_CCCC_CCCD));
        assert_eq!(row(-2), (0xA3D7_0A3D_70A3_D70A, 0x3D70_A3D7_0A3D_70A4));
        assert_eq!(row(-22), (0xF1C9_0080_BAF7_2CB1, 0x5324_C68B_12DD_6339));
    }

    #[test]
    fn eight_digit_lanes_fold_to_their_decimal_value() {
        for (text, value) in [
            ("00000000", 0),
            ("12345678", 12_345_678),
            ("99999999", 99_999_999),
        ] {
            let word = u64::from_le_bytes(text.as_bytes().try_into().unwrap());
            assert_eq!(eight_digits(word - 0x3030_3030_3030_3030), value, "{text}");
        }
        // A run that ends inside a word, on every lane, with a non-digit
        // below '0' (borrows upward) and above '9' (carries upward) after it.
        for stop in [b',', b'.', b'e', b'\n', 0xC3, 0xFF] {
            for n in 0..8 {
                let mut bytes = b"1234567".to_vec();
                bytes.insert(n, stop);
                bytes.extend_from_slice(b"89012345");
                let expect: u64 = std::str::from_utf8(&bytes[..n])
                    .unwrap()
                    .parse()
                    .unwrap_or(0);
                assert_eq!(
                    accumulate_digits(&bytes, 0, 0),
                    (expect, n),
                    "stop {stop:#x} at {n}"
                );
                assert_eq!(
                    accumulate_digits(&bytes, 0, 7),
                    (7 * POW10_U64[n] + expect, n)
                );
            }
        }
    }

    #[test]
    fn fast_f64_matches_std_on_plain_tokens() {
        for t in [
            "0",
            "-0",
            "1",
            "42",
            "-7",
            "+3",
            "3.25",
            "-0.5",
            "0.000123",
            "1e3",
            "2.5e-4",
            "-1E+10",
            "9007199254740992",
            "123456.789",
            "1e22",
            "1e-22",
            "0.0",
            "-0.0",
            "9007199254740993",
            "9999999999999999999",
            "0.30000000000000004",
            "5.",
            ".5",
            "+.5e-3",
            "0.0006298970896750689",
            "-1.5755298137664795",
            "000000000000000000001e0",
        ] {
            let fast = parse_f64_fast(t.as_bytes()).unwrap_or_else(|| panic!("{t} fast-parsable"));
            let std = t.parse::<f64>().unwrap();
            assert_eq!(fast.to_bits(), std.to_bits(), "token {t}");
        }
    }

    #[test]
    fn fast_f64_declines_outside_the_exact_domain() {
        for t in [
            "",
            ".",
            "e5",
            "inf",
            "NaN",
            "1.2.3",
            "1e",
            "1e+",
            "12345678901234567890", // 20 digits
            "1e23",                 // exponent beyond the exact table
            "1e-23",
            "1e23",
            "12345678901234567.890",     // 20 significant digits
            "0.00000000000000000000001", // e10 = -23
            "1e99999999999999999999",
            " 1", // untrimmed
            "1 ",
            "1,",
            ",",
            "1,2",
            "-",
            "+-1",
            "1e5.0",
            "0x10",
            "1_000",
            "\u{e9}",
        ] {
            assert!(parse_f64_fast(t.as_bytes()).is_none(), "token {t:?}");
        }
    }

    #[test]
    fn fast_f64_random_tokens_bit_identical_to_std() {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(0x7072B0);
        for _ in 0..4000 {
            let mant = rng.next_u64() % 1_000_000_000_000;
            let frac = rng.next_index(7);
            let exp = rng.next_index(45) as i32 - 22;
            let token = if frac == 0 {
                format!("{mant}e{exp}")
            } else {
                format!(
                    "{}.{:0>width$}e{exp}",
                    mant / 10u64.pow(frac as u32),
                    mant % 10u64.pow(frac as u32),
                    width = frac
                )
            };
            if let Some(fast) = parse_f64_fast(token.as_bytes()) {
                let std = token.parse::<f64>().unwrap();
                assert_eq!(fast.to_bits(), std.to_bits(), "token {token}");
            }
        }
    }

    #[test]
    fn fast_i64_matches_std_or_declines() {
        for t in ["0", "-1", "+17", "123456789012345678"] {
            assert_eq!(parse_i64_fast(t.as_bytes()), t.parse::<i64>().ok(), "{t}");
        }
        for t in ["", "-", "1234567890123456789", "12a", " 1"] {
            assert!(parse_i64_fast(t.as_bytes()).is_none(), "{t:?}");
        }
    }

    #[test]
    fn parse_into_materializes_and_reports_numeric() {
        let text = "1,2.5,3\n-4,5e-1,6\n";
        let idx = idx_of(text);
        let mut cols = Vec::new();
        assert!(parse_into(text.as_bytes(), &idx, &mut cols, 2));
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[0], vec![1.0, -4.0]);
        assert_eq!(cols[1], vec![2.5, 0.5]);
        assert_eq!(cols[2], vec![3.0, 6.0]);
    }

    #[test]
    fn parse_into_flags_mixed_dtype() {
        let text = "1,tumor\n2,normal\n";
        let idx = idx_of(text);
        let mut cols = Vec::new();
        assert!(!parse_into(text.as_bytes(), &idx, &mut cols, 2));
    }

    #[test]
    fn parse_into_bit_identical_across_thread_counts() {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(99);
        let mut text = String::new();
        for _ in 0..200 {
            for c in 0..7 {
                if c > 0 {
                    text.push(',');
                }
                text.push_str(&format!("{:.5}", rng.next_f32() * 2000.0 - 1000.0));
            }
            text.push('\n');
        }
        let idx = idx_of(&text);
        let mut base = Vec::new();
        assert!(parse_into(text.as_bytes(), &idx, &mut base, 1));
        for threads in [2, 4, 8] {
            let mut cols = Vec::new();
            assert!(parse_into(text.as_bytes(), &idx, &mut cols, threads));
            for (a, b) in base.iter().zip(&cols) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "threads={threads}");
            }
        }
    }

    #[test]
    fn effective_partitions_respects_grain() {
        assert_eq!(effective_partitions(0, 4), 0);
        assert_eq!(effective_partitions(10, 4), 1);
        assert_eq!(effective_partitions(64, 4), 4);
        assert_eq!(effective_partitions(1000, 4), 4);
    }
}
