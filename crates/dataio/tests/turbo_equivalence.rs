//! Property test: `TurboParallel` materializes a frame **bit-identical** to
//! `ChunkedLowMemory` and `PandasDefault` across random file geometries and
//! thread counts {1, 2, 4}, including CRLF line endings, files without a
//! trailing newline, and interleaved blank lines.
//!
//! The generator guarantees at least one fractional value per column so the
//! pandas-default path infers Float64 everywhere (all-integer columns would
//! legitimately type as Int64 there while the numeric fast paths produce
//! Float64 — a dtype difference, not a value difference). Comparison is by
//! `f64::to_bits`, the strictest possible equality.

use dataio::csv::{read_csv, read_turbo_with_threads, ReadStrategy};
use dataio::{Column, Frame};
use xrng::RandomSource;

fn scratch() -> parx::Scratch {
    parx::scratch("turbo_equiv").expect("scratch dir")
}

/// One random token: plain ints, fixed-point decimals, scientific notation,
/// and negatives — the formats CANDLE matrices actually contain.
fn random_token(rng: &mut impl RandomSource, force_fractional: bool) -> String {
    let shape = if force_fractional {
        1 + rng.next_index(2)
    } else {
        rng.next_index(4)
    };
    let sign = if rng.next_index(4) == 0 { "-" } else { "" };
    match shape {
        0 => format!("{sign}{}", rng.next_index(100_000)),
        1 => format!(
            "{sign}{}.{:02}25",
            rng.next_index(1000),
            rng.next_index(100)
        ),
        2 => format!(
            "{sign}{}.{}e-{}",
            rng.next_index(10),
            1 + rng.next_index(9),
            1 + rng.next_index(12)
        ),
        _ => format!("{sign}{}e{}", 1 + rng.next_index(999), rng.next_index(15)),
    }
}

/// Renders a random rectangular CSV and reports its (rows, cols). Geometry
/// quirks are drawn per file: CRLF vs LF endings, blank lines sprinkled
/// between records, and possibly no terminator on the final record.
fn random_csv(rng: &mut impl RandomSource) -> (String, usize, usize) {
    let rows = 1 + rng.next_index(120);
    let cols = 1 + rng.next_index(12);
    let crlf = rng.next_index(2) == 0;
    let blank_lines = rng.next_index(3) == 0;
    let trailing_newline = rng.next_index(3) != 0;
    let ending = if crlf { "\r\n" } else { "\n" };
    // One guaranteed-fractional slot per column keeps every dtype Float64.
    let frac_rows: Vec<usize> = (0..cols).map(|_| rng.next_index(rows)).collect();
    let mut text = String::new();
    for r in 0..rows {
        if blank_lines && rng.next_index(5) == 0 {
            text.push_str(ending);
        }
        for (c, frac_row) in frac_rows.iter().enumerate() {
            if c > 0 {
                text.push(',');
            }
            text.push_str(&random_token(rng, *frac_row == r));
        }
        if r + 1 < rows || trailing_newline {
            text.push_str(ending);
        }
    }
    (text, rows, cols)
}

fn assert_bit_identical(a: &Frame, b: &Frame, ctx: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{ctx}: row count");
    assert_eq!(a.ncols(), b.ncols(), "{ctx}: col count");
    for (c, (ca, cb)) in a.columns().iter().zip(b.columns()).enumerate() {
        match (ca, cb) {
            (Column::Float64(va), Column::Float64(vb)) => {
                for (r, (x, y)) in va.iter().zip(vb).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{ctx}: col {c} row {r}: {x:?} vs {y:?}"
                    );
                }
            }
            _ => panic!("{ctx}: col {c} dtypes {:?} vs {:?}", ca.dtype(), cb.dtype()),
        }
    }
}

#[test]
fn turbo_bit_identical_to_seed_strategies_across_geometries_and_threads() {
    let mut rng = xrng::seeded(0x7EB0_1D3A);
    let dir = scratch();
    for case in 0..24 {
        let (text, rows, cols) = random_csv(&mut rng);
        let path = dir.join(format!("equiv_{case}.csv"));
        std::fs::write(&path, &text).unwrap();

        let (chunked, _) = read_csv(&path, ReadStrategy::ChunkedLowMemory).unwrap();
        let (pandas, _) = read_csv(&path, ReadStrategy::PandasDefault).unwrap();
        assert_eq!(
            (chunked.nrows(), chunked.ncols()),
            (rows, cols),
            "case {case}"
        );
        assert_bit_identical(
            &chunked,
            &pandas,
            &format!("case {case}: pandas vs chunked"),
        );

        for threads in [1, 2, 4] {
            let (turbo, stats) = read_turbo_with_threads(&path, threads).unwrap();
            let ctx = format!("case {case} ({rows}x{cols}) threads {threads}");
            assert_bit_identical(&turbo, &chunked, &ctx);
            assert_eq!(stats.rows, rows, "{ctx}");
            assert_eq!(stats.cols, cols, "{ctx}");
            assert!(stats.ingest.is_some(), "{ctx}: phases reported");
        }
    }
}

/// The hard-coded corner geometries, pinned individually so a failure names
/// the quirk: CRLF, no trailing newline, blank lines, single cell, and a
/// single row wide enough to cross many SWAR words.
#[test]
fn turbo_corner_geometries_match_chunked() {
    let cases: &[(&str, &str)] = &[
        ("crlf", "1.5,2\r\n3,4.25\r\n"),
        ("no_trailing_newline", "1.5,2\n3,4.25"),
        ("crlf_no_trailing_newline", "1.5,2\r\n3,4.25"),
        ("blank_lines", "\n1.5,2\n\n\n3,4.25\n\n"),
        ("blank_crlf_lines", "\r\n1.5,2\r\n\r\n3,4.25\r\n"),
        ("single_cell", "7.5"),
        (
            "single_wide_row",
            "1.5,2.5,3.5,4.5,5.5,6.5,7.5,8.5,9.5,10.5,11.5,12.5\n",
        ),
    ];
    let dir = scratch();
    for (name, text) in cases {
        let path = dir.join(format!("corner_{name}.csv"));
        std::fs::write(&path, text).unwrap();
        let (chunked, _) = read_csv(&path, ReadStrategy::ChunkedLowMemory).unwrap();
        for threads in [1, 2, 4] {
            let (turbo, _) = read_turbo_with_threads(&path, threads).unwrap();
            assert_bit_identical(&turbo, &chunked, &format!("{name} threads {threads}"));
        }
    }
}

/// Mixed-dtype files take the fallback: the result must equal the chunked
/// strategy's fallback exactly (same typed parser, same chunking).
#[test]
fn turbo_mixed_dtype_fallback_equals_chunked() {
    let dir = scratch();
    let path = dir.join("fallback.csv");
    std::fs::write(&path, "id,label,score\n1,tumor,2.5\n2,normal,3.5\n").unwrap();
    let (chunked, _) = read_csv(&path, ReadStrategy::ChunkedLowMemory).unwrap();
    for threads in [1, 2, 4] {
        let (turbo, _) = read_turbo_with_threads(&path, threads).unwrap();
        assert_eq!(turbo, chunked, "threads {threads}");
    }
}

// ---------------------------------------------------------------------------
// Exactness of the field routine
// ---------------------------------------------------------------------------

use dataio::csv::turbo::{parse_f64_fast, parse_into, scan, StructuralIndex};

/// Tokens per population: the CI release step covers millions, the debug
/// suite a sample of the same generators.
fn population(release: usize) -> usize {
    if cfg!(debug_assertions) {
        release / 20
    } else {
        release
    }
}

/// Checks every token twice against `str::parse::<f64>`, by bits: alone
/// through [`parse_f64_fast`] (equal, or declined), and as the fields of one
/// CSV record through `scan` + `parse_into` (equal — a declined field takes
/// the `str::parse` fallback — and with other fields' bytes after it, which
/// the word-at-a-time digit probes read). Returns how many the fast path
/// took.
fn check_tokens(tokens: &[String], ctx: &str) -> usize {
    let mut hits = 0;
    for t in tokens {
        let std = t
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{ctx}: {t:?} is not a float"));
        if let Some(fast) = parse_f64_fast(t.as_bytes()) {
            assert_eq!(fast.to_bits(), std.to_bits(), "{ctx}: token {t:?}");
            hits += 1;
        }
    }
    for record in tokens.chunks(257) {
        let line = record.join(",");
        let mut idx = StructuralIndex::new();
        scan(line.as_bytes(), &mut idx).unwrap();
        let mut cols = Vec::new();
        assert!(
            parse_into(line.as_bytes(), &idx, &mut cols, 1),
            "{ctx}: {line}"
        );
        assert_eq!(cols.len(), record.len(), "{ctx}");
        for (t, col) in record.iter().zip(&cols) {
            let std = t.parse::<f64>().unwrap();
            assert_eq!(col[0].to_bits(), std.to_bits(), "{ctx}: field {t:?}");
        }
    }
    hits
}

/// (a) The benchmark's token population: `f64` shortest-repr of a widened
/// `f32`, 16–17 digits — exactly what `export_packed_csv` writes.
#[test]
fn field_routine_is_exact_on_widened_f32_tokens() {
    let mut rng = xrng::seeded(0xF327_0F64);
    let n = population(1_200_000);
    let tokens: Vec<String> = (0..n)
        .map(|i| {
            let x = match i % 4 {
                // Unit-scale features, as the generators draw them.
                0 | 1 => (rng.next_f32() - 0.5) * 8.0,
                // Any finite bit pattern within the fast exponent range.
                2 => f32::from_bits(rng.next_u64() as u32 & 0x7FFF_FFFF) % 1e6,
                _ => -(rng.next_f32() * 1e-4),
            };
            let x = if x.is_finite() { x } else { 1.0 };
            format!("{}", x as f64)
        })
        .collect();
    let hits = check_tokens(&tokens, "widened f32");
    // Tiny magnitudes print 20+ digit fractions and may decline; the
    // unit-scale half must not.
    assert!(hits * 2 > n, "only {hits} of {n} took the fast path");
}

/// (b) Random mantissas of every length the routine accepts, in every
/// notation, across and beyond its exponent range.
#[test]
fn field_routine_is_exact_on_random_mantissas_and_exponents() {
    let mut rng = xrng::seeded(0x19D1_6175);
    let n = population(1_000_000);
    let tokens: Vec<String> = (0..n)
        .map(|_| {
            let digits = 1 + rng.next_index(19) as u32;
            let mant = if digits == 19 {
                rng.next_u64() % 10_000_000_000_000_000_000
            } else {
                rng.next_u64() % 10u64.pow(digits)
            };
            let e10 = rng.next_index(61) as i32 - 30;
            let sign = ["", "-", "+"][rng.next_index(3)];
            match rng.next_index(3) {
                0 => format!("{sign}{mant}e{e10}"),
                1 => format!("{sign}{mant}E{e10:+}"),
                _ => {
                    // Plain decimal: the point moved |e10| places.
                    let text = mant.to_string();
                    if e10 >= 0 {
                        format!("{sign}{text}{}", "0".repeat(e10 as usize % 4))
                    } else {
                        let k = (-e10) as usize;
                        if k >= text.len() {
                            format!("{sign}0.{}{text}", "0".repeat(k - text.len()))
                        } else {
                            let (int, frac) = text.split_at(text.len() - k);
                            format!("{sign}{int}.{frac}")
                        }
                    }
                }
            }
        })
        .collect();
    let hits = check_tokens(&tokens, "random mantissa");
    assert!(hits * 3 > n, "only {hits} of {n} took the fast path");
}

/// (c) Where correct rounding is decided: exact ties between two doubles
/// (round to even) and their neighbours, built from 54-bit odd numbers
/// scaled by the powers of five a 19-digit mantissa can carry; the edges of
/// the domain; and everything outside it, which must decline or match.
#[test]
fn field_routine_rounds_ties_to_even_and_declines_outside_its_domain() {
    let mut rng = xrng::seeded(0x7135_70E7);
    let mut tokens = Vec::new();
    for _ in 0..population(60_000) {
        // An odd 54-bit integer is exactly halfway between two doubles,
        // and so is any power-of-two multiple of it.
        let odd = (1u64 << 53) | (rng.next_u64() >> 11) | 1;
        for w in [odd - 1, odd, odd + 1] {
            tokens.push(w.to_string());
            tokens.push(format!("{w}e{}", rng.next_index(4)));
        }
        // odd × 5^k / 10^k = odd / 2^k: a tie with a negative exponent.
        for k in 1..=4u32 {
            if let Some(w) = odd.checked_mul(5u64.pow(k)).filter(|&w| w < 10u64.pow(19)) {
                let text = w.to_string();
                let (int, frac) = text.split_at(text.len() - k as usize);
                tokens.extend([format!("{w}e-{k}"), format!("{int}.{frac}")]);
                tokens.extend([format!("{}e-{k}", w - 1), format!("{}e-{k}", w + 1)]);
            }
        }
        // j × 10^q = (j × 5^q) × 2^q with j × 5^q odd and 54 bits wide: a
        // tie with a positive exponent, up to the table's last row.
        let q = 1 + rng.next_index(22) as u32;
        let five = 5u64.pow(q);
        let j = (((1u64 << 53) / five) + 1 + rng.next_u64() % ((1u64 << 53) / five).max(1)) | 1;
        if (j as u128 * five as u128) >> 53 == 1 {
            for w in [j - 1, j, j + 1, j << rng.next_index(4)] {
                tokens.push(format!("{w}e{q}"));
            }
        }
    }
    for fixed in [
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "9007199254740994",
        "-0.0",
        "-0",
        "0e0",
        "-0e-22",
        "0.0000000000000000000000",
        "1e22",
        "1e-22",
        "9999999999999999999e22",
        "1e23",
        "1e-23",
        "12345678901234567890",
        "0.12345678901234567890",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "inf",
        "-inf",
        "+infinity",
        "NaN",
        "nan",
        "1e308",
        "1e309",
        "-1e400",
        "4.9e-324",
        "2.2250738585072014e-308",
        "2.2250738585072011e-308",
        "1e-400",
        "5e-325",
        "123456789012345678e-340",
        "1e99999999999999999999",
        "1e-99999999999999999999",
        "000000000000000000000000000001",
        "0.000000000000000000000000000001e30",
    ] {
        tokens.push(fixed.to_string());
    }
    check_tokens(&tokens, "ties and edges");
}

/// The hit rate on an `export_packed_csv`-style file: every field of the
/// benchmark's population must take the exact fast path. At the parent
/// commit (Clinger only, mantissa ≤ 2^53) this measured 0.520.
#[test]
fn fast_path_takes_the_packed_csv_population() {
    let ds = dataio::generate(&dataio::SyntheticSpec {
        rows: if cfg!(debug_assertions) { 60 } else { 400 },
        cols: 3000,
        kind: dataio::ClassSpec::Classification {
            classes: 10,
            separation: 0.8,
        },
        noise: 1.4,
        seed: 0xDA7A,
    });
    let dir = scratch();
    let path = dir.join("packed.csv");
    let mut text = String::new();
    for row in ds.features.chunks(ds.cols) {
        let fields: Vec<String> = row.iter().map(|&x| format!("{}", x as f64)).collect();
        text.push_str(&fields.join(","));
        text.push('\n');
    }
    std::fs::write(&path, &text).unwrap();
    let (mut hits, mut total) = (0usize, 0usize);
    for line in text.lines() {
        for token in line.split(',') {
            total += 1;
            hits += usize::from(parse_f64_fast(token.as_bytes()).is_some());
        }
    }
    let rate = hits as f64 / total as f64;
    assert!(
        rate >= 0.999,
        "fast-path hit rate {rate:.4} ({hits} of {total})"
    );
    // And the file reads back to exactly the values written.
    let (frame, _) = read_turbo_with_threads(&path, 2).unwrap();
    let back = frame.to_f32_matrix();
    assert_eq!(back.len(), ds.features.len());
    assert!(back
        .iter()
        .zip(&ds.features)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

// ---------------------------------------------------------------------------
// Robustness of the parallel front end
// ---------------------------------------------------------------------------

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// What a read produced, comparable across engines: the frame, or the
/// error's text.
fn outcome(r: Result<(Frame, dataio::LoadStats), dataio::DataError>) -> Result<Frame, String> {
    match r {
        Ok((frame, _)) => Ok(frame),
        Err(e @ dataio::DataError::Malformed(_)) => Err(e.to_string()),
        Err(other) => panic!("not a Malformed error: {other}"),
    }
}

/// Frame equality that holds for NaN cells too: floats compare by bits.
fn same_frame(a: &Frame, b: &Frame) -> bool {
    a.ncols() == b.ncols()
        && a.columns().iter().zip(b.columns()).all(|pair| match pair {
            (Column::Float64(x), Column::Float64(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (x, y) => x == y,
        })
}

/// Turbo at every thread count must do what the chunked reference does
/// with the same bytes: the same frame, or the same `Malformed` text.
fn assert_turbo_matches_chunked(path: &std::path::Path, bytes: &[u8], ctx: &str) {
    std::fs::write(path, bytes).unwrap();
    let reference = outcome(read_csv(path, ReadStrategy::ChunkedLowMemory));
    for threads in THREADS {
        let turbo = outcome(read_turbo_with_threads(path, threads));
        match (&turbo, &reference) {
            (Ok(a), Ok(b)) => {
                assert!(same_frame(a, b), "{ctx}, {threads} threads: frames differ")
            }
            (a, b) => assert_eq!(
                a.as_ref().err(),
                b.as_ref().err(),
                "{ctx}, {threads} threads: turbo ok={} chunked ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

/// A numeric file big enough that eight threads get eight partitions.
fn big_numeric_csv(rng: &mut impl RandomSource, ending: &str, final_newline: bool) -> Vec<u8> {
    let mut text = String::new();
    let rows = 12_000;
    for r in 0..rows {
        for c in 0..6 {
            if c > 0 {
                text.push(',');
            }
            text.push_str(&format!("{}", (rng.next_f32() - 0.5) as f64));
        }
        if r + 1 < rows || final_newline {
            text.push_str(ending);
        }
        if r % 7 == 3 {
            text.push_str(ending); // a blank line
        }
    }
    assert!(text.len() > 8 * 64 * 1024, "too small to split eight ways");
    text.into_bytes()
}

#[test]
fn truncated_flipped_and_garbage_buffers_never_depend_on_the_thread_count() {
    let mut rng = xrng::seeded(0xBAD_C5F);
    let dir = scratch();
    let path = dir.join("hostile.csv");
    let cases = if cfg!(debug_assertions) { 6 } else { 40 };
    let clean = big_numeric_csv(&mut rng, "\r\n", true);
    assert_turbo_matches_chunked(&path, &clean, "clean");

    for case in 0..cases {
        // Truncation: anywhere, and right after a `\r`.
        let mut cut = 1 + rng.next_index(clean.len() - 1);
        if case % 2 == 0 {
            cut = clean[..cut]
                .iter()
                .rposition(|&b| b == b'\r')
                .map_or(cut, |p| p + 1);
        }
        assert_turbo_matches_chunked(&path, &clean[..cut], &format!("truncated at {cut}"));

        // One to three flipped bits.
        let mut flipped = clean.clone();
        let mut where_ = Vec::new();
        for _ in 0..1 + rng.next_index(3) {
            let at = rng.next_index(flipped.len());
            flipped[at] ^= 1 << rng.next_index(8);
            where_.push(at);
        }
        assert_turbo_matches_chunked(&path, &flipped, &format!("bits flipped at {where_:?}"));

        // Garbage: raw bytes, and noise over the CSV alphabet.
        let len = 1 + rng.next_index(700_000);
        let raw: Vec<u8> = (0..len.min(4096)).map(|_| rng.next_u64() as u8).collect();
        assert_turbo_matches_chunked(&path, &raw, &format!("raw garbage #{case}"));
        let alphabet = b"0123456789012345678901234567890123456789,,,,,,,..--++eE \t\r\n\n\n\x0bxN";
        let noise: Vec<u8> = (0..len)
            .map(|_| alphabet[rng.next_index(alphabet.len())])
            .collect();
        assert_turbo_matches_chunked(&path, &noise, &format!("alphabet noise #{case}"));
    }

    // Corners of their own: a lone `\r` left at the end, NULs, a BOM.
    for (name, bytes) in [
        ("lone trailing cr", &b"1,2\r\n\r"[..]),
        ("cr only", &b"\r"[..]),
        ("trailing cr after a row", &b"1,2\r\n3,4\r"[..]),
        ("nul bytes", &b"1,2\n\0,3\n"[..]),
        ("bom", &b"\xEF\xBB\xBF1,2\n3,4\n"[..]),
        ("unicode space", "1,\u{2003}2\n3,4\n".as_bytes()),
    ] {
        assert_turbo_matches_chunked(&path, bytes, name);
    }
}

/// Line endings, blank lines and a missing final newline moved one byte at
/// a time across the partition cuts: growing the first token shifts every
/// later byte, so over the sweep each cut lands on each byte of a
/// `\r\n`, on a blank line, and on the first and last byte of a record.
#[test]
fn line_endings_on_partition_cuts_read_like_the_chunked_reference() {
    let mut rng = xrng::seeded(0xC075);
    let dir = scratch();
    let path = dir.join("cuts.csv");
    let step = if cfg!(debug_assertions) { 5 } else { 1 };
    let mut on_cr = 0;
    let mut on_lf = 0;
    for (ending, final_newline) in [("\r\n", true), ("\n", true), ("\n", false), ("\r\n", false)] {
        let body = big_numeric_csv(&mut rng, ending, final_newline);
        for shift in (0..24).step_by(step) {
            let mut bytes = vec![b'0'; shift];
            bytes.extend_from_slice(&body);
            // Where an even split of the file would cut, before the cut
            // moves on to the next line start.
            for t in THREADS {
                for i in 1..t {
                    match bytes[bytes.len() * i / t] {
                        b'\r' => on_cr += 1,
                        b'\n' => on_lf += 1,
                        _ => {}
                    }
                }
            }
            let ctx = format!("ending {ending:?} final newline {final_newline} shift {shift}");
            assert_turbo_matches_chunked(&path, &bytes, &ctx);
        }
    }
    if !cfg!(debug_assertions) {
        assert!(
            on_cr > 0 && on_lf > 0,
            "the sweep missed the line ends: cr {on_cr} lf {on_lf}"
        );
    }
}
