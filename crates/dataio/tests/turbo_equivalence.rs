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
        1 => format!("{sign}{}.{:02}25", rng.next_index(1000), rng.next_index(100)),
        2 => format!("{sign}{}.{}e-{}", rng.next_index(10), 1 + rng.next_index(9), 1 + rng.next_index(12)),
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
        assert_eq!((chunked.nrows(), chunked.ncols()), (rows, cols), "case {case}");
        assert_bit_identical(&chunked, &pandas, &format!("case {case}: pandas vs chunked"));

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
        ("single_wide_row", "1.5,2.5,3.5,4.5,5.5,6.5,7.5,8.5,9.5,10.5,11.5,12.5\n"),
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
