//! Proves the turbo parse hot path is allocation-free in steady state:
//! once the structural index and the column storage are warm (capacity
//! established by the first pass), re-scanning and re-parsing a buffer of
//! the same shape performs **zero** heap allocations — no per-row `Vec`s,
//! no token vectors, no fragment frames.
//!
//! Mirrors `dlframe/tests/alloc_hot_path.rs`: [`parx::CountingAlloc`] is
//! the global allocator, a warm-up phase establishes capacity, then this
//! thread's counter must not move across repeated steady-state passes.

use dataio::csv::turbo::{parse_into, scan, StructuralIndex};
use parx::{thread_allocs, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A numeric CSV buffer shaped like a (shrunken) NT3 slice: `rows` records
/// of 24 mixed int/decimal/scientific fields.
fn csv_buffer(rows: usize) -> Vec<u8> {
    let mut text = String::new();
    for r in 0..rows {
        for c in 0..24 {
            if c > 0 {
                text.push(',');
            }
            match (r + c) % 3 {
                0 => text.push_str(&format!("{}", r * 31 + c)),
                1 => text.push_str(&format!("{}.{:03}", c, (r * 7 + c) % 1000)),
                _ => text.push_str(&format!("{}e-{}", r % 97 + 1, c % 9 + 1)),
            }
        }
        text.push('\n');
    }
    text.into_bytes()
}

#[test]
fn steady_state_turbo_parse_allocates_nothing() {
    let bytes = csv_buffer(600);
    let mut idx = StructuralIndex::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    // Warm-up: establishes the index and column capacities.
    scan(&bytes, &mut idx).unwrap();
    assert!(parse_into(&bytes, &idx, &mut columns, 1));
    assert_eq!(idx.rows(), 600);
    assert_eq!(columns.len(), 24);

    let before = thread_allocs();
    assert!(
        before > 0,
        "building the buffer allocated: the counter must have seen it"
    );
    for _ in 0..5 {
        scan(&bytes, &mut idx).unwrap();
        assert!(parse_into(&bytes, &idx, &mut columns, 1));
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state scan+parse performed {} heap allocations",
        after - before
    );
    // The accounting also proves the passes actually parsed.
    assert_eq!(columns[0].len(), 600);
    assert_eq!(columns[0][0], 0.0);
    assert_eq!(columns[3][0], 3.0);
    assert_eq!(columns[1][0], 1.001);
}

/// Multi-threaded parses pay a constant per-call cost (scoped thread
/// spawns), never a per-row cost: octupling the row count must not grow
/// the allocation count of a warm parse. The count is the calling thread's,
/// which parses the first quarter of the rows itself.
#[test]
fn parallel_parse_allocations_are_row_count_independent() {
    let count_warm_passes = |rows: usize, passes: usize| -> u64 {
        let bytes = csv_buffer(rows);
        let mut idx = StructuralIndex::new();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        scan(&bytes, &mut idx).unwrap();
        assert!(parse_into(&bytes, &idx, &mut columns, 4));
        let before = thread_allocs();
        for _ in 0..passes {
            scan(&bytes, &mut idx).unwrap();
            assert!(parse_into(&bytes, &idx, &mut columns, 4));
        }
        thread_allocs() - before
    };
    let small = count_warm_passes(500, 4);
    let big = count_warm_passes(4000, 4);
    // 8x the rows: identical thread-spawn bookkeeping, zero per-row cost.
    // The margin absorbs allocator-internal variance in spawn bookkeeping.
    assert!(
        big <= small + 64,
        "allocations grew with row count: {small} at 500 rows vs {big} at 4000 rows"
    );
}
