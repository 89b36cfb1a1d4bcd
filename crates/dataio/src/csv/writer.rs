//! CSV writing for synthetic dataset files.

use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes a row-major `f32` matrix as headerless CSV, the format of the
/// CANDLE training matrices (`nt_train2.csv` etc.). Values are written with
/// enough precision to round-trip through `f32`.
///
/// Returns the number of bytes written.
pub fn write_matrix_csv(
    path: &Path,
    data: &[f32],
    rows: usize,
    cols: usize,
) -> std::io::Result<u64> {
    assert_eq!(
        data.len(),
        rows * cols,
        "matrix dims do not match data length"
    );
    let file = std::fs::File::create(path)?;
    let mut w = CountingWriter {
        inner: BufWriter::with_capacity(1 << 20, file),
        bytes: 0,
    };
    let mut buf = Vec::with_capacity(cols * 12);
    for r in 0..rows {
        buf.clear();
        for c in 0..cols {
            if c > 0 {
                buf.push(b',');
            }
            let v = data[r * cols + c];
            // Integers print exactly; everything else gets shortest-roundtrip.
            if v.fract() == 0.0 && v.abs() < 1e7 {
                write!(&mut buf, "{}", v as i64)?;
            } else {
                write!(&mut buf, "{v}")?;
            }
        }
        buf.push(b'\n');
        w.write_all(&buf)?;
    }
    w.inner.flush()?;
    Ok(w.bytes)
}

struct CountingWriter<W: Write> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch() -> parx::Scratch {
        parx::scratch("csv_tests").expect("scratch dir")
    }

    #[test]
    fn writes_expected_text() {
        let dir = scratch();
        let path = dir.join("small.csv");
        let bytes = write_matrix_csv(&path, &[1.0, 2.5, 3.0, 4.0], 2, 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "1,2.5\n3,4\n");
        assert_eq!(bytes, text.len() as u64);
    }

    #[test]
    fn roundtrips_through_reader() {
        let dir = scratch();
        let path = dir.join("roundtrip.csv");
        let data: Vec<f32> = (0..30).map(|i| i as f32 * 0.25).collect();
        write_matrix_csv(&path, &data, 5, 6).unwrap();
        let (frame, _) =
            crate::csv::read_csv(&path, crate::csv::ReadStrategy::ChunkedLowMemory).unwrap();
        assert_eq!(frame.nrows(), 5);
        assert_eq!(frame.ncols(), 6);
        let back = frame.to_f32_matrix();
        assert_eq!(back, data);
    }

    #[test]
    #[should_panic(expected = "dims do not match")]
    fn dims_validated() {
        let dir = scratch();
        let path = dir.join("bad.csv");
        let _ = write_matrix_csv(&path, &[1.0], 2, 2);
    }
}
