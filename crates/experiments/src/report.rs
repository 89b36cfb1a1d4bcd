//! Plain-text report rendering.

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Stable identifier (`"fig6"`, `"table3"`, ...).
    pub id: &'static str,
    /// Human title echoing the paper's caption.
    pub title: &'static str,
    /// Rendered text body (aligned columns).
    pub text: String,
}

impl Experiment {
    /// Writes the rendered report to `<dir>/<id>.txt`, creating the
    /// directory if needed. Returns the path written.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.txt", self.id));
        std::fs::write(&path, format!("{self}"))?;
        Ok(path)
    }
}

impl std::fmt::Display for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        write!(f, "{}", self.text)
    }
}

/// Renders rows as an aligned text table with a header row and a rule.
///
/// # Panics
/// Panics if any row's width differs from the header's.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats seconds with sensible precision.
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["GPUs", "time"],
            &[
                vec!["1".into(), "10.3".into()],
                vec!["384".into(), "22.1".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("GPUs"));
        assert!(lines[1].starts_with('-'));
        // Right-aligned numbers line up.
        assert!(lines[2].ends_with("10.3"));
        assert!(lines[3].ends_with("22.1"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        format_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(secs(123.456), "123");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(pct(67.684), "67.68%");
    }

    #[test]
    fn write_to_creates_file() {
        let e = Experiment {
            id: "test_exp",
            title: "T",
            text: "body\n".into(),
        };
        let dir = parx::scratch("report_tests").unwrap();
        let path = e.write_to(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("test_exp"));
    }

    #[test]
    fn experiment_display() {
        let e = Experiment {
            id: "fig1",
            title: "Test",
            text: "body\n".into(),
        };
        let s = e.to_string();
        assert!(s.starts_with("=== fig1 — Test ==="));
        assert!(s.ends_with("body\n"));
    }
}
