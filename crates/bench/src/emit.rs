//! The **bench-emit-v1** JSON schema every `bench_json` suite emits.
//!
//! A suite builds a [`Doc`] — a benchmark name, the quick/optimized flags,
//! a [`Host`] fingerprint, and named [`Series`] of [`Point`]s over declared
//! scale axes with `seconds`/`joules` as first-class metrics — and
//! `bench_json` merges the emitted files into the **bench-index-v1**
//! manifest (`BENCH_INDEX.json`) that `perfmodel` ingests for scaling-law
//! fitting and the CI perf-regression gate. The reader lives in
//! `perfmodel::ingest`; this writer and that parser are pinned to each
//! other by round-trip tests.

use perfmodel::json::escape;

/// Host identity recorded in every emitted document, so fitted models and
/// regression flags are never compared across machines by accident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Operating system (`std::env::consts::OS`).
    pub os: &'static str,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// Available hardware threads.
    pub threads: usize,
}

impl Host {
    /// Probes the current host.
    pub fn detect() -> Host {
        Host {
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }

    /// The `os-arch-Nt` fingerprint string.
    pub fn fingerprint(&self) -> String {
        format!("{}-{}-{}t", self.os, self.arch, self.threads)
    }
}

/// One measured point: scale-axis coordinates plus metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Point {
    axes: Vec<(String, f64)>,
    seconds: Option<f64>,
    joules: Option<f64>,
    metrics: Vec<(String, f64)>,
    labels: Vec<(String, String)>,
}

impl Point {
    /// Starts a point at one scale-axis coordinate.
    pub fn at(axis: &str, scale: f64) -> Point {
        Point::default().axis(axis, scale)
    }

    /// Adds another axis coordinate.
    pub fn axis(mut self, name: &str, value: f64) -> Point {
        self.axes.push((name.to_string(), value));
        self
    }

    /// Sets the wall-clock seconds metric.
    pub fn seconds(mut self, s: f64) -> Point {
        self.seconds = Some(s);
        self
    }

    /// Sets the energy metric.
    pub fn joules(mut self, j: f64) -> Point {
        self.joules = Some(j);
        self
    }

    /// Adds a named numeric metric.
    pub fn metric(mut self, name: &str, value: f64) -> Point {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Adds a free-form string label.
    pub fn label(mut self, name: &str, value: &str) -> Point {
        self.labels.push((name.to_string(), value.to_string()));
        self
    }
}

/// One named series of points varying over a declared scale axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    scale_axis: String,
    points: Vec<Point>,
}

impl Series {
    /// A new empty series.
    pub fn new(name: &str, scale_axis: &str) -> Series {
        Series {
            name: name.to_string(),
            scale_axis: scale_axis.to_string(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Builder-style [`Series::push`].
    pub fn with(mut self, p: Point) -> Series {
        self.push(p);
        self
    }
}

/// A full bench-emit-v1 document.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    benchmark: String,
    quick: bool,
    host: Host,
    series: Vec<Series>,
}

impl Doc {
    /// A new document for the named benchmark; the host is probed and the
    /// optimized-build flag taken from the compile profile.
    pub fn new(benchmark: &str, quick: bool) -> Doc {
        Doc {
            benchmark: benchmark.to_string(),
            quick,
            host: Host::detect(),
            series: Vec::new(),
        }
    }

    /// Appends a series, builder-style.
    pub fn with(mut self, s: Series) -> Doc {
        self.series.push(s);
        self
    }

    /// Renders the document as bench-emit-v1 JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"bench-emit-v1\",\n");
        out.push_str(&format!("  \"benchmark\": \"{}\",\n", escape(&self.benchmark)));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"optimized_build\": {},\n",
            !cfg!(debug_assertions)
        ));
        out.push_str(&format!(
            "  \"host\": {{\"fingerprint\": \"{}\", \"threads\": {}, \
             \"arch\": \"{}\", \"os\": \"{}\"}},\n",
            escape(&self.host.fingerprint()),
            self.host.threads,
            escape(self.host.arch),
            escape(self.host.os)
        ));
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", escape(&s.name)));
            out.push_str(&format!(
                "      \"scale_axis\": \"{}\",\n",
                escape(&s.scale_axis)
            ));
            out.push_str("      \"points\": [\n");
            for (j, p) in s.points.iter().enumerate() {
                out.push_str("        {");
                out.push_str(&format!("\"axes\": {}", num_map(&p.axes)));
                out.push_str(&format!(", \"seconds\": {}", num_or_null(p.seconds)));
                out.push_str(&format!(", \"joules\": {}", num_or_null(p.joules)));
                if !p.metrics.is_empty() {
                    out.push_str(&format!(", \"metrics\": {}", num_map(&p.metrics)));
                }
                if !p.labels.is_empty() {
                    let pairs: Vec<String> = p
                        .labels
                        .iter()
                        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
                        .collect();
                    out.push_str(&format!(", \"labels\": {{{}}}", pairs.join(", ")));
                }
                out.push_str(if j + 1 == s.points.len() { "}\n" } else { "},\n" });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 == self.series.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Series names in emission order.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.iter().map(|s| s.name.as_str()).collect()
    }
}

/// Number rendering for the emitter: JSON has no NaN/Infinity, so
/// non-finite values become `null`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        String::from("null")
    }
}

fn num_or_null(x: Option<f64>) -> String {
    x.map(num).unwrap_or_else(|| String::from("null"))
}

fn num_map(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", escape(k), num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Doc {
        Doc::new("overlap \"test\"", true)
            .with(
                Series::new("overlapped_epoch", "workers")
                    .with(
                        Point::at("workers", 1.0)
                            .seconds(2.5)
                            .metric("speedup", 1.0)
                            .label("bench", "NT3"),
                    )
                    .with(Point::at("workers", 2.0).seconds(1.4).joules(10.0)),
            )
            .with(Series::new("empty", "workers"))
    }

    #[test]
    fn emitted_doc_round_trips_through_perfmodel_ingest() {
        let json = sample_doc().to_json();
        let doc = perfmodel::parse_doc(&json).expect("perfmodel parses our output");
        assert_eq!(doc.benchmark, "overlap \"test\"");
        assert!(doc.quick);
        assert_eq!(doc.optimized_build, !cfg!(debug_assertions));
        assert_eq!(doc.host_fingerprint, Host::detect().fingerprint());
        assert_eq!(doc.series.len(), 2);
        let s = &doc.series[0];
        assert_eq!(s.scale_axis, "workers");
        assert_eq!(s.points[0].axis("workers"), Some(1.0));
        assert_eq!(s.points[0].seconds, Some(2.5));
        assert_eq!(s.points[0].joules, None);
        assert_eq!(s.points[1].joules, Some(10.0));
        assert_eq!(
            s.points[0].metrics,
            vec![("speedup".to_string(), 1.0)]
        );
    }

    #[test]
    fn non_finite_values_emit_null() {
        let doc = Doc::new("x", false).with(
            Series::new("s", "n").with(Point::at("n", 1.0).seconds(f64::NAN).joules(f64::INFINITY)),
        );
        let parsed = perfmodel::parse_doc(&doc.to_json()).expect("parse");
        assert_eq!(parsed.series[0].points[0].seconds, None);
        assert_eq!(parsed.series[0].points[0].joules, None);
    }

    #[test]
    fn fingerprint_shape() {
        let h = Host {
            os: "linux",
            arch: "x86_64",
            threads: 8,
        };
        assert_eq!(h.fingerprint(), "linux-x86_64-8t");
    }
}
