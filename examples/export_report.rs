//! Writes every regenerated table/figure (and the ablations) to
//! `out/report/<id>.txt` for archival or diffing against a previous run.
//!
//! ```text
//! cargo run --release --example export_report
//! ```

fn main() {
    let dir = std::path::Path::new("out/report");
    let mut count = 0;
    for experiment in experiments::all(true)
        .into_iter()
        .chain(experiments::ablations())
    {
        let path = experiment.write_to(dir).expect("write report");
        println!("wrote {}", path.display());
        count += 1;
    }
    println!("{count} reports under {}", dir.display());
}
