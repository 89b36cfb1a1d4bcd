//! Scratch directories, memory pre-touch and the process's own counters.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark's own directory in the checkout it runs from. `cargo run`
/// exports the manifest directory at run time; the compile-time value
/// covers a binary started by hand.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Where results, traces and scratch files go: `benchmark/out/`, which is
/// inside the checkout (the driver allows no write outside it) and ignored
/// by git.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// The filesystem kind backing `path`, read from `/proc/mounts` (longest
/// mount-point prefix wins): `tmpfs` scratch is memory, anything else is
/// recorded as `disk`, where dirty-page write-back of the shard files adds
/// run-to-run noise to the cold loads.
pub fn scratch_fs(path: &Path) -> &'static str {
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "disk";
    };
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let best = mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len);
    match best {
        Some((_, "tmpfs" | "ramfs")) => "tmpfs",
        _ => "disk",
    }
}

/// A scratch directory unique per process and call, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<root>/<pid>-<counter>-<tag>`.
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Scratch> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the counter only has to hand out distinct numbers.
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure while unwinding; a
        // leftover directory is inside `out/`, which git ignores.
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Writes one byte to every page of a fresh `bytes`-sized allocation and
/// frees it, so the first-touch cost of memory this machine has not handed
/// to the process before is paid in set-up, not billed to iteration 1.
pub fn touch_and_free(bytes: usize) {
    let mut block = vec![0u8; bytes];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`. The tick length is the Linux `USER_HZ` of 100, which
/// is fixed on every architecture this workspace builds for.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields are counted after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the pre-touch block does
/// not hide the workload's own peak. Returns false where the kernel does
/// not allow it; the reported peak then includes the pre-touch.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let root = out_dir().join("scratch-test");
        let (a, b) = (
            Scratch::new(&root, "x").unwrap(),
            Scratch::new(&root, "x").unwrap(),
        );
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"1").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
        drop(b);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn process_counters_read_on_linux() {
        if !Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(["tmpfs", "disk"].contains(&scratch_fs(Path::new("/"))));
    }
}
