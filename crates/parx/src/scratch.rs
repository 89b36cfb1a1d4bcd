//! Scratch directories for tests, examples and the drivers that measure
//! real files: the one place in the workspace that names the system temp
//! dir.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A directory under the system temp dir, removed on drop.
pub struct Scratch(PathBuf);

/// Creates `candle_repro_<tag>_<pid>_<n>`, `n` counting calls in this
/// process: two drivers (or two tests on parallel threads) that pick the
/// same tag still get directories of their own, so one's clean-up cannot
/// delete the other's files mid-read.
pub fn scratch(tag: &str) -> std::io::Result<Scratch> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("candle_repro_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&path).map_err(|e| {
        std::io::Error::new(e.kind(), format!("cannot create {}: {e}", path.display()))
    })?;
    Ok(Scratch(path))
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// Makes `&Scratch: Into<PathBuf>`, which is what the stores' constructors
/// take.
impl AsRef<std::ffi::OsStr> for Scratch {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.0.as_os_str()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_gets_distinct_directories_removed_on_drop() {
        let a = scratch("scratch_test").unwrap();
        let b = scratch("scratch_test").unwrap();
        assert_ne!(&*a, &*b);
        std::fs::write(a.join("f"), b"x").unwrap();
        let (pa, pb) = (a.to_path_buf(), b.to_path_buf());
        drop(a);
        assert!(!pa.exists());
        assert!(pb.is_dir(), "dropping one scratch must not touch the other");
        drop(b);
        assert!(!pb.exists());
    }
}
