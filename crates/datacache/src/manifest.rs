//! The cache manifest: one small text file per cached dataset describing
//! its shards, keyed by a content hash of the source.
//!
//! The key hashes what the paper's setting makes observable about a source
//! without re-reading it — path, byte size, mtime, and the parse strategy
//! that would have been used — so a changed CSV (or a different parse
//! strategy) misses the cache instead of serving stale rows. The manifest
//! itself is `key=value` lines, human-inspectable and dependency-free.

use crate::format::{fnv1a64_extend, FNV_OFFSET};
use crate::CacheError;
use std::path::Path;

/// Manifest format version. Version 2 lists XXH64-sealed version-2
/// shards; a version-1 manifest (FNV-1a shards) fails to parse, so its
/// dataset is rebuilt cold instead of warm-hitting shards that all fail.
pub const MANIFEST_VERSION: u32 = 2;

/// One shard file registered in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// File name relative to the manifest's directory.
    pub file: String,
    /// Row offset of the shard's first row in the source frame.
    pub start_row: usize,
    /// Rows stored in the shard.
    pub rows: usize,
    /// Encoded size in bytes (including header and checksum).
    pub bytes: u64,
    /// The shard's trailing XXH64 checksum, duplicated here so a warm
    /// load can cross-check file identity before decoding: a file that
    /// checksums clean but is not the one this manifest wrote fails there.
    pub checksum: u64,
}

/// A cached dataset's table of contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version (see [`MANIFEST_VERSION`]).
    pub version: u32,
    /// Content hash of the source this cache was built from.
    pub source_key: u64,
    /// Human-readable description of the source (path or generator spec).
    pub source: String,
    /// Total rows across all shards.
    pub nrows: usize,
    /// Columns per shard.
    pub ncols: usize,
    /// Free-form integration tag (e.g. train/test split metadata).
    pub tag: String,
    /// The shards, ordered by `start_row`.
    pub shards: Vec<ShardEntry>,
}

/// Hashes the identity of a source into a cache key: every field that, if
/// changed, must invalidate the cache.
pub fn source_key(source_desc: &str, size_bytes: u64, mtime_unix_ns: u128, strategy: &str) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a64_extend(h, source_desc.as_bytes());
    h = fnv1a64_extend(h, &size_bytes.to_le_bytes());
    h = fnv1a64_extend(h, &mtime_unix_ns.to_le_bytes());
    h = fnv1a64_extend(h, strategy.as_bytes());
    h
}

/// Computes the cache key for a CSV file on disk from its path, size, and
/// modification time plus the parse strategy label.
pub fn source_key_for_file(path: &Path, strategy: &str) -> Result<u64, CacheError> {
    let meta = std::fs::metadata(path)?;
    let mtime = meta
        .modified()?
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    Ok(source_key(
        &path.to_string_lossy(),
        meta.len(),
        mtime,
        strategy,
    ))
}

impl Manifest {
    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("version={}\n", self.version));
        out.push_str(&format!("source_key={:016x}\n", self.source_key));
        out.push_str(&format!("source={}\n", self.source));
        out.push_str(&format!("nrows={}\n", self.nrows));
        out.push_str(&format!("ncols={}\n", self.ncols));
        out.push_str(&format!("tag={}\n", self.tag));
        out.push_str(&format!("shards={}\n", self.shards.len()));
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "shard.{i}={},{},{},{},{:016x}\n",
                s.file, s.start_row, s.rows, s.bytes, s.checksum
            ));
        }
        out
    }

    /// Parses the text format, validating structure and totals.
    pub fn parse(text: &str) -> Result<Self, CacheError> {
        fn field<'a>(
            lines: &mut impl Iterator<Item = &'a str>,
            key: &str,
        ) -> Result<&'a str, CacheError> {
            let line = lines
                .next()
                .ok_or_else(|| CacheError::Corrupt(format!("manifest missing `{key}`")))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| CacheError::Corrupt(format!("expected `{key}=...`, got `{line}`")))
        }
        fn bad(what: &str, v: &str) -> CacheError {
            CacheError::Corrupt(format!("manifest: bad {what} `{v}`"))
        }

        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let version: u32 = {
            let v = field(&mut lines, "version")?;
            v.parse().map_err(|_| bad("version", v))?
        };
        if version != MANIFEST_VERSION {
            return Err(CacheError::Corrupt(format!(
                "unsupported manifest version {version}"
            )));
        }
        let source_key = {
            let v = field(&mut lines, "source_key")?;
            u64::from_str_radix(v, 16).map_err(|_| bad("source_key", v))?
        };
        let source = field(&mut lines, "source")?.to_string();
        let nrows: usize = {
            let v = field(&mut lines, "nrows")?;
            v.parse().map_err(|_| bad("nrows", v))?
        };
        let ncols: usize = {
            let v = field(&mut lines, "ncols")?;
            v.parse().map_err(|_| bad("ncols", v))?
        };
        let tag = field(&mut lines, "tag")?.to_string();
        let nshards: usize = {
            let v = field(&mut lines, "shards")?;
            v.parse().map_err(|_| bad("shards", v))?
        };

        let mut shards = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let v = field(&mut lines, &format!("shard.{i}"))?;
            let parts: Vec<&str> = v.split(',').collect();
            if parts.len() != 5 {
                return Err(bad("shard entry", v));
            }
            shards.push(ShardEntry {
                file: parts[0].to_string(),
                start_row: parts[1].parse().map_err(|_| bad("shard start_row", v))?,
                rows: parts[2].parse().map_err(|_| bad("shard rows", v))?,
                bytes: parts[3].parse().map_err(|_| bad("shard bytes", v))?,
                checksum: u64::from_str_radix(parts[4], 16)
                    .map_err(|_| bad("shard checksum", v))?,
            });
        }

        let manifest = Manifest {
            version,
            source_key,
            source,
            nrows,
            ncols,
            tag,
            shards,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Structural invariants: shards tile `[0, nrows)` in order.
    fn validate(&self) -> Result<(), CacheError> {
        let mut cursor = 0usize;
        for (i, s) in self.shards.iter().enumerate() {
            if s.start_row != cursor {
                return Err(CacheError::Corrupt(format!(
                    "shard {i} starts at row {} but previous shards end at {cursor}",
                    s.start_row
                )));
            }
            cursor += s.rows;
        }
        if cursor != self.nrows {
            return Err(CacheError::Corrupt(format!(
                "shards cover {cursor} rows, manifest claims {}",
                self.nrows
            )));
        }
        Ok(())
    }

    /// Writes the manifest into `dir` as `manifest.txt`.
    pub fn write_to(&self, dir: &Path) -> Result<(), CacheError> {
        std::fs::write(dir.join("manifest.txt"), self.to_text())?;
        Ok(())
    }

    /// Loads `manifest.txt` from `dir`.
    pub fn load_from(dir: &Path) -> Result<Self, CacheError> {
        let text = std::fs::read_to_string(dir.join("manifest.txt"))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            source_key: 0xDEAD_BEEF_0000_1234,
            source: "/tmp/nt3.csv".into(),
            nrows: 10,
            ncols: 3,
            tag: "ycols=1;test_rows=2".into(),
            shards: vec![
                ShardEntry {
                    file: "shard-0000.bin".into(),
                    start_row: 0,
                    rows: 6,
                    bytes: 512,
                    checksum: 0xAA,
                },
                ShardEntry {
                    file: "shard-0001.bin".into(),
                    start_row: 6,
                    rows: 4,
                    bytes: 400,
                    checksum: 0xBB,
                },
            ],
        }
    }

    #[test]
    fn text_round_trip() {
        let m = sample();
        let parsed = Manifest::parse(&m.to_text()).unwrap();
        assert_eq!(m, parsed);
    }

    #[test]
    fn parse_rejects_gap_in_shards() {
        let mut m = sample();
        m.shards[1].start_row = 7;
        assert!(Manifest::parse(&m.to_text()).is_err());
    }

    #[test]
    fn parse_rejects_row_total_mismatch() {
        let mut m = sample();
        m.nrows = 11;
        assert!(Manifest::parse(&m.to_text()).is_err());
    }

    #[test]
    fn parse_rejects_missing_fields_and_garbage() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("version=1\n").is_err());
        assert!(Manifest::parse("version=not-a-number\n").is_err());
        let mut text = sample().to_text();
        text = text.replace("shard.1=", "shardX1=");
        assert!(Manifest::parse(&text).is_err());
    }

    #[test]
    fn source_key_sensitive_to_every_field() {
        let base = source_key("a.csv", 100, 999, "pandas");
        assert_ne!(base, source_key("b.csv", 100, 999, "pandas"));
        assert_ne!(base, source_key("a.csv", 101, 999, "pandas"));
        assert_ne!(base, source_key("a.csv", 100, 998, "pandas"));
        assert_ne!(base, source_key("a.csv", 100, 999, "chunked"));
        assert_eq!(base, source_key("a.csv", 100, 999, "pandas"));
    }

    #[test]
    fn write_and_load_from_dir() {
        let dir = parx::scratch("datacache_manifest").expect("scratch dir");
        let m = sample();
        m.write_to(&dir).unwrap();
        let loaded = Manifest::load_from(&dir).unwrap();
        assert_eq!(m, loaded);
    }
}
