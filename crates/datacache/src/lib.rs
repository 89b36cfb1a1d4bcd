//! `datacache` — a sharded binary dataset cache.
//!
//! The paper's headline finding is that `pandas.read_csv()` dominates total
//! runtime at scale; `dataio` reproduces the parse-*strategy* comparison,
//! but every run still re-parses the full CSV. This crate goes the next
//! step the related work takes (binary caches keyed by content hash):
//!
//! * [`shard`] + [`format`] — a compact little-endian columnar encoding of
//!   a [`dataio::Frame`] split into N row-range shards, each carrying a
//!   header (magic, version, dtype table, row/col counts) and sealed with
//!   an XXH64 checksum ([`format::xxh64`], also `resil`'s checkpoint
//!   seal); decode names a wrong magic or version before it hashes.
//! * [`manifest`] — a small text manifest keyed by a content hash of the
//!   source (path, size, mtime, parse strategy), so a cold run parses CSV
//!   once and writes shards, and every warm run or rank loads its shards
//!   directly.
//! * [`store`] — [`CacheStore`]: the cold/warm decision, shard writing and
//!   verified reloading (each shard's trailer cross-checked against the
//!   manifest before it is hashed). A warm load reads, checksums and
//!   decodes its shards side by side ([`CachedDataset::load_all`]); the
//!   streaming read-ahead over decoded shards is `datapipe`'s.

pub mod format;
pub mod manifest;
pub mod shard;
pub mod store;

pub use manifest::{source_key_for_file, Manifest, ShardEntry};
pub use shard::{decode_shard, encode_shard, DecodedShard};
pub use store::{CacheOutcome, CacheStore, CachedDataset};

/// Errors from cache encoding, decoding, and I/O.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Shard or manifest contents failed validation (bad magic, version,
    /// checksum mismatch, truncation, ...).
    Corrupt(String),
    /// Error surfaced from the `dataio` layer while building the cache.
    Data(dataio::DataError),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io error: {e}"),
            CacheError::Corrupt(msg) => write!(f, "corrupt cache: {msg}"),
            CacheError::Data(e) => write!(f, "cache build error: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

impl From<dataio::DataError> for CacheError {
    fn from(e: dataio::DataError) -> Self {
        CacheError::Data(e)
    }
}
