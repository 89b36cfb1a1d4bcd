//! Checkpoint format and manager.
//!
//! A checkpoint captures *everything* a bit-exact resume needs: the flat
//! parameter vector, the optimizer's slot state (Adam/RMSProp moments and
//! step counts), the learning rate, the epoch counter, and the serialized
//! position of every `xrng` stream on every rank (epoch-shuffle plus each
//! dropout layer). Weights alone are not enough — resuming with a rewound
//! dropout mask or shuffle order diverges from the uninterrupted run on
//! the first batch.
//!
//! On-disk layout (`RCP1`, all integers little-endian, sibling of
//! `datacache`'s `CDS1` shard format):
//!
//! ```text
//! magic "RCP1" | version u16 = 2 | epoch u64 | lr f32-bits u32
//! | params  u64 count, f32-bits ×count
//! | slots   u64 count, per slot: t u64, m (u64 count + f32-bits), v (…)
//! | ranks   u64 count, per rank: u64 stream count, 32 bytes ×stream
//! | XXH64 (seed 0) checksum over everything above, u64
//! ```
//!
//! Version 1 was this layout sealed with FNV-1a-64; it is refused as
//! [`ResilError::Version`], never read.
//!
//! Writes are atomic (temp file + rename) so a crash mid-write can never
//! shadow a good checkpoint with a torn one; loads check magic and version,
//! then the checksum, then every length field before trusting a byte;
//! [`CheckpointManager`] rotates old files and
//! [`CheckpointManager::latest`] skips a corrupt newest checkpoint in
//! favour of an older intact one, and fails on anything else.

use crate::ResilError;
use datacache::format::{
    put_u16, put_u32, put_u64, put_words, seal, unseal, write_file, ByteReader, Unsealed,
};
use dlframe::{Sequential, SlotSnapshot};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file ("Resilience CheckPoint";
/// revisions of the format are told apart by [`VERSION`]).
pub const MAGIC: [u8; 4] = *b"RCP1";

/// Format version written into every checkpoint. Version 1 sealed the
/// same layout with FNV-1a-64; this build reads version 2 only.
pub const VERSION: u16 = 2;

/// The complete state of a data-parallel training run at an epoch
/// boundary. Parameters and optimizer slots are identical across ranks
/// (gradients are allreduce-averaged, so every replica walks the same
/// trajectory) and stored once; the RNG streams differ per rank and are
/// stored per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Epochs completed when this state was captured (the resume point).
    pub epoch: u64,
    /// Optimizer learning rate at capture time.
    pub lr: f32,
    /// Flat parameter vector (identical on every rank).
    pub params: Vec<f32>,
    /// Optimizer slot state (identical on every rank).
    pub slots: Vec<SlotSnapshot>,
    /// Per-rank serialized RNG streams, `rank_rngs[rank]` =
    /// [`dlframe::Sequential::rng_states`] of that rank's replica.
    pub rank_rngs: Vec<Vec<[u8; 32]>>,
}

impl TrainState {
    /// Bit-exact hash of the parameter vector.
    pub fn params_hash(&self) -> u64 {
        crate::hash_params(&self.params)
    }

    /// Captures everything one replica needs for a bit-exact resume; a
    /// data-parallel run captures rank 0 and appends the other ranks'
    /// [`Sequential::rng_states`] to `rank_rngs`.
    ///
    /// # Panics
    /// Panics if `model` is not compiled.
    pub fn capture(epoch: u64, model: &Sequential) -> Self {
        let opt = model.optimizer().expect("model is compiled");
        Self {
            epoch,
            lr: opt.learning_rate(),
            params: model.flat_params(),
            slots: opt.export_slots(),
            rank_rngs: vec![model.rng_states()],
        }
    }

    /// Restores this state into `model` as replica `rank`. A checkpoint
    /// written by a different architecture or world size is rejected as
    /// [`ResilError::Corrupt`] before the model is touched.
    ///
    /// # Panics
    /// Panics if `model` is not compiled.
    pub fn restore_into(&self, model: &mut Sequential, rank: usize) -> Result<(), ResilError> {
        if self.params.len() != model.param_count() {
            return Err(ResilError::Corrupt(format!(
                "parameter count mismatch: checkpoint {} vs model {}",
                self.params.len(),
                model.param_count()
            )));
        }
        let streams = self.rank_rngs.get(rank).ok_or_else(|| {
            ResilError::Corrupt(format!(
                "checkpoint holds {} ranks, rank {rank} wanted",
                self.rank_rngs.len()
            ))
        })?;
        let expected = model.rng_states().len();
        if streams.len() != expected {
            return Err(ResilError::Corrupt(format!(
                "rng stream count mismatch: checkpoint {} vs model {expected}",
                streams.len()
            )));
        }
        model.set_flat_params(&self.params);
        let opt = model.optimizer_mut().expect("model is compiled");
        opt.import_slots(self.slots.clone());
        opt.set_learning_rate(self.lr);
        model.set_rng_states(streams);
        Ok(())
    }
}

/// A length-prefixed `f32` vector, its bit patterns laid down as one slice.
fn put_f32_vec(buf: &mut Vec<u8>, v: &[f32]) {
    put_u64(buf, v.len() as u64);
    put_words(buf, v, f32::to_le_bytes);
}

/// Serializes a state to the `RCP1` byte layout (checksum included).
pub fn encode(state: &TrainState) -> Vec<u8> {
    let floats = state.params.len()
        + state
            .slots
            .iter()
            .map(|s| s.m.len() + s.v.len())
            .sum::<usize>();
    let streams: usize = state.rank_rngs.iter().map(|r| 8 + 32 * r.len()).sum();
    // The exact size (50 bytes of fixed fields, counts and checksum), so
    // the buffer is allocated once.
    let mut buf = Vec::with_capacity(50 + 24 * state.slots.len() + 4 * floats + streams);
    buf.extend_from_slice(&MAGIC);
    put_u16(&mut buf, VERSION);
    put_u64(&mut buf, state.epoch);
    put_u32(&mut buf, state.lr.to_bits());
    put_f32_vec(&mut buf, &state.params);
    put_u64(&mut buf, state.slots.len() as u64);
    for slot in &state.slots {
        put_u64(&mut buf, slot.t);
        put_f32_vec(&mut buf, &slot.m);
        put_f32_vec(&mut buf, &slot.v);
    }
    put_u64(&mut buf, state.rank_rngs.len() as u64);
    for streams in &state.rank_rngs {
        put_u64(&mut buf, streams.len() as u64);
        for s in streams {
            buf.extend_from_slice(s);
        }
    }
    seal(&mut buf);
    buf
}

/// Inverse of [`put_f32_vec`].
fn take_f32_vec(r: &mut ByteReader) -> Result<Vec<f32>, ResilError> {
    let n = r.count(4)?;
    Ok(r.take_words(n, f32::from_le_bytes)?)
}

/// Parses and validates an `RCP1` byte buffer.
///
/// A version some earlier build wrote (`1..VERSION`) is
/// [`ResilError::Version`]: the file is intact but unreadable here, and
/// skipping it would silently resume from older state. Any other version is
/// [`ResilError::Corrupt`] — it is what a flipped version bit makes (no
/// single-bit flip of 2 yields 1), and this build cannot tell a later
/// build's file from a rotted one.
pub fn decode(bytes: &[u8]) -> Result<TrainState, ResilError> {
    let mut r = unseal(bytes, MAGIC, VERSION).map_err(|e| match e {
        Unsealed::Version { found, supported } if (1..supported).contains(&found) => {
            ResilError::Version { found, supported }
        }
        other => ResilError::Corrupt(other.message("checkpoint")),
    })?;
    let epoch = r.take_u64()?;
    let lr = f32::from_bits(r.take_u32()?);
    let params = take_f32_vec(&mut r)?;
    let nslots = r.count(8)?;
    let mut slots = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        let t = r.take_u64()?;
        let m = take_f32_vec(&mut r)?;
        let v = take_f32_vec(&mut r)?;
        slots.push(SlotSnapshot { m, v, t });
    }
    let nranks = r.count(8)?;
    let mut rank_rngs = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let nstreams = r.count(32)?;
        let mut streams = Vec::with_capacity(nstreams);
        for _ in 0..nstreams {
            streams.push(r.take_bytes(32)?.try_into().expect("len 32"));
        }
        rank_rngs.push(streams);
    }
    if r.remaining() != 0 {
        return Err(ResilError::Corrupt(format!(
            "{} trailing bytes after checkpoint body",
            r.remaining()
        )));
    }
    Ok(TrainState {
        epoch,
        lr,
        params,
        slots,
        rank_rngs,
    })
}

/// Writes, rotates, and restores `RCP1` checkpoints in one directory.
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
    writes: u64,
    bytes_written: u64,
}

impl CheckpointManager {
    /// Opens (creating if needed) a checkpoint directory, retaining the
    /// `keep` most recent checkpoints on rotation.
    ///
    /// # Panics
    /// Panics if `keep == 0`.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, ResilError> {
        assert!(keep > 0, "checkpoint rotation must keep at least one");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            keep,
            writes: 0,
            bytes_written: 0,
        })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints written through this manager.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes written through this manager.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Atomically writes `state` as `ckpt-<epoch>.rcp` (temp file, then
    /// rename) and rotates old checkpoints beyond the retention count.
    pub fn save(&mut self, state: &TrainState) -> Result<PathBuf, ResilError> {
        let bytes = encode(state);
        let name = format!("ckpt-{:08}.rcp", state.epoch);
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        write_file(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        self.writes += 1;
        self.bytes_written += bytes.len() as u64;
        self.rotate()?;
        Ok(path)
    }

    /// Loads and validates one checkpoint file.
    pub fn load(path: &Path) -> Result<TrainState, ResilError> {
        decode(&std::fs::read(path)?)
    }

    /// Restores the newest *intact* checkpoint: files are tried newest
    /// first and corrupt ones are skipped, so a torn or bit-rotted latest
    /// file degrades to the previous interval instead of a dead run.
    /// Returns `None` when no checkpoint validates.
    ///
    /// Only [`ResilError::Corrupt`] is skipped. A file that cannot be read
    /// ([`ResilError::Io`]) or that an earlier build wrote
    /// ([`ResilError::Version`]) is an error: resuming from an older
    /// checkpoint — or from scratch — behind it would hide lost work.
    pub fn latest(&self) -> Result<Option<TrainState>, ResilError> {
        for (_, path) in self.list()?.into_iter().rev() {
            match Self::load(&path) {
                Ok(state) => return Ok(Some(state)),
                Err(ResilError::Corrupt(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Checkpoint files as `(epoch, path)`, sorted by epoch ascending.
    fn list(&self) -> Result<Vec<(u64, PathBuf)>, ResilError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n,
                None => continue,
            };
            let epoch = match name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".rcp"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                Some(e) => e,
                None => continue,
            };
            out.push((epoch, path));
        }
        out.sort_by_key(|&(e, _)| e);
        Ok(out)
    }

    fn rotate(&self) -> Result<(), ResilError> {
        let files = self.list()?;
        if files.len() > self.keep {
            for (_, path) in &files[..files.len() - self.keep] {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacache::format::{fnv1a64_extend, xxh64, FNV_OFFSET};

    fn state(epoch: u64) -> TrainState {
        TrainState {
            epoch,
            lr: 0.015625,
            params: vec![1.5, -2.25, 0.0, -0.0, f32::MIN_POSITIVE, 3.0e8],
            slots: vec![
                SlotSnapshot {
                    m: vec![0.1, 0.2],
                    v: vec![0.3, 0.4],
                    t: 17,
                },
                SlotSnapshot {
                    m: vec![],
                    v: vec![],
                    t: 0,
                },
            ],
            rank_rngs: vec![vec![[7u8; 32], [9u8; 32]], vec![[1u8; 32], [2u8; 32]]],
        }
    }

    fn tmp_dir(name: &str) -> parx::Scratch {
        parx::scratch(&format!("resil_ckpt_{name}")).expect("scratch dir")
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let s = state(5);
        let decoded = decode(&encode(&s)).unwrap();
        assert_eq!(decoded, s);
        // Bit patterns, not just values: -0.0 survives.
        assert_eq!(decoded.params[3].to_bits(), (-0.0f32).to_bits());
        assert_eq!(decoded.params_hash(), s.params_hash());
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = encode(&state(3));
        for i in (0..bytes.len()).step_by(5) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(decode(&bad), Err(ResilError::Corrupt(_))),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = encode(&state(3));
        for len in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..len]), Err(ResilError::Corrupt(_))),
                "truncation to {len} went undetected"
            );
        }
    }

    #[test]
    fn garbled_count_fails_as_corruption_not_allocation() {
        let mut bytes = encode(&state(3));
        // The params count lives right after magic+version+epoch+lr
        // (4 + 2 + 8 + 4 = offset 18). Blow it up to u64::MAX *and*
        // re-stamp a valid checksum, so the failure must come from the
        // count plausibility check, not the checksum.
        bytes[18..26].copy_from_slice(&u64::MAX.to_le_bytes());
        restamp(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        match err {
            ResilError::Corrupt(msg) => {
                assert!(msg.contains("implausible count"), "wrong path: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Re-stamps a valid checksum so a header edit reaches the field
    /// checks instead of failing as a checksum mismatch.
    fn restamp(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let checksum = xxh64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn bad_magic_and_unknown_version_are_rejected_by_name() {
        let mut bytes = encode(&state(3));
        bytes[..4].copy_from_slice(b"CDS1");
        restamp(&mut bytes);
        assert!(matches!(decode(&bytes), Err(ResilError::Corrupt(m)) if m.contains("bad magic")));
        let mut bytes = encode(&state(3));
        bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(decode(&bytes), Err(ResilError::Corrupt(m)) if m.contains("version")));
    }

    /// RCP is a stored format: the bytes of one fixed small state. The
    /// body is byte for byte what the per-value encoder of version 1
    /// wrote; only the version field (bytes 4..6, `0100` -> `0200`) and
    /// the trailer (FNV-1a -> XXH64) differ from a version-1 file.
    #[test]
    fn encoder_output_is_byte_identical_to_the_stored_format() {
        let s = TrainState {
            epoch: 7,
            lr: 0.5,
            params: vec![1.0, -0.0, f32::from_bits(0x7FC0_0001)],
            slots: vec![SlotSnapshot {
                m: vec![0.25],
                v: vec![],
                t: 3,
            }],
            rank_rngs: vec![vec![[0xA5; 32]]],
        };
        let golden = "52435031020007000000000000000000003f\
                      0300000000000000\
                      0000803f000000800100c07f\
                      0100000000000000\
                      030000000000000001000000000000000000803e0000000000000000\
                      01000000000000000100000000000000\
                      a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5\
                      d1d3d885e7e8481f";
        let bytes = encode(&s);
        assert_eq!(
            bytes.len(),
            bytes.capacity(),
            "encode sizes its buffer exactly"
        );
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
    }

    /// Rewrites a checkpoint as the previous build wrote it: version 1,
    /// sealed with FNV-1a.
    fn as_version_1(bytes: &mut [u8]) {
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let body_len = bytes.len() - 8;
        let fnv = fnv1a64_extend(FNV_OFFSET, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fnv.to_le_bytes());
    }

    /// A checkpoint the previous build wrote — version 1 under its FNV-1a
    /// trailer — is refused by version, typed, rather than skipped as
    /// corrupt; no single-bit flip of the current version field can pass
    /// for it.
    #[test]
    fn version_1_checkpoint_is_rejected_by_name() {
        let mut bytes = encode(&state(3));
        as_version_1(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(
            err,
            ResilError::Version {
                found: 1,
                supported: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "unsupported checkpoint version 1 (this build reads 2)"
        );

        let good = encode(&state(3));
        for bit in 0..16 {
            let mut bad = good.clone();
            bad[4 + bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(decode(&bad), Err(ResilError::Corrupt(m)) if m.contains("version")),
                "flip of version bit {bit}"
            );
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            CheckpointManager::load(Path::new("/nonexistent/ckpt-00000001.rcp")),
            Err(ResilError::Io(_))
        ));
    }

    fn adam_dropout_model(seed: u64, hidden: usize) -> Sequential {
        use dlframe::{Activation, Dense, Dropout, Loss, Optimizer};
        let mut rng = xrng::seeded(seed);
        let mut m = Sequential::new(seed);
        m.add(Box::new(Dense::new(4, hidden, Activation::Relu, &mut rng)));
        m.add(Box::new(Dropout::new(0.2, xrng::seeded(seed + 1))));
        m.add(Box::new(Dense::new(
            hidden,
            2,
            Activation::Linear,
            &mut rng,
        )));
        m.compile(Loss::SoftmaxCrossEntropy, Optimizer::adam(0.01));
        m
    }

    #[test]
    fn captured_model_resumes_bit_exactly_from_a_checkpoint_file() {
        use dlframe::{Dataset, FitConfig, NoSync};
        use tensor::Tensor;
        use xrng::RandomSource;
        // Shuffling, dropout and Adam moments are all in play: the resumed
        // run matches the uninterrupted one only if the file carried the
        // weights, the optimizer slots and every RNG stream.
        let mut rng = xrng::seeded(33);
        let x = Tensor::from_fn([48, 4], |_| rng.next_f32() - 0.5);
        let y = Tensor::from_fn([48, 2], |i| if i % 2 == (i / 2) % 2 { 1.0 } else { 0.0 });
        let data = Dataset::new(x, y);
        let config = FitConfig {
            epochs: 2,
            batch_size: 12,
            shuffle: true,
            compute_accuracy: false,
        };
        let mut model = adam_dropout_model(31, 6);
        model.fit(&data, &config, &mut NoSync).unwrap();
        let dir = tmp_dir("resume");
        let mut mgr = CheckpointManager::new(&dir, 1).unwrap();
        mgr.save(&TrainState::capture(2, &model)).unwrap();
        model.fit(&data, &config, &mut NoSync).unwrap();

        // A differently seeded fresh model picks the run up from disk.
        let mut resumed = adam_dropout_model(77, 6);
        let restored = mgr.latest().unwrap().expect("checkpoint exists");
        assert_eq!(restored.epoch, 2);
        restored.restore_into(&mut resumed, 0).unwrap();
        resumed.fit(&data, &config, &mut NoSync).unwrap();
        assert_eq!(resumed.flat_params(), model.flat_params());
    }

    #[test]
    fn wrong_architecture_or_rank_is_rejected_before_the_model_changes() {
        let saved = TrainState::capture(1, &adam_dropout_model(5, 6));
        let mut wider = adam_dropout_model(6, 7);
        let before = wider.flat_params();
        assert!(matches!(
            saved.restore_into(&mut wider, 0),
            Err(ResilError::Corrupt(m)) if m.contains("parameter count")
        ));
        let mut same = adam_dropout_model(6, 6);
        assert!(matches!(
            saved.restore_into(&mut same, 1),
            Err(ResilError::Corrupt(m)) if m.contains("rank 1")
        ));
        let mut fewer_streams = saved.clone();
        fewer_streams.rank_rngs[0].pop();
        assert!(matches!(
            fewer_streams.restore_into(&mut same, 0),
            Err(ResilError::Corrupt(m)) if m.contains("rng stream")
        ));
        assert_eq!(wider.flat_params(), before);
    }

    #[test]
    fn manager_saves_loads_and_rotates() {
        let dir = tmp_dir("rotate");
        let mut mgr = CheckpointManager::new(&dir, 2).unwrap();
        for e in [0u64, 2, 4, 6] {
            mgr.save(&state(e)).unwrap();
        }
        assert_eq!(mgr.writes(), 4);
        assert!(mgr.bytes_written() > 0);
        // Only the last two survive rotation.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        let latest = mgr.latest().unwrap().expect("checkpoints exist");
        assert_eq!(latest.epoch, 6);
        assert_eq!(latest, state(6));
    }

    #[test]
    fn latest_skips_corrupt_newest() {
        let dir = tmp_dir("skip");
        let mut mgr = CheckpointManager::new(&dir, 4).unwrap();
        mgr.save(&state(2)).unwrap();
        let newest = mgr.save(&state(4)).unwrap();
        // Rot the newest file; latest() must fall back to epoch 2.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let restored = mgr.latest().unwrap().expect("older checkpoint intact");
        assert_eq!(restored.epoch, 2);
        // With every file rotted, latest() reports none rather than error.
        let older = dir.join("ckpt-00000002.rcp");
        let mut b = std::fs::read(&older).unwrap();
        b[0] ^= 0xFF;
        std::fs::write(&older, &b).unwrap();
        assert!(mgr.latest().unwrap().is_none());
    }

    /// `latest()` skips only corruption: a version-1 newest file and an
    /// unreadable newest file are errors, not a silent fall-back to an
    /// older checkpoint (or to none at all).
    #[test]
    fn latest_fails_on_an_old_version_or_an_unreadable_file() {
        let dir = tmp_dir("latest_errors");
        let mut mgr = CheckpointManager::new(&dir, 4).unwrap();
        mgr.save(&state(2)).unwrap();
        let newest = mgr.save(&state(4)).unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        as_version_1(&mut bytes);
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(
            mgr.latest(),
            Err(ResilError::Version {
                found: 1,
                supported: 2
            })
        );

        // A newest "checkpoint" that cannot be read (here a directory:
        // EISDIR, as an EIO or EACCES would be) is an I/O error.
        std::fs::remove_file(&newest).unwrap();
        std::fs::create_dir(dir.join("ckpt-00000009.rcp")).unwrap();
        assert!(matches!(mgr.latest(), Err(ResilError::Io(_))));
        std::fs::remove_dir(dir.join("ckpt-00000009.rcp")).unwrap();
        assert_eq!(mgr.latest().unwrap().map(|s| s.epoch), Some(2));
    }

    #[test]
    fn empty_state_round_trips() {
        let s = TrainState {
            epoch: 0,
            lr: 0.0,
            params: vec![],
            slots: vec![],
            rank_rngs: vec![],
        };
        assert_eq!(decode(&encode(&s)).unwrap(), s);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_retention_panics() {
        let _ = CheckpointManager::new(&tmp_dir("zero"), 0);
    }
}
