//! Durable training checkpoints: a versioned, CRC32-checksummed binary
//! format written atomically, with generation-based fallback, so a training
//! run killed at any point resumes bit-identically from disk.
//!
//! # Format (version 1)
//!
//! ```text
//! magic    8  b"SRCKPT1\0"
//! version  4  u32 le = 1
//! sections 4  u32 le count
//! then per section:
//!   name       str   ("meta" | "params" | "adam" | "rng" | "guard" | "user")
//!   len        u64   payload byte length
//!   crc32      u32   CRC32 (IEEE) over the payload bytes
//!   payload    len bytes
//! ```
//!
//! Sections, in order:
//!
//! * `meta`   — model name, run seed, `next_epoch` (the epoch to resume at).
//! * `params` — the live [`ParamStore`]: names, values and gradients as raw
//!   `f32` bits.
//! * `adam`   — the full [`Adam`] state: hyper-parameters, step counter `t`,
//!   first and second moment tensors.
//! * `rng`    — the RNG derivation state. All randomness in the workspace is
//!   a pure function of `(run seed, epoch, attempt)` (see
//!   [`crate::resilience::retry_seed`]), so the section records exactly those
//!   counters rather than a generator's internal words.
//! * `guard`  — the complete [`TrainGuard`]: both rollback checkpoints,
//!   best-loss references, decayed learning rate, the recovery-event trace
//!   and the retry counters. Restoring it makes post-resume recovery
//!   decisions identical to an uninterrupted run.
//! * `user`   — an opaque payload owned by the training loop (the per-epoch
//!   loss history), so a resumed run's final trace equals the uninterrupted
//!   one.
//!
//! All floats are raw IEEE-754 bits: a save → load round-trip is bit-exact,
//! which is what makes the crash-restart determinism contract testable with
//! `==` on bytes.
//!
//! # Durability
//!
//! [`save`] writes through [`siterec_obs::atomic_write_fp`] (same-directory
//! temp file + fsync + rename) behind the `ckpt.write.fsync` failpoint seam
//! with bounded deterministic retry ([`siterec_obs::retry_io`]), keeps the
//! newest [`CheckpointPolicy::generations`] files and journals a
//! `checkpoint_write` record. [`load_latest`] tries candidates newest-first
//! (reads pass the `ckpt.read.section` failpoint seam); a truncated or
//! bit-flipped file fails its magic/CRC/length checks, is journaled as
//! `checkpoint_corrupt`, and the loader falls back to the previous
//! generation instead of aborting. Only when *no* generation decodes does it
//! return `None` (start from scratch) — it never panics on corrupt input.
//!
//! # Chaos hook
//!
//! Setting `SITEREC_CHAOS_TEAR_AT=<epoch>` makes [`save`] simulate a process
//! crash in the middle of the checkpoint write for that epoch: half the
//! encoded bytes are written *directly* to the destination path (bypassing
//! the atomic rename, as a crashed non-atomic writer would) and the process
//! aborts. The chaos driver (`siterec-chaos train`) uses this to exercise the
//! torn-file fallback path deterministically.

use crate::optim::Adam;
use crate::param::ParamStore;
use crate::resilience::TrainGuard;
use crate::wire::{DecodeError, Reader, Writer};
use siterec_obs as obs;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub use crate::wire::{
    crc32, DecodeError as ByteDecodeError, Reader as ByteReader, Writer as ByteWriter,
};

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: &[u8; 8] = b"SRCKPT1\0";

/// Current format version.
pub const VERSION: u32 = 1;

/// Checkpoint file extension.
pub const EXT: &str = "srck";

/// Env var of the chaos tear hook (see the module docs).
pub const TEAR_ENV: &str = "SITEREC_CHAOS_TEAR_AT";

/// When and where checkpoints are written.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding the checkpoint generations.
    pub dir: PathBuf,
    /// Write a checkpoint every N committed epochs (the final epoch is
    /// always checkpointed). Minimum 1.
    pub every: usize,
    /// Number of generations kept on disk. Minimum 2, so one torn newest
    /// file always leaves a fallback.
    pub generations: usize,
}

impl CheckpointPolicy {
    /// Policy with the defaults: every epoch, two generations.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every: 1,
            generations: 2,
        }
    }

    /// Builder-style cadence override.
    pub fn every(mut self, n: usize) -> CheckpointPolicy {
        self.every = n.max(1);
        self
    }

    /// Builder-style generation-count override (clamped to ≥ 2).
    pub fn generations(mut self, n: usize) -> CheckpointPolicy {
        self.generations = n.max(2);
        self
    }

    /// Should a checkpoint be written after `epoch` committed, in a run of
    /// `total_epochs`? True on the cadence and always at the final epoch.
    pub fn due(&self, epoch: usize, total_epochs: usize) -> bool {
        let next = epoch + 1;
        next == total_epochs || next.is_multiple_of(self.every.max(1))
    }
}

/// Everything a training loop needs to continue exactly where a previous
/// process died: the resume epoch, parameters, optimizer moments, guard
/// state and the loop's own history payload.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Model name (journaled; also a resume-compatibility check).
    pub model: String,
    /// Run seed (resume-compatibility check: a checkpoint from a different
    /// seed must not silently continue a run it does not belong to).
    pub seed: u64,
    /// The next epoch to run: everything up to `next_epoch - 1` committed.
    pub next_epoch: usize,
    /// Live model parameters (post-commit values and last gradients).
    pub params: ParamStore,
    /// Full Adam state (step counter and both moment vectors).
    pub opt: Adam,
    /// Full guard state, including the recovery trace and retry counters.
    pub guard: TrainGuard,
    /// Opaque training-loop payload (per-epoch history), encoded by the
    /// caller with [`ByteWriter`].
    pub user: Vec<u8>,
}

/// A checkpoint I/O failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(io::Error),
    /// The file exists but fails magic/version/CRC/structure checks.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> CheckpointError {
        CheckpointError::Corrupt(e.0)
    }
}

/// The parts of a checkpoint, borrowed from a live training loop:
/// [`encode_state`] and [`save`] write them without copying the loop's
/// parameters, optimizer or guard.
#[derive(Debug, Clone, Copy)]
pub struct StateRef<'a> {
    /// Model name, as [`TrainState::model`].
    pub model: &'a str,
    /// Run seed, as [`TrainState::seed`].
    pub seed: u64,
    /// Resume epoch, as [`TrainState::next_epoch`].
    pub next_epoch: usize,
    /// Live parameters, as [`TrainState::params`].
    pub params: &'a ParamStore,
    /// Optimizer state, as [`TrainState::opt`].
    pub opt: &'a Adam,
    /// Guard state, as [`TrainState::guard`].
    pub guard: &'a TrainGuard,
    /// Training-loop payload, as [`TrainState::user`].
    pub user: &'a [u8],
}

impl TrainState {
    /// This state's parts, borrowed for [`encode_state`] or [`save`].
    pub fn parts(&self) -> StateRef<'_> {
        StateRef {
            model: &self.model,
            seed: self.seed,
            next_epoch: self.next_epoch,
            params: &self.params,
            opt: &self.opt,
            guard: &self.guard,
            user: &self.user,
        }
    }
}

/// Write one section: its name, a length and CRC placeholder, the payload
/// straight from `body`, then the length and CRC back-patched.
fn section(out: &mut Writer, name: &str, body: impl FnOnce(&mut Writer)) {
    out.str(name);
    let head = out.len();
    out.u64(0);
    out.u32(0);
    let start = out.len();
    body(out);
    let len = out.len() - start;
    out.patch(head, &(len as u64).to_le_bytes());
    // A sizing writer holds no payload to checksum.
    if let Some(payload) = out.as_bytes().get(start..) {
        let crc = crc32(payload);
        out.patch(head + 8, &crc.to_le_bytes());
    }
}

fn write_state(out: &mut Writer, s: &StateRef<'_>) {
    out.raw(MAGIC);
    out.u32(VERSION);
    out.u32(6); // the six sections below
    section(out, "meta", |w| {
        w.str(s.model);
        w.u64(s.seed);
        w.usize(s.next_epoch);
    });
    section(out, "params", |w| s.params.encode(w));
    section(out, "adam", |w| s.opt.encode(w));
    // The full derivation state of every RNG stream in a run: per-epoch
    // graph seeds are pure functions of (seed, epoch, attempt).
    section(out, "rng", |w| {
        w.u64(s.seed);
        w.usize(s.next_epoch);
        w.usize(s.guard.attempt(s.next_epoch));
    });
    section(out, "guard", |w| s.guard.encode(w));
    section(out, "user", |w| w.raw(s.user));
}

/// Encode a checkpoint into the version-1 byte format: one sizing pass,
/// then every section written straight into one exactly sized buffer.
pub fn encode_state(state: &StateRef<'_>) -> Vec<u8> {
    let mut sizer = Writer::sizer();
    write_state(&mut sizer, state);
    let mut out = Writer::with_capacity(sizer.len());
    write_state(&mut out, state);
    let bytes = out.into_bytes();
    debug_assert_eq!((bytes.len(), bytes.capacity()), (sizer.len(), sizer.len()));
    bytes
}

/// Decode a checkpoint produced by [`encode_state`], verifying magic,
/// version, section structure and every per-section CRC32.
pub fn decode_state(bytes: &[u8]) -> Result<TrainState, CheckpointError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8).map_err(DecodeError::from_wire)?;
    if magic != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let version = r.u32().map_err(DecodeError::from_wire)?;
    if version != VERSION {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let n_sections = r.u32().map_err(DecodeError::from_wire)?;
    let mut meta = None;
    let mut params = None;
    let mut adam = None;
    let mut rng = None;
    let mut guard = None;
    let mut user = None;
    for _ in 0..n_sections {
        let name = r.str().map_err(DecodeError::from_wire)?;
        let len = r.usize().map_err(DecodeError::from_wire)?;
        let want_crc = r.u32().map_err(DecodeError::from_wire)?;
        let payload = r.take(len).map_err(DecodeError::from_wire)?;
        if crc32(payload) != want_crc {
            return Err(CheckpointError::Corrupt(format!(
                "section {name:?}: CRC mismatch"
            )));
        }
        match name.as_str() {
            "meta" => meta = Some(payload),
            "params" => params = Some(payload),
            "adam" => adam = Some(payload),
            "rng" => rng = Some(payload),
            "guard" => guard = Some(payload),
            "user" => user = Some(payload),
            // Forward compatibility: unknown sections are checksummed and
            // skipped.
            _ => {}
        }
    }
    r.finish().map_err(DecodeError::from_wire)?;

    let missing =
        |what: &str| CheckpointError::Corrupt(format!("missing required section {what:?}"));
    let meta = meta.ok_or_else(|| missing("meta"))?;
    let mut mr = Reader::new(meta);
    let model = mr.str().map_err(DecodeError::from_wire)?;
    let seed = mr.u64().map_err(DecodeError::from_wire)?;
    let next_epoch = mr.usize().map_err(DecodeError::from_wire)?;
    mr.finish().map_err(DecodeError::from_wire)?;

    let mut pr = Reader::new(params.ok_or_else(|| missing("params"))?);
    let params = ParamStore::decode(&mut pr)?;
    pr.finish().map_err(DecodeError::from_wire)?;

    let mut ar = Reader::new(adam.ok_or_else(|| missing("adam"))?);
    let opt = Adam::decode(&mut ar)?;
    ar.finish().map_err(DecodeError::from_wire)?;

    // The rng section duplicates derivation state that also lives in meta +
    // guard; verify consistency rather than trusting either copy blindly.
    let mut rr = Reader::new(rng.ok_or_else(|| missing("rng"))?);
    let rng_seed = rr.u64().map_err(DecodeError::from_wire)?;
    let _rng_epoch = rr.usize().map_err(DecodeError::from_wire)?;
    let _rng_attempt = rr.usize().map_err(DecodeError::from_wire)?;
    rr.finish().map_err(DecodeError::from_wire)?;
    if rng_seed != seed {
        return Err(CheckpointError::Corrupt(
            "rng section seed disagrees with meta".into(),
        ));
    }

    let mut gr = Reader::new(guard.ok_or_else(|| missing("guard"))?);
    let guard = TrainGuard::decode(&mut gr)?;
    gr.finish().map_err(DecodeError::from_wire)?;

    Ok(TrainState {
        model,
        seed,
        next_epoch,
        params,
        opt,
        guard,
        user: user.ok_or_else(|| missing("user"))?.to_vec(),
    })
}

// DecodeError helper so `?`-free map_err chains above stay readable.
trait FromWire {
    fn from_wire(e: DecodeError) -> CheckpointError;
}

impl FromWire for DecodeError {
    fn from_wire(e: DecodeError) -> CheckpointError {
        CheckpointError::Corrupt(e.0)
    }
}

/// File name of the checkpoint whose resume point is `next_epoch`.
pub fn file_name(next_epoch: usize) -> String {
    format!("ckpt-{next_epoch:08}.{EXT}")
}

/// Sorted (ascending by epoch) list of checkpoint files in `dir`.
fn generation_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if name.starts_with("ckpt-") && name.ends_with(&format!(".{EXT}")) {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Write `state` as the newest checkpoint generation under `policy.dir`,
/// atomically, then prune generations beyond `policy.generations`. Journals
/// a `checkpoint_write` record. Returns the path written.
pub fn save(policy: &CheckpointPolicy, state: &StateRef<'_>) -> io::Result<PathBuf> {
    std::fs::create_dir_all(&policy.dir)?;
    let bytes = encode_state(state);
    let path = policy.dir.join(file_name(state.next_epoch));

    // Chaos hook: simulate a crash mid-write (see module docs). A real
    // crashed writer that bypassed the atomic rename leaves exactly this:
    // a prefix of the file at the final path.
    if let Ok(tear) = std::env::var(TEAR_ENV) {
        if tear.parse::<usize>() == Ok(state.next_epoch) {
            let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
            eprintln!(
                "[siterec] chaos: tearing checkpoint write at epoch {} and aborting",
                state.next_epoch
            );
            std::process::abort();
        }
    }

    // The durable write sits behind the `ckpt.write.fsync` failpoint seam
    // with bounded deterministic retry: transient errors (EIO/ENOSPC or an
    // injected `err`/`short` fault) are retried on the backoff schedule;
    // only a persistent failure surfaces to the caller.
    obs::retry_io("checkpoint_write", obs::RetryCfg::from_env(), || {
        obs::atomic_write_fp(&path, &bytes, "ckpt.write.fsync")
    })?;
    obs::record!(
        "checkpoint_write",
        model = state.model,
        path = path.display().to_string(),
        epoch = state.next_epoch,
        bytes = bytes.len(),
    );
    obs::counter_add("checkpoint.writes", 1);

    // Prune: keep the newest `generations` files (minimum 2 so a torn
    // newest write always leaves a fallback).
    let files = generation_files(&policy.dir)?;
    let keep = policy.generations.max(2);
    if files.len() > keep {
        for old in &files[..files.len() - keep] {
            let _ = std::fs::remove_file(old);
        }
    }
    Ok(path)
}

/// Load the newest valid checkpoint generation from `dir`.
///
/// Candidates are tried newest-first; every corrupt one (torn write,
/// bit-flip, wrong magic/version) is journaled as a `checkpoint_corrupt`
/// record and skipped, falling back to the previous generation. Returns
/// `Ok(None)` when the directory is absent, empty, or holds no valid
/// checkpoint — the caller starts from scratch. Never panics on corrupt
/// input.
pub fn load_latest(dir: &Path) -> io::Result<Option<TrainState>> {
    if !dir.exists() {
        return Ok(None);
    }
    let mut files = generation_files(dir)?;
    files.reverse(); // newest first
    for path in files {
        match load_file(&path) {
            Ok(state) => return Ok(Some(state)),
            Err(e) => record_corrupt(&path, &e.to_string()),
        }
    }
    Ok(None)
}

/// Read and decode one specific checkpoint file (no generation fallback):
/// the serving read path, where the operator names an exact file and wants
/// the precise failure rather than a silent skip. Every corruption mode
/// [`decode_state`] detects surfaces as [`CheckpointError::Corrupt`].
pub fn load_file(path: &Path) -> Result<TrainState, CheckpointError> {
    let mut bytes = std::fs::read(path)?;
    // The `ckpt.read.section` failpoint models short/corrupt/failed reads;
    // `short` and `corrupt` damage lands in `decode_state`'s CRC checks and
    // from there in `load_latest`'s generation fallback.
    obs::read_fault("ckpt.read.section", &mut bytes)?;
    decode_state(&bytes)
}

fn record_corrupt(path: &Path, reason: &str) {
    obs::record!(
        "checkpoint_corrupt",
        path = path.display().to_string(),
        reason = reason,
    );
    obs::counter_add("checkpoint.corrupt", 1);
    obs::olog!(
        Summary,
        "checkpoint {} corrupt ({reason}); falling back to previous generation",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::resilience::GuardConfig;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("siterec_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn state(epoch: usize, fill: f32) -> TrainState {
        let mut ps = ParamStore::new(7);
        ps.add("w", 2, 3, Init::Constant(fill));
        ps.add("b", 1, 1, Init::Constant(-fill));
        let mut opt = Adam::new(0.01);
        use crate::optim::Optimizer;
        opt.step(&mut ps);
        let guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        TrainState {
            model: "test-model".into(),
            seed: 42,
            next_epoch: epoch,
            params: ps,
            opt,
            guard,
            user: vec![1, 2, 3, 4],
        }
    }

    fn assert_states_equal(a: &TrainState, b: &TrainState) {
        assert_eq!(a.model, b.model);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.next_epoch, b.next_epoch);
        assert_eq!(a.user, b.user);
        assert_eq!(a.params.len(), b.params.len());
        for (x, y) in a.params.iter().zip(b.params.iter()) {
            assert_eq!(x.name, y.name);
            let bits = |t: &crate::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.value), bits(&y.value));
            assert_eq!(bits(&x.grad), bits(&y.grad));
        }
        // Re-encoding must reproduce the identical bytes (deep equality of
        // opt and guard included).
        assert_eq!(encode_state(&a.parts()), encode_state(&b.parts()));
    }

    /// FNV-1a-64 and length of `encode_state(&seeded_state().parts())` as the
    /// byte-at-a-time encoder wrote it (a bytewise CRC32, one `f32` write
    /// per tensor element, one push per section byte), recorded before the
    /// bulk paths replaced it.
    const BYTEWISE_ENCODER_FNV: u64 = 0xfc86_9134_ec48_162c;
    const BYTEWISE_ENCODER_LEN: usize = 37_010;

    /// A state with enough tensors, moments and guard snapshots to exercise
    /// every section, every value seeded.
    fn seeded_state() -> TrainState {
        use crate::optim::Optimizer;
        let mut ps = ParamStore::new(2022);
        ps.add("emb", 37, 16, Init::XavierUniform);
        ps.add("w", 16, 9, Init::XavierUniform);
        ps.add("b", 1, 9, Init::Zeros);
        let mut opt = Adam::new(0.01);
        for step in 0..3 {
            for (i, p) in ps.iter_mut().enumerate() {
                for (j, g) in p.grad.data_mut().iter_mut().enumerate() {
                    *g = ((step * 977 + i * 31 + j) as f32).sin();
                }
            }
            opt.step(&mut ps);
        }
        let guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        TrainState {
            model: "seeded".into(),
            seed: 2022,
            next_epoch: 3,
            params: ps,
            opt,
            guard,
            user: (0..=255u8).collect(),
        }
    }

    #[test]
    fn encoding_is_byte_identical_to_the_bytewise_encoder() {
        let bytes = encode_state(&seeded_state().parts());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            (format!("{h:#018x}"), bytes.len()),
            (
                format!("{BYTEWISE_ENCODER_FNV:#018x}"),
                BYTEWISE_ENCODER_LEN
            )
        );
    }

    /// FNV-1a-64 and length of the `SRCKPT1` bytes of [`trained_state`],
    /// recorded with the per-section-buffer writer before the one-buffer
    /// writer replaced it.
    const SECTION_BUFFER_WRITER_FNV: u64 = 0xddcf_a305_40ae_58d5;
    const SECTION_BUFFER_WRITER_LEN: usize = 20_962;

    /// A state whose guard has distinct current and previous snapshots and a
    /// recovery event in its trace: three commits around one rollback.
    fn trained_state() -> TrainState {
        use crate::optim::Optimizer;
        use crate::resilience::Fault;
        let mut ps = ParamStore::new(2026);
        ps.add("emb", 29, 12, Init::XavierUniform);
        ps.add("w", 12, 5, Init::XavierUniform);
        ps.add("b", 1, 5, Init::Zeros);
        let mut opt = Adam::new(0.02);
        let mut guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        let step = |ps: &mut ParamStore, opt: &mut Adam, k: usize| {
            for (i, p) in ps.iter_mut().enumerate() {
                for (j, g) in p.grad.data_mut().iter_mut().enumerate() {
                    *g = ((k * 613 + i * 17 + j) as f32).cos();
                }
            }
            opt.step(ps);
        };
        step(&mut ps, &mut opt, 0);
        guard.commit(0, 1.5, &ps, &opt);
        step(&mut ps, &mut opt, 1);
        guard.commit(1, 1.25, &ps, &opt);
        let resume = guard
            .recover(2, Fault::NonFiniteLoss(f32::NAN), &mut ps, &mut opt)
            .unwrap();
        step(&mut ps, &mut opt, 2);
        guard.commit(resume, 1.0, &ps, &opt);
        TrainState {
            model: "trained".into(),
            seed: 2026,
            next_epoch: resume + 1,
            params: ps,
            opt,
            guard,
            user: (0..97u8).rev().collect(),
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn encoding_is_byte_identical_to_the_section_buffer_writer() {
        let bytes = encode_state(&trained_state().parts());
        assert_eq!(
            (format!("{:#018x}", fnv1a(&bytes)), bytes.len()),
            (
                format!("{SECTION_BUFFER_WRITER_FNV:#018x}"),
                SECTION_BUFFER_WRITER_LEN
            )
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = state(5, 1.25);
        let bytes = encode_state(&s.parts());
        assert_eq!(&bytes[..8], MAGIC);
        let back = decode_state(&bytes).unwrap();
        assert_states_equal(&s, &back);
    }

    #[test]
    fn bad_magic_and_version_are_corrupt() {
        let s = state(1, 1.0);
        let mut bytes = encode_state(&s.parts());
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            decode_state(&wrong),
            Err(CheckpointError::Corrupt(m)) if m.contains("magic")
        ));
        bytes[8] = 99; // version field
        assert!(matches!(
            decode_state(&bytes),
            Err(CheckpointError::Corrupt(m)) if m.contains("version")
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Small state so the exhaustive scan stays fast: flip each byte and
        // require decode to fail (or, if it succeeds, to decode to the
        // original state — impossible here since every byte is load-bearing).
        let s = state(3, 0.5);
        let bytes = encode_state(&s.parts());
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x01;
            if let Ok(back) = decode_state(&m) {
                // A flip that decodes to a different section name would be
                // skipped as unknown — but every section is required, so the
                // rename surfaces as a missing section. Reaching here at all
                // is therefore a real detection failure.
                assert_eq!(
                    encode_state(&back.parts()),
                    bytes,
                    "bit flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_at_any_point_is_corrupt() {
        let s = state(2, 2.0);
        let bytes = encode_state(&s.parts());
        for cut in [0, 4, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_state(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn save_load_and_generation_pruning() {
        let d = tmpdir("gens");
        let policy = CheckpointPolicy::new(&d).generations(2);
        for e in 1..=4 {
            save(&policy, &state(e, e as f32).parts()).unwrap();
        }
        let files = generation_files(&d).unwrap();
        assert_eq!(files.len(), 2, "pruning keeps exactly 2 generations");
        let latest = load_latest(&d).unwrap().unwrap();
        assert_eq!(latest.next_epoch, 4);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let d = tmpdir("fallback");
        let policy = CheckpointPolicy::new(&d);
        save(&policy, &state(1, 1.0).parts()).unwrap();
        save(&policy, &state(2, 2.0).parts()).unwrap();
        // Torn write: truncate the newest file.
        let newest = d.join(file_name(2));
        let full = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &full[..full.len() / 3]).unwrap();

        obs::reset();
        obs::set_enabled(true);
        let got = load_latest(&d).unwrap().unwrap();
        assert_eq!(got.next_epoch, 1, "fell back to the previous generation");
        let journal = obs::journal_to_string();
        let stats = obs::validate_journal(&journal).unwrap();
        assert_eq!(stats.count("checkpoint_corrupt"), 1);
        obs::reset();
        obs::set_enabled(false);

        // Both generations corrupt → Ok(None), no panic.
        let prev = d.join(file_name(1));
        std::fs::write(&prev, b"garbage").unwrap();
        assert!(load_latest(&d).unwrap().is_none());
        // Absent directory → Ok(None).
        assert!(load_latest(&d.join("nope")).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn due_honors_cadence_and_final_epoch() {
        let p = CheckpointPolicy::new("x").every(3);
        assert!(!p.due(0, 10));
        assert!(!p.due(1, 10));
        assert!(p.due(2, 10)); // epoch 2 committed -> next == 3
        assert!(p.due(5, 10));
        assert!(p.due(9, 10), "final epoch always checkpoints");
        let every1 = CheckpointPolicy::new("x");
        assert!((0..10).all(|e| every1.due(e, 10)));
    }
}
