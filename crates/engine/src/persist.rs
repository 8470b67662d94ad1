//! The on-disk tier of the engine cache: a versioned, checksummed
//! store of analysis artifacts keyed by `(fingerprint, artifact)` —
//! [`CfgShape`] × [`AnalysisArtifact`].
//!
//! A shape-level precomputation is the expensive part of a sparse
//! analysis and depends on nothing but the CFG shape — so it is worth
//! keeping not just across functions and recompilations (the in-memory
//! fingerprint cache) but across *processes*: a build daemon, a JIT
//! restarting, or parallel compiler invocations over one source tree
//! all re-encounter the same shapes. [`PersistStore`] serializes one
//! artifact body per `(shape, kind)` into one small file under a
//! shared directory; any later engine pointed at the same directory
//! revives them for the price of a read + CRC instead of a
//! recomputation. The bodies are defined by the
//! [`AnalysisArtifact`] trait; liveness — the one stored artifact —
//! persists its `R`/`T` matrices. Nullness / definite-init is a view
//! of the liveness artifact's dominator tree, so it writes no entry of
//! its own: a liveness entry serves both analyses.
//!
//! # Format (version 2, all integers little-endian)
//!
//! ```text
//! offset  size            field
//! 0       4               magic  "FLPC"
//! 4       4               format version (u32, currently 2)
//! 8       4               artifact tag (u32, AnalysisArtifact::TAG)
//! 12      4               reserved, must be zero
//! 16      8               shape hash64 (raw, unsalted)
//! 24      4               k = shape-encoding word count (u32)
//! 28      4·k             shape encoding  (CfgShape::encoding, u32s)
//! ..      ...             artifact body (AnalysisArtifact::encode_body)
//! last 4  4               CRC-32 (IEEE) over all preceding bytes
//! ```
//!
//! The file *name* is `{hash64 ^ A::SALT:016x}.flpc`, so each stored
//! artifact gets its own entry per shape; the *embedded* hash stays
//! raw, and the embedded tag must match the probing artifact — a
//! CRC-valid entry renamed or forged across tags is rejected, never
//! revived as something else. Liveness keeps salt 0, so files written
//! by the version-1 (liveness-only) format sit at exactly the paths
//! the engine still probes and degrade to `disk_rejects` through the
//! version gate — the bump-once, no-migration policy. Tag 2 and its
//! salt belonged to the nullness entries early version-2 builds
//! wrote; they are retired ([`RETIRED_TAGS`](crate::artifact::RETIRED_TAGS),
//! [`RETIRED_SALTS`](crate::artifact::RETIRED_SALTS)): a tag-2 entry
//! is rejected wherever it is found, files under the old salt are
//! never probed and age out through GC, and the layout of every entry
//! still written is unchanged, so `FORMAT_VERSION` stays 2.
//!
//! # Corruption policy: reject, never trust
//!
//! Decoding is total: every length is bounds-checked, the CRC covers
//! the whole payload, the embedded shape encoding must equal the
//! probing shape byte-for-byte (a hash-collided or renamed file is
//! *someone else's* entry, not this shape's), and the matrix words are
//! revalidated structurally ([`BitMatrix::from_words`] refuses ghost
//! bits above the universe). Any mismatch — truncation, bit flips,
//! zero fill, a future format version — yields a clean miss
//! (`disk_rejects` in [`CacheStats`](crate::CacheStats)) and the entry
//! is recomputed and overwritten. A cache file can cost a
//! recomputation; it can never produce a wrong liveness answer or a
//! panic.
//!
//! Invalid *bytes* and failing *I/O* are distinct outcomes: a reject
//! ([`LoadOutcome::Reject`]) means the disk worked and the file is the
//! problem (overwrite it); an error ([`LoadOutcome::Error`]) means the
//! device is the problem (EACCES, EIO, ENOSPC — counted as
//! `disk_errors`, and repeated errors trip the engine's disk circuit
//! breaker instead of hammering a dead disk). Every I/O goes through
//! the [`Vfs`] seam, so both families are reproducible in tests via
//! [`FaultVfs`](crate::vfs::FaultVfs) fault scripts.
//!
//! Writes go through a unique temporary file followed by an atomic
//! rename, so concurrent processes racing on one shape publish one
//! complete file each — a reader sees either a whole entry or none.
//!
//! The store accretes one file per distinct shape; [`PersistStore::gc`]
//! (also reachable as `AnalysisEngine::gc_persist` and the facade
//! builder's `gc` knob) prunes it by age and entry count. Because any
//! entry is just a cached recomputation, GC needs no coordination with
//! readers or writers — a concurrently deleted entry is simply a
//! `disk_misses` on its next probe.
//!
//! # Why matrices revive exactly (the canonicalization contract)
//!
//! The matrices are indexed by a dominance-preorder numbering derived
//! from a DFS of the CFG, and a DFS depends on successor *order* —
//! which `CfgShape` deliberately erases (successor lists are sorted).
//! The engine therefore always runs the precomputation on the shape's
//! [canonical graph](CfgShape::to_graph), never on a particular
//! function's edge ordering. [`revive`] rebuilds the DFS and dominator
//! trees from that same canonical graph, so the decoded matrices land
//! in exactly the number space they were computed in — in this process
//! or any other. The revived dominator tree is the one the nullness
//! view then shares, so a disk hit serves both analyses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use fastlive_bitset::BitMatrix;
use fastlive_core::{FunctionLiveness, LivenessChecker, Precomputation};

use crate::artifact::{AnalysisArtifact, AnalysisKind};
use crate::fingerprint::CfgShape;
use crate::vfs::{StdVfs, Vfs};

/// First four bytes of every cache file.
pub const MAGIC: [u8; 4] = *b"FLPC";

/// The on-disk format version this build reads and writes. Bumped on
/// **any** layout change; older or newer files are rejected wholesale
/// (a version-crossed file degrades to one recomputation, which is
/// always cheaper than decoding a guess). Version 2 added the
/// per-analysis tag + reserved word after the version field; version-1
/// files degrade to `disk_rejects` per that policy.
pub const FORMAT_VERSION: u32 = 2;

/// File extension of cache entries (`{hash64:016x}.flpc`).
pub const FILE_EXTENSION: &str = "flpc";

/// CRC-32 (IEEE 802.3, reflected, init/xorout `!0`) — hand-rolled
/// because crates.io is unreachable; the table is built at compile
/// time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes any artifact (computed over `shape`'s canonical graph)
/// into the version-2 byte format — header with the artifact's tag,
/// trait-encoded body, trailing CRC.
pub fn encode_artifact<A: AnalysisArtifact>(shape: &CfgShape, artifact: &A) -> Vec<u8> {
    encode_entry::<A>(shape, |out| artifact.encode_body(out))
}

/// Serializes `pre` (computed over `shape`'s canonical graph) into a
/// liveness-tagged entry — the [`encode_artifact`] body format without
/// requiring a revived checker.
pub fn encode(shape: &CfgShape, pre: &Precomputation) -> Vec<u8> {
    encode_entry::<FunctionLiveness>(shape, |out| encode_liveness_body(pre, out))
}

/// The one entry skeleton both encoders share: header with `A::TAG`,
/// the body `body` appends, trailing CRC.
fn encode_entry<A: AnalysisArtifact>(shape: &CfgShape, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let enc = shape.encoding();
    let mut out = Vec::with_capacity(32 + 4 * enc.len() + A::max_body_len(shape) as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&A::TAG.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&shape.hash64().to_le_bytes());
    out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
    for &w in enc {
        out.extend_from_slice(&w.to_le_bytes());
    }
    body(&mut out);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Appends the liveness body — the `R` and `T` matrices — to `out`.
/// `to_words` strips the in-memory arena padding: the byte format
/// stores exactly `rows * ceil(cols/64)` words per matrix, so the
/// encoding is independent of the arena layout.
pub(crate) fn encode_liveness_body(pre: &Precomputation, out: &mut Vec<u8>) {
    encode_matrix(&pre.r, out);
    encode_matrix(&pre.t, out);
}

/// Appends one matrix: rows, cols, row-major unpadded words.
fn encode_matrix(m: &BitMatrix, out: &mut Vec<u8>) {
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for w in m.to_words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor; every read can fail, no read
/// can panic. Public so [`AnalysisArtifact::decode_body`]
/// implementations can parse their bodies with the same discipline.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// `true` once every byte has been consumed — decoders use this to
    /// reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Validates the CRC and the version-2 header of `bytes` against
/// `(shape, tag)` and returns a [`Reader`] positioned at the body.
/// `None` on any mismatch — including a CRC-valid entry carrying a
/// different (or retired) tag, which is *someone else's* artifact.
fn decode_header<'a>(shape: &CfgShape, tag: u32, bytes: &'a [u8]) -> Option<Reader<'a>> {
    // CRC first: everything after this point may assume the bytes are
    // the bytes some encoder produced (or an astronomically lucky
    // corruption — which the structural checks below still bound).
    let payload_len = bytes.len().checked_sub(4)?;
    let stored_crc = u32::from_le_bytes(bytes[payload_len..].try_into().expect("4 bytes"));
    if crc32(&bytes[..payload_len]) != stored_crc {
        return None;
    }
    let mut r = Reader {
        buf: &bytes[..payload_len],
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return None;
    }
    if r.u32()? != FORMAT_VERSION {
        return None;
    }
    // The tag gates *before* any body parsing: a tag-swapped file
    // must never reach another artifact's decoder.
    if r.u32()? != tag {
        return None;
    }
    if r.u32()? != 0 {
        return None; // reserved word
    }
    if r.u64()? != shape.hash64() {
        return None;
    }
    let k = r.u32()? as usize;
    let enc = shape.encoding();
    if k != enc.len() {
        return None;
    }
    for &want in enc {
        if r.u32()? != want {
            return None;
        }
    }
    Some(r)
}

/// Decodes and revives `bytes` as a `(shape, A)` entry. Returns
/// `None` — never panics, never a partial result — unless every one of
/// these holds: magic, [`FORMAT_VERSION`], `A::TAG` and reserved
/// word match, the trailing CRC matches the payload, the embedded
/// shape encoding equals `shape`'s exactly, the body passes the
/// artifact's structural validation, and no trailing bytes remain.
pub fn decode_artifact<A: AnalysisArtifact>(shape: &CfgShape, bytes: &[u8]) -> Option<A> {
    let mut r = decode_header(shape, A::TAG, bytes)?;
    let artifact = A::decode_body(shape, &mut r)?;
    if !r.is_exhausted() {
        return None;
    }
    Some(artifact)
}

/// Decodes `bytes` as a liveness entry **for `shape`**, yielding the
/// raw [`Precomputation`] (see [`decode_artifact`] for the fully
/// revived path and the exact validation contract).
pub fn decode(shape: &CfgShape, bytes: &[u8]) -> Option<Precomputation> {
    let mut r = decode_header(shape, FunctionLiveness::TAG, bytes)?;
    let pre = decode_liveness_body(shape, &mut r)?;
    if !r.is_exhausted() {
        return None;
    }
    Some(pre)
}

/// The liveness body: two square, mutually sized matrices bounded by
/// the shape's block count.
pub(crate) fn decode_liveness_body(shape: &CfgShape, r: &mut Reader<'_>) -> Option<Precomputation> {
    let max_dim = shape.num_blocks();
    let r_matrix = decode_matrix(r, max_dim)?;
    let t_matrix = decode_matrix(r, max_dim)?;
    if r_matrix.rows() != t_matrix.rows() {
        return None;
    }
    // `from_parts` re-derives the transposed reachability matrix; it is
    // deterministic in `r`, so the round-trip is still exact equality.
    Some(Precomputation::from_parts(r_matrix, t_matrix))
}

/// One square `rows == cols ≤ max_dim` matrix; dimensions are checked
/// *before* any allocation is sized from them.
fn decode_matrix(r: &mut Reader<'_>, max_dim: usize) -> Option<BitMatrix> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    if rows != cols || rows > max_dim {
        return None;
    }
    let words_per_row = cols.div_ceil(64);
    let total = rows.checked_mul(words_per_row)?;
    let mut words = Vec::with_capacity(total);
    for _ in 0..total {
        words.push(r.u64()?);
    }
    BitMatrix::from_words(rows, cols, words)
}

/// Rebuilds a queryable [`FunctionLiveness`] around a decoded
/// [`Precomputation`]: DFS and dominator trees are recomputed from the
/// shape's canonical graph (the cheap, near-linear part) and the
/// matrices (the expensive, quadratic part) are adopted as-is.
///
/// Returns `None` if the matrices do not cover exactly the canonical
/// graph's reachable blocks ([`LivenessChecker::revive`]) — the final
/// structural gate keeping a CRC-passing-but-wrong file from panicking
/// the checker constructor.
pub fn revive(shape: &CfgShape, pre: Precomputation) -> Option<FunctionLiveness> {
    LivenessChecker::revive(&shape.to_graph(), pre).map(FunctionLiveness::from_checker)
}

/// Outcome of one [`PersistStore::gc`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entries still present after the sweep.
    pub retained: usize,
    /// Entries deleted by the sweep.
    pub removed: usize,
}

/// What a [`PersistStore::load`] probe found.
///
/// `Reject` and `Error` are deliberately distinct outcomes: a reject
/// means the *disk worked* but the bytes were invalid (corruption,
/// version crossing, hash collision — recompute and overwrite, the
/// file is the problem); an error means the *I/O itself failed*
/// (EACCES, EIO, a detached volume — the device is the problem, and
/// repeated errors should trip the engine's disk circuit breaker
/// rather than hammer a dead disk). The engine accounts them as
/// `disk_rejects` vs `disk_errors` in
/// [`CacheStats`](crate::CacheStats).
#[derive(Debug)]
pub enum LoadOutcome<T = Precomputation> {
    /// A valid entry for exactly this `(shape, kind)`.
    Hit(T),
    /// No file for this fingerprint.
    Absent,
    /// A file existed but failed validation (corrupt, truncated,
    /// version-crossed, or a hash-collided entry for a different
    /// shape). The caller recomputes and overwrites.
    Reject,
    /// The probe's I/O failed with something other than "not found" —
    /// the payload is the underlying error. The caller recomputes
    /// (never bubbles the failure into an answer) and feeds the error
    /// to its disk-health tracking.
    Error(std::io::Error),
}

/// The cross-process store: one directory, one file per fingerprint.
///
/// All operations degrade instead of failing: a missing file is
/// [`Absent`](LoadOutcome::Absent), an invalid one is
/// [`Reject`](LoadOutcome::Reject), failing I/O is
/// [`Error`](LoadOutcome::Error) (reported, never bubbled into an
/// answer), and a failed write returns its error without disturbing
/// the computed result (the cache is an accelerator, not a database).
/// See the module docs for format and corruption policy.
///
/// # Examples
///
/// ```
/// use fastlive_core::FunctionLiveness;
/// use fastlive_engine::persist::{LoadOutcome, PersistStore};
/// use fastlive_engine::CfgShape;
/// use fastlive_ir::parse_function;
///
/// let dir = std::env::temp_dir().join(format!("fastlive-doc-{}", std::process::id()));
/// let store = PersistStore::new(&dir);
/// let f = parse_function("function %f { block0(v0): jump block1 block1: return v0 }")?;
/// let shape = CfgShape::of(&f);
/// assert!(matches!(store.load(&shape), LoadOutcome::Absent));
///
/// let checker = fastlive_core::LivenessChecker::compute(&shape.to_graph());
/// store.save(&shape, checker.precomputation())?;
/// assert!(matches!(store.load(&shape), LoadOutcome::Hit(_)));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PersistStore {
    dir: PathBuf,
    /// The filesystem seam: every I/O of the store goes through this
    /// handle, so tests swap in a [`FaultVfs`](crate::vfs::FaultVfs)
    /// and script ENOSPC storms or torn writes deterministically.
    vfs: Arc<dyn Vfs>,
}

/// Distinguishes concurrent writers' temp files within one process;
/// the pid distinguishes processes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// `true` iff `name` matches the store's own temp-file pattern,
/// `{16 hex}.tmp.{digits}.{digits}` — the sweep must never touch
/// anything else living in a shared directory.
fn is_own_tmp_name(name: &str) -> bool {
    let Some(rest) = name
        .get(..16)
        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|_| name[16..].strip_prefix(".tmp."))
    else {
        return false;
    };
    match rest.split_once('.') {
        Some((pid, counter)) => {
            !pid.is_empty()
                && !counter.is_empty()
                && pid.bytes().all(|b| b.is_ascii_digit())
                && counter.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// `true` iff `name` matches the store's entry pattern,
/// `{16 hex}.flpc` — GC must never touch unrelated files living in a
/// shared `persist_dir`.
fn is_entry_name(name: &str) -> bool {
    name.len() == 16 + 1 + FILE_EXTENSION.len()
        && name.as_bytes()[16] == b'.'
        && name[..16].bytes().all(|b| b.is_ascii_hexdigit())
        && name[17..] == *FILE_EXTENSION
}

impl PersistStore {
    /// Opens (creating if needed, best-effort) a store rooted at `dir`
    /// on the real filesystem and sweeps temp files orphaned by
    /// crashed writers.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_vfs(dir, Arc::new(StdVfs))
    }

    /// Like [`new`](Self::new), but every I/O goes through `vfs` — the
    /// fault-injection seam (see [`vfs`](crate::vfs)).
    pub fn with_vfs(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Self {
        let dir = dir.into();
        let _ = vfs.create_dir_all(&dir);
        Self::sweep_stale_tmp(&dir, vfs.as_ref());
        PersistStore { dir, vfs }
    }

    /// Deletes temp files old enough that their writer is surely gone
    /// (a process killed between write and rename leaks its temp file;
    /// nothing else ever removes them). Only files matching this
    /// store's own temp-name pattern are touched — `persist_dir` may
    /// be a shared directory with unrelated contents. The age floor
    /// keeps a concurrent, still-live writer's file safe; everything
    /// is best-effort — a failed sweep costs disk space, never
    /// correctness.
    fn sweep_stale_tmp(dir: &Path, vfs: &dyn Vfs) {
        const STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(600);
        let Ok(entries) = vfs.read_dir(dir) else {
            return;
        };
        for path in entries {
            let Some(name) = path.file_name() else {
                continue;
            };
            if !is_own_tmp_name(&name.to_string_lossy()) {
                continue;
            }
            let stale = vfs
                .metadata(&path)
                .ok()
                .and_then(|m| m.modified)
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > STALE_AFTER);
            if stale {
                let _ = vfs.remove_file(&path);
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a given shape's **liveness** entry persists to (salt
    /// 0 — see [`entry_path_for`](Self::entry_path_for)).
    pub fn entry_path(&self, shape: &CfgShape) -> PathBuf {
        self.salted_path(shape, FunctionLiveness::SALT)
    }

    /// The file that serves `(shape, kind)` queries. Nullness is a
    /// view of the liveness artifact, so both kinds map to the
    /// liveness entry; no file under a retired salt is ever probed.
    pub fn entry_path_for(&self, shape: &CfgShape, kind: AnalysisKind) -> PathBuf {
        match kind {
            AnalysisKind::Liveness | AnalysisKind::Nullness => self.entry_path(shape),
        }
    }

    /// The shape hash XOR an artifact's salt, hex, plus the common
    /// extension. Distinct artifacts of one shape are distinct files,
    /// so GC, the tmp sweep and the entry-name pattern need no
    /// per-artifact cases.
    fn salted_path(&self, shape: &CfgShape, salt: u64) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{FILE_EXTENSION}", shape.hash64() ^ salt))
    }

    /// Probes the store for `shape`'s liveness precomputation (see
    /// [`load_artifact`](Self::load_artifact) for the generic path and
    /// the outcome classification).
    pub fn load(&self, shape: &CfgShape) -> LoadOutcome {
        self.probe::<FunctionLiveness, _>(shape, |bytes| decode(shape, bytes))
    }

    /// Probes the store for `shape`'s `A` artifact, fully revived.
    /// Every failure mode is classified (see [`LoadOutcome`]): missing
    /// file → `Absent`, invalid bytes → `Reject`, failing I/O →
    /// `Error` — the caller always gets an answer it can degrade on,
    /// never a panic.
    pub fn load_artifact<A: AnalysisArtifact>(&self, shape: &CfgShape) -> LoadOutcome<A> {
        self.probe::<A, _>(shape, |bytes| decode_artifact::<A>(shape, bytes))
    }

    /// The shared probe skeleton for `A`'s entry: size gate on
    /// metadata, read, decode.
    fn probe<A: AnalysisArtifact, T>(
        &self,
        shape: &CfgShape,
        decode_fn: impl FnOnce(&[u8]) -> Option<T>,
    ) -> LoadOutcome<T> {
        let path = self.salted_path(shape, A::SALT);
        // Cheap size gate before reading: a valid entry for this
        // `(shape, A)` can never exceed the header and encoding plus
        // `A::max_body_len` (body sizes are bounded by the block
        // count), so an absurdly large file — filesystem corruption, a
        // zero-extended blob — is rejected on metadata alone instead of
        // being slurped and CRC-scanned.
        let max_len = 32 + 4 * shape.encoding().len() as u64 + A::max_body_len(shape) + 4;
        match self.vfs.metadata(&path) {
            Ok(meta) if meta.len > max_len => return LoadOutcome::Reject,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            // A failing stat is the disk's fault, not the file's:
            // classify as an I/O error so the breaker sees it.
            Err(e) => return LoadOutcome::Error(e),
        }
        let bytes = match self.vfs.read(&path) {
            Ok(bytes) => bytes,
            // Deleted between stat and read (a racing GC): clean miss.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            Err(e) => return LoadOutcome::Error(e),
        };
        match decode_fn(&bytes) {
            Some(value) => LoadOutcome::Hit(value),
            None => LoadOutcome::Reject,
        }
    }

    /// Writes (or overwrites) `shape`'s liveness entry atomically (see
    /// [`save_artifact`](Self::save_artifact) for the contract).
    pub fn save(&self, shape: &CfgShape, pre: &Precomputation) -> Result<(), std::io::Error> {
        self.publish(shape, FunctionLiveness::SALT, encode(shape, pre))
    }

    /// Writes (or overwrites) `shape`'s `A` entry atomically:
    /// encode to a unique temp file, then rename into place. On any
    /// I/O failure the temp file is removed (best-effort), no partial
    /// entry is left behind, and the underlying error is returned —
    /// the caller keeps its freshly computed result either way (a
    /// failed write-through **never** invalidates a successful
    /// computation; it only feeds disk-health accounting).
    pub fn save_artifact<A: AnalysisArtifact>(
        &self,
        shape: &CfgShape,
        artifact: &A,
    ) -> Result<(), std::io::Error> {
        self.publish(shape, A::SALT, encode_artifact(shape, artifact))
    }

    /// The shared write-temp-then-rename skeleton.
    fn publish(&self, shape: &CfgShape, salt: u64, bytes: Vec<u8>) -> Result<(), std::io::Error> {
        let final_path = self.salted_path(shape, salt);
        let tmp_path = self.dir.join(format!(
            "{:016x}.tmp.{}.{}",
            shape.hash64() ^ salt,
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = self.vfs.write(&tmp_path, &bytes) {
            let _ = self.vfs.remove_file(&tmp_path);
            return Err(e);
        }
        if let Err(e) = self.vfs.rename(&tmp_path, &final_path) {
            let _ = self.vfs.remove_file(&tmp_path);
            return Err(e);
        }
        Ok(())
    }

    /// Evicts cache entries: everything older than `max_age` (when
    /// given) is deleted first, then the oldest survivors until at
    /// most `max_entries` remain. Age and rank are read from file
    /// modification times — a write-through refreshes an entry's
    /// stamp, so "oldest" approximates "least recently recomputed".
    ///
    /// **Unreadable-mtime policy**: an entry whose modification time
    /// cannot be stat'd (`mtime = None`) is treated as *infinitely
    /// old* — it is expired by **any** `max_age` and sorts first under
    /// entry pressure. A file whose metadata cannot even be read is
    /// the least trustworthy thing in the store, and evicting it errs
    /// toward recomputation — the always-safe direction.
    ///
    /// Deleting **any** entry is always safe: the next probe of that
    /// shape degrades to one clean `disk_misses` recomputation whose
    /// write-through restores the file — GC can cost work, never
    /// correctness. Only files matching the store's own
    /// `{16 hex}.flpc` entry pattern are considered; everything else
    /// in a shared directory survives, and every deletion is
    /// best-effort (an undeletable entry is counted as retained).
    pub fn gc(&self, max_entries: usize, max_age: Option<std::time::Duration>) -> GcStats {
        let Ok(entries) = self.vfs.read_dir(&self.dir) else {
            return GcStats::default();
        };
        let mut removed = 0usize;
        // `None` mtime = infinitely old; `Option<SystemTime>` orders
        // `None` before every `Some`, so the default sort already puts
        // unreadable entries first in the eviction queue.
        let mut kept: Vec<(PathBuf, Option<SystemTime>)> = Vec::new();
        for path in entries {
            let Some(name) = path.file_name() else {
                continue;
            };
            if !is_entry_name(&name.to_string_lossy()) {
                continue;
            }
            let mtime = self.vfs.metadata(&path).ok().and_then(|m| m.modified);
            let expired = max_age.is_some_and(|age| match mtime {
                // Infinitely old: expired under any age bound.
                None => true,
                Some(t) => t.elapsed().map(|elapsed| elapsed > age).unwrap_or(false),
            });
            if expired && self.vfs.remove_file(&path).is_ok() {
                removed += 1;
            } else {
                kept.push((path, mtime));
            }
        }
        kept.sort_by_key(|&(_, mtime)| mtime);
        let excess = kept.len().saturating_sub(max_entries);
        let mut retained = kept.len() - excess;
        for (path, _) in kept.into_iter().take(excess) {
            if self.vfs.remove_file(&path).is_ok() {
                removed += 1;
            } else {
                retained += 1;
            }
        }
        GcStats { retained, removed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_ir::parse_function;

    fn shape_and_pre(src: &str) -> (CfgShape, Precomputation) {
        let f = parse_function(src).expect("parses");
        let shape = CfgShape::of(&f);
        let checker = LivenessChecker::compute(&shape.to_graph());
        let pre = checker.precomputation().clone();
        (shape, pre)
    }

    const LOOP_SRC: &str = "function %f { block0(v0):
        jump block1
    block1:
        brif v0, block1, block2
    block2:
        return v0 }";

    #[test]
    fn gc_entry_pattern_matches_only_entries() {
        assert!(is_entry_name("00ff00ff00ff00ff.flpc"));
        assert!(is_entry_name("abcdefABCDEF0123.flpc"));
        assert!(!is_entry_name("00ff00ff00ff00ff.tmp.12.3"));
        assert!(!is_entry_name("notes.flpc"));
        assert!(!is_entry_name("00ff00ff00ff00ff.flpcx"));
        assert!(!is_entry_name("zzff00ff00ff00ff.flpc"));
        assert!(!is_entry_name("00ff00ff00ff00ff"));
    }

    #[test]
    fn gc_prunes_to_the_entry_bound_oldest_first() {
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-gc-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = PersistStore::new(&dir);
        let sources = [
            LOOP_SRC,
            "function %g { block0: return }",
            "function %h { block0(v0): jump block1 block1: return v0 }",
        ];
        let mut shapes = Vec::new();
        for (i, src) in sources.iter().enumerate() {
            let (shape, pre) = shape_and_pre(src);
            assert!(store.save(&shape, &pre).is_ok());
            // Space the mtimes out so "oldest" is deterministic even on
            // coarse-grained filesystems.
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000 + i as u64);
            let f = std::fs::File::options()
                .append(true)
                .open(store.entry_path(&shape))
                .unwrap();
            f.set_modified(t).unwrap();
            shapes.push(shape);
        }
        // An unrelated file in the shared directory must survive GC.
        let bystander = dir.join("notes.txt");
        std::fs::write(&bystander, b"keep me").unwrap();

        let stats = store.gc(2, None);
        assert_eq!(
            stats,
            GcStats {
                retained: 2,
                removed: 1
            }
        );
        // The oldest entry (index 0) went; the newer two survive.
        assert!(matches!(store.load(&shapes[0]), LoadOutcome::Absent));
        assert!(matches!(store.load(&shapes[1]), LoadOutcome::Hit(_)));
        assert!(matches!(store.load(&shapes[2]), LoadOutcome::Hit(_)));
        assert!(bystander.exists());

        // Age-based expiry: everything is decades past a zero max-age.
        let stats = store.gc(usize::MAX, Some(std::time::Duration::ZERO));
        assert_eq!(
            stats,
            GcStats {
                retained: 0,
                removed: 2
            }
        );
        assert!(matches!(store.load(&shapes[1]), LoadOutcome::Absent));
        assert!(bystander.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_sweep_pattern_matches_only_own_files() {
        assert!(is_own_tmp_name("00ff00ff00ff00ff.tmp.1234.0"));
        assert!(is_own_tmp_name("abcdefABCDEF0123.tmp.9.42"));
        // Unrelated files sharing a shared persist_dir must survive.
        assert!(!is_own_tmp_name("notes.tmp.bak"));
        assert!(!is_own_tmp_name("data.tmp.1"));
        assert!(!is_own_tmp_name("00ff00ff00ff00ff.flpc"));
        assert!(!is_own_tmp_name("00ff00ff00ff00ff.tmp."));
        assert!(!is_own_tmp_name("00ff00ff00ff00ff.tmp.12x.3"));
        assert!(!is_own_tmp_name("zzff00ff00ff00ff.tmp.12.3"));
        assert!(!is_own_tmp_name("short.tmp.1.2"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let (shape, pre) = shape_and_pre(LOOP_SRC);
        let bytes = encode(&shape, &pre);
        let back = decode(&shape, &bytes).expect("own encoding decodes");
        assert_eq!(back, pre);
    }

    #[test]
    fn decode_rejects_other_shapes_entries() {
        let (shape, pre) = shape_and_pre(LOOP_SRC);
        let (other, _) = shape_and_pre("function %g { block0: return }");
        let bytes = encode(&shape, &pre);
        // A different probing shape must see a reject, not a wrong hit
        // — this is the hash-collision safety net.
        assert!(decode(&other, &bytes).is_none());
    }

    #[test]
    fn store_round_trips_and_overwrites() {
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-unit-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = PersistStore::new(&dir);
        let (shape, pre) = shape_and_pre(LOOP_SRC);
        assert!(matches!(store.load(&shape), LoadOutcome::Absent));
        assert!(store.save(&shape, &pre).is_ok());
        match store.load(&shape) {
            LoadOutcome::Hit(back) => assert_eq!(back, pre),
            other => panic!("expected hit, got {other:?}"),
        }
        // Corrupt the file in place: load degrades to Reject; saving
        // again repairs it.
        std::fs::write(store.entry_path(&shape), b"garbage").unwrap();
        assert!(matches!(store.load(&shape), LoadOutcome::Reject));
        assert!(store.save(&shape, &pre).is_ok());
        assert!(matches!(store.load(&shape), LoadOutcome::Hit(_)));
        // An absurdly oversized file is rejected on metadata alone
        // (the size gate — no multi-gigabyte slurp before validation).
        let valid = std::fs::read(store.entry_path(&shape)).unwrap();
        let mut huge = valid.clone();
        huge.resize(valid.len() + 4096, 0);
        std::fs::write(store.entry_path(&shape), &huge).unwrap();
        assert!(matches!(store.load(&shape), LoadOutcome::Reject));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_classifies_io_failures_as_errors_not_rejects() {
        use crate::vfs::{Fault, FaultRule, FaultVfs, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-err-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let fv = Arc::new(FaultVfs::healthy());
        let store = PersistStore::with_vfs(&dir, fv.clone());
        let (shape, pre) = shape_and_pre(LOOP_SRC);
        assert!(store.save(&shape, &pre).is_ok());

        // A failing stat is an Error (the device's fault), not Reject.
        fv.set_rules(vec![FaultRule::every(OpKind::Metadata, Fault::eacces())]);
        match store.load(&shape) {
            LoadOutcome::Error(e) => assert_eq!(e.raw_os_error(), Some(13)),
            other => panic!("expected Error(EACCES), got {other:?}"),
        }

        // A failing read (after a clean stat) likewise.
        fv.set_rules(vec![FaultRule::every(OpKind::Read, Fault::eio())]);
        match store.load(&shape) {
            LoadOutcome::Error(e) => assert_eq!(e.raw_os_error(), Some(5)),
            other => panic!("expected Error(EIO), got {other:?}"),
        }

        // Faults cleared: the entry was never harmed.
        fv.set_rules(Vec::new());
        assert!(matches!(store.load(&shape), LoadOutcome::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_failure_leaves_no_partial_entry() {
        use crate::vfs::{Fault, FaultRule, FaultVfs, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-enospc-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let fv = Arc::new(FaultVfs::healthy());
        let store = PersistStore::with_vfs(&dir, fv.clone());
        let (shape, pre) = shape_and_pre(LOOP_SRC);

        // ENOSPC on the tmp write: error surfaces, nothing published.
        fv.set_rules(vec![FaultRule::every(OpKind::Write, Fault::enospc())]);
        let err = store.save(&shape, &pre).expect_err("write faulted");
        assert_eq!(err.raw_os_error(), Some(28));
        fv.set_rules(Vec::new());
        assert!(matches!(store.load(&shape), LoadOutcome::Absent));

        // EIO on the rename: tmp cleaned up best-effort, still absent.
        fv.set_rules(vec![FaultRule::every(OpKind::Rename, Fault::eio())]);
        assert!(store.save(&shape, &pre).is_err());
        fv.set_rules(Vec::new());
        assert!(matches!(store.load(&shape), LoadOutcome::Absent));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");

        // Disk healed: the same save now lands.
        assert!(store.save(&shape, &pre).is_ok());
        assert!(matches!(store.load(&shape), LoadOutcome::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_treats_unreadable_mtime_as_infinitely_old() {
        use crate::vfs::{Fault, FaultRule, FaultVfs, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "fastlive-persist-gcmtime-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let fv = Arc::new(FaultVfs::healthy());
        let store = PersistStore::with_vfs(&dir, fv.clone());
        let (shape_a, pre_a) = shape_and_pre(LOOP_SRC);
        let (shape_b, pre_b) = shape_and_pre("function %g { block0: return }");
        assert!(store.save(&shape_a, &pre_a).is_ok());
        assert!(store.save(&shape_b, &pre_b).is_ok());
        let a_name = format!("{:016x}", shape_a.hash64());

        // Make `a`'s mtime unreadable: under entry pressure it must be
        // the *first* evicted even though it is not actually older.
        fv.set_rules(vec![
            FaultRule::every(OpKind::Metadata, Fault::eio()).on_paths(&a_name)
        ]);
        let stats = store.gc(1, None);
        assert_eq!(
            stats,
            GcStats {
                retained: 1,
                removed: 1
            }
        );
        fv.set_rules(Vec::new());
        assert!(matches!(store.load(&shape_a), LoadOutcome::Absent));
        assert!(matches!(store.load(&shape_b), LoadOutcome::Hit(_)));

        // And under an age bound, unreadable = expired by *any* age —
        // even one generous enough to keep every readable entry.
        assert!(store.save(&shape_a, &pre_a).is_ok());
        fv.set_rules(vec![
            FaultRule::every(OpKind::Metadata, Fault::eio()).on_paths(&a_name)
        ]);
        let stats = store.gc(usize::MAX, Some(std::time::Duration::from_secs(3600)));
        assert_eq!(
            stats,
            GcStats {
                retained: 1,
                removed: 1
            }
        );
        fv.set_rules(Vec::new());
        assert!(matches!(store.load(&shape_a), LoadOutcome::Absent));
        assert!(matches!(store.load(&shape_b), LoadOutcome::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn revive_answers_like_a_fresh_checker() {
        let f = parse_function(LOOP_SRC).expect("parses");
        let shape = CfgShape::of(&f);
        let canonical = LivenessChecker::compute(&shape.to_graph());
        let pre = canonical.precomputation().clone();
        let bytes = encode(&shape, &pre);
        let revived =
            revive(&shape, decode(&shape, &bytes).expect("decodes")).expect("dimensions match");
        let fresh = FunctionLiveness::compute(&f);
        for v in f.values() {
            for b in f.blocks() {
                assert_eq!(
                    revived.is_live_in(&f, v, b),
                    fresh.is_live_in(&f, v, b),
                    "{v} live-in at {b}"
                );
                assert_eq!(
                    revived.is_live_out(&f, v, b),
                    fresh.is_live_out(&f, v, b),
                    "{v} live-out at {b}"
                );
            }
        }
    }

    #[test]
    fn entries_round_trip_through_the_generic_codec() {
        let f = parse_function(LOOP_SRC).expect("parses");
        let shape = CfgShape::of(&f);
        let live = <FunctionLiveness as AnalysisArtifact>::compute(&shape);
        let pre = live.checker().precomputation();
        let bytes = encode_artifact(&shape, &live);
        assert_eq!(bytes, encode(&shape, pre), "one layout, two entry points");
        let back: FunctionLiveness = decode_artifact(&shape, &bytes).expect("own encoding decodes");
        assert_eq!(back.checker().precomputation(), pre);
    }

    #[test]
    fn revive_rejects_dimension_mismatches() {
        let (shape, pre) = shape_and_pre(LOOP_SRC);
        let (_, small) = shape_and_pre("function %g { block0: return }");
        assert!(revive(&shape, small.clone()).is_none());
        // Mixed dimensions (valid R, undersized T and vice versa) are
        // gated too — `revive` must hold for any caller-built value,
        // not just `decode` output.
        assert!(revive(
            &shape,
            Precomputation::from_parts(pre.r.clone(), small.t.clone())
        )
        .is_none());
        assert!(revive(&shape, Precomputation::from_parts(small.r, pre.t.clone())).is_none());
        // A hand-built value with a wrong-shaped derived transpose is
        // rejected too.
        let mut skewed = pre.clone();
        skewed.rt = small.t;
        assert!(revive(&shape, skewed).is_none());
        assert!(revive(&shape, pre).is_some());
    }
}
