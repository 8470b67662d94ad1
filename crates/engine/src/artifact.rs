//! The generic analysis-artifact layer: what the engine caches,
//! dedups, persists and revives — per `(fingerprint, artifact)` key.
//!
//! The engine started life as a liveness cache; the paper's
//! precomputation is just one instance of a shape-level artifact in
//! the parameterized sparse-dataflow construction (Tavares et al.).
//! This module is the seam between the analyses the engine answers
//! and the artifacts it stores:
//!
//! * [`AnalysisKind`] — the closed set of analyses the engine serves.
//!   Liveness owns a stored artifact; nullness / definite-init is a
//!   **derived view**: its shape-level part is the dominator tree the
//!   liveness checker already holds, so resolving it resolves the
//!   shape's liveness artifact (through every cache, dedup and disk
//!   tier) and wraps that tree
//!   ([`NullnessArtifact::from_dom`]). A derived view adds no cache
//!   entry, no miss and no file.
//! * [`AnalysisArtifact`] — the trait a *stored* artifact implements
//!   to ride the engine: compute over the canonical graph, encode the
//!   expensive body, decode + revive (rebuild derived structures,
//!   validate against the graph — `None` degrades to a `disk_rejects`
//!   recomputation). Each implementation owns a **tag** (embedded in
//!   every persisted entry next to `FORMAT_VERSION`, so a CRC-valid
//!   file can never revive as the wrong artifact) and a **filename
//!   salt** (XORed into the shape hash for the entry's file name, so
//!   artifacts never collide in one persist directory).
//! * [`ArtifactHandle`] — the dynamically-typed `Arc` the striped
//!   cache, in-flight slots and `artifact_for` hand out.
//!
//! Adding an analysis means, first, asking whether it is a view of an
//! existing artifact (anything dominance-based is a view of the
//! liveness checker's tree — add a variant here and answer it from
//! the liveness handle). Only an analysis with an expensive body of
//! its own implements the trait, with a fresh tag and salt (never one
//! of [`RETIRED_TAGS`] / [`RETIRED_SALTS`]); the cache, dedup,
//! breaker, quarantine, persist codec, GC and telemetry tiers then
//! come for free.

use std::sync::Arc;

use fastlive_core::{FunctionLiveness, LivenessChecker, NullnessArtifact};

use crate::fingerprint::CfgShape;
use crate::persist::{self, Reader};

/// The analyses the engine can answer. Only stored artifacts key the
/// cache: every cache, dedup and quarantine key is a `(CfgShape,
/// artifact)` pair, and a derived view ([`Nullness`](Self::Nullness))
/// resolves through the artifact it is a view of.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnalysisKind {
    /// The CGO 2008 liveness precomputation (`R`/`T` matrices plus the
    /// DFS and dominator trees).
    Liveness,
    /// Dominance-based nullness / definite-initialization: a view of
    /// the liveness artifact's dominator tree.
    Nullness,
}

impl AnalysisKind {
    /// Every kind.
    pub const ALL: [AnalysisKind; 2] = [AnalysisKind::Liveness, AnalysisKind::Nullness];

    /// Stable snake_case label (telemetry, bench output).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Liveness => "liveness",
            AnalysisKind::Nullness => "nullness",
        }
    }
}

impl std::fmt::Display for AnalysisKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// On-disk tags no build may assign again. Tag 2 was the nullness
/// dominance-frontier entry of format version 2, written until
/// nullness became a view of the liveness artifact; a file carrying it
/// decodes as nothing (a `disk_rejects` wherever it is found).
pub const RETIRED_TAGS: [u32; 1] = [2];

/// Filename salts no build may assign again: the retired nullness
/// entries' salt. Files under it are never probed — GC ages them out
/// like any other entry.
pub const RETIRED_SALTS: [u64; 1] = [0x9e37_79b9_7f4a_7c15];

/// A stored analysis artifact the engine can serve: computable from
/// the canonical graph, persistable, revivable. Implementations must
/// be cheap to share (`Arc`) and safe to revive from hostile bytes —
/// `decode_body` returning `Some` is a promise that every later query
/// on the artifact is panic-free.
pub trait AnalysisArtifact: Send + Sync + Sized + 'static {
    /// The kind this artifact type serves.
    const KIND: AnalysisKind;

    /// The on-disk tag embedded in every persisted entry. Tags are
    /// never reused or renumbered — per the format-version policy, a
    /// layout change bumps `FORMAT_VERSION` instead.
    const TAG: u32;

    /// XORed into the shape hash to form the entry **file name** (and
    /// the stripe and quarantine keys), so each artifact gets its own
    /// file per shape.
    const SALT: u64;

    /// Computes the artifact from scratch over `shape`'s canonical
    /// graph. This is the expensive path every cache tier exists to
    /// avoid.
    fn compute(shape: &CfgShape) -> Self;

    /// Appends the persistable body (the expensive, shape-derived
    /// part) to `out`. Derived structures that are cheap to rebuild
    /// (dominator trees, transposes) are **not** encoded — revive
    /// recomputes them, which keeps files small and the format stable.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decodes a body and revives the artifact against `shape`'s
    /// canonical graph, validating every dimension. `None` means the
    /// bytes do not describe this shape's artifact — the store
    /// classifies that as a reject and the engine recomputes.
    fn decode_body(shape: &CfgShape, r: &mut Reader<'_>) -> Option<Self>;

    /// Upper bound on [`encode_body`](Self::encode_body)'s output
    /// length for `shape` — the store's pre-read size gate.
    fn max_body_len(shape: &CfgShape) -> u64;

    /// Wraps a shared artifact into the engine's dynamic handle.
    fn into_handle(this: Arc<Self>) -> ArtifactHandle;

    /// Recovers the typed artifact from a handle; `None` when the
    /// handle holds a different kind.
    fn from_handle(handle: &ArtifactHandle) -> Option<&Arc<Self>>;
}

/// The dynamically-typed artifact the striped cache, in-flight slots
/// and [`artifact_for`](crate::AnalysisEngine::artifact_for) hand out.
#[derive(Clone)]
pub enum ArtifactHandle {
    /// A revived or computed liveness checker.
    Liveness(Arc<FunctionLiveness>),
    /// A nullness view sharing a liveness checker's dominator tree.
    Nullness(Arc<NullnessArtifact>),
}

impl ArtifactHandle {
    /// The kind stored in this handle.
    pub fn kind(&self) -> AnalysisKind {
        match self {
            ArtifactHandle::Liveness(_) => AnalysisKind::Liveness,
            ArtifactHandle::Nullness(_) => AnalysisKind::Nullness,
        }
    }

    /// The liveness payload, if that is what this handle holds.
    pub fn as_liveness(&self) -> Option<&Arc<FunctionLiveness>> {
        match self {
            ArtifactHandle::Liveness(live) => Some(live),
            _ => None,
        }
    }

    /// The nullness payload, if that is what this handle holds.
    pub fn as_nullness(&self) -> Option<&Arc<NullnessArtifact>> {
        match self {
            ArtifactHandle::Nullness(art) => Some(art),
            _ => None,
        }
    }
}

impl std::fmt::Debug for ArtifactHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArtifactHandle::{}", self.kind())
    }
}

impl AnalysisArtifact for FunctionLiveness {
    const KIND: AnalysisKind = AnalysisKind::Liveness;
    const TAG: u32 = 1;
    /// Salt 0: pre-generalization (version-1) liveness files sit at
    /// exactly the paths the engine still probes, where the bumped
    /// `FORMAT_VERSION` rejects them into one clean `disk_rejects`
    /// recomputation each — degradation, not migration.
    const SALT: u64 = 0;

    fn compute(shape: &CfgShape) -> Self {
        FunctionLiveness::from_checker(LivenessChecker::compute(&shape.to_graph()))
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        persist::encode_liveness_body(self.checker().precomputation(), out);
    }

    fn decode_body(shape: &CfgShape, r: &mut Reader<'_>) -> Option<Self> {
        let pre = persist::decode_liveness_body(shape, r)?;
        persist::revive(shape, pre)
    }

    fn max_body_len(shape: &CfgShape) -> u64 {
        let n = shape.num_blocks() as u64;
        2 * (8 + 8 * n * n.div_ceil(64))
    }

    fn into_handle(this: Arc<Self>) -> ArtifactHandle {
        ArtifactHandle::Liveness(this)
    }

    fn from_handle(handle: &ArtifactHandle) -> Option<&Arc<Self>> {
        handle.as_liveness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_tags_and_salts_never_reuse_retired_ones() {
        assert_eq!(FunctionLiveness::TAG, 1);
        assert_eq!(
            FunctionLiveness::SALT,
            0,
            "v1 liveness paths must stay probed"
        );
        assert!(!RETIRED_TAGS.contains(&FunctionLiveness::TAG));
        assert!(!RETIRED_SALTS.contains(&FunctionLiveness::SALT));
    }

    #[test]
    fn handles_downcast_only_to_their_own_kind() {
        let f = fastlive_ir::parse_function("function %f { block0: return }").expect("parses");
        let shape = CfgShape::of(&f);
        let live = Arc::new(<FunctionLiveness as AnalysisArtifact>::compute(&shape));
        let null = Arc::new(NullnessArtifact::from_dom(Arc::clone(
            live.checker().shared_dom(),
        )));
        let lh = FunctionLiveness::into_handle(live);
        let nh = ArtifactHandle::Nullness(null);
        assert_eq!(lh.kind(), AnalysisKind::Liveness);
        assert_eq!(nh.kind(), AnalysisKind::Nullness);
        assert!(FunctionLiveness::from_handle(&lh).is_some());
        assert!(FunctionLiveness::from_handle(&nh).is_none());
        assert!(nh.as_nullness().is_some());
        assert!(lh.as_nullness().is_none());
    }
}
