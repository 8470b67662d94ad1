//! The [`QueryEngine`] trait and its three backends.
//!
//! One query plane, three executors behind the [`Backend`] enum:
//!
//! * [`DirectBackend`] — the paper's per-function checker, computed on
//!   demand for each addressed function. No shared state, no cache:
//!   the semantics baseline, and the right choice for one-shot tools.
//! * [`SessionBackend`] — an [`EngineSession`] over the
//!   [`AnalysisEngine`](fastlive_engine::AnalysisEngine)'s two-tier
//!   fingerprint cache, revalidating against CFG edits per query. The
//!   default: this is the production path.
//! * [`OracleBackend`] — the iterative data-flow solver
//!   ([`IterativeLiveness`]), recomputed from scratch on every query.
//!   Slow and stateless by design: its answers are the referee the
//!   differential suites hold the other two against.
//!
//! All three answer byte-identical [`Response`]s for any [`Query`]
//! (`tests/facade_oracle.rs` enforces it over reducible, irreducible
//! and deep-live workloads); they differ only in cost model.

use std::sync::Arc;

use fastlive_cfg::{DfsTree, DomTree};
use fastlive_core::{
    BatchLiveness, FunctionLiveness, LivenessChecker, LivenessProvider, Nullness, NullnessArtifact,
    NullnessFacts, PointError,
};
use fastlive_dataflow::{IterativeLiveness, IterativeNullness, VarUniverse};
use fastlive_destruct::{values_interfere, CheckerEngine};
use fastlive_engine::{AnalysisKind, EngineSession};
use fastlive_ir::{Block, FuncId, Function, Module, ProgramPoint, Value};
use fastlive_telemetry::NoopRecorder;

use crate::plan::{run_planned, scalar_query};
use crate::query::{LiveSets, Query, QueryError, Response};

/// A liveness query executor: one [`Query`] in, one [`Response`] out,
/// batches via [`run_queries`](Self::run_queries).
///
/// Implementations must agree on semantics (Definitions 1–3 of the
/// paper, φ-uses attributed to predecessor blocks) — swapping backends
/// changes performance, never answers.
pub trait QueryEngine {
    /// Answers one query against the module's current state.
    fn query(&mut self, module: &Module, query: &Query) -> Result<Response, QueryError>;

    /// Answers a batch of queries, in input order. The default is a
    /// scalar loop; [`Backend`] and the concrete backends override it
    /// with a plan-and-run execution that groups queries per function,
    /// resolves each function's uses once, and serves grouped
    /// `LiveIn`/`LiveOut` probes from [`BatchLiveness`] rows.
    fn run_queries(
        &mut self,
        module: &Module,
        queries: &[Query],
    ) -> Vec<Result<Response, QueryError>> {
        queries.iter().map(|q| self.query(module, q)).collect()
    }

    /// Short backend name for reports.
    fn backend_name(&self) -> &'static str;
}

/// Which backend a [`Fastlive`](crate::Fastlive) session runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Per-function checker, computed per query ([`DirectBackend`]).
    Direct,
    /// Engine-cached, revalidating ([`SessionBackend`]) — the default.
    #[default]
    Session,
    /// Iterative dataflow, for differential testing ([`OracleBackend`]).
    Oracle,
}

/// The per-function checker backend: every query (or query group)
/// computes the paper's precomputation for the addressed function and
/// answers from it. Stateless between calls.
#[derive(Clone, Debug)]
pub struct DirectBackend {
    subtree_skipping: bool,
}

impl DirectBackend {
    /// A direct backend with §4.1 subtree skipping enabled.
    pub fn new() -> Self {
        DirectBackend {
            subtree_skipping: true,
        }
    }

    /// A direct backend with subtree skipping set explicitly (the
    /// facade builder's `subtree_skipping` knob lands here).
    pub fn with_subtree_skipping(enabled: bool) -> Self {
        DirectBackend {
            subtree_skipping: enabled,
        }
    }
}

impl Default for DirectBackend {
    fn default() -> Self {
        Self::new()
    }
}

/// The engine-cached backend: wraps an [`EngineSession`], so queries
/// ride the fingerprint cache, the persistence tier and the per-query
/// CFG revalidation.
pub struct SessionBackend<'e> {
    session: EngineSession<'e>,
}

impl<'e> SessionBackend<'e> {
    /// Wraps an analyzed session.
    pub fn new(session: EngineSession<'e>) -> Self {
        SessionBackend { session }
    }

    /// The underlying engine session (epochs, recomputation counters).
    pub fn session(&self) -> &EngineSession<'e> {
        &self.session
    }
}

/// The iterative-dataflow oracle backend: recomputes the classic
/// bit-vector fixpoint for the addressed function on **every** query.
/// Deliberately slow and stateless — the independent referee for
/// differential testing of the other backends.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleBackend;

/// The three executors behind one type — what
/// [`Fastlive::session`](crate::Fastlive::session) hands out (wrapped
/// in a [`FastliveSession`](crate::FastliveSession)).
pub enum Backend<'e> {
    /// Per-function checker.
    Direct(DirectBackend),
    /// Engine-cached session.
    Session(SessionBackend<'e>),
    /// Iterative-dataflow oracle.
    Oracle(OracleBackend),
}

/// One resolved function's analysis state for the duration of a query
/// (or of a whole per-function query group, under the planner): the
/// backend-specific liveness engine plus the nullness state, derived
/// from it on the first nullness-family query.
pub(crate) struct FuncAnalysis {
    kind: LivenessState,
    nullness: Option<NullnessState>,
}

/// How one resolved function's *liveness* is served. (This used to be
/// named `AnalysisKind`, which now names the engine's analysis-id enum
/// — the facade state is per-backend, the engine enum is per-analysis.)
enum LivenessState {
    /// An owned checker (direct backend). Boxed to keep the enum small
    /// — the checker embeds its matrices and tree arrays inline.
    Checker(Box<FunctionLiveness>),
    /// A cache-shared checker (session backend).
    Shared(Arc<FunctionLiveness>),
    /// The data-flow oracle's solved sets, plus the dominator tree the
    /// referee builds for itself — lazily, on its first interference
    /// test — so it stays independent of the checker's.
    Iterative(IterativeLiveness, Option<Box<DomTree>>),
}

/// How one resolved function's *nullness* is served: the exact sparse
/// path (a view of the checker's dominator tree plus, once a
/// `Nullness` query asks, the solved per-value facts) or the dense
/// iterative referee. Both answer identically — `tests/facade_oracle.rs`
/// and the fuzz campaign's query mix enforce it.
pub(crate) enum NullnessState {
    /// Dominance artifact sharing the liveness checker's tree (direct
    /// and session backends), and the sparse solve over the function's
    /// current body — run only for `Nullness` queries: definite-init
    /// is a pure dominance test.
    Exact {
        art: NullnessArtifact,
        facts: Option<NullnessFacts>,
    },
    /// The chaotic-iteration referee (oracle backend).
    Oracle(IterativeNullness),
}

impl NullnessState {
    pub(crate) fn fact(&mut self, func: &Function, v: Value) -> Nullness {
        match self {
            NullnessState::Exact { art, facts } => {
                facts.get_or_insert_with(|| art.solve(func)).of(v)
            }
            NullnessState::Oracle(it) => it.fact(v),
        }
    }

    pub(crate) fn definitely_init(&self, func: &Function, v: Value, q: Block) -> bool {
        match self {
            NullnessState::Exact { art, .. } => art.definitely_initialized_at_entry(func, v, q),
            NullnessState::Oracle(it) => it.definitely_initialized_at_entry(v, q),
        }
    }
}

/// The oracle's own dominator tree — the one place the facade builds
/// a tree instead of sharing the liveness checker's, so the referee's
/// interference answers never lean on the code they referee.
fn oracle_dom(func: &Function) -> DomTree {
    let dfs = DfsTree::compute(func);
    DomTree::compute(func, &dfs)
}

impl LivenessState {
    fn checker(&self) -> Option<&FunctionLiveness> {
        match self {
            LivenessState::Checker(c) => Some(c),
            LivenessState::Shared(c) => Some(c),
            LivenessState::Iterative(..) => None,
        }
    }
}

impl FuncAnalysis {
    fn new(kind: LivenessState) -> Self {
        FuncAnalysis {
            kind,
            nullness: None,
        }
    }

    /// The function's nullness state, derived on first use: a view of
    /// the checker's own dominator tree for the checker-backed states
    /// (no second tree, no cache round trip), the dense referee for the
    /// oracle.
    pub(crate) fn nullness(&mut self, func: &Function) -> &mut NullnessState {
        let kind = &self.kind;
        self.nullness.get_or_insert_with(|| match kind.checker() {
            Some(c) => NullnessState::Exact {
                art: NullnessArtifact::from_dom(Arc::clone(c.checker().shared_dom())),
                facts: None,
            },
            None => NullnessState::Oracle(IterativeNullness::compute(func)),
        })
    }

    pub(crate) fn live_in(&self, func: &Function, v: Value, b: Block) -> bool {
        // Total over every state: the old shape funneled the two
        // checker variants through an `Option` + `expect`, which made
        // adding a variant a latent runtime abort.
        match &self.kind {
            LivenessState::Iterative(it, _) => it.is_live_in(v, b),
            LivenessState::Checker(c) => c.is_live_in(func, v, b),
            LivenessState::Shared(c) => c.is_live_in(func, v, b),
        }
    }

    pub(crate) fn live_out(&self, func: &Function, v: Value, b: Block) -> bool {
        match &self.kind {
            LivenessState::Iterative(it, _) => it.is_live_out(v, b),
            LivenessState::Checker(c) => c.is_live_out(func, v, b),
            LivenessState::Shared(c) => c.is_live_out(func, v, b),
        }
    }

    pub(crate) fn live_at(
        &mut self,
        func: &Function,
        v: Value,
        p: ProgramPoint,
    ) -> Result<bool, PointError> {
        match &mut self.kind {
            LivenessState::Iterative(it, _) => LivenessProvider::live_at(it, func, v, p),
            LivenessState::Checker(c) => c.is_live_at(func, v, p),
            LivenessState::Shared(c) => c.is_live_at(func, v, p),
        }
    }

    pub(crate) fn live_sets(&self, func: &Function) -> LiveSets {
        let from_checker = |c: &FunctionLiveness| {
            let (live_in, live_out) = c.live_sets(func);
            LiveSets { live_in, live_out }
        };
        match &self.kind {
            LivenessState::Iterative(it, _) => LiveSets {
                live_in: func.blocks().map(|b| it.live_in_set(b)).collect(),
                live_out: func.blocks().map(|b| it.live_out_set(b)).collect(),
            },
            LivenessState::Checker(c) => from_checker(c),
            LivenessState::Shared(c) => from_checker(c),
        }
    }

    /// The dense row snapshot the planner serves grouped `LiveIn` /
    /// `LiveOut` probes from. `None` for the oracle — its block
    /// queries are already O(1) probes into the solved sets.
    pub(crate) fn batch(&self, func: &Function) -> Option<BatchLiveness> {
        self.kind.checker().map(|c| c.batch(func))
    }

    pub(crate) fn interfere(
        &mut self,
        func: &Function,
        a: Value,
        b: Value,
    ) -> Result<bool, PointError> {
        // The checker-backed states test dominance on the checker's own
        // tree (built over the canonical graph for the session backend:
        // node ids are block indices either way, and dominance does not
        // depend on successor order).
        match &mut self.kind {
            LivenessState::Checker(c) => {
                let dom = Arc::clone(c.checker().shared_dom());
                values_interfere(c.as_mut(), func, &dom, a, b)
            }
            LivenessState::Shared(arc) => {
                let mut engine = CheckerEngine::from_shared(Arc::clone(arc));
                values_interfere(&mut engine, func, arc.checker().dom(), a, b)
            }
            LivenessState::Iterative(it, dom) => {
                let dom = dom.get_or_insert_with(|| Box::new(oracle_dom(func)));
                values_interfere(it, func, dom, a, b)
            }
        }
    }
}

/// Internal hook the scalar executor and the planner share: produce
/// the analysis state for one resolved function. Fallible because the
/// session backend's analysis may itself have failed (a panicked
/// precomputation under fault injection) — that failure becomes a
/// per-query [`QueryError::AnalysisFailed`], never a crash. Nullness
/// needs no hook of its own: it is derived from this state, so it
/// fails, and is retried, exactly like liveness.
pub(crate) trait AnalysisSource {
    fn analysis_for(&mut self, module: &Module, id: FuncId) -> Result<FuncAnalysis, QueryError>;

    /// Advisory cache warm-up for a cross-function batch: resolve the
    /// given `(function, analysis)` pairs through whatever parallelism
    /// the backend owns before the planner's sequential group loop.
    /// Default: nothing (the stateless backends compute per group
    /// anyway); the session backend threads the batch through the
    /// engine's worker pool.
    fn prefetch(&mut self, _module: &Module, _requests: &[(FuncId, AnalysisKind)]) {}
}

impl AnalysisSource for DirectBackend {
    fn analysis_for(&mut self, module: &Module, id: FuncId) -> Result<FuncAnalysis, QueryError> {
        let func = module.func(id);
        let mut checker = LivenessChecker::compute(func);
        checker.set_subtree_skipping(self.subtree_skipping);
        Ok(FuncAnalysis::new(LivenessState::Checker(Box::new(
            FunctionLiveness::from_checker(checker),
        ))))
    }
}

impl AnalysisSource for SessionBackend<'_> {
    fn analysis_for(&mut self, module: &Module, id: FuncId) -> Result<FuncAnalysis, QueryError> {
        Ok(FuncAnalysis::new(LivenessState::Shared(
            self.session.analysis(module, id)?,
        )))
    }

    fn prefetch(&mut self, module: &Module, requests: &[(FuncId, AnalysisKind)]) {
        self.session.engine().prefetch(module, requests);
    }
}

impl AnalysisSource for OracleBackend {
    fn analysis_for(&mut self, module: &Module, id: FuncId) -> Result<FuncAnalysis, QueryError> {
        let func = module.func(id);
        Ok(FuncAnalysis::new(LivenessState::Iterative(
            IterativeLiveness::compute(func, &VarUniverse::all(func)),
            None,
        )))
    }
}

impl AnalysisSource for Backend<'_> {
    fn analysis_for(&mut self, module: &Module, id: FuncId) -> Result<FuncAnalysis, QueryError> {
        match self {
            Backend::Direct(b) => b.analysis_for(module, id),
            Backend::Session(b) => b.analysis_for(module, id),
            Backend::Oracle(b) => b.analysis_for(module, id),
        }
    }

    fn prefetch(&mut self, module: &Module, requests: &[(FuncId, AnalysisKind)]) {
        match self {
            Backend::Direct(b) => b.prefetch(module, requests),
            Backend::Session(b) => b.prefetch(module, requests),
            Backend::Oracle(b) => b.prefetch(module, requests),
        }
    }
}

macro_rules! query_engine_impl {
    ($ty:ty, $name:expr) => {
        impl QueryEngine for $ty {
            fn query(&mut self, module: &Module, query: &Query) -> Result<Response, QueryError> {
                scalar_query(self, module, query)
            }
            fn run_queries(
                &mut self,
                module: &Module,
                queries: &[Query],
            ) -> Vec<Result<Response, QueryError>> {
                // The raw trait path is statically uninstrumented:
                // `NoopRecorder::enabled()` is `false` by construction,
                // so the planner reads no clock here. Metered batches go
                // through `FastliveSession::run_queries` instead.
                run_planned(self, module, queries, &NoopRecorder)
            }
            fn backend_name(&self) -> &'static str {
                $name
            }
        }
    };
}

query_engine_impl!(DirectBackend, "direct");
query_engine_impl!(SessionBackend<'_>, "session");
query_engine_impl!(OracleBackend, "oracle");

impl QueryEngine for Backend<'_> {
    fn query(&mut self, module: &Module, query: &Query) -> Result<Response, QueryError> {
        match self {
            Backend::Direct(b) => b.query(module, query),
            Backend::Session(b) => b.query(module, query),
            Backend::Oracle(b) => b.query(module, query),
        }
    }

    fn run_queries(
        &mut self,
        module: &Module,
        queries: &[Query],
    ) -> Vec<Result<Response, QueryError>> {
        match self {
            Backend::Direct(b) => b.run_queries(module, queries),
            Backend::Session(b) => b.run_queries(module, queries),
            Backend::Oracle(b) => b.run_queries(module, queries),
        }
    }

    fn backend_name(&self) -> &'static str {
        match self {
            Backend::Direct(b) => b.backend_name(),
            Backend::Session(b) => b.backend_name(),
            Backend::Oracle(b) => b.backend_name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Module {
        fastlive_ir::parse_module(
            "function %f { block0(v0):
                 v1 = iconst 1
                 brif v0, block1(v1), block2
             block1(v2):
                 jump block2
             block2:
                 return v0 }",
        )
        .expect("parses")
    }

    fn analyses(module: &Module) -> Vec<(&'static str, FuncAnalysis)> {
        vec![
            (
                "direct",
                DirectBackend::new().analysis_for(module, 0).unwrap(),
            ),
            ("oracle", OracleBackend.analysis_for(module, 0).unwrap()),
        ]
    }

    /// The converted `expect("checker-backed")` family: every
    /// `AnalysisKind` answers every probe kind — the matches are total
    /// by construction, and the answers agree across kinds.
    #[test]
    fn every_analysis_kind_answers_every_probe() {
        let module = sample();
        let func = module.func(0);
        let v0 = func.value("v0").unwrap();
        let v1 = func.value("v1").unwrap();
        let b1 = func.block("block1").unwrap();
        let mut seen_live_in = Vec::new();
        let mut seen_sets = Vec::new();
        for (name, mut a) in analyses(&module) {
            seen_live_in.push((name, a.live_in(func, v0, b1)));
            assert!(!a.live_out(func, v1, b1), "{name}");
            let sets = a.live_sets(func);
            assert_eq!(sets.live_in.len(), func.num_blocks(), "{name}");
            seen_sets.push(sets);
            // Repeated interference tests answer alike (the oracle's
            // lazily built tree is reused across calls).
            let first = a.interfere(func, v0, v1).unwrap();
            let again = a.interfere(func, v0, v1).unwrap();
            assert_eq!(first, again, "{name}");
        }
        assert!(seen_live_in.iter().all(|&(_, ans)| ans), "{seen_live_in:?}");
        assert_eq!(seen_sets[0], seen_sets[1], "kinds disagree on live_sets");
    }

    /// Definite-init is a pure dominance test: answering it derives the
    /// nullness state (a view of the checker's tree) but never runs the
    /// solve; the first `Nullness` fact does, once.
    #[test]
    fn definite_init_answers_without_a_nullness_solve() {
        let module = sample();
        let func = module.func(0);
        let v1 = func.value("v1").unwrap();
        let b1 = func.block("block1").unwrap();
        let mut a = DirectBackend::new().analysis_for(&module, 0).unwrap();
        assert!(a.nullness(func).definitely_init(func, v1, b1));
        let solved = |a: &FuncAnalysis| match &a.nullness {
            Some(NullnessState::Exact { art, facts }) => {
                let live = a.kind.checker().expect("checker-backed");
                assert!(std::ptr::eq(art.dom(), live.checker().dom()));
                facts.is_some()
            }
            _ => panic!("the direct backend serves the exact state"),
        };
        assert!(!solved(&a), "definite-init solved nullness");
        assert_eq!(a.nullness(func).fact(func, v1), Nullness::NonNull);
        assert!(solved(&a));
    }

    /// The oracle kind reports no batch snapshot (its probes are O(1)
    /// already); the checker kinds produce one. Neither path panics.
    #[test]
    fn batch_snapshots_match_kind() {
        let module = sample();
        let func = module.func(0);
        let mut it = analyses(&module).into_iter();
        let (_, direct) = it.next().unwrap();
        let (_, oracle) = it.next().unwrap();
        assert!(direct.batch(func).is_some());
        assert!(oracle.batch(func).is_none());
    }
}
