//! [`EngineSession`]: the epoch-based query surface over an analyzed
//! [`Module`].

use std::sync::Arc;

use fastlive_core::{AnalysisError, BatchLiveness, FunctionLiveness, NullnessArtifact};
use fastlive_ir::{Block, FuncId, Module, ProgramPoint, Value};

use crate::engine::AnalysisEngine;
use crate::fingerprint::CfgShape;

/// A successfully analyzed function's state.
struct ReadyEntry {
    live: Arc<FunctionLiveness>,
    /// Fingerprint the current `live` was computed (or cache-resolved)
    /// under — the exact-revalidation baseline.
    shape: CfgShape,
}

struct SessionEntry {
    /// The function's analysis, or the typed error its most recent
    /// (re)computation ended in. An `Err` entry is **retried on the
    /// next query** — a transient failure (a panic injected by a fault
    /// campaign, a worker lost mid-analyze) self-heals instead of
    /// pinning the function to its first bad outcome.
    ready: Result<ReadyEntry, AnalysisError>,
    /// [`Function::cfg_version`](fastlive_ir::Function::cfg_version)
    /// observed when `ready` was (re)validated — the O(1) per-query
    /// staleness signal.
    cfg_version: u64,
    /// How many times this function's analysis was recomputed since the
    /// session started. Bumps per recomputation *attempt* triggered by
    /// a detected CFG change or a retried failure.
    epoch: u64,
}

/// Per-function liveness queries over a module, with transparent
/// revalidation.
///
/// A session is created by [`AnalysisEngine::analyze`] and holds one
/// analysis handle per function (possibly shared between CFG-identical
/// functions). Every query first validates the handle against the
/// function's *current* state by comparing the function's
/// [`cfg_version`](fastlive_ir::Function::cfg_version) counter — O(1)
/// and exact for every mutator-driven edit:
///
/// * **Instruction-level edits** (insert/remove instructions, add
///   values or uses, swap branch arguments) keep the analysis exact
///   with zero work — the paper's headline property. The version
///   counter and the epoch do not move.
/// * **CFG edits** (`add_block`, terminator insertion,
///   `redirect_branch_target` — every mutator that can change blocks
///   or edges bumps the counter) invalidate the entry: the next query
///   recomputes through the engine's fingerprint cache and bumps the
///   function's *epoch*.
/// * **Wholesale replacement** of a function (swapping in a different
///   `Function` object via [`Module::func_mut`]) carries the
///   replacement's own version counter, which may coincide with the
///   recorded one. Call [`revalidate`](Self::revalidate) after such a
///   swap: it compares the exact [`CfgShape`] and recomputes on any
///   structural difference.
///
/// Queries take the module by reference on every call, so the module
/// stays freely editable between queries — the session never borrows
/// it.
///
/// # Errors
///
/// Every query returns `Result<_, AnalysisError>`: a function whose
/// precomputation panicked (or whose point query hit a detached
/// definition) answers with a typed error instead of unwinding into
/// the caller, and every *other* function of the session keeps
/// answering normally — per-function isolation is the degradation
/// contract. Failed entries are retried on their next query.
pub struct EngineSession<'e> {
    engine: &'e AnalysisEngine,
    entries: Vec<SessionEntry>,
}

impl<'e> EngineSession<'e> {
    pub(crate) fn new(
        engine: &'e AnalysisEngine,
        module: &Module,
        lives: Vec<Result<(CfgShape, Arc<FunctionLiveness>), AnalysisError>>,
    ) -> Self {
        EngineSession {
            engine,
            entries: lives
                .into_iter()
                .zip(module.functions())
                .map(|(result, func)| SessionEntry {
                    ready: result.map(|(shape, live)| ReadyEntry { live, shape }),
                    cfg_version: func.cfg_version(),
                    epoch: 0,
                })
                .collect(),
        }
    }

    /// Number of functions the session serves (the module's length at
    /// [`AnalysisEngine::analyze`] time).
    pub fn num_functions(&self) -> usize {
        self.entries.len()
    }

    /// The engine this session resolves through — for batch planners
    /// that want to [`prefetch`](AnalysisEngine::prefetch) artifacts
    /// across functions before issuing per-function queries.
    pub fn engine(&self) -> &'e AnalysisEngine {
        self.engine
    }

    /// The recomputation epoch of `func`: 0 until its CFG first
    /// changes, +1 per detected invalidation (or retried failure)
    /// since.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn epoch(&self, func: FuncId) -> u64 {
        self.entries[func].epoch
    }

    /// Total recomputations across all functions since the session
    /// started.
    pub fn recomputations(&self) -> u64 {
        self.entries.iter().map(|e| e.epoch).sum()
    }

    /// The (revalidated) analysis handle for `func` — for callers that
    /// want to issue many raw [`FunctionLiveness`] queries without
    /// per-query session overhead. The handle is exact for the
    /// function's current state and stays so under instruction-level
    /// edits.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range for the analyzed module.
    pub fn analysis(
        &mut self,
        module: &Module,
        func: FuncId,
    ) -> Result<Arc<FunctionLiveness>, AnalysisError> {
        self.refresh(module, func);
        match &self.entries[func].ready {
            Ok(r) => Ok(Arc::clone(&r.live)),
            Err(e) => Err(e.clone()),
        }
    }

    /// Is `v` live-in at block `q` of `module.func(func)`? Exact for
    /// the function's current state; transparently recomputes if the
    /// CFG changed. Errs if the function's analysis failed (see the
    /// [type docs](EngineSession#errors)).
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_in(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
        q: Block,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_in(module.func(func), v, q))
    }

    /// Is `v` live-out at block `q` of `module.func(func)`?
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_out(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
        q: Block,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_out(module.func(func), v, q))
    }

    /// Is `v` live at program point `p` of `module.func(func)` — the
    /// point-granularity query
    /// ([`FunctionLiveness::is_live_at`]) behind the session's
    /// revalidation?
    ///
    /// Point queries are instruction-level: they read the current
    /// instruction layout and def-use chains but never touch the CFG,
    /// so they neither bump nor depend on
    /// [`cfg_version`](fastlive_ir::Function::cfg_version) — the same
    /// freshness rules as block queries apply (instruction edits are
    /// free, CFG edits recompute transparently).
    ///
    /// Errs with
    /// [`AnalysisError::Point`]`(`[`PointError::DefinitionRemoved`](fastlive_core::PointError::DefinitionRemoved)`)`
    /// when `v`'s defining instruction has been removed.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_at(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
        p: ProgramPoint,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_at(module.func(func), v, p)?)
    }

    /// Is `v` live just after its own definition point (the Budimlić
    /// primitive)?
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn is_live_after_def(
        &mut self,
        module: &Module,
        func: FuncId,
        v: Value,
    ) -> Result<bool, AnalysisError> {
        Ok(self
            .analysis(module, func)?
            .is_live_after_def(module.func(func), v)?)
    }

    /// Dense route for whole-function consumers: live-in/live-out bit
    /// rows for **all** `(value, block)` pairs of `func` in one matrix
    /// pass ([`FunctionLiveness::batch`]), 20–60× cheaper than looping
    /// scalar queries per `BENCH_query.json`. The snapshot reads the
    /// def-use chains at call time and goes stale on *any* later edit —
    /// re-request it after editing.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn batch(&mut self, module: &Module, func: FuncId) -> Result<BatchLiveness, AnalysisError> {
        Ok(self.analysis(module, func)?.batch(module.func(func)))
    }

    /// The nullness / definite-initialization artifact for `func`: a
    /// view of the session's own revalidated liveness handle
    /// ([`analysis`](Self::analysis)) that shares its dominator tree.
    ///
    /// It therefore follows the liveness entry exactly: a CFG edit is
    /// one recomputation (one epoch bump) serving both analyses, and a
    /// failed entry answers with the same typed [`AnalysisError`] and
    /// is retried on the next query of either kind. Run
    /// [`NullnessArtifact::solve`] over the handle for per-value
    /// facts; like liveness queries, solving reads the function's
    /// current instructions, so instruction-level edits are free.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn nullness(
        &mut self,
        module: &Module,
        func: FuncId,
    ) -> Result<Arc<NullnessArtifact>, AnalysisError> {
        self.analysis(module, func)
            .map(|live| crate::engine::nullness_view(&live))
    }

    /// Exact revalidation: recomputes the function's [`CfgShape`] and,
    /// on any structural difference from the shape the current analysis
    /// was built for, recomputes through the engine (bumping the
    /// epoch). A failed entry always recomputes. Needed only after
    /// replacing a function wholesale; plain mutator-driven edits are
    /// caught by the per-query check.
    ///
    /// Returns `true` if the analysis was recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn revalidate(&mut self, module: &Module, func: FuncId) -> bool {
        let current = module.func(func);
        let shape = CfgShape::of(current);
        match &self.entries[func].ready {
            Ok(r) if shape == r.shape => {
                // Structurally unchanged: adopt the (possibly
                // different) version counter so later queries don't
                // recompute for a CFG that is provably the same.
                self.entries[func].cfg_version = current.cfg_version();
                false
            }
            _ => {
                self.recompute(module, func);
                true
            }
        }
    }

    /// The O(1) per-query freshness check: the function's CFG-version
    /// counter moved ⇒ a block/edge mutation happened ⇒ recompute
    /// (through the cache, so a shape-preserving rewire that round-trips
    /// to a known fingerprint is still cheap). A failed entry is always
    /// stale: queries keep retrying it until it computes.
    fn refresh(&mut self, module: &Module, func: FuncId) {
        let current = module.func(func);
        let entry = &self.entries[func];
        // Block count is a backstop for wholesale replacement, where
        // the new object's own version counter may coincide with the
        // recorded one (see `revalidate` for the exact check).
        let stale = match &entry.ready {
            Ok(r) => entry.cfg_version != current.cfg_version() || !r.live.is_current_for(current),
            Err(_) => true,
        };
        if stale {
            self.recompute(module, func);
        }
    }

    fn recompute(&mut self, module: &Module, func: FuncId) {
        let result = self.engine.shaped_analysis(module.func(func));
        let entry = &mut self.entries[func];
        entry.ready = result.map(|(shape, live)| ReadyEntry { live, shape });
        entry.cfg_version = module.func(func).cfg_version();
        entry.epoch += 1;
        let recorder = self.engine.recorder();
        if recorder.enabled() {
            let detail = format!(
                "func={} epoch={} ok={}",
                module.func(func).name,
                entry.epoch,
                entry.ready.is_ok()
            );
            recorder.event(fastlive_telemetry::EventKind::SessionRevalidated, &detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use fastlive_ir::{parse_module, InstData, UnaryOp};

    fn looped_module() -> Module {
        parse_module(
            "function %jit { block0(v0):
                v1 = iconst 0
                jump block1(v1)
            block1(v2):
                v3 = iconst 1
                v4 = iadd v2, v3
                v5 = icmp_slt v4, v0
                brif v5, block1(v4), block2
            block2:
                return v4 }",
        )
        .expect("parses")
    }

    #[test]
    fn instruction_edits_keep_epoch_zero_and_answers_exact() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let id = 0;
        let v0 = module.func(id).params()[0];
        let b2 = module.func(id).block_by_index(2);
        assert!(!session.is_live_in(&module, id, v0, b2).unwrap());

        // Sink a use of v0 into block2: same CFG, new answer, no epoch.
        module.func_mut(id).insert_inst(
            b2,
            0,
            InstData::Unary {
                op: UnaryOp::Ineg,
                arg: v0,
            },
        );
        assert!(session.is_live_in(&module, id, v0, b2).unwrap());
        assert_eq!(session.epoch(id), 0);
        assert_eq!(session.recomputations(), 0);
    }

    #[test]
    fn cfg_edits_bump_the_epoch_and_recompute() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let id = 0;
        let v0 = module.func(id).params()[0];

        // Split critical edges: adds blocks, i.e. a CFG change.
        let created = fastlive_ir::split_critical_edges(module.func_mut(id));
        assert!(!created.is_empty(), "the loop exit edge is critical");
        let b2 = module.func(id).block_by_index(2);
        let before = session.epoch(id);
        // A nullness query sees the edit first: it revalidates the one
        // session entry, and that recomputation serves liveness too.
        let art = session.nullness(&module, id).unwrap();
        assert_eq!(session.epoch(id), before + 1, "CFG change must recompute");
        let answer = session.is_live_in(&module, id, v0, b2).unwrap();
        assert_eq!(session.epoch(id), before + 1, "once for both analyses");
        // And the recomputed answers match from-scratch analyses.
        let oracle = FunctionLiveness::compute(module.func(id));
        assert_eq!(answer, oracle.is_live_in(module.func(id), v0, b2));
        let fresh = NullnessArtifact::compute(module.func(id));
        assert_eq!(art.solve(module.func(id)), fresh.solve(module.func(id)));
    }

    #[test]
    fn redirect_without_block_count_change_invalidates() {
        // Rewiring an edge keeps the block count — only the CFG-version
        // counter betrays the change. The session must recompute, not
        // serve stale answers.
        let mut module = parse_module(
            "function %f { block0(v0): jump block1 block1: jump block2 block2: return v0 }",
        )
        .expect("parses");
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let v0 = module.func(0).params()[0];
        let b1 = module.func(0).block_by_index(1);
        assert!(session.is_live_in(&module, 0, v0, b1).unwrap());

        // block0 now jumps straight to block2: block1 is unreachable.
        let func = module.func_mut(0);
        let jump = func.block_insts(func.entry_block())[0];
        let b2 = func.block_by_index(2);
        func.redirect_branch_target(jump, 0, b2, vec![]);

        assert!(
            !session.is_live_in(&module, 0, v0, b1).unwrap(),
            "stale answer after edge rewire"
        );
        assert_eq!(session.epoch(0), 1, "rewire must recompute");
        let oracle = FunctionLiveness::compute(module.func(0));
        for b in module.func(0).blocks() {
            assert_eq!(
                session.is_live_in(&module, 0, v0, b).unwrap(),
                oracle.is_live_in(module.func(0), v0, b)
            );
        }
    }

    #[test]
    fn revalidate_catches_same_block_count_replacement() {
        let mut module = parse_module("function %f { block0(v0): jump block1 block1: return v0 }")
            .expect("parses");
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);

        // Replace %f with a CFG-different function of the SAME block
        // count (self-loop instead of straight-line).
        let replacement = fastlive_ir::parse_function(
            "function %f { block0(v0): brif v0, block0, block1 block1: return v0 }",
        )
        .expect("parses");
        *module.func_mut(0) = replacement;
        assert!(session.revalidate(&module, 0), "shape changed");
        assert_eq!(session.epoch(0), 1);
        assert!(!session.revalidate(&module, 0), "now current");

        let v0 = module.func(0).params()[0];
        let b0 = module.func(0).entry_block();
        let oracle = FunctionLiveness::compute(module.func(0));
        assert_eq!(
            session.is_live_out(&module, 0, v0, b0).unwrap(),
            oracle.is_live_out(module.func(0), v0, b0)
        );
    }

    #[test]
    fn recompile_with_identical_cfg_is_a_cache_hit() {
        let module = looped_module();
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        });
        let _first = engine.analyze(&module);
        assert_eq!(engine.cache_stats().misses, 1);

        // "Recompile": parse the same source again — fresh Function
        // objects, identical CFG. The second analysis never precomputes.
        let recompiled = parse_module(&module.to_string()).expect("round-trips");
        let mut session = engine.analyze(&recompiled);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "no new precomputation");
        assert_eq!(stats.hits, 1);

        let v0 = recompiled.func(0).params()[0];
        let b1 = recompiled.func(0).block_by_index(1);
        assert!(session.is_live_in(&recompiled, 0, v0, b1).unwrap());
    }

    #[test]
    fn point_queries_never_touch_cfg_version_or_epoch() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let id = 0;
        let v4 = module.func(id).value("v4").unwrap();
        let version_before = module.func(id).cfg_version();

        // Sweep every point of every block: answers come back, nothing
        // recomputes, the CFG-version counter never moves — the
        // point-API invariant recorded in the ROADMAP.
        let blocks: Vec<_> = module.func(id).blocks().collect();
        for b in blocks {
            let points: Vec<_> = module.func(id).block_points(b).collect();
            for p in points {
                let ans = session.is_live_at(&module, id, v4, p).expect("def exists");
                let oracle = FunctionLiveness::compute(module.func(id));
                assert_eq!(ans, oracle.is_live_at(module.func(id), v4, p).unwrap());
            }
        }
        assert_eq!(module.func(id).cfg_version(), version_before);
        assert_eq!(session.epoch(id), 0);
        assert_eq!(session.recomputations(), 0);

        // Instruction-level edit: point answers track it with no
        // recomputation, exactly like block queries.
        let b2 = module.func(id).block_by_index(2);
        module.func_mut(id).insert_inst(
            b2,
            0,
            InstData::Unary {
                op: UnaryOp::Ineg,
                arg: v4,
            },
        );
        let entry_b2 = fastlive_ir::ProgramPoint::block_entry(b2);
        assert_eq!(session.is_live_at(&module, id, v4, entry_b2), Ok(true));
        assert_eq!(session.epoch(id), 0);
    }

    #[test]
    fn detached_definition_errors_through_the_session() {
        let mut module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let b0 = module.func(0).entry_block();
        let dead = module
            .func_mut(0)
            .insert_inst(b0, 0, InstData::IntConst { imm: 7 });
        let dv = module.func(0).inst_result(dead).unwrap();
        assert_eq!(session.is_live_after_def(&module, 0, dv), Ok(false));
        module.func_mut(0).remove_inst(dead);
        assert_eq!(
            session.is_live_after_def(&module, 0, dv),
            Err(AnalysisError::Point(
                fastlive_core::PointError::DefinitionRemoved(dv)
            ))
        );
    }

    #[test]
    fn nullness_rides_the_same_cache_without_duplicating_liveness() {
        let module = looped_module();
        let engine = AnalysisEngine::new(EngineConfig {
            threads: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        });
        let mut session = engine.analyze(&module);
        assert_eq!(engine.cache_len(), 1, "liveness artifact cached");

        // Nullness is a view of the liveness entry: one entry and one
        // miss per shape, however often either analysis is asked, and
        // the view shares the checker's dominator tree.
        let art = session.nullness(&module, 0).unwrap();
        let again = session.nullness(&module, 0).unwrap();
        let live = session.analysis(&module, 0).unwrap();
        assert!(std::ptr::eq(art.dom(), live.checker().dom()));
        assert!(std::ptr::eq(again.dom(), live.checker().dom()));
        assert_eq!(engine.cache_len(), 1, "no entry of its own");
        assert_eq!(engine.cache_stats().misses, 1, "one per shape");
        assert_eq!(session.epoch(0), 0);

        // And the artifact answers over the function's real body.
        let func = module.func(0);
        let facts = art.solve(func);
        let v1 = func.value("v1").unwrap();
        assert_eq!(facts.of(v1), fastlive_core::Nullness::Null, "iconst 0");
    }

    #[test]
    fn nullness_fails_and_retries_exactly_like_liveness() {
        let module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        engine.set_compute_fault(Some(Box::new(|_| panic!("injected precompute fault"))));
        let mut session = engine.analyze(&module);
        let v0 = module.func(0).params()[0];
        let b1 = module.func(0).block_by_index(1);

        // Both analyses report the same typed error, and a query of
        // either kind retries the entry (one epoch each).
        let live_err = session.is_live_in(&module, 0, v0, b1).unwrap_err();
        assert!(matches!(live_err, AnalysisError::ComputePanicked { .. }));
        assert_eq!(session.nullness(&module, 0).unwrap_err(), live_err);
        assert_eq!(session.epoch(0), 2);

        // Healed: a nullness query's retry serves liveness too.
        engine.set_compute_fault(None);
        let art = session.nullness(&module, 0).unwrap();
        assert!(session.is_live_in(&module, 0, v0, b1).unwrap());
        assert_eq!(session.epoch(0), 3);
        let live = session.analysis(&module, 0).unwrap();
        assert!(std::ptr::eq(art.dom(), live.checker().dom()));
    }

    #[test]
    fn batch_matches_scalar_session_queries() {
        let module = looped_module();
        let engine = AnalysisEngine::with_defaults();
        let mut session = engine.analyze(&module);
        let batch = session.batch(&module, 0).unwrap();
        let func = module.func(0);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    batch.is_live_in(v.index() as u32, b.as_u32()),
                    session.is_live_in(&module, 0, v, b).unwrap(),
                    "{v} at {b}"
                );
            }
        }
    }
}
