//! The assumption one-tree-per-shape rests on: the dominator tree the
//! engine's liveness checker builds over a shape's *canonical* graph
//! (sorted successor lists, node ids = block indices) answers every
//! dominance question exactly like a tree built over the function's
//! own edge order. Interference, nullness and definite-init all read
//! that shared tree, so each is checked here against the same analysis
//! over an independently computed tree — over reducible, goto-injected
//! irreducible and deep-live generated functions, and every `corpus/`
//! case.
//!
//! The second half pins the facade's definite-init path, which answers
//! from the tree alone (no nullness solve): definite-init-only batches
//! answer identically on all three backends.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use fastlive::cfg::{DfsTree, DomTree};
use fastlive::workload::{generate_module, ModuleParams};
use fastlive::{
    values_interfere, BackendKind, Fastlive, Function, FunctionLiveness, Module, NullnessArtifact,
    Query, Value,
};
use fastlive_fuzz::import::import_auto;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// Generated modules over the three workload regimes, then every
/// corpus case, each with a label for failure messages.
fn modules() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    let regimes = [
        ("reducible", 0u32, 0u32),
        ("irreducible", 600, 0),
        ("deep_live", 250, 1000),
    ];
    for (regime, irreducible_per_mille, deep_live_per_mille) in regimes {
        for seed in [0xd0_u64, 0x0e1, 0x5ee6] {
            let params = ModuleParams {
                functions: 4,
                min_blocks: 3,
                max_blocks: 24,
                irreducible_per_mille,
                deep_live_per_mille,
            };
            out.push((
                format!("{regime} seed {seed:#x}"),
                generate_module("dom", params, seed),
            ));
        }
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus/ exists at the workspace root")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x != "md"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 8, "corpus unexpectedly small");
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let module = import_auto(&name, &src).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name, module));
    }
    out
}

/// The φ pairs of `func` in this block-parameter IR: every parameter
/// with each branch argument feeding it, and every two parameters of
/// one block — the pairs SSA destruction asks about.
fn phi_pairs(func: &Function) -> Vec<(Value, Value)> {
    let mut pairs = Vec::new();
    for b in func.blocks() {
        let params = func.block_params(b);
        for (i, &p) in params.iter().enumerate() {
            for &q in &params[i + 1..] {
                pairs.push((p, q));
            }
        }
        let Some(term) = func.terminator(b) else {
            continue;
        };
        for call in func.inst_data(term).branch_targets() {
            for (&arg, &param) in call.args.iter().zip(func.block_params(call.block)) {
                pairs.push((param, arg));
            }
        }
    }
    pairs
}

#[test]
fn the_checkers_canonical_tree_answers_like_a_tree_over_the_function() {
    let fl = Fastlive::builder().threads(1).build().expect("valid");
    let (mut funcs, mut pairs) = (0usize, 0usize);
    for (label, module) in modules() {
        for func in module.functions() {
            funcs += 1;
            let at = format!("[{label}] %{}", func.name);
            // The production path: the engine's cached liveness artifact
            // (built over the canonical graph) and its nullness view.
            let live = fl.engine().analysis_for(func).expect("analyzes");
            let shared = live.checker().dom();
            let own = DomTree::compute(func, &DfsTree::compute(func));
            assert_eq!(shared.num_nodes(), func.num_blocks(), "{at}");

            for a in func.blocks().map(|b| b.as_u32()) {
                assert_eq!(
                    shared.is_reachable(a),
                    own.is_reachable(a),
                    "{at} reach {a}"
                );
                if !own.is_reachable(a) {
                    continue;
                }
                for b in func.blocks().map(|b| b.as_u32()) {
                    if !own.is_reachable(b) {
                        continue;
                    }
                    assert_eq!(
                        shared.dominates(a, b),
                        own.dominates(a, b),
                        "{at} {a} dom {b}"
                    );
                    assert_eq!(
                        shared.strictly_dominates(a, b),
                        own.strictly_dominates(a, b),
                        "{at} {a} sdom {b}"
                    );
                }
            }

            // Interference, with either tree, over every φ pair.
            let mut engine = FunctionLiveness::compute(func);
            for (a, b) in phi_pairs(func) {
                pairs += 1;
                assert_eq!(
                    values_interfere(&mut engine, func, shared, a, b),
                    values_interfere(&mut engine, func, &own, a, b),
                    "{at} interfere({a}, {b})"
                );
            }

            // Nullness facts and definite-init from the shared tree
            // equal those of a standalone artifact over `func`.
            let view = fl.engine().nullness_for(func).expect("a view of liveness");
            assert!(std::ptr::eq(view.dom(), shared), "{at}: a copy, not a view");
            let standalone = NullnessArtifact::compute(func);
            assert_eq!(view.solve(func), standalone.solve(func), "{at} facts");
            for v in func.values() {
                assert_eq!(
                    view.fact_split_blocks(func, v),
                    standalone.fact_split_blocks(func, v),
                    "{at} split blocks of {v}"
                );
                for b in func.blocks() {
                    assert_eq!(
                        view.definitely_initialized_at_entry(func, v, b),
                        standalone.definitely_initialized_at_entry(func, v, b),
                        "{at} init({v}, {b})"
                    );
                }
            }
            // The view wraps the very tree the artifact holds.
            let rewrapped = NullnessArtifact::from_dom(Arc::clone(live.checker().shared_dom()));
            assert!(std::ptr::eq(rewrapped.dom(), shared));
        }
    }
    assert!(funcs >= 40, "{funcs} functions checked");
    assert!(pairs >= 100, "{pairs} φ pairs checked");
}

#[test]
fn definite_init_only_batches_agree_on_every_backend() {
    let fl = Fastlive::builder().threads(1).build().expect("valid");
    for (label, module) in modules() {
        // One batch per module, every (value, block) pair of every
        // function, and only definite-init queries — the groups that
        // answer from the dominator tree without a nullness solve.
        let queries: Vec<Query> = module
            .iter()
            .flat_map(|(id, func)| {
                func.values()
                    .flat_map(move |v| func.blocks().map(move |b| Query::definitely_init(id, v, b)))
            })
            .collect();
        let run = |kind: BackendKind| {
            fl.session_with(&module, kind)
                .run_queries(&module, &queries)
        };
        let oracle = run(BackendKind::Oracle);
        assert!(oracle.iter().all(|r| r.is_ok()), "[{label}] oracle errors");
        assert!(
            oracle
                .iter()
                .any(|r| r.as_ref().ok().and_then(|r| r.as_bool()) == Some(true)),
            "[{label}] no initialized pair: the batch tests nothing"
        );
        for kind in [BackendKind::Direct, BackendKind::Session] {
            assert_eq!(run(kind), oracle, "[{label}] {kind:?} vs oracle");
            // And one query at a time, through the scalar path.
            let mut s = fl.session_with(&module, kind);
            let scalar: Vec<_> = queries.iter().map(|q| s.query(&module, q)).collect();
            assert_eq!(scalar, oracle, "[{label}] scalar {kind:?} vs oracle");
        }
    }
}
