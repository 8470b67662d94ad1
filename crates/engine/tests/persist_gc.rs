//! Engine-level GC acceptance (ISSUE 5 satellite): deleting persisted
//! entries is always safe. After a GC sweep prunes the store, a fresh
//! engine pointed at the same directory serves the surviving shapes as
//! `disk_hits` and pays exactly one clean `disk_misses` recomputation
//! per gc'd shape — with byte-identical answers either way — and its
//! write-through restores the store to full strength.

use std::time::Duration;

use fastlive_core::FunctionLiveness;
use fastlive_engine::persist::GcStats;
use fastlive_engine::{AnalysisEngine, EngineConfig, PersistStore};
use fastlive_ir::parse_module;
use fastlive_workload::{generate_module, ModuleParams};

mod common;
use common::{distinct_shapes, temp_dir};

fn engine_for(dir: &std::path::Path) -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        threads: 1,
        persist_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
}

#[test]
fn gcd_entry_degrades_to_one_clean_disk_miss() {
    let dir = temp_dir("persist-gc");
    let module = generate_module(
        "gc",
        ModuleParams {
            functions: 6,
            min_blocks: 4,
            max_blocks: 16,
            irreducible_per_mille: 300,
            deep_live_per_mille: 300,
        },
        0x6c5e,
    );
    let shapes = distinct_shapes(&module);
    assert!(shapes >= 2, "need several distinct shapes, got {shapes}");

    // Cold engine populates the store.
    let first = engine_for(&dir);
    let mut baseline = first.analyze(&module);
    assert_eq!(first.cache_stats().disk_misses, shapes);

    // GC down to one entry; the sweep must report the store's truth.
    let stats = first
        .gc_persist(1, None)
        .expect("persistence is configured");
    assert_eq!(
        stats,
        GcStats {
            retained: 1,
            removed: shapes as usize - 1,
        }
    );

    // A fresh engine on the pruned store: one disk hit for the
    // survivor, one clean disk-miss recomputation per gc'd shape, no
    // rejects — and answers identical to the pre-GC session and to a
    // from-scratch checker.
    let second = engine_for(&dir);
    let mut session = second.analyze(&module);
    let stats2 = second.cache_stats();
    assert_eq!(stats2.disk_hits, 1, "{stats2:?}");
    assert_eq!(stats2.disk_misses, shapes - 1, "{stats2:?}");
    assert_eq!(stats2.disk_rejects, 0, "{stats2:?}");
    for (id, func) in module.iter() {
        let oracle = FunctionLiveness::compute(func);
        for v in func.values() {
            for b in func.blocks() {
                assert_eq!(
                    session.is_live_in(&module, id, v, b),
                    Ok(oracle.is_live_in(func, v, b)),
                    "{} {v} live-in at {b}",
                    func.name
                );
                assert_eq!(
                    session.is_live_in(&module, id, v, b),
                    baseline.is_live_in(&module, id, v, b),
                );
            }
        }
    }

    // The second engine's write-through healed the store: a third cold
    // start is all disk hits again.
    let third = engine_for(&dir);
    let _ = third.analyze(&module);
    assert_eq!(third.cache_stats().disk_hits, shapes);
    assert_eq!(third.cache_stats().disk_misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Nullness used to persist an entry of its own (tag 2, under its own
/// filename salt). It is now a view of the liveness entry, so a store
/// written by such a build holds files this build must never read —
/// and GC must still age them out like any other entry.
#[test]
fn a_stale_nullness_entry_is_never_read_and_gc_removes_it() {
    use fastlive_core::NullnessArtifact;
    use fastlive_engine::artifact::{RETIRED_SALTS, RETIRED_TAGS};
    use fastlive_engine::persist::{crc32, encode, LoadOutcome};
    use fastlive_engine::vfs::{Fault, FaultRule, FaultVfs, OpKind, Vfs};
    use fastlive_engine::CfgShape;
    use std::sync::Arc;

    let dir = temp_dir("persist-gc-stale-nullness");
    let module = parse_module(
        "function %a { block0(v0): jump block1 block1: return v0 }
         function %b { block0(v0): brif v0, block0, block1 block1: return v0 }",
    )
    .expect("parses");

    // Plant a CRC-valid tag-2 entry per shape at the retired salt's
    // path, stamped long ago.
    std::fs::create_dir_all(&dir).expect("store dir");
    let mut stale = Vec::new();
    for (_, func) in module.iter() {
        let shape = CfgShape::of(func);
        let checker = fastlive_core::LivenessChecker::compute(&shape.to_graph());
        let mut bytes = encode(&shape, checker.precomputation());
        bytes[8..12].copy_from_slice(&RETIRED_TAGS[0].to_le_bytes());
        let n = bytes.len() - 4;
        let crc = crc32(&bytes[..n]);
        bytes[n..].copy_from_slice(&crc.to_le_bytes());
        let name = format!("{:016x}", shape.hash64() ^ RETIRED_SALTS[0]);
        let path = dir.join(format!("{name}.flpc"));
        std::fs::write(&path, &bytes).expect("plant stale entry");
        std::fs::File::options()
            .append(true)
            .open(&path)
            .and_then(|f| f.set_modified(std::time::UNIX_EPOCH + Duration::from_secs(1_000)))
            .expect("backdate");
        stale.push((name, path, bytes));
    }

    // Any touch of a stale file would fail with EIO and land in
    // `disk_errors`: answering both analyses must touch none.
    let fv = Arc::new(FaultVfs::healthy());
    let never_touched: Vec<FaultRule> = stale
        .iter()
        .flat_map(|(name, _, _)| {
            [OpKind::Metadata, OpKind::Read]
                .map(|op| FaultRule::every(op, Fault::eio()).on_paths(name.clone()))
        })
        .collect();
    fv.set_rules(never_touched);
    let engine = AnalysisEngine::with_vfs(
        EngineConfig {
            threads: 1,
            persist_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
        fv.clone(),
    );
    let mut session = engine.analyze(&module);
    for (id, func) in module.iter() {
        let want = NullnessArtifact::compute(func);
        let art = session.nullness(&module, id).expect("a view of liveness");
        assert_eq!(art.solve(func), want.solve(func));
        let art = engine.nullness_for(func).expect("a view of liveness");
        assert_eq!(art.solve(func), want.solve(func));
    }
    let stats = engine.cache_stats();
    assert_eq!(fv.faults_injected(), 0, "a stale nullness file was probed");
    assert_eq!(stats.disk_errors, 0, "{stats:?}");
    assert_eq!(stats.disk_rejects, 0, "{stats:?}");
    assert_eq!(
        stats.disk_misses, 2,
        "one liveness entry per shape: {stats:?}"
    );
    for (_, path, bytes) in &stale {
        assert_eq!(&std::fs::read(path).expect("untouched"), bytes);
    }
    // The trap was armed: a probe of a stale path does fault.
    assert!(fv.metadata(&stale[0].1).is_err());
    assert_eq!(fv.faults_injected(), 1);

    // GC treats them as ordinary entries: an age bound expires the
    // backdated stale files and keeps the fresh liveness entries.
    fv.set_rules(Vec::new());
    let stats = engine
        .gc_persist(usize::MAX, Some(Duration::from_secs(3600)))
        .expect("persistence configured");
    assert_eq!(
        stats,
        GcStats {
            retained: 2,
            removed: 2
        }
    );
    let store = PersistStore::new(&dir);
    for ((_, func), (_, path, _)) in module.iter().zip(&stale) {
        assert!(!path.exists(), "{path:?} survived GC");
        assert!(matches!(
            store.load(&CfgShape::of(func)),
            LoadOutcome::Hit(_)
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn age_gc_expires_everything_past_the_horizon() {
    let dir = temp_dir("persist-gc-age");
    let module = parse_module(
        "function %a { block0(v0): jump block1 block1: return v0 }
         function %b { block0(v0): brif v0, block0, block1 block1: return v0 }",
    )
    .expect("parses");
    let engine = engine_for(&dir);
    let _ = engine.analyze(&module);
    assert_eq!(engine.cache_stats().disk_misses, 2);

    // A generous horizon keeps everything; a zero horizon expires all.
    assert_eq!(
        engine.gc_persist(usize::MAX, Some(Duration::from_secs(3600))),
        Some(GcStats {
            retained: 2,
            removed: 0
        })
    );
    assert_eq!(
        engine.gc_persist(usize::MAX, Some(Duration::ZERO)),
        Some(GcStats {
            retained: 0,
            removed: 2
        })
    );
    let store = PersistStore::new(&dir);
    let shape = fastlive_engine::CfgShape::of(module.func(0));
    assert!(matches!(
        store.load(&shape),
        fastlive_engine::persist::LoadOutcome::Absent
    ));

    // No persistence tier → no sweep.
    let bare = AnalysisEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    assert_eq!(bare.gc_persist(0, None), None);
    std::fs::remove_dir_all(&dir).ok();
}
