//! Emits `BENCH_sparse.json`: the two-tier cost ladder measured **per
//! analysis kind** —
//!
//! * `cold` — fresh engine, empty persist directory: every function
//!   pays the precomputation *and* the write-through.
//! * `warm_disk` — fresh engine (empty memory) on the now-populated
//!   directory: every distinct fingerprint is decoded from disk, zero
//!   precomputations (`misses == disk_hits` is asserted).
//! * `warm_memory` — the same engine re-driving the kind: every probe
//!   is an in-memory hit.
//!
//! Both [`AnalysisKind`]s are driven through the same engine entry
//! point ([`prefetch`](fastlive::AnalysisEngine::prefetch), the worker
//! pool the batch planner uses). Nullness is a view of the liveness
//! artifact's dominator tree, so its ladder is the liveness ladder
//! plus the cost of wrapping the tree — its rows measure that the view
//! adds nothing to any tier.
//!
//! `no_regression` is the liveness guard: warm-memory liveness on an
//! engine that has also served every nullness request, versus a
//! liveness-only engine. Nullness requests add no cache entries, so
//! the ratio sits at ~1.0.
//!
//! ```text
//! cargo run --release -p fastlive-bench --bin bench_sparse_json [--quick] [OUT.json]
//! ```
//!
//! `--quick` shrinks the module and repetition counts for CI smoke
//! runs (the JSON schema is identical).

use std::fmt::Write as _;

use fastlive::{AnalysisKind, Fastlive};
use fastlive_bench::time_ns;
use fastlive_ir::{FuncId, Module};
use fastlive_workload::{generate_module, ModuleParams};

fn module_blocks(m: &Module) -> usize {
    m.functions().iter().map(|f| f.num_blocks()).sum()
}

fn requests_for(module: &Module, kind: AnalysisKind) -> Vec<(FuncId, AnalysisKind)> {
    (0..module.len()).map(|id| (id, kind)).collect()
}

fn builder(threads: usize, dir: &std::path::Path) -> Fastlive {
    Fastlive::builder()
        .threads(threads)
        .persist_dir(dir.to_path_buf())
        .build()
        .expect("valid config")
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_sparse.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let (functions, reps) = if quick { (16, 3) } else { (96, 9) };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = 4.min(host_cpus.max(1));

    let module = generate_module(
        "sparse_bench",
        ModuleParams {
            functions,
            min_blocks: 8,
            max_blocks: 64,
            irreducible_per_mille: 100,
            deep_live_per_mille: 300,
        },
        0x5a21,
    );
    let blocks = module_blocks(&module);
    let dir = std::env::temp_dir().join(format!("fastlive-bench-sparse-{}", std::process::id()));
    eprintln!(
        "module: {} functions, {blocks} blocks total, host_cpus={host_cpus}, store={}",
        module.len(),
        dir.display()
    );

    let mut rows: Vec<(AnalysisKind, &str, f64, f64)> = Vec::new();
    for kind in AnalysisKind::ALL {
        let requests = requests_for(&module, kind);

        // ---- cold: fresh engine per rep, directory wiped per rep
        // (outside the timed region).
        let mut cold_samples: Vec<f64> = (0..reps)
            .map(|_| {
                let _ = std::fs::remove_dir_all(&dir);
                time_ns(1, || {
                    builder(threads, &dir).engine().prefetch(&module, &requests);
                    requests.len()
                })
            })
            .collect();
        cold_samples.sort_by(f64::total_cmp);
        let cold_ns = cold_samples[cold_samples.len() / 2];

        // ---- warm_disk: fresh engine per rep over the populated
        // store (the last cold rep filled it).
        let warm_disk_ns = time_ns(reps, || {
            builder(threads, &dir).engine().prefetch(&module, &requests);
            requests.len()
        });
        // Invariant behind the scenario label: zero precomputations,
        // zero rejects, for this kind like any other.
        let fl = builder(threads, &dir);
        let probe = fl.engine();
        probe.prefetch(&module, &requests);
        let stats = probe.cache_stats();
        assert_eq!(
            stats.misses, stats.disk_hits,
            "[{kind}] warm-disk must not precompute: {stats:?}"
        );
        assert_eq!(stats.disk_rejects, 0, "[{kind}] {stats:?}");

        // ---- warm_memory: the probe engine is now fully warm.
        let warm_mem_ns = time_ns(reps, || {
            probe.prefetch(&module, &requests);
            requests.len()
        });

        for (scenario, ns) in [
            ("cold", cold_ns),
            ("warm_disk", warm_disk_ns),
            ("warm_memory", warm_mem_ns),
        ] {
            let speedup = cold_ns / ns;
            eprintln!("{kind:<9} {scenario:<12}: {ns:>12.0} ns ({speedup:.1}x vs cold)");
            rows.push((kind, scenario, ns, speedup));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- no_regression: warm-memory liveness on an engine that also
    // served both kinds vs a liveness-only engine. Same capacity, same
    // module — the second analysis must not tax the first.
    let live = requests_for(&module, AnalysisKind::Liveness);
    let null = requests_for(&module, AnalysisKind::Nullness);
    let solo_fl = Fastlive::builder().threads(threads).build().expect("valid");
    let solo = solo_fl.engine();
    solo.prefetch(&module, &live);
    let solo_ns = time_ns(reps, || {
        solo.prefetch(&module, &live);
        live.len()
    });
    let shared_fl = Fastlive::builder().threads(threads).build().expect("valid");
    let shared = shared_fl.engine();
    shared.prefetch(&module, &live);
    shared.prefetch(&module, &null);
    let shared_ns = time_ns(reps, || {
        shared.prefetch(&module, &live);
        live.len()
    });
    let ratio = shared_ns / solo_ns;
    eprintln!("liveness warm-memory: solo {solo_ns:.0} ns, shared cache {shared_ns:.0} ns (ratio {ratio:.2})");

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {host_cpus},\n  \"functions\": {},\n  \"blocks_total\": {blocks},\n  \
         \"format_version\": {},",
        module.len(),
        fastlive::engine::persist::FORMAT_VERSION
    );
    json.push_str("  \"sparse\": [\n");
    for (i, (kind, scenario, ns, speedup)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}    {{\"kind\": \"{kind}\", \"scenario\": \"{scenario}\", \"analyze_ns\": {ns:.0}, \
             \"speedup_vs_cold\": {speedup:.1}}}",
            if i == 0 { "" } else { ",\n" },
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"no_regression\": {{\"liveness_solo_ns\": {solo_ns:.0}, \
         \"liveness_shared_cache_ns\": {shared_ns:.0}, \"ratio\": {ratio:.2}}}\n}}\n"
    );

    std::fs::write(&out_path, &json).expect("write BENCH_sparse.json");
    let _ = std::fs::remove_dir_all(&dir);
    println!("wrote {out_path}");
}
