//! The traced run's per-layer figures, timed from the benchmark's own
//! code around the public functions of each layer.
//!
//! Times are process CPU time, like the end-to-end figures. Each
//! per-function timing is the mean of a block of repeated calls sized
//! to last about [`BLOCK_US`], the median of three such blocks; inputs
//! a call consumes (fresh engines, cloned trees) are prepared outside
//! the block and its results are dropped after it. Bucketed metrics
//! are the median over the sampled functions of the bucket; a bucket
//! without functions prints `null`. The SPEC profiles rarely reach 512
//! blocks, so the `ge512` bucket also times [`LARGE_FUNCS`] generated
//! functions of 512–2048 blocks.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use fastlive::cfg::{DfsTree, DomTree};
use fastlive::destruct::CheckerEngine;
use fastlive::engine::persist;
use fastlive::workload::{generate_module, ModuleParams, SplitMix64};
use fastlive::{
    values_interfere, AnalysisKind, CfgShape, Fastlive, Function, FunctionLiveness,
    LivenessChecker, NullnessArtifact, PersistStore, Precomputation, StdVfs, Vfs,
};

use crate::drive::{Env, Samples, Tally};
use crate::inputs::{bucket, Workload, BUCKETS};
use crate::json::{median, quantile};
use crate::sys;

/// Target length of one timed block of repeated calls.
const BLOCK_US: f64 = 300.0;
/// Most calls in one block.
const MAX_REPS: usize = 512;
/// Functions sampled per size bucket for the layer timings.
const FUNCS_PER_BUCKET: usize = 12;
/// Generated functions of 512–2048 blocks timed in the `ge512` bucket.
const LARGE_FUNCS: usize = 4;
/// Block-count range of the generated large functions.
const LARGE_BLOCKS: (f64, f64) = (512.0, 2048.0);
/// Kernel chunks timed per function.
const KERNEL_ROUNDS: usize = 3;
/// A coverage ratio outside this band is flagged: the layers then do
/// not add up to the end-to-end resolve they claim to explain. Parts
/// and whole are timed separately, so the band allows a factor of 1.5
/// either way.
pub const COVERAGE_BAND: (f64, f64) = (0.67, 1.5);

/// One per-layer figure.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: usize,
}

/// Microseconds per call of `call`, each call consuming one input from
/// `prep`.
fn per_call_us<S, R>(mut prep: impl FnMut() -> S, mut call: impl FnMut(S) -> R) -> f64 {
    let input = prep();
    let t = sys::cpu_s();
    let out = black_box(call(black_box(input)));
    let est = (sys::cpu_s() - t) * 1e6;
    drop(out);
    let reps = ((BLOCK_US / est.max(1e-3)).ceil() as usize).clamp(1, MAX_REPS);
    let mut blocks = Vec::with_capacity(3);
    for _ in 0..3 {
        let inputs: Vec<S> = (0..reps).map(|_| prep()).collect();
        let mut outs = Vec::with_capacity(reps);
        let t = sys::cpu_s();
        for input in inputs {
            outs.push(black_box(call(black_box(input))));
        }
        blocks.push((sys::cpu_s() - t) * 1e6 / reps as f64);
        drop(outs);
    }
    median(&mut blocks)
}

/// [`per_call_us`] for a call without a consumed input.
fn us<R>(mut call: impl FnMut() -> R) -> f64 {
    per_call_us(|| (), |()| call())
}

/// The liveness-only `decode` / `revive` split of the codec (the
/// generic `decode_artifact` does both in one call), kept here alone.
fn decode_revive_us(shape: &CfgShape, bytes: &[u8]) -> (f64, f64) {
    let decode = us(|| persist::decode(shape, bytes).expect("a fresh entry decodes"));
    let pre = persist::decode(shape, bytes).expect("a fresh entry decodes");
    let revive = per_call_us(
        || pre.clone(),
        |p| persist::revive(shape, p).expect("a fresh entry revives"),
    );
    (decode, revive)
}

/// Per-bucket samples of one figure.
#[derive(Default)]
struct Buckets([Vec<f64>; 3]);

impl Buckets {
    fn push(&mut self, b: usize, v: f64) {
        self.0[b].push(v);
    }

    /// Median and sample count per bucket; `NaN` for an empty one.
    fn medians(&mut self) -> [(f64, usize); 3] {
        let mut out = [(f64::NAN, 0); 3];
        for (o, v) in out.iter_mut().zip(self.0.iter_mut()) {
            *o = (median(v), v.len());
        }
        out
    }
}

/// The per-function layer timings, by name.
const TIMED: [&str; 21] = [
    "engine.fingerprint_us",
    "engine.to_graph_us",
    "engine.cold_resolve_us.live",
    "engine.cold_resolve_us.null",
    "engine.memory_hit_us",
    "engine.disk_resolve_us",
    "cfg.dfs_us",
    "cfg.dom_us",
    "core.precompute_us",
    "core.checker_build_us",
    "core.nullness_artifact_us",
    "core.nullness_solve_us",
    "core.batch_rows_us",
    "core.matrix_kib",
    "persist.read_us",
    "persist.crc_us",
    "persist.decode_us",
    "persist.revive_us",
    "persist.encode_us",
    "persist.write_us",
    "persist.entry_kib",
];

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_kib") {
        "KiB"
    } else {
        "us"
    }
}

/// Times every layer on one function; values in [`TIMED`] order.
fn time_function(func: &Function, env: &Env, dir: &Path) -> [f64; 21] {
    let threads = env.threads;
    let memory_only = || {
        Fastlive::builder()
            .threads(threads)
            .build()
            .expect("valid configuration")
    };
    let resolve = |kind: AnalysisKind| {
        move |fl: Fastlive| {
            let h = fl.engine().artifact_for(func, kind).expect("resolves");
            (fl, h)
        }
    };

    let shape = CfgShape::of(func);
    let fingerprint = us(|| CfgShape::of(func));
    let to_graph = us(|| shape.to_graph());
    let g = shape.to_graph();
    let dfs_us = us(|| DfsTree::compute(&g));
    let dfs = DfsTree::compute(&g);
    let dom_us = us(|| DomTree::compute(&g, &dfs));
    let dom = DomTree::compute(&g, &dfs);
    let precompute = us(|| Precomputation::compute(&g, &dfs, &dom));
    let pre = Precomputation::compute(&g, &dfs, &dom);
    let checker_build = per_call_us(
        || (dfs.clone(), dom.clone(), pre.clone()),
        |(a, b, c)| LivenessChecker::with_precomputation(&g, a, b, c),
    );
    let null_artifact = us(|| NullnessArtifact::compute(&g));
    let art = NullnessArtifact::compute(&g);
    let null_solve = us(|| art.solve(func));

    let cold_live = per_call_us(memory_only, resolve(AnalysisKind::Liveness));
    let cold_null = per_call_us(memory_only, resolve(AnalysisKind::Nullness));
    let warm = memory_only();
    let live: Arc<FunctionLiveness> = warm.engine().analysis_for(func).expect("resolves");
    let memory_hit = us(|| warm.engine().artifact_for(func, AnalysisKind::Liveness));
    let batch_rows = us(|| live.batch(func));
    let matrix_kib = live.checker().matrix_heap_bytes() as f64 / 1024.0;

    // The codec, through the generic artifact calls and the store's own
    // write-temp-then-rename skeleton over the production `Vfs`.
    let bytes = persist::encode_artifact(&shape, &*live);
    let encode = us(|| persist::encode_artifact(&shape, &*live));
    let store = PersistStore::new(dir);
    let path = store.entry_path_for(&shape, AnalysisKind::Liveness);
    let mut n = 0u64;
    let write = us(|| {
        n += 1;
        let tmp = dir.join(format!("layer.tmp.{n}"));
        StdVfs.write(&tmp, &bytes).expect("store writable");
        StdVfs.rename(&tmp, &path).expect("store writable");
    });
    let read = us(|| {
        let meta = StdVfs.metadata(&path).expect("entry present");
        (meta.len, StdVfs.read(&path).expect("entry readable"))
    });
    let crc = us(|| persist::crc32(&bytes[..bytes.len() - 4]));
    let (decode, revive) = decode_revive_us(&shape, &bytes);
    let on_store = || {
        Fastlive::builder()
            .threads(threads)
            .persist_dir(dir)
            .build()
            .expect("valid configuration")
    };
    let disk = per_call_us(on_store, resolve(AnalysisKind::Liveness));
    let _ = std::fs::remove_file(&path);

    [
        fingerprint,
        to_graph,
        cold_live,
        cold_null,
        memory_hit,
        disk,
        dfs_us,
        dom_us,
        precompute,
        checker_build,
        null_artifact,
        null_solve,
        batch_rows,
        matrix_kib,
        read,
        crc,
        decode,
        revive,
        encode,
        write,
        bytes.len() as f64 / 1024.0,
    ]
}

/// [`LARGE_FUNCS`] functions of sizes spread evenly over the log of
/// [`LARGE_BLOCKS`], about half of them with the liveness-driven
/// deep-live bias. None gets gotos: checking strictness after goto
/// injection takes seconds at these sizes.
fn large_functions(seed: u64) -> Vec<Function> {
    let mut rng = SplitMix64::new(seed ^ 0x006c_6172_6765); // "large"
    let (lo, hi) = (LARGE_BLOCKS.0.ln(), LARGE_BLOCKS.1.ln());
    (0..LARGE_FUNCS)
        .map(|j| {
            let u = (j as f64 + rng.f64()) / LARGE_FUNCS as f64;
            let blocks = (lo + u * (hi - lo)).exp() as usize;
            let params = ModuleParams {
                functions: 1,
                min_blocks: blocks,
                max_blocks: blocks,
                irreducible_per_mille: 0,
                deep_live_per_mille: 500,
            };
            generate_module(&format!("large{j}"), params, rng.next_u64())
                .func(0)
                .clone()
        })
        .collect()
}

/// Up to [`FUNCS_PER_BUCKET`] functions of the workload per bucket,
/// evenly spread over the bucket's sizes.
fn sample(w: &Workload) -> Vec<&Function> {
    let mut per: [Vec<(usize, usize, usize)>; 3] = Default::default();
    for (mi, m) in w.modules.iter().enumerate() {
        for (fid, fc) in m.funcs.iter().enumerate() {
            per[bucket(fc.blocks)].push((fc.blocks, mi, fid));
        }
    }
    let mut out = Vec::new();
    for list in &mut per {
        list.sort_unstable();
        let k = list.len().min(FUNCS_PER_BUCKET);
        for i in 0..k {
            let (_, mi, fid) = list[i * list.len() / k];
            out.push(w.modules[mi].module.func(fid));
        }
    }
    out
}

/// Kernel and facade micro-timings over every function of the
/// workload: `(kernel ns per probe, nullness µs, interfere µs,
/// interference-test µs)` samples. Kernel answers are checked.
fn probe_figures(w: &Workload, env: &Env, tally: &mut Tally) -> [Vec<f64>; 4] {
    let mut kernel = Vec::new();
    let mut nullness = Vec::new();
    let mut interfere = Vec::new();
    let mut interfere_test = Vec::new();
    for mc in &w.modules {
        let m = &mc.module;
        let fl = Fastlive::builder()
            .threads(env.threads)
            .build()
            .expect("valid configuration");
        let mut session = fl.session(m);
        for (fid, fc) in mc.funcs.iter().enumerate() {
            let func = m.func(fid);
            let live = fl.engine().analysis_for(func).expect("resolves");
            let mut got = Vec::with_capacity(fc.probes.len());
            for _ in 0..KERNEL_ROUNDS {
                got.clear();
                let t = sys::cpu_s();
                for p in &fc.probes {
                    got.push(p.kernel(&live, func));
                }
                kernel.push((sys::cpu_s() - t) * 1e9 / fc.probes.len() as f64);
            }
            for (g, want) in got.iter().zip(&fc.probe_ref) {
                tally.attempted += 1;
                tally.failed += u64::from(want.as_bool() != Some(*g));
            }

            let mut chunk = |qs: &[fastlive::Query], out: &mut Vec<f64>| {
                if qs.is_empty() {
                    return;
                }
                for q in qs {
                    let _ = session.query(m, q); // resolve outside the clock
                }
                let t = sys::cpu_s();
                for q in qs {
                    let _ = black_box(session.query(m, q));
                }
                out.push((sys::cpu_s() - t) * 1e6 / qs.len() as f64);
            };
            chunk(&fc.batch[fc.nullness_at..], &mut nullness);
            chunk(&fc.batch[fc.interfere_at..fc.nullness_at], &mut interfere);

            if !fc.pairs.is_empty() {
                let dom = live.checker().dom();
                let mut engine = CheckerEngine::from_shared(Arc::clone(&live));
                let t = sys::cpu_s();
                for &(a, b) in &fc.pairs {
                    let _ = black_box(values_interfere(&mut engine, func, dom, a, b));
                }
                interfere_test.push((sys::cpu_s() - t) * 1e6 / fc.pairs.len() as f64);
            }
        }
    }
    [kernel, nullness, interfere, interfere_test]
}

/// Everything the traced run reports besides the end-to-end loop
/// figures it is handed: `untraced` and `traced` are the two timed
/// loops of the same run.
pub fn measure(
    w: &Workload,
    seed: u64,
    env: &Env,
    untraced: &Samples,
    traced: &mut Samples,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<String>) {
    let dir = env.store.join("layers");
    std::fs::create_dir_all(&dir).expect("the store directory is creatable");
    let large = large_functions(seed);
    let mut timed: Vec<Buckets> = (0..TIMED.len()).map(|_| Buckets::default()).collect();
    for func in sample(w).into_iter().chain(&large) {
        let b = bucket(func.num_blocks());
        for (slot, v) in timed.iter_mut().zip(time_function(func, env, &dir)) {
            slot.push(b, v);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = Vec::new();
    let mut meds = Vec::new();
    for (name, slot) in TIMED.iter().zip(&mut timed) {
        let m = slot.medians();
        for (bname, &(value, samples)) in BUCKETS.iter().zip(&m) {
            out.push(Metric {
                name: format!("{name}.{bname}"),
                value,
                unit: unit_of(name),
                samples,
            });
        }
        meds.push(m);
    }
    let med = |name: &str, b: usize| meds[TIMED.iter().position(|n| *n == name).expect("known")][b];

    // Layer additivity and the honest disk baseline.
    let mut flags = Vec::new();
    for (b, bname) in BUCKETS.iter().enumerate() {
        let (cold, n) = med("engine.cold_resolve_us.live", b);
        let (disk, _) = med("engine.disk_resolve_us", b);
        let sum = |parts: &[&str]| parts.iter().map(|p| med(p, b).0).sum::<f64>();
        let ratio = |num: f64, den: f64| num / den;
        let cold_cov = ratio(
            sum(&[
                "engine.fingerprint_us",
                "engine.to_graph_us",
                "cfg.dfs_us",
                "cfg.dom_us",
                "core.precompute_us",
                "core.checker_build_us",
            ]),
            cold,
        );
        let disk_cov = ratio(
            sum(&[
                "engine.fingerprint_us",
                "persist.read_us",
                "persist.decode_us",
                "persist.revive_us",
            ]),
            disk,
        );
        for (what, v) in [("cold_coverage", cold_cov), ("disk_coverage", disk_cov)] {
            if n > 0 && !(COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&v) {
                flags.push(format!(
                    "trace.{what}.{bname}={v:.3} outside {COVERAGE_BAND:?}"
                ));
            }
            out.push(Metric {
                name: format!("trace.{what}.{bname}"),
                value: v,
                unit: "ratio",
                samples: n,
            });
        }
        out.push(Metric {
            name: format!("persist.disk_vs_cold.{bname}"),
            value: ratio(disk, cold),
            unit: "ratio",
            samples: n,
        });
    }

    let [mut kernel, mut nullness, mut interfere, mut interfere_test] =
        probe_figures(w, env, tally);
    let kernel_p50 = quantile(&mut kernel, 0.5);
    let probe_p50 = quantile(&mut traced.probe_ns, 0.5);
    let mut push = |name: &str, value: f64, unit: &'static str, samples: usize| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        })
    };
    push("core.kernel_ns_p50", kernel_p50, "ns", kernel.len());
    push(
        "core.kernel_ns_p99",
        quantile(&mut kernel, 0.99),
        "ns",
        kernel.len(),
    );
    push(
        "destruct.interfere_us_p50",
        median(&mut interfere_test),
        "us",
        interfere_test.len(),
    );
    let opens = traced.session_open_ms.len();
    push(
        "facade.session_open_ms_p50",
        median(&mut traced.session_open_ms),
        "ms",
        opens,
    );
    let probes = traced.probe_ns.len();
    push(
        "facade.probe_ns_p99",
        quantile(&mut traced.probe_ns, 0.99),
        "ns",
        probes,
    );
    push(
        "facade.nullness_query_us_p50",
        median(&mut nullness),
        "us",
        nullness.len(),
    );
    push(
        "facade.interfere_query_us_p50",
        median(&mut interfere),
        "us",
        interfere.len(),
    );
    push(
        "facade.probe_overhead_ns",
        probe_p50 - kernel_p50,
        "ns",
        probes.min(kernel.len()),
    );
    // Lookups per pass, so that the figures do not grow with the
    // loop's length; evictions and disk errors are invariants (0).
    let st = traced.stats;
    let passes = traced.passes();
    let lookups = (st.hits + st.misses) as usize;
    for (name, v) in [
        ("engine.hits_per_pass", st.hits),
        ("engine.misses_per_pass", st.misses),
        ("engine.dedup_hits_per_pass", st.dedup_hits),
    ] {
        push(name, v as f64 / passes as f64, "count", passes);
    }
    push("engine.evictions", st.evictions as f64, "count", lookups);
    push(
        "engine.disk_errors",
        st.disk_errors as f64,
        "count",
        lookups,
    );
    push("engine.hit_ratio", st.hit_rate(), "ratio", lookups);
    push(
        "trace.overhead",
        traced.figures()[2] / untraced.figures()[2],
        "ratio",
        traced.blocks() + untraced.blocks(),
    );
    (out, flags)
}
