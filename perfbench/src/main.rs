//! The repository benchmark: two workloads driven through the
//! `fastlive` facade, every answer checked against the Oracle backend.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec_cold|spec_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! is a `{"report": …}` object with the seed, the explicit thread
//! count, `host_cpus`, sample counts, input properties, the gate's
//! self-check and any coverage flag.
//!
//! # Workloads
//!
//! The engine runs with an explicit thread count: `min(2, host_cpus)`
//! on `spec_cold`, 1 on `spec_warm` (see below); one process, a closed
//! loop of passes over the modules. Each function's load is its
//! recorded Sreedhar-III destruction stream (evenly thinned to at most
//! 2048 queries), interference probes between φ-related values,
//! nullness and definite-init probes (one `run_queries` batch), then
//! one chunk of 32 scalar liveness probes.
//!
//! * `spec_cold` — modules of 4 consecutive functions of the ten
//!   SPEC2000-int suites (Table 1 profiles at the paper's procedure
//!   counts, 4823 functions), each on a fresh memory-only
//!   `Fastlive`: compute on small functions, where fixed per-function
//!   costs dominate. No disk.
//! * `spec_warm` — the same modules on one long-lived `Fastlive` whose
//!   memory tier set-up filled with every shape (checked: no
//!   evictions); each pass reopens sessions, so every lookup hits
//!   memory (the §1 recompile). Compute does no work. One engine
//!   thread: with two, the engine spawns a pair of scoped workers for
//!   each session open, and their start and exit were most of a warm
//!   first answer; while the hypervisor stole a fifth of the host CPU
//!   for a whole run, that part grew by 30–50 % even in CPU time,
//!   against about 10 % for the rest of the work.
//!
//! No workload restarts over a filled disk store: the large functions
//! such a workload needs take ~10 ms a serve, too few serves for a
//! steady run. The traced run still times every `persist.*` stage and
//! the disk resolve, on the workload's functions and on generated
//! functions of 512–2048 blocks.
//!
//! # Figures
//!
//! Every time is CPU time of the whole process, worker threads
//! included, read from `CLOCK_PROCESS_CPUTIME_ID`: on a shared virtual
//! machine the hypervisor steals CPU in bursts, and the kernel leaves
//! stolen time out of CPU time but not out of wall time. A busy host
//! still slows each instruction, so a fixed calibration loop of the
//! benchmark's own runs after every 8th module serve, and every time
//! is scaled to a reference host on which it takes
//! `CALIBRATION_REF_US` (see `sys::Calibration`). Passes run in
//! blocks of 3, each block scaled by its own calibration runs; a
//! module's (or function's) sample is the fastest of its serves in one
//! block. A stolen slice
//! also hands the core's caches to another guest, which the
//! calibration loop does not see, so the figures pool the half of the
//! blocks with the least stolen CPU, and at least 200 module and 1000
//! function samples, so p95 and p99 keep ten samples beyond them. The
//! report gives the loop's median time and the share of host CPU
//! stolen over all blocks and over the pooled ones. `functions_per_s`
//! divides the functions served by the modules' fastest serve times.
//! `setup_s` is the median of several set-ups in the run, each scaled
//! by calibration runs made during it.
//!
//! `peak_heap_mb` is the program's heap while it serves a module: the
//! binary's allocator counts live heap bytes; per module of the
//! warm-up pass, the figure takes their peak during the serve less the
//! bytes live before set-up (the benchmark's inputs and reference
//! answers and the calibration table), and reports the mean over
//! modules. Resident memory would also count the allocator's free
//! pages, which vary from run to run, and the peak of one module would
//! follow the seed's largest one.
//!
//! # Which end-to-end metric each layer should move
//!
//! * `engine.to_graph`, `cfg.*`, `core.precompute`,
//!   `core.checker_build`: `first_answer_ms_*` and `functions_per_s`
//!   on `spec_cold`; nothing on `spec_warm`. With two workers the
//!   first answer waits for the slower one, so large stages move p95
//!   more than p50.
//! * `engine.fingerprint`, `engine.memory_hit`: `first_answer_ms_p50`
//!   on `spec_warm`.
//! * `core.kernel`, `facade.probe_overhead`: `probe_ns_p50` on
//!   `spec_warm`.
//! * `core.nullness_solve`, `core.batch_rows`, `destruct.interfere`:
//!   `batch_us_*` on `spec_warm`.
//! * `core.nullness_artifact`: `batch_us_p99` on `spec_cold`.
//! * `core.matrix_kib`: `peak_heap_mb` on `spec_warm`, whose memory
//!   tier holds every function's matrices.
//! * No `persist.*` change should move either workload.

mod drive;
mod inputs;
mod json;
mod layers;
mod sys;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use drive::{Env, Rig, Samples, Tally, FIGURES};
use inputs::{Kind, BUCKETS};
use json::{median, Json};

/// Share of `--seconds` each timed loop of a traced run gets; the
/// per-layer timings take the rest.
const TRACED_LOOP_SHARE: f64 = 0.3;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's store on every exit path, panics included.
struct StoreGuard(PathBuf);

impl Drop for StoreGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.set("value", value).set("unit", unit);
    m
}

/// The eight end-to-end metrics of an untraced loop, with their
/// sample counts.
/// `heap` is `peak_heap_mb` and the modules it averages over.
fn end_to_end(s: &Samples, setup: &mut [f64], heap: (f64, usize)) -> (Json, Json) {
    let units = ["ms", "ms", "1/s", "us", "us", "ns"];
    let (_, modules, functions) = s.pooled();
    let counts = [modules, modules, functions, functions, functions, functions];
    let (mut metrics, mut samples) = (Json::obj(), Json::obj());
    metrics.set("setup_s", metric(median(setup), "s"));
    samples.set("setup_s", setup.len());
    for (((name, value), unit), n) in FIGURES.iter().zip(s.figures()).zip(units).zip(counts) {
        metrics.set(name, metric(value, unit));
        samples.set(name, n);
    }
    metrics.set("peak_heap_mb", metric(heap.0, "MB"));
    samples.set("peak_heap_mb", heap.1);
    (metrics, samples)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <spec_cold|spec_warm> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cwd = std::env::current_dir().expect("the working directory is readable");
    let store = cwd
        .join(".perfbench_store")
        .join(format!("{}-{}", std::process::id(), args.seed));
    let _ = std::fs::remove_dir_all(&store);
    if let Err(e) = std::fs::create_dir_all(&store) {
        eprintln!("perfbench: cannot create {}: {e}", store.display());
        return ExitCode::from(1);
    }
    let _guard = StoreGuard(store.clone());
    let env = Env {
        threads: match args.workload {
            Kind::SpecCold => host_cpus.min(2),
            Kind::SpecWarm => 1,
        },
        host_cpus,
        store,
    };

    let t_gen = Instant::now();
    let w = inputs::generate(args.workload, args.seed);
    let generate_s = t_gen.elapsed().as_secs_f64();
    let props = inputs::properties(&w);

    let (rig, mut setup) = Rig::setup(&w, &env);
    let (self_check, heap) = rig.warm_up();

    let mut tally = Tally::default();
    let mut flags = Vec::new();
    let blocks;
    let steal;
    let calibration_us;
    let (metrics, samples, loop_stats) = if args.trace {
        let untraced = rig.run(args.seconds * TRACED_LOOP_SHARE, false);
        let mut traced = rig.run(args.seconds * TRACED_LOOP_SHARE, true);
        for t in [untraced.tally, traced.tally] {
            tally.attempted += t.attempted;
            tally.failed += t.failed;
        }
        let stats = traced.stats;
        blocks = (traced.blocks(), traced.pooled().0);
        steal = traced.steal_shares();
        calibration_us = traced.calibration_us();
        let (layer, f) = layers::measure(&w, args.seed, &env, &untraced, &mut traced, &mut tally);
        flags = f;
        let (mut metrics, mut samples) = (Json::obj(), Json::obj());
        for m in layer {
            metrics.set(&m.name, metric(m.value, m.unit));
            samples.set(&m.name, m.samples);
        }
        (metrics, samples, stats)
    } else {
        let s = rig.run(args.seconds, false);
        tally = s.tally;
        blocks = (s.blocks(), s.pooled().0);
        steal = s.steal_shares();
        calibration_us = s.calibration_us();
        let (metrics, samples) = end_to_end(&s, &mut setup, (heap, w.modules.len()));
        (metrics, samples, s.stats)
    };

    // Workload validity: what each workload claims about its tiers.
    let warm_evictions = rig
        .warm
        .as_ref()
        .map_or(0, |fl| fl.engine().cache_stats().evictions);
    let st = loop_stats;
    let disk_probes = st.disk_hits + st.disk_misses;
    let valid = match w.kind {
        Kind::SpecCold => disk_probes == 0,
        Kind::SpecWarm => warm_evictions == 0 && st.misses == 0,
    };
    if !valid {
        flags.push(format!(
            "workload invariant broken: {st:?}, warm evictions {warm_evictions}"
        ));
    }
    let correct = tally.failed == 0 && self_check.failed == 1 && valid;

    let mut inputs = Json::obj();
    inputs
        .set("modules", w.modules.len())
        .set("functions", w.functions())
        .set("queries_per_pass", props.queries_per_pass)
        .set("dropped_queries", w.dropped);
    let mut share = Json::obj();
    for (name, v) in BUCKETS.iter().zip(props.bucket_share) {
        share.set(name, v);
    }
    inputs
        .set("bucket_share", share)
        .set("shapes_per_function", props.shapes_per_function)
        .set("irreducible_share", props.irreducible_share)
        .set(
            "disk_hit_share",
            if disk_probes == 0 {
                0.0
            } else {
                st.disk_hits as f64 / disk_probes as f64
            },
        )
        .set("evictions", st.evictions.max(warm_evictions));
    let mut report = Json::obj();
    report
        .set("workload", w.kind.name())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("threads", env.threads)
        .set("host_cpus", env.host_cpus)
        .set("generate_s", generate_s)
        .set(
            "setup_reps_s",
            Json::Arr(setup.iter().map(|&s| Json::Num(s)).collect()),
        )
        .set("self_check_failures", self_check.failed)
        .set("inputs", inputs)
        .set("samples", samples)
        .set("blocks", blocks.0)
        .set("blocks_pooled", blocks.1)
        .set("host_steal_share", steal.0)
        .set("host_steal_share_pooled", steal.1)
        .set("calibration_us", calibration_us)
        .set("calibration_ref_us", drive::CALIBRATION_REF_US)
        .set(
            "coverage_band",
            Json::Arr(vec![
                Json::Num(layers::COVERAGE_BAND.0),
                Json::Num(layers::COVERAGE_BAND.1),
            ]),
        )
        .set(
            "flags",
            Json::Arr(flags.into_iter().map(Json::Str).collect()),
        );
    let mut wrapper = Json::obj();
    wrapper.set("report", report);
    println!("{wrapper}");

    let mut result = Json::obj();
    result
        .set("correct", correct)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("metrics", metrics);
    println!("{result}");
    ExitCode::SUCCESS
}
