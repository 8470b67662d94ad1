//! The end-to-end loop: set-up, the untimed warm-up with the gate's
//! self-check, and timed passes over the workload's modules through
//! the public facade (`Fastlive::builder()…build()`,
//! `Fastlive::session`, `FastliveSession::run_queries` and
//! `FastliveSession::query`).

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Instant;

use fastlive::{AnalysisKind, CacheStats, Fastlive, FuncId, Module, QueryError, Response};

use crate::inputs::{Kind, ModuleCase, Workload};
use crate::json::{median, quantile};
use crate::sys;

/// `spec_cold` set-up repetitions per run; `setup_s` is their median.
const COLD_SETUP_REPS: usize = 31;
/// `spec_warm` set-up repetitions per run; `setup_s` is their median.
const WARM_SETUP_REPS: usize = 9;
/// Functions per `prefetch` call when `spec_warm` set-up warms memory.
const WARM_CHUNK: usize = 64;
/// `Fastlive` builds per timed block of a `spec_cold` set-up rep.
const COLD_BUILDS_PER_REP: usize = 16384;
/// Passes per block: an item's sample is its fastest serve in one.
const PASSES_PER_BLOCK: usize = 3;
/// Fewest module samples the figures pool: p95 keeps ten beyond.
const MIN_MODULE_SAMPLES: usize = 200;
/// Fewest function samples the figures pool: p99 keeps ten beyond.
const MIN_FUNCTION_SAMPLES: usize = 1000;
/// Fewest blocks of a timed loop.
const MIN_BLOCKS: usize = 4;
/// Module serves per calibration run in a timed loop: often enough to
/// follow the host, rarely enough that the run's cache and TLB misses
/// leave the program's serves alone.
const SERVES_PER_CALIBRATION: usize = 8;
/// Calibration runs per set-up rep.
const SETUP_CALIBRATIONS: usize = 64;
/// CPU time of one [`sys::Calibration`] run on the reference host, µs:
/// the figures are CPU times scaled to a host that runs it this fast.
/// It is about what a quiet 2-vCPU Xeon virtual machine takes.
pub const CALIBRATION_REF_US: f64 = 26.0;

/// [`CALIBRATION_REF_US`] over the median of `runs` (CPU seconds): the
/// factor that scales times measured beside them to the reference host.
fn speed_scale(runs: &mut [f64]) -> f64 {
    CALIBRATION_REF_US * 1e-6 / median(runs)
}

/// Where and how wide the run is.
pub struct Env {
    /// The explicit engine thread count.
    pub threads: usize,
    /// CPUs the process may use.
    pub host_cpus: usize,
    /// This run's private, initially empty store directory.
    pub store: PathBuf,
}

/// Operations attempted and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Answers requested.
    pub attempted: u64,
    /// Answers that were a `QueryError` or differed from the reference.
    pub failed: u64,
}

/// What one timed loop measured, in serve order: every pass serves
/// the same modules and functions in the same order.
///
/// Every time is CPU time of the whole process ([`sys::cpu_s`]), so
/// the hypervisor's stolen time and the wait for a woken thread are
/// not in it. The loop runs in blocks of [`PASSES_PER_BLOCK`] passes;
/// a module's (or function's) sample is the fastest of its serves in
/// one block, which leaves out the interrupts and cold caches a host
/// adds to a serve now and then. A [`sys::Calibration`] run follows
/// every [`SERVES_PER_CALIBRATION`]th serve, and each block's samples
/// are scaled by [`CALIBRATION_REF_US`] over the block's median run.
/// The hypervisor steals in bursts, and a stolen slice leaves the
/// core's caches to another guest, which the calibration loop (in L3)
/// does not see; so the figures pool the half of the blocks with the
/// least stolen host CPU (`/proc/stat`), and at least enough blocks for
/// [`MIN_MODULE_SAMPLES`] and [`MIN_FUNCTION_SAMPLES`].
pub struct Samples {
    /// Per module serve: `build()` (if any) + session open + one query.
    pub first_answer_ms: Vec<f64>,
    /// Per module serve: its whole time (first answer, batches and
    /// probes).
    module_s: Vec<f64>,
    /// Per function serve: its `run_queries` batch.
    pub batch_us: Vec<f64>,
    /// Per function serve: its probe chunk's time over its length.
    pub probe_ns: Vec<f64>,
    /// Per module serve, traced loops only: the session open alone.
    pub session_open_ms: Vec<f64>,
    /// Per module serve: the peak heap during it, less the heap the
    /// benchmark held before set-up, MB.
    heap_mb: Vec<f64>,
    /// Modules and functions per pass.
    per_pass: (usize, usize),
    /// Blocks measured.
    blocks: usize,
    /// Calibration runs in the current block.
    block_runs: Vec<f64>,
    /// Per block: the factor its times are scaled by.
    scale: Vec<f64>,
    /// Per block: the share of host CPU time stolen during it.
    steal: Vec<f64>,
    /// Host ticks when the current block started.
    ticks: Option<(u64, u64)>,
    /// Engine counters over the loop.
    pub stats: CacheStats,
    /// Answers checked against the reference.
    pub tally: Tally,
}

/// The gated figures of a timed loop, in [`Samples::figures`] order.
pub const FIGURES: [&str; 6] = [
    "first_answer_ms_p50",
    "first_answer_ms_p95",
    "functions_per_s",
    "batch_us_p50",
    "batch_us_p99",
    "probe_ns_p50",
];

/// For each of the `n` items of a pass, the fastest of its serves in
/// the passes `serves` holds.
fn fastest(serves: &[f64], n: usize) -> impl Iterator<Item = f64> + '_ {
    (0..n).map(move |i| {
        serves
            .iter()
            .skip(i)
            .step_by(n)
            .copied()
            .fold(f64::INFINITY, f64::min)
    })
}

impl Samples {
    fn new(w: &Workload) -> Samples {
        Samples {
            first_answer_ms: Vec::new(),
            module_s: Vec::new(),
            batch_us: Vec::new(),
            probe_ns: Vec::new(),
            session_open_ms: Vec::new(),
            heap_mb: Vec::new(),
            per_pass: (w.modules.len(), w.functions()),
            blocks: 0,
            block_runs: Vec::new(),
            scale: Vec::new(),
            steal: Vec::new(),
            ticks: sys::host_ticks(),
            stats: CacheStats::default(),
            tally: Tally::default(),
        }
    }

    /// Blocks measured.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Passes the loop served.
    pub fn passes(&self) -> usize {
        self.blocks * PASSES_PER_BLOCK
    }

    /// Closes the current block.
    fn end_block(&mut self) {
        self.scale.push(speed_scale(&mut self.block_runs));
        self.block_runs.clear();
        let now = sys::host_ticks();
        let stolen = match (self.ticks, now) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        self.steal.push(stolen);
        self.ticks = now;
        self.blocks += 1;
    }

    /// The blocks the figures pool, by index: the half with the least
    /// stolen CPU (earlier blocks first on ties), at least
    /// [`needed`](Self::needed).
    fn kept(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.blocks).collect();
        order.sort_by(|&a, &b| self.steal[a].total_cmp(&self.steal[b]).then(a.cmp(&b)));
        order.truncate(self.blocks.div_ceil(2).max(self.needed()));
        order
    }

    /// Mean stolen share of host CPU over all blocks and over the
    /// pooled ones.
    pub fn steal_shares(&self) -> (f64, f64) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let kept: Vec<f64> = self.kept().into_iter().map(|i| self.steal[i]).collect();
        (mean(&self.steal), mean(&kept))
    }

    /// Median over blocks of the calibration run time, µs.
    pub fn calibration_us(&self) -> f64 {
        let mut us: Vec<f64> = self.scale.iter().map(|k| CALIBRATION_REF_US / k).collect();
        median(&mut us)
    }

    /// Blocks the sample rule needs.
    fn needed(&self) -> usize {
        let (m, f) = self.per_pass;
        MIN_MODULE_SAMPLES
            .div_ceil(m)
            .max(MIN_FUNCTION_SAMPLES.div_ceil(f))
    }

    /// `(blocks, module samples, function samples)` the figures pool:
    /// one sample per item and pooled block.
    pub fn pooled(&self) -> (usize, usize, usize) {
        let n = self.kept().len();
        (n, n * self.per_pass.0, n * self.per_pass.1)
    }

    /// Each of [`FIGURES`] over the scaled samples of the pooled blocks.
    /// `functions_per_s` is functions fully served per second of the
    /// modules' serving time, each module at its fastest serve.
    pub fn figures(&self) -> [f64; 6] {
        let (m, f) = self.per_pass;
        let k = PASSES_PER_BLOCK;
        let (mut first, mut batch, mut probe) = (Vec::new(), Vec::new(), Vec::new());
        let mut busy = 0.0;
        for i in self.kept() {
            let c = self.scale[i];
            let mods = i * k * m..(i + 1) * k * m;
            let fns = i * k * f..(i + 1) * k * f;
            first.extend(fastest(&self.first_answer_ms[mods.clone()], m).map(|v| v * c));
            busy += c * fastest(&self.module_s[mods], m).sum::<f64>();
            batch.extend(fastest(&self.batch_us[fns.clone()], f).map(|v| v * c));
            probe.extend(fastest(&self.probe_ns[fns], f).map(|v| v * c));
        }
        [
            quantile(&mut first, 0.5),
            quantile(&mut first, 0.95),
            batch.len() as f64 / busy,
            quantile(&mut batch, 0.5),
            quantile(&mut batch, 0.99),
            quantile(&mut probe, 0.5),
        ]
    }
}

/// The running workload: inputs, environment and the long-lived state
/// set-up produced.
pub struct Rig<'w> {
    /// The inputs.
    pub w: &'w Workload,
    /// The environment.
    pub env: &'w Env,
    /// `spec_warm`: the one long-lived, warmed facade.
    pub warm: Option<Fastlive>,
    /// The calibration loops, made before `base_heap_mb` is read.
    calibration: RefCell<sys::Calibration>,
    /// Heap live before set-up: the benchmark's inputs, reference
    /// answers and calibration tables, MB.
    base_heap_mb: f64,
}

/// The reference answer with `flip` applied: the self-check negates
/// one boolean answer and the gate must then see exactly one failure.
fn expect(reference: &Response, flip: bool) -> Response {
    match (reference, flip) {
        (Response::Live(b), true) => Response::Live(!b),
        (Response::Interference(b), true) => Response::Interference(!b),
        (Response::Init(b), true) => Response::Init(!b),
        (r, _) => r.clone(),
    }
}

fn check(tally: &mut Tally, got: &Result<Response, QueryError>, want: Response) {
    tally.attempted += 1;
    if got.as_ref() != Ok(&want) {
        tally.failed += 1;
    }
}

/// Every `(function, analysis)` of `module`, the warm-up request list.
fn all_requests(module: &Module) -> Vec<(FuncId, AnalysisKind)> {
    (0..module.len())
        .flat_map(|id| AnalysisKind::ALL.map(|k| (id, k)))
        .collect()
}

impl<'w> Rig<'w> {
    /// The memory-only facade a `spec_cold` module gets.
    fn fresh(&self) -> Fastlive {
        Fastlive::builder()
            .threads(self.env.threads)
            .build()
            .expect("the benchmark's configurations are valid")
    }

    /// The long-lived `spec_warm` facade: room for every shape of both
    /// analyses, four times over, so nothing is evicted.
    fn warm_facade(&self) -> Fastlive {
        Fastlive::builder()
            .threads(self.env.threads)
            .cache_capacity(8 * self.w.functions())
            .build()
            .expect("the benchmark's configurations are valid")
    }

    /// Runs the workload's set-up several times and returns the rig
    /// with the state of the last one, and each rep's CPU seconds,
    /// scaled like the loop's times by calibration runs beside it.
    pub fn setup(w: &'w Workload, env: &'w Env) -> (Rig<'w>, Vec<f64>) {
        let mut rig = Rig {
            w,
            env,
            warm: None,
            calibration: RefCell::new(sys::Calibration::new()),
            base_heap_mb: sys::reset_peak_heap_mb(),
        };
        let mut secs = Vec::new();
        let mut calibration = rig.calibration.borrow_mut();
        let mut runs = Vec::new();
        match w.kind {
            Kind::SpecCold => {
                // The program's only set-up is the memory-only build
                // each module pays, and the drop after it; time it in
                // blocks, never alone.
                for _ in 0..COLD_SETUP_REPS {
                    let t0 = sys::cpu_s();
                    for _ in 0..COLD_BUILDS_PER_REP {
                        drop(rig.fresh());
                    }
                    let rep_s = (sys::cpu_s() - t0) / COLD_BUILDS_PER_REP as f64;
                    runs.clear();
                    runs.extend((0..SETUP_CALIBRATIONS).map(|_| calibration.run()));
                    secs.push(rep_s * speed_scale(&mut runs));
                }
            }
            Kind::SpecWarm => {
                // Warming prefetches both analyses of every function,
                // WARM_CHUNK functions per call so the worker pool
                // balances over many; assembling a chunk is the
                // benchmark's work and stays off the clock.
                let functions: Vec<_> = w
                    .modules
                    .iter()
                    .flat_map(|m| m.module.functions())
                    .collect();
                let per_chunk = SETUP_CALIBRATIONS.div_ceil(functions.len().div_ceil(WARM_CHUNK));
                for _ in 0..WARM_SETUP_REPS {
                    rig.warm = None;
                    runs.clear();
                    let t0 = sys::cpu_s();
                    let fl = rig.warm_facade();
                    let mut rep_s = sys::cpu_s() - t0;
                    for chunk in functions.chunks(WARM_CHUNK) {
                        let mut m = Module::new();
                        for &f in chunk {
                            m.push(f.clone());
                        }
                        let requests = all_requests(&m);
                        let t = sys::cpu_s();
                        fl.engine().prefetch(&m, &requests);
                        rep_s += sys::cpu_s() - t;
                        runs.extend((0..per_chunk).map(|_| calibration.run()));
                    }
                    secs.push(rep_s * speed_scale(&mut runs));
                    rig.warm = Some(fl);
                }
            }
        }
        drop(calibration);
        (rig, secs)
    }

    /// Serves one module and checks every answer after the clock
    /// stops. `flip` names the batch answer the self-check negates.
    fn serve(&self, mc: &ModuleCase, flip: Option<(usize, usize)>, s: &mut Samples, traced: bool) {
        let m = &mc.module;
        sys::reset_peak_heap_mb();
        let t0 = sys::cpu_s();
        let fresh;
        let fl = match &self.warm {
            Some(fl) => fl,
            None => {
                fresh = self.fresh();
                &fresh
            }
        };
        let mut batches = Vec::with_capacity(mc.funcs.len());
        let mut probes = Vec::with_capacity(mc.funcs.len());
        let first;
        let busy;
        {
            let t_open = sys::cpu_s();
            let mut session = fl.session(m);
            if traced {
                s.session_open_ms.push((sys::cpu_s() - t_open) * 1e3);
            }
            first = session.query(m, &mc.first);
            s.first_answer_ms.push((sys::cpu_s() - t0) * 1e3);
            for fc in &mc.funcs {
                let tb = sys::cpu_s();
                let answers = session.run_queries(m, &fc.batch);
                s.batch_us.push((sys::cpu_s() - tb) * 1e6);
                batches.push(answers);
                let mut out = Vec::with_capacity(fc.probe_queries.len());
                let tp = sys::cpu_s();
                for q in &fc.probe_queries {
                    out.push(session.query(m, q));
                }
                let el = (sys::cpu_s() - tp) * 1e9;
                s.probe_ns.push(el / fc.probe_queries.len() as f64);
                probes.push(out);
            }
            busy = sys::cpu_s() - t0;
        }
        s.module_s.push(busy);
        s.heap_mb.push(sys::peak_heap_mb() - self.base_heap_mb);
        if self.warm.is_none() {
            s.stats = s.stats.add(&fl.engine().cache_stats());
        }

        let t = &mut s.tally;
        check(t, &first, mc.first_ref.clone());
        for (fi, (fc, (answers, probe_answers))) in
            mc.funcs.iter().zip(batches.iter().zip(&probes)).enumerate()
        {
            if answers.len() != fc.batch_ref.len() {
                t.attempted += fc.batch_ref.len() as u64;
                t.failed += fc.batch_ref.len() as u64;
            } else {
                for (qi, (got, want)) in answers.iter().zip(&fc.batch_ref).enumerate() {
                    check(t, got, expect(want, flip == Some((fi, qi))));
                }
            }
            for (got, want) in probe_answers.iter().zip(&fc.probe_ref) {
                check(t, got, want.clone());
            }
        }
    }

    /// One pass over every module.
    fn pass(&self, flip: Option<(usize, usize)>, s: &mut Samples, traced: bool) {
        // Room for the whole pass, so that no sample vector grows
        // inside a serve's heap window.
        let (m, f) = s.per_pass;
        for v in [&mut s.first_answer_ms, &mut s.module_s, &mut s.heap_mb] {
            v.reserve(m);
        }
        for v in [&mut s.batch_us, &mut s.probe_ns] {
            v.reserve(f);
        }
        s.block_runs.reserve(m.div_ceil(SERVES_PER_CALIBRATION));
        if traced {
            s.session_open_ms.reserve(m);
        }
        let mut calibration = self.calibration.borrow_mut();
        for (i, mc) in self.w.modules.iter().enumerate() {
            self.serve(mc, if i == 0 { flip } else { None }, s, traced);
            if i % SERVES_PER_CALIBRATION == 0 {
                s.block_runs.push(calibration.run());
            }
        }
    }

    /// The untimed warm-up pass, which doubles as the gate's
    /// self-check: one boolean reference answer of the first module is
    /// negated, so the pass must report exactly one failure. Returns
    /// the pass's tally and the mean over its modules of the peak heap
    /// while serving one, above the benchmark's own (`peak_heap_mb`).
    pub fn warm_up(&self) -> (Tally, f64) {
        let first = &self.w.modules[0].funcs;
        let flip = first.iter().enumerate().find_map(|(fi, fc)| {
            fc.batch_ref
                .iter()
                .position(|r| r.as_bool().is_some())
                .map(|qi| (fi, qi))
        });
        let mut s = Samples::new(self.w);
        self.pass(flip, &mut s, false);
        let heap = s.heap_mb.iter().sum::<f64>() / s.heap_mb.len() as f64;
        (s.tally, heap)
    }

    /// Timed blocks of passes for at least `seconds` of wall time, and
    /// at least as many blocks as the figures need.
    pub fn run(&self, seconds: f64, traced: bool) -> Samples {
        let mut s = Samples::new(self.w);
        let before = self.warm.as_ref().map(|fl| fl.engine().cache_stats());
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds || s.blocks < MIN_BLOCKS.max(s.needed()) {
            for _ in 0..PASSES_PER_BLOCK {
                self.pass(None, &mut s, traced);
            }
            s.end_block();
        }
        if let (Some(fl), Some(before)) = (&self.warm, before) {
            let after = fl.engine().cache_stats();
            s.stats = CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions,
                dedup_hits: after.dedup_hits - before.dedup_hits,
                disk_hits: after.disk_hits - before.disk_hits,
                disk_misses: after.disk_misses - before.disk_misses,
                disk_rejects: after.disk_rejects - before.disk_rejects,
                disk_errors: after.disk_errors - before.disk_errors,
            };
        }
        s
    }
}
