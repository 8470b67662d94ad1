//! Seeded inputs of the two workloads, and their reference answers.
//!
//! Everything here runs before the first timed operation and outside
//! `setup_s`: generating programs, running SSA destruction to record
//! its query stream, turning that stream into facade queries, and
//! answering every query once on the Oracle backend (iterative
//! dataflow, independent of the `R`/`T` matrices under test).

use std::collections::HashSet;

use fastlive::destruct::{destruct_ssa, CheckerEngine, QueryKind, QueryRecord};
use fastlive::ir::InstData;
use fastlive::workload::{generate_suite, FunctionStats, SplitMix64, SPEC2000_INT};
use fastlive::{
    BackendKind, Block, CfgShape, Fastlive, FuncId, Function, FunctionLiveness, Module, PointRef,
    ProgramPoint, Query, Response, Value,
};

/// Percent of the paper's SPEC2000-int procedure counts per suite.
const SPEC_SCALE: u32 = 100;
/// Consecutive functions per `spec_*` module.
const SPEC_MODULE_FUNCS: usize = 4;
/// Longest destruction stream replayed per function; longer streams
/// are evenly thinned.
const MAX_STREAM: usize = 2048;
/// Scalar probes per function (one timed chunk).
const PROBES_PER_FUNCTION: usize = 32;
/// Interference probes per function, at most.
const INTERFERE_PER_FUNCTION: usize = 8;
/// Nullness and definite-init probes per function, each.
const NULLNESS_PER_FUNCTION: usize = 4;

/// The two workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A fresh memory-only `Fastlive` per SPEC module.
    SpecCold,
    /// One long-lived `Fastlive` whose memory tier holds every shape.
    SpecWarm,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "spec_cold" => Some(Kind::SpecCold),
            "spec_warm" => Some(Kind::SpecWarm),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecCold => "spec_cold",
            Kind::SpecWarm => "spec_warm",
        }
    }
}

/// A scalar liveness probe addressed by id.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// `LiveIn(value, block)`.
    In(Value, Block),
    /// `LiveOut(value, block)`.
    Out(Value, Block),
    /// `LiveAt(value, point)`.
    At(Value, ProgramPoint),
}

impl Probe {
    /// The facade query of this probe in function `fid`.
    pub fn query(self, fid: FuncId) -> Query {
        match self {
            Probe::In(v, b) => Query::live_in(fid, v, b),
            Probe::Out(v, b) => Query::live_out(fid, v, b),
            Probe::At(v, p) => Query::live_at(fid, v, point_ref(p)),
        }
    }

    /// The same probe answered by the query kernel directly.
    pub fn kernel(self, live: &FunctionLiveness, func: &Function) -> bool {
        match self {
            Probe::In(v, b) => live.is_live_in(func, v, b),
            Probe::Out(v, b) => live.is_live_out(func, v, b),
            Probe::At(v, p) => live.is_live_at(func, v, p).unwrap_or(false),
        }
    }
}

fn point_ref(p: ProgramPoint) -> PointRef {
    match p.inst_index() {
        None => PointRef::entry(p.block()),
        Some(i) => PointRef::after(p.block(), i),
    }
}

/// One function's share of the load, with its reference answers.
pub struct FuncCase {
    /// Blocks of the post-destruction function.
    pub blocks: usize,
    /// The `run_queries` batch: destruction stream, then interference,
    /// then nullness/definite-init probes.
    pub batch: Vec<Query>,
    /// Reference answer of each batch query.
    pub batch_ref: Vec<Response>,
    /// Index in `batch` where the interference probes start.
    pub interfere_at: usize,
    /// Index in `batch` where the nullness probes start.
    pub nullness_at: usize,
    /// The scalar probe chunk.
    pub probes: Vec<Probe>,
    /// `probes` as facade queries.
    pub probe_queries: Vec<Query>,
    /// Reference answer of each probe.
    pub probe_ref: Vec<Response>,
    /// φ-related value pairs behind the interference probes.
    pub pairs: Vec<(Value, Value)>,
}

/// One module handed to the library, with the query load of each of
/// its functions.
pub struct ModuleCase {
    /// The module.
    pub module: Module,
    /// Per-function load, indexed by `FuncId`.
    pub funcs: Vec<FuncCase>,
    /// The query whose answer stops the first-answer clock.
    pub first: Query,
    /// Its reference answer.
    pub first_ref: Response,
}

/// A generated workload.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The modules of one pass, in order.
    pub modules: Vec<ModuleCase>,
    /// Queries whose Oracle answer was an error, dropped from the load.
    pub dropped: usize,
}

impl Workload {
    /// Functions per pass.
    pub fn functions(&self) -> usize {
        self.modules.iter().map(|m| m.funcs.len()).sum()
    }

    /// Iterates `(module, function id, function, case)` over one pass.
    pub fn cases(&self) -> impl Iterator<Item = (&ModuleCase, FuncId, &Function, &FuncCase)> {
        self.modules.iter().flat_map(|m| {
            m.funcs
                .iter()
                .enumerate()
                .map(move |(id, fc)| (m, id, m.module.func(id), fc))
        })
    }
}

/// Size bucket of a function, by block count.
pub fn bucket(blocks: usize) -> usize {
    match blocks {
        0..=63 => 0,
        64..=511 => 1,
        _ => 2,
    }
}

/// Names of the [`bucket`]s, as they appear in metric names.
pub const BUCKETS: [&str; 3] = ["lt64", "64to511", "ge512"];

/// SSA destruction with the paper's checker, keeping the function the
/// stream was recorded against and the stream itself (the §6.2 load).
fn destruct(func: Function) -> (Function, Vec<QueryRecord>) {
    let result = destruct_ssa(func, CheckerEngine::compute);
    (result.func, result.stats.queries)
}

/// Generates the workload for `seed`: the SPEC2000-int suites cut
/// into modules of consecutive functions.
pub fn generate(kind: Kind, seed: u64) -> Workload {
    let mut prepared = Vec::new();
    for profile in &SPEC2000_INT {
        let suite = generate_suite(profile, SPEC_SCALE, seed);
        prepared.extend(suite.functions.into_iter().map(destruct));
    }
    let mut rng = SplitMix64::new(seed ^ 0x7370_6563); // "spec"
    let mut modules = Vec::new();
    let mut dropped = 0;
    let mut rest = prepared.into_iter().peekable();
    while rest.peek().is_some() {
        let chunk: Vec<_> = rest.by_ref().take(SPEC_MODULE_FUNCS).collect();
        let (m, d) = module_case(chunk, &mut rng);
        modules.push(m);
        dropped += d;
    }
    Workload {
        kind,
        modules,
        dropped,
    }
}

/// Values whose definition is still attached (destruction may detach
/// some), the only ones a probe may name.
fn defined_values(func: &Function) -> Vec<Value> {
    func.values()
        .filter(|&v| func.def_point(v).is_some())
        .collect()
}

/// φ-related pairs: each block parameter with each distinct incoming
/// argument, evenly thinned to at most `INTERFERE_PER_FUNCTION`.
fn phi_pairs(func: &Function) -> Vec<(Value, Value)> {
    let mut pairs = Vec::new();
    for b in func.blocks() {
        let Some(term) = func.terminator(b) else {
            continue;
        };
        let targets = match func.inst_data(term) {
            InstData::Jump { dest } => vec![dest],
            InstData::Brif {
                then_dest,
                else_dest,
                ..
            } => vec![then_dest, else_dest],
            _ => Vec::new(),
        };
        for call in targets {
            for (&param, &arg) in func.block_params(call.block).iter().zip(&call.args) {
                if param != arg && func.def_point(arg).is_some() {
                    pairs.push((param, arg));
                }
            }
        }
    }
    if pairs.len() > INTERFERE_PER_FUNCTION {
        let step = pairs.len() as f64 / INTERFERE_PER_FUNCTION as f64;
        pairs = (0..INTERFERE_PER_FUNCTION)
            .map(|i| pairs[(i as f64 * step) as usize])
            .collect();
    }
    pairs
}

fn stream_query(fid: FuncId, r: &QueryRecord) -> Query {
    match r.kind {
        QueryKind::LiveIn => Query::live_in(fid, r.value, r.block),
        QueryKind::LiveOut => Query::live_out(fid, r.value, r.block),
        QueryKind::LiveAt { .. } => Query::live_at(
            fid,
            r.value,
            point_ref(r.point().expect("LiveAt records carry a point")),
        ),
    }
}

fn random_probes(func: &Function, values: &[Value], rng: &mut SplitMix64) -> Vec<Probe> {
    let blocks: Vec<Block> = func.blocks().collect();
    (0..PROBES_PER_FUNCTION)
        .map(|i| {
            let v = *rng.pick(values);
            let b = *rng.pick(&blocks);
            match i % 3 {
                0 => Probe::In(v, b),
                1 => Probe::Out(v, b),
                _ => {
                    let len = func.block_insts(b).len();
                    let p = if len == 0 {
                        ProgramPoint::block_entry(b)
                    } else {
                        ProgramPoint::after(b, rng.index(len))
                    };
                    Probe::At(v, p)
                }
            }
        })
        .collect()
}

/// Builds one module's load and answers it on the Oracle backend.
/// Returns the case and how many queries were dropped because the
/// Oracle refused them.
fn module_case(
    prepared: Vec<(Function, Vec<QueryRecord>)>,
    rng: &mut SplitMix64,
) -> (ModuleCase, usize) {
    let mut module = Module::new();
    let mut drafts = Vec::new();
    for (fid, (func, stream)) in prepared.into_iter().enumerate() {
        let values = defined_values(&func);
        let blocks: Vec<Block> = func.blocks().collect();
        let step = stream.len().div_ceil(MAX_STREAM).max(1);
        let mut batch: Vec<Query> = stream
            .iter()
            .step_by(step)
            .map(|r| stream_query(fid, r))
            .collect();
        let interfere_at = batch.len();
        let pairs = phi_pairs(&func);
        batch.extend(pairs.iter().map(|&(a, b)| Query::interfere(fid, a, b)));
        let nullness_at = batch.len();
        for _ in 0..NULLNESS_PER_FUNCTION {
            batch.push(Query::nullness(fid, *rng.pick(&values)));
            batch.push(Query::definitely_init(
                fid,
                *rng.pick(&values),
                *rng.pick(&blocks),
            ));
        }
        let probes = random_probes(&func, &values, rng);
        drafts.push((
            batch,
            interfere_at,
            nullness_at,
            probes,
            pairs,
            func.num_blocks(),
        ));
        module.push(func);
    }

    // One Oracle session answers everything; the planner resolves each
    // function's iterative solution once.
    let fl = Fastlive::builder()
        .threads(1)
        .build()
        .expect("the default configuration is valid");
    let mut oracle = fl.session_with(&module, BackendKind::Oracle);
    let mut dropped = 0;
    let mut funcs = Vec::new();
    for (fid, (batch, interfere_at, nullness_at, probes, pairs, blocks)) in
        drafts.into_iter().enumerate()
    {
        let answers = oracle.run_queries(&module, &batch);
        let (mut kept, mut batch_ref) = (Vec::new(), Vec::new());
        let (mut ia, mut na) = (interfere_at, nullness_at);
        for (i, (q, a)) in batch.into_iter().zip(answers).enumerate() {
            match a {
                Ok(r) => {
                    kept.push(q);
                    batch_ref.push(r);
                }
                Err(_) => {
                    dropped += 1;
                    ia -= usize::from(i < interfere_at);
                    na -= usize::from(i < nullness_at);
                }
            }
        }
        let probe_queries: Vec<Query> = probes.iter().map(|p| p.query(fid)).collect();
        let probe_ref = oracle
            .run_queries(&module, &probe_queries)
            .into_iter()
            .map(|a| a.expect("probes name attached values and existing points"))
            .collect();
        funcs.push(FuncCase {
            blocks,
            batch: kept,
            batch_ref,
            interfere_at: ia,
            nullness_at: na,
            probes,
            probe_queries,
            probe_ref,
            pairs,
        });
    }
    let first = funcs[0].probe_queries[0].clone();
    let first_ref = funcs[0].probe_ref[0].clone();
    drop(oracle);
    (
        ModuleCase {
            module,
            funcs,
            first,
            first_ref,
        },
        dropped,
    )
}

/// Input properties later claims can cite.
pub struct Properties {
    /// Share of functions per size bucket.
    pub bucket_share: [f64; 3],
    /// Distinct CFG shapes over functions.
    pub shapes_per_function: f64,
    /// Share of functions with an irreducible CFG.
    pub irreducible_share: f64,
    /// Queries per pass (batch items, probes and first queries).
    pub queries_per_pass: usize,
}

/// Measures the [`Properties`] of one pass.
pub fn properties(w: &Workload) -> Properties {
    let n = w.functions() as f64;
    let mut counts = [0usize; 3];
    let mut shapes = HashSet::new();
    let mut irreducible = 0usize;
    let mut queries = 0usize;
    for (_, _, func, fc) in w.cases() {
        counts[bucket(fc.blocks)] += 1;
        shapes.insert(CfgShape::of(func));
        irreducible += usize::from(!FunctionStats::measure(func).is_reducible());
        queries += fc.batch.len() + fc.probes.len();
    }
    Properties {
        bucket_share: counts.map(|c| c as f64 / n),
        shapes_per_function: shapes.len() as f64 / n,
        irreducible_share: irreducible as f64 / n,
        queries_per_pass: queries + w.modules.len(),
    }
}
