//! End-to-end, source-to-result benchmark of the lambda-ssa compiler and VM,
//! with a traced per-layer breakdown.
//!
//! A workload is a fixed set of programs. One *round* compiles every program
//! of the set from source text and runs it, in a seeded order, as a
//! single-threaded closed loop: the next program starts only after the
//! previous one finished and its output was checked against a reference
//! computed at set-up by the λrc interpreter.
//!
//! Two paths execute a round:
//!
//! - the **untraced** path is the one `lssa run` takes in-process
//!   (`pipelines::compile` for `.fl`, `lssa_syntax::parse_program` +
//!   `pipelines::compile_ast_with_report` for `.lssa`, then
//!   `CompiledProgram::decoded` + `run_decoded_with`); every end-to-end
//!   metric comes from it;
//! - the **traced** path calls each layer's public function in turn and
//!   records a [`Span`] around every call; the per-layer metrics come from it.
//!
//! Set-up checks that both paths produce the same output and the same code
//! size for every program, so the traced run measures the same program.
//!
//! A reported time is the sum over programs of each program's fastest time
//! across the rounds: on a shared machine, interference only slows programs
//! down, in bursts.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use lssa_core::pipeline::PipelineOptions;
use lssa_driver::conformance;
use lssa_driver::pipelines::{self, CompilerConfig};
use lssa_driver::workloads::{self, Scale};
use lssa_lambda::SimplifyOptions;
use lssa_vm::{DecodeOptions, DecodedProgram, ExecOptions, RunOutcome};

/// Step budget of one program run (the `lssa run` default).
const MAX_STEPS: u64 = 2_000_000_000;

/// Generated programs drawn per seed into `compile-corpus`, next to the
/// hand-written cases. Enough that the corpus size varies by only about 2%
/// between seeds, while a round still costs about as much as a `run-alloc`
/// round.
const GENERATED_DRAW: usize = 100;

/// The eight benchmark programs; each gets a `vm.exec_ms.<program>` row.
const BENCH_PROGRAMS: [&str; 8] = [
    "binarytrees",
    "binarytrees-int",
    "const_fold",
    "deriv",
    "filter",
    "qsort",
    "rbmap_checkpoint",
    "unionfind",
];

const RUN_ALLOC: [&str; 6] = [
    "binarytrees",
    "binarytrees-int",
    "const_fold",
    "deriv",
    "filter",
    "rbmap_checkpoint",
];

const RUN_ARRAY: [&str; 2] = ["qsort", "unionfind"];

/// The traced layer calls, in pipeline order. Each is a span name and the
/// stem of a `<layer>_ms` self-time metric.
const LAYERS: [&str; 10] = [
    "syntax.parse",
    "lambda.parse",
    "lambda.check",
    "lambda.simplify",
    "lambda.insert_rc",
    "core.compile",
    "ir.verify",
    "vm.bytecode",
    "vm.decode",
    "vm.exec",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The conformance corpus as `.lssa` text: compiler-bound.
    CompileCorpus,
    /// Allocation-heavy benchmark programs as `.fl` source: VM- and heap-bound.
    RunAlloc,
    /// In-place array benchmark programs as `.fl` source: VM- and rc-bound.
    RunArray,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::CompileCorpus,
        Workload::RunAlloc,
        Workload::RunArray,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCorpus => "compile-corpus",
            Workload::RunAlloc => "run-alloc",
            Workload::RunArray => "run-array",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The surface syntax a program is fed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syntax {
    /// The built-in surface language (`lssa_lambda::parse_program`).
    Fl,
    /// The S-expression text frontend (`lssa_syntax::parse_program`).
    Lssa,
}

/// One program of a workload, with its reference output.
#[derive(Debug, Clone)]
pub struct Case {
    /// Stable name.
    pub name: String,
    /// Which frontend reads `text`.
    pub syntax: Syntax,
    /// Source text.
    pub text: String,
    /// `main`'s output under the λrc reference interpreter.
    pub expected: String,
}

/// Why a program counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailKind {
    /// Parsing, checking or compiling failed.
    Compile,
    /// The VM returned an error.
    Exec,
    /// The output differs from the reference.
    Output,
    /// Heap objects were still live after the run.
    Leak,
}

impl FailKind {
    const ALL: [FailKind; 4] = [
        FailKind::Compile,
        FailKind::Exec,
        FailKind::Output,
        FailKind::Leak,
    ];

    fn metric(self) -> &'static str {
        match self {
            FailKind::Compile => "fail.compile",
            FailKind::Exec => "fail.exec",
            FailKind::Output => "fail.output",
            FailKind::Leak => "fail.leak",
        }
    }
}

/// Builds a workload's programs from `seed` and computes their reference
/// outputs.
///
/// The seed draws the `compile-corpus` generated programs and sets the LCG
/// start value in `main` of `qsort`, `unionfind` and `rbmap_checkpoint`.
///
/// # Errors
///
/// Returns a message when a source does not parse or the reference
/// interpreter rejects it.
pub fn cases(workload: Workload, seed: u64, scale: Scale) -> Result<Vec<Case>, String> {
    sources(workload, seed, scale)?
        .into_iter()
        .map(Source::into_case)
        .collect()
}

/// A program's `.fl` source, before its reference output is known.
#[derive(Debug, Clone)]
struct Source {
    name: String,
    syntax: Syntax,
    fl: String,
}

impl Source {
    /// Parses the source, computes its reference output and, for a `.lssa`
    /// program, prints the text it is fed as.
    fn into_case(self) -> Result<Case, String> {
        let Source { name, syntax, fl } = self;
        let ast = lssa_lambda::parse_program(&fl).map_err(|e| format!("{name}: {e}"))?;
        let expected = reference(&ast).map_err(|e| format!("{name}: {e}"))?;
        let text = match syntax {
            Syntax::Lssa => lssa_syntax::print_program(&ast),
            Syntax::Fl => fl,
        };
        Ok(Case {
            name,
            syntax,
            text,
            expected,
        })
    }
}

/// The workload's `.fl` sources for `seed`.
fn sources(workload: Workload, seed: u64, scale: Scale) -> Result<Vec<Source>, String> {
    match workload {
        Workload::CompileCorpus => {
            // Stratified draw: of a seeded pool four times the draw, sorted
            // by size, keep one program in four, so every seed gets a
            // corpus of about the same total size.
            let mut pool = conformance::generated(4 * GENERATED_DRAW, mix(seed));
            pool.sort_by_key(|c| c.src.len());
            let mut corpus = conformance::handwritten();
            corpus.extend(pool.into_iter().skip(2).step_by(4));
            Ok(corpus
                .into_iter()
                .map(|c| Source {
                    name: c.name,
                    syntax: Syntax::Lssa,
                    fl: c.src,
                })
                .collect())
        }
        Workload::RunAlloc | Workload::RunArray => {
            let names: &[&str] = if workload == Workload::RunAlloc {
                &RUN_ALLOC
            } else {
                &RUN_ARRAY
            };
            names
                .iter()
                .map(|&name| {
                    let w = workloads::by_name(name, scale)
                        .ok_or_else(|| format!("no benchmark program `{name}`"))?;
                    Ok(Source {
                        name: name.to_string(),
                        syntax: Syntax::Fl,
                        fl: reseed(name, &w.src, lcg_start(seed))?,
                    })
                })
                .collect()
        }
    }
}

/// The oracle: `main` of the unsimplified program, rc-inserted, under the
/// λrc reference interpreter — never the compiler under test.
fn reference(ast: &lssa_lambda::Program) -> Result<String, String> {
    lssa_lambda::check_program(ast).map_err(|errs| {
        errs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    })?;
    let rc = lssa_lambda::insert_rc(ast);
    lssa_lambda::run_program(&rc, "main", true, MAX_STEPS)
        .map(|out| out.rendered)
        .map_err(|e| e.to_string())
}

/// Replaces the LCG start value in `main` of the programs that have one.
fn reseed(name: &str, src: &str, start: u64) -> Result<String, String> {
    let edits = match name {
        "qsort" => vec![("i * 7 + 1)", format!("i * 7 + {start})"))],
        "unionfind" => vec![(", 12345);", format!(", {start});"))],
        "rbmap_checkpoint" => vec![
            (", 1);\n  size(t)", format!(", {start});\n  size(t)")),
            (", 1, 0) % 1000000", format!(", {start}, 0) % 1000000")),
        ],
        _ => Vec::new(),
    };
    edits
        .into_iter()
        .try_fold(src.to_string(), |text, (from, to)| {
            match text.matches(from).count() {
                1 => Ok(text.replacen(from, &to, 1)),
                n => Err(format!(
                    "{name}: expected one `{from}` to reseed, found {n}"
                )),
            }
        })
}

/// An LCG start value in `1..2^31`, small enough that the programs' LCG
/// arithmetic stays in the VM's small-integer range.
fn lcg_start(seed: u64) -> u64 {
    1 + mix(seed ^ 0x5eed) % 0x7fff_f000
}

/// SplitMix64 finalizer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 stream that orders the programs of every round.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn shuffle(&mut self, items: &mut [usize]) {
        for i in (1..items.len()).rev() {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let j = (mix(self.0) % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One recorded layer call (or an enclosing `round` / `program` span).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or grouping name.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Traced round number.
    pub round: u32,
    /// Index of the program in the workload (`None` for a `round` span).
    pub program: Option<u32>,
}

/// In-memory span recorder.
#[derive(Debug)]
struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    program: Option<u32>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            program: None,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
            program: self.program,
        });
        self.open.push(id);
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.now();
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }
}

/// Self time per span name and program over `spans`: each span's duration
/// minus the part its child spans cover. `base` is the index of `spans[0]`
/// in the whole trace; every parent must lie inside the slice.
fn self_times(spans: &[Span], base: usize) -> BTreeMap<(&'static str, Option<u32>), u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize - base] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry((s.name, s.program)).or_default() += (s.end_ns - s.start_ns).saturating_sub(c);
    }
    out
}

/// What one program produced.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Produced {
    rendered: String,
    live: u64,
    cells: u64,
}

/// One program's outcome within a round.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    case: usize,
    result: Result<Produced, FailKind>,
}

/// Per-round counters of the traced path; identical every round for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LayerCounts {
    syntax_bytes: u64,
    core_sweeps: u64,
    core_ops_out: u64,
    vm_cells_saved: u64,
    vm_instructions: u64,
    vm_calls: u64,
    vm_fused: u64,
    vm_cache_hits: u64,
    vm_cache_misses: u64,
    vm_max_depth: u64,
    rt_allocs: u64,
    rt_frees: u64,
    rt_incs: u64,
    rt_decs: u64,
    rt_peak_bytes: u64,
}

impl LayerCounts {
    fn absorb(&mut self, out: &RunOutcome) {
        let vm = &out.vm_stats;
        self.vm_instructions += vm.instructions;
        self.vm_calls += vm.calls;
        self.vm_fused += vm.fused_executed();
        self.vm_cache_hits += vm.cache_hits;
        self.vm_cache_misses += vm.cache_misses;
        self.vm_max_depth = self.vm_max_depth.max(vm.max_depth);
        let heap = &out.stats.heap;
        self.rt_allocs += heap.allocs;
        self.rt_frees += heap.frees;
        self.rt_incs += heap.incs;
        self.rt_decs += heap.decs;
        self.rt_peak_bytes = self.rt_peak_bytes.max(heap.peak_bytes);
    }
}

/// One program's times on the untraced path.
#[derive(Debug, Clone, Copy)]
struct Times {
    compile: Duration,
    exec: Duration,
    /// Compile, run and check.
    total: Duration,
}

impl Times {
    const NEVER: Times = Times {
        compile: Duration::MAX,
        exec: Duration::MAX,
        total: Duration::MAX,
    };

    fn keep_fastest(&mut self, t: Times) {
        self.compile = self.compile.min(t.compile);
        self.exec = self.exec.min(t.exec);
        self.total = self.total.min(t.total);
    }
}

/// One round's timings and outcomes.
#[derive(Debug, Clone, Default)]
struct Round {
    wall: Duration,
    cells: u64,
    observed: Vec<Observed>,
    counts: LayerCounts,
}

impl Round {
    fn record(&mut self, case: usize, result: Result<Produced, FailKind>) {
        if let Ok(p) = &result {
            self.cells += p.cells;
        }
        self.observed.push(Observed { case, result });
    }
}

fn cells(decoded: &DecodedProgram) -> u64 {
    decoded.fns.iter().map(|f| f.code.len() as u64).sum()
}

fn produced(out: &RunOutcome, decoded: &DecodedProgram) -> Produced {
    Produced {
        rendered: out.rendered.clone(),
        live: out.stats.heap.live,
        cells: cells(decoded),
    }
}

/// The verdict on one program, checked against its reference.
fn verdict(case: &Case, result: Result<Produced, FailKind>) -> Result<Produced, FailKind> {
    let p = result?;
    if p.rendered != case.expected {
        Err(FailKind::Output)
    } else if p.live != 0 {
        Err(FailKind::Leak)
    } else {
        Ok(p)
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, made of `[A-Za-z0-9_.-]`.
    pub name: String,
    /// Unit, such as `ms` or `count`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output matched its reference.
    pub correct: bool,
    /// Programs attempted in the measured rounds.
    pub attempted: u64,
    /// Programs among them that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Spans of the traced rounds (empty for an untraced run).
    pub spans: Vec<Span>,
    /// Program names, indexed by [`Span::program`].
    pub programs: Vec<String>,
}

impl Report {
    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result object.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Writes the spans as JSON lines, one span per line.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_spans(&self, mut w: impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let program = s.program.map_or("null".to_string(), |p| {
                format!("\"{}\"", self.programs[p as usize])
            });
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"round\": {}, \"program\": {program}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (nearest rank) of `values`; 0 for none.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Process high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A workload, set up and ready to measure.
#[derive(Debug)]
pub struct Bench {
    /// The workload's programs and reference outputs.
    pub cases: Vec<Case>,
    workload: Workload,
    seed: u64,
    scale: Scale,
    /// The sources `cases` were built from, kept to set up again.
    sources: Vec<Source>,
    /// Fastest time of each set-up piece so far: generating the sources,
    /// then, per program, its reference and warm-up.
    setup_pieces: Vec<Duration>,
    plan: SetupPlan,
    rng: Rng,
    failures: [u64; 4],
    attempted: u64,
    /// Each program's fastest untraced times since measuring began.
    best: Vec<Times>,
}

/// Set-up pieces to repeat while measuring, spread evenly over the time.
#[derive(Debug)]
struct SetupPlan {
    start: Instant,
    seconds: f64,
    /// Pieces to repeat in all.
    total: usize,
    done: usize,
}

impl SetupPlan {
    /// Pieces that should be done by now.
    fn due(&self) -> usize {
        let share = (self.start.elapsed().as_secs_f64() / self.seconds).min(1.0);
        (share * self.total as f64) as usize
    }
}

impl Bench {
    /// Sets the workload up: generates the sources, then for each program
    /// computes its reference output and warms it up once on each path.
    ///
    /// # Errors
    ///
    /// Returns a message when the sources cannot be built, or when the
    /// traced and untraced paths disagree on any program's output or code
    /// size.
    pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Result<Bench, String> {
        let t0 = Instant::now();
        let sources = sources(workload, seed, scale)?;
        let mut bench = Bench {
            setup_pieces: vec![t0.elapsed()],
            best: vec![Times::NEVER; sources.len()],
            cases: Vec::with_capacity(sources.len()),
            sources,
            workload,
            seed,
            scale,
            plan: SetupPlan {
                start: Instant::now(),
                seconds: 0.0,
                total: 0,
                done: 0,
            },
            rng: Rng(mix(seed ^ 0x0da7a)),
            failures: [0; 4],
            attempted: 0,
        };
        for i in 0..bench.sources.len() {
            let (case, time) = bench.set_up_program(i)?;
            bench.cases.push(case);
            bench.setup_pieces.push(time);
        }
        Ok(bench)
    }

    /// Set-up time in seconds: the sum of each set-up piece's fastest time
    /// over every set-up of this run, for the reason given at
    /// [`Bench::end_to_end`].
    pub fn setup_s(&self) -> f64 {
        self.setup_pieces.iter().sum::<Duration>().as_secs_f64()
    }

    /// Builds program `i` from its source with its reference output, and
    /// warms it up once on each path; both paths must agree. Returns the
    /// program and the time all that took.
    fn set_up_program(&self, i: usize) -> Result<(Case, Duration), String> {
        let t0 = Instant::now();
        let case = self.sources[i].clone().into_case()?;
        let (plain, _) = untraced_case(&case);
        let traced = traced_case(&case, &mut Trace::new(), &mut LayerCounts::default());
        let traced = verdict(&case, traced);
        if plain != traced {
            return Err(format!(
                "{}: traced path disagrees with the driver path: {traced:?} vs {plain:?}",
                case.name
            ));
        }
        Ok((case, t0.elapsed()))
    }

    /// Repeats set-up pieces, cycling through them, until `due` are done,
    /// and keeps each piece's time when it is faster.
    fn run_setup_pieces(&mut self, due: usize) -> Result<(), String> {
        while self.plan.done < due {
            let piece = self.plan.done % self.setup_pieces.len();
            let t0 = Instant::now();
            let time = match piece.checked_sub(1) {
                None => sources(self.workload, self.seed, self.scale).map(|_| t0.elapsed())?,
                Some(i) => self.set_up_program(i)?.1,
            };
            self.setup_pieces[piece] = self.setup_pieces[piece].min(time);
            self.plan.done += 1;
        }
        Ok(())
    }

    fn order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cases.len()).collect();
        self.rng.shuffle(&mut order);
        order
    }

    /// One round on the driver path `lssa run` takes.
    fn untraced_round(&mut self) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        for i in self.order() {
            let (result, times) = untraced_case(&self.cases[i]);
            round.record(i, result);
            self.best[i].keep_fastest(times);
        }
        round.wall = start.elapsed();
        round
    }

    /// One round calling every layer in turn, with a span per call.
    fn traced_round(&mut self, tr: &mut Trace) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        tr.program = None;
        tr.enter("round");
        for i in self.order() {
            let case = &self.cases[i];
            tr.program = Some(i as u32);
            tr.enter("program");
            let result = traced_case(case, tr, &mut round.counts);
            tr.exit();
            round.record(i, verdict(case, result));
        }
        tr.program = None;
        tr.exit();
        round.wall = start.elapsed();
        round
    }

    fn tally(&mut self, round: &Round) {
        for o in &round.observed {
            self.attempted += 1;
            if let Err(kind) = o.result {
                self.failures[kind as usize] += 1;
            }
        }
    }

    /// Runs rounds for `seconds` of wall time, and always at least one,
    /// repeating the set-up pieces that are due between rounds.
    fn rounds(
        &mut self,
        seconds: f64,
        mut next: impl FnMut(&mut Bench) -> Round,
    ) -> Result<Vec<Round>, String> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            self.run_setup_pieces(self.plan.due())?;
            let mut round = next(self);
            self.tally(&round);
            // Checked and counted: keep only the numbers, so memory stays
            // flat however long the run.
            round.observed = Vec::new();
            rounds.push(round);
        }
        Ok(rounds)
    }

    fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    /// Measures the workload for `seconds`: untraced rounds for the
    /// end-to-end metrics, or, with `trace`, half the time untraced and half
    /// traced for the per-layer metrics. At least one round of each kind
    /// runs, so `seconds == 0` measures exactly one.
    ///
    /// `setups` more set-ups run between the rounds, one piece at a time and
    /// spread evenly over the `seconds`, so that `setup_s` too meets the
    /// machine at many moments.
    ///
    /// # Errors
    ///
    /// Returns a message when a repeated set-up fails.
    pub fn measure(&mut self, seconds: f64, trace: bool, setups: usize) -> Result<Report, String> {
        self.best = vec![Times::NEVER; self.cases.len()];
        self.plan = SetupPlan {
            start: Instant::now(),
            seconds,
            total: setups * self.setup_pieces.len(),
            done: 0,
        };
        if !trace {
            let plain = self.rounds(seconds, Bench::untraced_round)?;
            self.finish_setups()?;
            let metrics = self.end_to_end(&plain);
            return Ok(self.report(metrics, Vec::new()));
        }
        let plain = self.rounds(seconds / 2.0, Bench::untraced_round)?;
        let mut tr = Trace::new();
        let mut bounds = Vec::new();
        let traced = self.rounds(seconds / 2.0, |b| {
            let first = tr.spans.len();
            let round = b.traced_round(&mut tr);
            tr.round += 1;
            bounds.push((first, tr.spans.len()));
            round
        })?;
        self.finish_setups()?;
        let metrics = self.per_layer(&plain, &traced, &tr.spans, &bounds);
        Ok(self.report(metrics, tr.spans))
    }

    /// Runs the set-up pieces a long last round left undone, so that every
    /// run makes the same number.
    fn finish_setups(&mut self) -> Result<(), String> {
        self.run_setup_pieces(self.plan.total)
    }

    fn report(&self, metrics: Vec<Metric>, spans: Vec<Span>) -> Report {
        Report {
            correct: self.failed() == 0,
            attempted: self.attempted,
            failed: self.failed(),
            metrics,
            spans,
            programs: self.cases.iter().map(|c| c.name.clone()).collect(),
        }
    }

    /// End-to-end metrics. A time is the sum over programs of each
    /// program's fastest time across the rounds: on a shared machine,
    /// interference only ever slows a program down, so a minimum tracks the
    /// code while a median tracks the neighbours, and per-program minima
    /// need only each program, not a whole round, to run undisturbed once.
    fn end_to_end(&self, rounds: &[Round]) -> Vec<Metric> {
        let best_ms = |f: fn(&Times) -> Duration| self.best.iter().map(|t| ms(f(t))).sum();
        vec![
            metric("setup_s", "s", self.setup_s()),
            metric("round_ms_min", "ms", best_ms(|t| t.total)),
            metric("compile_ms_min", "ms", best_ms(|t| t.compile)),
            metric("run_ms_min", "ms", best_ms(|t| t.exec)),
            metric("code_cells", "cells", rounds[0].cells as f64),
            metric("peak_rss_mb", "MiB", peak_rss_mb()),
            metric(
                "pass_share",
                "ratio",
                1.0 - ratio(self.failed(), self.attempted),
            ),
        ]
    }

    /// Per-layer metrics. Layer times are, like the end-to-end ones, sums
    /// over programs of each program's fastest self time in that layer.
    fn per_layer(
        &self,
        plain: &[Round],
        traced: &[Round],
        spans: &[Span],
        bounds: &[(usize, usize)],
    ) -> Vec<Metric> {
        let per_round: Vec<_> = bounds
            .iter()
            .map(|&(a, b)| self_times(&spans[a..b], a))
            .collect();
        let self_ms = |r: usize, name: &'static str, p: usize| {
            per_round[r]
                .get(&(name, Some(p as u32)))
                .map_or(0.0, |&ns| ns as f64 / 1e6)
        };
        let (rounds, programs) = (per_round.len(), self.cases.len());
        let mut out: Vec<Metric> = LAYERS
            .iter()
            .map(|&l| {
                let best = sum_of_fastest(rounds, programs, |r, p| self_ms(r, l, p));
                metric(&format!("{l}_ms"), "ms", best)
            })
            .collect();
        for name in BENCH_PROGRAMS {
            let program = self.cases.iter().position(|c| c.name == name);
            let exec_ms = program.map_or(0.0, |p| {
                fastest((0..rounds).map(|r| self_ms(r, "vm.exec", p)))
            });
            out.push(metric(&format!("vm.exec_ms.{name}"), "ms", exec_ms));
        }
        // A program span covers every layer call of that program.
        let program_ms: Vec<Vec<f64>> = bounds
            .iter()
            .map(|&(a, b)| {
                let mut v = vec![0.0; programs];
                for s in spans[a..b].iter().filter(|s| s.name == "program") {
                    if let Some(p) = s.program {
                        v[p as usize] = (s.end_ns - s.start_ns) as f64 / 1e6;
                    }
                }
                v
            })
            .collect();
        let traced_best = sum_of_fastest(rounds, programs, |r, p| program_ms[r][p]);
        let plain_best: f64 = self.best.iter().map(|t| ms(t.total)).sum();
        let c = traced[0].counts;
        let plain_ms: Vec<f64> = plain.iter().map(|r| ms(r.wall)).collect();
        out.extend([
            metric("syntax.bytes", "bytes", c.syntax_bytes as f64),
            metric("core.sweeps", "count", c.core_sweeps as f64),
            metric("core.ops_out", "ops", c.core_ops_out as f64),
            metric("vm.cells_saved", "cells", c.vm_cells_saved as f64),
            metric("vm.instructions", "count", c.vm_instructions as f64),
            metric("vm.calls", "count", c.vm_calls as f64),
            metric(
                "vm.fused_share",
                "ratio",
                ratio(c.vm_fused, c.vm_instructions),
            ),
            metric(
                "vm.cache_hit_share",
                "ratio",
                ratio(c.vm_cache_hits, c.vm_cache_hits + c.vm_cache_misses),
            ),
            metric("vm.max_depth", "frames", c.vm_max_depth as f64),
            metric("rt.allocs", "count", c.rt_allocs as f64),
            metric("rt.frees", "count", c.rt_frees as f64),
            metric("rt.incs", "count", c.rt_incs as f64),
            metric("rt.decs", "count", c.rt_decs as f64),
            metric("rt.peak_bytes", "bytes", c.rt_peak_bytes as f64),
        ]);
        out.extend(
            FailKind::ALL
                .iter()
                .map(|&k| metric(k.metric(), "count", self.failures[k as usize] as f64)),
        );
        out.extend([
            metric("fail_share", "ratio", ratio(self.failed(), self.attempted)),
            metric("loop.round_ms_p50", "ms", quantile(&plain_ms, 0.5)),
            metric("loop.round_ms_p90", "ms", quantile(&plain_ms, 0.9)),
            metric(
                "loop.programs_per_s",
                "1/s",
                (plain.len() * programs) as f64 * 1e3 / plain_ms.iter().sum::<f64>(),
            ),
            metric("trace.round_ms_min", "ms", traced_best),
            metric("trace.overhead_ms", "ms", traced_best - plain_best),
        ]);
        out
    }
}

/// The smallest of `values`; 0 for none.
fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.reduce(f64::min).unwrap_or(0.0)
}

/// Sum over `programs` of each program's smallest `ms(round, program)`
/// across `rounds`.
fn sum_of_fastest(rounds: usize, programs: usize, ms: impl Fn(usize, usize) -> f64) -> f64 {
    (0..programs)
        .map(|p| fastest((0..rounds).map(|r| ms(r, p))))
        .sum()
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Compiles and runs one program on the driver path `lssa run` takes, and
/// checks its output.
fn untraced_case(case: &Case) -> (Result<Produced, FailKind>, Times) {
    let t0 = Instant::now();
    let compiled = match case.syntax {
        Syntax::Fl => pipelines::compile(&case.text, CompilerConfig::mlir()).ok(),
        Syntax::Lssa => lssa_syntax::parse_program(&case.text).ok().and_then(|ast| {
            pipelines::compile_ast_with_report(&ast, CompilerConfig::mlir())
                .ok()
                .map(|(p, _)| p)
        }),
    };
    let decoded = compiled.map(|c| c.decoded(DecodeOptions::default()));
    let t1 = Instant::now();
    let (result, exec) = match decoded {
        None => (Err(FailKind::Compile), Duration::ZERO),
        Some(decoded) => {
            let out =
                lssa_vm::run_decoded_with(&decoded, "main", MAX_STEPS, ExecOptions::default());
            let exec = t1.elapsed();
            let result = out
                .map(|o| produced(&o, &decoded))
                .map_err(|_| FailKind::Exec);
            (result, exec)
        }
    };
    let result = verdict(case, result);
    let times = Times {
        compile: t1 - t0,
        exec,
        total: t0.elapsed(),
    };
    (result, times)
}

/// Compiles and runs one program layer by layer — the same calls, options
/// and order as the driver path — with a span around each call.
fn traced_case(
    case: &Case,
    tr: &mut Trace,
    counts: &mut LayerCounts,
) -> Result<Produced, FailKind> {
    let ast = match case.syntax {
        Syntax::Lssa => {
            counts.syntax_bytes += case.text.len() as u64;
            tr.span("syntax.parse", || lssa_syntax::parse_program(&case.text))
                .map_err(|_| FailKind::Compile)?
        }
        Syntax::Fl => tr
            .span("lambda.parse", || lssa_lambda::parse_program(&case.text))
            .map_err(|_| FailKind::Compile)?,
    };
    tr.span("lambda.check", || lssa_lambda::check_program(&ast))
        .map_err(|_| FailKind::Compile)?;
    let simple = tr.span("lambda.simplify", || {
        lssa_lambda::simplify_program(&ast, SimplifyOptions::all())
    });
    let rc = tr.span("lambda.insert_rc", || lssa_lambda::insert_rc(&simple));
    let (module, report) = tr.span("core.compile", || {
        lssa_core::pipeline::compile_with_report(&rc, PipelineOptions::full())
    });
    counts.core_sweeps += report
        .phases
        .iter()
        .map(|p| p.iterations as u64)
        .sum::<u64>();
    counts.core_ops_out += module.live_op_count() as u64;
    tr.span("ir.verify", || lssa_ir::verifier::verify_module(&module))
        .map_err(|_| FailKind::Compile)?;
    let compiled = tr
        .span("vm.bytecode", || lssa_vm::compile_module(&module))
        .map_err(|_| FailKind::Compile)?;
    let decoded = tr.span("vm.decode", || {
        lssa_vm::decode_program_with(&compiled, DecodeOptions::default())
    });
    counts.vm_cells_saved += u64::from(decoded.fusion.cells_saved);
    let out = tr
        .span("vm.exec", || {
            lssa_vm::run_decoded_with(&decoded, "main", MAX_STEPS, ExecOptions::default())
        })
        .map_err(|_| FailKind::Exec)?;
    counts.absorb(&out);
    Ok(produced(&out, &decoded))
}
