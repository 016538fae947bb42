//! The `lssa` command-line compiler driver.
//!
//! ```text
//! lssa run <file> [--backend leanc|mlir|rgn-only|none] [--pass-stats] [--vm-stats]
//!                 [--no-fuse] [--no-rc-opt] [--print-ir-after-all]
//!                 [--step-budget N] [--heap-budget BYTES] [--deadline-ms MS]
//! lssa check <file>... [--format human|json]
//! lssa lint <file>... [--format human|json]
//! lssa fmt <file>... [--write | --check]
//! lssa dump <file> [--stage lambda|lp|rgn|opt|cfg]
//! lssa diff <file>
//! lssa bench <name>|all|<file.lssa> [--scale quick|test|bench|stress] [--json] [--check]
//!                 [--tolerance PCT] [--runs N] [--out FILE]
//! lssa bench --diff <old.json> <new.json>
//! ```
//!
//! Each verb accepts exactly the flags listed for it: any other `--flag`,
//! or a valued flag without its value, is a usage error (exit 1), and a
//! usage error is followed by the usage text. A failure of the input — a
//! file that cannot be read, a program that does not parse, check, compile
//! or run — is reported alone (exit 1).
//!
//! Files ending in `.lssa` are parsed by the S-expression text frontend
//! (`lssa-syntax`); anything else uses the built-in surface language. The
//! text frontend reports problems as structured diagnostics with stable
//! codes and source spans — `check` prints them (human-readable by default,
//! one JSON object per line with `--format json`) and exits non-zero when
//! any are found; `run`/`dump`/`diff`/`bench` on a `.lssa` file report the
//! *same* codes on the same defects, because the `E01xx` wellformedness
//! codes are shared with the AST-level checker. `check` reads a
//! surface-language file through the same loader as `run`, and reports its
//! parse error (as `E0003`, at the line the parser names) or its
//! wellformedness errors in the same renderings.
//!
//! `lint` accepts the `.lssa` files `check` accepts and reports `E02xx` hygiene
//! findings in the same renderings: source-level lints (dead join points,
//! unused parameters, unreachable case arms, shadowed join labels) and the
//! RC-linearity verdicts of the IR analysis framework (`error[E0201]` for
//! a proven inc/dec imbalance, `warning[E0202]` for an unprovable one).
//! It exits non-zero only when an *error*-severity finding is present —
//! warnings alone leave the exit code at zero, so `lint` can gate CI
//! without legislating style.
//!
//! `fmt` reprints a `.lssa` file in canonical form to stdout; `--write`
//! rewrites the file in place, `--check` exits non-zero when the file is not
//! already canonical (CI drift detection). Formatting is idempotent and
//! round-trips the AST exactly.
//!
//! `--pass-stats` prints the backend's per-pass statistics table (runs,
//! changed flag, live-op counts before/after, wall time, per named
//! pipeline) after the program's result; `--vm-stats` prints the run-side
//! mirror — the VM's per-opcode-class table (executed counts, heap
//! allocations, frame-pool behaviour, max frame depth, wall time),
//! including the fused-superinstruction rows. `--no-fuse` disables the
//! decode-time superinstruction fusion pass (and the register
//! renumbering that reclaims what fusion orphans), `--no-rc-opt` the
//! compile-time reference-count optimization pass — one flag per knob,
//! for ablation measurements. `--print-ir-after-all` dumps the module to
//! stderr after every pass, MLIR-style.
//!
//! `run` executes under resource governance (see `lssa_driver::jobs`):
//! `--step-budget N` caps executed instructions, `--heap-budget BYTES`
//! caps live heap bytes, `--deadline-ms MS` sets a wall-clock deadline.
//! A run that exhausts any budget exits with code **3** (success is 0,
//! all other errors 1), so callers can tell "the program is wrong" from
//! "the program was stopped".
//!
//! `bench` measures the selected workloads — one by name, `all`, or a
//! `.lssa` file — under each of the six rungs of `lssa_driver::benchjson`
//! (`full`, `full_nofuse`, `full_norc`, `leanc`, `rgn_only`, `none`), in
//! `--runs N` interleaved rounds (default 5), and prints one row per rung
//! followed by the paper's Figures 9 and 10 over those rows. `--json`
//! also writes the records to `BENCH_<scale>.json` (or `--out FILE`) —
//! the committed perf-trajectory baseline. `--check` re-measures and
//! compares against that committed file instead of overwriting it: every
//! deterministic counter must match exactly, wall time may regress by at
//! most `--tolerance PCT` (default 20), and any regression exits
//! non-zero. `bench --diff <old.json> <new.json>` measures nothing: it
//! prints the per-workload, per-rung delta table between two baseline
//! files, annotating wall-time changes inside a ±5% noise floor as
//! `~noise` (the counter columns are deterministic, so any delta there
//! is a real change).

use lssa_driver::benchjson;
use lssa_driver::pipelines::{compile_ast_with_report, frontend_ast, Backend, CompilerConfig};
use lssa_driver::workloads::{all, by_name, Scale, Workload};
use lssa_lambda::ast::Program;
use lssa_vm::{DecodeOptions, ExecOptions, JobLimits};
use std::process::ExitCode;
use std::time::Duration;

const MAX_STEPS: u64 = 2_000_000_000;

/// Exit code for a run that exhausted a resource budget (step, heap,
/// depth, deadline) rather than failing on its own merits.
/// 0 = success, 1 = any other error, 3 = resource exhaustion.
const EXIT_RESOURCE: u8 = 3;

/// Why a command failed.
#[derive(Debug)]
enum Failure {
    /// The command line is wrong: a missing or unknown command, file
    /// argument or flag, or a flag's bad value. The usage text follows the
    /// message.
    Usage(String),
    /// The input is wrong: a file that cannot be read, or a program that
    /// does not parse, check, compile or run. The message stands alone.
    Input(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure::Usage(msg.to_string())
    }
}

/// Reads `path`; failing to is an input error.
fn read(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::Input(format!("{path}: {e}")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Failure::Input(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!(
                "  lssa run <file> [--backend leanc|mlir|rgn-only|none] [--pass-stats] [--vm-stats] [--no-fuse] [--no-rc-opt] [--print-ir-after-all] [--step-budget N] [--heap-budget BYTES] [--deadline-ms MS]"
            );
            eprintln!("  lssa check <file>... [--format human|json]");
            eprintln!("  lssa lint <file>... [--format human|json]");
            eprintln!("  lssa fmt <file>... [--write | --check]");
            eprintln!("  lssa dump <file> [--stage lambda|lp|rgn|opt|cfg]");
            eprintln!("  lssa diff <file>");
            eprintln!(
                "  lssa bench <name>|all|<file.lssa> [--scale quick|test|bench|stress] [--json] [--check] [--tolerance PCT] [--runs N] [--out FILE]"
            );
            eprintln!("  lssa bench --diff <old.json> <new.json>");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The flags one verb accepts.
struct VerbFlags {
    /// Flags that take no value.
    switches: &'static [&'static str],
    /// Flags followed by the given number of values.
    valued: &'static [(&'static str, usize)],
}

/// The flags `verb` accepts, or `None` for an unknown verb.
fn verb_flags(verb: &str) -> Option<VerbFlags> {
    let (switches, valued): (&'static [&'static str], &'static [(&'static str, usize)]) = match verb
    {
        "run" => (
            &[
                "--pass-stats",
                "--vm-stats",
                "--no-fuse",
                "--no-rc-opt",
                "--print-ir-after-all",
            ],
            &[
                ("--backend", 1),
                ("--step-budget", 1),
                ("--heap-budget", 1),
                ("--deadline-ms", 1),
            ],
        ),
        "check" | "lint" => (&[], &[("--format", 1)]),
        "fmt" => (&["--write", "--check"], &[]),
        "dump" => (&[], &[("--stage", 1)]),
        "diff" => (&[], &[]),
        "bench" => (
            &["--json", "--check"],
            &[
                ("--scale", 1),
                ("--tolerance", 1),
                ("--runs", 1),
                ("--out", 1),
                ("--diff", 2),
            ],
        ),
        _ => return None,
    };
    Some(VerbFlags { switches, valued })
}

/// The positional arguments after the verb. Every `--flag` is checked
/// against [`verb_flags`] on the way: an unknown verb or flag, or a valued
/// flag short of its values, is a usage error.
fn positionals(args: &[String]) -> Result<Vec<&str>, String> {
    let verb = &args[0];
    let flags = verb_flags(verb).ok_or_else(|| format!("unknown command `{verb}`"))?;
    let mut out = Vec::new();
    let mut rest = args[1..].iter().map(String::as_str);
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            out.push(a);
        } else if let Some(&(_, n)) = flags.valued.iter().find(|(f, _)| *f == a) {
            for _ in 0..n {
                if rest.next().is_none_or(|v| v.starts_with("--")) {
                    return Err(format!("`{a}` is missing its value"));
                }
            }
        } else if !flags.switches.contains(&a) {
            return Err(format!("unknown flag `{a}` for `lssa {verb}`"));
        }
    }
    Ok(out)
}

fn decode_options(args: &[String]) -> DecodeOptions {
    DecodeOptions {
        fuse: !has_flag(args, "--no-fuse"),
    }
}

fn exec_options(args: &[String]) -> Result<ExecOptions, String> {
    let mut limits = JobLimits::default();
    if let Some(v) = flag_value(args, "--step-budget") {
        let steps = v
            .parse::<u64>()
            .map_err(|_| format!("invalid --step-budget `{v}`"))?;
        limits = limits.with_steps(steps);
    }
    if let Some(v) = flag_value(args, "--heap-budget") {
        let bytes = v
            .parse::<u64>()
            .map_err(|_| format!("invalid --heap-budget `{v}`"))?;
        limits = limits.with_heap_bytes(bytes);
    }
    if let Some(v) = flag_value(args, "--deadline-ms") {
        let ms = v
            .parse::<u64>()
            .map_err(|_| format!("invalid --deadline-ms `{v}`"))?;
        limits = limits.with_deadline(Some(Duration::from_millis(ms)));
    }
    Ok(ExecOptions::default().with_limits(limits))
}

fn config_of(name: &str) -> Result<CompilerConfig, String> {
    match name {
        "leanc" => Ok(CompilerConfig::leanc()),
        "mlir" => Ok(CompilerConfig::mlir()),
        "rgn-only" => Ok(CompilerConfig::rgn_only()),
        "none" => Ok(CompilerConfig::none()),
        other => Err(format!("unknown backend `{other}`")),
    }
}

/// Whether `file` should go through the `.lssa` text frontend.
fn is_lssa(file: &str) -> bool {
    file.ends_with(".lssa")
}

/// Parses `src`, read from `file`, into a λpure program: `.lssa` files
/// through the text frontend, anything else through the built-in surface
/// language, whose parse error is a plain `parse error: …` input error. A
/// `.lssa` file is parsed strictly: any diagnostic (syntax *or*
/// wellformedness — same `E01xx` codes as `lssa check`) is rendered
/// human-readably to stderr, and the inner `Err` is the exit code to stop
/// with.
fn load(file: &str, src: &str) -> Result<Result<Program, ExitCode>, Failure> {
    if !is_lssa(file) {
        return lssa_lambda::parse_program(src)
            .map(Ok)
            .map_err(|e| Failure::Input(format!("{file}: parse error: {e}")));
    }
    Ok(lssa_syntax::parse_program(src).map_err(|diags| {
        eprint!(
            "{}",
            lssa_syntax::render_all(&diags, file, src, lssa_syntax::RenderFormat::Human)
        );
        ExitCode::FAILURE
    }))
}

/// `check` on a surface-language file: what `run` would refuse before
/// compiling — its parse error, or its wellformedness errors — as
/// diagnostics. A parse error sits at the line the parser names.
fn check_fl(src: &str) -> Vec<lssa_syntax::Diagnostic> {
    let program = match lssa_lambda::parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            let start = src
                .split_inclusive('\n')
                .take(e.line.saturating_sub(1))
                .map(str::len)
                .sum::<usize>();
            let end = src[start..].find('\n').map_or(src.len(), |n| start + n);
            let span = lssa_syntax::Span {
                start: u32::try_from(start).unwrap_or(u32::MAX),
                end: u32::try_from(end).unwrap_or(u32::MAX),
            };
            return vec![lssa_syntax::Diagnostic::new(
                "E0003",
                format!("parse error: {}", e.message),
                span,
            )];
        }
    };
    match lssa_lambda::check_program(&program) {
        Ok(()) => Vec::new(),
        Err(errs) => errs
            .iter()
            .map(|e| {
                lssa_syntax::Diagnostic::spanless(e.code, format!("@{}: {}", e.func, e.message))
            })
            .collect(),
    }
}

/// Refuses a surface-language file for a verb that works on `.lssa` text.
fn lssa_only(verb: &str, file: &str) -> Result<(), Failure> {
    if is_lssa(file) {
        Ok(())
    } else {
        Err(Failure::Input(format!(
            "{file}: `lssa {verb}` works on `.lssa` files only"
        )))
    }
}

#[allow(clippy::too_many_lines)]
fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let cmd = args.first().ok_or("missing command")?;
    let files = positionals(args)?;
    match cmd.as_str() {
        "run" => {
            let file = files.first().ok_or("missing file")?;
            let src = read(file)?;
            let mut config = config_of(flag_value(args, "--backend").unwrap_or("mlir"))?;
            let want_stats = has_flag(args, "--pass-stats");
            let want_vm_stats = has_flag(args, "--vm-stats");
            let decode = decode_options(args);
            let exec = exec_options(args)?;
            if has_flag(args, "--print-ir-after-all") {
                match config.backend {
                    Backend::Mlir(mut opts) => {
                        opts.print_ir_after_all = true;
                        config.backend = Backend::Mlir(opts);
                    }
                    Backend::Baseline => {
                        return Err(
                            "--print-ir-after-all requires an MLIR-style backend (not leanc)"
                                .into(),
                        )
                    }
                }
            }
            if has_flag(args, "--no-rc-opt") {
                match config.backend {
                    Backend::Mlir(mut opts) => {
                        opts.rc_opt = false;
                        config.backend = Backend::Mlir(opts);
                    }
                    Backend::Baseline => {
                        return Err("--no-rc-opt requires an MLIR-style backend (not leanc)".into())
                    }
                }
            }
            // `--pass-stats` doubles as the verification mode: the
            // RC-linearity checker runs after rc-opt and every later pass,
            // and its cost shows up as a `verify-rc-us` counter.
            if want_stats {
                if let Backend::Mlir(mut opts) = config.backend {
                    opts.verify_rc = true;
                    config.backend = Backend::Mlir(opts);
                }
            }
            let program = match load(file, &src)? {
                Ok(p) => p,
                Err(code) => return Ok(code),
            };
            let (compiled, report) = compile_ast_with_report(&program, config)
                .map_err(|e| Failure::Input(e.to_string()))?;
            let out = match lssa_vm::run_program_opts(&compiled, "main", MAX_STEPS, decode, exec) {
                Ok(out) => out,
                // A budget or deadline abort is a governed outcome, not a
                // usage error: report it plainly and exit with the
                // documented resource code.
                Err(e) if e.kind.is_resource() => {
                    eprintln!("execution error: {e}");
                    return Ok(ExitCode::from(EXIT_RESOURCE));
                }
                Err(e) => return Err(Failure::Input(format!("execution error: {e}"))),
            };
            println!("{}", out.rendered);
            eprintln!(
                "-- {} instructions, {} calls, peak {} live objects",
                out.stats.instructions, out.stats.calls, out.stats.heap.peak_live
            );
            if want_stats {
                match report {
                    Some(report) => {
                        print!("{}", report.render_table());
                        println!(
                            "total: {:.3}ms across {} pipelines",
                            report.total_duration().as_secs_f64() * 1e3,
                            report.phases.len()
                        );
                    }
                    None => eprintln!("-- no pass statistics: the leanc backend has no pipeline"),
                }
            }
            if want_vm_stats {
                print!("{}", out.vm_stats.render_table());
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            if files.is_empty() {
                return Err("missing file".into());
            }
            let format = match flag_value(args, "--format") {
                None | Some("human") => lssa_syntax::RenderFormat::Human,
                Some("json") => lssa_syntax::RenderFormat::Json,
                Some(other) => return Err(format!("unknown format `{other}`").into()),
            };
            let mut failed = false;
            for file in files {
                let src = read(file)?;
                let diags = if is_lssa(file) {
                    lssa_syntax::check_source(&src)
                } else {
                    check_fl(&src)
                };
                if !diags.is_empty() {
                    failed = true;
                    print!("{}", lssa_syntax::render_all(&diags, file, &src, format));
                }
            }
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "lint" => {
            if files.is_empty() {
                return Err("missing file".into());
            }
            let format = match flag_value(args, "--format") {
                None | Some("human") => lssa_syntax::RenderFormat::Human,
                Some("json") => lssa_syntax::RenderFormat::Json,
                Some(other) => return Err(format!("unknown format `{other}`").into()),
            };
            let mut failed = false;
            for file in &files {
                lssa_only("lint", file)?;
            }
            for file in files {
                let src = read(file)?;
                let diags = lssa_driver::lint::lint_source(&src);
                failed |= lssa_driver::lint::has_errors(&diags);
                if !diags.is_empty() {
                    print!("{}", lssa_syntax::render_all(&diags, file, &src, format));
                }
            }
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "fmt" => {
            if files.is_empty() {
                return Err("missing file".into());
            }
            let write = has_flag(args, "--write");
            let check = has_flag(args, "--check");
            if write && check {
                return Err("--write and --check are mutually exclusive".into());
            }
            let mut drifted = false;
            for file in &files {
                lssa_only("fmt", file)?;
            }
            for file in files {
                let src = read(file)?;
                let formatted = match lssa_syntax::format_source(&src) {
                    Ok(f) => f,
                    Err(diags) => {
                        eprint!(
                            "{}",
                            lssa_syntax::render_all(
                                &diags,
                                file,
                                &src,
                                lssa_syntax::RenderFormat::Human
                            )
                        );
                        return Ok(ExitCode::FAILURE);
                    }
                };
                if write {
                    if formatted != src {
                        std::fs::write(file, &formatted)
                            .map_err(|e| Failure::Input(format!("{file}: {e}")))?;
                        eprintln!("-- rewrote {file}");
                    }
                } else if check {
                    if formatted != src {
                        eprintln!("-- {file}: not canonically formatted (run `lssa fmt --write`)");
                        drifted = true;
                    }
                } else {
                    print!("{formatted}");
                }
            }
            Ok(if drifted {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "dump" => {
            let file = files.first().ok_or("missing file")?;
            let src = read(file)?;
            let stage = flag_value(args, "--stage").unwrap_or("cfg");
            let program = match load(file, &src)? {
                Ok(p) => p,
                Err(code) => return Ok(code),
            };
            let rc = frontend_ast(&program, CompilerConfig::mlir())
                .map_err(|e| Failure::Input(e.to_string()))?;
            match stage {
                "lambda" => print!("{rc}"),
                "lp" => {
                    let m = lssa_core::lp::from_lambda::lower_program(&rc);
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                "rgn" => {
                    let mut m = lssa_core::lp::from_lambda::lower_program(&rc);
                    lssa_core::rgn::from_lp::lower_module(&mut m);
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                "opt" => {
                    let mut m = lssa_core::lp::from_lambda::lower_program(&rc);
                    lssa_core::rgn::from_lp::lower_module(&mut m);
                    // The exact pipeline `compile` runs, so the dump shows
                    // the IR the CFG lowering actually receives.
                    lssa_core::pipeline::rgn_opt_pipeline(lssa_core::PipelineOptions::full())
                        .run(&mut m);
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                "cfg" => {
                    let m = lssa_core::pipeline::compile(&rc, lssa_core::PipelineOptions::full());
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                other => return Err(format!("unknown stage `{other}`").into()),
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let file = files.first().ok_or("missing file")?;
            let src = read(file)?;
            let program = match load(file, &src)? {
                Ok(p) => p,
                Err(code) => return Ok(code),
            };
            let r = lssa_driver::diff::run_differential_ast(file, &program, MAX_STEPS);
            match r.failure {
                None => {
                    println!("PASS: all pipelines agree on {:?}", r.rendered.unwrap());
                    Ok(ExitCode::SUCCESS)
                }
                Some(f) => Err(Failure::Input(format!("differential mismatch: {f}"))),
            }
        }
        "bench" => {
            if let Some(i) = args.iter().position(|a| a == "--diff") {
                // `bench --diff old.json new.json`: no measuring, just the
                // delta table between two committed baseline files.
                let old_path = args
                    .get(i + 1)
                    .ok_or("--diff needs <old.json> <new.json>")?;
                let new_path = args
                    .get(i + 2)
                    .ok_or("--diff needs <old.json> <new.json>")?;
                let mut rows = Vec::new();
                for path in [old_path, new_path] {
                    let text = read(path)?;
                    rows.push(
                        benchjson::parse_baseline(&text)
                            .map_err(|e| Failure::Input(format!("{path}: {e}")))?,
                    );
                }
                print!("{}", benchjson::render_diff(&rows[0], &rows[1]));
                return Ok(ExitCode::SUCCESS);
            }
            let name = *files.first().ok_or("missing benchmark name")?;
            let want_json = has_flag(args, "--json");
            let want_check = has_flag(args, "--check");
            if want_json && want_check {
                return Err("--json (regenerate) and --check (compare) are exclusive".into());
            }
            // Interleaved rounds per workload; raise on a noisy machine so
            // every rung's best time catches a quiet window (the row keeps
            // the minimum, see `benchjson`).
            let runs = match flag_value(args, "--runs") {
                None => 5,
                Some(r) => match r.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("bad --runs `{r}`").into()),
                },
            };
            if is_lssa(name) {
                // A `.lssa` file: measured like a named workload, but
                // ineligible for the committed JSON baseline, which is
                // keyed by workload name and scale.
                if want_json || want_check {
                    return Err("--json and --check measure the built-in workloads only".into());
                }
                let src = read(name)?;
                let program = match load(name, &src)? {
                    Ok(p) => p,
                    Err(code) => return Ok(code),
                };
                let record = benchjson::measure_program(name, &program, runs, MAX_STEPS)
                    .map_err(Failure::Input)?;
                print!("{}", benchjson::render_text(&[record]));
                return Ok(ExitCode::SUCCESS);
            }
            let (scale, scale_label) = match flag_value(args, "--scale").unwrap_or("test") {
                // `quick` is the CI alias for the smallest inputs.
                "test" | "quick" => (Scale::Test, "test"),
                "bench" => (Scale::Bench, "bench"),
                "stress" => (Scale::Stress, "stress"),
                other => return Err(format!("unknown scale `{other}`").into()),
            };
            let selected: Vec<Workload> = if name == "all" {
                all(scale)
            } else {
                vec![by_name(name, scale).ok_or_else(|| format!("unknown benchmark `{name}`"))?]
            };
            // The default path is the committed full-suite baseline; never
            // let a single-workload run clobber it silently (and fail
            // before spending minutes measuring).
            let path = match flag_value(args, "--out") {
                Some(out) => out.to_string(),
                None if name == "all" || !want_json => benchjson::default_path(scale_label),
                None => {
                    return Err(format!(
                        "bench {name} --json would overwrite the full-suite \
                         {}; pass --out FILE (or bench all)",
                        benchjson::default_path(scale_label)
                    )
                    .into())
                }
            };
            // Read the baseline up front: fail before spending minutes
            // measuring if it is missing or malformed.
            let baseline = if want_check {
                let text = read(&path)?;
                let mut rows = benchjson::parse_baseline(&text)
                    .map_err(|e| Failure::Input(format!("{path}: {e}")))?;
                // A partial run only checks the selected workloads.
                rows.retain(|b| selected.iter().any(|w| w.name == b.name));
                Some(rows)
            } else {
                None
            };
            let records =
                benchjson::run_suite(&selected, runs, MAX_STEPS).map_err(Failure::Input)?;
            print!("{}", benchjson::render_text(&records));
            if let Some(baseline) = baseline {
                let tolerance = match flag_value(args, "--tolerance") {
                    None => 20.0,
                    Some(t) => t
                        .parse::<f64>()
                        .map_err(|_| format!("bad --tolerance `{t}`"))?,
                };
                let outcome = benchjson::check_against(&baseline, &records, tolerance);
                for f in &outcome.failures {
                    eprintln!("REGRESSION: {f}");
                }
                eprintln!(
                    "-- checked {} rows against {path} (tolerance {tolerance}%): {}",
                    outcome.compared,
                    if outcome.failures.is_empty() {
                        "ok".to_string()
                    } else {
                        format!("{} regression(s)", outcome.failures.len())
                    }
                );
                return Ok(if outcome.failures.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            if want_json {
                let json = benchjson::render_json(scale_label, runs, &records);
                std::fs::write(&path, json).map_err(|e| Failure::Input(format!("{path}: {e}")))?;
                eprintln!("-- wrote {path}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!("`positionals` rejects unknown commands"),
    }
}
