//! Deterministic fault-injection gauntlet: thousands of governed jobs over
//! mixed workloads with seeded faults, proving the engine's failure
//! isolation end to end.
//!
//! ```text
//! cargo run --release -p lssa-bench --bin gauntlet [-- --seed N] [--count N]
//!     [--jobs N] [--out FILE] [--no-determinism-check]
//! ```
//!
//! Each case derives a (workload, fault) pair from `--seed` and its case
//! index alone: step-budget exhaustion at a planted count, a heap byte-cap
//! trip, an allocation-count trip, a planted engine panic, cooperative
//! cancellation, a frame-depth cap, a zero wall-clock deadline, or no fault
//! at all. Every distinct workload is compiled and decoded **once** and the
//! `Arc<DecodedProgram>` shared across all jobs, so the run also proves the
//! decode cache survives sibling aborts. The harness asserts, per case:
//!
//! - **no process abort** — planted panics become structured
//!   `JobError::Panicked` entries (any panic escaping the job layer is an
//!   `ESCAPED-PANIC` failure);
//! - **zero leaked heap objects** on every abort path (the job layer's
//!   drop-all sweep plus ledger audit, `leaked == 0`);
//! - **the VM survives the abort** — the post-abort reuse probe re-runs the
//!   same program on the same VM (`probe != FAILED`).
//!
//! Per-case report lines exclude wall-clock time, so the full report is
//! byte-identical for any `--jobs` value; unless `--no-determinism-check`
//! is given the harness re-runs everything single-threaded and compares.
//! `--out FILE` writes the per-case report (the CI artifact).
//!
//! Exit codes: `0` all assertions held, `1` at least one violation,
//! `2` bad command-line arguments.

use lssa_driver::jobs::{execute_decoded, JobSpec};
use lssa_driver::par::{available_jobs, BatchRunner};
use lssa_driver::pipelines::{compile, CompilerConfig};
use lssa_driver::workloads::{all, Scale};
use lssa_vm::{DecodeOptions, DecodedProgram, ExecOptions, FaultPlan, JobLimits};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backstop step budget: no case runs longer than this, faulted or not
/// (the pathological workloads diverge by design).
const BACKSTOP_STEPS: u64 = 2_000_000;

/// Pathological programs mixed into the workload pool, chosen to exercise
/// specific abort paths.
const PATHOLOGICAL: &[(&str, &str)] = &[
    // Diverging tail loop: constant space, infinite steps.
    ("spin", "def spin(n) := spin(n + 1)\ndef main() := spin(0)"),
    // Diverging allocator: one fresh cell per iteration.
    (
        "allocbomb",
        "inductive List := Nil | Cons(h, t)\n\
         def grow(n, acc) := if n < 0 then acc else grow(n + 1, Cons(n, acc))\n\
         def main() := grow(0, Nil)",
    ),
    // Deep non-tail recursion: one frame per step of descent.
    (
        "deeprec",
        "def deep(n) := if n == 0 then 0 else 1 + deep(n - 1)\n\
         def main() := deep(50000)",
    ),
];

struct Options {
    seed: u64,
    count: usize,
    jobs: usize,
    out: Option<String>,
    determinism_check: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 0,
        count: 1024,
        jobs: available_jobs(),
        out: None,
        determinism_check: true,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--seed" | "--count" | "--jobs" | "--out" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("`{flag}` needs a value"))?;
                match flag {
                    "--seed" => {
                        opts.seed = value
                            .parse()
                            .map_err(|_| format!("`--seed` needs an integer, got `{value}`"))?;
                    }
                    "--count" => {
                        opts.count = value
                            .parse()
                            .map_err(|_| format!("`--count` needs an integer, got `{value}`"))?;
                    }
                    "--jobs" => {
                        let jobs: usize = value
                            .parse()
                            .map_err(|_| format!("`--jobs` needs an integer, got `{value}`"))?;
                        if jobs == 0 {
                            return Err("`--jobs` must be at least 1".to_string());
                        }
                        opts.jobs = jobs;
                    }
                    _ => opts.out = Some(value.to_string()),
                }
                i += 2;
            }
            "--no-determinism-check" => {
                opts.determinism_check = false;
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// SplitMix64-style finalizer: the only randomness source, so a (seed,
/// index) pair fully determines a case on any machine.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// One planned case: which decoded program to run under which spec.
struct Case {
    idx: usize,
    program: usize,
    workload: String,
    fault: &'static str,
    spec: JobSpec,
}

/// Derives case `idx` from the seed: workload choice, fault choice, and
/// fault parameters all come out of two independent hash draws.
fn plan_case(idx: usize, seed: u64, n_programs: usize) -> (usize, &'static str, JobSpec) {
    let h = mix(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let p = mix(h ^ 0xdead_beef_cafe_f00d);
    let program = (h % n_programs as u64) as usize;
    let mut limits = JobLimits::default().with_steps(BACKSTOP_STEPS);
    let mut fault_plan = FaultPlan::default();
    let fault = match (h >> 32) % 8 {
        0 => "none",
        1 => {
            limits = limits.with_steps(10_000 + p % 50_000);
            "step-budget"
        }
        2 => {
            fault_plan.exhaust_at = Some(5_000 + p % 20_000);
            "exhaust-at"
        }
        3 => {
            fault_plan.trip_alloc = Some(100 + p % 5_000);
            "trip-alloc"
        }
        4 => {
            limits = limits.with_heap_bytes(4_096 + p % 65_536);
            "heap-bytes"
        }
        5 => {
            fault_plan.panic_at = Some(1_000 + p % 100_000);
            "panic-at"
        }
        6 => {
            fault_plan.cancel_at = Some(1_000 + p % 100_000);
            "cancel-at"
        }
        _ => {
            limits = limits.with_max_depth(4 + p % 64);
            "depth-cap"
        }
    };
    // A zero deadline trips at the first poll checkpoint, which is a
    // deterministic step count — the only wall-clock fault that stays
    // reproducible. Layer it on a slice of the no-fault cases.
    if fault == "none" && p.is_multiple_of(3) {
        limits = limits.with_deadline(Some(Duration::ZERO));
        let spec = JobSpec {
            exec: ExecOptions::default().with_limits(limits),
            ..JobSpec::default()
        };
        return (program, "deadline-zero", spec);
    }
    let spec = JobSpec {
        exec: ExecOptions::default()
            .with_limits(limits)
            .with_fault(fault_plan),
        ..JobSpec::default()
    };
    (program, fault, spec)
}

/// A case's verdict: its deterministic report line, plus any assertion
/// violation.
struct Verdict {
    line: String,
    violation: Option<String>,
}

fn run_case(case: &Case, program: &DecodedProgram) -> Verdict {
    let report = execute_decoded(program, "main", &case.spec);
    let mut violations = Vec::new();
    if report.leaked != 0 {
        violations.push(format!("leaked {} heap objects", report.leaked));
    }
    if report.probe_ok == Some(false) {
        violations.push("post-abort reuse probe failed".to_string());
    }
    let line = format!(
        "case {:06} workload={} fault={} {}",
        case.idx,
        case.workload,
        case.fault,
        report.to_line()
    );
    Verdict {
        line,
        violation: if violations.is_empty() {
            None
        } else {
            Some(violations.join("; "))
        },
    }
}

/// Runs every case across `jobs` workers in quarantine mode. Returns
/// (report lines, violations) in input order.
fn run_all(
    cases: &[Case],
    programs: &[Arc<DecodedProgram>],
    jobs: usize,
) -> (Vec<String>, Vec<String>) {
    let runner = BatchRunner::new().with_jobs(jobs);
    let verdicts = runner.map_quarantined(cases, |case| run_case(case, &programs[case.program]));
    let mut lines = Vec::with_capacity(cases.len());
    let mut violations = Vec::new();
    for (case, v) in cases.iter().zip(verdicts) {
        match v {
            Ok(verdict) => {
                if let Some(why) = verdict.violation {
                    violations.push(format!("case {:06}: {why}", case.idx));
                }
                lines.push(verdict.line);
            }
            Err(p) => {
                // A panic that escaped the job layer entirely: the process
                // survived (quarantine), but the isolation contract did not.
                violations.push(format!("case {:06}: ESCAPED-PANIC {}", case.idx, p.message));
                lines.push(format!(
                    "case {:06} workload={} fault={} ESCAPED-PANIC",
                    case.idx, case.workload, case.fault
                ));
            }
        }
    }
    (lines, violations)
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: gauntlet [--seed N] [--count N] [--jobs N] [--out FILE] [--no-determinism-check]"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();

    // Planted panics are the point of the exercise: keep their default
    // panic-hook output (message + backtrace, one per injected fault) off
    // stderr. Anything else panicking still reports normally.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let planted = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("fault injection:"));
        if !planted {
            prev_hook(info);
        }
    }));

    // Compile + decode every distinct workload once; all jobs share the
    // resulting Arc<DecodedProgram> (and its decode cache).
    let mut sources: Vec<(String, String)> = all(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.src))
        .collect();
    sources.extend(
        PATHOLOGICAL
            .iter()
            .map(|&(name, src)| (name.to_string(), src.to_string())),
    );
    let mut names = Vec::new();
    let mut programs: Vec<Arc<DecodedProgram>> = Vec::new();
    for (name, src) in &sources {
        match compile(src, CompilerConfig::mlir()) {
            Ok(compiled) => {
                names.push(name.clone());
                programs.push(compiled.decoded(DecodeOptions::default()));
            }
            Err(e) => {
                eprintln!("error: workload `{name}` failed to compile: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "[gauntlet] {} workloads compiled, planning {} cases (seed {})",
        programs.len(),
        opts.count,
        opts.seed
    );

    let cases: Vec<Case> = (0..opts.count)
        .map(|idx| {
            let (program, fault, spec) = plan_case(idx, opts.seed, programs.len());
            Case {
                idx,
                program,
                workload: names[program].clone(),
                fault,
                spec,
            }
        })
        .collect();

    let (lines, mut violations) = run_all(&cases, &programs, opts.jobs);

    if opts.determinism_check && opts.jobs != 1 {
        eprintln!("[gauntlet] determinism check: re-running single-threaded");
        let (serial_lines, _) = run_all(&cases, &programs, 1);
        if serial_lines != lines {
            let first = lines
                .iter()
                .zip(&serial_lines)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            violations.push(format!(
                "reports differ between --jobs {} and --jobs 1 at case {first}: `{}` vs `{}`",
                opts.jobs, lines[first], serial_lines[first]
            ));
        }
    }

    // Aggregate per-outcome counts for the summary (and the artifact).
    let mut by_outcome: BTreeMap<String, usize> = BTreeMap::new();
    for line in &lines {
        let key = if line.contains(" ok ") {
            "ok".to_string()
        } else if let Some(pos) = line.find("\"kind\":\"") {
            let rest = &line[pos + 8..];
            rest[..rest.find('"').unwrap_or(rest.len())].to_string()
        } else {
            "escaped-panic".to_string()
        };
        *by_outcome.entry(key).or_default() += 1;
    }

    let mut summary = String::new();
    summary.push_str(&format!(
        "gauntlet seed={} count={} jobs={}\n",
        opts.seed, opts.count, opts.jobs
    ));
    for (kind, n) in &by_outcome {
        summary.push_str(&format!("  {kind}: {n}\n"));
    }
    summary.push_str(&format!("  violations: {}\n", violations.len()));
    eprint!("{summary}");
    eprintln!(
        "[gauntlet] {} cases in {:.2}s",
        opts.count,
        started.elapsed().as_secs_f64()
    );

    if let Some(path) = &opts.out {
        let mut body = summary.clone();
        for v in &violations {
            body.push_str(&format!("VIOLATION {v}\n"));
        }
        body.push_str(&lines.join("\n"));
        body.push('\n');
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[gauntlet] per-case report written to {path}");
    }

    if violations.is_empty() {
        println!(
            "GAUNTLET PASS: {} cases, 0 process aborts, 0 leaks, all probes ok",
            opts.count
        );
        ExitCode::SUCCESS
    } else {
        println!("GAUNTLET FAIL: {} violations", violations.len());
        for v in &violations {
            println!("  {v}");
        }
        ExitCode::FAILURE
    }
}
