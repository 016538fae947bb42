//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up, measures it for `--seconds`, prints a readable
//! summary to stderr and, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the
//! metrics are the per-layer ones, and the spans of the traced rounds go to
//! `out/spans-<workload>-<seed>.jsonl` in this package's directory.

use std::fs::{self, File};
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use lssa_driver::workloads::Scale;
use perfbench::{Bench, Report, Workload};

/// Set-ups per untraced run: one before measuring and the rest spread over
/// the measured seconds. `setup_s` sums each set-up piece's fastest time.
const SETUPS: usize = 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).ok_or(format!("{flag} needs a value")))
            .transpose()
    };
    let workload = value("--workload")?.ok_or("missing --workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        )
    })?;
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        let v = value(flag)?.map_or(default, String::as_str);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{flag}: not a non-negative number: `{v}`"))
    };
    let seed = value("--seed")?.map_or(Ok(1), |s| {
        s.parse::<u64>()
            .map_err(|_| format!("--seed: not an unsigned integer: `{s}`"))
    })?;
    let trace = match value("--trace")?.map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace: expected 0 or 1, got `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: number("--seconds", "10")?,
        trace,
    })
}

fn summarize(args: &Args, bench: &Bench, report: &Report) {
    eprintln!(
        "perfbench {} seed {}: {} programs per round, {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        bench.cases.len(),
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn write_spans(args: &Args, report: &Report) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report
        .write_spans(BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<Report, String> {
    let mut bench = Bench::setup(args.workload, args.seed, Scale::Bench)?;
    // A traced run does not print `setup_s`, so it sets up only once.
    let setups = if args.trace { 0 } else { SETUPS - 1 };
    let report = bench.measure(args.seconds, args.trace, setups)?;
    summarize(args, &bench, &report);
    if args.trace {
        let path = write_spans(args, &report)?;
        eprintln!("  spans: {}", path.display());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            eprintln!(
                "usage: perfbench --workload compile-corpus|run-alloc|run-array --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::from(2)
        }
    }
}
