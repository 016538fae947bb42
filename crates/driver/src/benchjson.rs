//! The one measurement engine behind `lssa bench` — text, `--json` and
//! `--check` alike — and the paper's Figures 9 and 10.
//!
//! Every workload is compiled once per distinct compiler configuration,
//! then executed under each **rung** of the ladder in interleaved rounds
//! (round-robin over the ladder, so a slow system phase taxes every rung
//! alike), recording the *minimum* wall time next to the deterministic
//! counters (instructions executed, fused share, heap allocations,
//! inline-cache hits/misses, rc cells). The minimum, not the median: on a
//! shared machine the best observed run is the least-noise estimate of a
//! deterministic program's true cost. The ladder:
//!
//! | rung          | compiler configuration            | fusion + renumbering |
//! |---------------|-----------------------------------|----------------------|
//! | `full`        | [`CompilerConfig::mlir`]          | on                   |
//! | `full_nofuse` | [`CompilerConfig::mlir`]          | off                  |
//! | `full_norc`   | `mlir` with rc-opt off            | on                   |
//! | `leanc`       | [`CompilerConfig::leanc`]         | on                   |
//! | `rgn_only`    | [`CompilerConfig::rgn_only`]      | on                   |
//! | `none`        | [`CompilerConfig::none`]          | on                   |
//!
//! `full` is what `lssa run` executes. `full_nofuse` runs the same
//! compilation through the unfused decode, isolating what
//! superinstruction fusion buys. `full_norc` drops the compile-time
//! reference-count optimization pass, so `full` vs `full_norc` isolates
//! the rc-opt win — watch the `rc_cells` column (executed plain
//! `inc`/`dec` cells plus fused `dec+dec` cells) drop. The last three are
//! the paper's comparisons, which [`render_text`] ends with: Figure 9 is
//! `leanc` over `full` (the lp+rgn backend against LEAN's C backend),
//! Figure 10 is `full` over `rgn_only` (rgn optimizations against the λrc
//! simplifier) and `full` over `none` (against no optimization).
//!
//! The records serialize to `BENCH_<scale>.json`: commit the file, diff
//! it later, and [`check_against`] a committed baseline to catch
//! regressions in CI (every deterministic counter must match exactly;
//! wall time within a tolerance).
//!
//! The JSON is written *and parsed* by hand — the workspace is offline and
//! a perf baseline does not justify a serde dependency. The parser only
//! accepts the shape [`render_json`] emits.

use crate::pipelines::{compile_ast_with_report, Backend, CompilerConfig};
use crate::workloads::Workload;
use lssa_core::PipelineOptions;
use lssa_lambda::ast::Program;
use lssa_syntax::escape_json;
use lssa_vm::{CompiledProgram, DecodeOptions, OpClass};
use std::fmt::Write as _;
use std::time::Instant;

/// One rung of the ladder: a label, the compiler configuration and the
/// decode options it runs under.
#[derive(Debug, Clone, Copy)]
pub struct KnobConfig {
    /// Stable row label (a JSON key, so `[a-z_]+`).
    pub label: &'static str,
    /// The compile pipeline.
    pub config: CompilerConfig,
    /// Decode-time options (fusion and its register renumbering).
    pub decode: DecodeOptions,
}

/// The measured ladder, in ablation order (see the module docs).
pub fn knob_configs() -> [KnobConfig; 6] {
    let rung = |label, config, decode| KnobConfig {
        label,
        config,
        decode,
    };
    let fused = DecodeOptions::fused();
    let norc = CompilerConfig {
        backend: Backend::Mlir(PipelineOptions {
            rc_opt: false,
            ..PipelineOptions::full()
        }),
        ..CompilerConfig::mlir()
    };
    [
        rung("full", CompilerConfig::mlir(), fused),
        rung(
            "full_nofuse",
            CompilerConfig::mlir(),
            DecodeOptions::no_fuse(),
        ),
        rung("full_norc", norc, fused),
        rung("leanc", CompilerConfig::leanc(), fused),
        rung("rgn_only", CompilerConfig::rgn_only(), fused),
        rung("none", CompilerConfig::none(), fused),
    ]
}

/// One rung's measurement for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobResult {
    /// Which [`KnobConfig`] produced this row.
    pub config: &'static str,
    /// Minimum wall time over the interleaved rounds, in milliseconds.
    pub wall_ms: f64,
    /// Cells executed (deterministic, identical across runs).
    pub instructions: u64,
    /// Superinstruction cells in the decoded stream (static).
    pub fused_cells: u64,
    /// Share of executed cells that were superinstructions (0..=1).
    pub fused_share: f64,
    /// Heap objects allocated over the run.
    pub heap_allocs: u64,
    /// Inline-cache hits.
    pub cache_hits: u64,
    /// Inline-cache misses.
    pub cache_misses: u64,
    /// Executed reference-count cells: plain `inc`/`dec` plus the fused
    /// `dec+dec` / `dec x4` superinstructions (the traffic rc-opt
    /// removes).
    pub rc_cells: u64,
}

/// The deterministic counters of a row, by JSON key: `bench --check`
/// requires each to match its baseline exactly.
const COUNTERS: [&str; 6] = [
    "instructions",
    "fused_cells",
    "heap_allocs",
    "cache_hits",
    "cache_misses",
    "rc_cells",
];

impl KnobResult {
    /// This row's [`COUNTERS`], in order.
    fn counters(&self) -> [u64; 6] {
        [
            self.instructions,
            self.fused_cells,
            self.heap_allocs,
            self.cache_hits,
            self.cache_misses,
            self.rc_cells,
        ]
    }
}

/// All rung rows for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload name (or the `.lssa` file's path).
    pub name: String,
    /// What `main` returned — the same on every rung.
    pub result: String,
    /// One row per [`knob_configs`] entry, in ladder order.
    pub rows: Vec<KnobResult>,
}

impl BenchRecord {
    /// The row for a rung label, if measured.
    pub fn row(&self, config: &str) -> Option<&KnobResult> {
        self.rows.iter().find(|r| r.config == config)
    }
}

/// Measures one program under every rung. It compiles once per distinct
/// compiler configuration (`full` and `full_nofuse` share one), then the
/// rungs run in interleaved rounds — the whole ladder, then the whole
/// ladder again — and each row keeps its best time, so system-wide slow
/// phases cannot bias one rung against another.
///
/// # Errors
///
/// Names the workload and rung when a compilation or a run fails, a run
/// leaks heap objects, or two rungs disagree on the result: a benchmark
/// must be green before it is timed.
pub fn measure_program(
    name: &str,
    program: &Program,
    runs: usize,
    max_steps: u64,
) -> Result<BenchRecord, String> {
    assert!(runs >= 1);
    let ladder = knob_configs();
    let mut compiled: Vec<(CompilerConfig, CompiledProgram)> = Vec::new();
    for k in &ladder {
        if !compiled.iter().any(|(c, _)| *c == k.config) {
            let (p, _) = compile_ast_with_report(program, k.config)
                .map_err(|e| format!("{name} [{}]: {e}", k.label))?;
            compiled.push((k.config, p));
        }
    }
    let decoded: Vec<_> = ladder
        .iter()
        .map(|k| {
            let (_, p) = compiled
                .iter()
                .find(|(c, _)| *c == k.config)
                .expect("every configuration compiled above");
            p.decoded(k.decode)
        })
        .collect();
    let mut best: Vec<Option<KnobResult>> = vec![None; ladder.len()];
    let mut result: Option<String> = None;
    for _ in 0..runs {
        for ((slot, k), decoded) in best.iter_mut().zip(&ladder).zip(&decoded) {
            let start = Instant::now();
            let out = lssa_vm::run_decoded(decoded, "main", max_steps)
                .map_err(|e| format!("{name} [{}]: {e}", k.label))?;
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if out.stats.heap.live != 0 {
                return Err(format!(
                    "{name} [{}]: {} heap objects leaked",
                    k.label, out.stats.heap.live
                ));
            }
            match &result {
                None => result = Some(out.rendered),
                Some(r) if *r != out.rendered => {
                    return Err(format!(
                        "{name} [{}]: result {} disagrees with {r}",
                        k.label, out.rendered
                    ))
                }
                Some(_) => {}
            }
            let stats = out.vm_stats;
            if slot.as_ref().is_none_or(|r| wall_ms < r.wall_ms) {
                *slot = Some(KnobResult {
                    config: k.label,
                    wall_ms,
                    instructions: stats.instructions,
                    fused_cells: stats.fused_cells,
                    fused_share: stats.fused_share(),
                    heap_allocs: stats.heap.allocs,
                    cache_hits: stats.cache_hits,
                    cache_misses: stats.cache_misses,
                    rc_cells: stats.executed_of(OpClass::Rc)
                        + stats.executed_of(OpClass::FusedDec2)
                        + stats.executed_of(OpClass::FusedDec4),
                });
            }
        }
    }
    Ok(BenchRecord {
        name: name.to_string(),
        result: result.expect("runs >= 1"),
        rows: best.into_iter().map(|r| r.expect("runs >= 1")).collect(),
    })
}

/// Measures every given workload ([`measure_program`]).
///
/// # Errors
///
/// The first workload that fails to parse or to measure.
pub fn run_suite(
    workloads: &[Workload],
    runs: usize,
    max_steps: u64,
) -> Result<Vec<BenchRecord>, String> {
    workloads
        .iter()
        .map(|w| {
            let program =
                lssa_lambda::parse_program(&w.src).map_err(|e| format!("{}: {e}", w.name))?;
            measure_program(w.name, &program, runs, max_steps)
        })
        .collect()
}

/// Geometric mean (1 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The text report `lssa bench` prints in every mode: one row per rung
/// per workload, then Figures 9 and 10 over those rows.
pub fn render_text(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>10} {:>13} {:>7} {:>10} {:>11}  result",
        "workload", "rung", "wall ms", "instructions", "fused", "rc_cells", "heap_allocs"
    );
    for r in records {
        for m in &r.rows {
            let _ = writeln!(
                out,
                "{:<18} {:<12} {:>10.3} {:>13} {:>6.1}% {:>10} {:>11}  {}",
                r.name,
                m.config,
                m.wall_ms,
                m.instructions,
                m.fused_share * 100.0,
                m.rc_cells,
                m.heap_allocs,
                r.result
            );
        }
    }
    out.push('\n');
    out.push_str(&render_figures(records));
    out
}

/// One figure: for every workload, the wall-time and instruction ratios
/// `base / variant` of each `(base, variant)` rung pair — the speedup of
/// `variant` over `base` — then their geomeans.
fn figure(out: &mut String, records: &[BenchRecord], pairs: &[(&str, &str)]) {
    let _ = write!(out, "{:<18}", "workload");
    for (base, variant) in pairs {
        let _ = write!(
            out,
            " {:>24} {:>24}",
            format!("{base}/{variant} wall ×"),
            format!("{base}/{variant} instrs ×")
        );
    }
    out.push('\n');
    let mut columns = vec![Vec::with_capacity(records.len()); 2 * pairs.len()];
    for r in records {
        let _ = write!(out, "{:<18}", r.name);
        for (i, (base, variant)) in pairs.iter().enumerate() {
            let (b, v) = (
                r.row(base).expect("every rung is measured"),
                r.row(variant).expect("every rung is measured"),
            );
            let wall = b.wall_ms / v.wall_ms;
            let instrs = b.instructions as f64 / v.instructions as f64;
            let _ = write!(out, " {wall:>24.2} {instrs:>24.2}");
            columns[2 * i].push(wall);
            columns[2 * i + 1].push(instrs);
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<18}", "geomean");
    for column in &columns {
        let _ = write!(out, " {:>24.2}", geomean(column));
    }
    out.push('\n');
}

/// The paper's two performance figures over measured records: Figure 9
/// (`leanc` / `full`) and Figure 10 (`full` / `rgn_only`, `none` /
/// `full`), each followed by the values the paper reports. Wall ratios
/// carry the machine's noise; instruction ratios are deterministic.
fn render_figures(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("Figure 9: speedup of the lp+rgn backend over LEAN4's C backend (leanc / full)\n");
    figure(&mut out, records, &[("leanc", "full")]);
    out.push_str(
        "paper reports: 1.05 1.12 1.01 1.04 0.93 0.99 1.39 1.27, geomean 1.09 (performance parity)\n\n",
    );
    out.push_str(
        "Figure 10: speedup of rgn optimizations over the λrc simplifier (full / rgn_only) \
         and of full optimization over none (none / full)\n",
    );
    figure(&mut out, records, &[("full", "rgn_only"), ("none", "full")]);
    out.push_str("paper reports rgn-vs-λrc: 1.05 1.0 0.98 1.05 0.95 0.97 1.0 0.98, geomean 1.0\n");
    out
}

/// The conventional output path for a scale: `BENCH_<scale>.json`.
pub fn default_path(scale_label: &str) -> String {
    format!("BENCH_{scale_label}.json")
}

fn row_json(out: &mut String, m: &KnobResult) {
    let _ = write!(
        out,
        "      \"{}\": {{ \"wall_ms\": {:.3}, \"instructions\": {}, \
         \"fused_cells\": {}, \"fused_share\": {:.4}, \"heap_allocs\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"rc_cells\": {} }}",
        m.config,
        m.wall_ms,
        m.instructions,
        m.fused_cells,
        m.fused_share,
        m.heap_allocs,
        m.cache_hits,
        m.cache_misses,
        m.rc_cells
    );
}

/// Serializes the records. `scale_label` and `runs` document how the
/// numbers were produced; wall times are milliseconds, `fused_share` is a
/// 0..=1 fraction of executed cells.
pub fn render_json(scale_label: &str, runs: usize, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"scale\": \"");
    out.push_str(&escape_json(scale_label));
    let _ = writeln!(out, "\",\n  \"runs\": {runs},");
    out.push_str("  \"configs\": [");
    for (i, cfg) in knob_configs().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", cfg.label);
    }
    out.push_str("],\n  \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n      \"name\": \"");
        out.push_str(&escape_json(&r.name));
        out.push_str("\",\n");
        for (j, m) in r.rows.iter().enumerate() {
            row_json(&mut out, m);
            out.push_str(if j + 1 < r.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("    }");
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One `(workload, config)` row recovered from a committed baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Workload name.
    pub name: String,
    /// Config label (`full`, `full_nofuse`, …).
    pub config: String,
    /// Recorded minimum wall time in milliseconds.
    pub wall_ms: f64,
    /// Recorded deterministic instruction count.
    pub instructions: u64,
    /// Recorded superinstruction cells.
    pub fused_cells: u64,
    /// Recorded heap allocations.
    pub heap_allocs: u64,
    /// Recorded inline-cache hits.
    pub cache_hits: u64,
    /// Recorded inline-cache misses.
    pub cache_misses: u64,
    /// Recorded executed rc cells.
    pub rc_cells: u64,
}

impl BaselineRow {
    /// This row's [`COUNTERS`], in order.
    fn counters(&self) -> [u64; 6] {
        [
            self.instructions,
            self.fused_cells,
            self.heap_allocs,
            self.cache_hits,
            self.cache_misses,
            self.rc_cells,
        ]
    }
}

fn field_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Recovers the `(workload, config, wall, counters)` rows from a baseline
/// file previously written by [`render_json`]. Line-oriented by design: it
/// accepts exactly the shape this module emits, every counter included.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineRow>, String> {
    let mut rows = Vec::new();
    let mut name: Option<String> = None;
    for line in json.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("\"name\": \"") {
            let n = rest
                .strip_suffix("\",")
                .ok_or_else(|| format!("malformed name line: {t}"))?;
            name = Some(n.to_string());
            continue;
        }
        if t.contains("\"wall_ms\":") {
            let config = t
                .strip_prefix('"')
                .and_then(|r| r.split_once('"'))
                .map(|(c, _)| c.to_string())
                .ok_or_else(|| format!("malformed row line: {t}"))?;
            let wall_ms = field_after(t, "wall_ms")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad wall_ms in: {t}"))?;
            let counter = |key: &str| {
                field_after(t, key)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad {key} in: {t}"))
            };
            rows.push(BaselineRow {
                name: name
                    .clone()
                    .ok_or_else(|| format!("row before name: {t}"))?,
                config,
                wall_ms,
                instructions: counter("instructions")?,
                fused_cells: counter("fused_cells")?,
                heap_allocs: counter("heap_allocs")?,
                cache_hits: counter("cache_hits")?,
                cache_misses: counter("cache_misses")?,
                rc_cells: counter("rc_cells")?,
            });
        }
    }
    if rows.is_empty() {
        return Err("no benchmark rows found in baseline".to_string());
    }
    Ok(rows)
}

/// The result of checking fresh measurements against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Rows compared (workload × config pairs present in both sets).
    pub compared: usize,
    /// Human-readable regression descriptions; empty means the check
    /// passed.
    pub failures: Vec<String>,
}

/// The least a wall time must exceed its baseline by, in milliseconds,
/// before [`check_against`] fails it: quick-scale rows run for a few
/// microseconds, where scheduling jitter alone moves a time by more than
/// any relative tolerance.
pub const WALL_FLOOR_MS: f64 = 0.01;

/// Compares fresh measurements against a committed baseline: the
/// instruction, fused-cell, heap-allocation, cache-hit, cache-miss and
/// rc-cell counters must each match **exactly** (they are deterministic);
/// a wall time fails when it exceeds the baseline by more than
/// `tolerance_pct` percent *and* by more than [`WALL_FLOOR_MS`]. A fresh row
/// missing from the baseline is skipped (new workloads are not
/// regressions); a baseline row missing from the fresh set is a failure
/// (a workload or config silently disappeared).
pub fn check_against(
    baseline: &[BaselineRow],
    fresh: &[BenchRecord],
    tolerance_pct: f64,
) -> CheckOutcome {
    let mut failures = Vec::new();
    let mut compared = 0;
    for b in baseline {
        let Some(row) = fresh
            .iter()
            .find(|r| r.name == b.name)
            .and_then(|r| r.row(&b.config))
        else {
            failures.push(format!(
                "{}/{}: row missing from fresh run",
                b.name, b.config
            ));
            continue;
        };
        compared += 1;
        for ((key, old), new) in COUNTERS.iter().zip(b.counters()).zip(row.counters()) {
            if old != new {
                failures.push(format!(
                    "{}/{}: {key} changed {old} -> {new} (deterministic counter; \
                     regenerate the baseline if intentional)",
                    b.name, b.config
                ));
            }
        }
        let limit = b.wall_ms * (1.0 + tolerance_pct / 100.0);
        if row.wall_ms > limit && row.wall_ms - b.wall_ms > WALL_FLOOR_MS {
            failures.push(format!(
                "{}/{}: wall time {:.3}ms exceeds baseline {:.3}ms by more than {}%",
                b.name, b.config, row.wall_ms, b.wall_ms, tolerance_pct
            ));
        }
    }
    CheckOutcome { compared, failures }
}

/// Noise floor for wall-time deltas in [`render_diff`]: changes within
/// ±this percentage are annotated as noise rather than wins/regressions.
pub const DIFF_NOISE_PCT: f64 = 5.0;

/// Formats a signed delta between two counter values: `=` when equal,
/// otherwise `+N`/`-N` with the percentage change.
fn counter_delta(old: u64, new: u64) -> String {
    if old == new {
        return "=".to_string();
    }
    let delta = new as i64 - old as i64;
    let pct = if old == 0 {
        f64::INFINITY
    } else {
        delta as f64 * 100.0 / old as f64
    };
    format!("{delta:+} ({pct:+.1}%)")
}

/// Renders the per-workload, per-config delta table between two baseline
/// files (`lssa bench --diff old.json new.json`). Wall-time deltas
/// within ±[`DIFF_NOISE_PCT`] percent are annotated `~noise` — wall
/// times are the only noisy column; the instruction, rc-cell and
/// heap-allocation counters are deterministic, so any delta there is a
/// real compiler, VM or runtime change.
/// Rows present on only one side are called out instead of silently
/// dropped.
pub fn render_diff(old: &[BaselineRow], new: &[BaselineRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<15} {:>9} {:>9} {:>8}  {:>16}  {:>16}  {:>16}  note",
        "workload", "config", "old ms", "new ms", "wall", "instructions", "rc_cells", "heap_allocs"
    );
    for n in new {
        let Some(o) = old
            .iter()
            .find(|o| o.name == n.name && o.config == n.config)
        else {
            let _ = writeln!(
                out,
                "{:<16} {:<15} {:>9} {:>9.3} {:>8}  {:>16}  {:>16}  {:>16}  added (no old row)",
                n.name, n.config, "-", n.wall_ms, "-", n.instructions, n.rc_cells, n.heap_allocs
            );
            continue;
        };
        let wall_pct = if o.wall_ms > 0.0 {
            (n.wall_ms - o.wall_ms) * 100.0 / o.wall_ms
        } else {
            0.0
        };
        let note = if wall_pct.abs() <= DIFF_NOISE_PCT {
            "~noise"
        } else if wall_pct < 0.0 {
            "faster"
        } else {
            "slower"
        };
        let _ = writeln!(
            out,
            "{:<16} {:<15} {:>9.3} {:>9.3} {:>+7.1}%  {:>16}  {:>16}  {:>16}  {}",
            n.name,
            n.config,
            o.wall_ms,
            n.wall_ms,
            wall_pct,
            counter_delta(o.instructions, n.instructions),
            counter_delta(o.rc_cells, n.rc_cells),
            counter_delta(o.heap_allocs, n.heap_allocs),
            note
        );
    }
    for o in old {
        if !new.iter().any(|n| n.name == o.name && n.config == o.config) {
            let _ = writeln!(
                out,
                "{:<16} {:<15} {:>9.3} {:>9} {:>8}  {:>16}  {:>16}  {:>16}  removed (no new row)",
                o.name, o.config, o.wall_ms, "-", "-", o.instructions, o.rc_cells, o.heap_allocs
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Scale};

    #[test]
    fn measures_and_serializes_a_workload() {
        let w = by_name("filter", Scale::Test).unwrap();
        let r = run_suite(std::slice::from_ref(&w), 2, 500_000_000)
            .unwrap()
            .remove(0);
        assert_eq!(r.result, w.expected_test);
        let labels: Vec<_> = r.rows.iter().map(|m| m.config).collect();
        assert_eq!(
            labels,
            [
                "full",
                "full_nofuse",
                "full_norc",
                "leanc",
                "rgn_only",
                "none"
            ]
        );
        let full = r.row("full").unwrap();
        let nofuse = r.row("full_nofuse").unwrap();
        let norc = r.row("full_norc").unwrap();
        assert_eq!(nofuse.heap_allocs, full.heap_allocs, "same program");
        assert!(full.instructions < nofuse.instructions, "fusion cuts cells");
        assert!(
            full.rc_cells < norc.rc_cells,
            "rc-opt must cut executed rc cells ({} vs {})",
            full.rc_cells,
            norc.rc_cells
        );
        assert!(
            full.instructions <= norc.instructions,
            "rc-opt only removes cells"
        );
        assert!(full.fused_cells > 0);
        assert_eq!(nofuse.fused_cells, 0);
        assert!(
            full.cache_hits > 0,
            "a call-heavy workload must hit the inline caches"
        );
        let none = r.row("none").unwrap();
        assert!(full.instructions < none.instructions, "optimization pays");
        let json = render_json("test", 2, std::slice::from_ref(&r));
        assert!(json.contains("\"name\": \"filter\""));
        for cfg in knob_configs() {
            assert!(
                json.contains(&format!("\"{}\":", cfg.label)),
                "{}",
                cfg.label
            );
        }
        // Brackets balance (cheap well-formedness check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The baseline parser round-trips what the renderer wrote.
        let rows = parse_baseline(&json).unwrap();
        assert_eq!(rows.len(), knob_configs().len());
        assert_eq!(rows[0].name, "filter");
        assert_eq!(rows[0].config, "full");
        assert_eq!(rows[0].counters(), full.counters());
        assert!((rows[0].wall_ms - full.wall_ms).abs() < 0.001);
        // And checking fresh-vs-own-baseline passes. The JSON rounds walls
        // to 3 decimals, so the parsed baseline can sit up to 0.0005ms
        // below the in-memory value — several percent of a sub-0.01ms
        // quick wall; the tolerance must cover that slack.
        let outcome = check_against(&rows, std::slice::from_ref(&r), 25.0);
        assert_eq!(outcome.compared, rows.len());
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    }

    /// A baseline row with every counter zero.
    fn baseline_row(name: &str, config: &str, wall_ms: f64, instructions: u64) -> BaselineRow {
        BaselineRow {
            name: name.into(),
            config: config.into(),
            wall_ms,
            instructions,
            fused_cells: 0,
            heap_allocs: 0,
            cache_hits: 0,
            cache_misses: 0,
            rc_cells: 0,
        }
    }

    #[test]
    fn a_failing_program_is_an_error_naming_the_rung() {
        let program = lssa_lambda::parse_program("def f(n) := f(n)\ndef main() := f(1)").unwrap();
        let err = measure_program("spin", &program, 1, 1_000).unwrap_err();
        assert!(err.starts_with("spin [full]: "), "{err}");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    /// One fresh `full` row of workload `w` with distinct counter values.
    fn fresh_record() -> BenchRecord {
        BenchRecord {
            name: "w".into(),
            result: "0".into(),
            rows: vec![KnobResult {
                config: "full",
                wall_ms: 2.0,
                instructions: 100,
                fused_cells: 7,
                fused_share: 0.25,
                heap_allocs: 30,
                cache_hits: 40,
                cache_misses: 2,
                rc_cells: 50,
            }],
        }
    }

    #[test]
    fn check_flags_instruction_and_wall_regressions() {
        let fresh = BenchRecord {
            name: "w".into(),
            result: "0".into(),
            rows: vec![KnobResult {
                config: "full",
                wall_ms: 2.0,
                instructions: 100,
                fused_cells: 0,
                fused_share: 0.0,
                heap_allocs: 0,
                cache_hits: 0,
                cache_misses: 0,
                rc_cells: 0,
            }],
        };
        let baseline = vec![
            baseline_row("w", "full", 1.0, 99),
            baseline_row("gone", "full", 1.0, 1),
        ];
        let out = check_against(&baseline, std::slice::from_ref(&fresh), 10.0);
        assert_eq!(out.compared, 1);
        assert_eq!(out.failures.len(), 3, "{:?}", out.failures);
        assert!(out.failures.iter().any(|f| f.contains("instructions")));
        assert!(out.failures.iter().any(|f| f.contains("wall time")));
        assert!(out.failures.iter().any(|f| f.contains("missing")));
        // Generous tolerance forgives the wall slip but not the counter.
        let out = check_against(&baseline[..1], std::slice::from_ref(&fresh), 200.0);
        assert_eq!(out.failures.len(), 1);
    }

    #[test]
    fn wall_time_fails_past_both_the_tolerance_and_the_floor() {
        // The failures of a 20% check of `fresh_ms` against `baseline_ms`.
        let check = |baseline_ms: f64, fresh_ms: f64| {
            let mut fresh = fresh_record();
            let json = render_json("test", 1, std::slice::from_ref(&fresh));
            let mut baseline = parse_baseline(&json).unwrap();
            baseline[0].wall_ms = baseline_ms;
            fresh.rows[0].wall_ms = fresh_ms;
            check_against(&baseline, std::slice::from_ref(&fresh), 20.0).failures
        };
        // 2 µs over a 6 µs baseline is a third over it, but under the floor.
        assert_eq!(check(0.006, 0.008), Vec::<String>::new());
        // 0.3 ms over 1 ms is past both.
        let failures = check(1.0, 1.3);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("wall time 1.300ms exceeds baseline 1.000ms"));
    }

    /// Writes a fresh record as a baseline, moves one counter by one, and
    /// asserts that `check_against` names exactly that counter.
    fn assert_counter_gated(key: &str) {
        let fresh = fresh_record();
        let json = render_json("test", 1, std::slice::from_ref(&fresh));
        let untouched = parse_baseline(&json).unwrap();
        let outcome = check_against(&untouched, std::slice::from_ref(&fresh), 500.0);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        let old = field_after(&json, key).unwrap();
        let bumped = old.parse::<u64>().unwrap() + 1;
        let tampered = json.replacen(
            &format!("\"{key}\": {old}"),
            &format!("\"{key}\": {bumped}"),
            1,
        );
        assert_ne!(tampered, json, "{key} not found");
        let baseline = parse_baseline(&tampered).unwrap();
        let outcome = check_against(&baseline, std::slice::from_ref(&fresh), 500.0);
        assert_eq!(outcome.compared, 1);
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        let expect = format!("w/full: {key} changed {bumped} -> {old}");
        assert!(
            outcome.failures[0].starts_with(&expect),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn check_gates_instructions() {
        assert_counter_gated("instructions");
    }

    #[test]
    fn check_gates_fused_cells() {
        assert_counter_gated("fused_cells");
    }

    #[test]
    fn check_gates_heap_allocs() {
        assert_counter_gated("heap_allocs");
    }

    #[test]
    fn check_gates_cache_hits() {
        assert_counter_gated("cache_hits");
    }

    #[test]
    fn check_gates_cache_misses() {
        assert_counter_gated("cache_misses");
    }

    #[test]
    fn check_gates_rc_cells() {
        assert_counter_gated("rc_cells");
    }

    #[test]
    fn parse_requires_every_counter() {
        let json = render_json("test", 1, &[fresh_record()]);
        for key in COUNTERS {
            let dropped = json.replacen(&format!("\"{key}\": "), &format!("\"no_{key}\": "), 1);
            let err = parse_baseline(&dropped).unwrap_err();
            assert!(err.contains(&format!("bad {key}")), "{key}: {err}");
        }
    }

    #[test]
    fn diff_annotates_noise_and_counters() {
        let row =
            |name: &str, config: &str, wall, instructions, rc_cells, heap_allocs| BaselineRow {
                rc_cells,
                heap_allocs,
                ..baseline_row(name, config, wall, instructions)
            };
        let old = vec![
            row("qsort", "full", 10.0, 1000, 300, 40),
            row("qsort", "full_norc", 12.0, 1200, 900, 40),
            row("gone", "full", 1.0, 10, 0, 0),
        ];
        let new = vec![
            row("qsort", "full", 10.2, 1000, 300, 40),
            row("qsort", "full_norc", 9.0, 1100, 700, 30),
            row("fresh", "full", 2.0, 20, 5, 0),
        ];
        let table = render_diff(&old, &new);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("heap_allocs"), "{table}");
        assert!(lines[1].contains("~noise"), "{table}");
        assert_eq!(
            lines[1].matches(" = ").count(),
            3,
            "unchanged counters: {table}"
        );
        assert!(lines[2].contains("faster"), "{table}");
        assert!(lines[2].contains("-100 (-8.3%)"), "{table}");
        assert!(lines[2].contains("-200 (-22.2%)"), "{table}");
        assert!(
            lines[2].contains("-10 (-25.0%)"),
            "heap_allocs delta: {table}"
        );
        assert!(lines[3].contains("added"), "{table}");
        assert!(lines[4].contains("removed"), "{table}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut r = fresh_record();
        r.name = "a\"b\\c\nd".into();
        let json = render_json("test", 1, &[r]);
        assert!(json.contains(r#""name": "a\"b\\c\nd","#), "{json}");
    }

    #[test]
    fn default_path_is_scale_keyed() {
        assert_eq!(default_path("bench"), "BENCH_bench.json");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("\"wall_ms\": nope").is_err());
    }
}
