//! End-to-end pass pipelines: λrc → lp → rgn → CFG.
//!
//! This is the "MLIR backend" of the paper (Figure 3's lower path), with the
//! knobs the evaluation turns. `lssa bench` measures them on its six-rung
//! ladder (`lssa_driver::benchjson`): every knob is on in the `full` and
//! `rgn_only` rungs and off in `none`, Figure 10's no-optimization variant.
//!
//! - `region_opts` — the §IV-B region optimizations (select / switch
//!   folding, run-of-known-region inlining, GRN, and dead-region
//!   elimination, which is the rewrite driver's dead-op erasure rather than
//!   a pass of its own).
//! - `generic_opts` — MLIR's stock CFG-level passes (CFG simplification,
//!   CSE, inlining) that Figure 11 credits to the ecosystem.
//! - `rc_opt` — the §III reference-count optimization (borrow-driven
//!   inc/dec pair elision and dec sinking) as a CFG-level pass; off in the
//!   `full_norc` rung, which isolates its win.
//!
//! Tail calls are always guaranteed (`musttail`, §III-E); the heuristic
//! self-recursion-only alternative belongs to the `leanc` baseline.
//!
//! The phases are expressed as *named pipelines* on the instrumented
//! [`PassManager`] engine — `rgn-opt`, `lower-cfg`, `generic-opt`,
//! `rc-opt`, `tco`, `cleanup` — each driven to a fixpoint where iteration
//! matters. Every slot changes some program (`tests/pipeline_census.rs`
//! keeps that true). So no pipeline has a DCE slot, because every
//! canonicalize sweep already ends with the rewrite driver's dead-op
//! erasure, and no canonicalize slot follows GRN, which re-canonicalizes
//! only the bodies it merged. [`compile_with_report`] returns the collected
//! [`PipelineReport`] so drivers (the `lssa` CLI's `--pass-stats`) can
//! show per-pass statistics, and `print_ir_after_all` streams the module
//! after every pass for debugging.

use crate::lp::from_lambda;
use crate::rgn::{self, GrnPass, RgnToCfgPass, TcoPass};
use lssa_ir::module::Module;
use lssa_ir::pass::{PassManager, PipelineRunReport};
use lssa_ir::passes::{CanonicalizePass, CsePass, InlinePass, RcOptPass, SimplifyCfgPass};
use lssa_lambda::ast::Program;

/// Fixpoint bound for the `rgn-opt` pipeline (GRN can expose new folds and
/// vice versa; historically this was a hard-coded 3-iteration loop).
pub const RGN_OPT_MAX_ITERS: usize = 3;

/// Fixpoint bound for the post-TCO `cleanup` pipeline. Generous: the
/// pipeline idempotence property (see [`reoptimize`]) relies on actually
/// reaching the fixpoint, which normally takes one or two sweeps.
pub const CLEANUP_MAX_ITERS: usize = 8;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Run the rgn-dialect region optimizations (§IV-B).
    pub region_opts: bool,
    /// Run the generic CFG-level optimizations.
    pub generic_opts: bool,
    /// Run the reference-count optimization (§III): borrow-driven
    /// `lp.inc`/`lp.dec` pair elision and dec sinking.
    pub rc_opt: bool,
    /// Verify the module between phases (slow; meant for tests).
    pub verify: bool,
    /// Run the RC-linearity checker after `rc-opt` and every later pass
    /// (slow; on under `--pass-stats` and in verification test runs). A
    /// definite inc/dec imbalance in compiler output panics with the
    /// offending function and block path.
    pub verify_rc: bool,
    /// Dump the module to stderr after every pass (the CLI's
    /// `--print-ir-after-all`).
    pub print_ir_after_all: bool,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions::full()
    }
}

impl PipelineOptions {
    /// The full MLIR-style pipeline.
    pub fn full() -> PipelineOptions {
        PipelineOptions {
            region_opts: true,
            generic_opts: true,
            rc_opt: true,
            verify: false,
            verify_rc: false,
            print_ir_after_all: false,
        }
    }

    /// Lowering only — no optimization at any level (Figure 10's variant c).
    pub fn no_opt() -> PipelineOptions {
        PipelineOptions {
            region_opts: false,
            generic_opts: false,
            rc_opt: false,
            ..PipelineOptions::full()
        }
    }

    /// Region optimizations off, generic CFG passes on.
    pub fn without_region_opts() -> PipelineOptions {
        PipelineOptions {
            region_opts: false,
            ..PipelineOptions::full()
        }
    }
}

/// Statistics for a whole [`compile_with_report`] run: one
/// [`PipelineRunReport`] per executed phase, in execution order.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-phase reports (`rgn-opt`, `lower-cfg`, `generic-opt`, `tco`,
    /// `cleanup` — phases disabled by the options are absent).
    pub phases: Vec<PipelineRunReport>,
}

impl PipelineReport {
    /// Renders every phase's statistics table, concatenated.
    pub fn render_table(&self) -> String {
        self.phases
            .iter()
            .map(|p| p.render_table())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Total wall time across phases.
    pub fn total_duration(&self) -> std::time::Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }
}

fn with_dump(pm: PassManager, opts: PipelineOptions) -> PassManager {
    if !opts.print_ir_after_all {
        return pm;
    }
    pm.dump_after_each(|path, module| {
        eprintln!(
            "// -----// IR dump after {path} //----- //\n{}",
            lssa_ir::printer::print_module(module)
        );
    })
}

/// The `rgn-opt` pipeline: region optimizations (§IV-B) as rewrites over
/// the canonicalization driver, whose dead-op erasure is dead-region
/// elimination, plus GRN, which re-canonicalizes the bodies it merged.
pub fn rgn_opt_pipeline(opts: PipelineOptions) -> PassManager {
    with_dump(
        PassManager::named("rgn-opt")
            .verify_each(opts.verify)
            .fixpoint(RGN_OPT_MAX_ITERS)
            .add(CanonicalizePass::with_extra(rgn::opt::all_patterns))
            .add(GrnPass),
        opts,
    )
}

/// The `generic-opt` pipeline: MLIR's stock CFG-level passes (Figure 11's
/// "MLIR builtin" credit), run as a single sweep like MLIR's default
/// pipeline — the trailing [`cleanup_pipeline`] fixpoints CSE.
/// Canonicalization and DCE have no slot: on the lowered CFG they find
/// nothing left to fold or erase.
pub fn generic_opt_pipeline(opts: PipelineOptions) -> PassManager {
    with_dump(
        PassManager::named("generic-opt")
            .verify_each(opts.verify)
            .add(SimplifyCfgPass)
            .add(CsePass)
            .add(InlinePass::default()),
        opts,
    )
}

/// The `rc-opt` pipeline: the §III reference-count optimization. A single
/// sweep — the pass drives each block to its own fixpoint internally, so
/// one sweep is already idempotent.
pub fn rc_opt_pipeline(opts: PipelineOptions) -> PassManager {
    with_dump(
        PassManager::named("rc-opt")
            .verify_each(opts.verify)
            .verify_rc(opts.verify_rc)
            .add(RcOptPass::default()),
        opts,
    )
}

/// The `cleanup` pipeline: CSE to a fixpoint, for the duplicates the
/// inliner exposes after `generic-opt`'s CSE has run (CSE cannot grow the
/// module). CFG simplification, canonicalization and DCE have no slot:
/// after `generic-opt`, `rc-opt` and `tco` they find nothing to change.
pub fn cleanup_pipeline(opts: PipelineOptions) -> PassManager {
    with_dump(
        PassManager::named("cleanup")
            .verify_each(opts.verify)
            .verify_rc(opts.verify_rc)
            .fixpoint(CLEANUP_MAX_ITERS)
            .add(CsePass),
        opts,
    )
}

/// Re-runs the final `cleanup` fixpoint on an already-compiled module.
///
/// Because [`compile`] ends (when `generic_opts` is on) with exactly this
/// pipeline driven to convergence, running it again on the compiler's own
/// output must report `changed == false` — the pipeline idempotence
/// property the test suite checks on generated programs.
pub fn reoptimize(module: &mut Module, opts: PipelineOptions) -> PipelineRunReport {
    cleanup_pipeline(opts).run(module)
}

/// Compiles a λrc program through lp and rgn down to a flat-CFG module.
///
/// # Panics
///
/// Panics if `opts.verify` is set and a phase produces invalid IR (compiler
/// bug), or on malformed input programs.
pub fn compile(program: &Program, opts: PipelineOptions) -> Module {
    compile_with_report(program, opts).0
}

/// [`compile`], also returning per-pass statistics for every phase.
///
/// # Panics
///
/// Panics under the same conditions as [`compile`].
pub fn compile_with_report(program: &Program, opts: PipelineOptions) -> (Module, PipelineReport) {
    let mut report = PipelineReport::default();
    // λrc → lp (Figure 3).
    let mut module = from_lambda::lower_program(program);
    maybe_verify(&module, opts, "lp lowering");
    // lp → rgn (Figure 8).
    rgn::from_lp::lower_module(&mut module);
    maybe_verify(&module, opts, "rgn lowering");
    // Region optimizations (§IV-B), to a fixpoint: GRN can expose new folds
    // and vice versa.
    if opts.region_opts {
        report.phases.push(rgn_opt_pipeline(opts).run(&mut module));
    }
    // rgn → CFG (§IV-C).
    report
        .phases
        .push(with_dump(PassManager::named("lower-cfg").add(RgnToCfgPass), opts).run(&mut module));
    maybe_verify(&module, opts, "CFG lowering");
    // Generic CFG-level cleanups (Figure 11's "MLIR builtin" passes).
    if opts.generic_opts {
        report
            .phases
            .push(generic_opt_pipeline(opts).run(&mut module));
    }
    // Reference-count optimization (§III): after generic-opt (whose
    // CSE and inlining expose same-block pairs), before tco, with the
    // trailing cleanup still running behind it.
    if opts.rc_opt {
        report.phases.push(rc_opt_pipeline(opts).run(&mut module));
    }
    // Tail calls (§III-E).
    report.phases.push(
        with_dump(
            PassManager::named("tco")
                .verify_rc(opts.verify_rc)
                .add(TcoPass { only_self: false }),
            opts,
        )
        .run(&mut module),
    );
    // Final cleanup to a fixpoint — the anchor of the idempotence property
    // (see [`reoptimize`]).
    if opts.generic_opts {
        report.phases.push(reoptimize(&mut module, opts));
    }
    maybe_verify(&module, opts, "final");
    (module, report)
}

fn maybe_verify(module: &Module, opts: PipelineOptions, phase: &str) {
    if !opts.verify {
        return;
    }
    if let Err(errs) = lssa_ir::verifier::verify_module(module) {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!(
            "verification failed after {phase}:\n{}\n{}",
            msgs.join("\n"),
            lssa_ir::printer::print_module(module)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_ir::opcode::Opcode;
    use lssa_lambda::{insert_rc, parse_program};

    /// The body's ops in walk order.
    fn walk(body: &lssa_ir::body::Body) -> Vec<lssa_ir::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn compile_src(src: &str, opts: PipelineOptions) -> Module {
        let p = parse_program(src).unwrap();
        lssa_lambda::check_program(&p).unwrap();
        let rc = insert_rc(&p);
        compile(
            &rc,
            PipelineOptions {
                verify: true,
                ..opts
            },
        )
    }

    const LIST_SUM: &str = r#"
inductive List := Nil | Cons(h, t)
def build(n) := if n == 0 then Nil else Cons(n, build(n - 1))
def sum(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => h + sum(t)
  end
def main() := sum(build(20))
"#;

    #[test]
    fn full_pipeline_verifies() {
        let m = compile_src(LIST_SUM, PipelineOptions::full());
        assert!(m.func_by_name("main").is_some());
    }

    #[test]
    fn no_opt_pipeline_verifies() {
        compile_src(LIST_SUM, PipelineOptions::no_opt());
    }

    #[test]
    fn without_region_opts_verifies() {
        compile_src(LIST_SUM, PipelineOptions::without_region_opts());
    }

    #[test]
    fn optimized_is_no_larger_than_unoptimized() {
        let opt = compile_src(LIST_SUM, PipelineOptions::full());
        let raw = compile_src(LIST_SUM, PipelineOptions::no_opt());
        assert!(
            opt.live_op_count() <= raw.live_op_count(),
            "optimization must not grow code: {} vs {}",
            opt.live_op_count(),
            raw.live_op_count()
        );
    }

    #[test]
    fn constant_program_folds_completely() {
        // With folding + region opts, a constant case collapses.
        let m = compile_src(
            "def main() := if true then 40 + 2 else 0",
            PipelineOptions::full(),
        );
        let body = m.func_by_name("main").unwrap().body.as_ref().unwrap();
        // No branches survive.
        let has_branch = walk(body).iter().any(|&op| {
            matches!(
                body.ops[op.index()].opcode,
                Opcode::CondBr | Opcode::SwitchBr
            )
        });
        assert!(!has_branch);
    }

    #[test]
    fn closures_compile_through_pipeline() {
        compile_src(
            r#"
def k(x, y) := x
def ap42(f) := f(42)
def main() := ap42(k(10))
"#,
            PipelineOptions::full(),
        );
    }

    #[test]
    fn report_names_every_enabled_phase() {
        let p = parse_program(LIST_SUM).unwrap();
        let rc = insert_rc(&p);
        let (_, report) = compile_with_report(&rc, PipelineOptions::full());
        let names: Vec<&str> = report.phases.iter().map(|p| p.pipeline).collect();
        assert_eq!(
            names,
            vec![
                "rgn-opt",
                "lower-cfg",
                "generic-opt",
                "rc-opt",
                "tco",
                "cleanup"
            ]
        );
        // Every phase recorded per-pass rows with sensible op counts.
        for phase in &report.phases {
            assert!(!phase.passes.is_empty(), "{}", phase.pipeline);
            for s in &phase.passes {
                assert!(s.runs >= 1, "{}/{}", phase.pipeline, s.pass);
            }
        }
        let (_, minimal) = compile_with_report(&rc, PipelineOptions::no_opt());
        let names: Vec<&str> = minimal.phases.iter().map(|p| p.pipeline).collect();
        assert_eq!(names, vec!["lower-cfg", "tco"]);
    }

    #[test]
    fn one_compilation_reports_each_phase_once_with_one_row_per_pass() {
        let rc = insert_rc(&parse_program(LIST_SUM).unwrap());
        let (_, report) = compile_with_report(&rc, PipelineOptions::full());
        let names: Vec<&str> = report.phases.iter().map(|p| p.pipeline).collect();
        assert_eq!(
            names,
            vec![
                "rgn-opt",
                "lower-cfg",
                "generic-opt",
                "rc-opt",
                "tco",
                "cleanup"
            ]
        );
        let runs = |phase: &str, pass: &str| -> usize {
            let phase = report.phases.iter().find(|p| p.pipeline == phase).unwrap();
            let rows: Vec<_> = phase.passes.iter().filter(|s| s.pass == pass).collect();
            assert_eq!(rows.len(), 1, "{pass} has one row in {}", phase.pipeline);
            rows[0].runs
        };
        // Each listed pass runs once per sweep.
        let rgn_sweeps = report.phases[0].iterations;
        assert_eq!(runs("rgn-opt", "canonicalize"), rgn_sweeps);
        assert_eq!(runs("rgn-opt", "global-region-numbering"), rgn_sweeps);
        assert_eq!(runs("generic-opt", "simplify-cfg"), 1);
        assert_eq!(runs("generic-opt", "cse"), 1);
        assert_eq!(runs("generic-opt", "inline"), 1);
        assert_eq!(runs("cleanup", "cse"), report.phases[5].iterations);
        // The rows are exactly the listed passes.
        let rows = |phase: &str| -> Vec<&str> {
            let phase = report.phases.iter().find(|p| p.pipeline == phase).unwrap();
            phase.passes.iter().map(|s| s.pass).collect()
        };
        assert_eq!(rows("rgn-opt"), ["canonicalize", "global-region-numbering"]);
        assert_eq!(rows("generic-opt"), ["simplify-cfg", "cse", "inline"]);
        assert_eq!(rows("cleanup"), ["cse"]);
    }

    #[test]
    fn compile_output_is_a_cleanup_fixpoint() {
        let p = parse_program(LIST_SUM).unwrap();
        let rc = insert_rc(&p);
        let opts = PipelineOptions {
            verify: true,
            ..PipelineOptions::full()
        };
        let (mut module, report) = compile_with_report(&rc, opts);
        let cleanup = report.phases.last().unwrap();
        assert_eq!(cleanup.pipeline, "cleanup");
        assert!(cleanup.converged, "cleanup must reach its fixpoint");
        let again = reoptimize(&mut module, opts);
        assert!(!again.changed, "{}", again.render_table());
    }
}
