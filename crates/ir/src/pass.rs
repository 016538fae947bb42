//! Pass management and instrumentation.
//!
//! Mirrors MLIR's pass manager at the granularity we need, extended with the
//! per-pass instrumentation behind `lssa run --pass-stats`. The pieces:
//!
//! - [`Pass`] — a module transformation: [`Pass::run_on`] applies the raw
//!   transform and returns whether IR changed.
//! - [`PassManager`] — a *named*, flat sequence of passes with optional
//!   inter-pass verification and a fixpoint bound
//!   ([`PassManager::fixpoint`]): [`PassManager::run`] repeats the sequence
//!   until a full sweep reports no change or the bound is hit, and records
//!   whether the pipeline converged.
//! - [`PipelineRunReport`] — per-pass statistics for one pipeline run (runs,
//!   changed, live-op counts before/after, wall time), one row per pass
//!   name, renderable as a table ([`PipelineRunReport::render_table`]) —
//!   the payload behind the `lssa` CLI's `--pass-stats`.
//! - A dump hook ([`PassManager::dump_after_each`]) invoked with the pass
//!   name and the module after every pass — the engine behind
//!   `--print-ir-after-all`-style debugging.
//!
//! Function-scoped passes use [`for_each_function`], which temporarily
//! detaches a function's body so the pass can read module-level context
//! (callee signatures, globals) while mutating the body.

use crate::analysis::rc_check;
use crate::body::Body;
use crate::module::Module;
use crate::verifier::verify_module;
use std::time::{Duration, Instant};

/// A module-level transformation.
pub trait Pass {
    /// Pass name (diagnostics, pipeline dumps, statistics rows).
    fn name(&self) -> &'static str;

    /// Runs the raw transform; returns whether anything changed.
    fn run_on(&self, module: &mut Module) -> bool;

    /// Pass-specific named counters for the last [`Pass::run_on`] execution
    /// (e.g. rc-opt's elided-pair count), folded into
    /// [`PassStatistics::extra`]. The default is no counters.
    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Instrumentation record for every execution of one pass within one
/// pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStatistics {
    /// The pass's [`Pass::name`].
    pub pass: &'static str,
    /// How many executions this record aggregates.
    pub runs: usize,
    /// Whether any execution changed the IR.
    pub changed: bool,
    /// Live (attached) op count before the first execution.
    pub ops_before: usize,
    /// Live op count after the last execution.
    pub ops_after: usize,
    /// Total wall time across executions.
    pub duration: Duration,
    /// Pass-specific named counters (see [`Pass::stat_counters`]), summed
    /// across executions.
    pub extra: Vec<(&'static str, u64)>,
}

impl PassStatistics {
    /// Folds a later execution of the same pass into this record: op counts
    /// stay first-before / last-after.
    fn absorb(&mut self, later: PassStatistics) {
        self.runs += later.runs;
        self.changed |= later.changed;
        self.ops_after = later.ops_after;
        self.duration += later.duration;
        for (key, n) in later.extra {
            match self.extra.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += n,
                None => self.extra.push((key, n)),
            }
        }
    }
}

/// Statistics for one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineRunReport {
    /// Pipeline name.
    pub pipeline: &'static str,
    /// Whether the pipeline ran with a fixpoint bound above one sweep
    /// (controls how convergence is rendered).
    pub fixpoint: bool,
    /// Number of full sweeps executed.
    pub iterations: usize,
    /// Whether the run ended with a sweep that reported no change (fixpoint
    /// reached). A single-sweep run that changed the IR is *not* converged.
    pub converged: bool,
    /// Whether any pass changed the IR.
    pub changed: bool,
    /// Per-pass statistics, one row per pass name in first-execution order,
    /// merged across repeated listings and sweeps.
    pub passes: Vec<PassStatistics>,
    /// Total wall time of the run.
    pub duration: Duration,
}

impl PipelineRunReport {
    /// Renders the report as a fixed-width statistics table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let convergence = if !self.fixpoint {
            ""
        } else if self.converged {
            " (converged)"
        } else if self.changed {
            " (iteration budget hit)"
        } else {
            ""
        };
        let noun = match (self.fixpoint, self.iterations) {
            (true, 1) => "iteration",
            (true, _) => "iterations",
            (false, 1) => "sweep",
            (false, _) => "sweeps",
        };
        let _ = writeln!(
            out,
            "pipeline `{}`: {} {}{}, {:.3}ms",
            self.pipeline,
            self.iterations,
            noun,
            convergence,
            self.duration.as_secs_f64() * 1e3,
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>5} {:>8} {:>10} {:>10} {:>10}",
            "pass", "runs", "changed", "ops-in", "ops-out", "time"
        );
        for s in &self.passes {
            let time = format!("{:.3}ms", s.duration.as_secs_f64() * 1e3);
            let extra: String = s.extra.iter().map(|(k, n)| format!("  {k}={n}")).collect();
            let _ = writeln!(
                out,
                "  {:<28} {:>5} {:>8} {:>10} {:>10} {:>10}{extra}",
                s.pass,
                s.runs,
                if s.changed { "yes" } else { "no" },
                s.ops_before,
                s.ops_after,
                time,
            );
        }
        out
    }
}

/// Runs `f` on every function body, with the module visible (minus the body
/// being transformed). Returns whether any function changed.
pub fn for_each_function(
    module: &mut Module,
    mut f: impl FnMut(&Module, &mut Body) -> bool,
) -> bool {
    let mut changed = false;
    for i in 0..module.funcs.len() {
        let Some(mut body) = module.funcs[i].body.take() else {
            continue;
        };
        changed |= f(module, &mut body);
        module.funcs[i].body = Some(body);
    }
    changed
}

/// Hook invoked with `(pass name, module)` after each pass execution.
pub type DumpHook = Box<dyn Fn(&str, &Module)>;

/// A named, flat sequence of passes, with optional inter-pass
/// verification, an iteration bound for fixpoint driving, and an IR dump
/// hook.
pub struct PassManager {
    name: &'static str,
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
    verify_rc: bool,
    max_iters: usize,
    dump_after: Option<DumpHook>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let passes: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager")
            .field("name", &self.name)
            .field("passes", &passes)
            .field("verify_each", &self.verify_each)
            .field("verify_rc", &self.verify_rc)
            .field("max_iters", &self.max_iters)
            .finish()
    }
}

impl PassManager {
    /// Creates an empty named pipeline.
    pub fn named(name: &'static str) -> PassManager {
        PassManager {
            name,
            passes: Vec::new(),
            verify_each: false,
            verify_rc: false,
            max_iters: 1,
            dump_after: None,
        }
    }

    /// The pipeline's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Enables verification after every pass.
    pub fn verify_each(mut self, yes: bool) -> PassManager {
        self.verify_each = yes;
        self
    }

    /// Enables RC-linearity checking after every pass
    /// ([`rc_check::check_module_strict`]): a pass that unbalances an
    /// `lp.inc`/`lp.dec` protocol panics with the offending function and
    /// block path. The check's wall time is recorded as a `verify-rc-us`
    /// counter on the pass's statistics row. Only meaningful on pipelines
    /// whose input already follows the λrc protocol (rc-opt and later).
    pub fn verify_rc(mut self, yes: bool) -> PassManager {
        self.verify_rc = yes;
        self
    }

    /// Sets the fixpoint iteration bound used by [`PassManager::run`]. The
    /// default is 1: a single sweep.
    pub fn fixpoint(mut self, max_iters: usize) -> PassManager {
        assert!(max_iters >= 1, "a pipeline runs at least once");
        self.max_iters = max_iters;
        self
    }

    /// Appends a pass.
    #[allow(clippy::should_implement_trait)] // builder-style `add`, not ops::Add
    pub fn add(mut self, pass: impl Pass + 'static) -> PassManager {
        self.passes.push(Box::new(pass));
        self
    }

    /// Installs a hook called with `(pass name, module)` after every pass —
    /// the engine behind `--print-ir-after-all`.
    pub fn dump_after_each(mut self, hook: impl Fn(&str, &Module) + 'static) -> PassManager {
        self.dump_after = Some(Box::new(hook));
        self
    }

    /// Runs the pipeline: sweeps over the passes until a sweep reports no
    /// change, up to the [`PassManager::fixpoint`] bound (default one
    /// sweep). The report records the sweep count and whether the pipeline
    /// converged.
    ///
    /// # Panics
    ///
    /// Panics if `verify_each` or `verify_rc` is enabled and a pass breaks
    /// the IR — that is a compiler bug, and the panic message names the
    /// offending pass.
    pub fn run(&self, module: &mut Module) -> PipelineRunReport {
        let start = Instant::now();
        let mut passes: Vec<PassStatistics> = Vec::with_capacity(self.passes.len());
        let mut iterations = 0;
        let mut changed = false;
        let mut converged = false;
        // Op count carried across passes and sweeps: pass N's ops-after is
        // pass N+1's ops-before, so each pass costs one counting walk, not
        // two.
        let mut op_count = module.live_op_count();
        while iterations < self.max_iters {
            iterations += 1;
            let mut sweep_changed = false;
            for pass in &self.passes {
                let s = self.run_pass(pass.as_ref(), module, &mut op_count);
                sweep_changed |= s.changed;
                match passes.iter_mut().find(|e| e.pass == s.pass) {
                    Some(existing) => existing.absorb(s),
                    None => passes.push(s),
                }
            }
            changed |= sweep_changed;
            if !sweep_changed {
                converged = true;
                break;
            }
        }
        PipelineRunReport {
            pipeline: self.name,
            fixpoint: self.max_iters > 1,
            iterations,
            converged,
            changed,
            passes,
            duration: start.elapsed(),
        }
    }

    /// One instrumented execution of `pass`, followed by the configured
    /// checks and the dump hook. `op_count` is the module's live-op count
    /// on entry and is updated to the count after the pass.
    fn run_pass(
        &self,
        pass: &dyn Pass,
        module: &mut Module,
        op_count: &mut usize,
    ) -> PassStatistics {
        let name = pass.name();
        let ops_before = *op_count;
        let start = Instant::now();
        let changed = pass.run_on(module);
        let duration = start.elapsed();
        *op_count = module.live_op_count();
        let mut s = PassStatistics {
            pass: name,
            runs: 1,
            changed,
            ops_before,
            ops_after: *op_count,
            duration,
            extra: pass.stat_counters(),
        };
        if self.verify_rc {
            let rc_start = Instant::now();
            let result = rc_check::check_module_strict(module);
            let micros = rc_start.elapsed().as_micros() as u64;
            s.extra.push(("verify-rc-us", micros));
            if let Err(msg) = result {
                panic!("rc verification failed after pass `{name}`: {msg}");
            }
        }
        if let Some(hook) = &self.dump_after {
            hook(name, module);
        }
        if self.verify_each {
            verify_or_panic(module, name);
        }
        s
    }
}

fn verify_or_panic(module: &Module, pass: &str) {
    if let Err(errs) = verify_module(module) {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!(
            "verification failed after pass `{pass}`:\n{}",
            msgs.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::types::{Signature, Type};
    use std::cell::Cell;
    use std::rc::Rc;

    struct CountingPass(Rc<Cell<usize>>);
    impl Pass for CountingPass {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn run_on(&self, _m: &mut Module) -> bool {
            self.0.set(self.0.get() + 1);
            false
        }
    }

    /// Reports "changed" for its first `0` runs... configurable below.
    struct ChangesFor {
        left: Rc<Cell<usize>>,
    }
    impl Pass for ChangesFor {
        fn name(&self) -> &'static str {
            "changes-for"
        }
        fn run_on(&self, _m: &mut Module) -> bool {
            let left = self.left.get();
            if left > 0 {
                self.left.set(left - 1);
                true
            } else {
                false
            }
        }
    }

    fn tiny_module() -> Module {
        let mut m = Module::new();
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        m.add_function("f", Signature::new(vec![], Type::I64), body);
        m
    }

    #[test]
    fn passes_run_in_order() {
        let mut m = tiny_module();
        let count = Rc::new(Cell::new(0));
        let pm = PassManager::named("test")
            .verify_each(true)
            .add(CountingPass(count.clone()));
        let report = pm.run(&mut m);
        assert!(!report.changed);
        assert!(report.converged);
        assert_eq!(count.get(), 1);
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.passes[0].runs, 1);
        assert_eq!(report.passes[0].ops_before, 2);
        assert_eq!(report.passes[0].ops_after, 2);
    }

    #[test]
    fn a_pass_listed_twice_reports_one_row_counting_both_runs() {
        let mut m = tiny_module();
        let count = Rc::new(Cell::new(0));
        let left = Rc::new(Cell::new(0));
        let pm = PassManager::named("twice")
            .add(CountingPass(count.clone()))
            .add(ChangesFor { left })
            .add(CountingPass(count.clone()));
        let report = pm.run(&mut m);
        assert_eq!(count.get(), 2);
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.passes[0].pass, "counting");
        assert_eq!(report.passes[0].runs, 2);
        assert_eq!(report.passes[1].pass, "changes-for");
        assert_eq!(report.passes[1].runs, 1);
    }

    #[test]
    fn fixpoint_stops_when_quiet_and_reports_convergence() {
        let mut m = tiny_module();
        let left = Rc::new(Cell::new(2));
        let pm = PassManager::named("fp")
            .fixpoint(10)
            .add(ChangesFor { left });
        let report = pm.run(&mut m);
        // Two changing sweeps plus the quiet one that proves the fixpoint.
        assert_eq!(report.iterations, 3);
        assert!(report.converged);
        assert!(report.changed);
        assert_eq!(report.passes[0].runs, 3);
    }

    #[test]
    fn fixpoint_budget_hit_is_reported() {
        let mut m = tiny_module();
        let left = Rc::new(Cell::new(100));
        let pm = PassManager::named("fp")
            .fixpoint(2)
            .add(ChangesFor { left });
        let report = pm.run(&mut m);
        assert_eq!(report.iterations, 2);
        assert!(!report.converged);
        assert!(report.changed);
    }

    #[test]
    fn dump_hook_sees_every_pass() {
        let mut m = tiny_module();
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let count = Rc::new(Cell::new(0));
        let pm = PassManager::named("dumped")
            .add(CountingPass(count))
            .dump_after_each(move |path, _m| seen2.borrow_mut().push(path.to_string()));
        pm.run(&mut m);
        assert_eq!(*seen.borrow(), vec!["counting"]);
    }

    #[test]
    fn render_table_mentions_pipeline_and_passes() {
        let mut m = tiny_module();
        let count = Rc::new(Cell::new(0));
        let pm = PassManager::named("tbl").add(CountingPass(count));
        let table = pm.run(&mut m).render_table();
        assert!(table.contains("pipeline `tbl`"), "{table}");
        assert!(table.contains("counting"), "{table}");
        assert!(table.contains("ops-in"), "{table}");
    }

    #[test]
    fn for_each_function_sees_module() {
        let mut m = tiny_module();
        m.declare_extern("rt", Signature::obj(1));
        let mut names = Vec::new();
        for_each_function(&mut m, |module, _body| {
            names.push(module.funcs.len());
            false
        });
        // One function with a body; externs skipped. The module still lists
        // both functions while the body is detached.
        assert_eq!(names, vec![2]);
    }
}
