//! Resource-governed, fault-tolerant job execution.
//!
//! A *job* is one source program (or pre-decoded program) executed once
//! under a [`JobSpec`]: a compiler configuration plus the resource envelope
//! ([`lssa_vm::JobLimits`]) and an optional injected fault plan
//! ([`lssa_vm::FaultPlan`]). Every failure mode — step/heap/depth budget,
//! deadline, planned cancellation, a panic anywhere in the engine, a
//! compile error — comes back as a structured [`JobError`], never as a
//! process abort:
//!
//! - the VM run itself executes under `catch_unwind`, so an engine panic
//!   (including a [`lssa_vm::FaultPlan::panic_at`] planted one) becomes
//!   [`JobError::Panicked`] for that job only;
//! - after every abort the VM is [`purged`](lssa_vm::Vm::purge) (drop-all
//!   frame/heap sweep) and the report carries a `leaked` ledger-drift count,
//!   so the fault-injection gauntlet can assert zero leaked objects on every
//!   abort path;
//! - aborted VMs are then *probed*: faults disarmed, a fresh step allowance
//!   granted, and the program re-run on the same VM to prove the frame pool,
//!   inline caches and shared [`DecodedProgram`] survived the abort
//!   ([`JobReport::probe_ok`]).
//!
//! Batches (the fault-injection gauntlet) run jobs through
//! [`crate::par::BatchRunner::map_quarantined`], so even a panic *outside*
//! the VM is a per-job failure. Reports are deterministic: everything
//! except [`JobReport::duration`] is a pure function of (source, spec).

use crate::pipelines::{compile, CompilerConfig, PipelineError};
use lssa_syntax::escape_json;
use lssa_vm::{DecodeOptions, DecodedProgram, ExecOptions, Vm, VmError, VmErrorKind};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Step allowance granted to the post-abort reuse probe on top of the
/// aborted run's count.
const PROBE_BUDGET: u64 = 65_536;

/// Structured failure taxonomy for a job: every way a governed run can end
/// short of a rendered result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The step budget ran out ([`lssa_vm::JobLimits::steps`]).
    StepBudget,
    /// The live-heap byte cap tripped ([`lssa_vm::JobLimits::heap_bytes`]).
    HeapBudget,
    /// The frame-depth cap tripped ([`lssa_vm::JobLimits::max_depth`]).
    DepthBudget,
    /// The wall-clock deadline passed ([`lssa_vm::JobLimits::deadline`]).
    Deadline,
    /// A planned cancellation fired ([`lssa_vm::FaultPlan::cancel_at`]).
    Cancelled,
    /// The engine panicked while running the job (caught; the process and
    /// sibling jobs survive).
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The program failed to compile.
    CompileError {
        /// The pipeline error, prefixed by its stage.
        message: String,
    },
    /// The program itself trapped (division by zero, missing entry, …).
    Trap {
        /// The VM's trap message.
        message: String,
    },
}

impl JobError {
    /// Stable machine-readable tag, mirroring [`VmErrorKind::code`].
    pub fn code(&self) -> &'static str {
        match self {
            JobError::StepBudget => "step-budget",
            JobError::HeapBudget => "heap-budget",
            JobError::DepthBudget => "depth-budget",
            JobError::Deadline => "deadline",
            JobError::Cancelled => "cancelled",
            JobError::Panicked { .. } => "panicked",
            JobError::CompileError { .. } => "compile-error",
            JobError::Trap { .. } => "trap",
        }
    }

    /// Whether the job exhausted a resource budget (as opposed to failing on
    /// its own merits) — the CLI maps these to exit code 3.
    pub fn is_resource(&self) -> bool {
        matches!(
            self,
            JobError::StepBudget
                | JobError::HeapBudget
                | JobError::DepthBudget
                | JobError::Deadline
                | JobError::Cancelled
        )
    }

    /// The error as a single-line JSON object, e.g.
    /// `{"kind":"step-budget"}` or `{"kind":"panicked","message":"…"}`.
    pub fn to_json(&self) -> String {
        match self {
            JobError::Panicked { message }
            | JobError::CompileError { message }
            | JobError::Trap { message } => {
                format!(
                    "{{\"kind\":\"{}\",\"message\":\"{}\"}}",
                    self.code(),
                    escape_json(message)
                )
            }
            _ => format!("{{\"kind\":\"{}\"}}", self.code()),
        }
    }

    /// Classifies a VM error by its structured kind.
    pub fn from_vm(e: &VmError) -> JobError {
        match e.kind {
            VmErrorKind::Trap => JobError::Trap {
                message: e.message.clone(),
            },
            VmErrorKind::StepBudget => JobError::StepBudget,
            VmErrorKind::HeapBudget => JobError::HeapBudget,
            VmErrorKind::DepthBudget => JobError::DepthBudget,
            VmErrorKind::Deadline => JobError::Deadline,
            VmErrorKind::Cancelled => JobError::Cancelled,
        }
    }

    /// Classifies a pipeline error: execution failures by their VM kind,
    /// everything upstream as [`JobError::CompileError`].
    pub fn from_pipeline(e: &PipelineError) -> JobError {
        match &e.vm {
            Some(vm) => JobError::from_vm(vm),
            None => JobError::CompileError {
                message: e.to_string(),
            },
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::StepBudget => write!(f, "{}", lssa_rt::STEP_BUDGET_MSG),
            JobError::HeapBudget => write!(f, "heap budget exhausted"),
            JobError::DepthBudget => write!(f, "frame depth budget exhausted"),
            JobError::Deadline => write!(f, "deadline exceeded"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::CompileError { message } => write!(f, "{message}"),
            JobError::Trap { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Everything a governed job run needs besides the program itself.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Compiler configuration for source jobs.
    pub config: CompilerConfig,
    /// Decode options (fusion, with its register renumbering).
    pub decode: DecodeOptions,
    /// Execution options: [`lssa_vm::JobLimits`] and an optional
    /// [`lssa_vm::FaultPlan`].
    pub exec: ExecOptions,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            config: CompilerConfig::mlir(),
            decode: DecodeOptions::default(),
            exec: ExecOptions::default(),
        }
    }
}

/// The outcome of one governed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The rendered result, or the structured failure.
    pub outcome: Result<String, JobError>,
    /// Execution attempts made: 0 when compilation failed, 1 otherwise.
    pub attempts: u32,
    /// VM steps executed.
    pub steps: u64,
    /// Heap-ledger drift detected across the job's cleanup sweeps: a
    /// nonzero value means objects leaked (or were double-freed) on an
    /// abort path. The gauntlet asserts this is zero everywhere.
    pub leaked: u64,
    /// After an abort: whether the purged VM survived a fault-free re-run
    /// of the same program (`None` when the job succeeded — no probe).
    pub probe_ok: Option<bool>,
    /// Wall-clock time for the whole job (compile, run and probe). Excluded
    /// from determinism comparisons.
    pub duration: Duration,
}

impl JobReport {
    /// Deterministic single-line rendering (everything but `duration`),
    /// e.g. for per-seed gauntlet artifacts.
    pub fn to_line(&self) -> String {
        let outcome = match &self.outcome {
            Ok(r) => format!("ok {}", escape_json(r)),
            Err(e) => format!("err {}", e.to_json()),
        };
        let probe = match self.probe_ok {
            None => "-",
            Some(true) => "ok",
            Some(false) => "FAILED",
        };
        format!(
            "{outcome} attempts={} steps={} leaked={} probe={probe}",
            self.attempts, self.steps, self.leaked
        )
    }
}

/// Compiles `src` under the spec's config and executes it as a governed
/// job. Compile errors are reported (never panic the caller); execution
/// goes through [`execute_decoded`].
pub fn run_job(src: &str, spec: &JobSpec) -> JobReport {
    let start = Instant::now();
    let compiled = match compile(src, spec.config) {
        Ok(p) => p,
        Err(e) => {
            return JobReport {
                outcome: Err(JobError::from_pipeline(&e)),
                attempts: 0,
                steps: 0,
                leaked: 0,
                probe_ok: None,
                duration: start.elapsed(),
            }
        }
    };
    let decoded = compiled.decoded(spec.decode);
    let mut report = execute_decoded(&decoded, "main", spec);
    report.duration = start.elapsed();
    report
}

/// Executes `entry` of a pre-decoded program as a governed job on a fresh
/// VM: run under `catch_unwind`, then on any abort purge, leak-check, and
/// probe. Public so harnesses (the fault-injection gauntlet) can share one
/// decoded program — and its [`lssa_vm::DecodeCache`] — across thousands
/// of jobs.
pub fn execute_decoded(program: &DecodedProgram, entry: &str, spec: &JobSpec) -> JobReport {
    let start = Instant::now();
    let mut vm = Vm::with_options(program, u64::MAX, spec.exec);
    let run = catch_unwind(AssertUnwindSafe(|| vm.run(entry)));
    let outcome = match run {
        Ok(Ok(result)) => {
            let rendered = vm.heap.render(result);
            vm.heap.dec(result);
            Ok(rendered)
        }
        Ok(Err(e)) => Err(JobError::from_vm(&e)),
        Err(payload) => Err(JobError::Panicked {
            message: crate::par::panic_message(&payload),
        }),
    };
    let steps = vm.stats().instructions;
    let mut leaked = settle(&mut vm);
    let probe_ok = if outcome.is_err() {
        // Reuse probe: disarm faults, grant a fresh allowance, and re-run on
        // the *same* VM — the frame pool, caches and decoded program must
        // all still work after the abort.
        vm.clear_fault();
        vm.set_step_budget(steps.saturating_add(PROBE_BUDGET));
        let probe = catch_unwind(AssertUnwindSafe(|| vm.run(entry)));
        let ok = match probe {
            Ok(Ok(result)) => {
                vm.heap.dec(result);
                true
            }
            // A structured error (e.g. the probe budget also running out on
            // a diverging program) still proves the VM is usable.
            Ok(Err(_)) => true,
            Err(_) => false,
        };
        leaked += settle(&mut vm);
        Some(ok)
    } else {
        None
    };
    JobReport {
        outcome,
        attempts: 1,
        steps,
        leaked,
        probe_ok,
        duration: start.elapsed(),
    }
}

/// Drop-all sweep + ledger audit: purges the VM and returns the detected
/// heap-bookkeeping drift (0 when every allocation was accounted for).
fn settle(vm: &mut Vm<'_>) -> u64 {
    // The stats ledger and an arena scan must agree on the live count
    // *before* the sweep…
    let drift = vm.heap.stats().live.abs_diff(vm.heap.live_objects());
    vm.purge();
    // …and after it, lifetime allocs and frees must balance exactly.
    let stats = vm.heap.stats();
    drift + stats.allocs.abs_diff(stats.frees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_vm::{FaultPlan, JobLimits};

    // Diverges at runtime; the unreachable `n < 0` exit keeps compilation
    // terminating (the CFG lowering loops on base-case-free recursion).
    const LOOP: &str = "def spin(n) := if n < 0 then 0 else spin(n + 1)\ndef main() := spin(0)";
    const OK: &str = "def main() := 6 * 7";

    fn spec_with(exec: ExecOptions) -> JobSpec {
        JobSpec {
            exec,
            ..JobSpec::default()
        }
    }

    #[test]
    fn success_renders_and_leaks_nothing() {
        let report = run_job(OK, &JobSpec::default());
        assert_eq!(report.outcome, Ok("42".to_string()));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.leaked, 0);
        assert_eq!(report.probe_ok, None);
    }

    #[test]
    fn step_budget_is_structured_and_probe_passes() {
        let exec = ExecOptions::default().with_limits(JobLimits::default().with_steps(10_000));
        let report = run_job(LOOP, &spec_with(exec));
        assert_eq!(report.outcome, Err(JobError::StepBudget));
        assert_eq!(report.steps, 10_000);
        assert_eq!(report.leaked, 0);
        // The probe re-runs the diverging program and exhausts its own
        // budget — a structured error, so the VM still counts as usable.
        assert_eq!(report.probe_ok, Some(true));
    }

    #[test]
    fn planted_panic_is_caught_and_vm_recovers() {
        let exec = ExecOptions::default()
            .with_limits(JobLimits::default().with_steps(1 << 20))
            .with_fault(FaultPlan {
                panic_at: Some(2048),
                ..FaultPlan::default()
            });
        let report = run_job(LOOP, &spec_with(exec));
        match &report.outcome {
            Err(JobError::Panicked { message }) => {
                assert!(message.contains("planted panic"), "got: {message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(report.leaked, 0);
        assert_eq!(report.probe_ok, Some(true));
    }

    #[test]
    fn compile_errors_are_never_retried() {
        let report = run_job("def main( := 1", &JobSpec::default());
        assert!(matches!(report.outcome, Err(JobError::CompileError { .. })));
        assert_eq!(report.attempts, 0);
    }

    #[test]
    fn json_shapes_are_stable() {
        assert_eq!(JobError::StepBudget.to_json(), "{\"kind\":\"step-budget\"}");
        assert_eq!(
            JobError::Panicked {
                message: "a \"b\"\n".into()
            }
            .to_json(),
            "{\"kind\":\"panicked\",\"message\":\"a \\\"b\\\"\\n\"}"
        );
    }
}
