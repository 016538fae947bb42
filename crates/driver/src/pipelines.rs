//! End-to-end compiler configurations: the exact pipelines the paper's
//! evaluation compares.
//!
//! ```text
//! source ──parse──▶ λpure ──[simplifier]──▶ λpure ──insert_rc──▶ λrc
//!     λrc ──baseline──▶ CFG   (leanc model: direct lowering, heuristic TCO)
//!     λrc ──lp──▶ rgn ──[region opts]──▶ CFG   (the paper's backend)
//!                                 └──▶ bytecode ──▶ VM
//! ```

use lssa_core::pipeline::{PipelineOptions, PipelineReport};
use lssa_lambda::ast::Program;
use lssa_lambda::simplify::SimplifyOptions;
use lssa_vm::{CompiledProgram, DecodeOptions, RunOutcome};
use std::borrow::Cow;
use std::fmt;

/// Which backend lowers λrc to the flat CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Direct lowering modelling the C backend (`lssa_driver::baseline`).
    Baseline,
    /// The lp+rgn MLIR-style backend with the given options.
    Mlir(PipelineOptions),
}

/// A full compiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompilerConfig {
    /// λpure simplifier to run before RC insertion (`None` = unoptimized
    /// λrc, the input of Figure 10's variants b/c).
    pub simplify: Option<SimplifyOptions>,
    /// The backend.
    pub backend: Backend,
}

impl CompilerConfig {
    /// The `leanc` model: λrc simplifier + direct C-style backend.
    pub fn leanc() -> CompilerConfig {
        CompilerConfig {
            simplify: Some(SimplifyOptions::all()),
            backend: Backend::Baseline,
        }
    }

    /// The paper's backend fed simplified λrc (Figure 10 variant a).
    pub fn mlir() -> CompilerConfig {
        CompilerConfig {
            simplify: Some(SimplifyOptions::all()),
            backend: Backend::Mlir(PipelineOptions::full()),
        }
    }

    /// Unoptimized λrc, rgn optimizations on (Figure 10 variant b: "we
    /// disable LEAN's simpcase pass which performs rgn style switch
    /// simplification" — here the λ simplifier is skipped entirely, so the
    /// rgn passes see raw λrc).
    pub fn rgn_only() -> CompilerConfig {
        CompilerConfig {
            simplify: None,
            backend: Backend::Mlir(PipelineOptions::full()),
        }
    }

    /// Unsimplified λrc, no optimization anywhere (Figure 10 variant c).
    pub fn none() -> CompilerConfig {
        CompilerConfig {
            simplify: None,
            backend: Backend::Mlir(PipelineOptions::no_opt()),
        }
    }

    /// Short label for reports. The four fixed configurations used all over
    /// the harness resolve to static strings without allocating; only
    /// unusual combinations format a fresh one.
    pub fn label(&self) -> Cow<'static, str> {
        let front = match self.simplify {
            Some(s) if s == SimplifyOptions::all() => "simplified",
            Some(_) => "partial-simplify",
            None => "raw",
        };
        let back = match self.backend {
            Backend::Baseline => "leanc",
            Backend::Mlir(o) if o == PipelineOptions::full() => "mlir+rgn+generic",
            Backend::Mlir(o) if o == PipelineOptions::no_opt() => "mlir",
            Backend::Mlir(o) => {
                return Cow::Owned(format!(
                    "{front}/mlir{}{}{}",
                    if o.region_opts { "+rgn" } else { "" },
                    if o.generic_opts { "+generic" } else { "" },
                    if o.rc_opt { "" } else { "-rc" }
                ))
            }
        };
        match (front, back) {
            ("simplified", "leanc") => Cow::Borrowed("simplified/leanc"),
            ("simplified", "mlir+rgn+generic") => Cow::Borrowed("simplified/mlir+rgn+generic"),
            ("simplified", "mlir") => Cow::Borrowed("simplified/mlir"),
            ("raw", "leanc") => Cow::Borrowed("raw/leanc"),
            ("raw", "mlir+rgn+generic") => Cow::Borrowed("raw/mlir+rgn+generic"),
            ("raw", "mlir") => Cow::Borrowed("raw/mlir"),
            _ => Cow::Owned(format!("{front}/{back}")),
        }
    }
}

/// A compilation failure anywhere along the pipeline.
#[derive(Debug, Clone)]
pub struct PipelineError {
    /// Which stage failed.
    pub stage: &'static str,
    /// Description.
    pub message: String,
    /// The underlying VM error when the failing stage was execution —
    /// carries the structured [`lssa_vm::VmErrorKind`] so callers (the
    /// [`crate::jobs`] taxonomy) can distinguish resource-governance aborts
    /// from program faults.
    pub vm: Option<lssa_vm::VmError>,
}

impl PipelineError {
    /// The structured kind of the underlying VM error, when execution
    /// failed (`None` for compile-stage failures, which are never resource
    /// aborts).
    pub fn vm_kind(&self) -> Option<lssa_vm::VmErrorKind> {
        self.vm.as_ref().map(|e| e.kind)
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.stage, self.message)
    }
}

impl std::error::Error for PipelineError {}

/// Parses and front-lowers source into λrc under a config.
///
/// # Errors
///
/// Returns the first front-end failure.
pub fn frontend(src: &str, config: CompilerConfig) -> Result<Program, PipelineError> {
    frontend_ast(&parse(src)?, config)
}

fn parse(src: &str) -> Result<Program, PipelineError> {
    lssa_lambda::parse_program(src).map_err(|e| PipelineError {
        stage: "parse",
        message: e.to_string(),
        vm: None,
    })
}

/// Front-lowers an already-parsed λpure program into λrc under a config:
/// wellformedness check, optional simplifier, RC insertion.
///
/// This is where `.lssa` files enter the pipeline — the text frontend
/// (`lssa-syntax`) parses to the same [`Program`] the built-in surface
/// language lowers to, and both funnel through here.
///
/// # Errors
///
/// Returns wellformedness failures, and refuses a program that already
/// holds `inc`/`dec` (λrc input).
pub fn frontend_ast(program: &Program, config: CompilerConfig) -> Result<Program, PipelineError> {
    lssa_lambda::check_program(program).map_err(|errs| PipelineError {
        stage: "wellformedness",
        message: errs
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("; "),
        vm: None,
    })?;
    // The simplifier and RC insertion take λpure: a program that already
    // counts its own references is λrc, which only `lssa lint` audits.
    if let Some(f) = program.fns.iter().find(|f| f.arena.has_rc_ops()) {
        return Err(PipelineError {
            stage: "frontend",
            message: format!(
                "@{} already holds inc/dec, but the pipelines insert reference \
                 counting themselves; audit λrc as written with `lssa lint`",
                program.name(f)
            ),
            vm: None,
        });
    }
    let program = match config.simplify {
        Some(opts) => lssa_lambda::simplify_program(program, opts),
        None => program.clone(),
    };
    Ok(lssa_lambda::insert_rc(&program))
}

/// Compiles λrc to bytecode under a config's backend, also returning the
/// backend's per-pass statistics.
///
/// The report is `None` for the baseline backend, which lowers directly
/// without a pass pipeline.
///
/// # Errors
///
/// Returns backend failures.
pub fn backend_with_report(
    rc: &Program,
    config: CompilerConfig,
) -> Result<(CompiledProgram, Option<PipelineReport>), PipelineError> {
    let (module, report) = match config.backend {
        Backend::Baseline => (crate::baseline::lower_program(rc), None),
        Backend::Mlir(opts) => {
            let (m, r) = lssa_core::pipeline::compile_with_report(rc, opts);
            (m, Some(r))
        }
    };
    if let Err(errs) = lssa_ir::verifier::verify_module(&module) {
        return Err(PipelineError {
            stage: "verify",
            vm: None,
            message: errs
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        });
    }
    let program = lssa_vm::compile_module(&module).map_err(|e| PipelineError {
        stage: "bytecode",
        message: e.to_string(),
        vm: None,
    })?;
    Ok((program, report))
}

/// Compiles source end-to-end.
///
/// # Errors
///
/// Returns the first failure along the pipeline.
pub fn compile(src: &str, config: CompilerConfig) -> Result<CompiledProgram, PipelineError> {
    compile_with_report(src, config).map(|(p, _)| p)
}

/// [`compile`], also returning the backend's per-pass statistics (see
/// [`backend_with_report`]).
///
/// # Errors
///
/// Returns the first failure along the pipeline.
pub fn compile_with_report(
    src: &str,
    config: CompilerConfig,
) -> Result<(CompiledProgram, Option<PipelineReport>), PipelineError> {
    let rc = frontend(src, config)?;
    backend_with_report(&rc, config)
}

/// Compiles an already-parsed program end-to-end, returning the backend's
/// per-pass statistics alongside the bytecode.
///
/// # Errors
///
/// Returns the first failure along the pipeline.
pub fn compile_ast_with_report(
    program: &Program,
    config: CompilerConfig,
) -> Result<(CompiledProgram, Option<PipelineReport>), PipelineError> {
    let rc = frontend_ast(program, config)?;
    backend_with_report(&rc, config)
}

/// Compiles an already-parsed program and runs `main` with explicit decode
/// options.
///
/// # Errors
///
/// Returns compilation or execution failures.
pub fn compile_and_run_ast_opts(
    program: &Program,
    config: CompilerConfig,
    max_steps: u64,
    decode: DecodeOptions,
) -> Result<RunOutcome, PipelineError> {
    let (compiled, _) = compile_ast_with_report(program, config)?;
    lssa_vm::run_program_with(&compiled, "main", max_steps, decode).map_err(|e| PipelineError {
        stage: "execution",
        message: e.to_string(),
        vm: Some(e),
    })
}

/// Compiles and runs `main`.
///
/// # Errors
///
/// Returns compilation or execution failures.
pub fn compile_and_run(
    src: &str,
    config: CompilerConfig,
    max_steps: u64,
) -> Result<RunOutcome, PipelineError> {
    compile_and_run_ast_opts(&parse(src)?, config, max_steps, DecodeOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
inductive List := Nil | Cons(h, t)
def build(n) := if n == 0 then Nil else Cons(n, build(n - 1))
def sum(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => h + sum(t)
  end
def main() := sum(build(50))
"#;

    #[test]
    fn all_configs_agree() {
        let configs = [
            CompilerConfig::leanc(),
            CompilerConfig::mlir(),
            CompilerConfig::rgn_only(),
            CompilerConfig::none(),
        ];
        for c in configs {
            let out = compile_and_run(SRC, c, 10_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", c.label()));
            assert_eq!(out.rendered, "1275", "{}", c.label());
            assert_eq!(out.stats.heap.live, 0, "{}: leak", c.label());
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(CompilerConfig::leanc().label(), "simplified/leanc");
        assert_eq!(
            CompilerConfig::mlir().label(),
            "simplified/mlir+rgn+generic"
        );
        assert_eq!(CompilerConfig::none().label(), "raw/mlir");
    }

    #[test]
    fn parse_errors_reported() {
        let e = compile("def !", CompilerConfig::mlir()).unwrap_err();
        assert_eq!(e.stage, "parse");
    }

    #[test]
    fn wellformedness_errors_reported() {
        // Over/under application of known functions is handled (pap), so a
        // mis-arity call compiles; a reference to an unknown builtin is the
        // genuinely ill-formed case.
        let e = compile("def f() := @nosuch(1)", CompilerConfig::mlir()).unwrap_err();
        assert_eq!(e.stage, "wellformedness");
    }

    #[test]
    fn fixed_config_labels_do_not_allocate() {
        for config in [
            CompilerConfig::leanc(),
            CompilerConfig::mlir(),
            CompilerConfig::rgn_only(),
            CompilerConfig::none(),
        ] {
            assert!(
                matches!(config.label(), Cow::Borrowed(_)),
                "{}: label should be static",
                config.label()
            );
        }
    }

    #[test]
    fn reports_flow_through_the_mlir_backend_only() {
        let (_, report) = compile_with_report(SRC, CompilerConfig::mlir()).unwrap();
        let report = report.expect("mlir backend must report statistics");
        assert!(report.phases.iter().any(|p| p.pipeline == "rgn-opt"));
        let (_, report) = compile_with_report(SRC, CompilerConfig::leanc()).unwrap();
        assert!(report.is_none(), "baseline has no pass pipeline");
    }
}
