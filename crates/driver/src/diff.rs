//! Differential testing: the reference interpreter versus every compiled
//! pipeline.
//!
//! This is the project's analogue of running the LEAN test suite (§V-A):
//! a program passes when all five executions — the λrc reference
//! interpreter (oracle), the leanc-style baseline, the full MLIR pipeline,
//! the rgn-only pipeline and the unoptimized pipeline — produce the same
//! value *and* release every heap object.

use crate::pipelines::{compile_and_run_ast_opts, frontend_ast, CompilerConfig};
use lssa_lambda::ast::Program;
use lssa_lambda::Outcome;
use lssa_vm::DecodeOptions;

/// Outcome of one differential test.
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// Program name.
    pub name: String,
    /// The agreed-on result (when passing).
    pub rendered: Option<String>,
    /// Failure description (when failing).
    pub failure: Option<String>,
}

impl DiffResult {
    /// Whether all pipelines agreed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// The pipeline configurations exercised by differential testing.
pub fn configs() -> Vec<CompilerConfig> {
    vec![
        CompilerConfig::leanc(),
        CompilerConfig::mlir(),
        CompilerConfig::rgn_only(),
        CompilerConfig::none(),
    ]
}

/// Runs `src` (the built-in surface language) through the oracle and every
/// pipeline, comparing results.
pub fn run_differential(name: &str, src: &str, max_steps: u64) -> DiffResult {
    let program = match lssa_lambda::parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            return DiffResult {
                name: name.to_string(),
                rendered: None,
                failure: Some(format!("frontend: parse error: {e}")),
            }
        }
    };
    run_differential_ast(name, &program, max_steps)
}

/// The oracle's outcome on `program`: `main` of the unsimplified program,
/// rc-inserted, under the λrc reference interpreter.
///
/// # Errors
///
/// Returns the front-end or interpreter failure, prefixed with its stage
/// (`frontend:` or `oracle:`).
pub fn oracle(program: &Program, max_steps: u64) -> Result<Outcome, String> {
    let rc = frontend_ast(program, CompilerConfig::none()).map_err(|e| format!("frontend: {e}"))?;
    lssa_lambda::run_program(&rc, "main", true, max_steps).map_err(|e| format!("oracle: {e}"))
}

/// [`run_differential`] over an already-parsed program — the entry point for
/// `.lssa` files, whose text frontend lives in `lssa-syntax`.
pub fn run_differential_ast(name: &str, program: &Program, max_steps: u64) -> DiffResult {
    let fail = |msg: String| DiffResult {
        name: name.to_string(),
        rendered: None,
        failure: Some(msg),
    };
    let oracle = match oracle(program, max_steps) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    if oracle.stats.live != 0 {
        return fail(format!("oracle leaked {} objects", oracle.stats.live));
    }
    for config in configs() {
        let out =
            match compile_and_run_ast_opts(program, config, max_steps, DecodeOptions::default()) {
                Ok(o) => o,
                Err(e) => return fail(format!("[{}] {e}", config.label())),
            };
        if out.rendered != oracle.rendered {
            return fail(format!(
                "[{}] produced {:?}, oracle {:?}",
                config.label(),
                out.rendered,
                oracle.rendered
            ));
        }
        if out.stats.heap.live != 0 {
            return fail(format!(
                "[{}] leaked {} objects",
                config.label(),
                out.stats.heap.live
            ));
        }
    }
    DiffResult {
        name: name.to_string(),
        rendered: Some(oracle.rendered),
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_program() {
        let r = run_differential("t", "def main() := 40 + 2", 1_000_000);
        assert!(r.passed(), "{:?}", r.failure);
        assert_eq!(r.rendered.as_deref(), Some("42"));
    }

    #[test]
    fn broken_program_reports_stage() {
        let r = run_differential("t", "def main() := nonsense", 1_000_000);
        assert!(!r.passed());
        assert!(r.failure.unwrap().contains("frontend"));
    }

    #[test]
    fn divergent_program_reports_oracle() {
        let r = run_differential("t", "def spin(x) := spin(x)\ndef main() := spin(0)", 10_000);
        assert!(!r.passed());
        assert!(r.failure.unwrap().contains("oracle"));
    }
}
