//! §III-E: guaranteed vs heuristic tail calls, observed through the VM's
//! peak frame-stack depth.
//!
//! The MLIR backend emits `musttail` for *every* tail call; the C-style
//! baseline only reliably eliminates self-recursion (what a C compiler's
//! sibling-call optimization gives you). Mutual recursion separates the two.

use lambda_ssa::driver::pipelines::{compile_and_run, CompilerConfig};

const MUTUAL: &str = r#"
def even(n) := if n == 0 then 1 else odd(n - 1)
def odd(n) := if n == 0 then 0 else even(n - 1)
def main() := even(100000)
"#;

const SELF_REC: &str = r#"
def loop(n, acc) := if n == 0 then acc else loop(n - 1, acc + n)
def main() := loop(100000, 0)
"#;

#[test]
fn guaranteed_tco_keeps_mutual_recursion_flat() {
    let out = compile_and_run(MUTUAL, CompilerConfig::mlir(), 100_000_000).unwrap();
    assert_eq!(out.rendered, "1");
    assert!(
        out.stats.max_stack <= 4,
        "musttail must keep the stack flat, got {}",
        out.stats.max_stack
    );
}

#[test]
fn heuristic_tco_grows_stack_on_mutual_recursion() {
    let out = compile_and_run(MUTUAL, CompilerConfig::leanc(), 100_000_000).unwrap();
    assert_eq!(out.rendered, "1");
    assert!(
        out.stats.max_stack > 10_000,
        "the C model should burn a frame per cross-function call, got {}",
        out.stats.max_stack
    );
}

#[test]
fn both_backends_flatten_self_recursion() {
    for config in [CompilerConfig::mlir(), CompilerConfig::leanc()] {
        let out = compile_and_run(SELF_REC, config, 100_000_000).unwrap();
        assert_eq!(out.rendered, "5000050000");
        assert!(
            out.stats.max_stack <= 4,
            "[{}] self tail recursion must be flat, got {}",
            config.label(),
            out.stats.max_stack
        );
    }
}

#[test]
fn deep_recursion_correctness_is_unaffected() {
    // Both pipelines agree regardless of TCO strategy.
    for config in [CompilerConfig::mlir(), CompilerConfig::leanc()] {
        let out = compile_and_run(MUTUAL, config, 100_000_000).unwrap();
        assert_eq!(out.rendered, "1", "[{}]", config.label());
        assert_eq!(out.stats.heap.live, 0);
    }
}

#[test]
fn base_case_free_recursion_compiles_and_runs_into_the_step_budget() {
    // Regression: the inliner used to splice a self-reaching callee into
    // its caller forever, hanging compilation under mlir and rgn-only.
    const SPIN: &str = "def spin(n) := spin(n + 1)\ndef main() := spin(0)";
    const PAIR: &str = "def f(n) := g(n + 1)\ndef g(n) := f(n + 2)\ndef main() := f(0)";
    for src in [SPIN, PAIR] {
        for config in lambda_ssa::driver::diff::configs() {
            let err = compile_and_run(src, config, 100_000).unwrap_err();
            assert_eq!(
                err.vm_kind(),
                Some(lambda_ssa::vm::VmErrorKind::StepBudget),
                "{} {src:?}: {err}",
                config.label()
            );
        }
    }
}
