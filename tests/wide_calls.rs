//! Calls and constructors thousands of arguments wide compile and run on
//! every backend, and under the reference interpreter, on a thread with an
//! 8 MiB stack: no layer from the `.fl` lowering to the VM recurses once
//! per binding, so a block of twelve thousand bindings costs no stack.
//!
//! The inputs are the ones CI generates with `awk` in its corpus check.

use lambda_ssa::driver::diff::oracle;
use lambda_ssa::driver::pipelines::{compile_and_run, CompilerConfig};

const STEPS: u64 = 10_000_000;

/// `def f(a0, …, a{n-1}) := a0` called with `n` arguments `(1 + 1)`.
fn wide_call(n: usize) -> String {
    let params: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    format!(
        "def f({}) := a0\ndef main() := f({})\n",
        params.join(", "),
        vec!["(1 + 1)"; n].join(", ")
    )
}

/// A `case` on an `n`-field constructor built from `n` literals.
fn wide_case(n: usize) -> String {
    let fields: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    format!(
        "inductive T := Z | M({})\ndef main() := case M({}) of | Z => 0 | M({}) => 7 end\n",
        fields.join(", "),
        vec!["1"; n].join(", "),
        vec!["_"; n].join(", ")
    )
}

/// Runs `src` on every backend and under the oracle, on an 8 MiB thread,
/// and checks each prints `expected`.
fn runs_everywhere(src: String, expected: &'static str) {
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(move || {
            for config in [
                CompilerConfig::mlir(),
                CompilerConfig::leanc(),
                CompilerConfig::rgn_only(),
                CompilerConfig::none(),
            ] {
                let out = compile_and_run(&src, config, STEPS)
                    .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
                assert_eq!(out.rendered, expected, "{}", config.label());
            }
            let program = lambda_ssa::lambda::parse_program(&src).unwrap();
            let out = oracle(&program, STEPS).unwrap();
            assert_eq!(out.rendered, expected, "oracle");
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn a_call_of_4000_arguments_runs_on_every_backend() {
    runs_everywhere(wide_call(4000), "2");
}

#[test]
fn a_case_on_a_6000_field_constructor_runs_on_every_backend() {
    runs_everywhere(wide_case(6000), "7");
}
