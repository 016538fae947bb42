//! Codegen stability: the λrc program, the `lp` module, the decoded code
//! under the `mlir` configuration (fused and unfused) and the `rgn_only`
//! configuration of every workload,
//! handwritten conformance case and a seeded generated draw, and the
//! reference interpreter's result, steps and heap counters on each, must
//! match the committed record in `tests/golden/codegen.txt` (regenerate
//! with `cargo run --example gen_codegen_golden`).
//!
//! Compile-time work that must not change the output (faster analyses,
//! different data structures, refactors of the pass drivers) is held to
//! byte-identical code by this test, and interpreter work that must not
//! change what the oracle computes or counts is held to the same.

use lambda_ssa::driver::conformance::codegen_golden;
use std::path::Path;

#[test]
fn decoded_code_matches_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/codegen.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} — regenerate with `cargo run --example gen_codegen_golden`",
            path.display()
        )
    });
    let now = codegen_golden();
    let changed: Vec<String> = golden
        .lines()
        .zip(now.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  golden {a}\n  now    {b}"))
        .collect();
    assert!(
        golden == now,
        "decoded code drifted from {} ({} lines differ):\n{}\n\
         If the change is meant to alter code generation, rerun \
         `cargo run --example gen_codegen_golden` and commit the new file.",
        path.display(),
        changed.len(),
        changed.join("\n")
    );
}

#[test]
fn golden_covers_every_program_and_compiles_them_all() {
    let now = codegen_golden();
    let lines: Vec<&str> = now.lines().collect();
    let count = |prefix: &str| lines.iter().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(count("workload/"), 8);
    assert_eq!(
        count("handwritten/"),
        lambda_ssa::driver::conformance::handwritten().len()
    );
    assert_eq!(
        count("generated/"),
        lambda_ssa::driver::conformance::GOLDEN_DRAW.0
    );
    assert!(lines.last().unwrap().starts_with("total "));
    assert!(
        !now.contains(" error: "),
        "every pinned program compiles:\n{now}"
    );
    assert!(
        lines[..lines.len() - 1]
            .iter()
            .all(|l| l.contains(" oracle ") && !l.contains("oracle-error")),
        "the oracle runs every pinned program:\n{now}"
    );
    // Under `mlir` the region optimizations find nothing left to do, so
    // every program also pins the code `rgn_only` compiles, where they do.
    // The unfused stream is pinned too: it is what the bytecode compiler
    // emits, before fusion and renumbering rewrite it.
    assert!(
        lines[..lines.len() - 1]
            .iter()
            .all(|l| l.contains(" code ") && l.contains(" nofuse ") && l.contains(" rgn ")),
        "every pinned program carries its unfused and rgn_only code digests:\n{now}"
    );
}
