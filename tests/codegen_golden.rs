//! Codegen stability: the decoded code of every workload, handwritten
//! conformance case and a seeded generated draw must match the committed
//! digests in `tests/golden/codegen.txt` (regenerate with
//! `cargo run --example gen_codegen_golden`).
//!
//! Compile-time work that must not change the output (faster analyses,
//! different data structures, refactors of the pass drivers) is held to
//! byte-identical code by this test.

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
}
