//! Regenerates the codegen-stability golden `tests/golden/codegen.txt`.
//!
//! ```text
//! cargo run --example gen_codegen_golden
//! ```
//!
//! The file holds five digests per program: the printed λrc program, the
//! printed `lp` module it lowers to, and every function's decoded cells and
//! pools under the `mlir` configuration (fused, then unfused) and under the
//! `rgn_only` configuration; then the
//! reference interpreter's outcome: a digest of its result, its steps and
//! its heap counters. The programs are the 8 workloads at `Scale::Test`,
//! the handwritten conformance cases and a seeded generated draw (see
//! `lssa_driver::conformance::codegen_golden`). `tests/codegen_golden.rs`
//! asserts the committed file matches what the compiler and the interpreter
//! produce now, so a change that should leave the generated code and the
//! oracle's results alone (a speed-up, a refactor) proves it by leaving this
//! file unchanged.

use lambda_ssa::driver::conformance::codegen_golden;

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::create_dir_all(dir).expect("create golden dir");
    let text = codegen_golden();
    std::fs::write(format!("{dir}/codegen.txt"), &text).expect("write codegen.txt");
    print!("{}", text.lines().last().unwrap_or_default());
    println!(" ({} programs)", text.lines().count() - 1);
}
