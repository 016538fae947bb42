//! The boxed fallbacks of the fused scalar-builtin cells. A decided
//! comparison fused with its branch (`BuiltinBr`) and a builtin with a
//! constant operand (`BuiltinImm`) finish inline only when every operand
//! is a scalar; otherwise they call the runtime from inside the cell.
//! These programs feed them bignums, results that cross `MAX_SMALL_NAT`,
//! negative `Int` immediates and strings. On every pipeline the output
//! must equal the λrc reference interpreter's, and the fused decode must
//! leave every heap counter exactly where the unfused one does.
//!
//! The programs stay out of `conformance::handwritten`, which the
//! end-to-end benchmark draws from.

use lambda_ssa::driver::diff;
use lambda_ssa::driver::pipelines::compile_ast_with_report;
use lambda_ssa::lambda::ast::Program;
use lambda_ssa::vm::{run_program_with, DecodeOptions, OpClass};

const MAX_STEPS: u64 = 10_000_000;

/// Runs `program` against the reference and through both decodes of every
/// pipeline; `cells` are the fused classes the mlir pipeline must execute.
fn check(name: &str, program: &Program, expected: &str, cells: &[OpClass]) {
    let d = diff::run_differential_ast(name, program, MAX_STEPS);
    assert!(d.passed(), "{name}: {:?}", d.failure);
    assert_eq!(d.rendered.as_deref(), Some(expected), "{name}");
    for config in diff::configs() {
        let label = format!("{name} [{}]", config.label());
        let (compiled, _) = compile_ast_with_report(program, config).unwrap();
        let run = |decode| run_program_with(&compiled, "main", MAX_STEPS, decode).unwrap();
        let (fused, unfused) = (run(DecodeOptions::fused()), run(DecodeOptions::no_fuse()));
        assert_eq!(fused.rendered, expected, "{label}");
        assert_eq!(unfused.rendered, expected, "{label}");
        assert_eq!(fused.vm_stats.heap, unfused.vm_stats.heap, "{label}: heap");
        assert_eq!(fused.stats.calls, unfused.stats.calls, "{label}: calls");
        assert_eq!(fused.stats.heap.live, 0, "{label}: leaked");
        if config == lambda_ssa::driver::pipelines::CompilerConfig::mlir() {
            for &c in cells {
                assert!(
                    fused.vm_stats.executed_of(c) > 0,
                    "{label}: no {}",
                    c.name()
                );
            }
        }
    }
}

fn surface(src: &str) -> Program {
    lambda_ssa::lambda::parse_program(src).unwrap()
}

#[test]
fn bignum_comparisons_against_small_and_big_constants() {
    // `pow10(k)` is a scalar up to 10^18 and a bignum beyond, so each
    // comparison runs both its inline path and its boxed fallback, with
    // the small constants as immediates and 10^30 in a register.
    let src = "def pow10(k) := if k == 0 then 1 else 10 * pow10(k - 1)\n\
               def classify(n) := (if n == 0 then 1 else 0) + (if n < 7 then 10 else 0) \
                 + (if n <= 7 then 100 else 0) \
                 + (if n == 1000000000000000000000000000000 then 1000 else 0) \
                 + (if n < 1000000000000000000000000000000 then 10000 else 0)\n\
               def sweep(k) := if k == 0 then classify(0) else classify(pow10(k)) + sweep(k - 1)\n\
               def main() := sweep(31)";
    // k = 31: none; 30: 1000; 1..=29: 10000 each; 0: 1 + 10 + 100 + 10000.
    check(
        "bignum-compare",
        &surface(src),
        "301111",
        &[OpClass::FusedBuiltinBr, OpClass::FusedBuiltinImm],
    );
}

#[test]
fn successor_and_predecessor_across_max_small_nat() {
    // `n + 1` leaves the scalar range after three steps and `n - 1`
    // returns to it, each through the immediate cell's fallback.
    let src = "def up(n, k) := if k == 0 then n else up(n + 1, k - 1)\n\
               def down(n, k) := if k == 0 then n else down(n - 1, k - 1)\n\
               def main() := down(up(4611686018427387900, 6), 4)";
    check(
        "cross-max-small-nat",
        &surface(src),
        "4611686018427387902",
        &[OpClass::FusedBuiltinBr, OpClass::FusedBuiltinImm],
    );
}

#[test]
fn negative_int_immediates() {
    // `f(x) = -3 * (x + -5)`, negated when below -20: negative immediates
    // on either side of an arithmetic builtin and of a comparison, on a
    // small and on a big `Int`.
    let src = "(def f (x0)
                 (let x1 -5
                 (let x2 (call lean_int_add x0 x1)
                 (let x3 -3
                 (let x4 (call lean_int_mul x3 x2)
                 (let x5 -20
                 (let x6 (call lean_int_dec_lt x4 x5)
                 (case x6
                   (0 (ret x4))
                   (1 (let x7 (call lean_int_neg x4) (ret x7)))))))))))
               (def sweep (x0 x1)
                 (let x2 0
                 (let x3 (call lean_nat_dec_eq x0 x2)
                 (case x3
                   (0
                     (let x4 1
                     (let x5 (call lean_nat_sub x0 x4)
                     (let x6 (call f x1)
                     (let x7 (call sweep x5 x6)
                     (ret x7))))))
                   (1 (ret x1))))))
               (def main ()
                 (let x0 3
                 (let x1 7
                 (let x2 (call sweep x0 x1)
                 (let x3 (big 1000000000000000000000)
                 (let x4 (call sweep x0 x3)
                 (let x5 (call lean_int_add x2 x4)
                 (ret x5))))))))";
    // 7 → -6 → 33 → 84; 10^21 → 3 * 10^21 - 15 → 9 * 10^21 - 60 →
    // 27 * 10^21 - 195, each of those three negated.
    check(
        "negative-int-immediates",
        &lambda_ssa::syntax::parse_program(src).unwrap(),
        "26999999999999999999889",
        &[OpClass::FusedBuiltinBr, OpClass::FusedBuiltinImm],
    );
}

#[test]
fn branches_on_string_equality() {
    // `lean_string_dec_eq` has no scalar fast path: every execution of its
    // branch cell is a fallback, on strings shared with later uses.
    let src = "def count(s, k) := if k == 0 then 0 else \
                 (if @string_dec_eq(s, \"ab\") then 1 else 0) \
                 + (if @string_dec_eq(@string_append(s, \"b\"), \"abb\") then 10 else 0) \
                 + count(s, k - 1)\n\
               def main() := count(\"ab\", 3) + count(\"a\", 2)";
    check(
        "string-branches",
        &surface(src),
        "33",
        &[OpClass::FusedBuiltinBr],
    );
}
