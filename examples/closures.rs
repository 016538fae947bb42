//! Figure 7: closures via `lp.pap` / `lp.papextend`.
//!
//! `k10` partially applies `k` (building a closure); `ap42` extends an
//! arbitrary closure with one more argument, invoking it on saturation;
//! passing the bare function `k` to `ap42` requires wrapping it in an empty
//! closure — exactly the cases the paper walks through.
//!
//! Run with: `cargo run --example closures`

use lambda_ssa::driver::{compile_and_run, CompilerConfig};
use lambda_ssa::ir::opcode::Opcode;

const PROGRAM: &str = r#"
def k(x, y) := x

def k10(y) := k(10)(y)

def ap42(f) := f(42)

-- Pass the top-level function itself as a value: an empty closure.
def k42() := ap42(k)

def main() :=
  let a := k10(5);          -- k(10, 5)      = 10
  let b := ap42(k(7));      -- k(7, 42)      = 7
  let c := k42()(99);       -- k(42, 99)     = 42
  a * 10000 + b * 100 + c
"#;

/// The body's ops in walk order.
fn walk(body: &lambda_ssa::ir::body::Body) -> Vec<lambda_ssa::ir::ids::OpId> {
    let mut ops = Vec::new();
    body.walk_ops(&mut ops);
    ops
}

fn main() {
    let program = lambda_ssa::lambda::parse_program(PROGRAM).expect("parse");
    let rc = lambda_ssa::lambda::insert_rc(&program);
    let module = lambda_ssa::core::lp::from_lambda::lower_program(&rc);

    println!("=== closure operations in the lp module ===");
    for f in &module.funcs {
        let Some(body) = &f.body else { continue };
        let paps = walk(body)
            .iter()
            .filter(|&&op| body.ops[op.index()].opcode == Opcode::LpPap)
            .count();
        let extends = walk(body)
            .iter()
            .filter(|&&op| body.ops[op.index()].opcode == Opcode::LpPapExtend)
            .count();
        if paps + extends > 0 {
            println!(
                "  @{}: {} lp.pap, {} lp.papextend",
                module.name_of(f.name),
                paps,
                extends
            );
        }
    }

    let out = compile_and_run(PROGRAM, CompilerConfig::mlir(), 10_000_000).expect("run");
    println!("main() = {} (expected 100742)", out.rendered);
    assert_eq!(out.rendered, "100742");
    assert_eq!(out.stats.heap.live, 0, "every closure freed");
    println!("heap balanced: every closure allocation was released");
}
