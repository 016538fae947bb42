//! Figure 5: complex pattern matching, join points, and deduplication.
//!
//! The paper's `eval` matches on three integers; a naive lowering
//! duplicates the default right-hand side into every failing branch.
//! LEAN (and this reproduction) lowers value-position matches with *join
//! points*, so the default arm is emitted once and jumped to — and after
//! the rgn lowering those jumps are `rgn.run`s of one shared region value.
//!
//! Run with: `cargo run --example pattern_matching`

use lambda_ssa::ir::attr::AttrKey;
use lambda_ssa::ir::opcode::Opcode;
use lambda_ssa::ir::prelude::*;

const PROGRAM: &str = r#"
def eval(x, y, z) :=
  case x of
  | 0 =>
    case y of
    | 2 => 40
    | _ =>
      case z of
      | 2 => 50
      | _ => 60
      end
    end
  | _ => 60
  end

def main() := eval(0, 2, 7) + eval(0, 7, 2) + eval(1, 0, 0) + eval(0, 0, 0)
"#;

/// The body's ops in walk order.
fn walk(body: &lambda_ssa::ir::body::Body) -> Vec<lambda_ssa::ir::ids::OpId> {
    let mut ops = Vec::new();
    body.walk_ops(&mut ops);
    ops
}

fn count_constant(module: &Module, func: &str, value: i64) -> usize {
    let body = module.func_by_name(func).unwrap().body.as_ref().unwrap();
    walk(body)
        .iter()
        .filter(|&&op| {
            body.ops[op.index()].opcode == Opcode::LpInt
                && body.ops[op.index()]
                    .attr(AttrKey::Value)
                    .and_then(|a| a.as_int())
                    == Some(value)
        })
        .count()
}

fn main() {
    let program = lambda_ssa::lambda::parse_program(PROGRAM).expect("parse");
    let rc = lambda_ssa::lambda::insert_rc(&program);

    // λrc → lp: the match compiler stages integer matching through
    // lean_nat_dec_eq and keeps control flow structured.
    let mut module = lambda_ssa::core::lp::from_lambda::lower_program(&rc);
    println!("=== lp-level eval (structured switches) ===");
    let mut text = String::new();
    lambda_ssa::ir::printer::print_function(
        &module,
        module.func_by_name("eval").unwrap(),
        &mut text,
        0,
    );
    println!("{text}");

    // The literal 60 (the shared default) appears exactly as many times as
    // the *source* spells it — the match compiler adds no copies.
    let sixties_lp = count_constant(&module, "eval", 60);
    println!("copies of the default constant 60 at the lp level: {sixties_lp}");
    assert!(sixties_lp <= 2);

    // lp → rgn: the join point becomes one region value, each failing
    // branch runs it.
    lambda_ssa::core::rgn::from_lp::lower_module(&mut module);
    let body = module.func_by_name("eval").unwrap().body.as_ref().unwrap();
    let runs = walk(body)
        .iter()
        .filter(|&&op| body.ops[op.index()].opcode == Opcode::RgnRun)
        .count();
    println!("rgn.run sites in eval after lowering: {runs}");

    // End to end: the program still computes the right answer.
    let out = lambda_ssa::driver::compile_and_run(
        PROGRAM,
        lambda_ssa::driver::CompilerConfig::mlir(),
        10_000_000,
    )
    .expect("run");
    println!("main() = {} (expected 210)", out.rendered);
    assert_eq!(out.rendered, "210");
}
