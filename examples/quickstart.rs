//! Quickstart: compile and run a functional program end-to-end, printing
//! the IR after each stage of the paper's pipeline (Figure 3):
//!
//! ```text
//! surface ──▶ λpure ──▶ λrc ──▶ lp ──▶ rgn ──▶ (region opts) ──▶ CFG ──▶ VM
//! ```
//!
//! Run with: `cargo run --example quickstart`

use lambda_ssa::core::pipeline::PipelineOptions;
use lambda_ssa::ir::pass::Pass;

const PROGRAM: &str = r#"
inductive List := Nil | Cons(head, tail)

def length(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + length(t)
  end

def build(n) := if n == 0 then Nil else Cons(n, build(n - 1))

def main() := length(build(10))
"#;

fn main() {
    println!("=== surface program ===\n{PROGRAM}");

    // Front end: parse + lower to λpure.
    let program = lambda_ssa::lambda::parse_program(PROGRAM).expect("parse");
    lambda_ssa::lambda::check_program(&program).expect("wellformed");
    println!("=== λpure (A-normal form) ===");
    print!("{program}");

    // Reference counting: λpure → λrc.
    let rc = lambda_ssa::lambda::insert_rc(&program);
    println!("=== λrc (explicit inc/dec) ===");
    print!("{rc}");

    // λrc → lp (the SSA embedding, Figure 2).
    let mut module = lambda_ssa::core::lp::from_lambda::lower_program(&rc);
    println!("=== lp dialect ===");
    print!("{}", lambda_ssa::ir::printer::print_module(&module));

    // lp → rgn (regions as SSA values, Figure 8).
    lambda_ssa::core::rgn::from_lp::lower_module(&mut module);
    println!("=== rgn dialect ===");
    print!("{}", lambda_ssa::ir::printer::print_module(&module));

    // Region optimizations (Figure 1 / §IV-B).
    lambda_ssa::ir::passes::CanonicalizePass::with_extra(lambda_ssa::core::rgn::opt::all_patterns)
        .run_on(&mut module);
    lambda_ssa::core::rgn::GrnPass.run_on(&mut module);
    lambda_ssa::ir::passes::DcePass.run_on(&mut module);
    println!("=== rgn after region optimizations ===");
    print!("{}", lambda_ssa::ir::printer::print_module(&module));

    // Full pipeline to a flat CFG (fresh compile so every pass interacts
    // in the intended order).
    let cfg = lambda_ssa::core::pipeline::compile(&rc, PipelineOptions::full());
    println!("=== flat CFG (std-level) ===");
    print!("{}", lambda_ssa::ir::printer::print_module(&cfg));

    // Execute on the VM.
    let bytecode = lambda_ssa::vm::compile_module(&cfg).expect("bytecode");
    let out = lambda_ssa::vm::run_program(&bytecode, "main", 10_000_000).expect("run");
    println!("=== result ===");
    println!("main() = {}", out.rendered);
    println!(
        "({} instructions, {} calls, {} peak live objects, all {} freed)",
        out.stats.instructions, out.stats.calls, out.stats.heap.peak_live, out.stats.heap.frees
    );
    assert_eq!(out.rendered, "10");
    assert_eq!(out.stats.heap.live, 0);
}
