//! Disassembles the decoded instruction streams of the benchmark
//! workloads, fused next to unfused — the tool to reach for when tuning
//! the superinstruction set.
//!
//! ```text
//! cargo run --release --example dump_decoded [workload]
//! cargo run --release --example dump_decoded -- --pairs
//! ```
//!
//! `--pairs` prints a histogram of adjacent decoded-cell pairs across all
//! workloads' *fused* streams — i.e. what the current superinstruction
//! set leaves on the table. Only fusible adjacencies count: the first
//! cell must fall through and the second must not be a jump target
//! (the same filter the fusion pass applies), so every row is a
//! candidate for a new fusion shape, ranked by static frequency.

use lambda_ssa::driver::pipelines::{compile, CompilerConfig};
use lambda_ssa::driver::workloads::{all, Scale};
use lambda_ssa::vm::{decode_program_with, DecodeOptions, DecodedInstr};
use std::collections::HashMap;

/// A short per-variant mnemonic — finer-grained than `OpClass` (which
/// lumps e.g. `GetLabel` and `Project` together) so the histogram names
/// the exact shapes a new superinstruction would match on.
fn mnemonic(i: &DecodedInstr) -> &'static str {
    match i {
        DecodedInstr::ConstInt { .. } => "constint",
        DecodedInstr::LpInt { .. } => "lpint",
        DecodedInstr::LpBig { .. } => "lpbig",
        DecodedInstr::LpStr { .. } => "lpstr",
        DecodedInstr::Construct { .. } => "construct",
        DecodedInstr::GetLabel { .. } => "getlabel",
        DecodedInstr::Project { .. } => "project",
        DecodedInstr::Pap { .. } => "pap",
        DecodedInstr::PapExtend { .. } => "papextend",
        DecodedInstr::Inc { .. } => "inc",
        DecodedInstr::Dec { .. } => "dec",
        DecodedInstr::Call { .. } => "call",
        DecodedInstr::CallBuiltin { .. } => "callbuiltin",
        DecodedInstr::TailCall { .. } => "tailcall",
        DecodedInstr::Ret { .. } => "ret",
        DecodedInstr::Jump { .. } => "jump",
        DecodedInstr::Branch { .. } => "branch",
        DecodedInstr::Switch { .. } => "switch",
        DecodedInstr::Bin { .. } => "bin",
        DecodedInstr::Cmp { .. } => "cmp",
        DecodedInstr::Select { .. } => "select",
        DecodedInstr::Mask { .. } => "mask",
        DecodedInstr::Move { .. } => "move",
        DecodedInstr::GlobalLoad { .. } => "globalload",
        DecodedInstr::GlobalStore { .. } => "globalstore",
        DecodedInstr::Trap => "trap",
        DecodedInstr::ConstCmpBr { .. } => "constcmpbr",
        DecodedInstr::ConstRet { .. } => "constret",
        DecodedInstr::ProjInc { .. } => "projinc",
        DecodedInstr::CallBuiltinRet { .. } => "callbuiltinret",
        DecodedInstr::ConstructRet { .. } => "constructret",
        DecodedInstr::SwitchDense { .. } => "switchdense",
        DecodedInstr::Dec2 { .. } => "dec2",
        DecodedInstr::ProjInc2 { .. } => "projinc2",
        DecodedInstr::Dec4 { .. } => "dec4",
        DecodedInstr::ProjInc2Dec { .. } => "projinc2dec",
        DecodedInstr::BuiltinBr { .. } => "builtinbr",
        DecodedInstr::BuiltinImm { .. } => "builtinimm",
    }
}

/// Whether control can reach the next cell by falling through.
fn falls_through(i: &DecodedInstr) -> bool {
    !matches!(
        i,
        DecodedInstr::Jump { .. }
            | DecodedInstr::Branch { .. }
            | DecodedInstr::Switch { .. }
            | DecodedInstr::Ret { .. }
            | DecodedInstr::TailCall { .. }
            | DecodedInstr::Trap
            | DecodedInstr::ConstCmpBr { .. }
            | DecodedInstr::ConstRet { .. }
            | DecodedInstr::CallBuiltinRet { .. }
            | DecodedInstr::ConstructRet { .. }
            | DecodedInstr::SwitchDense { .. }
            | DecodedInstr::BuiltinBr { .. }
    )
}

fn pair_histogram() {
    let mut hist: HashMap<(&'static str, &'static str), u64> = HashMap::new();
    for w in all(Scale::Test) {
        let p = compile(&w.src, CompilerConfig::mlir()).expect("workload compiles");
        let fused = decode_program_with(&p, DecodeOptions::fused());
        for f in &fused.fns {
            let targets = f.jump_targets();
            for i in 0..f.code.len().saturating_sub(1) {
                if !falls_through(&f.code[i]) || targets[i + 1] {
                    continue;
                }
                *hist
                    .entry((mnemonic(&f.code[i]), mnemonic(&f.code[i + 1])))
                    .or_default() += 1;
            }
        }
    }
    let mut rows: Vec<_> = hist.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("Fusible adjacent decoded-cell pairs across all workloads (fused streams,");
    println!("static counts; first falls through, second is not a jump target):");
    println!();
    for ((a, b), n) in rows {
        println!("  {n:6}  {a} + {b}");
    }
}

fn main() {
    let filter = std::env::args().nth(1);
    if filter.as_deref() == Some("--pairs") {
        pair_histogram();
        return;
    }
    for w in all(Scale::Test) {
        if filter.as_deref().is_some_and(|f| f != w.name) {
            continue;
        }
        let p = compile(&w.src, CompilerConfig::mlir()).expect("workload compiles");
        let fused = decode_program_with(&p, DecodeOptions::fused());
        let unfused = decode_program_with(&p, DecodeOptions::no_fuse());
        println!("==== {} ====", w.name);
        println!(
            "fusion: {:?} ({} superinstructions, {} cells saved)",
            fused.fusion,
            fused.fusion.superinstructions(),
            fused.fusion.cells_saved
        );
        for (f, uf) in fused.fns.iter().zip(&unfused.fns) {
            println!(
                "@{} (arity {}, {} regs, {} cells fused vs {} unfused)",
                f.name,
                f.arity,
                f.n_regs,
                f.code.len(),
                uf.code.len()
            );
            for (i, instr) in f.code.iter().enumerate() {
                println!("  {i:4}: {instr:?}");
            }
        }
    }
}
