//! Figure 7 end-to-end: top-level closure slots (`@kslot`), initialized by
//! `@init` before `@entrypoint` runs — built directly in the lp dialect
//! (the surface language doesn't need globals, but λrc programs with
//! lambda-lifted top-level closures do).

use lambda_ssa::core::rgn;
use lambda_ssa::ir::pass::Pass;
use lambda_ssa::ir::prelude::*;

/// Builds the paper's Figure 7 module by hand:
///
/// ```text
/// func @k(%x, %y) -> %x
/// global @kslot : !lp.t
/// func @init()  { %k = lp.pap @k; lp.global.store @kslot, %k; ret 0 }
/// func @ap42(%f) { %out = lp.papextend %f, 42; ret %out }
/// func @k42()   { %k = lp.global.load @kslot; call @ap42(%k) }
/// func @main()  { call @init(); call @k42() }  — k(42, …) waits for y;
///                 apply one more to observe k's first-arg semantics.
/// ```
fn build_module() -> Module {
    let mut m = Module::new();
    lambda_ssa::core::lp::declare_externs(&mut m);
    let kslot = m.add_global("kslot", Type::Obj);

    // @k(x, y) := x
    let k = {
        let (mut body, params) = Body::new(&[Type::Obj, Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_dec(params[1]);
        b.lp_ret(params[0]);
        m.add_function("k", Signature::obj(2), body)
    };

    // @init() := store (pap @k) into @kslot
    {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let clos = b.lp_pap(k, 2, vec![]);
        b.lp_global_store(kslot, clos);
        let zero = b.lp_int(0);
        b.lp_ret(zero);
        m.add_function("init", Signature::obj(0), body);
    }

    // @ap42(f) := papextend f, 42
    let ap42 = {
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c42 = b.lp_int(42);
        let out = b.lp_papextend(params[0], vec![c42]);
        b.lp_ret(out);
        m.add_function("ap42", Signature::obj(1), body)
    };

    // @k42() := ap42(load @kslot)   — yields the closure k(42, ·)
    let k42 = {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let kval = b.lp_global_load(kslot);
        b.lp_inc(kval); // the global keeps its own reference
        let out = b.call(ap42, vec![kval], Type::Obj);
        b.lp_ret(out);
        m.add_function("k42", Signature::obj(0), body)
    };

    // @main() := init(); (k42())(7)  — k(42, 7) = 42
    {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let initv = b.call(m.interner.get("init").unwrap(), vec![], Type::Obj);
        b.lp_dec(initv);
        let clos = b.call(k42, vec![], Type::Obj);
        let seven = b.lp_int(7);
        let out = b.lp_papextend(clos, vec![seven]);
        b.lp_ret(out);
        m.add_function("main", Signature::obj(0), body);
    }
    m
}

#[test]
fn figure7_top_level_closures_run_end_to_end() {
    let mut m = build_module();
    lambda_ssa::ir::verifier::verify_module(&m).unwrap();
    // Through the full rgn pipeline.
    rgn::from_lp::lower_module(&mut m);
    rgn::RgnToCfgPass.run_on(&mut m);
    rgn::TcoPass { only_self: false }.run_on(&mut m);
    lambda_ssa::ir::verifier::verify_module(&m).unwrap();
    let program = lambda_ssa::vm::compile_module(&m).unwrap();
    let out = lambda_ssa::vm::run_program(&program, "main", 1_000_000).unwrap();
    assert_eq!(out.rendered, "42");
}

#[test]
fn figure7_module_round_trips_through_text() {
    let m = build_module();
    let text = lambda_ssa::ir::printer::print_module(&m);
    assert!(text.contains("global @kslot : !lp.t"), "{text}");
    assert!(
        text.contains("lp.global.store(%0) {global = @kslot}"),
        "{text}"
    );
    assert!(text.contains("lp.global.load {global = @kslot}"), "{text}");
    let reparsed = lambda_ssa::ir::parser::parse_module(&text).unwrap();
    assert_eq!(text, lambda_ssa::ir::printer::print_module(&reparsed));
}

#[test]
fn uninitialized_global_reads_scalar_zero() {
    // Reading @kslot before @init stores into it yields the default scalar
    // — the runtime contract for module initialization order.
    let mut m = Module::new();
    lambda_ssa::core::lp::declare_externs(&mut m);
    let g = m.add_global("slot", Type::Obj);
    let (mut body, _) = Body::new(&[]);
    let entry = body.entry_block();
    let mut b = Builder::at_end(&mut body, entry);
    let v = b.lp_global_load(g);
    b.lp_ret(v);
    m.add_function("main", Signature::obj(0), body);
    rgn::from_lp::lower_module(&mut m);
    rgn::RgnToCfgPass.run_on(&mut m);
    let program = lambda_ssa::vm::compile_module(&m).unwrap();
    let out = lambda_ssa::vm::run_program(&program, "main", 1_000).unwrap();
    assert_eq!(out.rendered, "0");
}
