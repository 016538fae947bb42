//! Lowering `rgn` to a flat CFG (§IV-C of the paper), plus guaranteed
//! tail-call elimination (§III-E).
//!
//! "Since the semantics of rgn is given entirely by adding extra structure
//! to flat CFGs, rgn can be lowered by forgetting this extra structure. The
//! lowering is driven entirely by rgn.run: (1) a rgn.run of a known rgn.val
//! is compiled to a branch of the region that is run, (2) a rgn.run of a
//! switch (or select) is compiled to a jump-table. Finally, dead rgn.val
//! instructions are entirely dropped."

use lssa_ir::attr::AttrKey;
use lssa_ir::body::{Body, ROOT_REGION};
use lssa_ir::builder::Builder;
use lssa_ir::hash::{FxHashMap, FxHashSet};
use lssa_ir::ids::{BlockId, OpId, Symbol, ValueId};
use lssa_ir::module::Module;
use lssa_ir::opcode::Opcode;
use lssa_ir::pass::{for_each_function, Pass};
use lssa_ir::rewrite::erase_trivially_dead;
use lssa_ir::types::Type;

/// Lowers every `rgn.run` in `body` to CFG branches, flattening region
/// values into real basic blocks; `lp.ret` becomes `func.return`.
///
/// # Panics
///
/// Panics if a region value flows from anything other than `rgn.val`,
/// `arith.select`, or `arith.switch_val` (the rgn verifier forbids it).
pub fn lower_body(body: &mut Body) {
    // Drop dead region values first so unreferenced regions never
    // materialize ("dead rgn.val instructions are entirely dropped").
    erase_trivially_dead(body);
    let mut cache: FxHashMap<ValueId, BlockId> = FxHashMap::default();
    loop {
        let run = find_root_run(body);
        let Some(run) = run else { break };
        let operands = body.ops[run.index()].operands.clone();
        let rv = operands[0];
        let args = operands[1..].to_vec();
        let arg_tys: Vec<Type> = args.iter().map(|&a| body.value_type(a)).collect();
        let target = target_for(body, rv, &arg_tys, &mut cache);
        let parent = body.ops[run.index()].parent.expect("detached run");
        body.erase_op(run);
        let mut b = Builder::at_end(body, parent);
        b.br(target, args);
    }
    // lp.ret → func.return.
    for block in body.regions[ROOT_REGION.index()].blocks.clone() {
        if let Some(term) = body.terminator(block) {
            if body.ops[term.index()].opcode == Opcode::LpReturn {
                let v = body.ops[term.index()].operands[0];
                body.erase_op(term);
                let mut b = Builder::at_end(body, block);
                b.ret(v);
            }
        }
    }
    // Selector chains and emptied rgn.vals are now dead.
    erase_trivially_dead(body);
    lssa_ir::passes::simplify_cfg::remove_unreachable_blocks(body);
}

/// Finds a `rgn.run` attached to a root-region block.
fn find_root_run(body: &Body) -> Option<OpId> {
    for &block in &body.regions[ROOT_REGION.index()].blocks {
        for &op in &body.blocks[block.index()].ops {
            if body.ops[op.index()].opcode == Opcode::RgnRun {
                return Some(op);
            }
        }
    }
    None
}

/// Resolves a region value to a branch-target block, materializing regions
/// and dispatch blocks as needed.
fn target_for(
    body: &mut Body,
    v: ValueId,
    arg_tys: &[Type],
    cache: &mut FxHashMap<ValueId, BlockId>,
) -> BlockId {
    if let Some(&t) = cache.get(&v) {
        return t;
    }
    let def = body
        .defining_op(v)
        .expect("region value must be op-defined");
    let target = match body.ops[def.index()].opcode {
        Opcode::RgnVal => {
            // (1) Known region: its blocks become real CFG blocks.
            let region = body.ops[def.index()].regions[0];
            let blocks = std::mem::take(&mut body.regions[region.index()].blocks);
            let entry = blocks[0];
            for &bl in &blocks {
                body.blocks[bl.index()].parent = Some(ROOT_REGION);
                body.regions[ROOT_REGION.index()].blocks.push(bl);
            }
            entry
        }
        Opcode::Select => {
            // (2) Conditional dispatch block.
            let ops = body.ops[def.index()].operands.clone();
            let (c, a, bb) = (ops[0], ops[1], ops[2]);
            let ta = target_for(body, a, arg_tys, cache);
            let tb = target_for(body, bb, arg_tys, cache);
            let dispatch = body.new_block(ROOT_REGION, arg_tys);
            let dargs = body.blocks[dispatch.index()].args.clone();
            let mut b = Builder::at_end(body, dispatch);
            b.cond_br(c, (ta, dargs.clone()), (tb, dargs));
            dispatch
        }
        Opcode::SwitchVal => {
            // (2') Jump table.
            let ops = body.ops[def.index()].operands.clone();
            let cases = body.ops[def.index()]
                .attr(AttrKey::Cases)
                .and_then(|a| a.as_int_list())
                .expect("switch_val without cases")
                .to_vec();
            let idx = ops[0];
            let vals = &ops[1..ops.len() - 1];
            let default = ops[ops.len() - 1];
            let targets: Vec<BlockId> = vals
                .iter()
                .map(|&x| target_for(body, x, arg_tys, cache))
                .collect();
            let tdefault = target_for(body, default, arg_tys, cache);
            let dispatch = body.new_block(ROOT_REGION, arg_tys);
            let dargs = body.blocks[dispatch.index()].args.clone();
            let mut b = Builder::at_end(body, dispatch);
            b.switch_br(
                idx,
                cases,
                targets.into_iter().map(|t| (t, dargs.clone())).collect(),
                (tdefault, dargs),
            );
            dispatch
        }
        other => panic!("rgn.run of a value defined by {other}"),
    };
    cache.insert(v, target);
    target
}

/// The module-level rgn→CFG lowering pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct RgnToCfgPass;

impl Pass for RgnToCfgPass {
    fn name(&self) -> &'static str {
        "rgn-to-cfg"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        for_each_function(module, |_, body| {
            lower_body(body);
            true
        })
    }
}

/// Tail-call elimination.
///
/// Rewrites `…; %r = func.call @f(args); [inc/dec not touching %r;]
/// func.return %r` into `…; rc-ops; func.tail_call @f(args)`.
///
/// `only_self` models the heuristic TCO of a C compiler (the paper's
/// baseline, Figure 11): only self-recursive calls are guaranteed. With
/// `only_self = false` this is the `musttail` guarantee of the MLIR backend.
#[derive(Debug, Clone, Copy)]
pub struct TcoPass {
    /// Restrict to self-recursive tail calls (heuristic mode).
    pub only_self: bool,
}

impl Pass for TcoPass {
    fn name(&self) -> &'static str {
        "tail-call-elimination"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        let mut changed = false;
        // Which symbols name user-defined (non-extern) functions. Captured
        // up front: bodies are detached while being rewritten, which must
        // not make a function look external to its own recursive calls.
        let user_fns: FxHashSet<Symbol> = module
            .funcs
            .iter()
            .filter(|f| !f.is_extern())
            .map(|f| f.name)
            .collect();
        for i in 0..module.funcs.len() {
            let Some(mut body) = module.funcs[i].body.take() else {
                continue;
            };
            let me = module.funcs[i].name;
            for block in body.regions[ROOT_REGION.index()].blocks.clone() {
                changed |= try_tco_block(&mut body, block, self.only_self, me, &user_fns);
            }
            module.funcs[i].body = Some(body);
        }
        changed
    }
}

fn try_tco_block(
    body: &mut Body,
    block: BlockId,
    only_self: bool,
    me: Symbol,
    user_fns: &FxHashSet<Symbol>,
) -> bool {
    let ops = body.blocks[block.index()].ops.clone();
    if ops.len() < 2 {
        return false;
    }
    let term = *ops.last().unwrap();
    if body.ops[term.index()].opcode != Opcode::Return {
        return false;
    }
    let returned = body.ops[term.index()].operands[0];
    // Scan backwards over rc ops to the producing call.
    let mut rc_ops = Vec::new();
    let mut idx = ops.len() - 1;
    let call = loop {
        if idx == 0 {
            return false;
        }
        idx -= 1;
        let op = ops[idx];
        match body.ops[op.index()].opcode {
            Opcode::LpInc | Opcode::LpDec => {
                if body.ops[op.index()].operands[0] == returned {
                    return false; // rc op touches the result
                }
                rc_ops.push(op);
            }
            Opcode::Call => break op,
            _ => return false,
        }
    };
    if body.ops[call.index()].result() != Some(returned) {
        return false;
    }
    // The result must have no other uses.
    if body.users_of(returned).len() != 1 {
        return false;
    }
    let callee = body.ops[call.index()]
        .attr(AttrKey::Callee)
        .and_then(|a| a.as_sym())
        .expect("call without callee");
    if only_self && callee != me {
        return false;
    }
    // Only user functions participate (builtins do not recurse).
    if !user_fns.contains(&callee) {
        return false;
    }
    let args = body.ops[call.index()].operands.to_vec();
    // The rc ops must not release a value being passed to the callee.
    for &rc in &rc_ops {
        if args.contains(&body.ops[rc.index()].operands[0]) {
            return false;
        }
    }
    // Hoist the rc ops before the call (they only touch values dead after
    // the call), then replace call+return with a tail call.
    for &rc in rc_ops.iter().rev() {
        body.detach_op(rc);
    }
    for &rc in rc_ops.iter().rev() {
        body.insert_op_before(call, rc);
    }
    body.erase_op(term);
    body.erase_op(call);
    let mut b = Builder::at_end(body, block);
    b.tail_call(callee, args);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::from_lambda::lower_program;
    use crate::rgn::from_lp;
    use lssa_ir::printer::print_module;
    use lssa_ir::verifier::verify_module;
    use lssa_lambda::{insert_rc, parse_program};

    fn compile(src: &str) -> Module {
        let p = parse_program(src).unwrap();
        lssa_lambda::check_program(&p).unwrap();
        let rc = insert_rc(&p);
        let mut m = lower_program(&rc);
        from_lp::lower_module(&mut m);
        RgnToCfgPass.run(&mut m);
        if let Err(errs) = verify_module(&m) {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            panic!(
                "CFG module does not verify:\n{}\n{}",
                msgs.join("\n"),
                print_module(&m)
            );
        }
        m
    }

    fn assert_flat(m: &Module) {
        for f in &m.funcs {
            let Some(body) = &f.body else { continue };
            for op in body.walk_ops() {
                let opcode = body.ops[op.index()].opcode;
                assert!(
                    opcode.dialect() != "rgn"
                        && !matches!(
                            opcode,
                            Opcode::LpSwitch
                                | Opcode::LpJoinPoint
                                | Opcode::LpJump
                                | Opcode::LpReturn
                        ),
                    "{opcode} survived CFG lowering"
                );
                assert!(
                    body.ops[op.index()].regions.is_empty()
                        || body.ops[op.index()]
                            .regions
                            .iter()
                            .all(|&r| body.regions[r.index()].blocks.is_empty()),
                    "non-empty nested region after lowering"
                );
            }
        }
    }

    #[test]
    fn boolean_case_becomes_cond_br() {
        let m = compile("def f(b) := if b then 1 else 2");
        assert_flat(&m);
        let text = print_module(&m);
        assert!(text.contains("cf.cond_br"), "{text}");
        assert!(text.contains("func.return"), "{text}");
    }

    #[test]
    fn n_way_case_becomes_jump_table() {
        let m = compile(
            r#"
inductive Shape := Dot | Line(a) | Tri(a, b) | Quad(a, b, c)
def corners(s) :=
  case s of
  | Dot => 0
  | Line(a) => 2
  | Tri(a, b) => 3
  | Quad(a, b, c) => 4
  end
"#,
        );
        assert_flat(&m);
        let text = print_module(&m);
        assert!(text.contains("cf.switch"), "{text}");
    }

    #[test]
    fn join_point_blocks_are_shared_not_duplicated() {
        // Figure 5: the default arm is deduplicated via the join point; in
        // the CFG the shared code appears exactly once.
        let m = compile(
            r#"
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
"#,
        );
        assert_flat(&m);
        let f = m.func_by_name("eval").unwrap();
        let body = f.body.as_ref().unwrap();
        // 60 appears in two λ arms but both jump to one join point…
        // except the lowering of the source duplicates the *value* 60
        // literally per arm. Count lp.int {value = 60}: must be ≤ 2 (the
        // surface program spells it twice; the match compiler must not
        // *add* copies).
        let sixties = body
            .walk_ops()
            .iter()
            .filter(|&&op| {
                body.ops[op.index()].opcode == Opcode::LpInt
                    && body.ops[op.index()]
                        .attr(AttrKey::Value)
                        .and_then(|a| a.as_int())
                        == Some(60)
            })
            .count();
        assert!(sixties <= 2, "default arm duplicated: {sixties} copies");
    }

    #[test]
    fn recursion_compiles_and_verifies() {
        let m = compile(
            r#"
inductive List := Nil | Cons(h, t)
def len(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + len(t)
  end
"#,
        );
        assert_flat(&m);
    }

    #[test]
    fn guaranteed_tco_rewrites_tail_calls() {
        let mut m = compile(
            r#"
def loop(n, acc) :=
  if n == 0 then acc else loop(n - 1, acc + n)
def start(n) := loop(n, 0)
"#,
        );
        assert!(TcoPass { only_self: false }.run(&mut m).changed);
        verify_module(&m).unwrap();
        let text = print_module(&m);
        assert!(text.contains("func.tail_call"), "{text}");
        // `start`'s call to loop is also a tail call under the guarantee.
        let start = m.func_by_name("start").unwrap();
        let body = start.body.as_ref().unwrap();
        let has_tail = body
            .walk_ops()
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::TailCall);
        assert!(has_tail, "{text}");
    }

    #[test]
    fn heuristic_tco_only_self_recursive() {
        let mut m = compile(
            r#"
def loop(n, acc) :=
  if n == 0 then acc else loop(n - 1, acc + n)
def start(n) := loop(n, 0)
"#,
        );
        assert!(TcoPass { only_self: true }.run(&mut m).changed);
        verify_module(&m).unwrap();
        let start = m.func_by_name("start").unwrap();
        let body = start.body.as_ref().unwrap();
        let has_tail = body
            .walk_ops()
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::TailCall);
        assert!(!has_tail, "cross-function call must stay a plain call");
        let lp = m.func_by_name("loop").unwrap();
        let body = lp.body.as_ref().unwrap();
        let has_tail = body
            .walk_ops()
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::TailCall);
        assert!(has_tail, "self recursion is the heuristic case");
    }

    #[test]
    fn rc_ops_hoisted_across_tail_call() {
        // dec of a dead local between call and return must not block TCO.
        let mut m = compile(
            r#"
inductive List := Nil | Cons(h, t)
def drop_all(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => drop_all(t)
  end
"#,
        );
        TcoPass { only_self: false }.run(&mut m);
        verify_module(&m).unwrap();
        let f = m.func_by_name("drop_all").unwrap();
        let body = f.body.as_ref().unwrap();
        let has_tail = body
            .walk_ops()
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::TailCall);
        assert!(has_tail, "{}", print_module(&m));
    }
}
