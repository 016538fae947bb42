//! Lowering `lp` control flow to the `rgn` dialect (Figure 8).
//!
//! - `lp.switch` with one case + default → regions wrapped in `rgn.val`,
//!   selected with `arith.select` on an equality test (Fig 8A);
//! - `lp.switch` with many cases → `arith.switch_val` (Fig 8B);
//! - `lp.joinpoint` → the join-point region becomes a `rgn.val`; the
//!   pre-jump code is spliced inline; `lp.jump` becomes `rgn.run` (Fig 8C).
//!
//! After this pass a function contains no `lp.switch` / `lp.joinpoint` /
//! `lp.jump`: every transfer of control is `rgn.run` on a region value that
//! flows through ordinary `select` / `switch_val` — which is what lets
//! classical SSA optimizations act on functional control flow.
//!
//! One walk of a body finds every `lp.switch` and `lp.joinpoint`; they are
//! lowered in that walk's order, which no lowering disturbs (a lowering
//! moves the regions and code after its op in place of the op). The walk
//! and the jump-rewriting worklist are buffers one [`lower_module`] reuses
//! for every function.

use lssa_ir::attr::{AttrKey, CmpPred};
use lssa_ir::body::{Body, OperandList};
use lssa_ir::ids::{OpId, Symbol};
use lssa_ir::opcode::Opcode;
use lssa_ir::prelude::*;

/// Buffers of the lowering, reused across the functions of a module.
#[derive(Debug, Default)]
pub struct RgnLowering {
    /// The body's `lp.switch` and `lp.joinpoint` ops, in walk order.
    targets: Vec<OpId>,
    /// Worklist of the jump rewrite.
    work: Vec<OpId>,
}

/// Converts every structured `lp` terminator in `body` to `rgn` form.
///
/// # Panics
///
/// Panics on malformed lp input (multi-block pre-jump regions, switches
/// without attributes) — the lp verifier rules these out.
pub fn lower_body(body: &mut Body, bufs: &mut RgnLowering) {
    let targets = &mut bufs.targets;
    body.walk_ops(targets);
    // Reserve for the ops the lowering adds: a `rgn.val` per region, the
    // selector and its inputs and a `rgn.run` per switch, and a `rgn.run`
    // per jump.
    let mut added = 0;
    targets.retain(|&op| {
        let data = &body.ops[op.index()];
        match data.opcode {
            Opcode::LpSwitch => added += data.regions.len() + 4,
            Opcode::LpJoinPoint => added += 1,
            Opcode::LpJump => added += 1,
            _ => {}
        }
        matches!(data.opcode, Opcode::LpSwitch | Opcode::LpJoinPoint)
    });
    body.reserve(added, 0);
    for &op in targets.iter() {
        if body.ops[op.index()].opcode == Opcode::LpSwitch {
            lower_switch(body, op);
        } else {
            lower_joinpoint(body, op, &mut bufs.work);
        }
    }
    debug_assert!(
        !body
            .ops
            .iter()
            .any(|d| !d.dead && d.parent.is_some() && d.opcode == Opcode::LpJump),
        "dangling lp.jump after rgn lowering"
    );
}

/// Fig 8A/8B: switch → region values + select / switch_val + run.
fn lower_switch(body: &mut Body, op: OpId) {
    let block = body.ops[op.index()].parent.expect("detached switch");
    let tag = body.ops[op.index()].operands[0];
    let cases = body.ops[op.index()]
        .attr(AttrKey::Cases)
        .and_then(|a| a.as_int_list())
        .expect("lp.switch without cases");
    let (n_cases, single) = (cases.len(), cases.first().copied());
    debug_assert_eq!(body.ops[op.index()].regions.len(), n_cases + 1);
    body.detach_op(op);
    // One rgn.val per case region (transferring the region); detaching a
    // region drops it from the op's list.
    let mut region_vals = OperandList::new();
    while let Some(&r) = body.ops[op.index()].regions.first() {
        body.detach_region(r);
        let rv = body.create_op(Opcode::RgnVal, [], &[Type::Rgn], []);
        body.attach_region(rv, r);
        body.push_op(block, rv);
        region_vals.push(body.ops[rv.index()].result().unwrap());
    }
    let default_val = *region_vals.last().unwrap();
    let selected = match (n_cases, single) {
        (0, _) => default_val,
        (1, Some(single)) => {
            // Two-way: select on an equality comparison.
            let mut b = Builder::at_end(body, block);
            let c = b.const_i(single, Type::I8);
            let eq = b.cmpi(CmpPred::Eq, tag, c);
            b.select(eq, region_vals[0], default_val)
        }
        _ => {
            let cases: Box<[i64]> = body.ops[op.index()]
                .attr(AttrKey::Cases)
                .and_then(|a| a.as_int_list())
                .expect("lp.switch without cases")
                .into();
            let mut b = Builder::at_end(body, block);
            b.switch_val(
                tag,
                cases,
                &region_vals[..region_vals.len() - 1],
                default_val,
            )
        }
    };
    let mut b = Builder::at_end(body, block);
    b.rgn_run(selected, []);
    body.erase_op(op);
}

/// Fig 8C: joinpoint → rgn.val + inline pre-jump code; jump → run.
fn lower_joinpoint(body: &mut Body, op: OpId, work: &mut Vec<OpId>) {
    let block = body.ops[op.index()].parent.expect("detached joinpoint");
    let label = body.ops[op.index()]
        .attr(AttrKey::Label)
        .and_then(|a| a.as_sym())
        .expect("lp.joinpoint without label");
    let [jp_region, pre_region] = body.ops[op.index()].regions[..] else {
        panic!("lp.joinpoint needs exactly two regions");
    };
    body.detach_op(op);
    // The join-point region becomes a first-class region value.
    body.detach_region(jp_region);
    let rv = body.create_op(Opcode::RgnVal, [], &[Type::Rgn], []);
    body.attach_region(rv, jp_region);
    body.push_op(block, rv);
    let lbl = body.ops[rv.index()].result().unwrap();
    // Splice the (single-block) pre-jump code inline.
    let pre_blocks = &body.regions[pre_region.index()].blocks;
    assert_eq!(
        pre_blocks.len(),
        1,
        "pre-jump region must be a single block"
    );
    let pre = pre_blocks[0];
    let moved = std::mem::take(&mut body.blocks[pre.index()].ops);
    for &m in &moved {
        body.ops[m.index()].parent = Some(block);
    }
    body.blocks[block.index()].ops.extend(moved.iter().copied());
    body.blocks[pre.index()].parent = None;
    body.regions[pre_region.index()].blocks.clear();
    body.detach_region(pre_region);
    body.erase_op(op);
    // Rewrite jumps to this label (they are all inside the spliced code or
    // regions nested within it) into rgn.run of the region value.
    rewrite_jumps(body, &moved, label, lbl, work);
}

fn rewrite_jumps(
    body: &mut Body,
    roots: &[OpId],
    label: Symbol,
    lbl: lssa_ir::ids::ValueId,
    work: &mut Vec<OpId>,
) {
    work.clear();
    work.extend_from_slice(roots);
    while let Some(op) = work.pop() {
        if body.ops[op.index()].dead {
            continue;
        }
        for &r in &body.ops[op.index()].regions {
            for &b in &body.regions[r.index()].blocks {
                work.extend_from_slice(&body.blocks[b.index()].ops);
            }
        }
        let is_target = body.ops[op.index()].opcode == Opcode::LpJump
            && body.ops[op.index()]
                .attr(AttrKey::Label)
                .and_then(|a| a.as_sym())
                == Some(label);
        if is_target {
            let operands: OperandList = std::iter::once(lbl)
                .chain(body.ops[op.index()].operands.iter().copied())
                .collect();
            let parent = body.ops[op.index()].parent.expect("detached jump");
            body.erase_op(op);
            let run = body.create_op(Opcode::RgnRun, operands, &[], []);
            body.push_op(parent, run);
        }
    }
}

/// Convenience: lowers every function of a module.
pub fn lower_module(module: &mut Module) {
    let mut bufs = RgnLowering::default();
    lssa_ir::pass::for_each_function(module, |_, body| {
        lower_body(body, &mut bufs);
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::from_lambda::lower_program;
    use lssa_ir::printer::print_module;
    use lssa_ir::verifier::verify_module;
    use lssa_lambda::{insert_rc, parse_program};

    /// The body's ops in walk order.
    fn walk(body: &lssa_ir::body::Body) -> Vec<lssa_ir::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn lower(src: &str) -> Module {
        let p = parse_program(src).unwrap();
        lssa_lambda::check_program(&p).unwrap();
        let rc = insert_rc(&p);
        let mut m = lower_program(&rc);
        lower_module(&mut m);
        if let Err(errs) = verify_module(&m) {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            panic!(
                "rgn module does not verify:\n{}\n{}",
                msgs.join("\n"),
                print_module(&m)
            );
        }
        m
    }

    fn assert_no_lp_control(m: &Module) {
        for f in &m.funcs {
            let Some(body) = &f.body else { continue };
            for op in walk(body) {
                assert!(
                    !matches!(
                        body.ops[op.index()].opcode,
                        Opcode::LpSwitch | Opcode::LpJoinPoint | Opcode::LpJump
                    ),
                    "{} survived rgn lowering",
                    body.ops[op.index()].opcode
                );
            }
        }
    }

    #[test]
    fn two_way_switch_becomes_select() {
        // Fig 8A: a boolean case lowers via arith.select.
        let m = lower(
            r#"
def f(b) := if b then 1 else 2
"#,
        );
        assert_no_lp_control(&m);
        let text = print_module(&m);
        assert!(text.contains("rgn.val"), "{text}");
        assert!(text.contains("arith.select"), "{text}");
        assert!(text.contains("rgn.run"), "{text}");
    }

    #[test]
    fn n_way_switch_becomes_switch_val() {
        // Fig 8B.
        let m = lower(
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
        assert_no_lp_control(&m);
        let text = print_module(&m);
        assert!(text.contains("arith.switch_val"), "{text}");
    }

    #[test]
    fn joinpoint_becomes_region_value_with_args() {
        // Fig 8C.
        let m = lower(
            r#"
def f(b, y) :=
  let x := case b of | true => 1 | false => 2 end;
  x + y
"#,
        );
        assert_no_lp_control(&m);
        let text = print_module(&m);
        // The join point takes (captured y, result x) — a region value run
        // with two arguments from each branch.
        assert!(text.contains("rgn.run"), "{text}");
        let f = m.func_by_name("f").unwrap();
        let body = f.body.as_ref().unwrap();
        let has_run_with_args = walk(body).iter().any(|&op| {
            body.ops[op.index()].opcode == Opcode::RgnRun && body.ops[op.index()].operands.len() > 1
        });
        assert!(has_run_with_args, "{text}");
    }

    #[test]
    fn nested_cases_lower_recursively() {
        let m = lower(
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
        assert_no_lp_control(&m);
        let f = m.func_by_name("eval").unwrap();
        let body = f.body.as_ref().unwrap();
        let n_vals = walk(body)
            .iter()
            .filter(|&&op| body.ops[op.index()].opcode == Opcode::RgnVal)
            .count();
        assert!(n_vals >= 6, "expected nested region values, got {n_vals}");
    }

    #[test]
    fn region_values_feed_only_selectors_and_runs() {
        let m = lower(
            r#"
inductive List := Nil | Cons(h, t)
def len(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + len(t)
  end
"#,
        );
        // The verifier inside `lower` already enforces the rgn restriction;
        // this spells the property out.
        for f in &m.funcs {
            let Some(body) = &f.body else { continue };
            for op in walk(body) {
                for (i, &v) in body.ops[op.index()].operands.iter().enumerate() {
                    if body.value_type(v) == Type::Rgn {
                        let ok = matches!(
                            (body.ops[op.index()].opcode, i),
                            (Opcode::Select, 1 | 2) | (Opcode::SwitchVal, _) | (Opcode::RgnRun, 0)
                        );
                        assert!(ok);
                    }
                }
            }
        }
    }
}
