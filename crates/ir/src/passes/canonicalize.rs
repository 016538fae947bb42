//! Canonicalization: constant folding and peephole simplification, built on
//! the greedy pattern driver.
//!
//! The `select`/`switch_val` folds here are exactly the hooks the paper's
//! Figure 1 relies on: because region values flow through ordinary
//! `arith.select` / `arith.switch_val`, folding a selector on a constant
//! (case elimination) or on identical branches (common-branch elimination)
//! needs *no region-specific code* — these generic patterns do it.

use crate::attr::{Attr, AttrKey};
use crate::body::Body;
use crate::ids::{OpId, ValueId};
use crate::module::Module;
use crate::opcode::Opcode;
use crate::pass::{for_each_function, Pass};
use crate::passes::const_int_value;
use crate::rewrite::{
    apply_patterns_greedily, PatternSet, RewriteBuffers, RewriteCtx, RewritePattern,
};
use crate::types::Type;

/// Returns the standard canonicalization pattern set.
pub fn canonicalization_patterns() -> Vec<Box<dyn RewritePattern>> {
    vec![
        Box::new(FoldBinaryArith),
        Box::new(FoldCmp),
        Box::new(ArithIdentity),
        Box::new(FoldSelect),
        Box::new(FoldSwitchVal),
        Box::new(FoldIntCast),
        Box::new(FoldCondBr),
        Box::new(FoldSwitchBr),
    ]
}

/// The canonicalization pass. Extra pattern sets (e.g. the `rgn` dialect's)
/// can be appended via the factory.
#[derive(Debug)]
pub struct CanonicalizePass {
    patterns: PatternSet,
}

impl Default for CanonicalizePass {
    fn default() -> CanonicalizePass {
        CanonicalizePass::new()
    }
}

impl CanonicalizePass {
    /// Standard pattern set only.
    pub fn new() -> CanonicalizePass {
        CanonicalizePass::with_extra(Vec::new)
    }

    /// Standard patterns plus a dialect-specific set.
    pub fn with_extra(extra: fn() -> Vec<Box<dyn RewritePattern>>) -> CanonicalizePass {
        let mut patterns = canonicalization_patterns();
        patterns.extend(extra());
        CanonicalizePass {
            patterns: PatternSet::new(patterns),
        }
    }
}

impl Pass for CanonicalizePass {
    fn name(&self) -> &'static str {
        "canonicalize"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        let mut bufs = RewriteBuffers::default();
        for_each_function(module, |m, body| {
            let ctx = RewriteCtx { module: m };
            apply_patterns_greedily(body, &ctx, &self.patterns, &mut bufs)
        })
    }
}

fn replace_with_const(body: &mut Body, op: OpId, value: i64, ty: Type) {
    let new = body.create_op(
        Opcode::ConstI,
        vec![],
        &[ty],
        vec![(AttrKey::Value, Attr::Int(ty.wrap(value)))],
    );
    body.insert_op_before(op, new);
    let new_res = body.ops[new.index()].result().unwrap();
    let old_res = body.ops[op.index()].result().unwrap();
    body.replace_all_uses(old_res, new_res);
    body.erase_op(op);
}

fn replace_with_value(body: &mut Body, op: OpId, v: ValueId) {
    let old = body.ops[op.index()].result().unwrap();
    body.replace_all_uses(old, v);
    body.erase_op(op);
}

/// Folds binary integer arithmetic on two constants.
struct FoldBinaryArith;

impl RewritePattern for FoldBinaryArith {
    fn name(&self) -> &'static str {
        "fold-binary-arith"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[
            Opcode::AddI,
            Opcode::SubI,
            Opcode::MulI,
            Opcode::DivI,
            Opcode::RemI,
            Opcode::AndI,
            Opcode::OrI,
            Opcode::XorI,
        ]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        let opcode = body.ops[op.index()].opcode;
        let f: fn(i64, i64) -> Option<i64> = match opcode {
            Opcode::AddI => |a, b| Some(a.wrapping_add(b)),
            Opcode::SubI => |a, b| Some(a.wrapping_sub(b)),
            Opcode::MulI => |a, b| Some(a.wrapping_mul(b)),
            Opcode::DivI => |a, b| a.checked_div(b),
            Opcode::RemI => |a, b| a.checked_rem(b),
            Opcode::AndI => |a, b| Some(a & b),
            Opcode::OrI => |a, b| Some(a | b),
            Opcode::XorI => |a, b| Some(a ^ b),
            _ => return false,
        };
        let [a, b] = body.ops[op.index()].operands[..] else {
            return false;
        };
        let (Some(va), Some(vb)) = (const_int_value(body, a), const_int_value(body, b)) else {
            return false;
        };
        let Some(v) = f(va, vb) else { return false };
        let ty = body.value_type(a);
        replace_with_const(body, op, v, ty);
        true
    }
}

/// Folds comparisons on two constants.
struct FoldCmp;

impl RewritePattern for FoldCmp {
    fn name(&self) -> &'static str {
        "fold-cmp"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::CmpI]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::CmpI {
            return false;
        }
        let [a, b] = body.ops[op.index()].operands[..] else {
            return false;
        };
        let Some(pred) = body.ops[op.index()]
            .attr(AttrKey::Pred)
            .and_then(|p| p.as_pred())
        else {
            return false;
        };
        if let (Some(va), Some(vb)) = (const_int_value(body, a), const_int_value(body, b)) {
            replace_with_const(body, op, pred.eval(va, vb) as i64, Type::I1);
            return true;
        }
        // x == x, x <= x, x >= x fold even without constants.
        if a == b {
            use crate::attr::CmpPred::*;
            let v = match pred {
                Eq | Sle | Sge => 1,
                Ne | Slt | Sgt => 0,
            };
            replace_with_const(body, op, v, Type::I1);
            return true;
        }
        false
    }
}

/// Algebraic identities: `x+0`, `x-0`, `x*1`, `x*0`, `x|0`, `x^0`, `x&x`…
struct ArithIdentity;

impl RewritePattern for ArithIdentity {
    fn name(&self) -> &'static str {
        "arith-identity"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[
            Opcode::AddI,
            Opcode::SubI,
            Opcode::MulI,
            Opcode::AndI,
            Opcode::OrI,
            Opcode::XorI,
        ]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        let opcode = body.ops[op.index()].opcode;
        let [a, b] = body.ops[op.index()].operands[..] else {
            return false;
        };
        let ca = const_int_value(body, a);
        let cb = const_int_value(body, b);
        let ty = body.value_type(a);
        match opcode {
            Opcode::AddI | Opcode::OrI | Opcode::XorI => {
                if cb == Some(0) {
                    replace_with_value(body, op, a);
                    return true;
                }
                if ca == Some(0) {
                    replace_with_value(body, op, b);
                    return true;
                }
            }
            Opcode::SubI => {
                if cb == Some(0) {
                    replace_with_value(body, op, a);
                    return true;
                }
                if a == b {
                    replace_with_const(body, op, 0, ty);
                    return true;
                }
            }
            Opcode::MulI => {
                if cb == Some(1) {
                    replace_with_value(body, op, a);
                    return true;
                }
                if ca == Some(1) {
                    replace_with_value(body, op, b);
                    return true;
                }
                if cb == Some(0) || ca == Some(0) {
                    replace_with_const(body, op, 0, ty);
                    return true;
                }
            }
            Opcode::AndI => {
                if a == b {
                    replace_with_value(body, op, a);
                    return true;
                }
                if cb == Some(0) || ca == Some(0) {
                    replace_with_const(body, op, 0, ty);
                    return true;
                }
            }
            _ => {}
        }
        false
    }
}

/// `select(true, a, b) → a`, `select(false, a, b) → b`, `select(c, a, a) → a`.
///
/// Applied to region values this is the paper's *case elimination* (constant
/// condition, Fig 1B) and *common branch elimination* (equal branches after
/// region numbering, Fig 1C).
struct FoldSelect;

impl RewritePattern for FoldSelect {
    fn name(&self) -> &'static str {
        "fold-select"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::Select]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::Select {
            return false;
        }
        let [c, a, b] = body.ops[op.index()].operands[..] else {
            return false;
        };
        if a == b {
            replace_with_value(body, op, a);
            return true;
        }
        match const_int_value(body, c) {
            Some(0) => {
                replace_with_value(body, op, b);
                true
            }
            Some(_) => {
                replace_with_value(body, op, a);
                true
            }
            None => false,
        }
    }
}

/// `switch_val` on a constant index → the matching branch; all-equal
/// branches → that branch.
struct FoldSwitchVal;

impl RewritePattern for FoldSwitchVal {
    fn name(&self) -> &'static str {
        "fold-switch-val"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::SwitchVal]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::SwitchVal {
            return false;
        }
        let operands = body.ops[op.index()].operands.clone();
        let Some(cases) = body.ops[op.index()]
            .attr(AttrKey::Cases)
            .and_then(|a| a.as_int_list())
            .map(|c| c.to_vec())
        else {
            return false;
        };
        let vals = &operands[1..];
        if vals.iter().all(|&v| v == vals[0]) {
            replace_with_value(body, op, vals[0]);
            return true;
        }
        if let Some(idx) = const_int_value(body, operands[0]) {
            let chosen = cases
                .iter()
                .position(|&c| c == idx)
                .map(|i| vals[i])
                .unwrap_or(*vals.last().unwrap());
            replace_with_value(body, op, chosen);
            return true;
        }
        // Drop case arms whose value equals the default (shrinks the table).
        let default = *vals.last().unwrap();
        if vals[..vals.len() - 1].contains(&default) {
            let mut new_cases = Vec::new();
            let mut new_vals = Vec::new();
            for (i, &c) in cases.iter().enumerate() {
                if vals[i] != default {
                    new_cases.push(c);
                    new_vals.push(vals[i]);
                }
            }
            let mut ops = vec![operands[0]];
            ops.extend(new_vals);
            ops.push(default);
            let data = &mut body.ops[op.index()];
            data.operands = ops.into();
            for (k, a) in &mut data.attrs {
                if *k == AttrKey::Cases {
                    *a = Attr::IntList(new_cases.clone().into());
                }
            }
            return true;
        }
        false
    }
}

/// Folds `extui`/`trunci` of constants.
struct FoldIntCast;

impl RewritePattern for FoldIntCast {
    fn name(&self) -> &'static str {
        "fold-int-cast"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::ExtUI, Opcode::TruncI]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        let opcode = body.ops[op.index()].opcode;
        if !matches!(opcode, Opcode::ExtUI | Opcode::TruncI) {
            return false;
        }
        let [a] = body.ops[op.index()].operands[..] else {
            return false;
        };
        let Some(v) = const_int_value(body, a) else {
            return false;
        };
        let from = body.value_type(a);
        let to = body.value_type(body.ops[op.index()].result().unwrap());
        let folded = match opcode {
            Opcode::ExtUI => {
                // Zero-extension: reinterpret the source bits unsigned.
                let bits = from.bit_width().unwrap();
                if bits == 64 {
                    v
                } else {
                    v & ((1i64 << bits) - 1)
                }
            }
            Opcode::TruncI => to.wrap(v),
            _ => unreachable!(),
        };
        replace_with_const(body, op, folded, to);
        true
    }
}

/// `cond_br` on a constant → `br`; identical destinations → `br`.
struct FoldCondBr;

impl RewritePattern for FoldCondBr {
    fn name(&self) -> &'static str {
        "fold-cond-br"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::CondBr]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::CondBr {
            return false;
        }
        let succs = body.ops[op.index()].successors.clone();
        let cond = body.ops[op.index()].operands[0];
        let target = if let Some(v) = const_int_value(body, cond) {
            if v != 0 {
                succs[0].clone()
            } else {
                succs[1].clone()
            }
        } else if succs[0] == succs[1] {
            succs[0].clone()
        } else {
            return false;
        };
        let parent = body.ops[op.index()].parent.unwrap();
        body.erase_op(op);
        let br = body.create_op(Opcode::Br, vec![], &[], vec![]);
        body.ops[br.index()].successors.push(target);
        body.push_op(parent, br);
        true
    }
}

/// `cf.switch` on a constant → `br` to the matching case.
struct FoldSwitchBr;

impl RewritePattern for FoldSwitchBr {
    fn name(&self) -> &'static str {
        "fold-switch-br"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::SwitchBr]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::SwitchBr {
            return false;
        }
        let idx = body.ops[op.index()].operands[0];
        let Some(v) = const_int_value(body, idx) else {
            return false;
        };
        let cases = body.ops[op.index()]
            .attr(AttrKey::Cases)
            .and_then(|a| a.as_int_list())
            .map(|c| c.to_vec())
            .unwrap_or_default();
        let succs = body.ops[op.index()].successors.clone();
        let target = cases
            .iter()
            .position(|&c| c == v)
            .map(|i| succs[i].clone())
            .unwrap_or_else(|| succs.last().unwrap().clone());
        let parent = body.ops[op.index()].parent.unwrap();
        body.erase_op(op);
        let br = body.create_op(Opcode::Br, vec![], &[], vec![]);
        body.ops[br.index()].successors.push(target);
        body.push_op(parent, br);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::CmpPred;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Signature;

    fn canonicalized(body: Body) -> Body {
        let mut m = Module::new();
        m.add_function("f", Signature::new(vec![], Type::I64), body);
        // Note: not verifying here (tests build partial functions freely).
        let mut body = m
            .func_mut(m.interner.get("f").unwrap())
            .unwrap()
            .body
            .take()
            .unwrap();
        let patterns = PatternSet::new(canonicalization_patterns());
        let ctx = RewriteCtx { module: &m };
        apply_patterns_greedily(&mut body, &ctx, &patterns, &mut RewriteBuffers::default());
        body
    }

    fn ret_is_const(body: &Body, expected: i64) -> bool {
        let entry = body.entry_block();
        let ret = body.terminator(entry).unwrap();
        let v = body.ops[ret.index()].operands[0];
        const_int_value(body, v) == Some(expected)
    }

    #[test]
    fn folds_constant_tree() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c2 = b.const_i(2, Type::I64);
        let c3 = b.const_i(3, Type::I64);
        let s = b.addi(c2, c3); // 5
        let m = b.muli(s, s); // 25
        let d = b.subi(m, c2); // 23
        b.ret(d);
        let body = canonicalized(body);
        assert!(ret_is_const(&body, 23));
        assert_eq!(body.live_op_count(), 2);
    }

    #[test]
    fn division_by_zero_not_folded() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c1 = b.const_i(1, Type::I64);
        let c0 = b.const_i(0, Type::I64);
        let d = b.divi(c1, c0);
        b.ret(d);
        let body = canonicalized(body);
        assert!(!ret_is_const(&body, 0));
        assert_eq!(body.live_op_count(), 4);
    }

    #[test]
    fn select_on_constant_folds() {
        let (mut body, params) = Body::new(&[Type::I64, Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let t = b.const_bool(true);
        let s = b.select(t, params[0], params[1]);
        b.ret(s);
        let body = canonicalized(body);
        let ret = body.terminator(body.entry_block()).unwrap();
        assert_eq!(body.ops[ret.index()].operands, vec![params[0]]);
        assert_eq!(body.live_op_count(), 1);
    }

    #[test]
    fn select_equal_branches_folds() {
        let (mut body, params) = Body::new(&[Type::I1, Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let s = b.select(params[0], params[1], params[1]);
        b.ret(s);
        let body = canonicalized(body);
        let ret = body.terminator(body.entry_block()).unwrap();
        assert_eq!(body.ops[ret.index()].operands, vec![params[1]]);
    }

    #[test]
    fn switch_val_constant_picks_case() {
        let (mut body, params) = Body::new(&[Type::I64, Type::I64, Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let idx = b.const_i(1, Type::I8);
        let s = b.switch_val(idx, [0, 1], &[params[0], params[1]], params[2]);
        b.ret(s);
        let body = canonicalized(body);
        let ret = body.terminator(body.entry_block()).unwrap();
        assert_eq!(body.ops[ret.index()].operands, vec![params[1]]);
    }

    #[test]
    fn switch_val_constant_default() {
        let (mut body, params) = Body::new(&[Type::I64, Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let idx = b.const_i(9, Type::I8);
        let s = b.switch_val(idx, [0], &[params[0]], params[1]);
        b.ret(s);
        let body = canonicalized(body);
        let ret = body.terminator(body.entry_block()).unwrap();
        assert_eq!(body.ops[ret.index()].operands, vec![params[1]]);
    }

    #[test]
    fn cmp_same_operand_folds() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.cmpi(CmpPred::Sle, params[0], params[0]);
        let e = b.extui(c, Type::I64);
        b.ret(e);
        let body = canonicalized(body);
        assert!(ret_is_const(&body, 1));
    }

    #[test]
    fn cond_br_on_constant_becomes_br() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let then_b = body.new_block(ROOT_REGION, &[]);
        let else_b = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let t = b.const_bool(false);
        b.cond_br(t, (then_b, vec![]), (else_b, vec![]));
        let mut bt = Builder::at_end(&mut body, then_b);
        let v = bt.const_i(1, Type::I64);
        bt.ret(v);
        let mut be = Builder::at_end(&mut body, else_b);
        let v = be.const_i(2, Type::I64);
        be.ret(v);
        let body = canonicalized(body);
        let term = body.terminator(body.entry_block()).unwrap();
        assert_eq!(body.ops[term.index()].opcode, Opcode::Br);
        assert_eq!(body.ops[term.index()].successors[0].block, else_b);
    }

    #[test]
    fn switch_br_on_constant_becomes_br() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let b0 = body.new_block(ROOT_REGION, &[]);
        let b1 = body.new_block(ROOT_REGION, &[]);
        let bd = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(1, Type::I8);
        b.switch_br(
            c,
            vec![0, 1],
            vec![(b0, vec![]), (b1, vec![])],
            (bd, vec![]),
        );
        for blk in [b0, b1, bd] {
            let mut bb = Builder::at_end(&mut body, blk);
            let v = bb.const_i(0, Type::I64);
            bb.ret(v);
        }
        let body = canonicalized(body);
        let term = body.terminator(body.entry_block()).unwrap();
        assert_eq!(body.ops[term.index()].opcode, Opcode::Br);
        assert_eq!(body.ops[term.index()].successors[0].block, b1);
    }

    #[test]
    fn mul_by_zero_and_identities() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let zero = b.const_i(0, Type::I64);
        let one = b.const_i(1, Type::I64);
        let x1 = b.muli(params[0], one); // x
        let x2 = b.addi(x1, zero); // x
        let x3 = b.muli(x2, zero); // 0
        let x4 = b.ori(x3, zero); // 0
        b.ret(x4);
        let body = canonicalized(body);
        assert!(ret_is_const(&body, 0));
    }
}
