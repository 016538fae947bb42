//! The `rgn` rewrite patterns (Figure 1, §IV-B).
//!
//! Most of the paper's region optimizations come *for free* from generic
//! infrastructure once regions are SSA values:
//!
//! - dead region elimination = the rewrite driver's dead-op erasure on pure
//!   `rgn.val` ops,
//! - case elimination's selector step = `select`/`switch_val` constant
//!   folding from `lssa-ir`'s canonicalizer,
//! - common-branch elimination = GRN ([`crate::rgn::grn`]) + the generic
//!   `select(c, x, x) → x` fold.
//!
//! The one genuinely region-specific rewrite lives here:
//! [`RunKnownRegion`] — `rgn.run` of a directly-known, uniquely-used
//! `rgn.val` is replaced by the region's body (the `C → D` step in both
//! Figure 1B and 1C).

use lssa_ir::attr::{Attr, AttrKey};
use lssa_ir::body::Body;
use lssa_ir::ids::OpId;
use lssa_ir::opcode::Opcode;
use lssa_ir::rewrite::{RewriteCtx, RewritePattern};
use lssa_ir::types::Type;

/// Inlines `rgn.run %r(args)` when `%r` is a single-use `rgn.val` whose
/// region is a single block: the region's ops replace the run, block
/// arguments replaced by the run's arguments.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunKnownRegion;

impl RewritePattern for RunKnownRegion {
    fn name(&self) -> &'static str {
        "run-known-region"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::RgnRun]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::RgnRun {
            return false;
        }
        let rv = body.ops[op.index()].operands[0];
        let Some(def) = body.defining_op(rv) else {
            return false;
        };
        if body.ops[def.index()].opcode != Opcode::RgnVal {
            return false;
        }
        // Unique use: inlining must not duplicate code (the paper's
        // deduplication guarantee for join points).
        if body.users_of(rv).take(2).count() != 1 {
            return false;
        }
        let region = body.ops[def.index()].regions[0];
        if body.regions[region.index()].blocks.len() != 1 {
            return false;
        }
        let inner = body.regions[region.index()].blocks[0];
        let args = body.ops[op.index()].operands[1..].to_vec();
        let params = body.blocks[inner.index()].args.clone();
        if params.len() != args.len() {
            return false; // malformed; let the verifier complain
        }
        let parent = body.ops[op.index()].parent.expect("detached run");
        // Map region parameters to run arguments.
        for (&p, &a) in params.iter().zip(&args) {
            body.replace_all_uses(p, a);
        }
        // Move the region's ops into the parent block, replacing the run.
        body.erase_op(op);
        let moved = std::mem::take(&mut body.blocks[inner.index()].ops);
        for &m in &moved {
            body.ops[m.index()].parent = Some(parent);
        }
        body.blocks[parent.index()].ops.extend(moved);
        body.blocks[inner.index()].parent = None;
        body.regions[region.index()].blocks.clear();
        body.erase_op(def);
        true
    }
}

/// `lp.getlabel` of a statically known value folds to its tag:
/// `lp.construct {tag}` yields `tag`; `lp.int {v}` (a scalar constructor
/// encoding) yields `v` when it fits in `i8`. This is what lets the select /
/// switch folds see through "case of known constructor" (Fig 1B).
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldGetLabel;

impl RewritePattern for FoldGetLabel {
    fn name(&self) -> &'static str {
        "fold-getlabel"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::LpGetLabel]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::LpGetLabel {
            return false;
        }
        let src = body.ops[op.index()].operands[0];
        let Some(def) = body.defining_op(src) else {
            return false;
        };
        let tag = match body.ops[def.index()].opcode {
            Opcode::LpConstruct => body.ops[def.index()]
                .attr(AttrKey::Tag)
                .and_then(|a| a.as_int()),
            Opcode::LpInt => body.ops[def.index()]
                .attr(AttrKey::Value)
                .and_then(|a| a.as_int())
                .filter(|v| (0..=127).contains(v)),
            _ => None,
        };
        let Some(tag) = tag else { return false };
        let konst = body.create_op(
            Opcode::ConstI,
            vec![],
            &[Type::I8],
            vec![(AttrKey::Value, Attr::Int(tag))],
        );
        body.insert_op_before(op, konst);
        let new = body.ops[konst.index()].result().unwrap();
        let old = body.ops[op.index()].result().unwrap();
        body.replace_all_uses(old, new);
        body.erase_op(op);
        true
    }
}

/// `lp.project {i}` of a known `lp.construct` folds to the i-th field.
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldProject;

impl RewritePattern for FoldProject {
    fn name(&self) -> &'static str {
        "fold-project"
    }

    fn roots(&self) -> &'static [Opcode] {
        &[Opcode::LpProject]
    }

    fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
        if body.ops[op.index()].opcode != Opcode::LpProject {
            return false;
        }
        let src = body.ops[op.index()].operands[0];
        let Some(def) = body.defining_op(src) else {
            return false;
        };
        if body.ops[def.index()].opcode != Opcode::LpConstruct {
            return false;
        }
        let Some(idx) = body.ops[op.index()]
            .attr(AttrKey::Index)
            .and_then(|a| a.as_int())
        else {
            return false;
        };
        let Some(&field) = body.ops[def.index()].operands.get(idx as usize) else {
            return false;
        };
        let old = body.ops[op.index()].result().unwrap();
        body.replace_all_uses(old, field);
        body.erase_op(op);
        true
    }
}

/// The full `rgn`+`lp` pattern set (used together with the generic
/// canonicalization patterns).
pub fn rgn_patterns() -> Vec<Box<dyn RewritePattern>> {
    vec![
        Box::new(RunKnownRegion),
        Box::new(FoldGetLabel),
        Box::new(FoldProject),
    ]
}

/// Generic + rgn canonicalization patterns, for
/// [`lssa_ir::passes::CanonicalizePass::with_extra`].
pub fn all_patterns() -> Vec<Box<dyn RewritePattern>> {
    let mut ps = lssa_ir::passes::canonicalization_patterns();
    ps.extend(rgn_patterns());
    ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_ir::builder::Builder;
    use lssa_ir::prelude::*;
    use lssa_ir::rewrite::{apply_patterns_greedily, PatternSet, RewriteBuffers};

    /// The body's ops in walk order.
    fn walk(body: &lssa_ir::body::Body) -> Vec<lssa_ir::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn canonicalize(body: &mut Body) -> bool {
        let module = Module::new();
        let ctx = RewriteCtx { module: &module };
        let patterns = PatternSet::new(all_patterns());
        apply_patterns_greedily(body, &ctx, &patterns, &mut RewriteBuffers::default())
    }

    /// Figure 1B, complete pipeline:
    /// `case True of True => 3 | False => 5` ⇒ `return 3`.
    #[test]
    fn case_elimination_fig1b() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (x, bx) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, bx);
            let v = ib.lp_int(3);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        let (y, by) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, by);
            let v = ib.lp_int(5);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        let t = b.const_bool(true);
        let sel = b.select(t, x, y);
        b.rgn_run(sel, vec![]);

        assert!(canonicalize(&mut body));
        // Everything folds down to `lp.int 3; lp.ret`.
        let ops: Vec<Opcode> = walk(&body)
            .iter()
            .map(|&op| body.ops[op.index()].opcode)
            .collect();
        assert_eq!(ops, vec![Opcode::LpInt, Opcode::LpReturn]);
        let ret = walk(&body)[1];
        let v = body.ops[ret.index()].operands[0];
        let def = body.defining_op(v).unwrap();
        assert_eq!(
            body.ops[def.index()].attr(AttrKey::Value).unwrap().as_int(),
            Some(3)
        );
    }

    /// Figure 1C, complete pipeline with GRN:
    /// `case b of True => 7 | False => 7` ⇒ `return 7`.
    #[test]
    fn common_branch_elimination_fig1c() {
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        for _ in 0..2 {
            let mut b = Builder::at_end(&mut body, entry);
            let (_rv, inner) = b.rgn_val(&[]);
            let mut ib = Builder::at_end(&mut body, inner);
            let v = ib.lp_int(7);
            ib.lp_ret(v);
        }
        let (x, y) = {
            let vals: Vec<ValueId> = walk(&body)
                .iter()
                .filter(|&&op| body.ops[op.index()].opcode == Opcode::RgnVal)
                .map(|&op| body.ops[op.index()].result().unwrap())
                .collect();
            (vals[0], vals[1])
        };
        let mut b = Builder::at_end(&mut body, entry);
        let sel = b.select(params[0], x, y);
        b.rgn_run(sel, vec![]);

        // Step 1: GRN merges the two regions (select sees %w, %w).
        assert!(crate::rgn::grn::run_on_body(
            &mut body,
            &mut Default::default()
        ));
        // Step 2: canonicalize folds the select and inlines the run.
        assert!(canonicalize(&mut body));
        let ops: Vec<Opcode> = walk(&body)
            .iter()
            .map(|&op| body.ops[op.index()].opcode)
            .collect();
        assert_eq!(ops, vec![Opcode::LpInt, Opcode::LpReturn]);
    }

    /// Figure 1A: dead region elimination is the driver's dead-op erasure.
    #[test]
    fn dead_region_elimination_fig1a() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (_dead, bd) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, bd);
            let v = ib.lp_int(99);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        let (live, bl) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, bl);
            let v = ib.lp_int(1);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(live, vec![]);
        assert!(canonicalize(&mut body));
        // The dead region is gone and the live one inlined.
        let ops: Vec<Opcode> = walk(&body)
            .iter()
            .map(|&op| body.ops[op.index()].opcode)
            .collect();
        assert_eq!(ops, vec![Opcode::LpInt, Opcode::LpReturn]);
    }

    #[test]
    fn run_with_args_substitutes_params() {
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[Type::Obj]);
        {
            let arg = b.body.blocks[inner.index()].args[0];
            let mut ib = Builder::at_end(b.body, inner);
            let c = ib.lp_construct(1, vec![arg]);
            ib.lp_ret(c);
        }
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(rv, vec![params[0]]);
        assert!(canonicalize(&mut body));
        let construct = walk(&body)
            .into_iter()
            .find(|&op| body.ops[op.index()].opcode == Opcode::LpConstruct)
            .unwrap();
        assert_eq!(body.ops[construct.index()].operands, vec![params[0]]);
    }

    #[test]
    fn shared_region_not_inlined() {
        // A region value with two run sites must not be duplicated.
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let b2 = body.new_block(ROOT_REGION, &[]);
        let b3 = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, inner);
            let v = ib.lp_int(1);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        b.cond_br(params[0], (b2, vec![]), (b3, vec![]));
        Builder::at_end(&mut body, b2).rgn_run(rv, vec![]);
        Builder::at_end(&mut body, b3).rgn_run(rv, vec![]);
        assert!(!canonicalize(&mut body));
        let n_runs = walk(&body)
            .iter()
            .filter(|&&op| body.ops[op.index()].opcode == Opcode::RgnRun)
            .count();
        assert_eq!(n_runs, 2);
    }
}
