//! Per-block liveness: which values are live at each block boundary.
//!
//! A classic backward may-analysis on the [`dataflow`](super::dataflow)
//! solver. Successor arguments count as uses at the branching block's
//! terminator; block arguments are definitions at the head of their block,
//! so they never appear in their own live-in set.
//!
//! Region-carrying ops (`rgn.val`) are treated as one super-op: every value
//! a nested region captures from the enclosing scope is a use at the
//! carrying op, and values defined inside the region stay internal.

use super::cfg::BlockGraph;
use super::dataflow::{solve, Analysis, Direction, Solution};
use crate::body::Body;
use crate::hash::FxHashSet;
use crate::ids::{BlockId, OpId, ValueId};

/// The liveness fixpoint for one region.
#[derive(Debug, Clone)]
pub struct Liveness {
    solution: Solution<FxHashSet<ValueId>>,
}

impl Liveness {
    /// Computes liveness for the region covered by `graph`.
    pub fn compute(body: &Body, graph: &BlockGraph) -> Liveness {
        let solution = solve(&LivenessAnalysis, body, graph);
        Liveness { solution }
    }

    /// Values live at the start of `b` (before its block arguments bind);
    /// `None` if `b` is unreachable.
    pub fn live_in(&self, b: BlockId) -> Option<&FxHashSet<ValueId>> {
        self.solution.entry_of(b)
    }

    /// Values live at the end of `b`; `None` if `b` is unreachable.
    pub fn live_out(&self, b: BlockId) -> Option<&FxHashSet<ValueId>> {
        self.solution.exit_of(b)
    }
}

struct LivenessAnalysis;

impl Analysis for LivenessAnalysis {
    type Fact = FxHashSet<ValueId>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> FxHashSet<ValueId> {
        FxHashSet::default()
    }

    fn boundary(&self, _body: &Body) -> FxHashSet<ValueId> {
        FxHashSet::default()
    }

    fn transfer(
        &self,
        body: &Body,
        block: BlockId,
        input: &FxHashSet<ValueId>,
    ) -> FxHashSet<ValueId> {
        let mut live = input.clone();
        for &op in body.blocks[block.index()].ops.iter().rev() {
            let (uses, defs) = op_uses_defs(body, op);
            for d in defs {
                live.remove(&d);
            }
            live.extend(uses);
        }
        for a in &body.blocks[block.index()].args {
            live.remove(a);
        }
        live
    }

    fn join(&self, into: &mut FxHashSet<ValueId>, from: &FxHashSet<ValueId>) -> bool {
        let before = into.len();
        into.extend(from.iter().copied());
        into.len() != before
    }
}

/// The uses and defs of `op`, folding nested regions into the op itself:
/// captures of enclosing values count as uses, internally-defined values as
/// defs (so they cancel out of the enclosing live set).
fn op_uses_defs(body: &Body, op: OpId) -> (FxHashSet<ValueId>, FxHashSet<ValueId>) {
    let mut uses: FxHashSet<ValueId> = FxHashSet::default();
    let mut defs: FxHashSet<ValueId> = FxHashSet::default();
    collect_op(body, op, &mut uses, &mut defs);
    // A value both defined and used inside the super-op is internal traffic.
    let uses = uses.difference(&defs).copied().collect();
    (uses, defs)
}

fn collect_op(body: &Body, op: OpId, uses: &mut FxHashSet<ValueId>, defs: &mut FxHashSet<ValueId>) {
    let data = &body.ops[op.index()];
    uses.extend(data.operands.iter().copied());
    for s in &data.successors {
        uses.extend(s.args.iter().copied());
    }
    defs.extend(data.results.iter().copied());
    for &r in &data.regions {
        for &b in &body.regions[r.index()].blocks {
            defs.extend(body.blocks[b.index()].args.iter().copied());
            for &inner in &body.blocks[b.index()].ops {
                collect_op(body, inner, uses, defs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Type;

    #[test]
    fn straight_line_liveness() {
        // %p is consumed by the add; nothing is live at the end.
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let s = b.addi(params[0], params[0]);
        b.ret(s);
        let g = BlockGraph::root(&body);
        let l = Liveness::compute(&body, &g);
        assert!(l.live_in(entry).unwrap().is_empty());
        assert!(l.live_out(entry).unwrap().is_empty());
    }

    #[test]
    fn diamond_use_in_one_arm() {
        // %p is used only in arm `a`, so it is live-in there and live-out of
        // the entry, but not live-in of arm `b`.
        let (mut body, params) = Body::new(&[Type::I1, Type::I64]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let bb = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[Type::I64]);
        Builder::at_end(&mut body, entry).cond_br(params[0], (a, vec![]), (bb, vec![]));
        Builder::at_end(&mut body, a).br(join, vec![params[1]]);
        let mut bu = Builder::at_end(&mut body, bb);
        let z = bu.const_i(0, Type::I64);
        bu.br(join, vec![z]);
        let jv = body.blocks[join.index()].args[0];
        Builder::at_end(&mut body, join).ret(jv);
        let g = BlockGraph::root(&body);
        let l = Liveness::compute(&body, &g);
        assert!(l.live_in(a).unwrap().contains(&params[1]));
        assert!(!l.live_in(bb).unwrap().contains(&params[1]));
        assert!(l.live_out(entry).unwrap().contains(&params[1]));
        // The join's own block argument is not live-in to the join.
        assert!(!l.live_in(join).unwrap().contains(&jv));
    }

    #[test]
    fn loop_keeps_invariant_value_live() {
        // %limit flows around the loop: live at the header on every path.
        use crate::attr::CmpPred;
        let (mut body, params) = Body::new(&[Type::I64, Type::I64]);
        let entry = body.entry_block();
        let header = body.new_block(ROOT_REGION, &[Type::I64]);
        let exit = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).br(header, vec![params[0]]);
        let iv = body.blocks[header.index()].args[0];
        let mut bh = Builder::at_end(&mut body, header);
        let c = bh.cmpi(CmpPred::Eq, iv, params[1]);
        bh.cond_br(c, (exit, vec![]), (header, vec![iv]));
        let mut be = Builder::at_end(&mut body, exit);
        let r = be.const_i(0, Type::I64);
        be.ret(r);
        let g = BlockGraph::root(&body);
        let l = Liveness::compute(&body, &g);
        // The limit is live into and out of the header (used each trip).
        assert!(l.live_in(header).unwrap().contains(&params[1]));
        assert!(l.live_out(header).unwrap().contains(&params[1]));
        // The induction variable is a header block-arg: not live-in, and —
        // because edge arguments are uses *at the terminator*, dying on the
        // edge — not live-out either (the back edge rebinds it).
        assert!(!l.live_in(header).unwrap().contains(&iv));
        assert!(!l.live_out(header).unwrap().contains(&iv));
    }

    #[test]
    fn nested_region_capture_counts_as_use() {
        // A rgn.val whose region body uses an enclosing value: the capture
        // registers as a use of the super-op, while values defined inside
        // the region stay internal.
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        let mut ib = Builder::at_end(&mut body, inner);
        let local = ib.lp_int(7);
        let _ = local;
        ib.lp_ret(params[0]);
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(rv, vec![]);
        let rv_op = body.defining_op(rv).unwrap();
        let (uses, defs) = op_uses_defs(&body, rv_op);
        assert!(uses.contains(&params[0]));
        assert!(!uses.contains(&local), "internal value must not escape");
        assert!(defs.contains(&local));
    }
}
