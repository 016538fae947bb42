//! Dominator trees for region CFGs.
//!
//! Each region is a single-entry sub-CFG; dominance inside one region is
//! computed with the Cooper–Harvey–Kennedy iterative algorithm. Cross-region
//! visibility (a nested region sees values of enclosing regions) is resolved
//! by [`DomInfo::value_dominates_op`], mirroring MLIR's dominance rules.
//!
//! Block ids are dense arena indices, so the analysis works on `Vec` tables
//! rather than hash maps. The tables are numbered per region, not per body:
//! their size follows the region's block-id span, so the many small regions
//! of an `rgn` body each cost what they contain. A single-block region —
//! most `rgn.val` bodies — takes a fast path and allocates nothing, as in
//! MLIR's `DominanceInfo`. [`DomTree::recompute`] and
//! [`DomInfo::recompute`] rebuild a tree in the tables of the last one, so
//! a pass that needs dominance in many regions or bodies keeps one and
//! allocates only when a region is larger than every one before it.

use crate::body::{Body, Successor, ValueDef};
use crate::ids::{BlockId, OpId, RegionId, ValueId};

/// Table entry for "no such block / op here".
const NONE: u32 = u32::MAX;

/// The CFG successors of `block` (empty when it has no terminator).
pub(crate) fn successors(body: &Body, block: BlockId) -> &[Successor] {
    match body.terminator(block) {
        Some(t) => &body.ops[t.index()].successors,
        None => &[],
    }
}

/// Dominator tree for one region.
#[derive(Debug, Clone, Default)]
pub struct DomTree {
    /// The region's entry block.
    entry: BlockId,
    /// Smallest block id of the region; `rpo` is indexed by `id - base`.
    base: u32,
    /// Reverse-postorder number of every block id in `base..base + len`,
    /// or `NONE` for blocks that are unreachable or belong to another
    /// region. Empty for a single-block region, whose only reachable block
    /// is the entry.
    rpo: Vec<u32>,
    /// Immediate dominator of each reachable block, both as reverse-postorder
    /// numbers (the entry, number 0, is its own).
    idom: Vec<u32>,
    /// Working tables of the computation, kept for the next one.
    scratch: DomScratch,
}

/// The tables [`DomTree::recompute`] builds the tree from.
#[derive(Debug, Clone, Default)]
struct DomScratch {
    /// Reachable blocks in postorder, then reversed.
    order: Vec<BlockId>,
    /// DFS stack: a block and the index of its next successor.
    stack: Vec<(BlockId, usize)>,
    /// Row starts of `preds`, by reverse-postorder number.
    start: Vec<u32>,
    /// Predecessors by reverse-postorder number, in compressed rows.
    preds: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree for `region` of `body`.
    pub fn compute(body: &Body, region: RegionId) -> DomTree {
        let mut tree = DomTree::default();
        tree.recompute(body, region);
        tree
    }

    /// Replaces this tree by the dominator tree for `region` of `body`,
    /// reusing its tables.
    pub fn recompute(&mut self, body: &Body, region: RegionId) {
        let blocks = &body.regions[region.index()].blocks;
        let entry = blocks[0];
        let tree = self;
        tree.entry = entry;
        tree.base = entry.0;
        tree.rpo.clear();
        tree.idom.clear();
        if blocks.len() == 1 {
            return;
        }
        let (lo, hi) = blocks
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), b| (lo.min(b.0), hi.max(b.0)));
        let span = (hi - lo) as usize + 1;
        tree.base = lo;
        tree.rpo.resize(span, NONE);
        let DomScratch {
            order,
            stack,
            start,
            preds,
        } = &mut tree.scratch;
        // A block's slot in `rpo`, if it belongs to this region.
        let slot = |b: BlockId| {
            let i = b.0.wrapping_sub(lo) as usize;
            (i < span && body.blocks[b.index()].parent == Some(region)).then_some(i)
        };
        // Postorder by iterative DFS over the region's own blocks; `rpo`
        // doubles as the visited set until the numbers are assigned.
        const SEEN: u32 = NONE - 1;
        order.clear();
        stack.clear();
        stack.push((entry, 0));
        tree.rpo[(entry.0 - lo) as usize] = SEEN;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            match successors(body, b).get(*i) {
                Some(s) => {
                    *i += 1;
                    let s = s.block;
                    if let Some(j) = slot(s).filter(|&j| tree.rpo[j] == NONE) {
                        tree.rpo[j] = SEEN;
                        stack.push((s, 0));
                    }
                }
                None => {
                    order.push(b);
                    stack.pop();
                }
            }
        }
        let n = order.len();
        order.reverse();
        for (i, &b) in order.iter().enumerate() {
            tree.rpo[(b.0 - lo) as usize] = i as u32;
        }
        let rpo = &tree.rpo;
        let number = |b: BlockId| {
            let n = *rpo.get(b.0.wrapping_sub(lo) as usize)?;
            (n != NONE).then_some(n)
        };
        // Predecessors by reverse-postorder number, in compressed rows:
        // `preds[start[b]..start[b + 1]]`. Count each row's edges, turn the
        // counts into row ends, then fill every row back to front.
        start.clear();
        start.resize(n + 1, 0);
        for &b in order.iter() {
            for s in successors(body, b) {
                if let Some(sn) = number(s.block) {
                    start[sn as usize] += 1;
                }
            }
        }
        for i in 1..=n {
            start[i] += start[i - 1];
        }
        preds.clear();
        preds.resize(start[n] as usize, 0);
        for (bn, &b) in order.iter().enumerate() {
            for s in successors(body, b) {
                if let Some(sn) = number(s.block) {
                    start[sn as usize] -= 1;
                    preds[start[sn as usize] as usize] = bn as u32;
                }
            }
        }
        // Iterative idom fixpoint. Dominators precede in reverse postorder,
        // so walking up the tree strictly decreases the number.
        let idom = &mut tree.idom;
        idom.resize(n, NONE);
        idom[0] = 0;
        let intersect = |idom: &[u32], mut a: u32, mut b: u32| {
            while a != b {
                while a > b {
                    a = idom[a as usize];
                }
                while b > a {
                    b = idom[b as usize];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                let mut new_idom = NONE;
                for &p in &preds[start[b] as usize..start[b + 1] as usize] {
                    if idom[p as usize] == NONE {
                        continue;
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(idom, new_idom, p)
                    };
                }
                if new_idom != NONE && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
    }

    /// The reverse-postorder number of `b`, or `None` when it is
    /// unreachable from the entry or not in this region.
    fn number(&self, b: BlockId) -> Option<u32> {
        if self.rpo.is_empty() {
            return (b == self.entry).then_some(0);
        }
        let n = *self.rpo.get(b.0.wrapping_sub(self.base) as usize)?;
        (n != NONE).then_some(n)
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let Some(mut cur) = self.number(b) else {
            // Unreachable blocks are dominated by everything by convention.
            return true;
        };
        let Some(target) = self.number(a) else {
            return false;
        };
        while cur > target {
            cur = self.idom[cur as usize];
        }
        cur == target
    }

    /// Whether `b` is reachable from the region entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.number(b).is_some()
    }
}

/// Dominance info for a whole body (all regions).
#[derive(Debug, Default)]
pub struct DomInfo {
    /// Tree per region id; meaningful only where `has_tree` is set.
    trees: Vec<DomTree>,
    /// Per region id: the region has blocks, so `trees` holds its tree.
    has_tree: Vec<bool>,
    /// Each op's index in its parent block's op list, or `NONE` for ops
    /// not listed there.
    op_pos: Vec<u32>,
}

impl DomInfo {
    /// Computes dominance for every region in `body`.
    pub fn compute(body: &Body) -> DomInfo {
        let mut info = DomInfo::default();
        info.recompute(body);
        info
    }

    /// Replaces this info by the dominance of `body`, reusing the tables
    /// of the trees it held.
    pub fn recompute(&mut self, body: &Body) {
        let n = body.regions.len();
        if self.trees.len() < n {
            self.trees.resize_with(n, DomTree::default);
        }
        self.has_tree.clear();
        for (i, r) in body.regions.iter().enumerate() {
            self.has_tree.push(!r.blocks.is_empty());
            if !r.blocks.is_empty() {
                self.trees[i].recompute(body, RegionId(i as u32));
            }
        }
        let op_pos = &mut self.op_pos;
        op_pos.clear();
        op_pos.resize(body.ops.len(), NONE);
        for (bi, block) in body.blocks.iter().enumerate() {
            for (i, &op) in block.ops.iter().enumerate() {
                let pos = &mut op_pos[op.index()];
                if *pos == NONE && body.ops[op.index()].parent == Some(BlockId(bi as u32)) {
                    *pos = i as u32;
                }
            }
        }
    }

    /// The tree for `region`, if it has blocks.
    pub fn tree(&self, region: RegionId) -> Option<&DomTree> {
        let i = region.index();
        self.has_tree.get(i).copied()?.then(|| &self.trees[i])
    }

    /// Whether the definition of `v` properly dominates `user` — including
    /// the cross-region rule (values of enclosing regions are visible inside
    /// nested regions).
    pub fn value_dominates_op(&self, body: &Body, v: ValueId, user: OpId) -> bool {
        let Some(def_block) = body.defining_block(v) else {
            return false;
        };
        let def_region = body.block_region(def_block);
        // Hoist the user to the ancestor at the def's region level.
        let mut user_op = user;
        let mut user_block = match body.ops[user.index()].parent {
            Some(b) => b,
            None => return false,
        };
        loop {
            let user_region = body.block_region(user_block);
            if user_region == def_region {
                break;
            }
            match body.regions[user_region.index()].parent {
                Some(parent_op) => {
                    user_op = parent_op;
                    user_block = match body.ops[parent_op.index()].parent {
                        Some(b) => b,
                        None => return false,
                    };
                }
                None => return false, // def nested deeper than use: not visible
            }
        }
        if user_block == def_block {
            match body.values[v.index()].def {
                ValueDef::BlockArg(..) => true,
                ValueDef::OpResult(def_op, _) => {
                    if def_op == user_op {
                        return false;
                    }
                    // Both ops name `def_block` as their parent.
                    let d = self.op_pos[def_op.index()];
                    let u = self.op_pos[user_op.index()];
                    d != NONE && u != NONE && d < u
                }
            }
        } else {
            match self.tree(def_region) {
                Some(t) => t.dominates(def_block, user_block),
                None => false,
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
    fn diamond_dominance() {
        // entry -> a, b; a -> join; b -> join.
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let b = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[]);
        let mut bu = Builder::at_end(&mut body, entry);
        bu.cond_br(params[0], (a, vec![]), (b, vec![]));
        Builder::at_end(&mut body, a).br(join, vec![]);
        Builder::at_end(&mut body, b).br(join, vec![]);
        let mut bj = Builder::at_end(&mut body, join);
        let c = bj.const_i(0, Type::I64);
        bj.ret(c);
        let t = DomTree::compute(&body, ROOT_REGION);
        assert!(t.dominates(entry, join));
        assert!(t.dominates(entry, a));
        assert!(!t.dominates(a, join));
        assert!(!t.dominates(b, join));
        assert!(t.dominates(join, join));
        assert!(t.is_reachable(join));
    }

    #[test]
    fn chain_dominance() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let b1 = body.new_block(ROOT_REGION, &[]);
        let b2 = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).br(b1, vec![]);
        Builder::at_end(&mut body, b1).br(b2, vec![]);
        let mut b = Builder::at_end(&mut body, b2);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        let t = DomTree::compute(&body, ROOT_REGION);
        assert!(t.dominates(b1, b2));
        assert!(t.dominates(entry, b2));
        assert!(!t.dominates(b2, b1));
    }

    #[test]
    fn unreachable_block() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let dead = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        let mut bd = Builder::at_end(&mut body, dead);
        bd.unreachable();
        let t = DomTree::compute(&body, ROOT_REGION);
        assert!(!t.is_reachable(dead));
    }

    #[test]
    fn same_block_def_use_order() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(1, Type::I64);
        let s = b.addi(c, c);
        b.ret(s);
        let info = DomInfo::compute(&body);
        let add_op = body.defining_op(s).unwrap();
        let const_op = body.defining_op(c).unwrap();
        assert!(info.value_dominates_op(&body, c, add_op));
        assert!(!info.value_dominates_op(&body, s, const_op));
    }

    #[test]
    fn outer_value_visible_in_nested_region() {
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        let mut ib = Builder::at_end(&mut body, inner);
        // Uses the outer function parameter inside the region.
        let ret_op = ib.lp_ret(params[0]);
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(rv, vec![]);
        let info = DomInfo::compute(&body);
        assert!(info.value_dominates_op(&body, params[0], ret_op));
    }

    #[test]
    fn inner_value_not_visible_outside() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        let mut ib = Builder::at_end(&mut body, inner);
        let hidden = ib.lp_int(5);
        ib.lp_ret(hidden);
        let mut b = Builder::at_end(&mut body, entry);
        let run = b.rgn_run(rv, vec![]);
        let info = DomInfo::compute(&body);
        assert!(!info.value_dominates_op(&body, hidden, run));
    }
}
