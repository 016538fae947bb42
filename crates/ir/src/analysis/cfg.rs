//! A cached view of one region's block graph.
//!
//! The arena ([`crate::body::Body`]) stores control flow one-directionally:
//! each terminator lists its successor edges. The RC-linearity checker
//! needs the other three derived artifacts — predecessors, a
//! reverse-postorder, and the reachable set — so [`BlockGraph`] computes
//! all of them once per region and hands out cheap slices.

use crate::body::Body;
use crate::hash::FxHashMap;
use crate::ids::{BlockId, RegionId};

/// Successors, predecessors, and reverse-postorder for one region.
///
/// Only blocks reachable from the region entry appear in [`BlockGraph::rpo`]
/// and the predecessor map; unreachable blocks are listed separately in
/// [`BlockGraph::unreachable`] so clients can choose to skip or flag them.
#[derive(Debug, Clone)]
pub struct BlockGraph {
    entry: BlockId,
    rpo: Vec<BlockId>,
    rpo_index: FxHashMap<BlockId, usize>,
    succs: FxHashMap<BlockId, Vec<BlockId>>,
    preds: FxHashMap<BlockId, Vec<BlockId>>,
    unreachable: Vec<BlockId>,
}

impl BlockGraph {
    /// Builds the graph for `region` of `body`. The region must have at
    /// least one block (the entry).
    pub fn compute(body: &Body, region: RegionId) -> BlockGraph {
        let blocks = &body.regions[region.index()].blocks;
        let entry = blocks[0];
        let succs_of = |b: BlockId| -> Vec<BlockId> {
            match body.terminator(b) {
                Some(t) => body.ops[t.index()]
                    .successors
                    .iter()
                    .map(|s| s.block)
                    .collect(),
                None => Vec::new(),
            }
        };
        // Iterative DFS producing a postorder; reversed below.
        let mut visited = crate::hash::FxHashSet::default();
        let mut postorder = Vec::new();
        let mut stack = vec![(entry, 0usize)];
        visited.insert(entry);
        let mut succs: FxHashMap<BlockId, Vec<BlockId>> = FxHashMap::default();
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let ss = succs.entry(b).or_insert_with(|| succs_of(b));
            if *i < ss.len() {
                let s = ss[*i];
                *i += 1;
                if visited.insert(s) {
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = postorder.iter().rev().copied().collect();
        let rpo_index: FxHashMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let mut preds: FxHashMap<BlockId, Vec<BlockId>> = FxHashMap::default();
        for &b in &rpo {
            for &s in succs.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
                preds.entry(s).or_default().push(b);
            }
        }
        let unreachable: Vec<BlockId> = blocks
            .iter()
            .copied()
            .filter(|b| !rpo_index.contains_key(b))
            .collect();
        BlockGraph {
            entry,
            rpo,
            rpo_index,
            succs,
            preds,
            unreachable,
        }
    }

    /// Convenience: the graph of the function root region.
    pub fn root(body: &Body) -> BlockGraph {
        BlockGraph::compute(body, crate::body::ROOT_REGION)
    }

    /// The region's entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// The position of `b` in the reverse postorder, if reachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        self.rpo_index.get(&b).copied()
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index.contains_key(&b)
    }

    /// CFG successors of `b` (empty for blocks without a branching
    /// terminator, and for blocks never visited).
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.get(&b).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// CFG predecessors of `b` among reachable blocks.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.get(&b).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Blocks of the region that are not reachable from the entry.
    pub fn unreachable(&self) -> &[BlockId] {
        &self.unreachable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::CmpPred;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Type;

    #[test]
    fn diamond_graph_shape() {
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let b = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).cond_br(params[0], (a, vec![]), (b, vec![]));
        Builder::at_end(&mut body, a).br(join, vec![]);
        Builder::at_end(&mut body, b).br(join, vec![]);
        let mut bj = Builder::at_end(&mut body, join);
        let c = bj.const_i(0, Type::I64);
        bj.ret(c);
        let g = BlockGraph::root(&body);
        assert_eq!(g.entry(), entry);
        assert_eq!(g.rpo().len(), 4);
        assert_eq!(g.rpo()[0], entry);
        assert_eq!(g.rpo_index(entry), Some(0));
        // join is last in any RPO of a diamond.
        assert_eq!(g.rpo()[3], join);
        assert_eq!(g.succs(entry), &[a, b]);
        let mut join_preds = g.preds(join).to_vec();
        join_preds.sort_by_key(|b| b.index());
        assert_eq!(join_preds, vec![a, b]);
        assert!(g.unreachable().is_empty());
    }

    #[test]
    fn unreachable_blocks_are_reported() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let dead = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        Builder::at_end(&mut body, dead).unreachable();
        let g = BlockGraph::root(&body);
        assert!(!g.is_reachable(dead));
        assert_eq!(g.unreachable(), &[dead]);
        assert_eq!(g.rpo(), &[entry]);
    }

    #[test]
    fn loop_preds_include_back_edge() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let header = body.new_block(ROOT_REGION, &[Type::I64]);
        let exit = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).br(header, vec![params[0]]);
        let hv = body.blocks[header.index()].args[0];
        let mut bh = Builder::at_end(&mut body, header);
        let z = bh.const_i(0, Type::I64);
        let c = bh.cmpi(CmpPred::Eq, hv, z);
        bh.cond_br(c, (exit, vec![]), (header, vec![hv]));
        let mut be = Builder::at_end(&mut body, exit);
        let r = be.const_i(1, Type::I64);
        be.ret(r);
        let g = BlockGraph::root(&body);
        let mut hp = g.preds(header).to_vec();
        hp.sort_by_key(|b| b.index());
        assert_eq!(hp, vec![entry, header]);
        assert_eq!(g.succs(header), &[exit, header]);
    }
}
