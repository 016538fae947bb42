//! CFG simplification: unreachable-block removal and straight-line block
//! merging. Runs after the `rgn`→CFG lowering to tidy the jump-table code it
//! emits (§IV-C).
//!
//! Both walks keep their tables in [`CfgBuffers`], dense over block ids and
//! reused for every body of a pass run.

use crate::body::Body;
use crate::dom::successors;
use crate::ids::{BlockId, ValueId};
use crate::module::Module;
use crate::opcode::Opcode;
use crate::pass::{for_each_function, Pass};

/// The CFG simplification pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimplifyCfgPass;

impl Pass for SimplifyCfgPass {
    fn name(&self) -> &'static str {
        "simplify-cfg"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        let mut bufs = CfgBuffers::default();
        for_each_function(module, |_, body| run_on_body(body, &mut bufs))
    }
}

/// The tables of the CFG walks, reused across bodies; every call resets
/// what it uses.
#[derive(Debug, Default)]
pub struct CfgBuffers {
    /// Per block id: reached from its region's entry. All `false` between
    /// calls.
    reached: Vec<bool>,
    /// The blocks reached so far, in discovery order.
    seen: Vec<BlockId>,
    /// Per block id: predecessor edges within the region being merged.
    pred_edges: Vec<u32>,
    /// The arguments of the branch being folded into its successor.
    args: Vec<ValueId>,
}

/// Runs CFG simplification on one body. Returns whether anything changed.
pub fn run_on_body(body: &mut Body, bufs: &mut CfgBuffers) -> bool {
    let mut changed = false;
    loop {
        let mut round = remove_unreachable_blocks(body, bufs);
        round |= merge_straightline_blocks(body, bufs);
        changed |= round;
        if !round {
            break;
        }
    }
    changed
}

/// Removes blocks unreachable from their region's entry. Returns whether
/// anything was removed.
///
/// Reachability is a plain graph walk (no dominator tree) over one bitmap
/// shared by all regions; a single-block region is skipped outright, since
/// its only block is the entry.
pub fn remove_unreachable_blocks(body: &mut Body, bufs: &mut CfgBuffers) -> bool {
    let mut changed = false;
    let CfgBuffers { reached, seen, .. } = bufs;
    for ri in 0..body.regions.len() {
        if body.regions[ri].blocks.len() < 2 {
            continue;
        }
        // Skip detached regions (their parent op was erased).
        if ri != 0 && body.regions[ri].parent.is_none() {
            continue;
        }
        if reached.len() < body.blocks.len() {
            reached.resize(body.blocks.len(), false);
        }
        let entry = body.regions[ri].blocks[0];
        reached[entry.index()] = true;
        seen.push(entry);
        let mut next = 0;
        while let Some(&b) = seen.get(next) {
            next += 1;
            for s in successors(body, b) {
                if !reached[s.block.index()] {
                    reached[s.block.index()] = true;
                    seen.push(s.block);
                }
            }
        }
        if body.regions[ri].blocks.iter().any(|b| !reached[b.index()]) {
            // The region's block list is not changed by erasing the ops of
            // its dead blocks, only by the `retain` below.
            for k in 0..body.regions[ri].blocks.len() {
                let b = body.regions[ri].blocks[k];
                if reached[b.index()] {
                    continue;
                }
                let ops = std::mem::take(&mut body.blocks[b.index()].ops);
                for op in ops {
                    body.ops[op.index()].parent = None;
                    body.erase_op(op);
                }
                body.blocks[b.index()].parent = None;
            }
            body.regions[ri].blocks.retain(|b| reached[b.index()]);
            changed = true;
        }
        for b in seen.drain(..) {
            reached[b.index()] = false;
        }
    }
    changed
}

/// Merges each block that is the unique successor of a block ending in an
/// unconditional branch, when it is also that block's unique predecessor
/// edge. Returns whether anything changed.
pub fn merge_straightline_blocks(body: &mut Body, bufs: &mut CfgBuffers) -> bool {
    let mut changed = false;
    let CfgBuffers {
        pred_edges, args, ..
    } = bufs;
    for ri in 0..body.regions.len() {
        if body.regions[ri].blocks.len() < 2 {
            continue;
        }
        if ri != 0 && body.regions[ri].parent.is_none() {
            continue;
        }
        'merge: loop {
            // Count predecessor edges per block within this region.
            pred_edges.clear();
            pred_edges.resize(body.blocks.len(), 0);
            for &b in &body.regions[ri].blocks {
                if let Some(t) = body.terminator(b) {
                    for s in &body.ops[t.index()].successors {
                        pred_edges[s.block.index()] += 1;
                    }
                }
            }
            // The region's block list changes only when a merge restarts
            // the loop.
            for k in 0..body.regions[ri].blocks.len() {
                let pred = body.regions[ri].blocks[k];
                let Some(term) = body.terminator(pred) else {
                    continue;
                };
                if body.ops[term.index()].opcode != Opcode::Br {
                    continue;
                }
                let succ = body.ops[term.index()].successors[0].block;
                // Never merge the region entry (it has an implicit
                // predecessor: the region's own entry edge).
                if succ == pred
                    || succ == body.regions[ri].blocks[0]
                    || pred_edges[succ.index()] != 1
                {
                    continue;
                }
                // Rewire: block args become the branch operands.
                args.clear();
                args.extend_from_slice(&body.ops[term.index()].successors[0].args);
                let params = body.blocks[succ.index()].args.len().min(args.len());
                for (i, &a) in args[..params].iter().enumerate() {
                    let p = body.blocks[succ.index()].args[i];
                    body.replace_all_uses(p, a);
                }
                body.erase_op(term);
                let moved = std::mem::take(&mut body.blocks[succ.index()].ops);
                for &op in &moved {
                    body.ops[op.index()].parent = Some(pred);
                }
                body.blocks[pred.index()].ops.extend(moved);
                body.blocks[succ.index()].parent = None;
                body.regions[ri].blocks.retain(|&b| b != succ);
                changed = true;
                continue 'merge;
            }
            break;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Type;

    #[test]
    fn straightline_chain_merges_to_one_block() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let b1 = body.new_block(ROOT_REGION, &[Type::I64]);
        let b2 = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(1, Type::I64);
        let s = b.addi(params[0], c);
        b.br(b1, vec![s]);
        let arg = body.blocks[b1.index()].args[0];
        let mut bb1 = Builder::at_end(&mut body, b1);
        bb1.br(b2, vec![]);
        let mut bb2 = Builder::at_end(&mut body, b2);
        bb2.ret(arg);
        assert!(run_on_body(&mut body, &mut CfgBuffers::default()));
        assert_eq!(body.regions[0].blocks.len(), 1);
        // return now directly uses the add result.
        let ret = body.terminator(entry).unwrap();
        assert_eq!(body.ops[ret.index()].operands, vec![s]);
    }

    #[test]
    fn diamond_is_not_merged() {
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let c = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[Type::I64]);
        let mut b = Builder::at_end(&mut body, entry);
        b.cond_br(params[0], (a, vec![]), (c, vec![]));
        let mut ba = Builder::at_end(&mut body, a);
        let va = ba.const_i(1, Type::I64);
        ba.br(join, vec![va]);
        let mut bc = Builder::at_end(&mut body, c);
        let vc = bc.const_i(2, Type::I64);
        bc.br(join, vec![vc]);
        let arg = body.blocks[join.index()].args[0];
        let mut bj = Builder::at_end(&mut body, join);
        bj.ret(arg);
        assert!(!run_on_body(&mut body, &mut CfgBuffers::default()));
        assert_eq!(body.regions[0].blocks.len(), 4);
    }

    #[test]
    fn self_loop_not_merged() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let lp = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).br(lp, vec![]);
        Builder::at_end(&mut body, lp).br(lp, vec![]);
        // entry->lp merges (single edge), then lp self-branches; must not
        // merge the self loop or loop forever.
        run_on_body(&mut body, &mut CfgBuffers::default());
        assert!(!body.regions[0].blocks.is_empty());
    }
}
