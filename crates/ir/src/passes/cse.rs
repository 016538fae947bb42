//! Common subexpression elimination.
//!
//! Classical dominance-scoped value numbering over pure, region-free ops.
//! The `rgn` dialect extends this with *global region numbering* (§IV-B.2 of
//! the paper) in `lssa-core`; this pass is the MLIR-builtin baseline it
//! builds on (allocating ops are skipped — merging them would change
//! reference counts). One [`CseBuffers`] serves every region and body of a
//! pass run, so scanning a body allocates only when it outgrows them.

use crate::body::Body;
use crate::dom::DomTree;
use crate::hash::FxHashMap;
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::module::Module;
use crate::opcode::{Opcode, Purity};
use crate::pass::{for_each_function, Pass};
use crate::types::Type;

/// The CSE pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct CsePass;

impl Pass for CsePass {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        let mut bufs = CseBuffers::default();
        for_each_function(module, |_, body| run_on_body(body, &mut bufs))
    }
}

/// CSE's tables, reused for every region and body of a pass run: the
/// value table (cleared per region, so it keeps its capacity), the op list
/// of the block being scanned and a dominator tree rebuilt in place.
#[derive(Debug, Default)]
pub struct CseBuffers {
    table: FxHashMap<CseKey, (ValueId, BlockId)>,
    ops: Vec<OpId>,
    tree: DomTree,
}

/// A structural key identifying a pure computation. Reuses the op's inline
/// list types so building a key allocates nothing for unspilled lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CseKey {
    opcode: Opcode,
    operands: crate::body::OperandList,
    attrs: crate::body::AttrList,
    ty: Option<Type>,
}

/// Runs CSE on one body. Returns whether anything changed.
pub fn run_on_body(body: &mut Body, bufs: &mut CseBuffers) -> bool {
    let mut changed = false;
    for ri in 0..body.regions.len() {
        let region = RegionId(ri as u32);
        if body.regions[ri].blocks.is_empty() {
            continue;
        }
        if ri != 0 && body.regions[ri].parent.is_none() {
            continue;
        }
        changed |= cse_region(body, region, bufs);
    }
    changed
}

fn cse_region(body: &mut Body, region: RegionId, bufs: &mut CseBuffers) -> bool {
    // Dominance is needed only once two keys meet. Until then nothing is
    // replaced and every key in the table is distinct; when the tree is
    // built, the entries of unreachable blocks leave the table, which is
    // the table a walk of the reachable blocks alone would have built.
    // The table is only ever probed by key, so its capacity — and with it
    // its iteration order — cannot steer a decision.
    let CseBuffers { table, ops, tree } = bufs;
    let mut have_tree = false;
    table.clear();
    let mut changed = false;
    // Erasing ops never changes a region's block list.
    for k in 0..body.regions[region.index()].blocks.len() {
        let block = body.regions[region.index()].blocks[k];
        if have_tree && !tree.is_reachable(block) {
            continue;
        }
        ops.clear();
        ops.extend_from_slice(&body.blocks[block.index()].ops);
        for &op in ops.iter() {
            let data = &body.ops[op.index()];
            if data.dead
                || data.opcode.purity() != Purity::Pure
                || !data.regions.is_empty()
                || data.results.len() != 1
            {
                continue;
            }
            let key = CseKey {
                opcode: data.opcode,
                operands: data.operands.clone(),
                attrs: data.attrs.clone(),
                ty: data.result().map(|r| body.value_type(r)),
            };
            if !have_tree && table.contains_key(&key) {
                tree.recompute(body, region);
                have_tree = true;
                table.retain(|_, &mut (_, b)| tree.is_reachable(b));
                if !tree.is_reachable(block) {
                    break;
                }
            }
            match table.get(&key) {
                // An entry can meet `key` only once the tree exists.
                Some(&(existing, def_block))
                    if def_block == block || (have_tree && tree.dominates(def_block, block)) =>
                {
                    let result = body.ops[op.index()].result().unwrap();
                    body.replace_all_uses(result, existing);
                    body.erase_op(op);
                    changed = true;
                }
                _ => {
                    let result = body.ops[op.index()].result().unwrap();
                    table.insert(key, (result, block));
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::CmpPred;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;

    #[test]
    fn duplicate_constants_merge() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c1 = b.const_i(7, Type::I64);
        let c2 = b.const_i(7, Type::I64);
        let s = b.addi(c1, c2);
        b.ret(s);
        assert!(run_on_body(&mut body, &mut CseBuffers::default()));
        let add = body.defining_op(s).unwrap();
        let ops = body.ops[add.index()].operands.clone();
        assert_eq!(ops[0], ops[1]);
        assert_eq!(body.live_op_count(), 3);
    }

    #[test]
    fn different_attrs_do_not_merge() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c1 = b.const_i(7, Type::I64);
        let c2 = b.const_i(8, Type::I64);
        let s = b.addi(c1, c2);
        b.ret(s);
        assert!(!run_on_body(&mut body, &mut CseBuffers::default()));
    }

    #[test]
    fn duplicate_expression_across_dominated_block() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let next = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let e1 = b.muli(params[0], params[0]);
        b.br(next, vec![]);
        let mut bn = Builder::at_end(&mut body, next);
        let e2 = bn.muli(params[0], params[0]);
        bn.ret(e2);
        assert!(run_on_body(&mut body, &mut CseBuffers::default()));
        let ret = body.terminator(next).unwrap();
        assert_eq!(body.ops[ret.index()].operands, vec![e1]);
    }

    #[test]
    fn sibling_branches_do_not_cse_into_each_other() {
        // Two branches of a diamond: neither dominates the other.
        let (mut body, params) = Body::new(&[Type::I1, Type::I64]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let c = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        b.cond_br(params[0], (a, vec![]), (c, vec![]));
        let mut ba = Builder::at_end(&mut body, a);
        let va = ba.muli(params[1], params[1]);
        ba.ret(va);
        let mut bc = Builder::at_end(&mut body, c);
        let vc = bc.muli(params[1], params[1]);
        bc.ret(vc);
        assert!(!run_on_body(&mut body, &mut CseBuffers::default()));
        assert!(!body.ops[body.defining_op(vc).unwrap().index()].dead);
        assert!(!body.ops[body.defining_op(va).unwrap().index()].dead);
    }

    #[test]
    fn allocating_ops_not_merged() {
        // Two identical lp.construct allocations must stay distinct (their
        // results are separately consumed references).
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let n1 = b.lp_construct(0, vec![]);
        let n2 = b.lp_construct(0, vec![]);
        let pair = b.lp_construct(1, vec![n1, n2]);
        b.lp_ret(pair);
        assert!(!run_on_body(&mut body, &mut CseBuffers::default()));
        assert_eq!(body.live_op_count(), 4);
    }

    #[test]
    fn cmp_with_same_pred_merges() {
        let (mut body, params) = Body::new(&[Type::I64, Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c1 = b.cmpi(CmpPred::Slt, params[0], params[1]);
        let c2 = b.cmpi(CmpPred::Slt, params[0], params[1]);
        let c3 = b.cmpi(CmpPred::Sgt, params[0], params[1]);
        let x = b.andi(c1, c2);
        let y = b.andi(x, c3);
        b.ret(y);
        let before = body.live_op_count();
        assert!(run_on_body(&mut body, &mut CseBuffers::default()));
        assert_eq!(body.live_op_count(), before - 1);
    }
}
