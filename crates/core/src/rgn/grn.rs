//! Global Region Numbering (§IV-B.2): CSE extended to region values.
//!
//! "For straight-line regions, the value number of the region is defined as
//! a rolling hash of the value numbers of all instructions within the
//! region. Two regions have the same value number iff the sequence of
//! instructions have the same value numbers in identical order."
//!
//! Values defined *outside* the region participate by identity (a
//! conservative value numbering); values defined *inside* participate by
//! position. A fingerprint match is confirmed by a full structural
//! comparison before merging, so hash collisions cannot miscompile.

use lssa_ir::body::Body;
use lssa_ir::dom::DomTree;
use lssa_ir::hash::{FxHashMap, FxHasher};
use lssa_ir::ids::{BlockId, OpId, RegionId, ValueId};
use lssa_ir::module::Module;
use lssa_ir::opcode::Opcode;
use lssa_ir::pass::{for_each_function, Pass};
use std::hash::{Hash, Hasher};

/// The GRN pass: merges structurally identical `rgn.val`s (region CSE).
#[derive(Debug, Default, Clone, Copy)]
pub struct GrnPass;

impl Pass for GrnPass {
    fn name(&self) -> &'static str {
        "global-region-numbering"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        for_each_function(module, |_, body| run_on_body(body))
    }
}

/// Runs GRN on one body. Returns whether any regions were merged.
pub fn run_on_body(body: &mut Body) -> bool {
    let mut changed = false;
    // Process every containing region like classical dominance-scoped CSE.
    for ri in 0..body.regions.len() {
        let region = RegionId(ri as u32);
        if body.regions[ri].blocks.is_empty() {
            continue;
        }
        if ri != 0 && body.regions[ri].parent.is_none() {
            continue;
        }
        changed |= grn_region(body, region);
    }
    changed
}

fn grn_region(body: &mut Body, region: RegionId) -> bool {
    let tree = DomTree::compute(body, region);
    let blocks: Vec<BlockId> = body.regions[region.index()].blocks.clone();
    let mut table: FxHashMap<u64, Vec<(OpId, ValueId, BlockId)>> = FxHashMap::default();
    let mut changed = false;
    for &block in &blocks {
        if !tree.is_reachable(block) {
            continue;
        }
        let ops = body.blocks[block.index()].ops.clone();
        for op in ops {
            if body.ops[op.index()].dead || body.ops[op.index()].opcode != Opcode::RgnVal {
                continue;
            }
            let Some(fp) = region_fingerprint(body, body.ops[op.index()].regions[0]) else {
                continue;
            };
            let candidates = table.entry(fp).or_default();
            let mut merged = false;
            for &(prev_op, prev_val, prev_block) in candidates.iter() {
                if body.ops[prev_op.index()].dead {
                    continue;
                }
                let dominates = prev_block == block || tree.dominates(prev_block, block);
                if dominates
                    && regions_structurally_equal(
                        body,
                        body.ops[prev_op.index()].regions[0],
                        body.ops[op.index()].regions[0],
                    )
                {
                    let this_val = body.ops[op.index()].result().unwrap();
                    body.replace_all_uses(this_val, prev_val);
                    body.erase_op(op);
                    changed = true;
                    merged = true;
                    break;
                }
            }
            if !merged {
                let val = body.ops[op.index()].result().unwrap();
                candidates.push((op, val, block));
            }
        }
    }
    changed
}

/// The region's value number: a rolling hash over its instruction sequence.
/// Returns `None` for multi-block ("non-straight-line") regions.
pub fn region_fingerprint(body: &Body, region: RegionId) -> Option<u64> {
    let mut hasher = FxHasher::default();
    let mut numbering: FxHashMap<ValueId, u64> = FxHashMap::default();
    fingerprint_into(body, region, &mut hasher, &mut numbering)?;
    Some(hasher.finish())
}

fn fingerprint_into(
    body: &Body,
    region: RegionId,
    hasher: &mut FxHasher,
    numbering: &mut FxHashMap<ValueId, u64>,
) -> Option<()> {
    let blocks = &body.regions[region.index()].blocks;
    if blocks.len() != 1 {
        return None; // not a straight-line region
    }
    let block = blocks[0];
    let args = &body.blocks[block.index()].args;
    args.len().hash(hasher);
    for (i, &a) in args.iter().enumerate() {
        numbering.insert(a, (1 << 32) | i as u64);
        body.value_type(a).hash(hasher);
    }
    let mut next_local: u64 = 2 << 32;
    for &op in &body.blocks[block.index()].ops {
        let data = &body.ops[op.index()];
        data.opcode.hash(hasher);
        data.attrs.hash(hasher);
        for &o in &data.operands {
            match numbering.get(&o) {
                // Internal value: by position.
                Some(&n) => n.hash(hasher),
                // External value: by identity (conservative GVN).
                None => (u64::MAX ^ o.0 as u64).hash(hasher),
            }
        }
        for &r in &data.results {
            body.value_type(r).hash(hasher);
            numbering.insert(r, next_local);
            next_local += 1;
        }
        for &nested in &data.regions {
            fingerprint_into(body, nested, hasher, numbering)?;
        }
    }
    Some(())
}

/// Full structural equality of two straight-line regions (modulo internal
/// value names). External values must be identical.
pub fn regions_structurally_equal(body: &Body, r1: RegionId, r2: RegionId) -> bool {
    let mut map: FxHashMap<ValueId, ValueId> = FxHashMap::default();
    regions_eq_rec(body, r1, r2, &mut map)
}

fn regions_eq_rec(
    body: &Body,
    r1: RegionId,
    r2: RegionId,
    map: &mut FxHashMap<ValueId, ValueId>,
) -> bool {
    let b1 = &body.regions[r1.index()].blocks;
    let b2 = &body.regions[r2.index()].blocks;
    if b1.len() != 1 || b2.len() != 1 {
        return false;
    }
    let (b1, b2) = (b1[0], b2[0]);
    let a1 = &body.blocks[b1.index()].args;
    let a2 = &body.blocks[b2.index()].args;
    if a1.len() != a2.len() {
        return false;
    }
    for (&x, &y) in a1.iter().zip(a2) {
        if body.value_type(x) != body.value_type(y) {
            return false;
        }
        map.insert(x, y);
    }
    let o1 = &body.blocks[b1.index()].ops;
    let o2 = &body.blocks[b2.index()].ops;
    if o1.len() != o2.len() {
        return false;
    }
    for (&x, &y) in o1.iter().zip(o2) {
        let d1 = &body.ops[x.index()];
        let d2 = &body.ops[y.index()];
        if d1.opcode != d2.opcode
            || d1.attrs != d2.attrs
            || d1.operands.len() != d2.operands.len()
            || d1.results.len() != d2.results.len()
            || d1.regions.len() != d2.regions.len()
        {
            return false;
        }
        for (&p, &q) in d1.operands.iter().zip(&d2.operands) {
            let expected = map.get(&p).copied().unwrap_or(p);
            if expected != q {
                return false;
            }
        }
        for (&p, &q) in d1.results.iter().zip(&d2.results) {
            if body.value_type(p) != body.value_type(q) {
                return false;
            }
            map.insert(p, q);
        }
        for (&p, &q) in d1.regions.iter().zip(&d2.regions) {
            if !regions_eq_rec(body, p, q, map) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_ir::builder::Builder;
    use lssa_ir::prelude::*;

    /// Builds `%x = rgn.val { lp.int k; lp.ret }` and returns the value.
    fn mk_region_const(body: &mut Body, block: BlockId, k: i64) -> ValueId {
        let mut b = Builder::at_end(body, block);
        let (rv, inner) = b.rgn_val(&[]);
        let mut ib = Builder::at_end(body, inner);
        let v = ib.lp_int(k);
        ib.lp_ret(v);
        rv
    }

    #[test]
    fn identical_regions_share_a_number() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let x = mk_region_const(&mut body, entry, 7);
        let y = mk_region_const(&mut body, entry, 7);
        let rx = body.ops[body.defining_op(x).unwrap().index()].regions[0];
        let ry = body.ops[body.defining_op(y).unwrap().index()].regions[0];
        assert_eq!(region_fingerprint(&body, rx), region_fingerprint(&body, ry));
        assert!(regions_structurally_equal(&body, rx, ry));
    }

    #[test]
    fn different_constants_differ() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let x = mk_region_const(&mut body, entry, 7);
        let y = mk_region_const(&mut body, entry, 8);
        let rx = body.ops[body.defining_op(x).unwrap().index()].regions[0];
        let ry = body.ops[body.defining_op(y).unwrap().index()].regions[0];
        assert_ne!(region_fingerprint(&body, rx), region_fingerprint(&body, ry));
        assert!(!regions_structurally_equal(&body, rx, ry));
    }

    #[test]
    fn external_values_compared_by_identity() {
        // Two regions returning different outer values must not merge.
        let (mut body, params) = Body::new(&[Type::Obj, Type::Obj]);
        let entry = body.entry_block();
        let mk = |body: &mut Body, v: ValueId| -> RegionId {
            let mut b = Builder::at_end(body, entry);
            let (rv, inner) = b.rgn_val(&[]);
            let mut ib = Builder::at_end(body, inner);
            ib.lp_ret(v);
            body.ops[body.defining_op(rv).unwrap().index()].regions[0]
        };
        let r1 = mk(&mut body, params[0]);
        let r2 = mk(&mut body, params[1]);
        let r3 = mk(&mut body, params[0]);
        assert_ne!(region_fingerprint(&body, r1), region_fingerprint(&body, r2));
        assert_eq!(region_fingerprint(&body, r1), region_fingerprint(&body, r3));
        assert!(!regions_structurally_equal(&body, r1, r2));
        assert!(regions_structurally_equal(&body, r1, r3));
    }

    #[test]
    fn grn_merges_and_enables_select_fold() {
        // The paper's §IV-B.2 example: case b of True => 7 | False => 7.
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let x = mk_region_const(&mut body, entry, 7);
        let y = mk_region_const(&mut body, entry, 7);
        let mut b = Builder::at_end(&mut body, entry);
        let sel = b.select(params[0], x, y);
        b.rgn_run(sel, vec![]);
        assert!(run_on_body(&mut body));
        // The select now sees the same region on both sides.
        let sel_op = body.defining_op(sel).unwrap();
        let ops = &body.ops[sel_op.index()].operands;
        assert_eq!(ops[1], ops[2], "both branches must be the merged region");
    }

    #[test]
    fn internal_renaming_is_ignored() {
        // Regions differing only in internal SSA names are equal. Build one
        // region with an extra dead-free shape: int, add-like chain via two
        // ints and construct.
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mk = |body: &mut Body| -> ValueId {
            let mut b = Builder::at_end(body, entry);
            let (rv, inner) = b.rgn_val(&[]);
            let mut ib = Builder::at_end(body, inner);
            let a = ib.lp_int(1);
            let c = ib.lp_construct(3, vec![a]);
            ib.lp_ret(c);
            rv
        };
        let x = mk(&mut body);
        let y = mk(&mut body);
        let rx = body.ops[body.defining_op(x).unwrap().index()].regions[0];
        let ry = body.ops[body.defining_op(y).unwrap().index()].regions[0];
        assert!(regions_structurally_equal(&body, rx, ry));
    }

    #[test]
    fn region_args_participate() {
        // Join-point-style regions with different arg counts differ.
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (x, bx) = b.rgn_val(&[Type::Obj]);
        {
            let arg = b.body.blocks[bx.index()].args[0];
            let mut ib = Builder::at_end(b.body, bx);
            ib.lp_ret(arg);
        }
        let mut b = Builder::at_end(&mut body, entry);
        let (y, by) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, by);
            let v = ib.lp_int(0);
            ib.lp_ret(v);
        }
        let rx = body.ops[body.defining_op(x).unwrap().index()].regions[0];
        let ry = body.ops[body.defining_op(y).unwrap().index()].regions[0];
        assert_ne!(region_fingerprint(&body, rx), region_fingerprint(&body, ry));
    }
}
