//! Greedy pattern rewriting — the engine behind canonicalization.
//!
//! Patterns implement [`RewritePattern`] and name the opcodes they can
//! rewrite, as an MLIR pattern names its root op. A [`PatternSet`] indexes
//! them by those root opcodes, and [`apply_patterns_greedily`] sweeps the
//! op list to a fixpoint, like MLIR's `applyPatternsAndFoldGreedily`: each
//! op is offered only the patterns rooted at its opcode, in list order.
//! Every sweep ends by erasing trivially dead ops
//! ([`erase_trivially_dead`]), so dead-region elimination (§IV-B.1) needs
//! no pass of its own: an unused `rgn.val` is a dead pure op. A sweep in
//! which no pattern fired hands its own walk to that erasure, so a body
//! with nothing to rewrite costs one walk of its region tree.
//!
//! The walk, the use counts and the erasure worklist live in
//! [`RewriteBuffers`], which a pass creates once per run and hands to the
//! driver for every body: after the first few bodies a sweep allocates
//! nothing.
//!
//! The `rgn` dialect's optimizations in `lssa-core` are expressed as
//! patterns over this same driver — that is the paper's point: region
//! transformations *are* classical SSA rewrites.

use crate::body::Body;
use crate::ids::OpId;
use crate::module::Module;
use crate::opcode::{Opcode, Purity};

/// Context visible to patterns (module-level lookups).
#[derive(Debug, Clone, Copy)]
pub struct RewriteCtx<'a> {
    /// The enclosing module (function signatures, globals). The function
    /// currently being rewritten has its body detached.
    pub module: &'a Module,
}

/// A local rewrite.
pub trait RewritePattern {
    /// Pattern name (debugging/statistics).
    fn name(&self) -> &'static str;

    /// The opcodes this pattern can rewrite. The driver offers it no other
    /// op, so the list must hold every opcode on which
    /// [`RewritePattern::match_and_rewrite`] can return `true`.
    fn roots(&self) -> &'static [Opcode];

    /// Attempts to rewrite `op`; returns `true` when IR changed. On `true`
    /// the driver re-enqueues everything, so a pattern may leave dead ops
    /// behind (DCE-style cleanup happens in the driver).
    fn match_and_rewrite(&self, body: &mut Body, op: OpId, ctx: &RewriteCtx<'_>) -> bool;
}

/// A list of patterns indexed by root opcode, built once and applied to
/// many bodies (MLIR's frozen pattern set).
pub struct PatternSet {
    patterns: Vec<Box<dyn RewritePattern>>,
    /// For each opcode (by discriminant) `o`, the indices of the patterns
    /// rooted at it, ascending, are `by_root[starts[o]..starts[o + 1]]`.
    starts: Vec<u32>,
    by_root: Vec<u32>,
}

/// The greedy driver's buffers: a region-tree walk, use counts, the
/// region-tree membership of each op and the erasure worklist. One set
/// serves every body of a pass run; each call overwrites what it uses.
#[derive(Debug, Default)]
pub struct RewriteBuffers {
    walk: Vec<OpId>,
    counts: Vec<u32>,
    in_tree: Vec<bool>,
    worklist: Vec<OpId>,
}

impl std::fmt::Debug for PatternSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.patterns.iter().map(|p| p.name()))
            .finish()
    }
}

impl PatternSet {
    /// Indexes `patterns`; their list order is the order in which the
    /// driver tries them on an op.
    pub fn new(patterns: Vec<Box<dyn RewritePattern>>) -> PatternSet {
        // Compressed rows, one per opcode: count each row, turn the counts
        // into row ends, then fill every row back to front, so the index
        // costs two allocations however many opcodes the patterns root at.
        let mut starts = vec![0u32; Opcode::ALL.len() + 1];
        for p in &patterns {
            for (k, &root) in p.roots().iter().enumerate() {
                if !p.roots()[..k].contains(&root) {
                    starts[root as usize] += 1;
                }
            }
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut by_root = vec![0u32; starts[Opcode::ALL.len()] as usize];
        for (i, p) in patterns.iter().enumerate().rev() {
            for (k, &root) in p.roots().iter().enumerate().rev() {
                if !p.roots()[..k].contains(&root) {
                    starts[root as usize] -= 1;
                    by_root[starts[root as usize] as usize] = i as u32;
                }
            }
        }
        PatternSet {
            patterns,
            starts,
            by_root,
        }
    }

    /// The first pattern at index `from` or later rooted at `opcode`.
    fn next_for(&self, opcode: Opcode, from: usize) -> Option<usize> {
        let row = self.starts[opcode as usize] as usize..self.starts[opcode as usize + 1] as usize;
        self.by_root[row]
            .iter()
            .map(|&i| i as usize)
            .find(|&i| i >= from)
    }
}

/// Applies `patterns` until no pattern fires anywhere.
///
/// Each sweep offers every op of the region tree the patterns rooted at its
/// current opcode, in list order, until the op dies; then trivially-dead
/// pure ops are erased (patterns routinely strand constant or selector
/// ops).
///
/// Returns whether anything changed.
///
/// # Panics
///
/// Panics after an excessive number of sweeps, which indicates a pattern
/// that reports "changed" without making progress.
pub fn apply_patterns_greedily(
    body: &mut Body,
    ctx: &RewriteCtx<'_>,
    patterns: &PatternSet,
    bufs: &mut RewriteBuffers,
) -> bool {
    let mut changed_any = false;
    for sweep in 0.. {
        assert!(
            sweep < 1000,
            "pattern rewriting failed to converge after 1000 sweeps"
        );
        body.walk_ops(&mut bufs.walk);
        let mut fired = false;
        for &op in &bufs.walk {
            let mut from = 0;
            loop {
                let data = &body.ops[op.index()];
                if data.dead || data.parent.is_none() {
                    break;
                }
                let Some(i) = patterns.next_for(data.opcode, from) else {
                    break;
                };
                from = i + 1;
                fired |= patterns.patterns[i].match_and_rewrite(body, op, ctx);
            }
        }
        // A quiet sweep left the region tree as it walked it.
        if fired {
            body.walk_ops(&mut bufs.walk);
        }
        let changed = erase_dead_ops(body, bufs) | fired;
        changed_any |= changed;
        if !changed {
            break;
        }
    }
    changed_any
}

/// Erases pure/alloc ops whose results are all unused, then every such op
/// that becomes unused in turn. Returns whether anything was erased.
///
/// One worklist pass: use counts are taken once ([`Body::use_counts`]), and
/// erasing an op decrements the counts of the values used by it and by the
/// ops nested in its regions; a count that drops to zero queues the value's
/// defining op. Only ops of the region tree ([`Body::walk_ops`]) are
/// erased. Erasure only ever removes uses, so the result does not depend
/// on the order: it is the set a recount-until-stable loop reaches.
pub fn erase_trivially_dead(body: &mut Body, bufs: &mut RewriteBuffers) -> bool {
    body.walk_ops(&mut bufs.walk);
    erase_dead_ops(body, bufs)
}

/// [`erase_trivially_dead`] given the body's current region-tree walk in
/// `bufs.walk`.
fn erase_dead_ops(body: &mut Body, bufs: &mut RewriteBuffers) -> bool {
    let RewriteBuffers {
        walk,
        counts,
        in_tree,
        worklist,
    } = bufs;
    body.use_counts(counts);
    in_tree.clear();
    in_tree.resize(body.ops.len(), false);
    for &op in walk.iter() {
        in_tree[op.index()] = true;
    }
    worklist.clear();
    worklist.extend(
        walk.iter()
            .copied()
            .filter(|&op| is_trivially_dead(body, counts, op)),
    );
    let mut changed = false;
    while let Some(op) = worklist.pop() {
        // An op queued twice, or erased with an enclosing region, is gone.
        if !is_trivially_dead(body, counts, op) {
            continue;
        }
        release_uses(body, op, counts, in_tree, worklist);
        body.erase_op(op);
        changed = true;
    }
    changed
}

/// Whether `op` is live, free of side effects and has no used result.
fn is_trivially_dead(body: &Body, counts: &[u32], op: OpId) -> bool {
    let data = &body.ops[op.index()];
    !data.dead
        && data.opcode.purity() != Purity::Effect
        && data.results.iter().all(|r| counts[r.index()] == 0)
}

/// Drops the uses of `op` and of every op nested in its regions from
/// `counts`, queueing region-tree ops whose results lose their last use.
fn release_uses(
    body: &Body,
    op: OpId,
    counts: &mut [u32],
    in_tree: &[bool],
    worklist: &mut Vec<OpId>,
) {
    let data = &body.ops[op.index()];
    if !data.dead && data.parent.is_some() {
        data.for_each_use(|v| {
            counts[v.index()] -= 1;
            if counts[v.index()] == 0 {
                if let Some(def) = body.defining_op(v) {
                    if in_tree[def.index()] {
                        worklist.push(def);
                    }
                }
            }
        });
    }
    for &r in &data.regions {
        for &b in &body.regions[r.index()].blocks {
            for &nested in &body.blocks[b.index()].ops {
                release_uses(body, nested, counts, in_tree, worklist);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::types::Type;

    /// A toy pattern: replaces `x + 0` with `x`.
    struct AddZero;
    impl RewritePattern for AddZero {
        fn name(&self) -> &'static str {
            "add-zero"
        }
        fn roots(&self) -> &'static [Opcode] {
            &[Opcode::AddI]
        }
        fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
            if body.ops[op.index()].opcode != Opcode::AddI {
                return false;
            }
            let [a, b] = body.ops[op.index()].operands[..] else {
                return false;
            };
            let is_zero = |body: &Body, v| {
                body.defining_op(v)
                    .map(|d| {
                        body.ops[d.index()].opcode == Opcode::ConstI
                            && body.ops[d.index()]
                                .attr(crate::attr::AttrKey::Value)
                                .and_then(|a| a.as_int())
                                == Some(0)
                    })
                    .unwrap_or(false)
            };
            let keep = if is_zero(body, b) {
                a
            } else if is_zero(body, a) {
                b
            } else {
                return false;
            };
            let result = body.ops[op.index()].result().unwrap();
            body.replace_all_uses(result, keep);
            body.erase_op(op);
            true
        }
    }

    #[test]
    fn greedy_driver_reaches_fixpoint_and_cleans_up() {
        let mut module = Module::new();
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let z = b.const_i(0, Type::I64);
        let s1 = b.addi(params[0], z);
        let s2 = b.addi(s1, z);
        b.ret(s2);
        let patterns = PatternSet::new(vec![Box::new(AddZero)]);
        let changed = {
            let ctx = RewriteCtx { module: &module };
            apply_patterns_greedily(&mut body, &ctx, &patterns, &mut RewriteBuffers::default())
        };
        assert!(changed);
        // Both adds and the constant should be gone; only return remains.
        assert_eq!(body.live_op_count(), 1);
        let mut walk = Vec::new();
        body.walk_ops(&mut walk);
        let ret = walk[0];
        assert_eq!(body.ops[ret.index()].operands, vec![params[0]]);
        module.add_function(
            "f",
            crate::types::Signature::new(vec![Type::I64], Type::I64),
            body,
        );
        crate::verifier::verify_module(&module).unwrap();
    }

    #[test]
    fn dead_alloc_ops_are_erased() {
        let mut module = Module::new();
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let _unused = b.lp_construct(0, vec![]);
        let v = b.lp_int(1);
        b.lp_ret(v);
        let patterns = PatternSet::new(vec![]);
        let ctx = RewriteCtx { module: &module };
        let mut bufs = RewriteBuffers::default();
        assert!(apply_patterns_greedily(
            &mut body, &ctx, &patterns, &mut bufs
        ));
        assert_eq!(body.live_op_count(), 2);
        module.add_function("f", crate::types::Signature::obj(0), body);
    }

    #[test]
    fn effectful_ops_survive() {
        let module = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_ret(params[0]);
        let patterns = PatternSet::new(vec![]);
        let ctx = RewriteCtx { module: &module };
        let mut bufs = RewriteBuffers::default();
        assert!(!apply_patterns_greedily(
            &mut body, &ctx, &patterns, &mut bufs
        ));
        assert_eq!(body.live_op_count(), 2);
    }
}
