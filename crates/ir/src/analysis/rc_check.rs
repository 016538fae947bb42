//! The RC-linearity checker: proves inc/dec balance on every CFG path.
//!
//! For each function the checker walks the root-region CFG once in reverse
//! postorder, composing the per-block [`rc_summary`](super::rc_summary)
//! effects into a per-value reference-count ledger:
//!
//! - every owned definition starts at count 1 (block arguments bind an
//!   incoming reference; allocations and calls return one);
//! - `lp.inc` adds, `lp.dec` and every consuming operand position subtract;
//! - branch edges consume their successor arguments and credit the
//!   destination's block parameters;
//! - at every control-flow join the counts arriving over all edges must
//!   agree, and at `return`/`lp.ret`/`tail_call` every tracked count must
//!   be back to zero.
//!
//! Any violation on an [`RcClass::Owned`] value is a definite protocol
//! break — reported as [`RcVerdict::Unbalanced`] with the offending value
//! and the block path from the entry. Anomalies that involve alias-class
//! values (projections, `select`/`switch_val` merges, global loads) or
//! owned values that escape *into* such merges cannot be decided by a
//! per-value ledger; they yield [`RcVerdict::Unprovable`], never a false
//! positive. Region-structured IR (before `lower-cfg`) is likewise
//! unprovable — the checker is meant to run from `rc-opt` onward.

use super::cfg::BlockGraph;
use super::rc_summary::{classify, summarize_block, BlockSummary, RcClass};
use crate::body::Body;
use crate::hash::{FxHashMap, FxHashSet};
use crate::ids::{BlockId, Symbol, ValueId};
use crate::module::Module;
use crate::opcode::Opcode;

/// The checker's answer for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RcVerdict {
    /// Every path provably releases every owned value exactly once.
    Balanced,
    /// The ledger cannot decide (aliasing, regions); not an error.
    Unprovable {
        /// Why the function defeats the per-value ledger.
        reason: String,
    },
    /// A definite protocol violation: double release, leak, or
    /// path-dependent count.
    Unbalanced {
        /// What went wrong, naming the value and block.
        detail: String,
        /// Block path from the function entry to the offending block.
        path: Vec<BlockId>,
    },
}

/// Checks every function body in `module`, in module order.
pub fn check_module(module: &Module) -> Vec<(Symbol, RcVerdict)> {
    let externs: FxHashSet<Symbol> = module
        .funcs
        .iter()
        .filter(|f| f.is_extern())
        .map(|f| f.name)
        .collect();
    module
        .funcs
        .iter()
        .filter_map(|f| f.body.as_ref().map(|b| (f.name, check_body(b, &externs))))
        .collect()
}

/// Checks one function of `module` (by symbol). Extern declarations are
/// trivially balanced.
pub fn check_function(module: &Module, func: Symbol) -> RcVerdict {
    let externs: FxHashSet<Symbol> = module
        .funcs
        .iter()
        .filter(|f| f.is_extern())
        .map(|f| f.name)
        .collect();
    match module.func(func).and_then(|f| f.body.as_ref()) {
        Some(body) => check_body(body, &externs),
        None => RcVerdict::Balanced,
    }
}

/// Checks every function and returns an error describing the first
/// [`RcVerdict::Unbalanced`] one, with its path. Unprovable functions pass.
///
/// This is the strict entry the pass engine's `verify-rc` mode uses.
pub fn check_module_strict(module: &Module) -> Result<(), String> {
    for (sym, verdict) in check_module(module) {
        if let RcVerdict::Unbalanced { detail, path } = verdict {
            let path_str: Vec<String> = path.iter().map(|b| b.to_string()).collect();
            return Err(format!(
                "rc-linearity violated in @{}: {} (path: {})",
                module.name_of(sym),
                detail,
                path_str.join(" -> ")
            ));
        }
    }
    Ok(())
}

/// Checks a single body against `externs` (the module's builtin set).
pub fn check_body(body: &Body, externs: &FxHashSet<Symbol>) -> RcVerdict {
    // Region-carrying ops defeat the flat ledger; the checker targets the
    // post-`lower-cfg` form.
    let mut walk = Vec::new();
    body.walk_ops(&mut walk);
    for &op in &walk {
        if !body.ops[op.index()].regions.is_empty() {
            return RcVerdict::Unprovable {
                reason: "region-structured IR (checker runs after lower-cfg)".into(),
            };
        }
    }
    let graph = BlockGraph::root(body);

    // Owned values that flow into alias-producing merges (`select` /
    // `switch_val`) lose their identity: the merged result aliases one of
    // them, and releases may happen through it. Anomalies on such values
    // are unprovable rather than definite.
    let mut tainted: FxHashSet<ValueId> = FxHashSet::default();
    // Values consumed by a container constructor keep their object alive
    // through the container — a later borrow of such a value may be sound
    // even at ledger count 0 (the container holds the reference), so probe
    // failures on them are unprovable rather than definite.
    let mut containerized: FxHashSet<ValueId> = FxHashSet::default();
    for &op in &walk {
        let data = &body.ops[op.index()];
        match data.opcode {
            Opcode::Select | Opcode::SwitchVal => {
                // Operand 0 is the selector; the rest are merged alternatives.
                for &v in data.operands.iter().skip(1) {
                    tainted.insert(v);
                }
            }
            Opcode::LpConstruct | Opcode::LpPap | Opcode::LpPapExtend => {
                for &v in data.operands.iter() {
                    containerized.insert(v);
                }
            }
            _ => {}
        }
    }

    let summaries: FxHashMap<BlockId, BlockSummary> = graph
        .rpo()
        .iter()
        .map(|&b| (b, summarize_block(body, b, externs)))
        .collect();

    // The ledger state arriving at each block (nonzero counts only), and
    // the edge over which it first arrived (for path reconstruction).
    let mut state_in: FxHashMap<BlockId, FxHashMap<ValueId, i64>> = FxHashMap::default();
    let mut first_pred: FxHashMap<BlockId, BlockId> = FxHashMap::default();

    let entry = graph.entry();
    let mut entry_state: FxHashMap<ValueId, i64> = FxHashMap::default();
    for &p in &body.blocks[entry.index()].args {
        if classify(body, p) != RcClass::Scalar {
            entry_state.insert(p, 1);
        }
    }
    state_in.insert(entry, entry_state);

    let trace = |first_pred: &FxHashMap<BlockId, BlockId>, to: BlockId| -> Vec<BlockId> {
        let mut path = vec![to];
        let mut cur = to;
        while let Some(&p) = first_pred.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    };
    let anomaly = |v: ValueId, tainted: &FxHashSet<ValueId>, detail: String, path: Vec<BlockId>| {
        let class = classify(body, v);
        if class == RcClass::Owned && !tainted.contains(&v) {
            RcVerdict::Unbalanced { detail, path }
        } else {
            RcVerdict::Unprovable { reason: detail }
        }
    };

    // Reverse postorder guarantees at least one predecessor of each block
    // (its DFS tree parent) is processed first, so `state_in` is populated
    // when we arrive; back edges are pure consistency checks against the
    // already-set header state.
    for &b in graph.rpo() {
        let mut state = state_in
            .get(&b)
            .cloned()
            .expect("rpo predecessor already set the in-state");

        let summary = &summaries[&b];
        if let Some(&op) = summary.mask_on_internal.first() {
            return RcVerdict::Unbalanced {
                detail: format!(
                    "call {op} in {b} carries a borrow_mask but its callee is not extern \
                     (the VM honors masks only on builtins)"
                ),
                path: trace(&first_pred, b),
            };
        }
        // Apply the block's collapsed events, lowest value id first for
        // deterministic reporting.
        let mut touched: Vec<ValueId> = summary.effects.keys().copied().collect();
        touched.sort();
        for v in touched {
            let eff = summary.effects[&v];
            let c = state.get(&v).copied().unwrap_or(0);
            if c + eff.min < 0 {
                return anomaly(
                    v,
                    &tainted,
                    format!(
                        "value {v} over-released in {b} (count {c} entering, dips to {})",
                        c + eff.min
                    ),
                    trace(&first_pred, b),
                );
            }
            if c + eff.min_borrow < 0 {
                // A borrow_mask'd call sees this value at ledger count 0.
                // If its ownership escaped into a live container the borrow
                // can still be sound; otherwise it outlives its reference.
                if containerized.contains(&v) {
                    return RcVerdict::Unprovable {
                        reason: format!(
                            "value {v} borrowed in {b} after its reference moved into a container"
                        ),
                    };
                }
                return anomaly(
                    v,
                    &tainted,
                    format!(
                        "value {v} borrowed in {b} without holding a reference \
                         (borrow would outlive the callee)"
                    ),
                    trace(&first_pred, b),
                );
            }
            let out = c + eff.net;
            if out == 0 {
                state.remove(&v);
            } else {
                state.insert(v, out);
            }
        }

        // Propagate through the terminator.
        let Some(term) = body.terminator(b) else {
            return RcVerdict::Unprovable {
                reason: format!("block {b} has no terminator"),
            };
        };
        let term_data = &body.ops[term.index()];
        match term_data.opcode {
            Opcode::Return | Opcode::LpReturn | Opcode::TailCall => {
                // Exit: every tracked count must be settled (operand
                // consumption was part of the block summary).
                let mut leftover: Vec<ValueId> = state.keys().copied().collect();
                leftover.sort();
                if let Some(&v) = leftover.first() {
                    let c = state[&v];
                    return anomaly(
                        v,
                        &tainted,
                        format!("value {v} leaks {c} reference(s) at function exit in {b}"),
                        trace(&first_pred, b),
                    );
                }
            }
            Opcode::Unreachable => {} // path diverges; nothing to settle
            _ => {
                for succ in term_data.successors.iter() {
                    let mut edge_state = state.clone();
                    // Edge arguments transfer ownership to the destination's
                    // block parameters.
                    for &a in succ.args.iter() {
                        if classify(body, a) == RcClass::Scalar {
                            continue;
                        }
                        let c = edge_state.get(&a).copied().unwrap_or(0);
                        if c - 1 < 0 {
                            return anomaly(
                                a,
                                &tainted,
                                format!(
                                    "value {a} passed on edge {b} -> {} without a reference",
                                    succ.block
                                ),
                                trace(&first_pred, b),
                            );
                        }
                        if c - 1 == 0 {
                            edge_state.remove(&a);
                        } else {
                            edge_state.insert(a, c - 1);
                        }
                    }
                    for &arg in &body.blocks[succ.block.index()].args {
                        if classify(body, arg) != RcClass::Scalar {
                            *edge_state.entry(arg).or_insert(0) += 1;
                        }
                    }
                    match state_in.get(&succ.block) {
                        None => {
                            state_in.insert(succ.block, edge_state);
                            first_pred.insert(succ.block, b);
                        }
                        Some(existing) => {
                            if let Some(v) = first_mismatch(existing, &edge_state) {
                                let a = existing.get(&v).copied().unwrap_or(0);
                                let c = edge_state.get(&v).copied().unwrap_or(0);
                                let mut path = trace(&first_pred, b);
                                path.push(succ.block);
                                return anomaly(
                                    v,
                                    &tainted,
                                    format!(
                                        "value {v} has a path-dependent count at {} \
                                         ({a} via one path, {c} via {b})",
                                        succ.block
                                    ),
                                    path,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    RcVerdict::Balanced
}

/// The lowest-id value whose count differs between the two states.
fn first_mismatch(a: &FxHashMap<ValueId, i64>, b: &FxHashMap<ValueId, i64>) -> Option<ValueId> {
    let mut keys: Vec<ValueId> = a.keys().chain(b.keys()).copied().collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .find(|v| a.get(v).copied().unwrap_or(0) != b.get(v).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Signature;
    use crate::types::Type;

    fn no_externs() -> FxHashSet<Symbol> {
        FxHashSet::default()
    }

    /// `fn(p) { inc p; ret p }` — protocol-correct hand IR.
    #[test]
    fn balanced_straight_line() {
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_dec(params[0]);
        b.lp_ret(params[0]);
        assert_eq!(check_body(&body, &no_externs()), RcVerdict::Balanced);
    }

    #[test]
    fn leak_is_unbalanced() {
        // The param is inc'd but only one reference is released.
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_ret(params[0]);
        match check_body(&body, &no_externs()) {
            RcVerdict::Unbalanced { detail, path } => {
                assert!(detail.contains("leaks"), "{detail}");
                assert_eq!(path, vec![entry]);
            }
            other => panic!("expected unbalanced, got {other:?}"),
        }
    }

    #[test]
    fn double_release_is_unbalanced_with_path() {
        // entry -> mid -> exit; the dec in `exit` releases a count the
        // entry's dec already spent.
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mid = body.new_block(ROOT_REGION, &[]);
        let exit = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_dec(params[0]);
        b.br(mid, vec![]);
        Builder::at_end(&mut body, mid).br(exit, vec![]);
        let mut be = Builder::at_end(&mut body, exit);
        be.lp_dec(params[0]);
        let z = be.lp_int(0);
        be.lp_ret(z);
        match check_body(&body, &no_externs()) {
            RcVerdict::Unbalanced { detail, path } => {
                assert!(detail.contains("over-released"), "{detail}");
                assert_eq!(path, vec![entry, mid, exit]);
            }
            other => panic!("expected unbalanced, got {other:?}"),
        }
    }

    #[test]
    fn path_dependent_count_is_unbalanced() {
        // One diamond arm releases the param, the other does not.
        let (mut body, params) = Body::new(&[Type::I1, Type::Obj]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let bb = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).cond_br(params[0], (a, vec![]), (bb, vec![]));
        let mut ba = Builder::at_end(&mut body, a);
        ba.lp_dec(params[1]);
        ba.br(join, vec![]);
        Builder::at_end(&mut body, bb).br(join, vec![]);
        let mut bj = Builder::at_end(&mut body, join);
        let z = bj.lp_int(0);
        bj.lp_ret(z);
        match check_body(&body, &no_externs()) {
            RcVerdict::Unbalanced { detail, .. } => {
                assert!(detail.contains("path-dependent"), "{detail}");
            }
            other => panic!("expected unbalanced, got {other:?}"),
        }
    }

    #[test]
    fn balanced_diamond_with_edge_transfer() {
        // Both arms forward the param to the join, which releases it.
        let (mut body, params) = Body::new(&[Type::I1, Type::Obj]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let bb = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[Type::Obj]);
        Builder::at_end(&mut body, entry).cond_br(params[0], (a, vec![]), (bb, vec![]));
        Builder::at_end(&mut body, a).br(join, vec![params[1]]);
        Builder::at_end(&mut body, bb).br(join, vec![params[1]]);
        let jv = body.blocks[join.index()].args[0];
        Builder::at_end(&mut body, join).lp_ret(jv);
        assert_eq!(check_body(&body, &no_externs()), RcVerdict::Balanced);
    }

    #[test]
    fn balanced_loop_is_accepted() {
        // A count-neutral loop: the header owns the object, the back edge
        // passes it around, the exit releases it.
        use crate::attr::CmpPred;
        let (mut body, params) = Body::new(&[Type::Obj, Type::I64]);
        let entry = body.entry_block();
        let header = body.new_block(ROOT_REGION, &[Type::Obj, Type::I64]);
        let exit = body.new_block(ROOT_REGION, &[Type::Obj]);
        Builder::at_end(&mut body, entry).br(header, vec![params[0], params[1]]);
        let hobj = body.blocks[header.index()].args[0];
        let hi = body.blocks[header.index()].args[1];
        let mut bh = Builder::at_end(&mut body, header);
        let z = bh.const_i(0, Type::I64);
        let c = bh.cmpi(CmpPred::Eq, hi, z);
        bh.cond_br(c, (exit, vec![hobj]), (header, vec![hobj, hi]));
        let eobj = body.blocks[exit.index()].args[0];
        Builder::at_end(&mut body, exit).lp_ret(eobj);
        assert_eq!(check_body(&body, &no_externs()), RcVerdict::Balanced);
    }

    #[test]
    fn alias_anomaly_is_unprovable() {
        // Releasing a projection the scope never inc'd cannot be decided by
        // the per-value ledger (the reference belongs to the parent).
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let field = b.lp_project(params[0], 0);
        b.lp_dec(field);
        b.lp_ret(params[0]);
        match check_body(&body, &no_externs()) {
            RcVerdict::Unprovable { reason } => {
                assert!(reason.contains("over-released"), "{reason}");
            }
            other => panic!("expected unprovable, got {other:?}"),
        }
    }

    #[test]
    fn owned_escaping_into_select_is_unprovable_not_unbalanced() {
        // Two owned objects merged by a select: the ledger cannot follow
        // which one the release through the alias hits.
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let x = b.lp_construct(0, vec![]);
        let y = b.lp_construct(1, vec![]);
        let m = b.select(params[0], x, y);
        b.lp_ret(m);
        match check_body(&body, &no_externs()) {
            RcVerdict::Unprovable { .. } => {}
            other => panic!("expected unprovable, got {other:?}"),
        }
    }

    #[test]
    fn region_ir_is_unprovable() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        let mut ib = Builder::at_end(&mut body, inner);
        let v = ib.lp_int(1);
        ib.lp_ret(v);
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(rv, vec![]);
        match check_body(&body, &no_externs()) {
            RcVerdict::Unprovable { reason } => assert!(reason.contains("region"), "{reason}"),
            other => panic!("expected unprovable, got {other:?}"),
        }
    }

    #[test]
    fn consuming_ops_balance_allocations() {
        // construct consumes its fields and produces an owned result.
        let (mut body, params) = Body::new(&[Type::Obj, Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let pair = b.lp_construct(0, vec![params[0], params[1]]);
        b.lp_ret(pair);
        assert_eq!(check_body(&body, &no_externs()), RcVerdict::Balanced);
    }

    #[test]
    fn strict_check_names_function_and_path() {
        let mut module = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_ret(params[0]);
        module.add_function("leaky", Signature::obj(1), body);
        let err = check_module_strict(&module).unwrap_err();
        assert!(err.contains("@leaky"), "{err}");
        assert!(err.contains("path:"), "{err}");
        assert!(err.contains(&entry.to_string()), "{err}");
    }

    #[test]
    fn check_module_reports_per_function() {
        let mut module = Module::new();
        let (mut ok_body, p) = Body::new(&[Type::Obj]);
        let e = ok_body.entry_block();
        Builder::at_end(&mut ok_body, e).lp_ret(p[0]);
        module.add_function("fine", Signature::obj(1), ok_body);
        let (mut bad_body, q) = Body::new(&[Type::Obj]);
        let e2 = bad_body.entry_block();
        let mut b = Builder::at_end(&mut bad_body, e2);
        b.lp_dec(q[0]);
        b.lp_dec(q[0]);
        let z = b.lp_int(0);
        b.lp_ret(z);
        module.add_function("bad", Signature::obj(1), bad_body);
        let verdicts = check_module(&module);
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].1, RcVerdict::Balanced);
        assert!(matches!(verdicts[1].1, RcVerdict::Unbalanced { .. }));
    }
}
