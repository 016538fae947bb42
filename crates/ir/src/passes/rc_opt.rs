//! Reference-count optimization (paper §III).
//!
//! `insert_rc` makes a λrc program RC-correct with a *local* protocol:
//! every consumer takes its arguments owned, so a value that is still
//! needed afterwards gets an `lp.inc` first, and every owned value the
//! program is done with gets an `lp.dec`. That protocol is sound but
//! pessimistic — it never asks whether the intervening uses only *borrow*
//! the value. This pass recovers the paper's owned/borrowed distinction
//! after lowering, as a peephole dataflow over the CFG form:
//!
//! 1. **Dec sinking** (`sunk-decs`): each `lp.dec %v` is moved to its
//!    earliest safe point — immediately after the last operation that can
//!    touch `%v` or a pointer borrowed from it (`lp.project` chains,
//!    `select`/`switch_val` merges), and never across an operation with
//!    observable reference-count behaviour (`Purity::Effect`, region
//!    carriers, terminators). Earlier decs shorten the owned window,
//!    stack decs next to each other (where decode-time `Dec2` fusion
//!    picks them up), and park a dec directly behind a matching inc.
//! 2. **Borrow folding** (`borrowed-args`): an `lp.inc %v` that exists
//!    only to feed a downstream `func.call` of an *extern builtin* taking
//!    `%v` as an argument is deleted, and the argument position is
//!    recorded in a `borrow_mask` attribute on the call. The VM performs
//!    the retain as the first step of the `CallBuiltin` instruction
//!    itself, so the count trajectory at every observable point — in
//!    particular inside the builtin, which reads its arguments before
//!    consuming them — is bit-identical, but the separate dispatch cell
//!    for the inc is gone. The window between the inc and the call may
//!    contain only pure ops, allocations and other incs: nothing in it
//!    can decrement any count, so no free can be observed early, and
//!    nothing can read the (transiently one-lower) count of `%v`.
//! 3. **Pair elision** (`elided-pairs`): an `lp.inc %v` whose matching
//!    `lp.dec %v` follows in the same block with no *decrement-capable*
//!    operation in between (no dec of anything, no call, no
//!    `lp.papextend`, no global access, no region carrier) is deleted
//!    together with its dec. Inside such a window the count is merely
//!    `+1` with nobody able to observe it or free through it: every use
//!    in the window is pure or an allocation that moves the reference,
//!    and both behaviours depend only on the count *trajectory outside*
//!    the window, which the cancelling pair leaves untouched.
//!
//! A block's op list is scanned through a buffer, and the borrow sources
//! are compressed rows, both in [`RcOptBuffers`], which one run reuses for
//! every block and body.
//!
//! The two steps run to a joint fixpoint per block: sinking creates
//! adjacent `inc/dec` pairs for elision, and each elided pair removes a
//! barrier that may unblock further sinking. Re-running the pass on its
//! own output therefore reports `changed == false` — the property the
//! pipeline's idempotence proptest pins.
//!
//! Soundness of the conservative barrier set: a dec may only cross
//! operations that (a) cannot read the count of any object (all
//! `Purity::Effect` ops are barriers, so allocation-profile observers
//! like the exclusivity check in `array_set` see unchanged counts),
//! (b) cannot reach `%v`'s object through any operand (checked against
//! the transitive borrow set of `%v`), and (c) do not define `%v`. The
//! heap-counter effect is that `lp.inc`/`lp.dec` totals drop while
//! allocation and free counts — and the entire live-object trajectory at
//! every allocation point — stay bit-identical.

use crate::attr::{Attr, AttrKey};
use crate::body::{Body, OpData};
use crate::hash::FxHashSet;
use crate::ids::{OpId, Symbol, ValueId};
use crate::module::Module;
use crate::opcode::{Opcode, Purity};
use crate::pass::{for_each_function, Pass};
use std::cell::Cell;

/// Counters for one [`run_on_body`] call (or one whole-module run).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RcOptStats {
    /// `lp.inc`/`lp.dec` pairs deleted (two ops each).
    pub elided_pairs: u64,
    /// `lp.dec` ops moved to an earlier program point.
    pub sunk_decs: u64,
    /// `lp.inc` ops folded into a builtin call's `borrow_mask`.
    pub folded_incs: u64,
}

impl RcOptStats {
    /// Whether the body changed at all.
    pub fn changed(&self) -> bool {
        self.elided_pairs > 0 || self.sunk_decs > 0 || self.folded_incs > 0
    }
}

/// The reference-count optimization pass. See the module docs.
#[derive(Debug, Default)]
pub struct RcOptPass {
    elided_pairs: Cell<u64>,
    sunk_decs: Cell<u64>,
    folded_incs: Cell<u64>,
}

impl Pass for RcOptPass {
    fn name(&self) -> &'static str {
        "rc-opt"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        let mut total = RcOptStats::default();
        // Collected up front: `for_each_function` detaches the body it is
        // visiting, so asking the module mid-visit would misreport a
        // recursive caller as extern.
        let externs: FxHashSet<Symbol> = module
            .funcs
            .iter()
            .filter(|f| f.is_extern())
            .map(|f| f.name)
            .collect();
        let mut bufs = RcOptBuffers::default();
        let changed = for_each_function(module, |_, body| {
            let stats = run_on_body(&externs, body, &mut bufs);
            total.elided_pairs += stats.elided_pairs;
            total.sunk_decs += stats.sunk_decs;
            total.folded_incs += stats.folded_incs;
            stats.changed()
        });
        self.elided_pairs.set(total.elided_pairs);
        self.sunk_decs.set(total.sunk_decs);
        self.folded_incs.set(total.folded_incs);
        changed
    }

    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("elided-pairs", self.elided_pairs.get()),
            ("sunk-decs", self.sunk_decs.get()),
            ("borrowed-args", self.folded_incs.get()),
        ]
    }
}

/// The pass's working tables, reused for every block and body of a run.
#[derive(Debug, Default)]
pub struct RcOptBuffers {
    /// The op list of the block being rewritten.
    ops: Vec<OpId>,
    /// The body's region-tree walk.
    walk: Vec<OpId>,
    borrows: Borrows,
}

/// Immediate borrow sources per value, in compressed rows: value `x` may
/// borrow from `of[start[x]..start[x + 1]]`. `lp.project` results borrow
/// from the projected object; `select`/`switch_val` results may alias any
/// of their operands.
#[derive(Debug, Default)]
struct Borrows {
    start: Vec<u32>,
    of: Vec<ValueId>,
    /// Scratch of [`Borrows::borrows_from`].
    work: Vec<ValueId>,
    seen: Vec<ValueId>,
}

/// Runs the optimization on one body, to a fixpoint. `externs` names the
/// module's extern (builtin) functions — borrow folding applies only to
/// calls targeting them. Returns the counters.
pub fn run_on_body(
    externs: &FxHashSet<Symbol>,
    body: &mut Body,
    bufs: &mut RcOptBuffers,
) -> RcOptStats {
    let mut stats = RcOptStats::default();
    // Borrow sources are built once per body (erasing never adds aliases,
    // so reuse across rounds is sound — but a stale entry could only make
    // the check *more* conservative anyway).
    body.walk_ops(&mut bufs.walk);
    bufs.borrows.build(body, &bufs.walk);
    for b in 0..body.blocks.len() {
        if body.blocks[b].parent.is_none() {
            continue;
        }
        loop {
            let mut round = false;
            round |= fold_borrows(externs, body, b, &mut bufs.ops, &mut stats);
            round |= sink_decs(body, b, bufs, &mut stats);
            round |= elide_pairs(body, b, &mut bufs.ops, &mut stats);
            if !round {
                break;
            }
        }
    }
    stats
}

impl Borrows {
    /// Fills the rows from the ops of `walk`.
    fn build(&mut self, body: &Body, walk: &[OpId]) {
        let aliasing = |d: &OpData| {
            matches!(
                d.opcode,
                Opcode::LpProject | Opcode::Select | Opcode::SwitchVal
            )
        };
        // Count each row, turn the counts into row ends, then fill every
        // row back to front: rows keep the walk's order.
        self.start.clear();
        self.start.resize(body.values.len() + 1, 0);
        for &op in walk {
            let d = &body.ops[op.index()];
            if aliasing(d) {
                for &r in d.results.as_slice() {
                    self.start[r.index()] += d.operands.len() as u32;
                }
            }
        }
        for i in 1..self.start.len() {
            self.start[i] += self.start[i - 1];
        }
        self.of.clear();
        self.of
            .resize(self.start[body.values.len()] as usize, ValueId::default());
        for &op in walk.iter().rev() {
            let d = &body.ops[op.index()];
            if aliasing(d) {
                for &r in d.results.as_slice() {
                    for &o in d.operands.as_slice().iter().rev() {
                        self.start[r.index()] -= 1;
                        self.of[self.start[r.index()] as usize] = o;
                    }
                }
            }
        }
    }

    fn of(&self, x: ValueId) -> &[ValueId] {
        &self.of[self.start[x.index()] as usize..self.start[x.index() + 1] as usize]
    }

    /// Whether `u` is `v` or (transitively) borrows from `v`.
    fn borrows_from(&mut self, u: ValueId, v: ValueId) -> bool {
        if u == v {
            return true;
        }
        let mut work = std::mem::take(&mut self.work);
        let mut seen = std::mem::take(&mut self.seen);
        work.clear();
        seen.clear();
        work.push(u);
        seen.push(u);
        let mut found = false;
        'search: while let Some(x) = work.pop() {
            for &s in self.of(x) {
                if s == v {
                    found = true;
                    break 'search;
                }
                if !seen.contains(&s) {
                    seen.push(s);
                    work.push(s);
                }
            }
        }
        self.work = work;
        self.seen = seen;
        found
    }
}

/// Folds `lp.inc %v` ops into the `borrow_mask` of a downstream extern
/// builtin call taking `%v`, when nothing between them can decrement a
/// count (pure ops, allocations and other incs only). See the module docs.
fn fold_borrows(
    externs: &FxHashSet<Symbol>,
    body: &mut Body,
    b: usize,
    ops: &mut Vec<OpId>,
    stats: &mut RcOptStats,
) -> bool {
    let mut changed = false;
    'restart: loop {
        ops.clear();
        ops.extend_from_slice(&body.blocks[b].ops);
        for (k, &call) in ops.iter().enumerate() {
            let c = &body.ops[call.index()];
            if c.opcode != Opcode::Call {
                continue;
            }
            let callee = c.attr(AttrKey::Callee).and_then(Attr::as_sym);
            if !callee.is_some_and(|s| externs.contains(&s)) {
                continue;
            }
            let mask = c
                .attr(AttrKey::BorrowMask)
                .and_then(Attr::as_int)
                .unwrap_or(0);
            // The mask is a u8 on the VM side; positions past 8 stay owned.
            let mut args = [ValueId::default(); 8];
            let n = c.operands.len().min(8);
            args[..n].copy_from_slice(&c.operands[..n]);
            for (p, &v) in args[..n].iter().enumerate() {
                if mask & (1 << p) != 0 {
                    continue;
                }
                for i in (0..k).rev() {
                    let w = &body.ops[ops[i].index()];
                    if w.opcode == Opcode::LpInc {
                        if w.operands.as_slice()[0] == v {
                            body.erase_op(ops[i]);
                            set_borrow_mask(body, call, mask | (1 << p));
                            stats.folded_incs += 1;
                            changed = true;
                            continue 'restart;
                        }
                        // Incs commute: crossing one reorders two retains.
                        continue;
                    }
                    if fold_barrier(w) {
                        break;
                    }
                }
            }
        }
        return changed;
    }
}

/// Whether an op ends a borrow-folding window: anything that could
/// decrement a count, or a control boundary.
fn fold_barrier(w: &OpData) -> bool {
    w.opcode.purity() == Purity::Effect
        || w.opcode.is_terminator()
        || w.opcode.has_successors()
        || !w.regions.is_empty()
}

/// Sets (or replaces) the `borrow_mask` attribute on `op`.
fn set_borrow_mask(body: &mut Body, op: OpId, mask: i64) {
    let attrs = &mut body.ops[op.index()].attrs;
    if let Some(slot) = attrs
        .as_mut_slice()
        .iter_mut()
        .find(|(k, _)| *k == AttrKey::BorrowMask)
    {
        slot.1 = Attr::Int(mask);
    } else {
        attrs.push((AttrKey::BorrowMask, Attr::Int(mask)));
    }
}

/// Moves every `lp.dec` in the block to its earliest safe point.
fn sink_decs(body: &mut Body, b: usize, bufs: &mut RcOptBuffers, stats: &mut RcOptStats) -> bool {
    let RcOptBuffers { ops, borrows, .. } = bufs;
    ops.clear();
    ops.extend_from_slice(&body.blocks[b].ops);
    let mut changed = false;
    for i in 1..ops.len() {
        let d = &body.ops[ops[i].index()];
        if d.opcode != Opcode::LpDec {
            continue;
        }
        let v = d.operands.as_slice()[0];
        let mut j = i;
        while j > 0 && may_hop_above(body, ops[j - 1], v, borrows) {
            j -= 1;
        }
        if j < i {
            ops[j..=i].rotate_right(1);
            stats.sunk_decs += 1;
            changed = true;
        }
    }
    if changed {
        body.blocks[b].ops.copy_from_slice(ops);
    }
    changed
}

/// Whether `lp.dec %v` may move from directly after `prev` to directly
/// before it.
fn may_hop_above(body: &Body, prev: OpId, v: ValueId, borrows: &mut Borrows) -> bool {
    let d = &body.ops[prev.index()];
    // Anything with observable reference-count behaviour pins the dec:
    // other inc/dec ops (a crossed dec could free an object this dec's
    // free would then touch, and vice versa), calls, papextend, globals.
    if d.opcode.purity() == Purity::Effect {
        return false;
    }
    // Region carriers and CFG ops are control boundaries.
    if !d.regions.is_empty() || d.opcode.is_terminator() || d.opcode.has_successors() {
        return false;
    }
    // The dec must stay below the definition of `%v` ...
    if d.results.as_slice().contains(&v) {
        return false;
    }
    // ... and below every read through `%v` or a borrow of it.
    !d.operands
        .as_slice()
        .iter()
        .any(|&u| borrows.borrows_from(u, v))
}

/// Deletes `lp.inc %v` / `lp.dec %v` pairs whose window contains no
/// decrement-capable operation.
fn elide_pairs(body: &mut Body, b: usize, ops: &mut Vec<OpId>, stats: &mut RcOptStats) -> bool {
    let mut changed = false;
    'restart: loop {
        ops.clear();
        ops.extend_from_slice(&body.blocks[b].ops);
        for (j, &dec) in ops.iter().enumerate() {
            let d = &body.ops[dec.index()];
            if d.opcode != Opcode::LpDec {
                continue;
            }
            let v = d.operands.as_slice()[0];
            for i in (0..j).rev() {
                let w = &body.ops[ops[i].index()];
                if w.opcode == Opcode::LpInc {
                    if w.operands.as_slice()[0] == v {
                        body.erase_op(ops[i]);
                        body.erase_op(dec);
                        stats.elided_pairs += 1;
                        changed = true;
                        continue 'restart;
                    }
                    // An inc of another value neither frees nor reads.
                    continue;
                }
                if window_barrier(w.opcode) || !w.regions.is_empty() {
                    break;
                }
            }
        }
        return changed;
    }
}

/// Whether an opcode ends an elision window: anything that could
/// decrement a count (and so free, or observe the inflated count).
fn window_barrier(opcode: Opcode) -> bool {
    opcode.purity() == Purity::Effect || opcode.is_terminator() || opcode.has_successors()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::types::{Signature, Type};
    use crate::verifier::verify_module;

    /// The body's ops in walk order.
    fn walk(body: &crate::body::Body) -> Vec<crate::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn obj_fn(build: impl FnOnce(&mut Builder<'_>, &[ValueId])) -> Module {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        build(&mut b, &params);
        m.add_function("f", Signature::obj(1), body);
        m
    }

    fn opcodes(m: &Module) -> Vec<Opcode> {
        let body = m.func_by_name("f").unwrap().body.as_ref().unwrap();
        walk(body)
            .iter()
            .map(|o| body.ops[o.index()].opcode)
            .collect()
    }

    #[test]
    fn adjacent_pair_is_elided() {
        let mut m = obj_fn(|b, p| {
            b.lp_inc(p[0]);
            b.lp_dec(p[0]);
            b.lp_ret(p[0]);
        });
        let pass = RcOptPass::default();
        assert!(pass.run_on(&mut m));
        assert_eq!(opcodes(&m), vec![Opcode::LpReturn]);
        assert_eq!(pass.stat_counters()[0], ("elided-pairs", 1));
        verify_module(&m).unwrap();
    }

    #[test]
    fn pair_across_pure_uses_is_elided() {
        // The window may contain pure reads of the value itself and an
        // allocation that moves the reference.
        let mut m = obj_fn(|b, p| {
            b.lp_inc(p[0]);
            let f0 = b.lp_project(p[0], 0);
            let c = b.lp_construct(3, vec![f0, p[0]]);
            b.lp_dec(p[0]);
            b.lp_ret(c);
        });
        assert!(RcOptPass::default().run_on(&mut m));
        assert_eq!(
            opcodes(&m),
            vec![Opcode::LpProject, Opcode::LpConstruct, Opcode::LpReturn]
        );
        verify_module(&m).unwrap();
    }

    #[test]
    fn call_blocks_elision() {
        // A call can decrement counts, so the pair must survive.
        let mut m = Module::new();
        let g = m.intern("g");
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        let r = b.call(g, vec![params[0]], Type::Obj);
        b.lp_dec(params[0]);
        b.lp_ret(r);
        m.add_function("f", Signature::obj(1), body);
        assert!(!RcOptPass::default().run_on(&mut m));
        assert_eq!(
            opcodes(&m),
            vec![Opcode::LpInc, Opcode::Call, Opcode::LpDec, Opcode::LpReturn]
        );
    }

    #[test]
    fn dec_of_other_value_blocks_elision() {
        // `dec c` sits between the pair on the parameter; decs never cross
        // other decs or incs, so everything stays put.
        let mut m = obj_fn(|b, p| {
            let c = b.lp_construct(0, vec![]);
            b.lp_inc(p[0]);
            b.lp_dec(c);
            b.lp_dec(p[0]);
            b.lp_ret(p[0]);
        });
        assert!(!RcOptPass::default().run_on(&mut m));
        assert_eq!(
            opcodes(&m),
            vec![
                Opcode::LpConstruct,
                Opcode::LpInc,
                Opcode::LpDec,
                Opcode::LpDec,
                Opcode::LpReturn
            ]
        );
    }

    #[test]
    fn sinking_stacks_decs_for_dec2_fusion() {
        // The second dec hops the unrelated pure op and parks directly
        // behind the first — the adjacency decode-time `Dec2` fusion needs.
        let mut m = obj_fn(|b, p| {
            let c = b.lp_construct(0, vec![]);
            b.lp_dec(c);
            let n = b.lp_int(5);
            b.lp_dec(p[0]);
            b.lp_ret(n);
        });
        let pass = RcOptPass::default();
        assert!(pass.run_on(&mut m));
        assert_eq!(pass.stat_counters()[1], ("sunk-decs", 1));
        assert_eq!(
            opcodes(&m),
            vec![
                Opcode::LpConstruct,
                Opcode::LpDec,
                Opcode::LpDec,
                Opcode::LpInt,
                Opcode::LpReturn
            ]
        );
        verify_module(&m).unwrap();
    }

    #[test]
    fn dec_sinks_to_last_borrowing_use() {
        // dec %arr must not cross the projection chain reading through it.
        let mut m = obj_fn(|b, p| {
            let f0 = b.lp_project(p[0], 0);
            let f1 = b.lp_project(f0, 1);
            let c = b.lp_construct(0, vec![]);
            let d = b.lp_construct(1, vec![c]);
            b.lp_dec(p[0]);
            b.lp_ret(d);
            let _ = f1;
        });
        let pass = RcOptPass::default();
        assert!(pass.run_on(&mut m));
        assert_eq!(pass.stat_counters()[1], ("sunk-decs", 1));
        let ops = opcodes(&m);
        // The dec lands after the last projection, before the allocations.
        assert_eq!(
            ops,
            vec![
                Opcode::LpProject,
                Opcode::LpProject,
                Opcode::LpDec,
                Opcode::LpConstruct,
                Opcode::LpConstruct,
                Opcode::LpReturn
            ]
        );
        verify_module(&m).unwrap();
    }

    #[test]
    fn second_run_reports_no_change() {
        let mut m = obj_fn(|b, p| {
            b.lp_inc(p[0]);
            let f0 = b.lp_project(p[0], 0);
            let c = b.lp_construct(2, vec![f0]);
            b.lp_dec(p[0]);
            b.lp_dec(c);
            b.lp_ret(p[0]);
        });
        let pass = RcOptPass::default();
        assert!(pass.run_on(&mut m));
        assert!(!pass.run_on(&mut m), "rc-opt must be idempotent");
        assert_eq!(
            pass.stat_counters(),
            vec![("elided-pairs", 0), ("sunk-decs", 0), ("borrowed-args", 0)]
        );
        verify_module(&m).unwrap();
    }

    fn mask_of(m: &Module) -> i64 {
        let body = m.func_by_name("f").unwrap().body.as_ref().unwrap();
        let call = walk(body)
            .into_iter()
            .find(|o| body.ops[o.index()].opcode == Opcode::Call)
            .expect("call survives");
        body.ops[call.index()]
            .attr(AttrKey::BorrowMask)
            .and_then(Attr::as_int)
            .unwrap_or(0)
    }

    #[test]
    fn inc_folds_into_builtin_call() {
        let mut m = Module::new();
        let add = m.declare_extern("lean_nat_add", Signature::obj(2));
        let (mut body, params) = Body::new(&[Type::Obj, Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        let r = b.call(add, vec![params[0], params[1]], Type::Obj);
        b.lp_ret(r);
        m.add_function("f", Signature::obj(2), body);
        let pass = RcOptPass::default();
        assert!(pass.run_on(&mut m));
        assert_eq!(opcodes(&m), vec![Opcode::Call, Opcode::LpReturn]);
        assert_eq!(mask_of(&m), 0b01);
        assert_eq!(pass.stat_counters()[2], ("borrowed-args", 1));
        verify_module(&m).unwrap();
    }

    #[test]
    fn repeated_arg_folds_both_incs() {
        let mut m = Module::new();
        let mul = m.declare_extern("lean_nat_mul", Signature::obj(2));
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_inc(params[0]);
        let r = b.call(mul, vec![params[0], params[0]], Type::Obj);
        b.lp_dec(params[0]);
        b.lp_ret(r);
        m.add_function("f", Signature::obj(1), body);
        let pass = RcOptPass::default();
        assert!(pass.run_on(&mut m));
        assert_eq!(
            opcodes(&m),
            vec![Opcode::Call, Opcode::LpDec, Opcode::LpReturn]
        );
        assert_eq!(mask_of(&m), 0b11, "each inc claims a distinct position");
        verify_module(&m).unwrap();
    }

    #[test]
    fn dec_in_window_blocks_borrow_fold() {
        // A dec between the inc and the call could free through the
        // one-lower transient count, so the inc must stay.
        let mut m = Module::new();
        let add = m.declare_extern("lean_nat_add", Signature::obj(2));
        let (mut body, params) = Body::new(&[Type::Obj, Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_dec(params[1]);
        let r = b.call(add, vec![params[0], params[0]], Type::Obj);
        b.lp_ret(r);
        m.add_function("f", Signature::obj(2), body);
        assert!(!RcOptPass::default().run_on(&mut m));
        assert_eq!(mask_of(&m), 0);
        assert_eq!(
            opcodes(&m),
            vec![Opcode::LpInc, Opcode::LpDec, Opcode::Call, Opcode::LpReturn]
        );
    }

    #[test]
    fn inc_does_not_fold_into_defined_call() {
        // Calls to functions with bodies keep the owned protocol: the
        // mask is a CallBuiltin-cell mechanism.
        let mut m = Module::new();
        let (gbody, _) = Body::new(&[Type::Obj]);
        let g = m.add_function("g", Signature::obj(1), gbody);
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        let r = b.call(g, vec![params[0]], Type::Obj);
        b.lp_ret(r);
        m.add_function("f", Signature::obj(1), body);
        assert!(!RcOptPass::default().run_on(&mut m));
        assert_eq!(mask_of(&m), 0);
    }

    #[test]
    fn recursive_call_is_not_extern() {
        // While a pass visits a function its own body is detached from
        // the module, so a naive extern check misreports a recursive
        // callee as a builtin. The extern set is collected up front.
        let mut m = Module::new();
        let f = m.intern("f");
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        let r = b.call(f, vec![params[0]], Type::Obj);
        b.lp_ret(r);
        m.add_function("f", Signature::obj(1), body);
        assert!(!RcOptPass::default().run_on(&mut m));
        assert_eq!(mask_of(&m), 0);
    }
}
