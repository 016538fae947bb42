//! Reference-count insertion: λpure → λrc.
//!
//! LEAN lowers its pure IR to λrc by inserting explicit `inc`/`dec`
//! instructions (§II-B). This module implements a simplified, provably
//! balanced version of that insertion under an *owned* calling convention:
//!
//! - every parameter and every `let`-bound value is **owned** by the current
//!   scope, and every control-flow path must consume each owned reference
//!   exactly once — either by transferring it (constructor field, call
//!   argument, jump argument, return) or by an explicit `dec`;
//! - `proj` *borrows* its operand and yields a borrowed field, which is
//!   immediately retained with `inc` (naive but sound — LEAN's borrow
//!   inference elides many of these; see DESIGN.md);
//! - `case` borrows its scrutinee (only the tag is read);
//! - values that die are released eagerly (`dec` at the earliest point the
//!   variable is no longer needed), matching LEAN's memory behaviour;
//! - join points own exactly their parameters (the AST's lambda-lifted
//!   join-point discipline makes this compositional).
//!
//! The balance property is validated dynamically by the reference
//! interpreter: after running a λrc program, the heap must be empty.

//!
//! Two passes per function, neither recursing per binding. The first files,
//! per block, each variable the block uses with the position of its last
//! use there; a variable an arm or join body uses freely counts as used by
//! its `case` or `join`. The second walks each block's statements forward,
//! deciding every `inc` and `dec` from the owned set and those positions,
//! and emits them in order.

use crate::ast::{
    Alt, BlockId, BodyBuilder, FnDef, JoinId, Program, Slice, Stmt, Terminator, Value, VarId,
};
use std::sync::Arc;

/// Inserts reference counting into every function of a λpure program.
///
/// # Panics
///
/// Panics if the program already contains `inc`/`dec` instructions.
pub fn insert_rc(program: &Program) -> Program {
    let mut rc = Inserter::for_program(program);
    let fns = program
        .fns
        .iter()
        .map(|f| {
            assert!(
                !f.arena.has_rc_ops(),
                "insert_rc on a function that already has RC ops: @{}",
                program.name(f)
            );
            rc.function(f)
        })
        .collect();
    Program {
        fns,
        names: Arc::clone(&program.names),
    }
}

/// Per-function state of the insertion, reused across functions.
struct Inserter {
    /// Per block: where its run of uses starts in `uses`, and its length.
    runs: Vec<(u32, u32)>,
    /// Every block's uses, a run per block ascending by variable: each
    /// variable the block's statements or terminator use, or that one of
    /// its join bodies or arms uses freely, with the position of its last
    /// use — a statement's index, or the block's length for the terminator
    /// and the arms. The runs hold the sum of the blocks' use counts, never
    /// the range of the ids used.
    uses: Vec<(VarId, u32)>,
    /// Uses gathered for the block being filed.
    gather: Vec<(VarId, u32)>,
    /// Per variable, one more than the block whose `let` binds it (`0`:
    /// none). Binders are unique (E0102), so each has one.
    bound_in: Vec<u32>,
    /// A join point's parameters, sorted.
    params: Vec<VarId>,
    /// The references the current path owns, ascending.
    owned: Vec<VarId>,
    /// Saved `owned` sets, stacked: each `case` restores it for every arm,
    /// each join body swaps in its parameters.
    saved: Vec<VarId>,
    /// The sorted operands of the value or jump being accounted for.
    operands: Vec<VarId>,
    /// `(var, n)` retains to emit before the `let` or `jump` at hand.
    incs: Vec<(VarId, u32)>,
    /// Variables to release after the `let` at hand, ascending.
    decs: Vec<VarId>,
    /// Case arms of the output under construction, stacked.
    arms: Vec<Alt>,
    b: BodyBuilder,
}

impl Inserter {
    /// An inserter sized for `p`'s largest function.
    fn for_program(p: &Program) -> Inserter {
        let most = p.largest();
        // Each binding gains about one `inc` or `dec`; a variable is used
        // once per operand, and counted again in each block it is free in.
        let uses = most.vars + most.stmts + most.blocks;
        let mut b = BodyBuilder::default();
        b.reserve(2 * most.stmts, 2 * most.stmts, most.blocks, most.vars);
        Inserter {
            runs: Vec::with_capacity(most.blocks),
            uses: Vec::with_capacity(2 * uses),
            gather: Vec::with_capacity(uses),
            bound_in: vec![0; most.var_ids],
            params: Vec::with_capacity(most.vars),
            owned: Vec::with_capacity(most.var_ids),
            saved: Vec::with_capacity(2 * most.var_ids),
            operands: Vec::with_capacity(most.vars),
            incs: Vec::with_capacity(most.vars),
            decs: Vec::with_capacity(most.var_ids),
            arms: Vec::with_capacity(most.blocks),
            b,
        }
    }

    fn function(&mut self, f: &FnDef) -> FnDef {
        self.fill(f);
        self.owned.clear();
        self.owned.extend_from_slice(f.params());
        self.owned.sort_unstable();
        self.owned.dedup();
        let body = self.transform(f, f.body, false);
        // Leave the binder table empty for the next function.
        for b in 0..f.arena.block_count() {
            for s in f.arena.stmts(BlockId(b as u32)) {
                if let Stmt::Let { var, .. } = s {
                    self.bound_in[*var as usize] = 0;
                }
            }
        }
        self.b
            .finish(f.name, f.params(), body, f.next_var, f.next_join)
    }

    /// Files the uses of every block of `f`.
    fn fill(&mut self, f: &FnDef) {
        let blocks = f.arena.block_count();
        self.runs.clear();
        self.runs.resize(blocks, (0, 0));
        self.uses.clear();
        for b in 0..blocks {
            for s in f.arena.stmts(BlockId(b as u32)) {
                if let Stmt::Let { var, .. } = *s {
                    let i = var as usize;
                    if i >= self.bound_in.len() {
                        self.bound_in.resize(i + 1, 0);
                    }
                    self.bound_in[i] = b as u32 + 1;
                }
            }
        }
        self.fill_block(f, f.body);
    }

    /// Files the uses of block `b` and of the blocks under it.
    fn fill_block(&mut self, f: &FnDef, b: BlockId) {
        let arena = &f.arena;
        let stmts = arena.stmts(b);
        let term = arena.term(b);
        for s in stmts {
            if let Stmt::Join { body, .. } = *s {
                self.fill_block(f, body);
            }
        }
        for arm in arena.successors(term) {
            self.fill_block(f, arm);
        }
        let at = self.gather.len();
        for (k, s) in stmts.iter().enumerate() {
            let k = k as u32;
            match *s {
                Stmt::Let { ref val, .. } => {
                    arena.for_each_operand(val, |v| self.gather.push((v, k)));
                }
                Stmt::Join { params, body, .. } => {
                    self.params.clear();
                    self.params.extend_from_slice(arena.vars(params));
                    self.params.sort_unstable();
                    for i in self.run_range(body) {
                        let v = self.uses[i].0;
                        if self.free_in(body, v) && self.params.binary_search(&v).is_err() {
                            self.gather.push((v, k));
                        }
                    }
                }
                Stmt::Inc { .. } | Stmt::Dec { .. } => {
                    unreachable!("insert_rc input must be λpure")
                }
            }
        }
        let end = stmts.len() as u32;
        arena.for_each_term_use(term, |v| self.gather.push((v, end)));
        for arm in arena.successors(term) {
            for i in self.run_range(arm) {
                let v = self.uses[i].0;
                if self.free_in(arm, v) {
                    self.gather.push((v, end));
                }
            }
        }
        // File the run: ascending, each variable once with its last use.
        let uses = &mut self.gather[at..];
        uses.sort_unstable();
        let start = self.uses.len();
        for &(v, k) in uses.iter() {
            match self.uses[start..].last_mut() {
                Some(last) if last.0 == v => last.1 = k,
                _ => self.uses.push((v, k)),
            }
        }
        self.gather.truncate(at);
        let at = |i: usize| u32::try_from(i).expect("use table under 2^32 entries");
        self.runs[b.index()] = (at(start), at(self.uses.len() - start));
    }

    fn run_range(&self, b: BlockId) -> std::ops::Range<usize> {
        let (start, len) = self.runs[b.index()];
        start as usize..(start + len) as usize
    }

    /// Whether `v`, which block `b` uses, is bound outside it.
    fn free_in(&self, b: BlockId, v: VarId) -> bool {
        self.bound_in.get(v as usize) != Some(&(b.0 + 1))
    }

    /// The position of the last use of `v` in block `b`, if it uses it.
    fn last_use(&self, b: BlockId, v: VarId) -> Option<u32> {
        let run = &self.uses[self.run_range(b)];
        run.binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|i| run[i].1)
    }

    /// Whether block `b` uses `v`, a variable bound before its statement
    /// `k`, after that statement.
    fn live_after(&self, b: BlockId, k: u32, v: VarId) -> bool {
        self.last_use(b, v).is_some_and(|last| last > k)
    }

    fn owns(&self, v: VarId) -> bool {
        self.owned.binary_search(&v).is_ok()
    }

    fn own(&mut self, v: VarId) {
        if let Err(i) = self.owned.binary_search(&v) {
            self.owned.insert(i, v);
        }
    }

    fn disown(&mut self, v: VarId) {
        if let Ok(i) = self.owned.binary_search(&v) {
            self.owned.remove(i);
        }
    }

    /// Pushes `owned` onto `saved`; returns where it starts there.
    fn save_owned(&mut self) -> usize {
        let at = self.saved.len();
        self.saved.extend_from_slice(&self.owned);
        at
    }

    /// Makes `owned` the set saved at `at` again.
    fn restore_owned(&mut self, at: usize) {
        self.owned.clear();
        self.owned.extend_from_slice(&self.saved[at..]);
    }

    /// Drops from `owned` every variable `live` rejects and queues it,
    /// ascending, on `decs`; `keep` is dropped without being queued.
    fn shed(&mut self, live: impl Fn(&Inserter, VarId) -> bool, keep: Option<VarId>) {
        let mut kept = 0;
        for i in 0..self.owned.len() {
            let v = self.owned[i];
            if live(self, v) {
                self.owned[kept] = v;
                kept += 1;
            } else if keep != Some(v) {
                self.decs.push(v);
            }
        }
        self.owned.truncate(kept);
    }

    /// Transforms block `b` of `f` so that every path consumes exactly the
    /// references in `self.owned`, into a block of the output; `shed`
    /// first releases the owned variables `b` does not use. On return,
    /// `owned` is left in an unspecified state (callers restore it across
    /// branches).
    fn transform(&mut self, f: &FnDef, b: BlockId, shed: bool) -> BlockId {
        self.b.open();
        if shed {
            self.decs.clear();
            self.shed(|rc, v| rc.last_use(b, v).is_some(), None);
            // Largest first, as releases wrapped around the body print.
            for &d in self.decs.iter().rev() {
                self.b.push(Stmt::Dec { var: d });
            }
        }
        let arena = &f.arena;
        let mut first_let = true;
        for (k, s) in arena.stmts(b).iter().enumerate() {
            match *s {
                Stmt::Let { var, ref val } => {
                    self.let_(f, b, k as u32, var, val, first_let);
                    first_let = false;
                }
                Stmt::Join {
                    label,
                    params,
                    body,
                } => {
                    // The join body owns exactly its parameters.
                    let at = self.save_owned();
                    self.owned.clear();
                    self.owned.extend_from_slice(arena.vars(params));
                    self.owned.sort_unstable();
                    self.owned.dedup();
                    let body = self.transform(f, body, true);
                    self.restore_owned(at);
                    self.saved.truncate(at);
                    let params = self.b.list(arena.vars(params));
                    self.b.push(Stmt::Join {
                        label,
                        params,
                        body,
                    });
                }
                Stmt::Inc { .. } | Stmt::Dec { .. } => {
                    unreachable!("insert_rc input must be λpure")
                }
            }
        }
        let term = match *arena.term(b) {
            Terminator::Ret(x) => self.ret(x),
            Terminator::Jump { label, args } => self.jump(f, label, args),
            Terminator::Case {
                scrutinee,
                alts,
                default,
            } => {
                // The case borrows the scrutinee; each arm independently
                // consumes the full owned set.
                let at = self.save_owned();
                let first = self.arms.len();
                for alt in arena.alts(alts) {
                    self.restore_owned(at);
                    let body = self.transform(f, alt.body, true);
                    self.arms.push(Alt { tag: alt.tag, body });
                }
                let default = default.map(|d| {
                    self.restore_owned(at);
                    self.transform(f, d, true)
                });
                self.saved.truncate(at);
                let alts = self.b.alts(&self.arms[first..]);
                self.arms.truncate(first);
                Terminator::Case {
                    scrutinee,
                    alts,
                    default,
                }
            }
        };
        self.b.close(term)
    }

    /// `ret x`: releases everything else owned, smallest id first, and
    /// retains a borrowed `x`.
    fn ret(&mut self, x: VarId) -> Terminator {
        for i in 0..self.owned.len() {
            let v = self.owned[i];
            if v != x {
                self.b.push(Stmt::Dec { var: v });
            }
        }
        if !self.owns(x) {
            // Borrowed return value: retain it first.
            self.b.push(Stmt::Inc { var: x, n: 1 });
        }
        Terminator::Ret(x)
    }

    /// `jump label(args…)`: each owned argument is transferred once, the
    /// rest of the owned set released, largest id first.
    fn jump(&mut self, f: &FnDef, label: JoinId, args: Slice) -> Terminator {
        self.operands.clear();
        self.operands.extend_from_slice(f.arena.vars(args));
        self.operands.sort_unstable();
        self.incs.clear();
        let operands = std::mem::take(&mut self.operands);
        for run in operands.chunk_by(|a, b| a == b) {
            let (a, m) = (run[0], run.len() as u32);
            if self.owns(a) {
                // Transferred to the join point.
                self.incs.push((a, m - 1));
                self.disown(a);
            } else {
                self.incs.push((a, m));
            }
        }
        self.operands = operands;
        for i in (0..self.owned.len()).rev() {
            let v = self.owned[i];
            self.b.push(Stmt::Dec { var: v });
        }
        for i in (0..self.incs.len()).rev() {
            let (a, n) = self.incs[i];
            if n > 0 {
                self.b.push(Stmt::Inc { var: a, n });
            }
        }
        let args = self.b.list(f.arena.vars(args));
        Terminator::Jump { label, args }
    }

    /// `let x = val`, statement `k` of block `b`, with its accounting:
    ///
    /// ```text
    /// incs; let x = v; [inc x]; [dec dead…]; [dec x]
    /// ```
    ///
    /// Retains of the operands, ownership transfers, and the owned
    /// variables that die here, released largest first.
    ///
    /// Only the first `let` of a block looks through the whole owned set
    /// for what dies: a variable owned when a block starts and unused in
    /// it dies there. After it, an owned variable dies where it is last
    /// used: where an operand it is transferred, and where a `proj`
    /// borrows it, it is released. So a run of bindings costs time
    /// linear in its length.
    fn let_(&mut self, f: &FnDef, b: BlockId, k: u32, x: VarId, val: &Value, first_let: bool) {
        // 1. Ownership accounting for the value's consumed operands: `proj`
        //    and `var` borrow, everything else consumes.
        self.operands.clear();
        match val {
            Value::Var(_) | Value::Proj { .. } => {}
            Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => {}
            _ => f.arena.for_each_operand(val, |v| self.operands.push(v)),
        }
        self.incs.clear();
        self.operands.sort_unstable();
        let operands = std::mem::take(&mut self.operands);
        for run in operands.chunk_by(|a, b| a == b) {
            let (a, m) = (run[0], run.len() as u32);
            if self.owns(a) {
                if self.live_after(b, k, a) {
                    // Still needed later: keep ownership, add m refs.
                    self.incs.push((a, m));
                } else {
                    // Last use: transfer one ref, add the rest.
                    self.incs.push((a, m - 1));
                    self.disown(a);
                }
            } else {
                self.incs.push((a, m));
            }
        }
        self.operands = operands;
        // `let x = y` aliases: one more reference to y's object.
        if let Value::Var(y) = *val {
            if self.owns(y) && !self.live_after(b, k, y) {
                self.disown(y); // transfer
            } else {
                self.incs.push((y, 1));
            }
        }
        // 2. The binding itself becomes owned.
        self.own(x);
        // 3. Eagerly release anything that is now dead: owned vars that are
        //    not used after this statement (including x if unused).
        let dead = !self.live_after(b, k, x);
        self.decs.clear();
        if first_let {
            self.shed(|rc, v| rc.live_after(b, k, v), Some(x));
        } else {
            if let Value::Proj { var, .. } = *val {
                if var != x && self.owns(var) && !self.live_after(b, k, var) {
                    self.disown(var);
                    self.decs.push(var);
                }
            }
            if dead {
                self.disown(x);
            }
        }
        for i in 0..self.incs.len() {
            let (a, n) = self.incs[i];
            if n > 0 {
                self.b.push(Stmt::Inc { var: a, n });
            }
        }
        let val = match *val {
            Value::LitBig(s) => Value::LitBig(self.b.text(f.arena.text(s))),
            Value::LitStr(s) => Value::LitStr(self.b.text(f.arena.text(s))),
            Value::Ctor { tag, args } => Value::Ctor {
                tag,
                args: self.b.list(f.arena.vars(args)),
            },
            Value::Call { func, args } => Value::Call {
                func,
                args: self.b.list(f.arena.vars(args)),
            },
            Value::Pap { func, args } => Value::Pap {
                func,
                args: self.b.list(f.arena.vars(args)),
            },
            Value::App { closure, args } => Value::App {
                closure,
                args: self.b.list(f.arena.vars(args)),
            },
            other => other,
        };
        self.b.let_(x, val);
        // Projection results are borrowed: retain them. A projection that
        // is immediately dead is simply a borrow that was never retained:
        // no inc, no dec.
        let is_proj = matches!(val, Value::Proj { .. });
        if is_proj && !dead {
            self.b.push(Stmt::Inc { var: x, n: 1 });
        }
        for i in (0..self.decs.len()).rev() {
            let d = self.decs[i];
            self.b.push(Stmt::Dec { var: d });
        }
        if dead && !is_proj {
            self.b.push(Stmt::Dec { var: x });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Names;
    use crate::parse::parse_program;
    use crate::wellformed::check_program;

    /// The program of one function `name(params)`, its body built by
    /// `body`.
    fn single(
        name: &str,
        params: &[VarId],
        next_var: VarId,
        body: impl FnOnce(&mut BodyBuilder) -> BlockId,
    ) -> Program {
        let mut names = Names::default();
        let name = names.intern(name);
        let mut b = BodyBuilder::default();
        b.open();
        let entry = body(&mut b);
        Program {
            fns: vec![b.finish(name, params, entry, next_var, 0)],
            names: Arc::new(names),
        }
    }

    /// `let var = ctor_tag(args…)`
    fn ctor(b: &mut BodyBuilder, var: VarId, tag: u32, args: &[VarId]) {
        let args = b.list(args);
        b.let_(var, Value::Ctor { tag, args });
    }

    #[test]
    fn unused_param_is_dropped() {
        // def k(x0, x1) := ret x0  — x1 must be dec'd.
        let rc = insert_rc(&single("k", &[0, 1], 2, |b| b.ret(0)));
        let text = rc.to_string();
        assert!(text.contains("dec x1"), "{text}");
        assert!(!text.contains("dec x0"), "{text}");
    }

    #[test]
    fn duplicate_use_gets_inc() {
        // let x1 = ctor_0(x0, x0); ret x1 — x0 used twice as owned: one inc.
        let rc = insert_rc(&single("dup", &[0], 2, |b| {
            ctor(b, 1, 0, &[0, 0]);
            b.ret(1)
        }));
        let text = rc.to_string();
        assert!(text.contains("inc x0"), "{text}");
    }

    #[test]
    fn use_then_live_keeps_ownership() {
        // let x1 = ctor(x0); let x2 = ctor(x0); ret x2 —
        // first use incs (x0 live after), second transfers.
        let rc = insert_rc(&single("f", &[0], 3, |b| {
            ctor(b, 1, 0, &[0]);
            ctor(b, 2, 1, &[0]);
            // x1 is dead here; it must be dec'd.
            b.ret(2)
        }));
        let text = rc.to_string();
        // Exactly one inc of x0 (before the first ctor).
        assert_eq!(text.matches("inc x0").count(), 1, "{text}");
        // x1 unused: dec'd.
        assert!(text.contains("dec x1"), "{text}");
    }

    #[test]
    fn proj_results_are_retained_before_scrutinee_release() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def head_or_zero(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => h
  end
"#;
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let rc = insert_rc(&p);
        let text = rc
            .display_fn(rc.fn_by_name("head_or_zero").unwrap())
            .to_string();
        // In the Cons arm: h is projected then inc'd; the scrutinee dec'd.
        assert!(text.contains("inc x"), "{text}");
        assert!(text.contains("dec x0"), "{text}");
        // The inc of the projected head must appear before the dec of the
        // scrutinee (which is the last dec of x0 in the Cons arm).
        let inc_pos = text.find("inc x").expect(&text);
        let dec_pos = text.rfind("dec x0").expect(&text);
        assert!(inc_pos < dec_pos, "{text}");
    }

    #[test]
    fn case_arms_balance_independently() {
        let src = r#"
inductive Option := None | Some(v)
def f(o, extra) :=
  case o of
  | None => extra
  | Some(v) => v + extra
  end
"#;
        let p = parse_program(src).unwrap();
        let rc = insert_rc(&p);
        let text = rc.display_fn(rc.fn_by_name("f").unwrap()).to_string();
        // The None arm must release the scrutinee o (x0).
        assert!(text.contains("dec x0"), "{text}");
    }

    #[test]
    fn rc_program_is_still_wellformed() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def append(xs, ys) :=
  case xs of
  | Nil => ys
  | Cons(h, t) => Cons(h, append(t, ys))
  end
def main() := append(Cons(1, Nil), Cons(2, Nil))
"#;
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let rc = insert_rc(&p);
        check_program(&rc).unwrap();
        // append's Cons arm duplicates nothing, but the Nil arm must release
        // the scrutinee; some function carries RC ops.
        assert!(rc.fns.iter().any(|f| f.arena.has_rc_ops()));
    }

    #[test]
    fn free_variable_table_follows_uses_not_ids() {
        // A wide `case` on a parameter with the largest `.lssa` id: each
        // arm binds and returns its own variable.
        let big = crate::dense::MAX_ID - 1;
        let arms = 10_000;
        let p = single("wide", &[big], big + 1, |b| {
            let arms: Vec<(u32, BlockId)> = (0..arms)
                .map(|k| {
                    b.open();
                    b.let_(k, Value::LitInt(k.into()));
                    (k, b.ret(k))
                })
                .collect();
            b.case(big, &arms, None)
        });
        let mut rc = Inserter::for_program(&p);
        let f = rc.function(&p.fns[0]);
        // One run per block. The table holds each arm's variable, used by
        // its `ret`, and the case's scrutinee, however large its id.
        assert_eq!(rc.runs.len(), 1 + arms as usize);
        assert_eq!(rc.uses.len(), arms as usize + 1);
        assert_eq!(rc.uses[rc.run_range(p.fns[0].body)], [(big, 0)]);
        let Terminator::Case { alts, .. } = *f.arena.term(f.body) else {
            panic!("{f:?}")
        };
        assert_eq!(alts.len(), arms as usize);
        let arm = f.arena.alts(alts).nth(7).expect("arm 7").body;
        assert_eq!(
            f.arena.stmts(arm),
            [
                Stmt::Dec { var: big },
                Stmt::Let {
                    var: 7,
                    val: Value::LitInt(7)
                }
            ]
        );
        assert_eq!(*f.arena.term(arm), Terminator::Ret(7));
    }

    #[test]
    #[should_panic(expected = "already has RC ops")]
    fn double_insertion_panics() {
        insert_rc(&single("f", &[0], 1, |b| {
            b.push(Stmt::Inc { var: 0, n: 1 });
            b.ret(0)
        }));
    }
}
