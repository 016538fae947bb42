//! The λpure simplifier — LEAN's hand-written optimizer (the baseline the
//! paper's Figure 10 compares the `rgn` optimizations against).
//!
//! Implements the classical functional simplifications:
//!
//! - copy propagation (`let x = y`),
//! - dead-let elimination,
//! - constant folding of arithmetic and decidable comparisons,
//! - case-of-known-constructor,
//! - projection-of-known-constructor,
//! - `simpcase`: common-branch fusion (all arms equal) and arm-vs-default
//!   deduplication — the functional counterparts of the paper's Figure 1B/1C,
//! - dead and single-use join-point elimination/inlining.
//!
//! Runs on λpure (before reference-count insertion), like LEAN's pipeline.
//!
//! A block is simplified in two passes over its statements. Forward, each
//! `let` is resolved, folded and recorded; a `case` of known tag continues
//! the block with the chosen arm. Backward, last statement first, a `let`
//! nothing kept uses is dropped and each `join` is dropped, inlined or kept
//! once the rest of its block is final. Neither pass recurses per binding.

use crate::ast::{
    AlphaCtx, Alt, Arena, BlockId, BodyBuilder, FnDef, JoinId, Name, Program, Slice, Stmt,
    Terminator, Value, VarId,
};
use crate::dense::IdSet;
use lssa_rt::Nat;
use std::sync::Arc;

/// Which of the optional simplifications to run (Figure 10's ablation
/// needs to disable `simpcase` specifically). Copy propagation, dead-let
/// and join-point cleanup and case-of-known-constructor always run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplifyOptions {
    /// Constant folding of builtins.
    pub const_fold: bool,
    /// `simpcase`: common-branch fusion (the rgn-style switch
    /// simplification the paper disables in variant (b) of Figure 10).
    pub simpcase: bool,
}

impl Default for SimplifyOptions {
    fn default() -> SimplifyOptions {
        SimplifyOptions::all()
    }
}

impl SimplifyOptions {
    /// Everything on — LEAN's default pipeline.
    pub fn all() -> SimplifyOptions {
        SimplifyOptions {
            const_fold: true,
            simpcase: true,
        }
    }

    /// Everything except `simpcase` (Figure 10 variant (b) input).
    pub fn without_simpcase() -> SimplifyOptions {
        SimplifyOptions {
            simpcase: false,
            ..SimplifyOptions::all()
        }
    }
}

/// Simplifies a λpure program to a fixpoint (bounded).
///
/// Each function is simplified on its own, so one that a sweep leaves
/// unchanged is a fixpoint: later sweeps revisit only the functions the
/// previous sweep changed. At most 10 sweeps run, as many as a
/// whole-program loop would. A sweep that changes nothing copies nothing:
/// its output is compared with its input while it is still in the
/// builder's scratch buffers.
///
/// # Panics
///
/// Panics if the program contains RC instructions (run before
/// [`crate::rc::insert_rc`]).
pub fn simplify_program(p: &Program, opts: SimplifyOptions) -> Program {
    let mut ctx = Ctx::new(p, opts);
    let mut fns = Vec::with_capacity(p.fns.len());
    let mut changed = Vec::with_capacity(p.fns.len());
    for f in &p.fns {
        let next = ctx.function(f);
        changed.push(next.is_some());
        fns.push(next.unwrap_or_else(|| f.clone()));
    }
    for _ in 1..10 {
        if !changed.contains(&true) {
            break;
        }
        for (f, changed) in fns.iter_mut().zip(&mut changed) {
            if *changed {
                match ctx.function(f) {
                    Some(next) => *f = next,
                    None => *changed = false,
                }
            }
        }
    }
    Program {
        fns,
        names: Arc::clone(&p.names),
    }
}

/// What the simplifier knows about a variable's value.
#[derive(Debug, Clone, Copy, Default)]
enum Known {
    #[default]
    Nothing,
    /// A constructor: its tag and its fields, `len` entries of
    /// [`Ctx::fields`] from `start`.
    Ctor {
        tag: u32,
        start: u32,
        len: u32,
    },
    Int(i64),
    /// A bigint literal: its digits in the output's text pool.
    Big(Slice),
}

/// The builtins constant folding evaluates.
#[derive(Debug, Clone, Copy)]
enum Fold {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Lt,
    Le,
}

impl Fold {
    fn of(name: &str) -> Option<Fold> {
        Some(match name {
            "lean_nat_add" => Fold::Add,
            "lean_nat_sub" => Fold::Sub,
            "lean_nat_mul" => Fold::Mul,
            "lean_nat_div" => Fold::Div,
            "lean_nat_mod" => Fold::Mod,
            "lean_nat_dec_eq" => Fold::Eq,
            "lean_nat_dec_lt" => Fold::Lt,
            "lean_nat_dec_le" => Fold::Le,
            _ => return None,
        })
    }
}

/// No substitution.
const NO_SUBST: VarId = VarId::MAX;

/// A `join` of the block being simplified, whose fate waits until the rest
/// of the block is simplified: it is dead if nothing jumps to it, inlined
/// if one jump does, kept otherwise.
#[derive(Debug, Clone, Copy)]
struct PendingJoin {
    label: JoinId,
    /// The input's parameter list and body.
    params: Slice,
    body: BlockId,
}

struct Ctx {
    opts: SimplifyOptions,
    /// Per name, the builtin folding evaluates, if any.
    folds: Vec<Option<Fold>>,
    /// The output function being built.
    b: BodyBuilder,
    /// Known bindings (constructors and literals only), per variable.
    env: Vec<Known>,
    /// Copy-propagation substitution, per variable ([`NO_SUBST`]: none).
    subst: Vec<VarId>,
    /// The fields of the constructors in `env`.
    fields: Vec<VarId>,
    /// Overwritten `env` entries, undone when a case arm ends.
    env_log: Vec<(VarId, Known)>,
    /// Overwritten `subst` entries, undone when a case arm ends.
    subst_log: Vec<(VarId, VarId)>,
    /// The variables some kept statement or terminator of the output uses:
    /// a `let` none of whose uses was kept is dead. A variable is bound
    /// once (E0102), and only the code after its binding can use it.
    used: IdSet,
    /// The `join`s of the blocks being simplified, innermost last.
    joins: Vec<PendingJoin>,
    /// Case arms of the output under construction, stacked.
    arms: Vec<Alt>,
    alpha: AlphaCtx,
}

impl Ctx {
    /// A context sized for `p`'s largest function.
    fn new(p: &Program, opts: SimplifyOptions) -> Ctx {
        let most = p.largest();
        let mut b = BodyBuilder::default();
        // The output's pools also hold the operand lists of the bindings
        // the backward pass drops.
        b.reserve(most.stmts, most.stmts, most.blocks, 2 * most.vars);
        let mut used = IdSet::default();
        used.reserve(most.var_ids);
        let mut alpha = AlphaCtx::default();
        alpha.reserve(most.stmts);
        Ctx {
            opts,
            folds: p.names.iter().map(Fold::of).collect(),
            b,
            env: vec![Known::Nothing; most.var_ids],
            subst: vec![NO_SUBST; most.var_ids],
            fields: Vec::with_capacity(most.vars),
            env_log: Vec::with_capacity(most.stmts),
            subst_log: Vec::with_capacity(most.stmts),
            used,
            joins: Vec::with_capacity(most.blocks),
            arms: Vec::with_capacity(most.blocks),
            alpha,
        }
    }

    /// One sweep over `f`: the simplified function, or `None` if the sweep
    /// changed nothing.
    fn function(&mut self, f: &FnDef) -> Option<FnDef> {
        assert!(!f.arena.has_rc_ops(), "simplifier runs on λpure");
        self.used.clear();
        let body = self.block(f, f.body);
        // Every entry was set through the logs: undoing them all leaves the
        // tables empty for the next function.
        self.undo_to((0, 0));
        self.fields.clear();
        if self.b.arena.same_block(body, &f.arena, f.body) {
            self.b.discard();
            return None;
        }
        Some(
            self.b
                .finish(f.name, f.params(), body, f.next_var, f.next_join),
        )
    }

    fn known(&self, v: VarId) -> Known {
        self.env.get(v as usize).copied().unwrap_or_default()
    }

    fn learn(&mut self, v: VarId, known: Known) {
        let i = v as usize;
        if i >= self.env.len() {
            self.env.resize(i + 1, Known::Nothing);
        }
        let old = std::mem::replace(&mut self.env[i], known);
        self.env_log.push((v, old));
    }

    fn substitute(&mut self, v: VarId, by: VarId) {
        let i = v as usize;
        if i >= self.subst.len() {
            self.subst.resize(i + 1, NO_SUBST);
        }
        let old = std::mem::replace(&mut self.subst[i], by);
        self.subst_log.push((v, old));
    }

    /// Undoes every `learn` and `substitute` since the log lengths `mark`.
    fn undo_to(&mut self, (env_mark, subst_mark): (usize, usize)) {
        while self.env_log.len() > env_mark {
            let (v, old) = self.env_log.pop().expect("above the mark");
            self.env[v as usize] = old;
        }
        while self.subst_log.len() > subst_mark {
            let (v, old) = self.subst_log.pop().expect("above the mark");
            self.subst[v as usize] = old;
        }
    }

    fn mark(&self) -> (usize, usize) {
        (self.env_log.len(), self.subst_log.len())
    }

    fn resolve(&self, v: VarId) -> VarId {
        resolve(&self.subst, v)
    }

    /// `val` of `f` with its operands resolved, its lists and text copied
    /// to the output.
    fn resolve_value(&mut self, f: &FnDef, val: &Value) -> Value {
        let subst = &self.subst;
        let list = |b: &mut BodyBuilder, args: Slice| {
            b.list_from(f.arena.vars(args).iter().map(|&v| resolve(subst, v)))
        };
        match *val {
            Value::Var(v) => Value::Var(resolve(subst, v)),
            Value::LitInt(n) => Value::LitInt(n),
            Value::LitBig(s) => Value::LitBig(self.b.text(f.arena.text(s))),
            Value::LitStr(s) => Value::LitStr(self.b.text(f.arena.text(s))),
            Value::Ctor { tag, args } => Value::Ctor {
                tag,
                args: list(&mut self.b, args),
            },
            Value::Proj { var, idx } => Value::Proj {
                var: resolve(subst, var),
                idx,
            },
            Value::Call { func, args } => Value::Call {
                func,
                args: list(&mut self.b, args),
            },
            Value::Pap { func, args } => Value::Pap {
                func,
                args: list(&mut self.b, args),
            },
            Value::App { closure, args } => Value::App {
                closure: resolve(subst, closure),
                args: list(&mut self.b, args),
            },
        }
    }

    /// The known tag of a variable, if statically determined.
    fn known_tag(&self, v: VarId) -> Option<u32> {
        match self.known(self.resolve(v)) {
            Known::Ctor { tag, .. } => Some(tag),
            Known::Int(n) if (0..=u32::MAX as i64).contains(&n) => Some(n as u32),
            _ => None,
        }
    }

    fn nat_of(&self, v: VarId) -> Option<Nat> {
        match self.known(self.resolve(v)) {
            Known::Int(n) if n >= 0 => Some(Nat::from_u64(n as u64)),
            Known::Big(s) => Nat::from_str_decimal(self.b.arena.text(s)).ok(),
            _ => None,
        }
    }

    fn fold_call(&mut self, func: Name, args: Slice) -> Option<Value> {
        if !self.opts.const_fold {
            return None;
        }
        let &[a, b] = self.b.arena.vars(args) else {
            return None;
        };
        let op = self.folds[func.index()]?;
        // Machine words fold without a bignum while nothing overflows.
        if let (Known::Int(x), Known::Int(y)) =
            (self.known(self.resolve(a)), self.known(self.resolve(b)))
        {
            if let (Ok(x), Ok(y)) = (u64::try_from(x), u64::try_from(y)) {
                let word = |this: &mut Ctx, n: u64| -> Value {
                    if n < (1 << 62) {
                        Value::LitInt(n as i64)
                    } else {
                        Value::LitBig(this.b.text(&n.to_string()))
                    }
                };
                let bool_result = |b: bool| Value::Ctor {
                    tag: b as u32,
                    args: Slice::default(),
                };
                let folded = match op {
                    Fold::Add => x.checked_add(y).map(|n| word(self, n)),
                    Fold::Sub => Some(word(self, x.saturating_sub(y))),
                    Fold::Mul => x.checked_mul(y).map(|n| word(self, n)),
                    Fold::Div => Some(word(self, x.checked_div(y).unwrap_or(0))),
                    Fold::Mod => Some(word(self, x.checked_rem(y).unwrap_or(x))),
                    Fold::Eq => Some(bool_result(x == y)),
                    Fold::Lt => Some(bool_result(x < y)),
                    Fold::Le => Some(bool_result(x <= y)),
                };
                if folded.is_some() {
                    return folded;
                }
            }
        }
        let (x, y) = (self.nat_of(a)?, self.nat_of(b)?);
        let nat = |this: &mut Ctx, n: Nat| -> Value {
            match n.to_u64() {
                Some(v) if v < (1 << 62) => Value::LitInt(v as i64),
                _ => Value::LitBig(this.b.text(&n.to_string())),
            }
        };
        let bool_result = |b: bool| Value::Ctor {
            tag: b as u32,
            args: Slice::default(),
        };
        Some(match op {
            Fold::Add => nat(self, x.add(&y)),
            Fold::Sub => nat(self, x.sat_sub(&y)),
            Fold::Mul => nat(self, x.mul(&y)),
            Fold::Div => nat(self, x.div(&y)),
            Fold::Mod => nat(self, x.rem(&y)),
            Fold::Eq => bool_result(x == y),
            Fold::Lt => bool_result(x < y),
            Fold::Le => bool_result(x <= y),
        })
    }

    /// Simplifies block `b` of `f` into a block of the output of its own.
    fn block(&mut self, f: &FnDef, b: BlockId) -> BlockId {
        self.b.open();
        let joins = self.joins.len();
        let (term, pending) = self.forward(f, b);
        let term = self.backward(f, term, pending, joins);
        self.b.close(term)
    }

    /// Simplifies block `b` of `f` into the innermost open output block:
    /// each `let` is resolved, folded and learned (or substituted away),
    /// each `join` left pending; a `case` of known tag continues with the
    /// chosen arm. Returns the output's terminator and where the
    /// statements the backward pass decides on end in the open block.
    fn forward(&mut self, f: &FnDef, mut b: BlockId) -> (Terminator, usize) {
        loop {
            for s in f.arena.stmts(b) {
                match *s {
                    Stmt::Let { var, ref val } => self.let_(f, var, val),
                    Stmt::Join {
                        label,
                        params,
                        body,
                    } => {
                        // A placeholder, until the rest of the block is done.
                        self.b.push(*s);
                        self.joins.push(PendingJoin {
                            label,
                            params,
                            body,
                        });
                    }
                    Stmt::Inc { .. } | Stmt::Dec { .. } => {
                        unreachable!("simplifier runs on λpure")
                    }
                }
            }
            let pending = self.b.open.len();
            let term = match *f.arena.term(b) {
                Terminator::Ret(v) => Terminator::Ret(self.resolve(v)),
                Terminator::Jump { label, args } => {
                    let subst = &self.subst;
                    let args = self
                        .b
                        .list_from(f.arena.vars(args).iter().map(|&v| resolve(subst, v)));
                    Terminator::Jump { label, args }
                }
                Terminator::Case {
                    scrutinee,
                    alts,
                    default,
                } => {
                    let s = self.resolve(scrutinee);
                    // Case-of-known-constructor.
                    if let Some(tag) = self.known_tag(s) {
                        let arm = f
                            .arena
                            .alts(alts)
                            .find(|a| a.tag == tag)
                            .map(|a| a.body)
                            .or(default);
                        if let Some(arm) = arm {
                            b = arm;
                            continue;
                        }
                    }
                    self.case(f, s, alts, default)
                }
            };
            return (term, pending);
        }
    }

    fn let_(&mut self, f: &FnDef, var: VarId, val: &Value) {
        // Copy propagation.
        if let Value::Var(y) = *val {
            let y = self.resolve(y);
            self.substitute(var, y);
            return;
        }
        // Projection of a known constructor.
        if let Value::Proj { var: s, idx } = *val {
            if let Known::Ctor { start, len, .. } = self.known(self.resolve(s)) {
                if idx < len {
                    let field = self.fields[(start + idx) as usize];
                    self.substitute(var, field);
                    return;
                }
            }
        }
        let mut val = self.resolve_value(f, val);
        // Constant folding.
        if let Value::Call { func, args } = val {
            if let Some(folded) = self.fold_call(func, args) {
                val = folded;
            }
        }
        // Record knowledge.
        match val {
            Value::Ctor { tag, args } => {
                let start = self.fields.len() as u32;
                self.fields.extend_from_slice(self.b.arena.vars(args));
                self.learn(
                    var,
                    Known::Ctor {
                        tag,
                        start,
                        len: args.len,
                    },
                );
            }
            Value::LitInt(n) => self.learn(var, Known::Int(n)),
            Value::LitBig(s) => self.learn(var, Known::Big(s)),
            _ => {}
        }
        self.b.let_(var, val);
    }

    /// A `case` on `s` whose tag is not known: each arm simplified from
    /// what is known here, then `simpcase`. When every branch is the same,
    /// the first is copied into the open block and its terminator returned.
    fn case(&mut self, f: &FnDef, s: VarId, alts: Slice, default: Option<BlockId>) -> Terminator {
        // Each arm starts from what is known here; what it learns is undone
        // when it ends.
        let mark = self.mark();
        let first = self.arms.len();
        for alt in f.arena.alts(alts) {
            let body = self.block(f, alt.body);
            self.undo_to(mark);
            self.arms.push(Alt { tag: alt.tag, body });
        }
        let default = default.map(|d| {
            let body = self.block(f, d);
            self.undo_to(mark);
            body
        });
        if self.opts.simpcase {
            // simpcase: all branches identical → keep just one.
            let arena = &self.b.arena;
            let alpha = &mut self.alpha;
            let arms = &self.arms[first..];
            let kept = arms.first().map(|a| a.body).or(default);
            let identical = kept.is_some_and(|kept| {
                arms.iter()
                    .map(|a| a.body)
                    .chain(default)
                    .all(|b| alpha.block_eq(arena, b, arena, kept))
            });
            if let (true, Some(kept)) = (identical, kept) {
                self.arms.truncate(first);
                self.b.open.extend_from_slice(self.b.arena.stmts(kept));
                return *self.b.arena.term(kept);
            }
            // Arms identical to the default are redundant.
            if let Some(d) = default {
                let mut i = first;
                while i < self.arms.len() {
                    if self.alpha.block_eq(arena, self.arms[i].body, arena, d) {
                        self.arms.remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        let alts = self.b.alts(&self.arms[first..]);
        self.arms.truncate(first);
        Terminator::Case {
            scrutinee: s,
            alts,
            default,
        }
    }

    /// Decides, last first, on the statements the forward pass left in the
    /// open block before `pending`: a `let` is dropped when its value is
    /// droppable and nothing kept uses it, a pending `join` (from `joins`
    /// above `joins_mark`) is dropped, inlined or kept. Returns the block's
    /// terminator, which an inlined join point replaces when the jump to it
    /// ends this block.
    fn backward(
        &mut self,
        f: &FnDef,
        mut term: Terminator,
        pending: usize,
        joins_mark: usize,
    ) -> Terminator {
        let start = *self.b.marks.last().expect("an open block");
        self.b.arena.for_each_term_use(&term, |v| {
            self.used.insert(v);
        });
        // Kept statements move up to `open[kept..pending]`.
        let mut kept = pending;
        for i in (start..pending).rev() {
            match self.b.open[i] {
                Stmt::Let { var, val } => {
                    // Dead-let elimination. `var` is bound only here (E0102),
                    // so any use of it is in what follows.
                    if val.is_droppable() && !self.used.contains(var) {
                        continue;
                    }
                    let (arena, used) = (&self.b.arena, &mut self.used);
                    arena.for_each_operand(&val, |v| {
                        used.insert(v);
                    });
                    kept -= 1;
                    self.b.open[kept] = self.b.open[i];
                }
                Stmt::Join { .. } => {
                    let join = self.joins.pop().expect("a pending join");
                    debug_assert!(self.joins.len() >= joins_mark);
                    if let Some(s) = self.join(f, join, kept, &mut term) {
                        kept -= 1;
                        self.b.open[kept] = s;
                    }
                }
                Stmt::Inc { .. } | Stmt::Dec { .. } => unreachable!("simplifier runs on λpure"),
            }
        }
        self.b.open.drain(start..kept);
        term
    }

    /// Decides on `join`, followed in the open block by `open[kept..]` and
    /// `term`: dead if nothing there jumps to it; inlined if one jump does
    /// (and not its own body); else the `join` statement to keep.
    fn join(
        &mut self,
        f: &FnDef,
        join: PendingJoin,
        kept: usize,
        term: &mut Terminator,
    ) -> Option<Stmt> {
        let label = join.label;
        let arena = &self.b.arena;
        let jumps = joined(&self.b.open[kept..])
            .map(|b| count_jumps(arena, b, label))
            .sum::<usize>()
            + term_jumps(arena, term, label);
        if jumps == 0 {
            return None; // dead join point
        }
        let body = self.block(f, join.body);
        let params = self.b.list(f.arena.vars(join.params));
        if jumps == 1 && count_jumps(&self.b.arena, body, label) == 0 {
            // Inline the single jump site.
            self.inline(label, params, body, kept, term);
            return None;
        }
        Some(Stmt::Join {
            label,
            params,
            body,
        })
    }

    /// Replaces the one `jump label(args…)` in `open[kept..]` and `term` by
    /// `let params = args;` bindings (as copy substitutions) and the
    /// statements and terminator of `body`.
    fn inline(
        &mut self,
        label: JoinId,
        params: Slice,
        body: BlockId,
        kept: usize,
        term: &mut Terminator,
    ) {
        if let Terminator::Jump { label: l, args } = *term {
            if l == label {
                // The jump ends the open block: continue it.
                let arena = &self.b.arena;
                for (&p, &a) in arena.vars(params).iter().zip(arena.vars(args)) {
                    self.b.open.push(Stmt::Let {
                        var: p,
                        val: Value::Var(a),
                    });
                }
                self.b.open.extend_from_slice(arena.stmts(body));
                *term = *arena.term(body);
                return;
            }
        }
        let arena = &self.b.arena;
        let site = joined(&self.b.open[kept..])
            .chain(arena.successors(term))
            .find_map(|b| find_jump(arena, b, label))
            .expect("one jump to an inlined join point");
        self.b.arena.inline_jump(site, params, body);
    }
}

/// The bodies of the `join` statements among `stmts`.
fn joined(stmts: &[Stmt]) -> impl Iterator<Item = BlockId> + '_ {
    stmts.iter().filter_map(|s| match s {
        Stmt::Join { body, .. } => Some(*body),
        _ => None,
    })
}

/// `v` after copy propagation.
fn resolve(subst: &[VarId], v: VarId) -> VarId {
    let mut cur = v;
    let mut hops = 0;
    while let Some(&next) = subst.get(cur as usize).filter(|&&n| n != NO_SUBST) {
        cur = next;
        hops += 1;
        debug_assert!(hops < 10_000, "substitution cycle");
    }
    cur
}

/// The jumps to `label` in `t` and the blocks under it.
fn term_jumps(arena: &Arena, t: &Terminator, label: JoinId) -> usize {
    match *t {
        Terminator::Jump { label: l, .. } => usize::from(l == label),
        Terminator::Ret(_) => 0,
        Terminator::Case { .. } => arena
            .successors(t)
            .map(|b| count_jumps(arena, b, label))
            .sum(),
    }
}

/// The jumps to `label` in block `b` and the blocks under it.
fn count_jumps(arena: &Arena, b: BlockId, label: JoinId) -> usize {
    joined(arena.stmts(b))
        .map(|j| count_jumps(arena, j, label))
        .sum::<usize>()
        + term_jumps(arena, arena.term(b), label)
}

/// The block under `b` (or `b` itself) that ends in a jump to `label`.
fn find_jump(arena: &Arena, b: BlockId, label: JoinId) -> Option<BlockId> {
    if let Terminator::Jump { label: l, .. } = *arena.term(b) {
        if l == label {
            return Some(b);
        }
    }
    joined(arena.stmts(b))
        .chain(arena.successors(arena.term(b)))
        .find_map(|inner| find_jump(arena, inner, label))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_program;
    use crate::parse::parse_program;
    use crate::wellformed::check_program;

    const FUEL: u64 = 10_000_000;

    /// Checks that simplification preserves behaviour and returns
    /// (before-size, after-size).
    fn check_preserves(src: &str) -> (usize, usize) {
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        check_program(&s).unwrap();
        let before = run_program(&p, "main", false, FUEL).unwrap().rendered;
        let after = run_program(&s, "main", false, FUEL).unwrap().rendered;
        assert_eq!(before, after, "simplification changed behaviour");
        (
            p.fns.iter().map(|f| f.arena.size()).sum(),
            s.fns.iter().map(|f| f.arena.size()).sum(),
        )
    }

    #[test]
    fn constant_folding_shrinks() {
        let (before, after) = check_preserves("def main() := 2 + 3 * 4");
        assert!(after < before);
    }

    #[test]
    fn folds_to_single_literal() {
        let p = parse_program("def main() := (1 + 2) * (3 + 4)").unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        let text = s.to_string();
        assert_eq!(s.fns[0].arena.size(), 2, "{text}");
        assert!(text.contains("21"), "{text}");
    }

    #[test]
    fn case_of_known_constructor_folds() {
        let src = r#"
inductive Option := None | Some(v)
def main() :=
  let o := Some(42);
  case o of
  | None => 0
  | Some(v) => v + 1
  end
"#;
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        let text = s.to_string();
        assert!(!text.contains("case"), "{text}");
        assert!(text.contains("43"), "{text}");
        check_preserves(src);
    }

    #[test]
    fn dead_expression_elimination_fig1a() {
        // An unused pure binding disappears (Figure 1A at the λ level).
        let src = r#"
def main() :=
  let dead := 10 * 10;
  7
"#;
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        assert_eq!(s.fns[0].arena.size(), 2, "{s}");
    }

    #[test]
    fn common_branch_elimination_fig1c() {
        // case x of | A => 7 | B => 7 — both arms equal → fused.
        let src = r#"
inductive AB := A | B
def f(x) :=
  case x of
  | A => 7
  | B => 7
  end
def main() := f(A) + f(B)
"#;
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        let text = s.display_fn(s.fn_by_name("f").unwrap()).to_string();
        assert!(!text.contains("case"), "{text}");
        check_preserves(src);
    }

    #[test]
    fn simpcase_can_be_disabled() {
        let src = r#"
inductive AB := A | B
def f(x) :=
  case x of
  | A => 7
  | B => 7
  end
def main() := f(A)
"#;
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::without_simpcase());
        // With simpcase off the case survives in f (main still folds the
        // call? no inlining across functions, so f keeps its case).
        let text = s.display_fn(s.fn_by_name("f").unwrap()).to_string();
        assert!(text.contains("case"), "{text}");
    }

    #[test]
    fn dead_join_point_removed() {
        let src = r#"
def f(b, y) :=
  let x := case b of | true => 1 | false => 2 end;
  x + y
def main() := f(true, 1)
"#;
        let p = parse_program(src).unwrap();
        // The case-in-value-position creates a join point; in f nothing
        // folds, so it stays; but in a version where the condition is
        // known, folding kills the join.
        let s = simplify_program(&p, SimplifyOptions::all());
        check_program(&s).unwrap();
        check_preserves(src);
    }

    #[test]
    fn single_use_join_inlined() {
        // After case-of-known, only one jump remains → inline the jp.
        let src = r#"
def main() :=
  let x := case true of | true => 1 | false => 2 end;
  x + 10
"#;
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        let text = s.to_string();
        assert!(!text.contains("join"), "{text}");
        assert!(!text.contains("jump"), "{text}");
        assert!(text.contains("11"), "{text}");
    }

    #[test]
    fn copy_propagation_chains() {
        let src = r#"
def main() :=
  let a := 5;
  let b := a;
  let c := b;
  c + c
"#;
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        assert!(s.to_string().contains("10"), "{s}");
    }

    #[test]
    fn preserves_recursive_functions() {
        let src = r#"
inductive List := Nil | Cons(h, t)
def filter_pos(xs) :=
  case xs of
  | Nil => Nil
  | Cons(h, t) => if h > 0 then Cons(h, filter_pos(t)) else filter_pos(t)
  end
def main() := filter_pos(Cons(0, Cons(3, Cons(0, Cons(7, Nil)))))
"#;
        check_preserves(src);
    }

    #[test]
    fn effectful_lets_not_dropped() {
        // A call result that is unused must still run (calls may diverge).
        let src = r#"
def id(x) := x
def main() :=
  let unused := id(5);
  3
"#;
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        assert!(s
            .display_fn(s.fns.last().unwrap())
            .to_string()
            .contains("call @id"));
    }

    #[test]
    fn bigint_folding() {
        let src = "def main() := 99999999999999999999 + 1";
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        assert!(s.to_string().contains("big(100000000000000000000)"), "{s}");
    }

    #[test]
    fn a_single_jump_inside_an_arm_is_inlined_there() {
        // def f(x0) := join j0(x1) = ret x1 in
        //   case x0 of | 0 => let x2 = 5; jump j0(x2) | default => ret x0
        let mut names = crate::ast::Names::default();
        let name = names.intern("f");
        let mut b = crate::ast::BodyBuilder::default();
        b.open();
        b.open();
        let jp = b.ret(1);
        b.open();
        b.let_(2, Value::LitInt(5));
        let arm = b.jump(0, &[2]);
        b.open();
        let default = b.ret(0);
        let params = b.list(&[1]);
        b.push(Stmt::Join {
            label: 0,
            params,
            body: jp,
        });
        let body = b.case(0, &[(0, arm)], Some(default));
        let p = Program {
            fns: vec![b.finish(name, &[0], body, 3, 1)],
            names: Arc::new(names),
        };
        check_program(&p).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        check_program(&s).unwrap();
        let f = &s.fns[0];
        let text = s.to_string();
        assert!(!text.contains("join") && !text.contains("jump"), "{text}");
        // The arm returns its binding directly: the parameter copy the
        // inlining made was propagated away by the next sweep.
        let Terminator::Case { alts, .. } = *f.arena.term(f.body) else {
            panic!("{text}")
        };
        let arm = f.arena.alts(alts).next().expect("one arm").body;
        assert_eq!(
            f.arena.stmts(arm),
            [Stmt::Let {
                var: 2,
                val: Value::LitInt(5)
            }],
            "{text}"
        );
        assert_eq!(*f.arena.term(arm), Terminator::Ret(2), "{text}");
        assert_eq!(f.arena.size(), 4, "only reachable code is kept: {text}");
    }
}
