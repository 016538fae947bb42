//! The λpure / λrc abstract syntax, stored flat in per-function arenas.
//!
//! λpure is LEAN4's minimal, pure, strict, higher-order IR (§II-B of the
//! paper): A-normal-form expressions built from `let`, data constructors,
//! projections, pattern matching (`case`), full calls, partial applications,
//! closure applications, and join points. λrc is the same syntax extended
//! with explicit reference-count instructions (`inc` / `dec`); a term is "in
//! λrc" when those have been inserted by [`crate::rc::insert_rc`].
//!
//! # Layout
//!
//! A body is stored the way the paper's regions hold code: as blocks. A
//! [`Block`] is a contiguous run of [`Stmt`]s — `let`, `inc`, `dec` and
//! `join` declarations — in its function's statement pool, closed by one
//! [`Terminator`]: `ret`, `jump` or `case`. The arms of a `case` and the
//! body of a `join` are further blocks. Operand lists and parameters are
//! [`Slice`]s, `(offset, len)` runs of the function's variable pool; the
//! arms of a `case` are a slice of its block pool, each arm block carrying
//! its tag; literal text is a slice of its text pool. A function's four
//! pools make up its [`Arena`]. Function and callee names are [`Name`]s,
//! interned once per [`Program`] in its [`Names`] table, which the passes
//! share rather than copy.
//!
//! The layout was chosen for two reasons:
//!
//! - **Allocations.** A function costs one allocation per pool, not one
//!   per binding, operand list and callee name. Producers assemble nested
//!   blocks in a [`BodyBuilder`]'s scratch buffers, reused from function to
//!   function, and copy each finished function out once.
//! - **Walks.** A walk loops over a block's statements and recurses only
//!   into join bodies and case arms, so a run of thousands of bindings costs
//!   no stack: recursion follows the nesting of blocks, which the readers
//!   bound by [`crate::MAX_DEPTH`].
//!
//! [`BodyBuilder::finish`] lays every function out in one canonical order
//! (blocks copied in pre-order, each pool filled in that order), so two
//! structurally equal functions of one program are equal field by field.
//!
//! Join-point discipline: this crate locally lambda-lifts join points, so a
//! join point's body may only reference its own parameters (checked by
//! [`crate::wellformed`]). Jumps pass everything explicitly, which keeps
//! reference counting compositional.

use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// A local variable (unique within one function).
pub type VarId = u32;

/// A join-point label (unique within one function).
pub type JoinId = u32;

/// A run of entries of one of a function's pools: `len` entries from
/// `start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Slice {
    /// First entry.
    pub start: u32,
    /// Number of entries.
    pub len: u32,
}

impl Slice {
    /// The slice's entries as a range of pool indices.
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    /// Number of entries.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the slice has no entries.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The slice of `len` entries from `start`.
fn slice(start: usize, len: usize) -> Slice {
    let at = |n: usize| u32::try_from(n).expect("a function's pools hold under 2^32 entries");
    Slice {
        start: at(start),
        len: at(len),
    }
}

/// A block of a function's [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into the block pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A name in a program's [`Names`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(pub u32);

impl Name {
    /// Index into the name table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A program's function and callee names, each stored once: the names'
/// text back to back in one string, and an open-addressing index over it.
/// Names come from program text, so the index hashes with the default,
/// seeded hasher.
#[derive(Clone, Default)]
pub struct Names {
    text: String,
    /// Where each name ends in `text`.
    ends: Vec<u32>,
    /// The index: `0` for an empty slot, else a name's index plus one.
    /// Empty, or a power of two at least twice the number of names.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Names {
    /// An empty table with room for `names` names of `bytes` bytes in all.
    pub fn with_capacity(names: usize, bytes: usize) -> Names {
        Names {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
            slots: if names == 0 {
                Vec::new()
            } else {
                vec![0; (2 * names).next_power_of_two()]
            },
            hasher: RandomState::new(),
        }
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The text of `n`.
    pub fn resolve(&self, n: Name) -> &str {
        let i = n.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The name `s`, if interned.
    pub fn get(&self, s: &str) -> Option<Name> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(s) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                k if self.resolve(Name(k - 1)) == s => return Some(Name(k - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Interns `s`, returning its name.
    pub fn intern(&mut self, s: &str) -> Name {
        if let Some(n) = self.get(s) {
            return n;
        }
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            let size = (2 * self.slots.len()).max(16);
            self.slots.clear();
            self.slots.resize(size, 0);
            for i in 0..self.ends.len() {
                self.place(Name(i as u32));
            }
        }
        let n = Name(u32::try_from(self.ends.len()).expect("under 2^32 names"));
        self.text.push_str(s);
        self.ends
            .push(u32::try_from(self.text.len()).expect("under 4 GiB of names"));
        self.place(n);
        n
    }

    /// Files `n` in the index.
    fn place(&mut self, n: Name) {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(self.resolve(n)) as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = n.0 + 1;
    }

    /// Every name, in interning order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|i| self.resolve(Name(i as u32)))
    }
}

impl PartialEq for Names {
    fn eq(&self, other: &Names) -> bool {
        self.text == other.text && self.ends == other.ends
    }
}

impl Eq for Names {}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A bindable value (the right-hand side of a `let`). Operand lists are
/// slices of the function's variable pool, literal text a slice of its
/// text pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Alias of another variable.
    Var(VarId),
    /// Machine-word integer literal.
    LitInt(i64),
    /// Arbitrary-precision integer literal (decimal digits, in the text
    /// pool).
    LitBig(Slice),
    /// String literal (in the text pool).
    LitStr(Slice),
    /// Data constructor application: `ctor_tag(args…)`.
    Ctor {
        /// Variant tag.
        tag: u32,
        /// Field values.
        args: Slice,
    },
    /// Field projection `proj_idx(var)`.
    Proj {
        /// The constructor value.
        var: VarId,
        /// Field index.
        idx: u32,
    },
    /// Saturated call of a top-level function or runtime builtin.
    Call {
        /// Callee name.
        func: Name,
        /// Arguments (exactly the callee's arity).
        args: Slice,
    },
    /// Partial application of a top-level function (closure creation).
    Pap {
        /// Function name.
        func: Name,
        /// Captured arguments (fewer than the arity).
        args: Slice,
    },
    /// Application of a closure value to further arguments.
    App {
        /// The closure.
        closure: VarId,
        /// Arguments to add.
        args: Slice,
    },
}

impl Value {
    /// The operand list, for the values that have one.
    pub fn args(&self) -> Option<Slice> {
        match *self {
            Value::Ctor { args, .. }
            | Value::Call { args, .. }
            | Value::Pap { args, .. }
            | Value::App { args, .. } => Some(args),
            _ => None,
        }
    }

    /// Whether evaluating the value has no observable effect (so an unused
    /// binding can be dropped). All λpure values qualify; `App` may invoke
    /// arbitrary user code, and calls may not terminate, so both are kept.
    pub fn is_droppable(&self) -> bool {
        !matches!(self, Value::Call { .. } | Value::App { .. })
    }
}

/// A statement: the non-terminating part of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// `let var = val;`
    Let {
        /// The bound variable.
        var: VarId,
        /// The bound value.
        val: Value,
    },
    /// Join-point declaration `join label(params…) = body;`: the rest of
    /// the block may `jump label(args…)` to `body`, which may reference only
    /// its `params`.
    Join {
        /// Label.
        label: JoinId,
        /// Join-point parameters.
        params: Slice,
        /// The join point's body (the "after-jump" code).
        body: BlockId,
    },
    /// λrc: increment `var`'s reference count `n` times.
    Inc {
        /// Variable to retain.
        var: VarId,
        /// Retain count.
        n: u32,
    },
    /// λrc: decrement `var`'s reference count.
    Dec {
        /// Variable to release.
        var: VarId,
    },
}

/// How a block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Return a variable from the function.
    Ret(VarId),
    /// Transfer to an enclosing join point.
    Jump {
        /// Target label.
        label: JoinId,
        /// Arguments for the join point's parameters.
        args: Slice,
    },
    /// Pattern match on a constructor tag.
    Case {
        /// The value whose tag is inspected.
        scrutinee: VarId,
        /// Arms, in ascending tag order: consecutive blocks of the block
        /// pool, each with its [`Block::tag`].
        alts: Slice,
        /// Fallback when no arm matches.
        default: Option<BlockId>,
    },
}

/// A block: statements closed by a terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// The statements (a slice of the statement pool).
    pub stmts: Slice,
    /// How the block ends.
    pub term: Terminator,
    /// The constructor tag the block matches, when it is a case arm.
    pub tag: u32,
}

/// One arm of a `case`, as [`Arena::alts`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alt {
    /// The constructor tag this arm matches.
    pub tag: u32,
    /// The arm's body.
    pub body: BlockId,
}

/// A function's pools: its blocks, their statements, its operand lists and
/// parameters, and its literal text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Arena {
    stmts: Vec<Stmt>,
    blocks: Vec<Block>,
    vars: Vec<VarId>,
    text: String,
}

impl Arena {
    /// The block `b`.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// The statements of block `b`.
    pub fn stmts(&self, b: BlockId) -> &[Stmt] {
        &self.stmts[self.blocks[b.index()].stmts.range()]
    }

    /// The terminator of block `b`.
    pub fn term(&self, b: BlockId) -> &Terminator {
        &self.blocks[b.index()].term
    }

    /// The variables of a slice of the variable pool.
    pub fn vars(&self, s: Slice) -> &[VarId] {
        &self.vars[s.range()]
    }

    /// The arms a `case`'s slice of the block pool holds, in order.
    pub fn alts(
        &self,
        s: Slice,
    ) -> impl ExactSizeIterator<Item = Alt> + DoubleEndedIterator + Clone + '_ {
        s.range().map(|i| Alt {
            tag: self.blocks[i].tag,
            body: BlockId(i as u32),
        })
    }

    /// The text of a slice of the text pool.
    pub fn text(&self, s: Slice) -> &str {
        &self.text[s.range()]
    }

    /// The blocks control may pass to from `t`: a case's arms, then its
    /// default.
    pub fn successors<'a>(&'a self, t: &Terminator) -> impl Iterator<Item = BlockId> + 'a {
        let (alts, default) = match *t {
            Terminator::Case { alts, default, .. } => (alts, default),
            _ => (Slice::default(), None),
        };
        self.alts(alts).map(|a| a.body).chain(default)
    }

    /// Calls `f` on every variable `val` mentions, with multiplicity, in
    /// operand order.
    pub fn for_each_operand(&self, val: &Value, mut f: impl FnMut(VarId)) {
        match *val {
            Value::Var(v) | Value::Proj { var: v, .. } => f(v),
            Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => {}
            Value::Ctor { args, .. } | Value::Call { args, .. } | Value::Pap { args, .. } => {
                self.vars(args).iter().for_each(|&a| f(a))
            }
            Value::App { closure, args } => {
                f(closure);
                self.vars(args).iter().for_each(|&a| f(a));
            }
        }
    }

    /// Calls `f` on every variable `s` uses (not binds), in operand order:
    /// nothing for a `join`, whose body is a block of its own.
    pub fn for_each_use(&self, s: &Stmt, mut f: impl FnMut(VarId)) {
        match s {
            Stmt::Let { val, .. } => self.for_each_operand(val, f),
            Stmt::Join { .. } => {}
            Stmt::Inc { var, .. } | Stmt::Dec { var } => f(*var),
        }
    }

    /// Calls `f` on every variable `t` uses itself (not its arms'), in
    /// operand order.
    pub fn for_each_term_use(&self, t: &Terminator, mut f: impl FnMut(VarId)) {
        match *t {
            Terminator::Ret(v) | Terminator::Case { scrutinee: v, .. } => f(v),
            Terminator::Jump { args, .. } => self.vars(args).iter().for_each(|&a| f(a)),
        }
    }

    /// Number of statements.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of statements and terminators (one per block): the size
    /// metric of tests and the simplifier.
    pub fn size(&self) -> usize {
        self.stmts.len() + self.blocks.len()
    }

    /// Whether any statement is an `inc` or `dec` (i.e. the body is λrc).
    pub fn has_rc_ops(&self) -> bool {
        self.stmts
            .iter()
            .any(|s| matches!(s, Stmt::Inc { .. } | Stmt::Dec { .. }))
    }

    /// Free variables of block `b` (a join point's body sees the binders
    /// around the join as well as its parameters).
    pub fn free_vars(&self, b: BlockId) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        FreeVars::default().for_each(self, b, &[], |v| {
            out.insert(v);
        });
        out
    }

    /// Structural equality of block `a` of this arena and block `b` of
    /// `other`, modulo binder names and join labels — used by `simpcase`
    /// to detect identical case branches. Both blocks must belong to
    /// functions of one program (callees compare by [`Name`]).
    pub fn alpha_eq(&self, a: BlockId, other: &Arena, b: BlockId) -> bool {
        AlphaCtx::default().block_eq(self, a, other, b)
    }

    /// Renames *free* occurrences of variables in block `b`: `map(v)` is
    /// the new name of `v`, if it has one. Binders are never renamed; a
    /// binder of a renamed variable disables the renaming in its scope.
    pub fn rename_free(&mut self, b: BlockId, map: impl Fn(VarId) -> Option<VarId>) {
        let mut shadowed = Vec::new();
        self.rename_block(b, &map, &mut shadowed);
    }

    fn rename_block(
        &mut self,
        b: BlockId,
        map: &impl Fn(VarId) -> Option<VarId>,
        shadowed: &mut Vec<VarId>,
    ) {
        let r = |v: VarId, shadowed: &[VarId]| match map(v) {
            Some(to) if !shadowed.contains(&v) => to,
            _ => v,
        };
        let mark = shadowed.len();
        let block = self.blocks[b.index()];
        for i in block.stmts.range() {
            match self.stmts[i] {
                Stmt::Let { var, val } => {
                    let val = match val {
                        Value::Var(v) => Value::Var(r(v, shadowed)),
                        Value::Proj { var, idx } => Value::Proj {
                            var: r(var, shadowed),
                            idx,
                        },
                        Value::App { closure, args } => Value::App {
                            closure: r(closure, shadowed),
                            args,
                        },
                        other => other,
                    };
                    if let Some(args) = val.args() {
                        for j in args.range() {
                            self.vars[j] = r(self.vars[j], shadowed);
                        }
                    }
                    self.stmts[i] = Stmt::Let { var, val };
                    if map(var).is_some() {
                        shadowed.push(var);
                    }
                }
                Stmt::Join { params, body, .. } => {
                    let inner = shadowed.len();
                    for j in params.range() {
                        if map(self.vars[j]).is_some() {
                            shadowed.push(self.vars[j]);
                        }
                    }
                    self.rename_block(body, map, shadowed);
                    shadowed.truncate(inner);
                }
                Stmt::Inc { var, n } => {
                    self.stmts[i] = Stmt::Inc {
                        var: r(var, shadowed),
                        n,
                    }
                }
                Stmt::Dec { var } => {
                    self.stmts[i] = Stmt::Dec {
                        var: r(var, shadowed),
                    }
                }
            }
        }
        let term = match block.term {
            Terminator::Ret(v) => Terminator::Ret(r(v, shadowed)),
            Terminator::Jump { label, args } => {
                for j in args.range() {
                    self.vars[j] = r(self.vars[j], shadowed);
                }
                Terminator::Jump { label, args }
            }
            Terminator::Case {
                scrutinee,
                alts,
                default,
            } => {
                for j in alts.range() {
                    self.rename_block(BlockId(j as u32), map, shadowed);
                }
                if let Some(d) = default {
                    self.rename_block(d, map, shadowed);
                }
                Terminator::Case {
                    scrutinee: r(scrutinee, shadowed),
                    alts,
                    default,
                }
            }
        };
        self.blocks[b.index()].term = term;
        shadowed.truncate(mark);
    }

    /// Whether block `a` of this arena and block `b` of `other` are the
    /// same code: the same statements, operands, labels and names.
    pub fn same_block(&self, a: BlockId, other: &Arena, b: BlockId) -> bool {
        let same_list = |x: Slice, y: Slice| self.vars(x) == other.vars(y);
        let same_value = |x: &Value, y: &Value| match (*x, *y) {
            (Value::LitBig(s), Value::LitBig(t)) | (Value::LitStr(s), Value::LitStr(t)) => {
                self.text(s) == other.text(t)
            }
            (Value::Ctor { tag: t1, args: a1 }, Value::Ctor { tag: t2, args: a2 }) => {
                t1 == t2 && same_list(a1, a2)
            }
            (Value::Call { func: f1, args: a1 }, Value::Call { func: f2, args: a2 })
            | (Value::Pap { func: f1, args: a1 }, Value::Pap { func: f2, args: a2 }) => {
                f1 == f2 && same_list(a1, a2)
            }
            (
                Value::App {
                    closure: c1,
                    args: a1,
                },
                Value::App {
                    closure: c2,
                    args: a2,
                },
            ) => c1 == c2 && same_list(a1, a2),
            (x, y) => x.args().is_none() && x == y,
        };
        let (xs, ys) = (self.stmts(a), other.stmts(b));
        xs.len() == ys.len()
            && xs.iter().zip(ys).all(|(x, y)| match (*x, *y) {
                (Stmt::Let { var: v1, val: x1 }, Stmt::Let { var: v2, val: x2 }) => {
                    v1 == v2 && same_value(&x1, &x2)
                }
                (
                    Stmt::Join {
                        label: l1,
                        params: p1,
                        body: b1,
                    },
                    Stmt::Join {
                        label: l2,
                        params: p2,
                        body: b2,
                    },
                ) => l1 == l2 && same_list(p1, p2) && self.same_block(b1, other, b2),
                (x, y) => !matches!(x, Stmt::Let { .. } | Stmt::Join { .. }) && x == y,
            })
            && match (*self.term(a), *other.term(b)) {
                (Terminator::Ret(x), Terminator::Ret(y)) => x == y,
                (
                    Terminator::Jump {
                        label: l1,
                        args: a1,
                    },
                    Terminator::Jump {
                        label: l2,
                        args: a2,
                    },
                ) => l1 == l2 && same_list(a1, a2),
                (
                    Terminator::Case {
                        scrutinee: s1,
                        alts: a1,
                        default: d1,
                    },
                    Terminator::Case {
                        scrutinee: s2,
                        alts: a2,
                        default: d2,
                    },
                ) => {
                    s1 == s2
                        && a1.len == a2.len
                        && self
                            .alts(a1)
                            .zip(other.alts(a2))
                            .all(|(x, y)| x.tag == y.tag && self.same_block(x.body, other, y.body))
                        && match (d1, d2) {
                            (None, None) => true,
                            (Some(x), Some(y)) => self.same_block(x, other, y),
                            _ => false,
                        }
                }
                _ => false,
            }
    }

    /// Replaces the `jump` ending block `site` by `let params = args;`
    /// copies, then the statements and terminator of block `body`. The
    /// block's statements move to the end of the pool, leaving their old
    /// place unreachable until [`BodyBuilder::finish`] drops it.
    pub(crate) fn inline_jump(&mut self, site: BlockId, params: Slice, body: BlockId) {
        let (block, body) = (self.blocks[site.index()], self.blocks[body.index()]);
        let Terminator::Jump { args, .. } = block.term else {
            panic!("block {} does not end in a jump", site.0)
        };
        let start = self.stmts.len();
        self.stmts.extend_from_within(block.stmts.range());
        for (p, a) in params.range().zip(args.range()) {
            self.stmts.push(Stmt::Let {
                var: self.vars[p],
                val: Value::Var(self.vars[a]),
            });
        }
        self.stmts.extend_from_within(body.stmts.range());
        self.blocks[site.index()] = Block {
            stmts: slice(start, self.stmts.len() - start),
            term: body.term,
            tag: block.tag,
        };
    }

    fn clear(&mut self) {
        self.stmts.clear();
        self.blocks.clear();
        self.vars.clear();
        self.text.clear();
    }
}

/// Variable and label correspondences built up during an alpha
/// comparison, as stacks searched from the top: a binding is pushed before
/// the rest of its block and popped when the block ends. A join body sees
/// only its parameters' correspondences, from `frame` up.
#[derive(Debug, Default)]
pub(crate) struct AlphaCtx {
    vars: Vec<(VarId, VarId)>,
    /// Where the visible part of `vars` starts.
    frame: usize,
    joins: Vec<(JoinId, JoinId)>,
}

impl AlphaCtx {
    /// Makes room for comparing blocks of up to `stmts` statements without
    /// growing.
    pub(crate) fn reserve(&mut self, stmts: usize) {
        self.vars.reserve(stmts);
        self.joins.reserve(stmts);
    }

    fn var_eq(&self, a: VarId, b: VarId) -> bool {
        match self.vars[self.frame..].iter().rev().find(|(x, _)| *x == a) {
            Some(&(_, mapped)) => mapped == b,
            None => a == b,
        }
    }

    fn join_eq(&self, a: JoinId, b: JoinId) -> bool {
        match self.joins.iter().rev().find(|(x, _)| *x == a) {
            Some(&(_, mapped)) => mapped == b,
            None => a == b,
        }
    }

    fn list_eq(&self, xa: &Arena, xs: Slice, ya: &Arena, ys: Slice) -> bool {
        xs.len == ys.len
            && xa
                .vars(xs)
                .iter()
                .zip(ya.vars(ys))
                .all(|(&x, &y)| self.var_eq(x, y))
    }

    fn value_eq(&self, xa: &Arena, x: &Value, ya: &Arena, y: &Value) -> bool {
        match (*x, *y) {
            (Value::Var(x), Value::Var(y)) => self.var_eq(x, y),
            (Value::LitInt(x), Value::LitInt(y)) => x == y,
            (Value::LitBig(x), Value::LitBig(y)) | (Value::LitStr(x), Value::LitStr(y)) => {
                xa.text(x) == ya.text(y)
            }
            (Value::Ctor { tag: t1, args: a1 }, Value::Ctor { tag: t2, args: a2 }) => {
                t1 == t2 && self.list_eq(xa, a1, ya, a2)
            }
            (Value::Proj { var: v1, idx: i1 }, Value::Proj { var: v2, idx: i2 }) => {
                self.var_eq(v1, v2) && i1 == i2
            }
            (Value::Call { func: f1, args: a1 }, Value::Call { func: f2, args: a2 })
            | (Value::Pap { func: f1, args: a1 }, Value::Pap { func: f2, args: a2 }) => {
                f1 == f2 && self.list_eq(xa, a1, ya, a2)
            }
            (
                Value::App {
                    closure: c1,
                    args: a1,
                },
                Value::App {
                    closure: c2,
                    args: a2,
                },
            ) => self.var_eq(c1, c2) && self.list_eq(xa, a1, ya, a2),
            _ => false,
        }
    }

    /// Whether block `a` of `xa` and block `b` of `ya` are alpha-equal
    /// under the correspondences so far.
    pub(crate) fn block_eq(&mut self, xa: &Arena, a: BlockId, ya: &Arena, b: BlockId) -> bool {
        let (xs, ys) = (xa.stmts(a), ya.stmts(b));
        if xs.len() != ys.len() {
            return false;
        }
        let (var_mark, join_mark) = (self.vars.len(), self.joins.len());
        let mut same = true;
        for (x, y) in xs.iter().zip(ys) {
            same = match (*x, *y) {
                (Stmt::Let { var: v1, val: x1 }, Stmt::Let { var: v2, val: x2 }) => {
                    let same = self.value_eq(xa, &x1, ya, &x2);
                    self.vars.push((v1, v2));
                    same
                }
                (
                    Stmt::Join {
                        label: l1,
                        params: p1,
                        body: j1,
                    },
                    Stmt::Join {
                        label: l2,
                        params: p2,
                        body: j2,
                    },
                ) => {
                    let same = p1.len == p2.len && {
                        let (outer, at) = (self.frame, self.vars.len());
                        self.frame = at;
                        self.vars
                            .extend(xa.vars(p1).iter().copied().zip(ya.vars(p2).iter().copied()));
                        let same = self.block_eq(xa, j1, ya, j2);
                        self.vars.truncate(at);
                        self.frame = outer;
                        same
                    };
                    self.joins.push((l1, l2));
                    same
                }
                (Stmt::Inc { var: v1, n: n1 }, Stmt::Inc { var: v2, n: n2 }) => {
                    self.var_eq(v1, v2) && n1 == n2
                }
                (Stmt::Dec { var: v1 }, Stmt::Dec { var: v2 }) => self.var_eq(v1, v2),
                _ => false,
            };
            if !same {
                break;
            }
        }
        same = same
            && match (*xa.term(a), *ya.term(b)) {
                (
                    Terminator::Case {
                        scrutinee: s1,
                        alts: a1,
                        default: d1,
                    },
                    Terminator::Case {
                        scrutinee: s2,
                        alts: a2,
                        default: d2,
                    },
                ) => {
                    self.var_eq(s1, s2)
                        && a1.len == a2.len
                        && xa
                            .alts(a1)
                            .zip(ya.alts(a2))
                            .all(|(x, y)| x.tag == y.tag && self.block_eq(xa, x.body, ya, y.body))
                        && match (d1, d2) {
                            (None, None) => true,
                            (Some(x), Some(y)) => self.block_eq(xa, x, ya, y),
                            _ => false,
                        }
                }
                (
                    Terminator::Jump {
                        label: l1,
                        args: a1,
                    },
                    Terminator::Jump {
                        label: l2,
                        args: a2,
                    },
                ) => self.join_eq(l1, l2) && self.list_eq(xa, a1, ya, a2),
                (Terminator::Ret(x), Terminator::Ret(y)) => self.var_eq(x, y),
                _ => false,
            };
        self.vars.truncate(var_mark);
        self.joins.truncate(join_mark);
        same
    }
}

/// Reusable scratch for free-variable walks: per variable, how many
/// enclosing binders bind it, updated in place and undone on the way out.
///
/// Free is meant as [`Arena::free_vars`] defines it: a join point's body
/// sees the binders around the join as well as its parameters.
#[derive(Debug, Default)]
pub(crate) struct FreeVars {
    /// Per variable, the number of binders around the walk's position.
    bound: Vec<u32>,
    /// Variables bound by the blocks being walked, to unbind after them.
    chain: Vec<VarId>,
}

impl FreeVars {
    /// Makes room for walks over functions of up to `vars` variables and
    /// `stmts` statements without growing.
    pub(crate) fn reserve(&mut self, vars: usize, stmts: usize) {
        if vars > self.bound.len() {
            self.bound.resize(vars, 0);
        }
        self.chain.reserve(stmts);
    }

    /// Calls `f` on every free occurrence in block `b` of a variable not in
    /// `bound`, in walk order (a variable occurring several times is passed
    /// several times).
    pub(crate) fn for_each(
        &mut self,
        arena: &Arena,
        b: BlockId,
        bound: &[VarId],
        mut f: impl FnMut(VarId),
    ) {
        for &v in bound {
            self.bind(v);
        }
        self.walk(arena, b, &mut f);
        for &v in bound {
            self.bound[v as usize] -= 1;
        }
    }

    /// The smallest free variable of block `b` that is not in `bound`.
    pub(crate) fn first_outside(
        &mut self,
        arena: &Arena,
        b: BlockId,
        bound: &[VarId],
    ) -> Option<VarId> {
        let mut first: Option<VarId> = None;
        self.for_each(arena, b, bound, |v| {
            first = Some(first.map_or(v, |m| m.min(v)));
        });
        first
    }

    fn bind(&mut self, v: VarId) {
        let i = v as usize;
        if i >= self.bound.len() {
            self.bound.resize(i + 1, 0);
        }
        self.bound[i] += 1;
    }

    fn is_bound(&self, v: VarId) -> bool {
        self.bound.get(v as usize).is_some_and(|&n| n > 0)
    }

    fn walk(&mut self, arena: &Arena, b: BlockId, f: &mut impl FnMut(VarId)) {
        let mark = self.chain.len();
        for s in arena.stmts(b) {
            match *s {
                Stmt::Let { var, ref val } => {
                    arena.for_each_operand(val, |v| {
                        if !self.is_bound(v) {
                            f(v)
                        }
                    });
                    self.bind(var);
                    self.chain.push(var);
                }
                Stmt::Join { params, body, .. } => {
                    for &p in arena.vars(params) {
                        self.bind(p);
                    }
                    self.walk(arena, body, f);
                    for &p in arena.vars(params) {
                        self.bound[p as usize] -= 1;
                    }
                }
                Stmt::Inc { var, .. } | Stmt::Dec { var } => {
                    if !self.is_bound(var) {
                        f(var);
                    }
                }
            }
        }
        let t = arena.term(b);
        arena.for_each_term_use(t, |v| {
            if !self.is_bound(v) {
                f(v)
            }
        });
        for arm in arena.successors(t) {
            self.walk(arena, arm, f);
        }
        while self.chain.len() > mark {
            let v = self.chain.pop().expect("above the mark");
            self.bound[v as usize] -= 1;
        }
    }
}

/// A top-level function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's global name.
    pub name: Name,
    /// Parameter variables (a slice of the variable pool).
    pub params: Slice,
    /// The body block.
    pub body: BlockId,
    /// Exclusive upper bound on variable ids used in this function (for
    /// fresh-variable generation).
    pub next_var: VarId,
    /// Exclusive upper bound on join labels.
    pub next_join: JoinId,
    /// The body's pools.
    pub arena: Arena,
}

impl FnDef {
    /// The function's arity.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// The parameter variables.
    pub fn params(&self) -> &[VarId] {
        self.arena.vars(self.params)
    }
}

/// A whole λpure/λrc program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Functions, in definition order.
    pub fns: Vec<FnDef>,
    /// The names of the functions and of every callee, shared by the
    /// programs a pass derives from this one.
    pub names: Arc<Names>,
}

/// The largest pool sizes among a program's functions: what a pass sizes
/// its scratch buffers to, so they do not grow function by function.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sizes {
    /// Statements.
    pub(crate) stmts: usize,
    /// Blocks.
    pub(crate) blocks: usize,
    /// Variable-pool entries (parameters and operands).
    pub(crate) vars: usize,
    /// The `next_var` bound.
    pub(crate) var_ids: usize,
    /// The `next_join` bound.
    pub(crate) join_ids: usize,
}

impl Program {
    /// The largest pool sizes among the functions.
    pub(crate) fn largest(&self) -> Sizes {
        let mut m = Sizes::default();
        for f in &self.fns {
            let a = &f.arena;
            m.stmts = m.stmts.max(a.stmts.len());
            m.blocks = m.blocks.max(a.blocks.len());
            m.vars = m.vars.max(a.vars.len());
            m.var_ids = m.var_ids.max(f.next_var as usize);
            m.join_ids = m.join_ids.max(f.next_join as usize);
        }
        m
    }

    /// The name of `f`.
    pub fn name(&self, f: &FnDef) -> &str {
        self.names.resolve(f.name)
    }

    /// Looks up a function by name.
    pub fn fn_by_name(&self, name: &str) -> Option<&FnDef> {
        let n = self.names.get(name)?;
        self.fns.iter().find(|f| f.name == n)
    }

    /// Arity of a named function, if it exists.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.fn_by_name(name).map(|f| f.arity())
    }

    /// `f` printed as [`Program`]'s `Display` prints it.
    pub fn display_fn<'a>(&'a self, f: &'a FnDef) -> impl fmt::Display + 'a {
        FnDisplay {
            names: &self.names,
            f,
        }
    }
}

impl PartialEq for Program {
    /// Structural equality: functions compare field by field, except that
    /// names compare by their text, so two programs read from different
    /// sources compare equal whatever order their names were interned in.
    fn eq(&self, other: &Program) -> bool {
        if self.fns.len() != other.fns.len() {
            return false;
        }
        if Arc::ptr_eq(&self.names, &other.names) || self.names == other.names {
            return self.fns == other.fns;
        }
        let same_name = |a: Name, b: Name| self.names.resolve(a) == other.names.resolve(b);
        self.fns.iter().zip(&other.fns).all(|(f, g)| {
            let (x, y) = (&f.arena, &g.arena);
            same_name(f.name, g.name)
                && (f.params, f.body, f.next_var, f.next_join)
                    == (g.params, g.body, g.next_var, g.next_join)
                && (&x.blocks, &x.vars, &x.text) == (&y.blocks, &y.vars, &y.text)
                && x.stmts.len() == y.stmts.len()
                && x.stmts.iter().zip(&y.stmts).all(|(s, t)| match (s, t) {
                    (
                        Stmt::Let {
                            var: v1,
                            val: Value::Call { func: f1, args: a1 },
                        },
                        Stmt::Let {
                            var: v2,
                            val: Value::Call { func: f2, args: a2 },
                        },
                    )
                    | (
                        Stmt::Let {
                            var: v1,
                            val: Value::Pap { func: f1, args: a1 },
                        },
                        Stmt::Let {
                            var: v2,
                            val: Value::Pap { func: f2, args: a2 },
                        },
                    ) => v1 == v2 && a1 == a2 && same_name(*f1, *f2),
                    _ => s == t,
                })
        })
    }
}

impl Eq for Program {}

// ---- building ---------------------------------------------------------------

/// Builds function bodies: blocks are opened, filled with statements and
/// closed with a terminator, innermost first, so nested blocks can be built
/// while their parent is still open. The open blocks' statements are
/// stacked in one scratch buffer; a closed block's statements move into the
/// arena. One builder serves every function of a pass: [`finish`] copies
/// the function out and empties the buffers, keeping their storage.
///
/// [`finish`]: BodyBuilder::finish
#[derive(Debug, Default)]
pub struct BodyBuilder {
    /// The closed blocks of the function being built.
    pub(crate) arena: Arena,
    /// The statements of the open blocks, innermost last.
    pub(crate) open: Vec<Stmt>,
    /// Where each open block's statements start in `open`.
    pub(crate) marks: Vec<usize>,
    /// [`finish`](BodyBuilder::finish)'s work list: blocks of `arena` still
    /// to copy, each with its id in the copy.
    todo: Vec<(BlockId, BlockId)>,
}

impl BodyBuilder {
    /// Makes room for a function of the given pool sizes without growing:
    /// `open` statements stacked in open blocks at once, and the sizes of
    /// the finished function's pools. Blocks nest at most `blocks` deep.
    pub fn reserve(&mut self, open: usize, stmts: usize, blocks: usize, vars: usize) {
        self.open.reserve(open);
        self.marks.reserve(blocks);
        self.todo.reserve(blocks);
        self.arena.stmts.reserve(stmts);
        self.arena.blocks.reserve(blocks);
        self.arena.vars.reserve(vars);
    }

    /// The closed blocks so far.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The closed blocks so far, to edit in place.
    pub fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    /// Opens a block, nested in the innermost open one.
    pub fn open(&mut self) {
        self.marks.push(self.open.len());
    }

    /// Appends `s` to the innermost open block.
    pub fn push(&mut self, s: Stmt) {
        debug_assert!(!self.marks.is_empty(), "no open block");
        self.open.push(s);
    }

    /// Appends `let var = val;` to the innermost open block.
    pub fn let_(&mut self, var: VarId, val: Value) {
        self.push(Stmt::Let { var, val });
    }

    /// Stores an operand or parameter list.
    pub fn list(&mut self, vars: &[VarId]) -> Slice {
        let start = self.arena.vars.len();
        self.arena.vars.extend_from_slice(vars);
        slice(start, vars.len())
    }

    /// Stores an operand or parameter list given one variable at a time.
    pub fn list_from(&mut self, vars: impl IntoIterator<Item = VarId>) -> Slice {
        let start = self.arena.vars.len();
        self.arena.vars.extend(vars);
        slice(start, self.arena.vars.len() - start)
    }

    /// Makes closed blocks the arms of a `case`: copies them, tagged, to
    /// consecutive places at the end of the block pool, and returns the
    /// slice for [`Terminator::Case`]. Their old places are left
    /// unreachable until [`finish`](BodyBuilder::finish) drops them.
    pub fn alts(&mut self, alts: &[Alt]) -> Slice {
        let start = self.arena.blocks.len();
        for alt in alts {
            let block = Block {
                tag: alt.tag,
                ..self.arena.blocks[alt.body.index()]
            };
            self.arena.blocks.push(block);
        }
        slice(start, alts.len())
    }

    /// Stores literal text.
    pub fn text(&mut self, s: &str) -> Slice {
        let start = self.arena.text.len();
        self.arena.text.push_str(s);
        slice(start, s.len())
    }

    /// Closes the innermost open block with `term`.
    pub fn close(&mut self, term: Terminator) -> BlockId {
        let mark = self.marks.pop().expect("an open block");
        let start = self.arena.stmts.len();
        self.arena.stmts.extend(self.open.drain(mark..));
        let id = BlockId(u32::try_from(self.arena.blocks.len()).expect("under 2^32 blocks"));
        self.arena.blocks.push(Block {
            stmts: slice(start, self.arena.stmts.len() - start),
            term,
            tag: 0,
        });
        id
    }

    /// Closes the innermost open block with `ret v`.
    pub fn ret(&mut self, v: VarId) -> BlockId {
        self.close(Terminator::Ret(v))
    }

    /// Closes the innermost open block with `jump label(args…)`.
    pub fn jump(&mut self, label: JoinId, args: &[VarId]) -> BlockId {
        let args = self.list(args);
        self.close(Terminator::Jump { label, args })
    }

    /// Closes the innermost open block with a `case` of closed arms.
    pub fn case(
        &mut self,
        scrutinee: VarId,
        alts: &[(u32, BlockId)],
        default: Option<BlockId>,
    ) -> BlockId {
        let start = self.arena.blocks.len();
        for &(tag, body) in alts {
            let block = Block {
                tag,
                ..self.arena.blocks[body.index()]
            };
            self.arena.blocks.push(block);
        }
        self.close(Terminator::Case {
            scrutinee,
            alts: slice(start, alts.len()),
            default,
        })
    }

    /// Drops the function being built, keeping the storage.
    pub fn discard(&mut self) {
        debug_assert!(self.marks.is_empty(), "a block is still open");
        self.arena.clear();
    }

    /// The function whose body is the closed block `body`, its pools copied
    /// out in the canonical order: each block is copied when its turn
    /// comes in pre-order (a block, then its join bodies, arms and default
    /// in order, each with everything under it), and the blocks directly
    /// under it are numbered as it is copied, a case's arms consecutively.
    /// Every pool is filled in that order, parameters first. Blocks the
    /// body does not reach are left behind. The builder is left empty.
    pub fn finish(
        &mut self,
        name: Name,
        params: &[VarId],
        body: BlockId,
        next_var: VarId,
        next_join: JoinId,
    ) -> FnDef {
        debug_assert!(self.marks.is_empty(), "a block is still open");
        let BodyBuilder {
            arena: old, todo, ..
        } = self;
        let mut new = Arena {
            stmts: Vec::with_capacity(old.stmts.len()),
            blocks: Vec::with_capacity(old.blocks.len()),
            vars: Vec::with_capacity(old.vars.len() + params.len()),
            text: String::with_capacity(old.text.len()),
        };
        new.vars.extend_from_slice(params);
        let params = slice(0, params.len());
        let copy_list = |new: &mut Arena, s: Slice| {
            let start = new.vars.len();
            new.vars.extend_from_slice(&old.vars[s.range()]);
            slice(start, s.len())
        };
        let copy_text = |new: &mut Arena, s: Slice| {
            let start = new.text.len();
            new.text.push_str(&old.text[s.range()]);
            slice(start, s.len())
        };
        // A block's place in the copy, to be filled when its turn comes.
        let place = |new: &mut Arena| {
            new.blocks.push(Block {
                stmts: Slice::default(),
                term: Terminator::Ret(0),
                tag: 0,
            });
            BlockId(new.blocks.len() as u32 - 1)
        };
        let entry = place(&mut new);
        todo.push((body, entry));
        while let Some((b, id)) = todo.pop() {
            let block = old.blocks[b.index()];
            let (start, children) = (new.stmts.len(), todo.len());
            for s in &old.stmts[block.stmts.range()] {
                let s = match *s {
                    Stmt::Let { var, val } => {
                        let val = match val {
                            Value::LitBig(t) => Value::LitBig(copy_text(&mut new, t)),
                            Value::LitStr(t) => Value::LitStr(copy_text(&mut new, t)),
                            Value::Ctor { tag, args } => Value::Ctor {
                                tag,
                                args: copy_list(&mut new, args),
                            },
                            Value::Call { func, args } => Value::Call {
                                func,
                                args: copy_list(&mut new, args),
                            },
                            Value::Pap { func, args } => Value::Pap {
                                func,
                                args: copy_list(&mut new, args),
                            },
                            Value::App { closure, args } => Value::App {
                                closure,
                                args: copy_list(&mut new, args),
                            },
                            other => other,
                        };
                        Stmt::Let { var, val }
                    }
                    Stmt::Join {
                        label,
                        params,
                        body,
                    } => {
                        let to = place(&mut new);
                        todo.push((body, to));
                        Stmt::Join {
                            label,
                            params: copy_list(&mut new, params),
                            body: to,
                        }
                    }
                    other => other,
                };
                new.stmts.push(s);
            }
            let term = match block.term {
                Terminator::Ret(v) => Terminator::Ret(v),
                Terminator::Jump { label, args } => Terminator::Jump {
                    label,
                    args: copy_list(&mut new, args),
                },
                Terminator::Case {
                    scrutinee,
                    alts,
                    default,
                } => {
                    let first = new.blocks.len();
                    for arm in alts.range() {
                        let to = place(&mut new);
                        todo.push((BlockId(arm as u32), to));
                    }
                    let default = default.map(|d| {
                        let to = place(&mut new);
                        todo.push((d, to));
                        to
                    });
                    Terminator::Case {
                        scrutinee,
                        alts: slice(first, alts.len()),
                        default,
                    }
                }
            };
            new.blocks[id.index()] = Block {
                stmts: slice(start, new.stmts.len() - start),
                term,
                tag: block.tag,
            };
            // Visit the children in order: the first pushed is popped next.
            todo[children..].reverse();
        }
        old.clear();
        FnDef {
            name,
            params,
            body: entry,
            next_var,
            next_join,
            arena: new,
        }
    }
}

// ---- pretty printing -------------------------------------------------------

/// A function printed with its program's names.
struct FnDisplay<'a> {
    names: &'a Names,
    f: &'a FnDef,
}

/// `x0, x1, …`
fn var_list(vars: &[VarId]) -> String {
    vars.iter()
        .map(|a| format!("x{a}"))
        .collect::<Vec<_>>()
        .join(", ")
}

impl FnDisplay<'_> {
    fn value(&self, out: &mut fmt::Formatter<'_>, val: &Value) -> fmt::Result {
        let a = &self.f.arena;
        match *val {
            Value::Var(v) => write!(out, "x{v}"),
            Value::LitInt(n) => write!(out, "{n}"),
            Value::LitBig(s) => write!(out, "big({})", a.text(s)),
            Value::LitStr(s) => write!(out, "{:?}", a.text(s)),
            Value::Ctor { tag, args } => write!(out, "ctor_{tag}({})", var_list(a.vars(args))),
            Value::Proj { var, idx } => write!(out, "proj_{idx}(x{var})"),
            Value::Call { func, args } => write!(
                out,
                "call @{}({})",
                self.names.resolve(func),
                var_list(a.vars(args))
            ),
            Value::Pap { func, args } => write!(
                out,
                "pap @{}({})",
                self.names.resolve(func),
                var_list(a.vars(args))
            ),
            Value::App { closure, args } => {
                write!(out, "app x{closure}({})", var_list(a.vars(args)))
            }
        }
    }

    fn block(&self, out: &mut fmt::Formatter<'_>, b: BlockId, indent: usize) -> fmt::Result {
        let a = &self.f.arena;
        let pad = "  ".repeat(indent);
        for s in a.stmts(b) {
            match *s {
                Stmt::Let { var, ref val } => {
                    write!(out, "{pad}let x{var} = ")?;
                    self.value(out, val)?;
                    writeln!(out, ";")?;
                }
                Stmt::Join {
                    label,
                    params,
                    body,
                } => {
                    writeln!(out, "{pad}join j{label}({}) =", var_list(a.vars(params)))?;
                    self.block(out, body, indent + 1)?;
                    writeln!(out, "{pad}in")?;
                }
                Stmt::Inc { var, n: 1 } => writeln!(out, "{pad}inc x{var};")?,
                Stmt::Inc { var, n } => writeln!(out, "{pad}inc x{var} *{n};")?,
                Stmt::Dec { var } => writeln!(out, "{pad}dec x{var};")?,
            }
        }
        match *a.term(b) {
            Terminator::Case {
                scrutinee,
                alts,
                default,
            } => {
                writeln!(out, "{pad}case x{scrutinee} of")?;
                for alt in a.alts(alts) {
                    writeln!(out, "{pad}| {} =>", alt.tag)?;
                    self.block(out, alt.body, indent + 1)?;
                }
                if let Some(d) = default {
                    writeln!(out, "{pad}| default =>")?;
                    self.block(out, d, indent + 1)?;
                }
                Ok(())
            }
            Terminator::Jump { label, args } => {
                writeln!(out, "{pad}jump j{label}({})", var_list(a.vars(args)))
            }
            Terminator::Ret(v) => writeln!(out, "{pad}ret x{v}"),
        }
    }
}

impl fmt::Display for FnDisplay<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            out,
            "def @{}({}) :=",
            self.names.resolve(self.f.name),
            var_list(self.f.params())
        )?;
        self.block(out, self.f.body, 1)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for func in &self.fns {
            writeln!(f, "{}", self.display_fn(func))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `def f(x0) := let x1 = 5; case x0 of | 0 => ret x1 | default => ret x0`
    fn sample() -> Program {
        let mut names = Names::default();
        let f = names.intern("f");
        let mut b = BodyBuilder::default();
        b.open();
        b.let_(1, Value::LitInt(5));
        b.open();
        let arm = b.ret(1);
        b.open();
        let default = b.ret(0);
        let body = b.case(0, &[(0, arm)], Some(default));
        let f = b.finish(f, &[0], body, 2, 0);
        Program {
            fns: vec![f],
            names: Arc::new(names),
        }
    }

    /// A one-function program `f(params)` whose body `body` builds.
    fn single(params: &[VarId], body: impl FnOnce(&mut BodyBuilder) -> BlockId) -> FnDef {
        let mut b = BodyBuilder::default();
        b.open();
        let entry = body(&mut b);
        b.finish(Name(0), params, entry, 16, 4)
    }

    #[test]
    fn free_vars_basic() {
        let p = sample();
        let f = &p.fns[0];
        let fv = f.arena.free_vars(f.body);
        assert!(fv.contains(&0));
        assert!(!fv.contains(&1), "let-bound variable is not free");
    }

    #[test]
    fn free_vars_join_points() {
        // join j0(x1) = ret x1 in jump j0(x0)
        let f = single(&[0], |b| {
            b.open();
            let jp = b.ret(1);
            let params = b.list(&[1]);
            b.push(Stmt::Join {
                label: 0,
                params,
                body: jp,
            });
            b.jump(0, &[0])
        });
        let fv = f.arena.free_vars(f.body);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn free_vars_value_operands() {
        let f = single(&[], |b| {
            let args = b.list(&[0, 1]);
            b.let_(2, Value::Ctor { tag: 1, args });
            b.ret(2)
        });
        let fv = f.arena.free_vars(f.body);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn shadowing_not_a_concern_but_rebinding_handled() {
        // let x1 = x0; let x1 = x1; ret x1 — rebinding the same id.
        let f = single(&[], |b| {
            b.let_(1, Value::Var(0));
            b.let_(1, Value::Var(1));
            b.ret(1)
        });
        let fv = f.arena.free_vars(f.body);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn has_rc_ops_detects() {
        let pure = sample();
        assert!(!pure.fns[0].arena.has_rc_ops());
        let rc = single(&[0], |b| {
            b.push(Stmt::Inc { var: 0, n: 1 });
            b.ret(0)
        });
        assert!(rc.arena.has_rc_ops());
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(sample().fns[0].arena.size(), 4);
    }

    #[test]
    fn display_round_readable() {
        let text = sample().to_string();
        assert!(text.contains("let x1 = 5;"), "{text}");
        assert!(text.contains("case x0 of"), "{text}");
    }

    #[test]
    fn value_droppable_classification() {
        assert!(Value::LitInt(3).is_droppable());
        assert!(Value::Ctor {
            tag: 0,
            args: Slice::default()
        }
        .is_droppable());
        assert!(!Value::Call {
            func: Name(0),
            args: Slice::default()
        }
        .is_droppable());
        assert!(!Value::App {
            closure: 0,
            args: Slice { start: 0, len: 1 }
        }
        .is_droppable());
    }

    #[test]
    fn names_intern_once_and_resolve() {
        let mut names = Names::default();
        let ids: Vec<Name> = (0..100).map(|i| names.intern(&format!("f{i}"))).collect();
        for (i, &n) in ids.iter().enumerate() {
            assert_eq!(names.resolve(n), format!("f{i}"));
            assert_eq!(names.intern(&format!("f{i}")), n);
        }
        assert_eq!(names.len(), 100);
        assert_eq!(names.get("nope"), None);
        assert_eq!(names.intern(""), Name(100));
        assert_eq!(names.resolve(Name(100)), "");
    }

    #[test]
    fn finish_lays_blocks_out_in_pre_order() {
        // The arms are closed before the body, and the join body first of
        // all; the finished function numbers them body, join body, arm,
        // default.
        let f = single(&[0], |b| {
            b.open();
            let jp = b.ret(5);
            b.open();
            let arm = b.jump(0, &[0]);
            b.open();
            let default = b.ret(0);
            let params = b.list(&[5]);
            b.push(Stmt::Join {
                label: 0,
                params,
                body: jp,
            });
            b.case(0, &[(1, arm)], Some(default))
        });
        assert_eq!(f.body, BlockId(0));
        assert_eq!(f.params(), [0]);
        let [Stmt::Join { body, params, .. }] = f.arena.stmts(f.body) else {
            panic!("{f:?}")
        };
        assert_eq!((*body, f.arena.vars(*params)), (BlockId(1), &[5][..]));
        let Terminator::Case { alts, default, .. } = *f.arena.term(f.body) else {
            panic!("{f:?}")
        };
        let arms: Vec<Alt> = f.arena.alts(alts).collect();
        assert_eq!(
            arms,
            [Alt {
                tag: 1,
                body: BlockId(2)
            }]
        );
        assert_eq!(default, Some(BlockId(3)));
        assert_eq!(f.arena.size(), 5);
    }
}
