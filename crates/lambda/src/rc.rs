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

use crate::ast::{Alt, Expr, FnDef, JoinId, Program, Value, VarId};

/// Inserts reference counting into every function of a λpure program.
///
/// # Panics
///
/// Panics if the program already contains `inc`/`dec` instructions.
pub fn insert_rc(program: &Program) -> Program {
    let mut rc = Inserter::default();
    let fns = program
        .fns
        .iter()
        .map(|f| {
            assert!(
                !f.body.has_rc_ops(),
                "insert_rc on a function that already has RC ops: @{}",
                f.name
            );
            FnDef {
                name: f.name.clone(),
                params: f.params.clone(),
                body: rc.function(f),
                next_var: f.next_var,
                next_join: f.next_join,
            }
        })
        .collect();
    Program { fns }
}

/// Wraps `e` in an `inc var *n` when `n > 0`.
fn incs(var: VarId, n: u32, e: Expr) -> Expr {
    if n == 0 {
        e
    } else {
        Expr::Inc {
            var,
            n,
            body: Box::new(e),
        }
    }
}

/// Wraps `e` in a `dec var`.
fn dec(var: VarId, e: Expr) -> Expr {
    Expr::Dec {
        var,
        body: Box::new(e),
    }
}

/// Per-function state of the insertion, reused across functions.
///
/// The free variables of every node of the body are computed once, bottom
/// up, as sorted runs of one arena (`free`), indexed by the node's number
/// in the pre-order [`Inserter::transform`] visits them; each `let` and
/// arm looks its body's run up. The arena holds the sum of the free-set
/// sizes, so its size follows the variables a body uses, never the range
/// of their ids: a use is in the run of each node that encloses it. The
/// owned set is a sorted list of the owned variables.
///
/// Both walks follow a `let` chain in a loop, keeping what each level
/// still needs on explicit stacks, so a long chain costs no native stack.
#[derive(Default)]
struct Inserter<'p> {
    /// Per node in pre-order: where its free-variable run starts in `free`,
    /// and its length.
    runs: Vec<(u32, u32)>,
    /// Every node's free variables, each run ascending.
    free: Vec<VarId>,
    /// Runs under construction, stacked: a node's variables are gathered
    /// here (in any order) before [`Inserter::store`] files them.
    gather: Vec<VarId>,
    /// A join point's parameters, sorted.
    params: Vec<VarId>,
    /// The pre-order number of the next node `transform` visits.
    cursor: usize,
    /// The references the current path owns, ascending.
    owned: Vec<VarId>,
    /// Saved `owned` sets, stacked: each `case` restores it for every arm,
    /// each join body swaps in its parameters.
    saved: Vec<VarId>,
    /// The sorted operands of the value or jump being accounted for.
    operands: Vec<VarId>,
    /// `(var, n)` retains waiting to wrap a `let` once its body is built.
    pending_incs: Vec<(VarId, u32)>,
    /// Variables waiting to be released once a body is built.
    pending_decs: Vec<VarId>,
    /// `fill`: the nodes of the continuation chain being walked, with their
    /// pre-order numbers.
    chain: Vec<(usize, &'p Expr)>,
    /// `transform`: the `let`s whose bodies are being built.
    lets: Vec<PendingLet<'p>>,
}

/// A `let` whose body `transform` is building, and what wrapping that body
/// needs.
struct PendingLet<'p> {
    var: VarId,
    val: &'p Value,
    /// Whether the bound variable is unused in the body.
    dead: bool,
    /// Where this `let`'s entries start in `pending_incs`/`pending_decs`.
    incs_mark: usize,
    decs_mark: usize,
}

impl<'p> Inserter<'p> {
    fn function(&mut self, f: &'p FnDef) -> Expr {
        self.runs.clear();
        self.free.clear();
        self.fill(&f.body);
        self.cursor = 0;
        self.owned.clear();
        self.owned.extend_from_slice(&f.params);
        self.owned.sort_unstable();
        self.owned.dedup();
        let body = self.transform(&f.body);
        debug_assert_eq!(self.cursor, self.runs.len());
        body
    }

    /// The free variables of the node with pre-order number `node`,
    /// ascending.
    fn run(&self, node: usize) -> &[VarId] {
        let (start, len) = self.runs[node];
        &self.free[start as usize..(start + len) as usize]
    }

    fn free_in(&self, node: usize, v: VarId) -> bool {
        self.run(node).binary_search(&v).is_ok()
    }

    /// Files `gather[mark..]`, sorted and without duplicates, as the run of
    /// `node`, and pops it off `gather`.
    fn store(&mut self, node: usize, mark: usize) {
        let vars = &mut self.gather[mark..];
        vars.sort_unstable();
        let start = self.free.len();
        for &v in vars.iter() {
            if self.free.len() == start || self.free.last() != Some(&v) {
                self.free.push(v);
            }
        }
        self.gather.truncate(mark);
        let at = |i: usize| u32::try_from(i).expect("free-variable table under 2^32 entries");
        self.runs[node] = (at(start), at(self.free.len() - start));
    }

    /// Pushes the run of `node` onto `gather`.
    fn gather_run(&mut self, node: usize) {
        let (start, len) = self.runs[node];
        self.gather
            .extend_from_slice(&self.free[start as usize..(start + len) as usize]);
    }

    /// Computes the free variables of `e` and of every node below it;
    /// returns `e`'s pre-order number.
    fn fill(&mut self, e: &'p Expr) -> usize {
        let mark = self.chain.len();
        let mut e = e;
        // Down the continuation chain, numbering nodes in pre-order.
        let tail = loop {
            let node = self.runs.len();
            self.runs.push((0, 0));
            match e {
                Expr::Let { body, .. } => {
                    self.chain.push((node, e));
                    e = body;
                }
                Expr::LetJoin { jp_body, body, .. } => {
                    self.chain.push((node, e));
                    self.fill(jp_body);
                    e = body;
                }
                Expr::Case {
                    scrutinee,
                    alts,
                    default,
                } => {
                    let at = self.gather.len();
                    for arm in alts.iter().map(|a| &a.body).chain(default.as_deref()) {
                        let a = self.fill(arm);
                        self.gather_run(a);
                    }
                    self.gather.push(*scrutinee);
                    self.store(node, at);
                    break node;
                }
                Expr::Jump { args, .. } => {
                    let at = self.gather.len();
                    self.gather.extend_from_slice(args);
                    self.store(node, at);
                    break node;
                }
                Expr::Ret(v) => {
                    let at = self.gather.len();
                    self.gather.push(*v);
                    self.store(node, at);
                    break node;
                }
                Expr::Inc { .. } | Expr::Dec { .. } => {
                    unreachable!("insert_rc input must be λpure")
                }
            }
        };
        // Back up: each node's set from the one below it.
        let mut below = tail;
        while self.chain.len() > mark {
            let (node, e) = self.chain.pop().expect("above the mark");
            let at = self.gather.len();
            match e {
                Expr::Let { var, val, .. } => {
                    let (start, len) = self.runs[below];
                    let body = &self.free[start as usize..(start + len) as usize];
                    self.gather.extend(body.iter().filter(|&v| v != var));
                    val.for_each_operand(|v| self.gather.push(v));
                }
                Expr::LetJoin { params, .. } => {
                    // The join body is the node right after the join.
                    self.params.clear();
                    self.params.extend_from_slice(params);
                    self.params.sort_unstable();
                    let (start, len) = self.runs[node + 1];
                    let jp_body = &self.free[start as usize..(start + len) as usize];
                    self.gather.extend(
                        jp_body
                            .iter()
                            .filter(|v| self.params.binary_search(v).is_err()),
                    );
                    self.gather_run(below);
                }
                _ => unreachable!("only continuation forms are chained"),
            }
            self.store(node, at);
            below = node;
        }
        below
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

    /// Drops from `owned` every variable not free in `node` and queues it,
    /// ascending, on `pending_decs`; `keep` is dropped without being queued.
    fn shed(&mut self, node: usize, keep: Option<VarId>) {
        let (start, len) = self.runs[node];
        let live = &self.free[start as usize..(start + len) as usize];
        let (mut j, mut kept) = (0, 0);
        for i in 0..self.owned.len() {
            let v = self.owned[i];
            while j < live.len() && live[j] < v {
                j += 1;
            }
            if live.get(j) == Some(&v) {
                self.owned[kept] = v;
                kept += 1;
            } else if keep != Some(v) {
                self.pending_decs.push(v);
            }
        }
        self.owned.truncate(kept);
    }

    /// Transforms `e` so that every path consumes exactly the references in
    /// `self.owned`. On return, `owned` is left in an unspecified state
    /// (callers restore it across branches).
    fn transform(&mut self, e: &'p Expr) -> Expr {
        let mark = self.lets.len();
        let mut e = e;
        // Down the `let` chain: account for each binding before its body.
        loop {
            self.cursor += 1;
            match e {
                Expr::Let { var, val, body } => {
                    let pending = self.enter_let(*var, val);
                    self.lets.push(pending);
                    e = body;
                }
                _ => break,
            }
        }
        let mut out = match e {
            Expr::Ret(x) => self.transform_ret(*x),
            Expr::Jump { label, args } => self.transform_jump(*label, args),
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => self.transform_case(*scrutinee, alts, default.as_deref()),
            Expr::LetJoin {
                label,
                params,
                jp_body,
                body,
            } => self.transform_join(*label, params, jp_body, body),
            Expr::Let { .. } => unreachable!("followed above"),
            Expr::Inc { .. } | Expr::Dec { .. } => {
                unreachable!("insert_rc input must be λpure")
            }
        };
        // Back up: wrap each body in its `let`, innermost first.
        while self.lets.len() > mark {
            let pending = self.lets.pop().expect("above the mark");
            out = self.leave_let(pending, out);
        }
        out
    }

    fn transform_ret(&mut self, x: VarId) -> Expr {
        let mut out = if self.owns(x) {
            Expr::Ret(x)
        } else {
            // Borrowed return value: retain it first.
            incs(x, 1, Expr::Ret(x))
        };
        // Release everything else, smallest id outermost.
        for &v in self.owned.iter().rev().filter(|&&v| v != x) {
            out = dec(v, out);
        }
        out
    }

    fn transform_jump(&mut self, label: JoinId, args: &[VarId]) -> Expr {
        let mut out = Expr::Jump {
            label,
            args: args.to_vec(),
        };
        self.operands.clear();
        self.operands.extend_from_slice(args);
        self.operands.sort_unstable();
        let operands = std::mem::take(&mut self.operands);
        for run in operands.chunk_by(|a, b| a == b) {
            let (a, m) = (run[0], run.len() as u32);
            if self.owns(a) {
                // Transferred to the join point.
                out = incs(a, m - 1, out);
                self.disown(a);
            } else {
                out = incs(a, m, out);
            }
        }
        self.operands = operands;
        // Release the rest, largest id outermost.
        for &v in &self.owned {
            out = dec(v, out);
        }
        out
    }

    fn transform_case(
        &mut self,
        scrutinee: VarId,
        alts: &'p [Alt],
        default: Option<&'p Expr>,
    ) -> Expr {
        // The case borrows the scrutinee; each arm independently consumes
        // the full owned set.
        let at = self.save_owned();
        let alts = alts
            .iter()
            .map(|alt| {
                self.restore_owned(at);
                let body = self.shed_then_transform(&alt.body);
                Alt { tag: alt.tag, body }
            })
            .collect();
        let default = default.map(|d| {
            self.restore_owned(at);
            Box::new(self.shed_then_transform(d))
        });
        self.saved.truncate(at);
        Expr::Case {
            scrutinee,
            alts,
            default,
        }
    }

    fn transform_join(
        &mut self,
        label: JoinId,
        params: &[VarId],
        jp_body: &'p Expr,
        body: &'p Expr,
    ) -> Expr {
        // The join body owns exactly its parameters.
        let at = self.save_owned();
        self.owned.clear();
        self.owned.extend_from_slice(params);
        self.owned.sort_unstable();
        self.owned.dedup();
        let jp_body = self.shed_then_transform(jp_body);
        self.restore_owned(at);
        self.saved.truncate(at);
        let body = self.transform(body);
        Expr::LetJoin {
            label,
            params: params.to_vec(),
            jp_body: Box::new(jp_body),
            body: Box::new(body),
        }
    }

    /// The accounting of `let x = val` before its body: retains of the
    /// operands, ownership transfers, and which owned variables die here.
    fn enter_let(&mut self, x: VarId, val: &'p Value) -> PendingLet<'p> {
        // The body is the next node in pre-order.
        let fv_body = self.cursor;
        // 1. Ownership accounting for the value's consumed operands: `proj`
        //    and `var` borrow, everything else consumes.
        self.operands.clear();
        match val {
            Value::Var(_) | Value::Proj { .. } => {}
            Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => {}
            _ => val.for_each_operand(|v| self.operands.push(v)),
        }
        let incs_mark = self.pending_incs.len();
        self.operands.sort_unstable();
        let operands = std::mem::take(&mut self.operands);
        for run in operands.chunk_by(|a, b| a == b) {
            let (a, m) = (run[0], run.len() as u32);
            if self.owns(a) {
                if self.free_in(fv_body, a) {
                    // Still needed later: keep ownership, add m refs.
                    self.pending_incs.push((a, m));
                } else {
                    // Last use: transfer one ref, add the rest.
                    self.pending_incs.push((a, m - 1));
                    self.disown(a);
                }
            } else {
                self.pending_incs.push((a, m));
            }
        }
        self.operands = operands;
        // `let x = y` aliases: one more reference to y's object.
        if let Value::Var(y) = val {
            if self.owns(*y) && !self.free_in(fv_body, *y) {
                self.disown(*y); // transfer
            } else {
                self.pending_incs.push((*y, 1));
            }
        }
        // 2. The binding itself becomes owned.
        self.own(x);
        // 3. Eagerly release anything that is now dead: owned vars that do
        //    not appear free in the body (including x if unused).
        let dead = !self.free_in(fv_body, x);
        let decs_mark = self.pending_decs.len();
        self.shed(fv_body, Some(x));
        PendingLet {
            var: x,
            val,
            dead,
            incs_mark,
            decs_mark,
        }
    }

    /// Wraps the transformed body of a `let` entered with [`enter_let`]:
    ///
    /// ```text
    /// incs; let x = v; [inc x]; [dec dead…]; [dec x]; body
    /// ```
    ///
    /// [`enter_let`]: Inserter::enter_let
    fn leave_let(&mut self, pending: PendingLet, body: Expr) -> Expr {
        let PendingLet {
            var: x,
            val,
            dead,
            incs_mark,
            decs_mark,
        } = pending;
        // Projection results are borrowed: retain them. A projection that
        // is immediately dead is simply a borrow that was never retained:
        // no inc, no dec.
        let is_proj = matches!(val, Value::Proj { .. });
        let mut after = body;
        if dead && !is_proj {
            after = dec(x, after);
        }
        for &d in &self.pending_decs[decs_mark..] {
            after = dec(d, after);
        }
        self.pending_decs.truncate(decs_mark);
        if is_proj && !dead {
            after = incs(x, 1, after);
        }
        let mut out = Expr::Let {
            var: x,
            val: val.clone(),
            body: Box::new(after),
        };
        for &(a, m) in self.pending_incs[incs_mark..].iter().rev() {
            out = incs(a, m, out);
        }
        self.pending_incs.truncate(incs_mark);
        out
    }

    /// Eagerly releases owned variables not free in `e`, then transforms.
    fn shed_then_transform(&mut self, e: &'p Expr) -> Expr {
        // `e` is the next node in pre-order.
        let mark = self.pending_decs.len();
        self.shed(self.cursor, None);
        let mut out = self.transform(e);
        for &d in &self.pending_decs[mark..] {
            out = dec(d, out);
        }
        self.pending_decs.truncate(mark);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::parse::parse_program;
    use crate::wellformed::check_program;

    #[test]
    fn unused_param_is_dropped() {
        // def k(x0, x1) := ret x0  — x1 must be dec'd.
        let p = Program {
            fns: vec![FnDef {
                name: "k".into(),
                params: vec![0, 1],
                body: ret(0),
                next_var: 2,
                next_join: 0,
            }],
        };
        let rc = insert_rc(&p);
        let text = rc.fns[0].body.to_string();
        assert!(text.contains("dec x1"), "{text}");
        assert!(!text.contains("dec x0"), "{text}");
    }

    #[test]
    fn duplicate_use_gets_inc() {
        // let x1 = ctor_0(x0, x0); ret x1 — x0 used twice as owned: one inc.
        let p = Program {
            fns: vec![FnDef {
                name: "dup".into(),
                params: vec![0],
                body: let_(
                    1,
                    Value::Ctor {
                        tag: 0,
                        args: vec![0, 0],
                    },
                    ret(1),
                ),
                next_var: 2,
                next_join: 0,
            }],
        };
        let rc = insert_rc(&p);
        let text = rc.fns[0].body.to_string();
        assert!(text.contains("inc x0"), "{text}");
    }

    #[test]
    fn use_then_live_keeps_ownership() {
        // let x1 = ctor(x0); let x2 = ctor(x0); ret x2 —
        // first use incs (x0 live after), second transfers.
        let p = Program {
            fns: vec![FnDef {
                name: "f".into(),
                params: vec![0],
                body: let_(
                    1,
                    Value::Ctor {
                        tag: 0,
                        args: vec![0],
                    },
                    let_(
                        2,
                        Value::Ctor {
                            tag: 1,
                            args: vec![0],
                        },
                        // x1 is dead here; it must be dec'd.
                        ret(2),
                    ),
                ),
                next_var: 3,
                next_join: 0,
            }],
        };
        let rc = insert_rc(&p);
        let text = rc.fns[0].body.to_string();
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
        let f = rc.fn_by_name("head_or_zero").unwrap();
        let text = f.body.to_string();
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
        let text = rc.fn_by_name("f").unwrap().body.to_string();
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
        assert!(rc.fns.iter().any(|f| f.body.has_rc_ops()));
    }

    #[test]
    fn free_variable_table_follows_uses_not_ids() {
        // A wide `case` on a parameter with the largest `.lssa` id: each
        // arm binds and returns its own variable.
        let big = crate::dense::MAX_ID - 1;
        let arms = 10_000;
        let f = FnDef {
            name: "wide".into(),
            params: vec![big],
            body: Expr::Case {
                scrutinee: big,
                alts: (0..arms)
                    .map(|k| Alt {
                        tag: k,
                        body: let_(k, Value::LitInt(k.into()), ret(k)),
                    })
                    .collect(),
                default: None,
            },
            next_var: big + 1,
            next_join: 0,
        };
        let mut rc = Inserter::default();
        let body = rc.function(&f);
        // One node for the case and two per arm. The table holds one
        // variable per `ret` and the case's scrutinee, however large its id.
        assert_eq!(rc.runs.len(), 1 + 2 * arms as usize);
        assert_eq!(rc.free.len(), arms as usize + 1);
        assert_eq!(rc.run(0), [big]);
        let Expr::Case { alts, .. } = body else {
            panic!("{body}")
        };
        assert_eq!(alts.len(), arms as usize);
        assert_eq!(
            alts[7].body.to_string(),
            dec(big, let_(7, Value::LitInt(7), ret(7))).to_string()
        );
    }

    #[test]
    #[should_panic(expected = "already has RC ops")]
    fn double_insertion_panics() {
        let p = Program {
            fns: vec![FnDef {
                name: "f".into(),
                params: vec![0],
                body: Expr::Inc {
                    var: 0,
                    n: 1,
                    body: Box::new(ret(0)),
                },
                next_var: 1,
                next_join: 0,
            }],
        };
        insert_rc(&p);
    }
}
