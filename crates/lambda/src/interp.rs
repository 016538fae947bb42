//! The λpure/λrc reference interpreter.
//!
//! A direct evaluator of λ blocks over the `lssa-rt` heap. It is the
//! semantic oracle of the project: the differential test harness compares
//! its results against both compiled pipelines.
//!
//! Two modes:
//!
//! - **λrc mode** (`rc_mode = true`): executes the explicit `inc`/`dec`
//!   instructions and transfers ownership at consumption sites, exactly as
//!   compiled code would. After a run, the heap must be empty — this
//!   dynamically validates that [`crate::rc::insert_rc`] is balanced.
//! - **λpure mode** (`rc_mode = false`): for programs without RC
//!   instructions. Every consumption site retains its arguments first, so
//!   the run leaks (nothing is ever freed) but can never double-free, and
//!   in-place array updates always observe shared objects and copy.
//!
//! A run resolves every call and pap site's callee once, before it starts,
//! in a table keyed by statement: a name is a function index or a runtime
//! [`Builtin`], and a call followed only by `inc`/`dec` ops and the `ret`
//! of its result is marked a tail call. All calls' variables live in one
//! stack of frames, and operands are gathered in one reused buffer, so a
//! call allocates nothing.

use crate::ast::{BlockId, FnDef, Program, Slice, Stmt, Terminator, Value};
use lssa_rt::builtins::UnknownBuiltinError;
use lssa_rt::object::{MAX_SMALL_INT, MIN_SMALL_INT};
use lssa_rt::{
    pap_extend, pap_new, ApplyOutcome, Builtin, FuncId, Heap, HeapStats, Int, Nat, ObjRef,
};
use std::fmt;

/// An execution error (not a program value — those are `ObjRef`s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Description.
    pub message: String,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

fn err(message: impl Into<String>) -> InterpError {
    InterpError {
        message: message.into(),
    }
}

/// One step of function evaluation: a result, or a tail call (its
/// arguments in the operand buffer) to trampoline.
#[derive(Debug)]
enum Step {
    Done(ObjRef),
    Tail(usize),
}

/// Whether `rest`, the statements after a `let var = …` and `term`, the
/// terminator of its block, are `inc`/`dec` ops that leave `var` alone and
/// the `ret` of `var`.
fn is_tail_continuation(rest: &[Stmt], term: &Terminator, var: u32) -> bool {
    rest.iter()
        .all(|s| matches!(*s, Stmt::Inc { var: v, .. } | Stmt::Dec { var: v } if v != var))
        && *term == Terminator::Ret(var)
}

/// What a call or pap site names.
#[derive(Debug, Clone, Copy)]
enum Callee {
    /// A function of the program, by index.
    Fn(usize),
    /// A runtime builtin (a call whose name starts with `lean_`).
    Builtin(Builtin),
    /// Nothing: an error if, and when, the site runs.
    Unknown,
}

/// A call or pap site, resolved once per run.
#[derive(Debug, Clone, Copy)]
struct Site {
    callee: Callee,
    /// `let x = call f(…); [inc/dec…;] ret x` with rc-ops that leave `x`
    /// alone, `f` a function of the program: the call is made by the
    /// caller's trampoline, after the rc-ops.
    tail: bool,
}

/// The call and pap sites of a program, keyed by statement: function `i`'s
/// statement `k` is site `base[i] + k`.
#[derive(Debug)]
struct Sites {
    base: Vec<usize>,
    sites: Vec<Site>,
}

/// Resolves every call and pap site of `program`: its callee by name, once
/// per name, and whether it is a tail call. `fn_of` gives each name's
/// function, if any.
fn resolve_sites(program: &Program, fn_of: &[Option<usize>]) -> Sites {
    let function = |i: usize| fn_of[i].map_or(Callee::Unknown, Callee::Fn);
    let builtins: Vec<Option<Callee>> = program
        .names
        .iter()
        .map(|name| {
            name.starts_with("lean_")
                .then(|| name.parse().map_or(Callee::Unknown, Callee::Builtin))
        })
        .collect();
    let none = Site {
        callee: Callee::Unknown,
        tail: false,
    };
    let total = program.fns.iter().map(|f| f.arena.stmt_count()).sum();
    let mut sites = Sites {
        base: Vec::with_capacity(program.fns.len()),
        sites: vec![none; total],
    };
    let mut base = 0;
    for f in &program.fns {
        sites.base.push(base);
        let arena = &f.arena;
        for b in 0..arena.block_count() {
            let block = arena.block(BlockId(b as u32));
            let stmts = arena.stmts(BlockId(b as u32));
            for (k, s) in stmts.iter().enumerate() {
                let site = match *s {
                    Stmt::Let {
                        val: Value::Call { func, .. },
                        ..
                    } if builtins[func.index()].is_some() => Site {
                        callee: builtins[func.index()].expect("a builtin"),
                        tail: false,
                    },
                    Stmt::Let {
                        var,
                        val: Value::Call { func, .. },
                    } => Site {
                        callee: function(func.index()),
                        tail: is_tail_continuation(&stmts[k + 1..], &block.term, var),
                    },
                    Stmt::Let {
                        val: Value::Pap { func, .. },
                        ..
                    } => Site {
                        callee: function(func.index()),
                        tail: false,
                    },
                    _ => continue,
                };
                sites.sites[base + block.stmts.start as usize + k] = site;
            }
        }
        base += arena.stmt_count();
    }
    sites
}

/// Result of a program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Stable textual rendering of the result value.
    pub rendered: String,
    /// Heap statistics at the end of the run (after releasing the result).
    pub stats: HeapStats,
    /// Number of interpreter steps taken: one per function entry
    /// (including each trampolined tail call), one per expression node
    /// evaluated, and one more per builtin call.
    pub steps: u64,
}

/// The interpreter. An error ends the run: the frames and join points of
/// the calls it unwound are not popped.
#[derive(Debug)]
struct Interp<'p> {
    program: &'p Program,
    heap: Heap,
    rc_mode: bool,
    fuel: u64,
    sites: Sites,
    /// The variables of every active call: one frame of `next_var` slots
    /// per call, each on top of its caller's.
    env: Vec<Option<ObjRef>>,
    /// The join points in scope in every active call, innermost last: label,
    /// parameters and body.
    joins: Vec<(u32, Slice, BlockId)>,
    /// The operands of the call, builtin, constructor or jump being made.
    args: Vec<ObjRef>,
}

impl<'p> Interp<'p> {
    fn new(program: &'p Program, rc_mode: bool, fuel: u64, sites: Sites) -> Interp<'p> {
        Interp {
            program,
            heap: Heap::new(),
            rc_mode,
            fuel,
            sites,
            env: Vec::new(),
            joins: Vec::new(),
            args: Vec::new(),
        }
    }

    fn spend(&mut self, n: u64) -> Result<(), InterpError> {
        if self.fuel < n {
            // Same message as the VM's step budget (see
            // `lssa_rt::STEP_BUDGET_MSG`) so the two engines' resource
            // failures compare equal in differential harnesses.
            return Err(err(lssa_rt::STEP_BUDGET_MSG));
        }
        self.fuel -= n;
        Ok(())
    }

    /// Calls a function by index; its owned arguments are the operands.
    ///
    /// Tail calls (`let x = call f(…); [inc/dec…;] ret x`) are executed with
    /// a trampoline that reuses the frame — LEAN guarantees tail-call
    /// elimination (§III-E), so the oracle must too.
    fn call(&mut self, mut idx: usize) -> Result<ObjRef, InterpError> {
        let base = self.env.len();
        let program = self.program;
        loop {
            self.spend(1)?;
            let f = &program.fns[idx];
            if f.arity() != self.args.len() {
                return Err(err(format!(
                    "@{} called with {} args (arity {})",
                    program.name(f),
                    self.args.len(),
                    f.arity()
                )));
            }
            self.env.truncate(base);
            self.env.resize(base + f.next_var as usize, None);
            for (&p, &a) in f.params().iter().zip(&self.args) {
                self.env[base + p as usize] = Some(a);
            }
            let joins = self.joins.len();
            let step = self.eval_body(idx, base, joins);
            self.joins.truncate(joins);
            match step? {
                Step::Done(r) => {
                    self.env.truncate(base);
                    return Ok(r);
                }
                Step::Tail(next) => idx = next,
            }
        }
    }

    /// Reads variable `v` of the frame at `base`.
    fn lookup(&self, base: usize, v: u32) -> Result<ObjRef, InterpError> {
        self.env
            .get(base + v as usize)
            .copied()
            .flatten()
            .ok_or_else(|| err(format!("read of unbound variable x{v}")))
    }

    /// Evaluates the body of function `fi` in the frame at `base`; the
    /// join points it declares go on the join stack above `joins`. Every
    /// statement and terminator evaluated is a step.
    fn eval_body(&mut self, fi: usize, base: usize, joins: usize) -> Result<Step, InterpError> {
        let f: &'p FnDef = &self.program.fns[fi];
        let arena = &f.arena;
        let sites = self.sites.base[fi];
        let mut cur = f.body;
        loop {
            let block = arena.block(cur);
            let stmts = arena.stmts(cur);
            for (k, s) in stmts.iter().enumerate() {
                self.spend(1)?;
                match *s {
                    Stmt::Let { var, ref val } => {
                        let site = sites + block.stmts.start as usize + k;
                        match self.eval_value(f, base, val, site, &stmts[k + 1..])? {
                            Step::Done(r) => self.env[base + var as usize] = Some(r),
                            tail => return Ok(tail),
                        }
                    }
                    Stmt::Join {
                        label,
                        params,
                        body,
                    } => self.joins.push((label, params, body)),
                    Stmt::Inc { var, n } => {
                        if self.rc_mode {
                            let r = self.lookup(base, var)?;
                            self.heap.inc_n(r, n);
                        }
                    }
                    Stmt::Dec { var } => {
                        if self.rc_mode {
                            let r = self.lookup(base, var)?;
                            self.heap.dec(r);
                        }
                    }
                }
            }
            self.spend(1)?;
            match block.term {
                Terminator::Case {
                    scrutinee,
                    alts,
                    default,
                } => {
                    let s = self.lookup(base, scrutinee)?;
                    let tag = self.heap.ctor_tag(s);
                    let arm = arena.alts(alts).find(|a| a.tag == tag).map(|a| a.body);
                    match arm.or(default) {
                        Some(a) => cur = a,
                        None => {
                            return Err(err(format!(
                                "case on tag {tag} has no matching arm in @{}",
                                self.program.name(f)
                            )))
                        }
                    }
                }
                Terminator::Jump { label, args } => {
                    let (_, params, body) = *self.joins[joins..]
                        .iter()
                        .rev()
                        .find(|(l, ..)| *l == label)
                        .ok_or_else(|| err(format!("jump to unknown join j{label}")))?;
                    self.args.clear();
                    for &a in arena.vars(args) {
                        let r = self.lookup(base, a)?;
                        self.args.push(r);
                    }
                    for (&p, &v) in arena.vars(params).iter().zip(&self.args) {
                        self.env[base + p as usize] = Some(v);
                    }
                    cur = body;
                }
                Terminator::Ret(v) => {
                    let r = self.lookup(base, v)?;
                    if !self.rc_mode {
                        self.heap.inc(r);
                    }
                    return Ok(Step::Done(r));
                }
            }
        }
    }

    /// Runs the `inc`/`dec` ops of a tail call's continuation.
    fn run_rc_ops(&mut self, base: usize, rest: &[Stmt]) -> Result<(), InterpError> {
        for s in rest {
            match *s {
                Stmt::Inc { var, n } => {
                    let r = self.lookup(base, var)?;
                    self.heap.inc_n(r, n);
                }
                Stmt::Dec { var } => {
                    let r = self.lookup(base, var)?;
                    self.heap.dec(r);
                }
                _ => return Ok(()),
            }
        }
        Ok(())
    }

    /// Gathers the owned operands `args` into the operand buffer; in λpure
    /// mode retains each first.
    fn gather(&mut self, base: usize, args: &[u32]) -> Result<(), InterpError> {
        self.args.clear();
        for &a in args {
            let r = self.lookup(base, a)?;
            if !self.rc_mode {
                self.heap.inc(r);
            }
            self.args.push(r);
        }
        Ok(())
    }

    /// Evaluates `val` of `let x = val`, call site `site`, followed in its
    /// block by `rest`: the value to bind, or, when `val` is a tail call,
    /// the call for the trampoline, after the rc-ops of `rest` ran (they
    /// only release dead locals).
    fn eval_value(
        &mut self,
        f: &'p FnDef,
        base: usize,
        val: &Value,
        site: usize,
        rest: &[Stmt],
    ) -> Result<Step, InterpError> {
        let arena = &f.arena;
        let r = match *val {
            Value::Var(v) => self.lookup(base, v)?,
            Value::LitInt(n) if (MIN_SMALL_INT..=MAX_SMALL_INT).contains(&n) => ObjRef::scalar(n),
            Value::LitInt(n) => self.heap.mk_int(Int::from_i64(n)),
            Value::LitBig(s) => {
                let n = Nat::from_str_decimal(arena.text(s)).map_err(|e| err(e.to_string()))?;
                self.heap.mk_nat(n)
            }
            Value::LitStr(s) => self.heap.alloc_str(arena.text(s).to_string()),
            Value::Ctor { tag, args } => {
                self.gather(base, arena.vars(args))?;
                self.heap.alloc_ctor(tag, self.args.drain(..))
            }
            // λrc mode: borrowed — the explicit `inc` that follows owns it.
            // λpure mode: nothing frees, borrow is safe too.
            Value::Proj { var, idx } => {
                let s = self.lookup(base, var)?;
                self.heap.ctor_field(s, idx as usize)
            }
            Value::Call { func, args } => {
                let site = self.sites.sites[site];
                match site.callee {
                    Callee::Fn(idx) => {
                        self.gather(base, arena.vars(args))?;
                        if site.tail {
                            if self.rc_mode {
                                self.run_rc_ops(base, rest)?;
                            }
                            return Ok(Step::Tail(idx));
                        }
                        self.call(idx)?
                    }
                    Callee::Builtin(b) => {
                        self.gather(base, arena.vars(args))?;
                        self.spend(1)?;
                        b.call(&mut self.heap, &self.args)
                    }
                    Callee::Unknown => {
                        let name = self.program.names.resolve(func);
                        return Err(err(if name.starts_with("lean_") {
                            UnknownBuiltinError(name.to_string()).to_string()
                        } else {
                            format!("call to unknown function @{name}")
                        }));
                    }
                }
            }
            Value::Pap { func, args } => {
                let Callee::Fn(idx) = self.sites.sites[site].callee else {
                    let name = self.program.names.resolve(func);
                    return Err(err(format!("pap of unknown function @{name}")));
                };
                let arity = self.program.fns[idx].arity() as u16;
                self.gather(base, arena.vars(args))?;
                let args = self.args.drain(..).collect();
                let outcome = pap_new(&mut self.heap, FuncId(idx as u32), arity, args);
                self.apply_outcome(outcome)?
            }
            Value::App { closure, args } => {
                let c = self.lookup(base, closure)?;
                if !self.rc_mode {
                    self.heap.inc(c);
                }
                if !matches!(self.heap.data(c), lssa_rt::ObjData::Closure { .. }) {
                    return Err(err("application of a non-closure value"));
                }
                self.gather(base, arena.vars(args))?;
                let args = self.args.drain(..).collect();
                let outcome = pap_extend(&mut self.heap, c, args);
                self.apply_outcome(outcome)?
            }
        };
        Ok(Step::Done(r))
    }

    fn apply_outcome(&mut self, outcome: ApplyOutcome) -> Result<ObjRef, InterpError> {
        match outcome {
            ApplyOutcome::Partial(c) => Ok(c),
            ApplyOutcome::Call { func, args } => {
                self.args = args;
                self.call(func.0 as usize)
            }
            ApplyOutcome::CallThen { func, args, rest } => {
                self.args = args;
                let r = self.call(func.0 as usize)?;
                if !matches!(self.heap.data(r), lssa_rt::ObjData::Closure { .. }) {
                    return Err(err("over-application of a non-closure result"));
                }
                let next = pap_extend(&mut self.heap, r, rest);
                self.apply_outcome(next)
            }
        }
    }
}

/// Runs `entry` (a zero-argument function) of `program`.
///
/// In λrc mode the heap is checked for balance: every object must have been
/// released by the end of the run.
///
/// # Errors
///
/// Returns an error on missing entry points, runtime type confusion, fuel
/// exhaustion, or (in λrc mode) an unbalanced heap.
pub fn run_program(
    program: &Program,
    entry: &str,
    rc_mode: bool,
    fuel: u64,
) -> Result<Outcome, InterpError> {
    // A name defined twice resolves to its last definition.
    let mut fn_of = vec![None; program.names.len()];
    for (i, f) in program.fns.iter().enumerate() {
        fn_of[f.name.index()] = Some(i);
    }
    let idx = program
        .names
        .get(entry)
        .and_then(|n| fn_of[n.index()])
        .ok_or_else(|| err(format!("no entry function @{entry}")))?;
    let mut interp = Interp::new(program, rc_mode, fuel, resolve_sites(program, &fn_of));
    let result = interp.call(idx)?;
    let rendered = interp.heap.render(result);
    if rc_mode {
        interp.heap.dec(result);
        let stats = interp.heap.stats();
        if stats.live != 0 {
            return Err(err(format!(
                "reference counting is unbalanced: {} objects leaked",
                stats.live
            )));
        }
    }
    let stats = interp.heap.stats();
    Ok(Outcome {
        rendered,
        stats,
        steps: fuel - interp.fuel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use crate::rc::insert_rc;

    const FUEL: u64 = 10_000_000;

    fn run_pure(src: &str) -> String {
        let p = parse_program(src).unwrap();
        crate::wellformed::check_program(&p).unwrap();
        run_program(&p, "main", false, FUEL).unwrap().rendered
    }

    /// Runs the λrc version and checks heap balance on the way.
    fn run_rc(src: &str) -> String {
        let p = parse_program(src).unwrap();
        let rc = insert_rc(&p);
        crate::wellformed::check_program(&rc).unwrap();
        run_program(&rc, "main", true, FUEL).unwrap().rendered
    }

    /// Both modes must agree (and λrc must balance).
    fn run_both(src: &str) -> String {
        let a = run_pure(src);
        let b = run_rc(src);
        assert_eq!(a, b, "λpure and λrc disagree");
        a
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run_both("def main() := 2 + 3 * 4"), "14");
        assert_eq!(run_both("def main() := (2 + 3) * 4"), "20");
        assert_eq!(run_both("def main() := 10 - 3 - 4"), "3");
        assert_eq!(run_both("def main() := 3 - 10"), "0"); // Nat truncation
        assert_eq!(run_both("def main() := 17 / 5"), "3");
        assert_eq!(run_both("def main() := 17 % 5"), "2");
    }

    #[test]
    fn bigint_arithmetic() {
        assert_eq!(
            run_both("def main() := 99999999999999999999999999 + 1"),
            "100000000000000000000000000"
        );
    }

    #[test]
    fn conditionals() {
        assert_eq!(run_both("def main() := if 1 < 2 then 10 else 20"), "10");
        assert_eq!(run_both("def main() := if 2 < 1 then 10 else 20"), "20");
    }

    #[test]
    fn recursion_factorial() {
        let src = r#"
def fact(n) := if n == 0 then 1 else n * fact(n - 1)
def main() := fact(10)
"#;
        assert_eq!(run_both(src), "3628800");
    }

    #[test]
    fn lists_and_matching() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def length(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + length(t)
  end
def build(n) := if n == 0 then Nil else Cons(n, build(n - 1))
def main() := length(build(100))
"#;
        assert_eq!(run_both(src), "100");
    }

    #[test]
    fn figure4_int_usage() {
        let src = r#"
def intUsage(n) :=
  case n of
  | 42 => 43
  | _ => 99999999
  end
def main() := intUsage(42) + intUsage(7)
"#;
        assert_eq!(run_both(src), "100000042");
    }

    #[test]
    fn figure5_eval_three_args() {
        let src = r#"
def eval(x, y, z) :=
  case x of
  | 0 =>
    case y of
    | 2 => 40
    | _ =>
      case z of
      | 2 => 50
      | _ => 60
      end
    end
  | _ => 60
  end
def main() := eval(0, 2, 0) + eval(0, 0, 2) + eval(1, 2, 2) + eval(0, 0, 0)
"#;
        // 40 + 50 + 60 + 60
        assert_eq!(run_both(src), "210");
    }

    #[test]
    fn closures_figure7() {
        let src = r#"
def k(x, y) := x
def ap42(f) := f(42)
def main() := ap42(k(10)) + k(1, 2)
"#;
        // k(10) is a closure; ap42 applies it to 42 → k(10, 42) = 10; +1.
        assert_eq!(run_both(src), "11");
    }

    #[test]
    fn oversaturated_application() {
        let src = r#"
def pair(a) := add2(a)
def add2(a, b) := a + b
def main() := pair(1)(2)
"#;
        // pair(1) = add2(1) is a pap waiting for b; applying to 2 → 3.
        assert_eq!(run_both(src), "3");
    }

    #[test]
    fn value_position_case_join_point() {
        let src = r#"
def f(b, y) :=
  let x := case b of | true => 1 | false => 2 end;
  x + y
def main() := f(true, 10) + f(false, 100)
"#;
        assert_eq!(run_both(src), "113");
    }

    #[test]
    fn arrays_in_place() {
        let src = r#"
def main() :=
  let a := @array_push(@array_push(@mk_empty_array(), 5), 7);
  let a2 := @array_set(a, 0, 100);
  @array_get(a2, 0) + @array_get(a2, 1)
"#;
        assert_eq!(run_both(src), "107");
    }

    #[test]
    fn rc_balance_reported() {
        // Build structures, drop them: λrc run must free everything.
        let src = r#"
inductive Tree := Leaf | Node(l, v, r)
def build(d) :=
  if d == 0 then Leaf
  else Node(build(d - 1), d, build(d - 1))
def sum(t) :=
  case t of
  | Leaf => 0
  | Node(l, v, r) => sum(l) + v + sum(r)
  end
def main() := sum(build(8))
"#;
        let p = parse_program(src).unwrap();
        let rc = insert_rc(&p);
        let out = run_program(&rc, "main", true, FUEL).unwrap();
        assert_eq!(out.stats.live, 0);
        assert!(out.stats.allocs > 200);
        assert_eq!(out.rendered, "502"); // sum over perfect tree of depth 8
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let src = r#"
def spin(n) := spin(n)
def main() := spin(0)
"#;
        let p = parse_program(src).unwrap();
        let e = run_program(&p, "main", false, 10_000).unwrap_err();
        assert!(e.message.contains(lssa_rt::STEP_BUDGET_MSG));
    }

    #[test]
    fn missing_entry_reported() {
        let p = parse_program("def f() := 1").unwrap();
        assert!(run_program(&p, "main", false, 100).is_err());
    }

    /// `main` returns 0 unless `b` is 1, when it calls `callee`.
    fn calls_in_a_branch(callee: &str, b: i64) -> Program {
        let mut names = crate::ast::Names::default();
        let main = names.intern("main");
        let func = names.intern(callee);
        let mut builder = crate::ast::BodyBuilder::default();
        builder.open();
        builder.let_(0, Value::LitInt(b));
        builder.open();
        builder.let_(
            1,
            Value::Call {
                func,
                args: Slice::default(),
            },
        );
        let call = builder.ret(1);
        builder.open();
        let default = builder.ret(0);
        let body = builder.case(0, &[(1, call)], Some(default));
        Program {
            fns: vec![builder.finish(main, &[], body, 2, 0)],
            names: std::sync::Arc::new(names),
        }
    }

    #[test]
    fn unknown_callees_fail_when_and_only_when_their_site_runs() {
        for (callee, message) in [
            ("nowhere", "call to unknown function @nowhere"),
            ("lean_nowhere", "unknown runtime builtin `lean_nowhere`"),
        ] {
            let out = run_program(&calls_in_a_branch(callee, 0), "main", true, FUEL).unwrap();
            assert_eq!(out.rendered, "0");
            let e = run_program(&calls_in_a_branch(callee, 1), "main", true, FUEL).unwrap_err();
            assert_eq!(e.message, message);
        }
    }

    #[test]
    fn steps_counted() {
        let p = parse_program("def main() := 1 + 2").unwrap();
        let out = run_program(&p, "main", false, FUEL).unwrap();
        assert!(out.steps > 3);
    }
}
