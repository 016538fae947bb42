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

use crate::ast::{Alt, Expr, FnDef, JoinId, Program, Value, VarId};
use lssa_rt::Nat;

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
/// whole-program loop would.
///
/// # Panics
///
/// Panics if the program contains RC instructions (run before
/// [`crate::rc::insert_rc`]).
pub fn simplify_program(p: &Program, opts: SimplifyOptions) -> Program {
    let mut ctx = Ctx {
        opts,
        env: Vec::new(),
        subst: Vec::new(),
        fields: Vec::new(),
        env_log: Vec::new(),
        subst_log: Vec::new(),
    };
    let mut fns = Vec::with_capacity(p.fns.len());
    let mut changed = Vec::with_capacity(p.fns.len());
    for f in &p.fns {
        let next = ctx.function(f);
        changed.push(next != *f);
        fns.push(next);
    }
    for _ in 1..10 {
        if !changed.contains(&true) {
            break;
        }
        for (f, changed) in fns.iter_mut().zip(&mut changed) {
            if *changed {
                let next = ctx.function(f);
                *changed = next != *f;
                *f = next;
            }
        }
    }
    Program { fns }
}

/// What the simplifier knows about a variable's value.
#[derive(Debug, Clone, Default)]
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
    Big(String),
}

/// No substitution.
const NO_SUBST: VarId = VarId::MAX;

struct Ctx {
    opts: SimplifyOptions,
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
}

impl Ctx {
    fn function(&mut self, f: &FnDef) -> FnDef {
        assert!(!f.body.has_rc_ops(), "simplifier runs on λpure");
        let body = self.expr(&f.body);
        // Every entry was set through the logs: undoing them all leaves the
        // tables empty for the next function.
        self.undo_to((0, 0));
        self.fields.clear();
        FnDef {
            name: f.name.clone(),
            params: f.params.clone(),
            body,
            next_var: f.next_var,
            next_join: f.next_join,
        }
    }

    fn known(&self, v: VarId) -> &Known {
        self.env.get(v as usize).unwrap_or(&Known::Nothing)
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
        let mut cur = v;
        let mut hops = 0;
        while let Some(&next) = self.subst.get(cur as usize).filter(|&&n| n != NO_SUBST) {
            cur = next;
            hops += 1;
            debug_assert!(hops < 10_000, "substitution cycle");
        }
        cur
    }

    fn resolve_value(&self, val: &Value) -> Value {
        let r = |v: &VarId| self.resolve(*v);
        match val {
            Value::Var(v) => Value::Var(r(v)),
            Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => val.clone(),
            Value::Ctor { tag, args } => Value::Ctor {
                tag: *tag,
                args: args.iter().map(r).collect(),
            },
            Value::Proj { var, idx } => Value::Proj {
                var: r(var),
                idx: *idx,
            },
            Value::Call { func, args } => Value::Call {
                func: func.clone(),
                args: args.iter().map(r).collect(),
            },
            Value::Pap { func, args } => Value::Pap {
                func: func.clone(),
                args: args.iter().map(r).collect(),
            },
            Value::App { closure, args } => Value::App {
                closure: r(closure),
                args: args.iter().map(r).collect(),
            },
        }
    }

    /// The known tag of a variable, if statically determined.
    fn known_tag(&self, v: VarId) -> Option<u32> {
        match self.known(self.resolve(v)) {
            Known::Ctor { tag, .. } => Some(*tag),
            Known::Int(n) if *n >= 0 && *n <= u32::MAX as i64 => Some(*n as u32),
            _ => None,
        }
    }

    fn nat_of(&self, v: VarId) -> Option<Nat> {
        match self.known(self.resolve(v)) {
            Known::Int(n) if *n >= 0 => Some(Nat::from_u64(*n as u64)),
            Known::Big(s) => Nat::from_str_decimal(s).ok(),
            _ => None,
        }
    }

    fn fold_call(&self, func: &str, args: &[VarId]) -> Option<Value> {
        if !self.opts.const_fold {
            return None;
        }
        let nat_result = |n: Nat| -> Value {
            match n.to_u64() {
                Some(v) if v < (1 << 62) => Value::LitInt(v as i64),
                _ => Value::LitBig(n.to_string()),
            }
        };
        let bool_result = |b: bool| Value::Ctor {
            tag: b as u32,
            args: vec![],
        };
        let [a, b] = args else { return None };
        let (x, y) = (self.nat_of(*a)?, self.nat_of(*b)?);
        Some(match func {
            "lean_nat_add" => nat_result(x.add(&y)),
            "lean_nat_sub" => nat_result(x.sat_sub(&y)),
            "lean_nat_mul" => nat_result(x.mul(&y)),
            "lean_nat_div" => nat_result(x.div(&y)),
            "lean_nat_mod" => nat_result(x.rem(&y)),
            "lean_nat_dec_eq" => bool_result(x == y),
            "lean_nat_dec_lt" => bool_result(x < y),
            "lean_nat_dec_le" => bool_result(x <= y),
            _ => return None,
        })
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        // Each form has its own function, so the recursion down a long
        // `let` chain carries one small frame per level.
        match e {
            Expr::Let { var, val, body } => self.let_(*var, val, body),
            Expr::LetJoin {
                label,
                params,
                jp_body,
                body,
            } => self.join(*label, params, jp_body, body),
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => self.case(*scrutinee, alts, default.as_deref()),
            Expr::Jump { label, args } => Expr::Jump {
                label: *label,
                args: args.iter().map(|&a| self.resolve(a)).collect(),
            },
            Expr::Ret(v) => Expr::Ret(self.resolve(*v)),
            Expr::Inc { .. } | Expr::Dec { .. } => {
                unreachable!("simplifier runs on λpure")
            }
        }
    }

    fn let_(&mut self, var: VarId, val: &Value, body: &Expr) -> Expr {
        let mut val = self.resolve_value(val);
        // Copy propagation.
        if let Value::Var(y) = val {
            self.substitute(var, y);
            return self.expr(body);
        }
        // Projection of a known constructor.
        if let Value::Proj { var: s, idx } = val {
            if let Known::Ctor { start, len, .. } = *self.known(s) {
                if idx < len {
                    let field = self.fields[(start + idx) as usize];
                    self.substitute(var, field);
                    return self.expr(body);
                }
            }
        }
        // Constant folding.
        if let Value::Call { func, args } = &val {
            if let Some(folded) = self.fold_call(func, args) {
                val = folded;
            }
        }
        // Record knowledge.
        match &val {
            Value::Ctor { tag, args } => {
                let start = self.fields.len() as u32;
                self.fields.extend_from_slice(args);
                let len = args.len() as u32;
                self.learn(
                    var,
                    Known::Ctor {
                        tag: *tag,
                        start,
                        len,
                    },
                );
            }
            Value::LitInt(n) => self.learn(var, Known::Int(*n)),
            Value::LitBig(s) => self.learn(var, Known::Big(s.clone())),
            _ => {}
        }
        let body = self.expr(body);
        // Dead-let elimination. `var` is bound only here (E0102), so any
        // occurrence in `body` is a free one.
        if val.is_droppable() && !body.mentions(var) {
            return body;
        }
        Expr::Let {
            var,
            val,
            body: Box::new(body),
        }
    }

    fn join(&mut self, label: JoinId, params: &[VarId], jp_body: &Expr, body: &Expr) -> Expr {
        let body = self.expr(body);
        let jumps = count_jumps(&body, label);
        if jumps == 0 {
            return body; // dead join point
        }
        let jp_body = self.expr(jp_body);
        if jumps == 1 && count_jumps(&jp_body, label) == 0 {
            // Inline the single jump site.
            return inline_jump(&body, label, params, &jp_body);
        }
        Expr::LetJoin {
            label,
            params: params.to_vec(),
            jp_body: Box::new(jp_body),
            body: Box::new(body),
        }
    }

    fn case(&mut self, scrutinee: VarId, alts: &[Alt], default: Option<&Expr>) -> Expr {
        let s = self.resolve(scrutinee);
        // Case-of-known-constructor.
        if let Some(tag) = self.known_tag(s) {
            let arm = alts
                .iter()
                .find(|a| a.tag == tag)
                .map(|a| &a.body)
                .or(default);
            if let Some(arm) = arm {
                return self.expr(arm);
            }
        }
        // Each arm starts from what is known here; what it learns is undone
        // when it ends.
        let mark = self.mark();
        let alts: Vec<Alt> = alts
            .iter()
            .map(|a| {
                let body = self.expr(&a.body);
                self.undo_to(mark);
                Alt { tag: a.tag, body }
            })
            .collect();
        let default = default.map(|d| {
            let body = self.expr(d);
            self.undo_to(mark);
            Box::new(body)
        });
        // simpcase: all branches identical → keep just one.
        if self.opts.simpcase {
            let first = alts.first().map(|a| &a.body).or(default.as_deref());
            let identical = first.is_some_and(|first| {
                alts.iter()
                    .map(|a| &a.body)
                    .chain(default.as_deref())
                    .all(|b| b.alpha_eq(first))
            });
            if identical {
                return match alts.into_iter().next() {
                    Some(first) => first.body,
                    None => *default.expect("a branch"),
                };
            }
            // Arms identical to the default are redundant.
            if let Some(d) = default {
                let alts: Vec<Alt> = alts.into_iter().filter(|a| !a.body.alpha_eq(&d)).collect();
                return Expr::Case {
                    scrutinee: s,
                    alts,
                    default: Some(d),
                };
            }
        }
        Expr::Case {
            scrutinee: s,
            alts,
            default,
        }
    }
}

fn count_jumps(e: &Expr, label: JoinId) -> usize {
    match e {
        Expr::Jump { label: l, .. } => usize::from(*l == label),
        Expr::Let { body, .. } | Expr::Inc { body, .. } | Expr::Dec { body, .. } => {
            count_jumps(body, label)
        }
        Expr::LetJoin { jp_body, body, .. } => {
            count_jumps(jp_body, label) + count_jumps(body, label)
        }
        Expr::Case { alts, default, .. } => {
            alts.iter()
                .map(|a| count_jumps(&a.body, label))
                .sum::<usize>()
                + default.as_ref().map(|d| count_jumps(d, label)).unwrap_or(0)
        }
        Expr::Ret(_) => 0,
    }
}

/// Replaces the unique `jump label(args…)` in `e` by `jp_body` with
/// `params := args` bindings (as copy substitutions via `let`).
fn inline_jump(e: &Expr, label: JoinId, params: &[VarId], jp_body: &Expr) -> Expr {
    match e {
        Expr::Jump { label: l, args } if *l == label => {
            let mut out = jp_body.clone();
            for (&p, &a) in params.iter().zip(args).rev() {
                out = Expr::Let {
                    var: p,
                    val: Value::Var(a),
                    body: Box::new(out),
                };
            }
            out
        }
        Expr::Jump { .. } | Expr::Ret(_) => e.clone(),
        Expr::Let { var, val, body } => Expr::Let {
            var: *var,
            val: val.clone(),
            body: Box::new(inline_jump(body, label, params, jp_body)),
        },
        Expr::LetJoin {
            label: l,
            params: ps,
            jp_body: jb,
            body,
        } => Expr::LetJoin {
            label: *l,
            params: ps.clone(),
            jp_body: Box::new(inline_jump(jb, label, params, jp_body)),
            body: Box::new(inline_jump(body, label, params, jp_body)),
        },
        Expr::Case {
            scrutinee,
            alts,
            default,
        } => Expr::Case {
            scrutinee: *scrutinee,
            alts: alts
                .iter()
                .map(|a| Alt {
                    tag: a.tag,
                    body: inline_jump(&a.body, label, params, jp_body),
                })
                .collect(),
            default: default
                .as_ref()
                .map(|d| Box::new(inline_jump(d, label, params, jp_body))),
        },
        Expr::Inc { var, n, body } => Expr::Inc {
            var: *var,
            n: *n,
            body: Box::new(inline_jump(body, label, params, jp_body)),
        },
        Expr::Dec { var, body } => Expr::Dec {
            var: *var,
            body: Box::new(inline_jump(body, label, params, jp_body)),
        },
    }
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
            p.fns.iter().map(|f| f.body.size()).sum(),
            s.fns.iter().map(|f| f.body.size()).sum(),
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
        let body = &s.fns[0].body;
        assert_eq!(body.size(), 2, "{body}");
        assert!(body.to_string().contains("21"), "{body}");
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
        let body = &s.fns[0].body;
        let text = body.to_string();
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
        assert_eq!(s.fns[0].body.size(), 2, "{}", s.fns[0].body);
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
        let f = s.fn_by_name("f").unwrap();
        assert!(!f.body.to_string().contains("case"), "{}", f.body);
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
        let f = s.fn_by_name("f").unwrap();
        assert!(f.body.to_string().contains("case"), "{}", f.body);
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
        let text = s.fns[0].body.to_string();
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
        assert!(
            s.fns[0].body.to_string().contains("10"),
            "{}",
            s.fns[0].body
        );
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
        assert!(s.fns.last().unwrap().body.to_string().contains("call @id"));
    }

    #[test]
    fn bigint_folding() {
        let src = "def main() := 99999999999999999999 + 1";
        let p = parse_program(src).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        assert!(
            s.fns[0]
                .body
                .to_string()
                .contains("big(100000000000000000000)"),
            "{}",
            s.fns[0].body
        );
    }
}
