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
use std::collections::HashMap;

/// Which simplifications to run (Figure 10's ablation needs to disable
/// `simpcase` specifically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplifyOptions {
    /// Copy propagation, dead lets, join-point cleanup.
    pub basic: bool,
    /// Constant folding of builtins.
    pub const_fold: bool,
    /// Case-of-known-constructor.
    pub case_of_known: bool,
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
            basic: true,
            const_fold: true,
            case_of_known: true,
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
/// # Panics
///
/// Panics if the program contains RC instructions (run before
/// [`crate::rc::insert_rc`]).
pub fn simplify_program(p: &Program, opts: SimplifyOptions) -> Program {
    let mut cur = p.clone();
    for _ in 0..10 {
        let next = Program {
            fns: cur.fns.iter().map(|f| simplify_fn(f, opts)).collect(),
        };
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

fn simplify_fn(f: &FnDef, opts: SimplifyOptions) -> FnDef {
    assert!(!f.body.has_rc_ops(), "simplifier runs on λpure");
    let mut ctx = Ctx {
        opts,
        env: HashMap::new(),
        subst: HashMap::new(),
    };
    let body = ctx.expr(&f.body);
    FnDef {
        name: f.name.clone(),
        params: f.params.clone(),
        body,
        next_var: f.next_var,
        next_join: f.next_join,
    }
}

struct Ctx {
    opts: SimplifyOptions,
    /// Known bindings (constructors and literals only).
    env: HashMap<VarId, Value>,
    /// Copy-propagation substitution.
    subst: HashMap<VarId, VarId>,
}

impl Ctx {
    fn resolve(&self, v: VarId) -> VarId {
        let mut cur = v;
        let mut hops = 0;
        while let Some(&next) = self.subst.get(&cur) {
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
        match self.env.get(&self.resolve(v))? {
            Value::Ctor { tag, .. } => Some(*tag),
            Value::LitInt(n) if *n >= 0 && *n <= u32::MAX as i64 => Some(*n as u32),
            _ => None,
        }
    }

    fn nat_of(&self, v: VarId) -> Option<Nat> {
        match self.env.get(&self.resolve(v))? {
            Value::LitInt(n) if *n >= 0 => Some(Nat::from_u64(*n as u64)),
            Value::LitBig(s) => Nat::from_str_decimal(s).ok(),
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
        match e {
            Expr::Let { var, val, body } => {
                let mut val = self.resolve_value(val);
                // Copy propagation.
                if let Value::Var(y) = val {
                    self.subst.insert(*var, y);
                    return self.expr(body);
                }
                // Projection of a known constructor.
                if self.opts.case_of_known {
                    if let Value::Proj { var: s, idx } = val {
                        if let Some(Value::Ctor { args, .. }) = self.env.get(&s) {
                            if let Some(&field) = args.get(idx as usize) {
                                self.subst.insert(*var, field);
                                return self.expr(body);
                            }
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
                    Value::Ctor { .. } | Value::LitInt(_) | Value::LitBig(_) => {
                        self.env.insert(*var, val.clone());
                    }
                    _ => {}
                }
                let body = self.expr(body);
                // Dead-let elimination. `var` is bound only here (E0102), so
                // any occurrence in `body` is a free one.
                if self.opts.basic && val.is_droppable() && !body.mentions(*var) {
                    return body;
                }
                Expr::Let {
                    var: *var,
                    val,
                    body: Box::new(body),
                }
            }
            Expr::LetJoin {
                label,
                params,
                jp_body,
                body,
            } => {
                let body = self.expr(body);
                let jumps = count_jumps(&body, *label);
                if self.opts.basic && jumps == 0 {
                    return body; // dead join point
                }
                let jp_body = self.expr(jp_body);
                if self.opts.basic && jumps == 1 && count_jumps(&jp_body, *label) == 0 {
                    // Inline the single jump site.
                    return inline_jump(&body, *label, params, &jp_body);
                }
                Expr::LetJoin {
                    label: *label,
                    params: params.clone(),
                    jp_body: Box::new(jp_body),
                    body: Box::new(body),
                }
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => {
                let s = self.resolve(*scrutinee);
                // Case-of-known-constructor.
                if self.opts.case_of_known {
                    if let Some(tag) = self.known_tag(s) {
                        let arm = alts
                            .iter()
                            .find(|a| a.tag == tag)
                            .map(|a| &a.body)
                            .or(default.as_deref());
                        if let Some(arm) = arm {
                            return self.expr(arm);
                        }
                    }
                }
                let alts: Vec<Alt> = alts
                    .iter()
                    .map(|a| {
                        let mut inner = Ctx {
                            opts: self.opts,
                            env: self.env.clone(),
                            subst: self.subst.clone(),
                        };
                        Alt {
                            tag: a.tag,
                            body: inner.expr(&a.body),
                        }
                    })
                    .collect();
                let default = default.as_ref().map(|d| {
                    let mut inner = Ctx {
                        opts: self.opts,
                        env: self.env.clone(),
                        subst: self.subst.clone(),
                    };
                    Box::new(inner.expr(d))
                });
                // simpcase: all branches identical → keep just one.
                if self.opts.simpcase {
                    let mut bodies: Vec<&Expr> = alts.iter().map(|a| &a.body).collect();
                    if let Some(d) = &default {
                        bodies.push(d);
                    }
                    if let Some(first) = bodies.first() {
                        if bodies.iter().all(|b| b.alpha_eq(first)) {
                            return (*first).clone();
                        }
                    }
                    // Arms identical to the default are redundant.
                    if let Some(d) = &default {
                        let alts: Vec<Alt> =
                            alts.into_iter().filter(|a| !a.body.alpha_eq(d)).collect();
                        return Expr::Case {
                            scrutinee: s,
                            alts,
                            default: Some(d.clone()),
                        };
                    }
                }
                Expr::Case {
                    scrutinee: s,
                    alts,
                    default,
                }
            }
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
