//! Well-formedness checking for λpure/λrc programs.
//!
//! Enforces the invariants the rest of the compiler relies on:
//!
//! 1. every variable use is in scope;
//! 2. every binder is globally unique within its function (SSA-like);
//! 3. `jump` targets an enclosing join point with matching argument count;
//! 4. join-point bodies reference only their own parameters (this crate
//!    lambda-lifts join points locally — see [`crate::ast`]);
//! 5. calls name known functions (or `lean_*` runtime builtins) with the
//!    right arity; partial applications under-apply; closure applications
//!    pass at least one argument.

use crate::ast::{Expr, FnDef, FreeVars, JoinId, Program, Value, VarId};
use crate::dense::{IdSet, JoinArities, Scope};
use lssa_rt::Builtin;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Stable diagnostic codes for wellformedness violations.
///
/// Shared with the `lssa-syntax` text frontend, so `lssa check` (syntax-level
/// checking with spans) and `lssa run` (AST-level checking) report the same
/// code for the same defect.
pub mod codes {
    /// Use of a variable that is not in scope.
    pub const OUT_OF_SCOPE: &str = "E0101";
    /// A variable bound more than once within one function.
    pub const REBOUND: &str = "E0102";
    /// Jump to a join point that is not in scope.
    pub const UNKNOWN_JOIN: &str = "E0103";
    /// Jump argument count differs from the join point's parameter count.
    pub const JUMP_ARITY: &str = "E0104";
    /// A join-point body references a variable that is not one of its
    /// parameters.
    pub const JOIN_CAPTURE: &str = "E0105";
    /// Call of an unknown top-level function.
    pub const UNKNOWN_FUNCTION: &str = "E0106";
    /// Call argument count differs from the callee's arity.
    pub const CALL_ARITY: &str = "E0107";
    /// Call of an unknown `lean_*` runtime builtin.
    pub const UNKNOWN_BUILTIN: &str = "E0108";
    /// Builtin argument count differs from the builtin's arity.
    pub const BUILTIN_ARITY: &str = "E0109";
    /// Partial application that does not under-apply, or of an unknown
    /// function.
    pub const BAD_PAP: &str = "E0110";
    /// Closure application with no arguments.
    pub const EMPTY_APP: &str = "E0111";
    /// Bigint literal that is not a nonempty string of decimal digits.
    pub const BAD_BIGINT: &str = "E0112";
    /// Two `case` arms with the same constructor tag.
    pub const DUPLICATE_TAG: &str = "E0113";
    /// A `case` with neither arms nor a default.
    pub const EMPTY_CASE: &str = "E0114";
    /// Two top-level functions with the same name, or a function named
    /// like a runtime builtin (`lean_…`).
    pub const DUPLICATE_FUNCTION: &str = "E0115";
    /// A variable id at or above the function's declared `next_var` bound.
    pub const VAR_BOUND: &str = "E0116";
}

/// A well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfError {
    /// The function in which the violation occurred.
    pub func: String,
    /// Stable diagnostic code (see [`codes`]).
    pub code: &'static str,
    /// Description.
    pub message: String,
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}: {}", self.func, self.message)
    }
}

impl std::error::Error for WfError {}

/// The message for a function defined in the runtime's `lean_` namespace,
/// shared with the text frontend so both checkers word it alike.
pub fn builtin_name_message(name: &str) -> String {
    format!("`{name}` is in the runtime's `lean_` namespace: every call to it is a builtin call")
}

/// Checks a whole program.
///
/// # Errors
///
/// Returns all violations found.
pub fn check_program(p: &Program) -> Result<(), Vec<WfError>> {
    let mut errors = Vec::new();
    // One name → arity table per program, built once: calls and paps look
    // up their callee here instead of scanning every function. A duplicate
    // name keeps its first definition's arity, as a front-to-back scan
    // would.
    let mut arities: HashMap<&str, usize> = HashMap::with_capacity(p.fns.len());
    for f in &p.fns {
        if f.name.starts_with("lean_") {
            errors.push(WfError {
                func: f.name.clone(),
                code: codes::DUPLICATE_FUNCTION,
                message: builtin_name_message(&f.name),
            });
        } else if arities.contains_key(f.name.as_str()) {
            errors.push(WfError {
                func: f.name.clone(),
                code: codes::DUPLICATE_FUNCTION,
                message: "duplicate function name".to_string(),
            });
        } else {
            arities.insert(&f.name, f.arity());
        }
    }
    let Some(first) = p.fns.first() else {
        return Ok(());
    };
    // One set of tables serves every function: the walk leaves them empty.
    let mut c = Checker {
        arities: &arities,
        func: first,
        errors: &mut errors,
        bound_once: IdSet::default(),
        scope: Scope::default(),
        joins: JoinArities::default(),
        bound: Vec::new(),
        declared: Vec::new(),
        cases: 0,
        tags: HashSet::new(),
        fv: FreeVars::default(),
    };
    for f in &p.fns {
        c.func = f;
        c.bound_once.clear();
        c.scope.clear();
        for &p in &f.params {
            if !c.bound_once.insert(p) {
                c.error(codes::REBOUND, format!("parameter x{p} bound twice"));
            }
            c.scope.bind(p);
        }
        c.check_expr(&f.body);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

struct Checker<'a> {
    arities: &'a HashMap<&'a str, usize>,
    func: &'a FnDef,
    errors: &'a mut Vec<WfError>,
    bound_once: IdSet,
    /// The variables in scope at the expression being checked.
    scope: Scope,
    /// The join points a `jump` here may target.
    joins: JoinArities,
    /// The bindings the walk has made, with their unbind tokens.
    bound: Vec<(VarId, u32)>,
    /// The join points the walk has declared, with their restore tokens.
    declared: Vec<(JoinId, u32)>,
    /// The `case` expressions checked so far.
    cases: u32,
    /// The tags each `case` has had, by the case's number.
    tags: HashSet<(u32, u32)>,
    fv: FreeVars,
}

impl Checker<'_> {
    fn error(&mut self, code: &'static str, message: String) {
        self.errors.push(WfError {
            func: self.func.name.clone(),
            code,
            message,
        });
    }

    fn check_var(&mut self, v: VarId) {
        if !self.scope.contains(v) {
            self.error(codes::OUT_OF_SCOPE, format!("use of x{v} out of scope"));
        }
        if v >= self.func.next_var {
            self.error(
                codes::VAR_BOUND,
                format!(
                    "x{v} exceeds the function's declared variable bound {}",
                    self.func.next_var
                ),
            );
        }
    }

    /// Binds `v` in the current scope; returns the token that unbinds it.
    fn bind(&mut self, v: VarId) -> u32 {
        if !self.bound_once.insert(v) {
            self.error(codes::REBOUND, format!("x{v} bound more than once"));
        }
        self.scope.bind(v)
    }

    fn check_value(&mut self, val: &Value) {
        val.for_each_operand(|v| self.check_var(v));
        match val {
            Value::Call { func, args } => {
                if func.starts_with("lean_") {
                    match func.parse::<Builtin>() {
                        Ok(b) => {
                            if b.arity() != args.len() {
                                self.error(
                                    codes::BUILTIN_ARITY,
                                    format!(
                                        "builtin {func} expects {} args, got {}",
                                        b.arity(),
                                        args.len()
                                    ),
                                );
                            }
                        }
                        Err(_) => {
                            self.error(codes::UNKNOWN_BUILTIN, format!("unknown builtin {func}"))
                        }
                    }
                } else {
                    match self.arities.get(func.as_str()).copied() {
                        Some(a) if a == args.len() => {}
                        Some(a) => self.error(
                            codes::CALL_ARITY,
                            format!("call to @{func} with {} args (arity {a})", args.len()),
                        ),
                        None => self.error(
                            codes::UNKNOWN_FUNCTION,
                            format!("call to unknown function @{func}"),
                        ),
                    }
                }
            }
            Value::Pap { func, args } => match self.arities.get(func.as_str()).copied() {
                Some(a) if args.len() < a => {}
                Some(a) => self.error(
                    codes::BAD_PAP,
                    format!(
                        "pap of @{func} with {} args must under-apply (arity {a})",
                        args.len()
                    ),
                ),
                None => self.error(codes::BAD_PAP, format!("pap of unknown function @{func}")),
            },
            Value::App { args, .. } if args.is_empty() => {
                self.error(
                    codes::EMPTY_APP,
                    "closure application with no arguments".to_string(),
                );
            }
            Value::LitBig(s) if (s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit())) => {
                self.error(codes::BAD_BIGINT, format!("malformed bigint literal {s:?}"));
            }
            _ => {}
        }
    }

    /// Checks `e`. A form's continuation (a `let` body, the code after a
    /// join point's declaration) is followed in a loop, its bindings undone
    /// when the walk ends, so a long `let` chain costs no stack.
    fn check_expr(&mut self, mut e: &Expr) {
        let (var_mark, join_mark) = (self.bound.len(), self.declared.len());
        loop {
            match e {
                Expr::Let { var, val, body } => {
                    self.check_value(val);
                    let token = self.bind(*var);
                    self.bound.push((*var, token));
                    e = body;
                }
                Expr::LetJoin {
                    label,
                    params,
                    jp_body,
                    body,
                } => {
                    // Join body sees only its parameters.
                    let outer = self.scope.enter_frame();
                    let mark = self.bound.len();
                    for &p in params {
                        let token = self.bind(p);
                        self.bound.push((p, token));
                    }
                    // The join point itself is not in scope inside its own
                    // body (no recursive joins in λpure).
                    self.check_expr(jp_body);
                    self.unbind_to(mark);
                    self.scope.leave_frame(outer);
                    if let Some(v) = self.fv.first_outside(jp_body, params) {
                        self.error(
                            codes::JOIN_CAPTURE,
                            format!(
                                "join point j{label} body references x{v}, which is not a parameter"
                            ),
                        );
                    }
                    let token = self.joins.declare(*label, params.len());
                    self.declared.push((*label, token));
                    e = body;
                }
                Expr::Case {
                    scrutinee,
                    alts,
                    default,
                } => {
                    self.check_var(*scrutinee);
                    if alts.is_empty() && default.is_none() {
                        self.error(codes::EMPTY_CASE, "case with no arms".to_string());
                    }
                    let case = self.cases;
                    self.cases = case.checked_add(1).expect("fewer than 2^32 case forms");
                    for alt in alts {
                        if !self.tags.insert((case, alt.tag)) {
                            self.error(
                                codes::DUPLICATE_TAG,
                                format!("duplicate case tag {}", alt.tag),
                            );
                        }
                        self.check_expr(&alt.body);
                    }
                    if let Some(d) = default {
                        self.check_expr(d);
                    }
                    break;
                }
                Expr::Jump { label, args } => {
                    for &a in args {
                        self.check_var(a);
                    }
                    match self.joins.get(*label) {
                        Some(arity) if arity == args.len() => {}
                        Some(arity) => self.error(
                            codes::JUMP_ARITY,
                            format!(
                                "jump to j{label} with {} args (expects {arity})",
                                args.len()
                            ),
                        ),
                        None => self.error(
                            codes::UNKNOWN_JOIN,
                            format!("jump to unknown join point j{label}"),
                        ),
                    }
                    break;
                }
                Expr::Ret(v) => {
                    self.check_var(*v);
                    break;
                }
                Expr::Inc { var, body, .. } | Expr::Dec { var, body } => {
                    self.check_var(*var);
                    e = body;
                }
            }
        }
        self.unbind_to(var_mark);
        while self.declared.len() > join_mark {
            let (label, token) = self.declared.pop().expect("above the mark");
            self.joins.restore(label, token);
        }
    }

    /// Undoes the bindings made since `self.bound` had `mark` entries.
    fn unbind_to(&mut self, mark: usize) {
        while self.bound.len() > mark {
            let (v, token) = self.bound.pop().expect("above the mark");
            self.scope.unbind(v, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::parse::parse_program;

    fn single_fn(body: Expr, params: Vec<VarId>, next_var: VarId) -> Program {
        Program {
            fns: vec![FnDef {
                name: "f".into(),
                params,
                body,
                next_var,
                next_join: 8,
            }],
        }
    }

    #[test]
    fn valid_program_passes() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def length(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + length(t)
  end
"#;
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn out_of_scope_use_rejected() {
        let p = single_fn(ret(5), vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs[0].message.contains("out of scope"));
    }

    #[test]
    fn double_binding_rejected() {
        let body = let_(1, Value::LitInt(1), let_(1, Value::LitInt(2), ret(1)));
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("bound more than once")));
    }

    #[test]
    fn join_capture_rejected() {
        // join j0() = ret x0 — x0 is not a parameter of the join point.
        let body = Expr::LetJoin {
            label: 0,
            params: vec![],
            jp_body: Box::new(ret(0)),
            body: Box::new(Expr::Jump {
                label: 0,
                args: vec![],
            }),
        };
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("not a parameter")));
    }

    #[test]
    fn jump_arity_mismatch_rejected() {
        let body = Expr::LetJoin {
            label: 0,
            params: vec![1],
            jp_body: Box::new(ret(1)),
            body: Box::new(Expr::Jump {
                label: 0,
                args: vec![],
            }),
        };
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("jump to j0")));
    }

    #[test]
    fn unknown_call_rejected() {
        let body = let_(
            1,
            Value::Call {
                func: "ghost".into(),
                args: vec![0],
            },
            ret(1),
        );
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown function")));
    }

    #[test]
    fn builtin_arity_checked() {
        let body = let_(
            1,
            Value::Call {
                func: "lean_nat_add".into(),
                args: vec![0],
            },
            ret(1),
        );
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expects 2 args")));
    }

    #[test]
    fn unknown_builtin_rejected() {
        let body = let_(
            1,
            Value::Call {
                func: "lean_frobnicate".into(),
                args: vec![0],
            },
            ret(1),
        );
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown builtin")));
    }

    #[test]
    fn duplicate_case_tags_rejected() {
        let body = case(0, vec![(0, ret(0)), (0, ret(0))], None);
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("duplicate case tag")));
    }

    #[test]
    fn duplicate_tags_are_found_in_wide_and_nested_cases() {
        // Twenty arms with tags 0..20, then repeats of 17 and 0; the inner
        // case of arm 3 reuses the outer tags 0 and 1 without clashing.
        let mut arms: Vec<(u32, Expr)> = (0..20).map(|t| (t, ret(0))).collect();
        arms[3].1 = case(0, vec![(0, ret(0)), (1, ret(0)), (1, ret(0))], None);
        arms.push((17, ret(0)));
        arms.push((0, ret(0)));
        let p = single_fn(case(0, arms, None), vec![0], 10);
        let messages: Vec<String> = check_program(&p)
            .unwrap_err()
            .into_iter()
            .map(|e| e.message)
            .collect();
        assert_eq!(
            messages,
            [
                "duplicate case tag 1",
                "duplicate case tag 17",
                "duplicate case tag 0"
            ]
        );
    }

    #[test]
    fn pap_must_under_apply() {
        let mut p = single_fn(
            let_(
                1,
                Value::Pap {
                    func: "f".into(),
                    args: vec![0],
                },
                ret(1),
            ),
            vec![0],
            10,
        );
        // f has arity 1; pap with 1 arg is not under-applying.
        let errs = check_program(&p).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("under-apply")),
            "{errs:?}"
        );
        // With arity 2 it is fine.
        p.fns[0].params = vec![0, 9];
        p.fns[0].body = let_(
            1,
            Value::Pap {
                func: "f".into(),
                args: vec![0],
            },
            ret(1),
        );
        check_program(&p).unwrap();
    }
}
