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

use crate::ast::{
    BlockId, FnDef, FreeVars, JoinId, Names, Program, Slice, Stmt, Terminator, Value, VarId,
};
use crate::dense::{IdSet, JoinArities, Scope};
use lssa_rt::Builtin;
use std::collections::HashSet;
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

/// What a call or pap site names, resolved once per program.
#[derive(Debug, Clone, Copy)]
enum Callee {
    /// A function of the program, with its arity.
    Fn(usize),
    /// A runtime builtin.
    Builtin(Builtin),
    /// A `lean_` name that is no builtin.
    UnknownBuiltin,
    /// Nothing the program defines.
    Unknown,
}

/// Checks a whole program.
///
/// # Errors
///
/// Returns all violations found.
pub fn check_program(p: &Program) -> Result<(), Vec<WfError>> {
    let mut errors = Vec::new();
    // One entry per name, resolved once: calls and paps look their callee
    // up here. A duplicate name keeps its first definition's arity, as a
    // front-to-back scan would.
    let mut callees = vec![Callee::Unknown; p.names.len()];
    for f in &p.fns {
        let name = p.name(f);
        if name.starts_with("lean_") {
            errors.push(WfError {
                func: name.to_string(),
                code: codes::DUPLICATE_FUNCTION,
                message: builtin_name_message(name),
            });
        } else if let Callee::Fn(_) = callees[f.name.index()] {
            errors.push(WfError {
                func: name.to_string(),
                code: codes::DUPLICATE_FUNCTION,
                message: "duplicate function name".to_string(),
            });
        } else {
            callees[f.name.index()] = Callee::Fn(f.arity());
        }
    }
    for (callee, name) in callees.iter_mut().zip(p.names.iter()) {
        if name.starts_with("lean_") {
            *callee = name
                .parse::<Builtin>()
                .map_or(Callee::UnknownBuiltin, Callee::Builtin);
        }
    }
    let Some(first) = p.fns.first() else {
        return Ok(());
    };
    let alts = p.fns.iter().map(|f| f.arena.block_count()).sum();
    // One set of tables serves every function: the walk leaves them empty.
    // They are sized for the largest function up front.
    let most = p.largest();
    let mut c = Checker {
        names: &p.names,
        callees: &callees,
        func: first,
        errors: &mut errors,
        bound_once: IdSet::default(),
        scope: Scope::default(),
        joins: JoinArities::default(),
        bound: Vec::with_capacity(most.var_ids),
        declared: Vec::with_capacity(most.join_ids),
        cases: 0,
        tags: HashSet::with_capacity(alts),
        fv: FreeVars::default(),
    };
    c.bound_once.reserve(most.var_ids);
    c.scope.reserve(most.var_ids);
    c.joins.reserve(most.join_ids);
    c.fv.reserve(most.var_ids, most.stmts);
    for f in &p.fns {
        c.func = f;
        c.bound_once.clear();
        c.scope.clear();
        for &p in f.params() {
            if !c.bound_once.insert(p) {
                c.error(codes::REBOUND, format!("parameter x{p} bound twice"));
            }
            c.scope.bind(p);
        }
        c.check_block(f.body);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

struct Checker<'a> {
    names: &'a Names,
    /// Per name, what a call of it calls.
    callees: &'a [Callee],
    func: &'a FnDef,
    errors: &'a mut Vec<WfError>,
    bound_once: IdSet,
    /// The variables in scope at the statement being checked.
    scope: Scope,
    /// The join points a `jump` here may target.
    joins: JoinArities,
    /// The bindings the walk has made, with their unbind tokens.
    bound: Vec<(VarId, u32)>,
    /// The join points the walk has declared, with their restore tokens.
    declared: Vec<(JoinId, u32)>,
    /// The `case` terminators checked so far.
    cases: u32,
    /// The tags each `case` has had, by the case's number.
    tags: HashSet<(u32, u32)>,
    fv: FreeVars,
}

impl Checker<'_> {
    fn error(&mut self, code: &'static str, message: String) {
        self.errors.push(WfError {
            func: self.names.resolve(self.func.name).to_string(),
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

    fn check_vars(&mut self, vars: Slice) {
        let func = self.func;
        for &v in func.arena.vars(vars) {
            self.check_var(v);
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
        let func = self.func;
        func.arena.for_each_operand(val, |v| self.check_var(v));
        match *val {
            Value::Call { func: name, args } => {
                let (names, n) = (self.names, args.len());
                let name_text = names.resolve(name);
                match self.callees[name.index()] {
                    Callee::Builtin(b) if b.arity() != n => self.error(
                        codes::BUILTIN_ARITY,
                        format!("builtin {name_text} expects {} args, got {n}", b.arity()),
                    ),
                    Callee::Builtin(_) => {}
                    Callee::UnknownBuiltin => self.error(
                        codes::UNKNOWN_BUILTIN,
                        format!("unknown builtin {name_text}"),
                    ),
                    Callee::Fn(a) if a == n => {}
                    Callee::Fn(a) => self.error(
                        codes::CALL_ARITY,
                        format!("call to @{name_text} with {n} args (arity {a})"),
                    ),
                    Callee::Unknown => self.error(
                        codes::UNKNOWN_FUNCTION,
                        format!("call to unknown function @{name_text}"),
                    ),
                }
            }
            Value::Pap { func: name, args } => {
                let (names, n) = (self.names, args.len());
                let name_text = names.resolve(name);
                match self.callees[name.index()] {
                    Callee::Fn(a) if n < a => {}
                    Callee::Fn(a) => self.error(
                        codes::BAD_PAP,
                        format!("pap of @{name_text} with {n} args must under-apply (arity {a})"),
                    ),
                    _ => self.error(
                        codes::BAD_PAP,
                        format!("pap of unknown function @{name_text}"),
                    ),
                }
            }
            Value::App { args, .. } if args.is_empty() => {
                self.error(
                    codes::EMPTY_APP,
                    "closure application with no arguments".to_string(),
                );
            }
            Value::LitBig(s) => {
                let s = func.arena.text(s);
                if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
                    self.error(codes::BAD_BIGINT, format!("malformed bigint literal {s:?}"));
                }
            }
            _ => {}
        }
    }

    /// Checks block `b`: its statements in a loop, their bindings and join
    /// declarations undone when the block ends, so a long run of bindings
    /// costs no stack.
    fn check_block(&mut self, b: BlockId) {
        let func = self.func;
        let arena = &func.arena;
        let (var_mark, join_mark) = (self.bound.len(), self.declared.len());
        for s in arena.stmts(b) {
            match *s {
                Stmt::Let { var, ref val } => {
                    self.check_value(val);
                    let token = self.bind(var);
                    self.bound.push((var, token));
                }
                Stmt::Join {
                    label,
                    params,
                    body,
                } => {
                    let params = arena.vars(params);
                    // Join body sees only its parameters.
                    let outer = self.scope.enter_frame();
                    let mark = self.bound.len();
                    for &p in params {
                        let token = self.bind(p);
                        self.bound.push((p, token));
                    }
                    // The join point itself is not in scope inside its own
                    // body (no recursive joins in λpure).
                    self.check_block(body);
                    self.unbind_to(mark);
                    self.scope.leave_frame(outer);
                    if let Some(v) = self.fv.first_outside(arena, body, params) {
                        self.error(
                            codes::JOIN_CAPTURE,
                            format!(
                                "join point j{label} body references x{v}, which is not a parameter"
                            ),
                        );
                    }
                    let token = self.joins.declare(label, params.len());
                    self.declared.push((label, token));
                }
                Stmt::Inc { var, .. } | Stmt::Dec { var } => self.check_var(var),
            }
        }
        match *arena.term(b) {
            Terminator::Case {
                scrutinee,
                alts,
                default,
            } => {
                self.check_var(scrutinee);
                if alts.is_empty() && default.is_none() {
                    self.error(codes::EMPTY_CASE, "case with no arms".to_string());
                }
                let case = self.cases;
                self.cases = case.checked_add(1).expect("fewer than 2^32 case forms");
                for alt in arena.alts(alts) {
                    if !self.tags.insert((case, alt.tag)) {
                        self.error(
                            codes::DUPLICATE_TAG,
                            format!("duplicate case tag {}", alt.tag),
                        );
                    }
                    self.check_block(alt.body);
                }
                if let Some(d) = default {
                    self.check_block(d);
                }
            }
            Terminator::Jump { label, args } => {
                self.check_vars(args);
                match self.joins.get(label) {
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
            }
            Terminator::Ret(v) => self.check_var(v),
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
    use crate::ast::BodyBuilder;
    use crate::parse::parse_program;
    use std::sync::Arc;

    /// The program of one function `f(params)`, its body built by `body`.
    fn single_fn(
        params: &[VarId],
        next_var: VarId,
        body: impl FnOnce(&mut BodyBuilder, &mut Names) -> BlockId,
    ) -> Program {
        let mut names = Names::default();
        let f = names.intern("f");
        let mut b = BodyBuilder::default();
        b.open();
        let entry = body(&mut b, &mut names);
        Program {
            fns: vec![b.finish(f, params, entry, next_var, 8)],
            names: Arc::new(names),
        }
    }

    /// `let x1 = call name(args…); ret x1`
    fn calls(name: &'static str, args: &'static [VarId]) -> Program {
        single_fn(&[0], 10, move |b, names| {
            let func = names.intern(name);
            let args = b.list(args);
            b.let_(1, Value::Call { func, args });
            b.ret(1)
        })
    }

    /// A `join j0(params) = ret params[0]` and a `jump j0(args)` to it.
    fn join_and_jump(params: &'static [VarId], ret: VarId, args: &'static [VarId]) -> Program {
        single_fn(&[0], 10, move |b, _| {
            b.open();
            let body = b.ret(ret);
            let params = b.list(params);
            b.push(Stmt::Join {
                label: 0,
                params,
                body,
            });
            b.jump(0, args)
        })
    }

    /// A `case x0` with an arm `ret x0` per tag.
    fn case_arms(b: &mut BodyBuilder, tags: &[u32]) -> BlockId {
        let arms: Vec<(u32, BlockId)> = tags
            .iter()
            .map(|&t| {
                b.open();
                (t, b.ret(0))
            })
            .collect();
        b.case(0, &arms, None)
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
        let p = single_fn(&[0], 10, |b, _| b.ret(5));
        let errs = check_program(&p).unwrap_err();
        assert!(errs[0].message.contains("out of scope"));
    }

    #[test]
    fn double_binding_rejected() {
        let p = single_fn(&[0], 10, |b, _| {
            b.let_(1, Value::LitInt(1));
            b.let_(1, Value::LitInt(2));
            b.ret(1)
        });
        let errs = check_program(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("bound more than once")));
    }

    #[test]
    fn join_capture_rejected() {
        // join j0() = ret x0 — x0 is not a parameter of the join point.
        let errs = check_program(&join_and_jump(&[], 0, &[])).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("not a parameter")));
    }

    #[test]
    fn jump_arity_mismatch_rejected() {
        let errs = check_program(&join_and_jump(&[1], 1, &[])).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("jump to j0")));
    }

    #[test]
    fn unknown_call_rejected() {
        let errs = check_program(&calls("ghost", &[0])).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown function")));
    }

    #[test]
    fn builtin_arity_checked() {
        let errs = check_program(&calls("lean_nat_add", &[0])).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expects 2 args")));
    }

    #[test]
    fn unknown_builtin_rejected() {
        let errs = check_program(&calls("lean_frobnicate", &[0])).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown builtin")));
    }

    #[test]
    fn duplicate_case_tags_rejected() {
        let p = single_fn(&[0], 10, |b, _| case_arms(b, &[0, 0]));
        let errs = check_program(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("duplicate case tag")));
    }

    #[test]
    fn duplicate_tags_are_found_in_wide_and_nested_cases() {
        // Twenty arms with tags 0..20, then repeats of 17 and 0; the inner
        // case of arm 3 reuses the outer tags 0 and 1 without clashing.
        let p = single_fn(&[0], 10, |b, _| {
            let mut arms = Vec::new();
            for t in (0..20).chain([17, 0]) {
                b.open();
                let arm = if t == 3 {
                    case_arms(b, &[0, 1, 1])
                } else {
                    b.ret(0)
                };
                arms.push((t, arm));
            }
            b.case(0, &arms, None)
        });
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
        let pap = |params: &'static [VarId]| {
            single_fn(params, 10, |b, names| {
                let func = names.intern("f");
                let args = b.list(&[0]);
                b.let_(1, Value::Pap { func, args });
                b.ret(1)
            })
        };
        // f has arity 1; pap with 1 arg is not under-applying.
        let errs = check_program(&pap(&[0])).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("under-apply")),
            "{errs:?}"
        );
        // With arity 2 it is fine.
        check_program(&pap(&[0, 9])).unwrap();
    }
}
