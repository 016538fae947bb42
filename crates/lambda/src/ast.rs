//! The λpure / λrc abstract syntax.
//!
//! λpure is LEAN4's minimal, pure, strict, higher-order IR (§II-B of the
//! paper): A-normal-form expressions built from `let`, data constructors,
//! projections, pattern matching (`case`), full calls, partial applications,
//! closure applications, and join points. λrc is the same syntax extended
//! with explicit reference-count instructions (`inc` / `dec`); a term is "in
//! λrc" when those have been inserted by [`crate::rc::insert_rc`].
//!
//! Join-point discipline: this crate locally lambda-lifts join points, so a
//! join point's body may only reference its own parameters (checked by
//! [`crate::wellformed`]). Jumps pass everything explicitly, which keeps
//! reference counting compositional.

use std::collections::BTreeSet;
use std::fmt;

/// A local variable (unique within one function).
pub type VarId = u32;

/// A join-point label (unique within one function).
pub type JoinId = u32;

/// A bindable value (the right-hand side of a `let`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Alias of another variable.
    Var(VarId),
    /// Machine-word integer literal.
    LitInt(i64),
    /// Arbitrary-precision integer literal (decimal digits).
    LitBig(String),
    /// String literal.
    LitStr(String),
    /// Data constructor application: `ctor_tag(args…)`.
    Ctor {
        /// Variant tag.
        tag: u32,
        /// Field values.
        args: Vec<VarId>,
    },
    /// Field projection `proj_idx(var)`.
    Proj {
        /// The constructor value.
        var: VarId,
        /// Field index.
        idx: u32,
    },
    /// Saturated call of a top-level function.
    Call {
        /// Function name.
        func: String,
        /// Arguments (exactly the function's arity).
        args: Vec<VarId>,
    },
    /// Partial application of a top-level function (closure creation).
    Pap {
        /// Function name.
        func: String,
        /// Captured arguments (fewer than the arity).
        args: Vec<VarId>,
    },
    /// Application of a closure value to further arguments.
    App {
        /// The closure.
        closure: VarId,
        /// Arguments to add.
        args: Vec<VarId>,
    },
}

impl Value {
    /// Variables this value mentions, with multiplicity.
    pub fn operands(&self) -> Vec<VarId> {
        match self {
            Value::Var(v) | Value::Proj { var: v, .. } => vec![*v],
            Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => vec![],
            Value::Ctor { args, .. } | Value::Call { args, .. } | Value::Pap { args, .. } => {
                args.clone()
            }
            Value::App { closure, args } => {
                let mut v = vec![*closure];
                v.extend(args);
                v
            }
        }
    }

    /// Whether the value uses `var` (no allocation, unlike
    /// [`Value::operands`]).
    pub fn mentions(&self, var: VarId) -> bool {
        match self {
            Value::Var(v) | Value::Proj { var: v, .. } => *v == var,
            Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => false,
            Value::Ctor { args, .. } | Value::Call { args, .. } | Value::Pap { args, .. } => {
                args.contains(&var)
            }
            Value::App { closure, args } => *closure == var || args.contains(&var),
        }
    }

    /// Whether evaluating the value has no observable effect (so an unused
    /// binding can be dropped). All λpure values qualify; `App` may invoke
    /// arbitrary user code, and calls may not terminate, so both are kept.
    pub fn is_droppable(&self) -> bool {
        !matches!(self, Value::Call { .. } | Value::App { .. })
    }
}

/// One arm of a `case`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alt {
    /// The constructor tag this arm matches.
    pub tag: u32,
    /// The arm's body.
    pub body: Expr,
}

/// A λpure / λrc expression ("function body" in LEAN's IR terminology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// `let var = val; body`.
    Let {
        /// The bound variable.
        var: VarId,
        /// The bound value.
        val: Value,
        /// Continuation.
        body: Box<Expr>,
    },
    /// Join-point declaration: `join label(params…) = jp_body; body`.
    ///
    /// Control enters `body`; `jump label(args…)` inside `body` transfers to
    /// `jp_body`. The jp body may reference only its `params`.
    LetJoin {
        /// Label.
        label: JoinId,
        /// Join-point parameters.
        params: Vec<VarId>,
        /// The join point's body (the "after-jump" code).
        jp_body: Box<Expr>,
        /// The scope in which the join point is visible ("pre-jump").
        body: Box<Expr>,
    },
    /// Pattern match on a constructor tag.
    Case {
        /// The value whose tag is inspected.
        scrutinee: VarId,
        /// Arms, in ascending tag order.
        alts: Vec<Alt>,
        /// Fallback when no arm matches.
        default: Option<Box<Expr>>,
    },
    /// Transfer to an enclosing join point.
    Jump {
        /// Target label.
        label: JoinId,
        /// Arguments for the join point's parameters.
        args: Vec<VarId>,
    },
    /// Return a variable from the function.
    Ret(VarId),
    /// λrc: increment `var`'s reference count `n` times, then `body`.
    Inc {
        /// Variable to retain.
        var: VarId,
        /// Retain count.
        n: u32,
        /// Continuation.
        body: Box<Expr>,
    },
    /// λrc: decrement `var`'s reference count, then `body`.
    Dec {
        /// Variable to release.
        var: VarId,
        /// Continuation.
        body: Box<Expr>,
    },
}

impl Expr {
    /// Free variables of the expression.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut BTreeSet::new(), &mut out);
        out
    }

    fn collect_free_vars(&self, bound: &mut BTreeSet<VarId>, out: &mut BTreeSet<VarId>) {
        let record = |v: VarId, bound: &BTreeSet<VarId>, out: &mut BTreeSet<VarId>| {
            if !bound.contains(&v) {
                out.insert(v);
            }
        };
        match self {
            Expr::Let { var, val, body } => {
                for v in val.operands() {
                    record(v, bound, out);
                }
                let newly = bound.insert(*var);
                body.collect_free_vars(bound, out);
                if newly {
                    bound.remove(var);
                }
            }
            Expr::LetJoin {
                params,
                jp_body,
                body,
                ..
            } => {
                let mut jp_bound = bound.clone();
                jp_bound.extend(params.iter().copied());
                jp_body.collect_free_vars(&mut jp_bound, out);
                body.collect_free_vars(bound, out);
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => {
                record(*scrutinee, bound, out);
                for alt in alts {
                    alt.body.collect_free_vars(bound, out);
                }
                if let Some(d) = default {
                    d.collect_free_vars(bound, out);
                }
            }
            Expr::Jump { args, .. } => {
                for &v in args {
                    record(v, bound, out);
                }
            }
            Expr::Ret(v) => record(*v, bound, out),
            Expr::Inc { var, body, .. } | Expr::Dec { var, body } => {
                record(*var, bound, out);
                body.collect_free_vars(bound, out);
            }
        }
    }

    /// Whether `var` occurs as a use anywhere in the expression: an operand,
    /// a scrutinee, a jump argument, or a returned or retained/released
    /// variable. Stops at the first occurrence and allocates nothing.
    ///
    /// Binders are not uses, so on a well-formed body, where no variable is
    /// bound twice (E0102), this is exactly `free_vars().contains(&var)`
    /// for a `var` bound outside it.
    pub fn mentions(&self, var: VarId) -> bool {
        let mut e = self;
        loop {
            match e {
                Expr::Let { val, body, .. } => {
                    if val.mentions(var) {
                        return true;
                    }
                    e = body;
                }
                Expr::LetJoin { jp_body, body, .. } => {
                    if jp_body.mentions(var) {
                        return true;
                    }
                    e = body;
                }
                Expr::Case {
                    scrutinee,
                    alts,
                    default,
                } => {
                    return *scrutinee == var
                        || alts.iter().any(|a| a.body.mentions(var))
                        || default.as_ref().is_some_and(|d| d.mentions(var));
                }
                Expr::Jump { args, .. } => return args.contains(&var),
                Expr::Ret(v) => return *v == var,
                Expr::Inc { var: v, body, .. } | Expr::Dec { var: v, body } => {
                    if *v == var {
                        return true;
                    }
                    e = body;
                }
            }
        }
    }

    /// Whether the expression contains any `inc`/`dec` (i.e. is λrc).
    pub fn has_rc_ops(&self) -> bool {
        match self {
            Expr::Inc { .. } | Expr::Dec { .. } => true,
            Expr::Let { body, .. } => body.has_rc_ops(),
            Expr::LetJoin { jp_body, body, .. } => body.has_rc_ops() || jp_body.has_rc_ops(),
            Expr::Case { alts, default, .. } => {
                alts.iter().any(|a| a.body.has_rc_ops())
                    || default.as_ref().map(|d| d.has_rc_ops()).unwrap_or(false)
            }
            Expr::Jump { .. } | Expr::Ret(_) => false,
        }
    }

    /// Number of AST nodes (size metric for tests and the simplifier).
    pub fn size(&self) -> usize {
        match self {
            Expr::Let { body, .. } => 1 + body.size(),
            Expr::LetJoin { jp_body, body, .. } => 1 + jp_body.size() + body.size(),
            Expr::Case { alts, default, .. } => {
                1 + alts.iter().map(|a| a.body.size()).sum::<usize>()
                    + default.as_ref().map(|d| d.size()).unwrap_or(0)
            }
            Expr::Jump { .. } | Expr::Ret(_) => 1,
            Expr::Inc { body, .. } | Expr::Dec { body, .. } => 1 + body.size(),
        }
    }

    /// Renames *free* occurrences of variables according to `map`.
    /// Binders are never renamed; a binder that shadows a map key disables
    /// the renaming in its scope.
    pub fn rename_free(&self, map: &std::collections::HashMap<VarId, VarId>) -> Expr {
        self.rename_rec(map, &mut BTreeSet::new())
    }

    fn rename_rec(
        &self,
        map: &std::collections::HashMap<VarId, VarId>,
        bound: &mut BTreeSet<VarId>,
    ) -> Expr {
        let r = |v: VarId, bound: &BTreeSet<VarId>| -> VarId {
            if bound.contains(&v) {
                v
            } else {
                map.get(&v).copied().unwrap_or(v)
            }
        };
        let rename_value = |val: &Value, bound: &BTreeSet<VarId>| -> Value {
            match val {
                Value::Var(v) => Value::Var(r(*v, bound)),
                Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => val.clone(),
                Value::Ctor { tag, args } => Value::Ctor {
                    tag: *tag,
                    args: args.iter().map(|&a| r(a, bound)).collect(),
                },
                Value::Proj { var, idx } => Value::Proj {
                    var: r(*var, bound),
                    idx: *idx,
                },
                Value::Call { func, args } => Value::Call {
                    func: func.clone(),
                    args: args.iter().map(|&a| r(a, bound)).collect(),
                },
                Value::Pap { func, args } => Value::Pap {
                    func: func.clone(),
                    args: args.iter().map(|&a| r(a, bound)).collect(),
                },
                Value::App { closure, args } => Value::App {
                    closure: r(*closure, bound),
                    args: args.iter().map(|&a| r(a, bound)).collect(),
                },
            }
        };
        match self {
            Expr::Let { var, val, body } => {
                let val = rename_value(val, bound);
                let newly = bound.insert(*var);
                let body = body.rename_rec(map, bound);
                if newly {
                    bound.remove(var);
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
                let mut jp_bound = bound.clone();
                jp_bound.extend(params.iter().copied());
                Expr::LetJoin {
                    label: *label,
                    params: params.clone(),
                    jp_body: Box::new(jp_body.rename_rec(map, &mut jp_bound)),
                    body: Box::new(body.rename_rec(map, bound)),
                }
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => Expr::Case {
                scrutinee: r(*scrutinee, bound),
                alts: alts
                    .iter()
                    .map(|a| Alt {
                        tag: a.tag,
                        body: a.body.rename_rec(map, bound),
                    })
                    .collect(),
                default: default.as_ref().map(|d| Box::new(d.rename_rec(map, bound))),
            },
            Expr::Jump { label, args } => Expr::Jump {
                label: *label,
                args: args.iter().map(|&a| r(a, bound)).collect(),
            },
            Expr::Ret(v) => Expr::Ret(r(*v, bound)),
            Expr::Inc { var, n, body } => Expr::Inc {
                var: r(*var, bound),
                n: *n,
                body: Box::new(body.rename_rec(map, bound)),
            },
            Expr::Dec { var, body } => Expr::Dec {
                var: r(*var, bound),
                body: Box::new(body.rename_rec(map, bound)),
            },
        }
    }

    /// Structural equality modulo binder names and join labels — used by
    /// `simpcase` to detect identical case branches.
    pub fn alpha_eq(&self, other: &Expr) -> bool {
        alpha_eq_rec(self, other, &mut AlphaCtx::default())
    }
}

/// Variable/label correspondence built up during alpha comparison.
#[derive(Default)]
struct AlphaCtx {
    vars: std::collections::HashMap<VarId, VarId>,
    joins: std::collections::HashMap<JoinId, JoinId>,
}

impl AlphaCtx {
    fn var_eq(&self, a: VarId, b: VarId) -> bool {
        match self.vars.get(&a) {
            Some(&mapped) => mapped == b,
            None => a == b,
        }
    }

    fn join_eq(&self, a: JoinId, b: JoinId) -> bool {
        match self.joins.get(&a) {
            Some(&mapped) => mapped == b,
            None => a == b,
        }
    }
}

fn value_alpha_eq(a: &Value, b: &Value, ctx: &AlphaCtx) -> bool {
    let veq = |x: &VarId, y: &VarId| ctx.var_eq(*x, *y);
    let args_eq = |xs: &[VarId], ys: &[VarId]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| veq(x, y))
    };
    match (a, b) {
        (Value::Var(x), Value::Var(y)) => veq(x, y),
        (Value::LitInt(x), Value::LitInt(y)) => x == y,
        (Value::LitBig(x), Value::LitBig(y)) => x == y,
        (Value::LitStr(x), Value::LitStr(y)) => x == y,
        (Value::Ctor { tag: t1, args: a1 }, Value::Ctor { tag: t2, args: a2 }) => {
            t1 == t2 && args_eq(a1, a2)
        }
        (Value::Proj { var: v1, idx: i1 }, Value::Proj { var: v2, idx: i2 }) => {
            veq(v1, v2) && i1 == i2
        }
        (Value::Call { func: f1, args: a1 }, Value::Call { func: f2, args: a2 })
        | (Value::Pap { func: f1, args: a1 }, Value::Pap { func: f2, args: a2 }) => {
            f1 == f2 && args_eq(a1, a2)
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
        ) => veq(c1, c2) && args_eq(a1, a2),
        _ => false,
    }
}

fn alpha_eq_rec(a: &Expr, b: &Expr, ctx: &mut AlphaCtx) -> bool {
    match (a, b) {
        (
            Expr::Let {
                var: v1,
                val: x1,
                body: b1,
            },
            Expr::Let {
                var: v2,
                val: x2,
                body: b2,
            },
        ) => {
            if !value_alpha_eq(x1, x2, ctx) {
                return false;
            }
            let prev = ctx.vars.insert(*v1, *v2);
            let out = alpha_eq_rec(b1, b2, ctx);
            match prev {
                Some(p) => {
                    ctx.vars.insert(*v1, p);
                }
                None => {
                    ctx.vars.remove(v1);
                }
            }
            out
        }
        (
            Expr::LetJoin {
                label: l1,
                params: p1,
                jp_body: j1,
                body: b1,
            },
            Expr::LetJoin {
                label: l2,
                params: p2,
                jp_body: j2,
                body: b2,
            },
        ) => {
            if p1.len() != p2.len() {
                return false;
            }
            let mut inner = AlphaCtx::default();
            for (&x, &y) in p1.iter().zip(p2) {
                inner.vars.insert(x, y);
            }
            inner.joins = ctx.joins.clone();
            if !alpha_eq_rec(j1, j2, &mut inner) {
                return false;
            }
            let prev = ctx.joins.insert(*l1, *l2);
            let out = alpha_eq_rec(b1, b2, ctx);
            match prev {
                Some(p) => {
                    ctx.joins.insert(*l1, p);
                }
                None => {
                    ctx.joins.remove(l1);
                }
            }
            out
        }
        (
            Expr::Case {
                scrutinee: s1,
                alts: a1,
                default: d1,
            },
            Expr::Case {
                scrutinee: s2,
                alts: a2,
                default: d2,
            },
        ) => {
            ctx.var_eq(*s1, *s2)
                && a1.len() == a2.len()
                && a1
                    .iter()
                    .zip(a2)
                    .all(|(x, y)| x.tag == y.tag && alpha_eq_rec(&x.body, &y.body, ctx))
                && match (d1, d2) {
                    (None, None) => true,
                    (Some(x), Some(y)) => alpha_eq_rec(x, y, ctx),
                    _ => false,
                }
        }
        (
            Expr::Jump {
                label: l1,
                args: a1,
            },
            Expr::Jump {
                label: l2,
                args: a2,
            },
        ) => {
            ctx.join_eq(*l1, *l2)
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| ctx.var_eq(*x, *y))
        }
        (Expr::Ret(x), Expr::Ret(y)) => ctx.var_eq(*x, *y),
        (
            Expr::Inc {
                var: v1,
                n: n1,
                body: b1,
            },
            Expr::Inc {
                var: v2,
                n: n2,
                body: b2,
            },
        ) => ctx.var_eq(*v1, *v2) && n1 == n2 && alpha_eq_rec(b1, b2, ctx),
        (Expr::Dec { var: v1, body: b1 }, Expr::Dec { var: v2, body: b2 }) => {
            ctx.var_eq(*v1, *v2) && alpha_eq_rec(b1, b2, ctx)
        }
        _ => false,
    }
}

/// A top-level function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's global name.
    pub name: String,
    /// Parameter variables.
    pub params: Vec<VarId>,
    /// The body.
    pub body: Expr,
    /// Exclusive upper bound on variable ids used in this function (for
    /// fresh-variable generation).
    pub next_var: VarId,
    /// Exclusive upper bound on join labels.
    pub next_join: JoinId,
}

impl FnDef {
    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> VarId {
        let v = self.next_var;
        self.next_var += 1;
        v
    }

    /// The function's arity.
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// A whole λpure/λrc program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// Functions, in definition order.
    pub fns: Vec<FnDef>,
}

impl Program {
    /// Looks up a function by name.
    pub fn fn_by_name(&self, name: &str) -> Option<&FnDef> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// Arity of a named function, if it exists.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.fn_by_name(name).map(|f| f.arity())
    }
}

// ---- pretty printing -------------------------------------------------------

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn vars(args: &[VarId]) -> String {
            args.iter()
                .map(|a| format!("x{a}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
        match self {
            Value::Var(v) => write!(f, "x{v}"),
            Value::LitInt(n) => write!(f, "{n}"),
            Value::LitBig(s) => write!(f, "big({s})"),
            Value::LitStr(s) => write!(f, "{s:?}"),
            Value::Ctor { tag, args } => write!(f, "ctor_{tag}({})", vars(args)),
            Value::Proj { var, idx } => write!(f, "proj_{idx}(x{var})"),
            Value::Call { func, args } => write!(f, "call @{func}({})", vars(args)),
            Value::Pap { func, args } => write!(f, "pap @{func}({})", vars(args)),
            Value::App { closure, args } => write!(f, "app x{closure}({})", vars(args)),
        }
    }
}

impl Expr {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Expr::Let { var, val, body } => {
                writeln!(f, "{pad}let x{var} = {val};")?;
                body.fmt_indented(f, indent)
            }
            Expr::LetJoin {
                label,
                params,
                jp_body,
                body,
            } => {
                let ps = params
                    .iter()
                    .map(|p| format!("x{p}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                writeln!(f, "{pad}join j{label}({ps}) =")?;
                jp_body.fmt_indented(f, indent + 1)?;
                writeln!(f, "{pad}in")?;
                body.fmt_indented(f, indent)
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => {
                writeln!(f, "{pad}case x{scrutinee} of")?;
                for alt in alts {
                    writeln!(f, "{pad}| {} =>", alt.tag)?;
                    alt.body.fmt_indented(f, indent + 1)?;
                }
                if let Some(d) = default {
                    writeln!(f, "{pad}| default =>")?;
                    d.fmt_indented(f, indent + 1)?;
                }
                Ok(())
            }
            Expr::Jump { label, args } => {
                let vs = args
                    .iter()
                    .map(|a| format!("x{a}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                writeln!(f, "{pad}jump j{label}({vs})")
            }
            Expr::Ret(v) => writeln!(f, "{pad}ret x{v}"),
            Expr::Inc { var, n, body } => {
                if *n == 1 {
                    writeln!(f, "{pad}inc x{var};")?;
                } else {
                    writeln!(f, "{pad}inc x{var} *{n};")?;
                }
                body.fmt_indented(f, indent)
            }
            Expr::Dec { var, body } => {
                writeln!(f, "{pad}dec x{var};")?;
                body.fmt_indented(f, indent)
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

impl fmt::Display for FnDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self
            .params
            .iter()
            .map(|p| format!("x{p}"))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(f, "def @{}({ps}) :=", self.name)?;
        self.body.fmt_indented(f, 1)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for func in &self.fns {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

/// Convenience constructors for building expressions in tests and lowerings.
pub mod build {
    use super::*;

    /// `let var = val; body`
    pub fn let_(var: VarId, val: Value, body: Expr) -> Expr {
        Expr::Let {
            var,
            val,
            body: Box::new(body),
        }
    }

    /// `ret v`
    pub fn ret(v: VarId) -> Expr {
        Expr::Ret(v)
    }

    /// `case scrutinee of alts | default`
    pub fn case(scrutinee: VarId, alts: Vec<(u32, Expr)>, default: Option<Expr>) -> Expr {
        Expr::Case {
            scrutinee,
            alts: alts
                .into_iter()
                .map(|(tag, body)| Alt { tag, body })
                .collect(),
            default: default.map(Box::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;

    fn sample() -> Expr {
        // let x1 = 5; case x0 of | 0 => ret x1 | default => ret x0
        let_(
            1,
            Value::LitInt(5),
            case(0, vec![(0, ret(1))], Some(ret(0))),
        )
    }

    #[test]
    fn free_vars_basic() {
        let e = sample();
        let fv = e.free_vars();
        assert!(fv.contains(&0));
        assert!(!fv.contains(&1), "let-bound variable is not free");
    }

    #[test]
    fn free_vars_join_points() {
        // join j0(x1) = ret x1 in jump j0(x0)
        let e = Expr::LetJoin {
            label: 0,
            params: vec![1],
            jp_body: Box::new(ret(1)),
            body: Box::new(Expr::Jump {
                label: 0,
                args: vec![0],
            }),
        };
        let fv = e.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn free_vars_value_operands() {
        let e = let_(
            2,
            Value::Ctor {
                tag: 1,
                args: vec![0, 1],
            },
            ret(2),
        );
        let fv = e.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn shadowing_not_a_concern_but_rebinding_handled() {
        // let x1 = x0; let x1 = x1; ret x1 — rebinding the same id.
        let e = let_(1, Value::Var(0), let_(1, Value::Var(1), ret(1)));
        let fv = e.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn mentions_is_free_occurrence_without_rebinding() {
        let e = let_(
            2,
            Value::Ctor {
                tag: 1,
                args: vec![0, 1],
            },
            case(2, vec![(0, ret(2))], Some(ret(3))),
        );
        for v in 0..5 {
            assert_eq!(e.mentions(v), e.free_vars().contains(&v) || v == 2, "x{v}");
        }
        let jp = Expr::LetJoin {
            label: 0,
            params: vec![1],
            jp_body: Box::new(ret(1)),
            body: Box::new(Expr::Jump {
                label: 0,
                args: vec![0],
            }),
        };
        assert!(jp.mentions(0));
        assert!(!jp.mentions(4));
    }

    #[test]
    fn has_rc_ops_detects() {
        let pure = sample();
        assert!(!pure.has_rc_ops());
        let rc = Expr::Inc {
            var: 0,
            n: 1,
            body: Box::new(pure),
        };
        assert!(rc.has_rc_ops());
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(sample().size(), 4);
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
            args: vec![]
        }
        .is_droppable());
        assert!(!Value::Call {
            func: "f".into(),
            args: vec![]
        }
        .is_droppable());
        assert!(!Value::App {
            closure: 0,
            args: vec![1]
        }
        .is_droppable());
    }

    #[test]
    fn fresh_var_increments() {
        let mut f = FnDef {
            name: "t".into(),
            params: vec![0],
            body: ret(0),
            next_var: 1,
            next_join: 0,
        };
        assert_eq!(f.fresh_var(), 1);
        assert_eq!(f.fresh_var(), 2);
        assert_eq!(f.arity(), 1);
    }
}
