//! Lowering λrc to the `lp` dialect (§III of the paper).
//!
//! Each λrc function becomes an SSA function over `!lp.t` values whose body
//! is *structured*: blocks end in `lp.ret`, `lp.jump`, or the region-carrying
//! terminators `lp.switch` / `lp.joinpoint`. No `cf` dialect appears at this
//! level — all control flow is expressed through nested regions, which is
//! precisely what makes the `rgn` lowering (Figure 8) and its optimizations
//! applicable.
//!
//! Before lowering a function, one walk of its λ body counts the ops and
//! blocks it will become here and in the `rgn` and CFG lowerings, and the
//! body's arenas are reserved to that size;
//! each block's op list is reserved for the chain lowered into it. Call and
//! constructor operands go straight into the ops' inline lists, and the
//! variable and label tables are reused across the module's functions.

use lssa_ir::body::OperandList;
use lssa_ir::prelude::*;
use lssa_lambda::ast::{Expr, FnDef, Program, Value};
use lssa_rt::Builtin;
use std::fmt::Write as _;

/// Lowers a λrc program to an lp-dialect module.
///
/// # Panics
///
/// Panics on malformed input (run [`lssa_lambda::wellformed::check_program`]
/// first); the result verifies by construction.
pub fn lower_program(program: &Program) -> Module {
    let mut module = Module::new();
    module.reserve(Builtin::ALL.len() + program.fns.len());
    super::declare_externs(&mut module);
    // Pre-declare every function so calls can reference any order, and
    // record each one's arity by symbol for `pap` (the first definition of
    // a name wins, as a front-to-back lookup would).
    let mut arities: Vec<Option<usize>> = Vec::new();
    for f in &program.fns {
        let sym = module.intern(&f.name);
        if sym.index() >= arities.len() {
            arities.resize(sym.index() + 1, None);
        }
        arities[sym.index()].get_or_insert(f.arity());
    }
    let mut ctx = LowerCtx {
        module: &mut module,
        arities: &arities,
        fname: "",
        env: Vec::new(),
        labels: Vec::new(),
        set_vars: Vec::new(),
        set_labels: Vec::new(),
        label_text: String::new(),
    };
    for f in &program.fns {
        let body = ctx.lower_fn(f);
        ctx.module
            .add_function(&f.name, Signature::obj(f.arity()), body);
    }
    module
}

/// Marks a variable or label with no value yet.
const UNSET: u32 = u32::MAX;

struct LowerCtx<'a> {
    module: &'a mut Module,
    /// Arity per function symbol.
    arities: &'a [Option<usize>],
    fname: &'a str,
    /// The SSA value of each λ variable of the function being lowered. Its
    /// binders are unique (E0102), so one table serves every arm and join
    /// body.
    env: Vec<ValueId>,
    /// The symbol of each join label of the function, interned on first use.
    labels: Vec<Symbol>,
    /// The variables and labels the function set in `env` and `labels`, to
    /// unset when it is done.
    set_vars: Vec<u32>,
    set_labels: Vec<u32>,
    /// Scratch text for a label's symbol name.
    label_text: String,
}

impl<'a> LowerCtx<'a> {
    fn lower_fn(&mut self, f: &'a FnDef) -> Body {
        let (ops, blocks) = lowered_size(&f.body);
        let (mut body, params) = Body::with_capacity(&Type::objs(f.arity()), ops, blocks);
        self.fname = &f.name;
        for (&p, &v) in f.params.iter().zip(&params) {
            self.bind(p, v);
        }
        let entry = body.entry_block();
        self.lower_expr(&mut body, entry, &f.body);
        // Leave both tables empty for the next function, touching only the
        // entries this one set.
        for v in self.set_vars.drain(..) {
            self.env[v as usize] = ValueId(UNSET);
        }
        for l in self.set_labels.drain(..) {
            self.labels[l as usize] = Symbol(UNSET);
        }
        body
    }

    /// Unique label symbol for a join point of this function.
    fn label_sym(&mut self, label: u32) -> Symbol {
        let i = label as usize;
        if i >= self.labels.len() {
            self.labels.resize(i + 1, Symbol(UNSET));
        }
        if self.labels[i].0 == UNSET {
            self.label_text.clear();
            let _ = write!(self.label_text, "{}.jp{label}", self.fname);
            self.labels[i] = self.module.intern(&self.label_text);
            self.set_labels.push(label);
        }
        self.labels[i]
    }

    fn bind(&mut self, v: u32, value: ValueId) {
        let i = v as usize;
        if i >= self.env.len() {
            self.env.resize(i + 1, ValueId(UNSET));
        }
        self.env[i] = value;
        self.set_vars.push(v);
    }

    fn get(&self, v: u32) -> ValueId {
        match self.env.get(v as usize) {
            Some(&value) if value.0 != UNSET => value,
            _ => panic!("@{}: unbound λ variable x{v}", self.fname),
        }
    }

    /// Lowers `e` into `block` (which must be unterminated); always leaves
    /// the block terminated.
    ///
    /// A form's continuation (a `let` body, the code after a join point's
    /// declaration) is followed in a loop, so a long `let` chain lowers
    /// without recursion.
    fn lower_expr(&mut self, body: &mut Body, mut block: BlockId, mut e: &Expr) {
        body.blocks[block.index()].ops.reserve_exact(block_len(e));
        loop {
            match e {
                Expr::Let {
                    var,
                    val,
                    body: rest,
                } => {
                    let v = self.lower_value(body, block, val);
                    self.bind(*var, v);
                    e = rest;
                }
                Expr::LetJoin {
                    label,
                    params,
                    jp_body,
                    body: rest,
                } => {
                    let sym = self.label_sym(*label);
                    let (_op, jp_entry, body_entry) =
                        Builder::at_end(body, block).lp_joinpoint(sym, &Type::objs(params.len()));
                    // Join-point body: parameters map to the region's block
                    // args.
                    for (i, &p) in params.iter().enumerate() {
                        let arg = body.blocks[jp_entry.index()].args[i];
                        self.bind(p, arg);
                    }
                    self.lower_expr(body, jp_entry, jp_body);
                    // Pre-jump code: same environment as the outer scope.
                    block = body_entry;
                    e = rest;
                    body.blocks[block.index()].ops.reserve_exact(block_len(e));
                }
                Expr::Case {
                    scrutinee,
                    alts,
                    default,
                } => {
                    let s = self.get(*scrutinee);
                    let tag = Builder::at_end(body, block).lp_getlabel(s);
                    // lp.switch needs a default region: if the source case is
                    // exhaustive without one, the last alternative serves as
                    // the default (LEAN does the same).
                    let (arms, def) = match default {
                        Some(d) => (&alts[..], &**d),
                        None => {
                            let (last, init) = alts.split_last().expect("case with no arms");
                            (init, &last.body)
                        }
                    };
                    let cases: Box<[i64]> = arms.iter().map(|a| a.tag as i64).collect();
                    let op = Builder::at_end(body, block).lp_switch(tag, cases);
                    // The entry block of the op's `i`-th region; the
                    // default region is last.
                    let arm_entry = |body: &Body, i: usize| {
                        let r = body.ops[op.index()].regions[i];
                        body.regions[r.index()].blocks[0]
                    };
                    for (i, arm) in arms.iter().enumerate() {
                        self.lower_expr(body, arm_entry(body, i), &arm.body);
                    }
                    self.lower_expr(body, arm_entry(body, arms.len()), def);
                    return;
                }
                Expr::Jump { label, args } => {
                    let sym = self.label_sym(*label);
                    let vals: OperandList = args.iter().map(|&a| self.get(a)).collect();
                    Builder::at_end(body, block).lp_jump(sym, vals);
                    return;
                }
                Expr::Ret(v) => {
                    let v = self.get(*v);
                    Builder::at_end(body, block).lp_ret(v);
                    return;
                }
                Expr::Inc { var, n, body: rest } => {
                    let v = self.get(*var);
                    let mut b = Builder::at_end(body, block);
                    for _ in 0..*n {
                        b.lp_inc(v);
                    }
                    e = rest;
                }
                Expr::Dec { var, body: rest } => {
                    let v = self.get(*var);
                    Builder::at_end(body, block).lp_dec(v);
                    e = rest;
                }
            }
        }
    }

    fn lower_value(&mut self, body: &mut Body, block: BlockId, val: &Value) -> ValueId {
        let mut b = Builder::at_end(body, block);
        match val {
            Value::Var(v) => self.get(*v),
            Value::LitInt(n) => b.lp_int(*n),
            Value::LitBig(s) => b.lp_bigint(s),
            Value::LitStr(s) => b.lp_str(s),
            Value::Ctor { tag, args } => {
                let fields: OperandList = args.iter().map(|&a| self.get(a)).collect();
                b.lp_construct(*tag as i64, fields)
            }
            Value::Proj { var, idx } => {
                let s = self.get(*var);
                b.lp_project(s, *idx as i64)
            }
            Value::Call { func, args } => {
                let callee = self.module.intern(func);
                let vals: OperandList = args.iter().map(|&a| self.get(a)).collect();
                let mut b = Builder::at_end(body, block);
                b.call(callee, vals, Type::Obj)
            }
            Value::Pap { func, args } => {
                let callee = self.module.intern(func);
                let arity = self
                    .arities
                    .get(callee.index())
                    .copied()
                    .flatten()
                    .unwrap_or_else(|| panic!("pap of unknown @{func}"))
                    as i64;
                let vals: OperandList = args.iter().map(|&a| self.get(a)).collect();
                let mut b = Builder::at_end(body, block);
                b.lp_pap(callee, arity, vals)
            }
            Value::App { closure, args } => {
                let c = self.get(*closure);
                let vals: OperandList = args.iter().map(|&a| self.get(a)).collect();
                b.lp_papextend(c, vals)
            }
        }
    }
}

/// The ops and blocks lowering `e` creates, here and in the `rgn` and CFG
/// lowerings after it, to reserve the arenas with: walked as
/// [`LowerCtx::lower_expr`] walks, along continuations in a loop and
/// recursing only into join bodies and case arms.
///
/// Per form: a `case` of `r` arms lowers to a `lp.getlabel` and a
/// `lp.switch`, then to `r` `rgn.val`s, at most three selector ops and a
/// `rgn.run`, then to a branch and a dispatch block with its terminator; a
/// join point to a `lp.joinpoint`, then a `rgn.val`; a jump to a `lp.jump`,
/// then a `rgn.run`, then a branch; a return to a `lp.ret`, then a
/// `func.return`.
fn lowered_size(mut e: &Expr) -> (usize, usize) {
    let (mut ops, mut blocks) = (0, 0);
    loop {
        match e {
            Expr::Let { val, body, .. } => {
                ops += usize::from(!matches!(val, Value::Var(_)));
                e = body;
            }
            Expr::LetJoin { jp_body, body, .. } => {
                let (o, b) = lowered_size(jp_body);
                ops += 2 + o;
                blocks += 2 + b;
                e = body;
            }
            Expr::Case { alts, default, .. } => {
                let arms = alts.len() + usize::from(default.is_some());
                ops += arms + 8;
                blocks += arms + 1;
                for (o, b) in alts
                    .iter()
                    .map(|a| &a.body)
                    .chain(default.as_deref())
                    .map(lowered_size)
                {
                    ops += o;
                    blocks += b;
                }
                return (ops, blocks);
            }
            Expr::Jump { .. } => return (ops + 3, blocks),
            Expr::Ret(_) => return (ops + 2, blocks),
            Expr::Inc { n, body, .. } => {
                ops += *n as usize;
                e = body;
            }
            Expr::Dec { body, .. } => {
                ops += 1;
                e = body;
            }
        }
    }
}

/// The ops lowering `e` appends to the block it starts in: its chain up to
/// the first terminator or join point.
fn block_len(mut e: &Expr) -> usize {
    let mut ops = 0;
    loop {
        match e {
            Expr::Let { val, body, .. } => {
                ops += usize::from(!matches!(val, Value::Var(_)));
                e = body;
            }
            Expr::Inc { n, body, .. } => {
                ops += *n as usize;
                e = body;
            }
            Expr::Dec { body, .. } => {
                ops += 1;
                e = body;
            }
            Expr::LetJoin { .. } | Expr::Jump { .. } | Expr::Ret(_) => return ops + 1,
            Expr::Case { .. } => return ops + 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_ir::printer::print_module;
    use lssa_ir::verifier::verify_module;
    use lssa_lambda::{insert_rc, parse_program};

    /// The body's ops in walk order.
    fn walk(body: &lssa_ir::body::Body) -> Vec<lssa_ir::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn lower(src: &str) -> Module {
        let p = parse_program(src).unwrap();
        lssa_lambda::check_program(&p).unwrap();
        let rc = insert_rc(&p);
        let m = lower_program(&rc);
        if let Err(errs) = verify_module(&m) {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            panic!(
                "lowered module does not verify:\n{}\n{}",
                msgs.join("\n"),
                print_module(&m)
            );
        }
        m
    }

    #[test]
    fn figure6_singleton_and_length() {
        let m = lower(
            r#"
inductive List := Nil | Cons(i, l)
def singleton(n) := Cons(n, Nil)
def length(xs) :=
  case xs of
  | Nil => 0
  | Cons(n, l) => 1 + length(l)
  end
"#,
        );
        let text = print_module(&m);
        assert!(text.contains("lp.construct"), "{text}");
        assert!(text.contains("{tag = 1}"), "{text}");
        assert!(text.contains("lp.getlabel"), "{text}");
        assert!(text.contains("lp.switch"), "{text}");
        assert!(text.contains("lp.project"), "{text}");
        assert!(text.contains("@lean_nat_add"), "{text}");
    }

    #[test]
    fn figure4_int_usage_stages_dec_eq() {
        let m = lower(
            r#"
def intUsage(n) :=
  case n of
  | 42 => 43
  | _ => 99999999
  end
"#,
        );
        let text = print_module(&m);
        assert!(text.contains("@lean_nat_dec_eq"), "{text}");
        assert!(text.contains("lp.switch"), "{text}");
    }

    #[test]
    fn figure7_closures() {
        let m = lower(
            r#"
def k(x, y) := x
def k10() := k(10)
def ap42(f) := f(42)
"#,
        );
        let text = print_module(&m);
        assert!(text.contains("lp.pap"), "{text}");
        assert!(text.contains("{callee = @k, arity = 2}"), "{text}");
        assert!(text.contains("lp.papextend"), "{text}");
    }

    #[test]
    fn join_points_lowered_with_args() {
        let m = lower(
            r#"
def f(b, y) :=
  let x := case b of | true => 1 | false => 2 end;
  x + y
"#,
        );
        let text = print_module(&m);
        assert!(text.contains("lp.joinpoint"), "{text}");
        assert!(text.contains("lp.jump"), "{text}");
        assert!(text.contains("{label = @f.jp0}"), "{text}");
    }

    #[test]
    fn rc_ops_lowered() {
        let m = lower(
            r#"
inductive Pair := MkPair(a, b)
def dup(x) := MkPair(x, x)
"#,
        );
        let text = print_module(&m);
        assert!(text.contains("lp.inc"), "{text}");
    }

    #[test]
    fn exhaustive_case_uses_last_alt_as_default() {
        let m = lower(
            r#"
inductive AB := A | B
def f(x) := case x of | A => 1 | B => 2 end
"#,
        );
        let text = print_module(&m);
        // Two arms, no explicit default → one case value + default region.
        assert!(text.contains("{cases = [0]}"), "{text}");
    }

    #[test]
    #[should_panic(expected = "@g: unbound λ variable x0")]
    fn a_function_sees_no_binding_of_the_one_before() {
        use lssa_lambda::ast::{Expr, FnDef, Program};
        let def = |name: &str, params: Vec<u32>| FnDef {
            name: name.into(),
            params,
            body: Expr::Ret(0),
            next_var: 1,
            next_join: 0,
        };
        lower_program(&Program {
            fns: vec![def("f", vec![0]), def("g", vec![])],
        });
    }

    #[test]
    fn structured_bodies_have_no_cfg_ops() {
        let m = lower(
            r#"
inductive List := Nil | Cons(h, t)
def sum(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => h + sum(t)
  end
"#,
        );
        for f in &m.funcs {
            let Some(body) = &f.body else { continue };
            for op in walk(body) {
                let d = body.ops[op.index()].opcode.dialect();
                assert!(d != "cf" && d != "rgn", "unexpected {d} op at lp level");
            }
        }
    }
}
