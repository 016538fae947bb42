//! Lowering λrc to the `lp` dialect (§III of the paper).
//!
//! Each λrc function becomes an SSA function over `!lp.t` values whose body
//! is *structured*: blocks end in `lp.ret`, `lp.jump`, or the region-carrying
//! terminators `lp.switch` / `lp.joinpoint`. No `cf` dialect appears at this
//! level — all control flow is expressed through nested regions, which is
//! precisely what makes the `rgn` lowering (Figure 8) and its optimizations
//! applicable.
//!
//! Before lowering a function, one walk of its λ blocks counts the ops and
//! blocks it will become here and in the `rgn` and CFG lowerings, and the
//! body's arenas are reserved to that size;
//! each block's op list is reserved for the chain lowered into it. Call and
//! constructor operands go straight into the ops' inline lists, and the
//! variable and label tables are reused across the module's functions.

use lssa_ir::body::OperandList;
use lssa_ir::prelude::*;
use lssa_lambda::ast::{Arena, BlockId as LamBlock, FnDef, Name, Program, Stmt, Terminator, Value};
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
    let mut symbols = vec![Symbol(UNSET); program.names.len()];
    for f in &program.fns {
        let sym = module.intern(program.name(f));
        symbols[f.name.index()] = sym;
        if sym.index() >= arities.len() {
            arities.resize(sym.index() + 1, None);
        }
        arities[sym.index()].get_or_insert(f.arity());
    }
    let mut ctx = LowerCtx {
        module: &mut module,
        program,
        symbols,
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
            .add_function(program.name(f), Signature::obj(f.arity()), body);
    }
    module
}

/// Marks a variable or label with no value yet, or a name not yet interned.
const UNSET: u32 = u32::MAX;

struct LowerCtx<'a> {
    module: &'a mut Module,
    program: &'a Program,
    /// The module symbol of each program name, interned on first use.
    symbols: Vec<Symbol>,
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
        let (ops, blocks) = lowered_size(&f.arena, f.body);
        let (mut body, params) = Body::with_capacity(&Type::objs(f.arity()), ops, blocks);
        self.fname = self.program.name(f);
        for (&p, &v) in f.params().iter().zip(&params) {
            self.bind(p, v);
        }
        let entry = body.entry_block();
        self.lower_block(&mut body, entry, &f.arena, f.body);
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

    /// The module symbol of program name `n`.
    fn symbol(&mut self, n: Name) -> Symbol {
        let sym = &mut self.symbols[n.index()];
        if sym.0 == UNSET {
            *sym = self.module.intern(self.program.names.resolve(n));
        }
        *sym
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

    fn operands(&self, arena: &Arena, args: lssa_lambda::ast::Slice) -> OperandList {
        arena.vars(args).iter().map(|&a| self.get(a)).collect()
    }

    /// Lowers λ block `lb` into `block` (which must be unterminated);
    /// always leaves the block terminated.
    ///
    /// The statements are lowered in a loop; after a join point's
    /// declaration the rest of them go to the block the join point's
    /// scope starts, so a long run of bindings lowers without recursion.
    fn lower_block(&mut self, body: &mut Body, mut block: BlockId, arena: &Arena, lb: LamBlock) {
        let stmts = arena.stmts(lb);
        let term = arena.term(lb);
        body.blocks[block.index()]
            .ops
            .reserve_exact(block_len(stmts, term));
        for (k, s) in stmts.iter().enumerate() {
            match *s {
                Stmt::Let { var, ref val } => {
                    let v = self.lower_value(body, block, arena, val);
                    self.bind(var, v);
                }
                Stmt::Join {
                    label,
                    params,
                    body: jp_body,
                } => {
                    let sym = self.label_sym(label);
                    let (_op, jp_entry, body_entry) =
                        Builder::at_end(body, block).lp_joinpoint(sym, &Type::objs(params.len()));
                    // Join-point body: parameters map to the region's block
                    // args.
                    for (i, &p) in arena.vars(params).iter().enumerate() {
                        let arg = body.blocks[jp_entry.index()].args[i];
                        self.bind(p, arg);
                    }
                    self.lower_block(body, jp_entry, arena, jp_body);
                    // Pre-jump code: same environment as the outer scope.
                    block = body_entry;
                    body.blocks[block.index()]
                        .ops
                        .reserve_exact(block_len(&stmts[k + 1..], term));
                }
                Stmt::Inc { var, n } => {
                    let v = self.get(var);
                    let mut b = Builder::at_end(body, block);
                    for _ in 0..n {
                        b.lp_inc(v);
                    }
                }
                Stmt::Dec { var } => {
                    let v = self.get(var);
                    Builder::at_end(body, block).lp_dec(v);
                }
            }
        }
        match *term {
            Terminator::Case {
                scrutinee,
                alts,
                default,
            } => {
                let s = self.get(scrutinee);
                let tag = Builder::at_end(body, block).lp_getlabel(s);
                // lp.switch needs a default region: if the source case is
                // exhaustive without one, the last alternative serves as
                // the default (LEAN does the same).
                let mut arms = arena.alts(alts);
                let def = match default {
                    Some(d) => d,
                    None => arms.next_back().expect("case with no arms").body,
                };
                let cases: Box<[i64]> = arms.clone().map(|a| a.tag as i64).collect();
                let op = Builder::at_end(body, block).lp_switch(tag, cases);
                // The entry block of the op's `i`-th region; the
                // default region is last.
                let arm_entry = |body: &Body, i: usize| {
                    let r = body.ops[op.index()].regions[i];
                    body.regions[r.index()].blocks[0]
                };
                let n = arms.len();
                for (i, arm) in arms.enumerate() {
                    self.lower_block(body, arm_entry(body, i), arena, arm.body);
                }
                self.lower_block(body, arm_entry(body, n), arena, def);
            }
            Terminator::Jump { label, args } => {
                let sym = self.label_sym(label);
                let vals = self.operands(arena, args);
                Builder::at_end(body, block).lp_jump(sym, vals);
            }
            Terminator::Ret(v) => {
                let v = self.get(v);
                Builder::at_end(body, block).lp_ret(v);
            }
        }
    }

    fn lower_value(
        &mut self,
        body: &mut Body,
        block: BlockId,
        arena: &Arena,
        val: &Value,
    ) -> ValueId {
        match *val {
            Value::Var(v) => self.get(v),
            Value::LitInt(n) => Builder::at_end(body, block).lp_int(n),
            Value::LitBig(s) => Builder::at_end(body, block).lp_bigint(arena.text(s)),
            Value::LitStr(s) => Builder::at_end(body, block).lp_str(arena.text(s)),
            Value::Ctor { tag, args } => {
                let fields = self.operands(arena, args);
                Builder::at_end(body, block).lp_construct(tag as i64, fields)
            }
            Value::Proj { var, idx } => {
                let s = self.get(var);
                Builder::at_end(body, block).lp_project(s, idx as i64)
            }
            Value::Call { func, args } => {
                let callee = self.symbol(func);
                let vals = self.operands(arena, args);
                Builder::at_end(body, block).call(callee, vals, Type::Obj)
            }
            Value::Pap { func, args } => {
                let callee = self.symbol(func);
                let arity = self
                    .arities
                    .get(callee.index())
                    .copied()
                    .flatten()
                    .unwrap_or_else(|| {
                        panic!("pap of unknown @{}", self.program.names.resolve(func))
                    }) as i64;
                let vals = self.operands(arena, args);
                Builder::at_end(body, block).lp_pap(callee, arity, vals)
            }
            Value::App { closure, args } => {
                let c = self.get(closure);
                let vals = self.operands(arena, args);
                Builder::at_end(body, block).lp_papextend(c, vals)
            }
        }
    }
}

/// The ops and blocks lowering λ block `b` creates, here and in the `rgn`
/// and CFG lowerings after it, to reserve the arenas with: walked as
/// [`LowerCtx::lower_block`] walks, recursing only into join bodies and
/// case arms.
///
/// Per form: a `case` of `r` arms lowers to a `lp.getlabel` and a
/// `lp.switch`, then to `r` `rgn.val`s, at most three selector ops and a
/// `rgn.run`, then to a branch and a dispatch block with its terminator; a
/// join point to a `lp.joinpoint`, then a `rgn.val`; a jump to a `lp.jump`,
/// then a `rgn.run`, then a branch; a return to a `lp.ret`, then a
/// `func.return`.
fn lowered_size(arena: &Arena, b: LamBlock) -> (usize, usize) {
    let (mut ops, mut blocks) = (0, 0);
    for s in arena.stmts(b) {
        match *s {
            Stmt::Let { ref val, .. } => ops += usize::from(!matches!(val, Value::Var(_))),
            Stmt::Join { body, .. } => {
                let (o, b) = lowered_size(arena, body);
                ops += 2 + o;
                blocks += 2 + b;
            }
            Stmt::Inc { n, .. } => ops += n as usize,
            Stmt::Dec { .. } => ops += 1,
        }
    }
    let term = arena.term(b);
    match *term {
        Terminator::Case { alts, default, .. } => {
            let arms = alts.len() + usize::from(default.is_some());
            ops += arms + 8;
            blocks += arms + 1;
            for (o, b) in arena.successors(term).map(|arm| lowered_size(arena, arm)) {
                ops += o;
                blocks += b;
            }
            (ops, blocks)
        }
        Terminator::Jump { .. } => (ops + 3, blocks),
        Terminator::Ret(_) => (ops + 2, blocks),
    }
}

/// The ops lowering `stmts`, then `term`, appends to the block it starts
/// in: up to the first join point or the terminator.
fn block_len(stmts: &[Stmt], term: &Terminator) -> usize {
    let mut ops = 0;
    for s in stmts {
        match *s {
            Stmt::Let { ref val, .. } => ops += usize::from(!matches!(val, Value::Var(_))),
            Stmt::Inc { n, .. } => ops += n as usize,
            Stmt::Dec { .. } => ops += 1,
            Stmt::Join { .. } => return ops + 1,
        }
    }
    match term {
        Terminator::Jump { .. } | Terminator::Ret(_) => ops + 1,
        Terminator::Case { .. } => ops + 2,
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
        use lssa_lambda::ast::{BodyBuilder, Names};
        let mut names = Names::default();
        let mut b = BodyBuilder::default();
        let mut def = |name: &str, params: &[u32]| {
            let name = names.intern(name);
            b.open();
            let body = b.ret(0);
            b.finish(name, params, body, 1, 0)
        };
        let fns = vec![def("f", &[0]), def("g", &[])];
        lower_program(&Program {
            fns,
            names: std::sync::Arc::new(names),
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
