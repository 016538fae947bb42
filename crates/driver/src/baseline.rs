//! The baseline backend: a direct λrc → CFG lowering modelling LEAN4's
//! existing C backend (`leanc`).
//!
//! Where the MLIR backend goes λrc → lp → rgn → CFG with region reasoning in
//! between, this backend does what a C code generator does: `case` becomes a
//! `switch` statement (a `cf.switch` over blocks), join points become labels
//! (blocks), jumps become `goto` (`cf.br`). No SSA-level optimization runs —
//! the C backend delegates that to the downstream compiler — and tail calls
//! are only *heuristically* eliminated (self-recursion), matching the
//! paper's Figure 11 row.

use lssa_core::rgn::TcoPass;
use lssa_ir::body::OperandList;
use lssa_ir::pass::Pass;
use lssa_ir::prelude::*;
use lssa_lambda::ast::{Arena, BlockId as LamBlock, FnDef, Program, Stmt, Terminator, Value};
use std::collections::HashMap;

/// Lowers a λrc program directly to a flat-CFG module, C-backend style.
///
/// # Panics
///
/// Panics on malformed input (check with
/// [`lssa_lambda::wellformed::check_program`] first).
pub fn lower_program(program: &Program) -> Module {
    let mut module = Module::new();
    lssa_core::lp::declare_externs(&mut module);
    for f in &program.fns {
        module.intern(program.name(f));
    }
    for f in &program.fns {
        let body = lower_fn(&mut module, program, f);
        module.add_function(program.name(f), Signature::obj(f.arity()), body);
    }
    // Heuristic TCO: what a C compiler reliably gives you.
    TcoPass { only_self: true }.run_on(&mut module);
    module
}

struct Ctx<'a> {
    module: &'a mut Module,
    program: &'a Program,
    arena: &'a Arena,
    env: HashMap<u32, ValueId>,
    /// Join label → (block, its parameter values).
    joins: HashMap<u32, (BlockId, Vec<ValueId>)>,
}

fn lower_fn(module: &mut Module, program: &Program, f: &FnDef) -> Body {
    let (mut body, params) = Body::new(&vec![Type::Obj; f.arity()]);
    let mut ctx = Ctx {
        module,
        program,
        arena: &f.arena,
        env: HashMap::new(),
        joins: HashMap::new(),
    };
    for (&p, &v) in f.params().iter().zip(&params) {
        ctx.env.insert(p, v);
    }
    let entry = body.entry_block();
    ctx.lower_block(&mut body, entry, f.body);
    body
}

impl Ctx<'_> {
    fn get(&self, v: u32) -> ValueId {
        *self
            .env
            .get(&v)
            .unwrap_or_else(|| panic!("unbound λ variable x{v}"))
    }

    fn operands(&self, args: lssa_lambda::ast::Slice) -> OperandList {
        self.arena.vars(args).iter().map(|&a| self.get(a)).collect()
    }

    /// Lowers λ block `lb` into `block`, leaving it terminated: its
    /// statements in a loop, recursing only into join bodies and arms.
    fn lower_block(&mut self, body: &mut Body, block: BlockId, lb: LamBlock) {
        let arena = self.arena;
        for s in arena.stmts(lb) {
            match *s {
                Stmt::Let { var, ref val } => {
                    let v = self.lower_value(body, block, val);
                    self.env.insert(var, v);
                }
                Stmt::Join {
                    label,
                    params,
                    body: jp_body,
                } => {
                    // The join point is just a labelled block with arguments.
                    let jp_block = body.new_block(ROOT_REGION, &vec![Type::Obj; params.len()]);
                    let jp_args = body.blocks[jp_block.index()].args.clone();
                    self.joins.insert(label, (jp_block, jp_args.clone()));
                    // jp body sees only its params.
                    let saved = std::mem::take(&mut self.env);
                    for (&p, &v) in arena.vars(params).iter().zip(&jp_args) {
                        self.env.insert(p, v);
                    }
                    self.lower_block(body, jp_block, jp_body);
                    self.env = saved;
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
        match *arena.term(lb) {
            Terminator::Case {
                scrutinee,
                alts,
                default,
            } => {
                let alts = arena.alts(alts);
                let s = self.get(scrutinee);
                let tag8 = Builder::at_end(body, block).lp_getlabel(s);
                // One block per arm, plus a default block; C-style switch.
                let arm_blocks: Vec<BlockId> = alts
                    .clone()
                    .map(|_| body.new_block(ROOT_REGION, &[]))
                    .collect();
                let default_block = body.new_block(ROOT_REGION, &[]);
                let cases: Vec<i64> = alts.clone().map(|a| a.tag as i64).collect();
                Builder::at_end(body, block).switch_br(
                    tag8,
                    cases,
                    arm_blocks.iter().map(|&bl| (bl, [])),
                    (default_block, []),
                );
                for (alt, &bl) in alts.zip(&arm_blocks) {
                    let saved = self.env.clone();
                    self.lower_block(body, bl, alt.body);
                    self.env = saved;
                }
                match default {
                    Some(d) => {
                        let saved = self.env.clone();
                        self.lower_block(body, default_block, d);
                        self.env = saved;
                    }
                    None => {
                        Builder::at_end(body, default_block).unreachable();
                    }
                }
            }
            Terminator::Jump { label, args } => {
                let (jp_block, _) = *self
                    .joins
                    .get(&label)
                    .unwrap_or_else(|| panic!("jump to unknown join j{label}"));
                let vals: Vec<ValueId> = arena.vars(args).iter().map(|&a| self.get(a)).collect();
                Builder::at_end(body, block).br(jp_block, vals);
            }
            Terminator::Ret(v) => {
                let v = self.get(v);
                Builder::at_end(body, block).ret(v);
            }
        }
    }

    fn lower_value(&mut self, body: &mut Body, block: BlockId, val: &Value) -> ValueId {
        let arena = self.arena;
        match *val {
            Value::Var(v) => self.get(v),
            Value::LitInt(n) => Builder::at_end(body, block).lp_int(n),
            Value::LitBig(s) => Builder::at_end(body, block).lp_bigint(arena.text(s)),
            Value::LitStr(s) => Builder::at_end(body, block).lp_str(arena.text(s)),
            Value::Ctor { tag, args } => {
                let fields = self.operands(args);
                Builder::at_end(body, block).lp_construct(tag as i64, fields)
            }
            Value::Proj { var, idx } => {
                let s = self.get(var);
                Builder::at_end(body, block).lp_project(s, idx as i64)
            }
            Value::Call { func, args } => {
                let callee = self.module.intern(self.program.names.resolve(func));
                let vals = self.operands(args);
                Builder::at_end(body, block).call(callee, vals, Type::Obj)
            }
            Value::Pap { func, args } => {
                let name = self.program.names.resolve(func);
                let callee = self.module.intern(name);
                let arity = self
                    .program
                    .arity_of(name)
                    .unwrap_or_else(|| panic!("pap of unknown @{name}"))
                    as i64;
                let vals = self.operands(args);
                Builder::at_end(body, block).lp_pap(callee, arity, vals)
            }
            Value::App { closure, args } => {
                let c = self.get(closure);
                let vals = self.operands(args);
                Builder::at_end(body, block).lp_papextend(c, vals)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lssa_ir::opcode::Opcode;
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
                "baseline module does not verify:\n{}\n{}",
                msgs.join("\n"),
                lssa_ir::printer::print_module(&m)
            );
        }
        m
    }

    #[test]
    fn case_becomes_cf_switch() {
        let m = lower(
            r#"
inductive List := Nil | Cons(h, t)
def len(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + len(t)
  end
"#,
        );
        let f = m.func_by_name("len").unwrap();
        let body = f.body.as_ref().unwrap();
        let has_switch = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::SwitchBr);
        assert!(has_switch);
        // No rgn ops in the baseline path, ever.
        let has_rgn = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode.dialect() == "rgn");
        assert!(!has_rgn);
    }

    #[test]
    fn join_points_become_blocks() {
        let m = lower(
            r#"
def f(b, y) :=
  let x := case b of | true => 1 | false => 2 end;
  x + y
"#,
        );
        let f = m.func_by_name("f").unwrap();
        let body = f.body.as_ref().unwrap();
        // Several blocks, with at least one carrying arguments (the join).
        assert!(body.regions[0].blocks.len() >= 3);
        let has_arg_block = body.regions[0]
            .blocks
            .iter()
            .skip(1)
            .any(|&bl| !body.blocks[bl.index()].args.is_empty());
        assert!(has_arg_block);
    }

    #[test]
    fn self_tail_recursion_gets_heuristic_tco() {
        let m = lower(
            r#"
def loop(n, acc) := if n == 0 then acc else loop(n - 1, acc + n)
"#,
        );
        let f = m.func_by_name("loop").unwrap();
        let body = f.body.as_ref().unwrap();
        let has_tail = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::TailCall);
        assert!(has_tail);
    }

    #[test]
    fn compiles_to_bytecode() {
        let m = lower(
            r#"
inductive List := Nil | Cons(h, t)
def build(n) := if n == 0 then Nil else Cons(n, build(n - 1))
def sum(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => h + sum(t)
  end
def main() := sum(build(10))
"#,
        );
        let p = lssa_vm::compile_module(&m).unwrap();
        let out = lssa_vm::run_program(&p, "main", 1_000_000).unwrap();
        assert_eq!(out.rendered, "55");
        assert_eq!(out.stats.heap.live, 0, "RC must balance");
    }
}
