//! A conservative inliner.
//!
//! Inlines `func.call` sites whose callee is a small, single-block,
//! region-free function ending in `func.return` — exactly the shape produced
//! after the `rgn`→CFG lowering for leaf functions. This mirrors MLIR's
//! builtin inliner in the role Figure 11 assigns it; the restriction keeps
//! the transformation obviously sound (no block splitting required).
//!
//! The snapshot of every inlinable callee lives in three arrays shared by
//! the module, and the cycle search, the body walk and the splice's value
//! map are buffers one run reuses, so a run allocates per module, not per
//! callee, op or call site.

use crate::body::{Body, OperandList};
use crate::hash::FxHashMap;
use crate::ids::{OpId, ValueId};
use crate::module::Module;
use crate::opcode::Opcode;
use crate::pass::Pass;
use crate::types::Type;

/// The inlining pass.
#[derive(Debug, Clone, Copy)]
pub struct InlinePass {
    /// Maximum callee size (live op count, excluding the return).
    pub max_callee_ops: usize,
}

impl Default for InlinePass {
    fn default() -> InlinePass {
        InlinePass { max_callee_ops: 24 }
    }
}

impl Pass for InlinePass {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        let mut changed = false;
        // Snapshot which callees are inlinable, then rewrite call sites.
        let mut snippets = Snippets::default();
        let mut known = Vec::new();
        let mut inlinable: Vec<Option<InlinableCallee>> = module
            .funcs
            .iter()
            .map(|f| snippets.extract(f.body.as_ref(), self.max_callee_ops, &mut known))
            .collect();
        // A callee that reaches itself through inlinable callees would be
        // spliced forever (each splice re-creates the call it replaced).
        // Such a straight-line function never returns normally, so
        // dropping it loses no inline a terminating program could use.
        let succs: Vec<Vec<usize>> = inlinable
            .iter()
            .map(|snippet| {
                let Some(snippet) = snippet else {
                    return Vec::new();
                };
                snippets
                    .ops(snippet)
                    .iter()
                    .filter(|data| data.opcode == Opcode::Call)
                    .filter_map(|data| data.attr(crate::attr::AttrKey::Callee)?.as_sym())
                    .filter_map(|callee| module.func_position(callee))
                    .filter(|&pos| inlinable[pos].is_some())
                    .collect()
            })
            .collect();
        for (snippet, cyclic) in inlinable.iter_mut().zip(on_cycle(&succs)) {
            if cyclic {
                *snippet = None;
            }
        }
        let mut walk = Vec::new();
        let mut map = FxHashMap::default();
        for i in 0..module.funcs.len() {
            let Some(mut body) = module.funcs[i].body.take() else {
                continue;
            };
            let caller = module.funcs[i].name;
            loop {
                let mut did = false;
                body.walk_ops(&mut walk);
                for &op in &walk {
                    if body.ops[op.index()].dead || body.ops[op.index()].opcode != Opcode::Call {
                        continue;
                    }
                    let Some(callee) = body.ops[op.index()]
                        .attr(crate::attr::AttrKey::Callee)
                        .and_then(|a| a.as_sym())
                    else {
                        continue;
                    };
                    if callee == caller {
                        continue; // no self-inlining
                    }
                    let Some(pos) = module.func_position(callee) else {
                        continue;
                    };
                    let Some(snippet) = &inlinable[pos] else {
                        continue;
                    };
                    if !snippets.inline_at(&mut body, op, snippet, &mut map) {
                        continue; // malformed call site (arity/result shape)
                    }
                    did = true;
                    changed = true;
                    break; // op list changed; re-walk
                }
                if !did {
                    break;
                }
            }
            module.funcs[i].body = Some(body);
        }
        changed
    }
}

/// A callee captured in an inlinable form: its place in [`Snippets`].
///
/// The snapshot is self-contained: op data plus the result *types* of every
/// op, captured at extraction time, so splicing never needs the callee's
/// `Body` (which used to be cloned wholesale just for `value_type` lookups).
#[derive(Debug, Clone, Copy)]
struct InlinableCallee {
    /// The callee's parameters: `Snippets::params[params.0..params.1]`.
    params: (u32, u32),
    /// Its ops in order, excluding the terminator: `Snippets::ops[ops.0..ops.1]`.
    ops: (u32, u32),
    /// Where the result types of its first op start in
    /// `Snippets::result_tys`; the ops' types follow one another.
    result_tys: u32,
    /// The callee value returned by the terminator.
    returned: ValueId,
}

/// Every inlinable callee of a module, in three shared arrays, so that
/// snapshotting a module costs a few allocations rather than a few per
/// callee and op.
#[derive(Debug, Default)]
struct Snippets {
    params: Vec<ValueId>,
    ops: Vec<crate::body::OpData>,
    result_tys: Vec<Type>,
}

impl Snippets {
    /// Captures `body` if it is inlinable. `known` is a per-value scratch
    /// table, all `false` between calls.
    fn extract(
        &mut self,
        body: Option<&Body>,
        max_ops: usize,
        known: &mut Vec<bool>,
    ) -> Option<InlinableCallee> {
        let body = body?;
        let root = &body.regions[crate::body::ROOT_REGION.index()];
        if root.blocks.len() != 1 {
            return None;
        }
        let entry = root.blocks[0];
        let ops = &body.blocks[entry.index()].ops;
        if ops.is_empty() || ops.len() > max_ops + 1 {
            return None;
        }
        let term = *ops.last().unwrap();
        if body.ops[term.index()].opcode != Opcode::Return {
            return None;
        }
        // A void return has no value to substitute for the call's result —
        // bail rather than index into an empty operand list.
        let returned = *body.ops[term.index()].operands.first()?;
        // Every value the snippet mentions must be a parameter or a result
        // of an earlier snippet op; anything else (a use of a detached or
        // malformed value) would be unmappable at the call site.
        let body_ops = &ops[..ops.len() - 1];
        if known.len() < body.values.len() {
            known.resize(body.values.len(), false);
        }
        let mark = |known: &mut [bool], vs: &[ValueId], on: bool| {
            for &v in vs {
                known[v.index()] = on;
            }
        };
        mark(known, body.params(), true);
        let mut ok = true;
        for &op in body_ops {
            let data = &body.ops[op.index()];
            if !data.regions.is_empty()
                || !data.successors.is_empty()
                || !data.operands.iter().all(|v| known[v.index()])
            {
                ok = false;
                break;
            }
            mark(known, &data.results, true);
        }
        ok &= known[returned.index()];
        // Leave the table all `false` for the next body.
        mark(known, body.params(), false);
        for &op in body_ops {
            mark(known, &body.ops[op.index()].results, false);
        }
        if !ok {
            return None;
        }
        let callee = InlinableCallee {
            params: self.span_params(body.params()),
            ops: (
                self.ops.len() as u32,
                (self.ops.len() + body_ops.len()) as u32,
            ),
            result_tys: self.result_tys.len() as u32,
            returned,
        };
        for &op in body_ops {
            let data = &body.ops[op.index()];
            self.result_tys
                .extend(data.results.iter().map(|&r| body.value_type(r)));
            self.ops.push(data.clone());
        }
        Some(callee)
    }

    fn span_params(&mut self, params: &[ValueId]) -> (u32, u32) {
        let start = self.params.len() as u32;
        self.params.extend_from_slice(params);
        (start, self.params.len() as u32)
    }

    /// The ops of `snippet`, excluding its terminator.
    fn ops(&self, snippet: &InlinableCallee) -> &[crate::body::OpData] {
        &self.ops[snippet.ops.0 as usize..snippet.ops.1 as usize]
    }

    /// Splices `snippet` in place of `call`. Returns `false` — leaving the
    /// body untouched — when the call site does not match the snapshot's
    /// shape: an argument count different from the callee's parameter
    /// count (zipping would silently mis-map values) or a call without
    /// exactly one result (there would be nothing to substitute the
    /// returned value for). `map` is scratch, reused across splices.
    fn inline_at(
        &self,
        body: &mut Body,
        call: OpId,
        snippet: &InlinableCallee,
        map: &mut FxHashMap<ValueId, ValueId>,
    ) -> bool {
        let params = &self.params[snippet.params.0 as usize..snippet.params.1 as usize];
        let args = body.ops[call.index()].operands.clone();
        if args.len() != params.len() {
            return false;
        }
        let Some(call_result) = body.ops[call.index()].result() else {
            return false;
        };
        map.clear();
        for (&p, &a) in params.iter().zip(&args) {
            map.insert(p, a);
        }
        let mut tys = snippet.result_tys as usize;
        for data in self.ops(snippet) {
            let operands: OperandList = data
                .operands
                .iter()
                .map(|v| *map.get(v).expect("extract() checked every operand"))
                .collect();
            let result_tys = &self.result_tys[tys..tys + data.results.len()];
            tys += data.results.len();
            let new_op = body.create_op(data.opcode, operands, result_tys, data.attrs.clone());
            body.insert_op_before(call, new_op);
            for (i, &old_r) in data.results.iter().enumerate() {
                map.insert(old_r, body.ops[new_op.index()].results[i]);
            }
        }
        let returned = *map
            .get(&snippet.returned)
            .expect("extract() checked the returned value");
        body.replace_all_uses(call_result, returned);
        body.erase_op(call);
        true
    }
}

/// Which nodes of the graph `succs` lie on a cycle (a strongly connected
/// component with more than one node, or a self-loop): one iterative
/// Tarjan walk, so deep call chains cannot overflow the stack.
fn on_cycle(succs: &[Vec<usize>]) -> Vec<bool> {
    let n = succs.len();
    let mut index: Vec<Option<usize>> = vec![None; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut component = Vec::new();
    let mut cyclic = vec![false; n];
    let mut next = 0;
    let mut dfs = Vec::new();
    for root in 0..n {
        if index[root].is_some() {
            continue;
        }
        dfs.push((root, 0));
        index[root] = Some(next);
        low[root] = next;
        next += 1;
        component.push(root);
        on_stack[root] = true;
        while let Some(&(v, edge)) = dfs.last() {
            if let Some(&w) = succs[v].get(edge) {
                dfs.last_mut().expect("non-empty").1 += 1;
                match index[w] {
                    None => {
                        index[w] = Some(next);
                        low[w] = next;
                        next += 1;
                        component.push(w);
                        on_stack[w] = true;
                        dfs.push((w, 0));
                    }
                    Some(iw) if on_stack[w] => low[v] = low[v].min(iw),
                    Some(_) => {}
                }
                continue;
            }
            dfs.pop();
            if let Some(&(parent, _)) = dfs.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if index[v] == Some(low[v]) {
                let start = component
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("a component root is on the stack");
                let is_cycle = component.len() - start > 1 || succs[v].contains(&v);
                for w in component.drain(start..) {
                    on_stack[w] = false;
                    cyclic[w] = is_cycle;
                }
            }
        }
    }
    cyclic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::ids::Symbol;
    use crate::types::{Signature, Type};

    /// The body's ops in walk order.
    fn walk(body: &crate::body::Body) -> Vec<crate::ids::OpId> {
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        ops
    }

    fn make_square(m: &mut Module) -> Symbol {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let s = b.muli(params[0], params[0]);
        b.ret(s);
        m.add_function("square", Signature::new(vec![Type::I64], Type::I64), body)
    }

    #[test]
    fn small_leaf_is_inlined() {
        let mut m = Module::new();
        let square = make_square(&mut m);
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(square, vec![params[0]], Type::I64);
        let one = b.const_i(1, Type::I64);
        let s = b.addi(r, one);
        b.ret(s);
        m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);

        assert!(InlinePass::default().run_on(&mut m));
        crate::verifier::verify_module(&m).unwrap();
        let body = m.func_by_name("f").unwrap().body.as_ref().unwrap();
        let has_call = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::Call);
        assert!(!has_call, "call must be inlined");
        let has_mul = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::MulI);
        assert!(has_mul, "callee body must be spliced in");
    }

    #[test]
    fn recursive_call_not_inlined() {
        let mut m = Module::new();
        // f calls itself — must not inline, neither into itself nor into
        // its caller (each splice would re-create the call it replaced).
        let name = m.intern("selfrec");
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(name, vec![params[0]], Type::I64);
        b.ret(r);
        m.add_function("selfrec", Signature::new(vec![Type::I64], Type::I64), body);
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(name, vec![params[0]], Type::I64);
        b.ret(r);
        m.add_function("main", Signature::new(vec![Type::I64], Type::I64), body);
        assert!(!InlinePass::default().run_on(&mut m));
    }

    /// `name(x) = callee(x + 1)`: single-block, so inlinable by shape.
    fn forward_to(m: &mut Module, name: &str, callee: &str) -> Symbol {
        let callee = m.intern(callee);
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let one = b.const_i(1, Type::I64);
        let next = b.addi(params[0], one);
        let r = b.call(callee, vec![next], Type::I64);
        b.ret(r);
        m.add_function(name, Signature::new(vec![Type::I64], Type::I64), body)
    }

    #[test]
    fn callee_that_only_calls_into_a_cycle_stays_inlinable() {
        // h(x) = spin(x + 1) reaches the cycle but is not on it.
        let mut m = Module::new();
        forward_to(&mut m, "spin", "spin");
        let h = forward_to(&mut m, "h", "spin");
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(h, vec![params[0]], Type::I64);
        b.ret(r);
        m.add_function("main", Signature::new(vec![Type::I64], Type::I64), body);
        assert!(InlinePass::default().run_on(&mut m));
        crate::verifier::verify_module(&m).unwrap();
        let spin = m.intern("spin");
        let body = m.func_by_name("main").unwrap().body.as_ref().unwrap();
        let callees: Vec<Symbol> = walk(body)
            .iter()
            .filter_map(|&op| body.ops[op.index()].attr(crate::attr::AttrKey::Callee))
            .filter_map(|a| a.as_sym())
            .collect();
        assert_eq!(callees, vec![spin], "h spliced, spin kept as a call");
    }

    #[test]
    fn on_cycle_finds_every_member_of_a_component() {
        // 0 ⇄ 1 and 0 → 2 → 1 form one component; 3 → 0 only reaches it;
        // 4 loops on itself; 5 is isolated.
        let succs = vec![vec![1, 2], vec![0], vec![1], vec![0], vec![4], vec![]];
        assert_eq!(on_cycle(&succs), vec![true, true, true, false, true, false]);
    }

    #[test]
    fn large_callee_not_inlined() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let mut acc = params[0];
        for _ in 0..40 {
            acc = b.addi(acc, params[0]);
        }
        b.ret(acc);
        let big = m.add_function("big", Signature::new(vec![Type::I64], Type::I64), body);

        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(big, vec![params[0]], Type::I64);
        b.ret(r);
        m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);

        assert!(!InlinePass::default().run_on(&mut m));
    }

    #[test]
    fn extern_callee_not_inlined() {
        let mut m = Module::new();
        let ext = m.declare_extern("rt_fn", Signature::new(vec![Type::I64], Type::I64));
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(ext, vec![params[0]], Type::I64);
        b.ret(r);
        m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);
        assert!(!InlinePass::default().run_on(&mut m));
    }

    #[test]
    fn zero_result_call_bails_instead_of_panicking() {
        use crate::attr::{Attr, AttrKey};
        let mut m = Module::new();
        let square = make_square(&mut m);
        // A call op with no results — nothing the returned value could
        // replace. The pass must skip it, not panic in result().unwrap().
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let call = body.create_op(
            Opcode::Call,
            vec![params[0]],
            &[],
            vec![(AttrKey::Callee, Attr::Sym(square))],
        );
        body.push_op(entry, call);
        let mut b = Builder::at_end(&mut body, entry);
        b.ret(params[0]);
        m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);

        assert!(!InlinePass::default().run_on(&mut m));
        let body = m.func_by_name("f").unwrap().body.as_ref().unwrap();
        let has_call = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::Call);
        assert!(has_call, "the malformed call site must be left alone");
    }

    #[test]
    fn void_return_callee_bails_instead_of_panicking() {
        let mut m = Module::new();
        // A callee whose terminator returns no value — there is nothing to
        // substitute for the call result, so extract() must reject it.
        let (mut body, _params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let ret = body.create_op(Opcode::Return, vec![], &[], vec![]);
        body.push_op(entry, ret);
        let void = m.add_function("void", Signature::new(vec![Type::I64], Type::I64), body);

        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(void, vec![params[0]], Type::I64);
        b.ret(r);
        m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);

        assert!(!InlinePass::default().run_on(&mut m));
    }

    #[test]
    fn arity_mismatch_call_bails_instead_of_mismapping() {
        use crate::attr::{Attr, AttrKey};
        let mut m = Module::new();
        let square = make_square(&mut m);
        // square takes one parameter; call it with two arguments. Zipping
        // params against args used to silently drop the extra argument.
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let call = body.create_op(
            Opcode::Call,
            vec![params[0], params[0]],
            &[Type::I64],
            vec![(AttrKey::Callee, Attr::Sym(square))],
        );
        body.push_op(entry, call);
        let result = body.ops[call.index()].result().unwrap();
        let mut b = Builder::at_end(&mut body, entry);
        b.ret(result);
        m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);

        assert!(!InlinePass::default().run_on(&mut m));
        let body = m.func_by_name("f").unwrap().body.as_ref().unwrap();
        let has_call = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::Call);
        assert!(has_call, "the mis-arity call site must be left alone");
    }

    #[test]
    fn transitive_chain_inlines_fully() {
        let mut m = Module::new();
        let square = make_square(&mut m);
        // g(x) = square(x) + 1, f(x) = g(x) — f should end up call-free
        // (inliner fixpoints per function but callee snapshots are pre-pass,
        // so run the pass twice).
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(square, vec![params[0]], Type::I64);
        let one = b.const_i(1, Type::I64);
        let s = b.addi(r, one);
        b.ret(s);
        let g = m.add_function("g", Signature::new(vec![Type::I64], Type::I64), body);

        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(g, vec![params[0]], Type::I64);
        b.ret(r);
        m.add_function("f", Signature::new(vec![Type::I64], Type::I64), body);

        InlinePass::default().run_on(&mut m);
        InlinePass::default().run_on(&mut m);
        crate::verifier::verify_module(&m).unwrap();
        let body = m.func_by_name("f").unwrap().body.as_ref().unwrap();
        let has_call = walk(body)
            .iter()
            .any(|&op| body.ops[op.index()].opcode == Opcode::Call);
        assert!(!has_call);
    }
}
