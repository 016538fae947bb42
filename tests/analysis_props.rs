//! Property-based validation of the `lssa-ir` analyses against oracles
//! that share none of their machinery.
//!
//! - Liveness: the worklist-solver liveness must agree with a naive
//!   per-value backward reachability scan that never touches the generic
//!   dataflow machinery, on live-in and live-out at every reachable block
//!   of every compiled function body of a generated program (full
//!   pipeline, flat CFG). A value is live-in at block `b` iff `b` uses it
//!   without defining it, or some successor is live-in and `b` does not
//!   define it — computed one value at a time by plain backward BFS over
//!   the block graph. SSA's single-definition property is what makes the
//!   block-level formulation exact (a same-block use can never precede
//!   the definition).
//! - Dominance: [`DomTree`] must match the definition — `a` dominates a
//!   reachable `b` iff `b` becomes unreachable from the entry once `a` is
//!   removed — on random multi-region CFGs and on every region of compiled
//!   programs at the `rgn` and CFG levels.
//! - Dead-op erasure: the worklist [`erase_trivially_dead`] must erase
//!   exactly the ops the recount-until-stable loop it replaced erases (kept
//!   here, and only here, as the oracle).

use lambda_ssa::driver::conformance::generated;
use lambda_ssa::ir::analysis::{BlockGraph, Liveness};
use lambda_ssa::ir::body::{Body, ROOT_REGION};
use lambda_ssa::ir::builder::Builder;
use lambda_ssa::ir::dom::DomTree;
use lambda_ssa::ir::ids::{BlockId, RegionId, ValueId};
use lambda_ssa::ir::module::Module;
use lambda_ssa::ir::opcode::Purity;
use lambda_ssa::ir::rewrite::erase_trivially_dead;
use lambda_ssa::ir::types::Type;
use lambda_ssa::ir::{FxHashMap as HashMap, FxHashSet as HashSet};
use lambda_ssa::lambda::{insert_rc, parse_program};
use lssa_core::pipeline::{compile, PipelineOptions};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Per-block use/def sets matching the liveness transfer's view: operands
/// and successor arguments are uses; op results and block arguments are
/// defs.
fn block_uses_defs(body: &Body, b: BlockId) -> (HashSet<ValueId>, HashSet<ValueId>) {
    let mut uses = HashSet::default();
    let mut defs: HashSet<ValueId> = body.blocks[b.index()].args.iter().copied().collect();
    for &op in &body.blocks[b.index()].ops {
        let data = &body.ops[op.index()];
        uses.extend(data.operands.iter().copied());
        for s in &data.successors {
            uses.extend(s.args.iter().copied());
        }
        defs.extend(data.results.iter().copied());
    }
    (uses, defs)
}

/// The oracle: per-value backward BFS. Returns (live_in, live_out) maps
/// over the reachable blocks.
fn naive_liveness(
    body: &Body,
    graph: &BlockGraph,
) -> (
    HashMap<BlockId, HashSet<ValueId>>,
    HashMap<BlockId, HashSet<ValueId>>,
) {
    let blocks: Vec<BlockId> = graph.rpo().to_vec();
    let sets: HashMap<BlockId, (HashSet<ValueId>, HashSet<ValueId>)> = blocks
        .iter()
        .map(|&b| (b, block_uses_defs(body, b)))
        .collect();
    let mut live_in: HashMap<BlockId, HashSet<ValueId>> =
        blocks.iter().map(|&b| (b, HashSet::default())).collect();
    let mut live_out = live_in.clone();
    let every_value: HashSet<ValueId> = sets
        .values()
        .flat_map(|(u, d)| u.iter().chain(d.iter()).copied())
        .collect();
    for v in every_value {
        // Seed: blocks that use v without defining it are live-in for v.
        let mut in_set: HashSet<BlockId> = HashSet::default();
        let mut queue: VecDeque<BlockId> = VecDeque::new();
        for &b in &blocks {
            let (uses, defs) = &sets[&b];
            if uses.contains(&v) && !defs.contains(&v) && in_set.insert(b) {
                queue.push_back(b);
            }
        }
        // Propagate: a live-in successor makes each predecessor live-out,
        // and live-in too unless the predecessor defines v.
        let mut out_set: HashSet<BlockId> = HashSet::default();
        while let Some(b) = queue.pop_front() {
            for &p in graph.preds(b) {
                out_set.insert(p);
                if !sets[&p].1.contains(&v) && in_set.insert(p) {
                    queue.push_back(p);
                }
            }
        }
        for b in in_set {
            live_in.get_mut(&b).expect("reachable").insert(v);
        }
        for b in out_set {
            live_out.get_mut(&b).expect("reachable").insert(v);
        }
    }
    (live_in, live_out)
}

fn check_function(body: &Body) -> Result<(), TestCaseError> {
    let graph = BlockGraph::root(body);
    let liveness = Liveness::compute(body, &graph);
    let (naive_in, naive_out) = naive_liveness(body, &graph);
    for &b in graph.rpo() {
        let solver_in = liveness.live_in(b).expect("reachable block has facts");
        let solver_out = liveness.live_out(b).expect("reachable block has facts");
        prop_assert_eq!(solver_in, &naive_in[&b], "live-in mismatch at {:?}", b);
        prop_assert_eq!(solver_out, &naive_out[&b], "live-out mismatch at {:?}", b);
    }
    Ok(())
}

// ---- dominance ----------------------------------------------------------

/// Blocks of `region` reachable from its entry without passing through
/// `removed` (removing the entry reaches nothing).
fn reachable_without(body: &Body, region: RegionId, removed: Option<BlockId>) -> HashSet<BlockId> {
    let entry = body.regions[region.index()].blocks[0];
    let mut seen = HashSet::default();
    if removed == Some(entry) {
        return seen;
    }
    let mut stack = vec![entry];
    seen.insert(entry);
    while let Some(b) = stack.pop() {
        let Some(t) = body.terminator(b) else {
            continue;
        };
        for s in &body.ops[t.index()].successors {
            if Some(s.block) != removed && seen.insert(s.block) {
                stack.push(s.block);
            }
        }
    }
    seen
}

/// Checks every ordered block pair of every region with blocks against
/// the definition of dominance.
fn check_dominance(body: &Body) -> Result<(), TestCaseError> {
    for (ri, r) in body.regions.iter().enumerate() {
        if r.blocks.is_empty() {
            continue;
        }
        let region = RegionId(ri as u32);
        let tree = DomTree::compute(body, region);
        let reachable = reachable_without(body, region, None);
        for &b in &r.blocks {
            prop_assert_eq!(tree.is_reachable(b), reachable.contains(&b), "{:?}", b);
        }
        for &a in &r.blocks {
            let without_a = reachable_without(body, region, Some(a));
            for &b in &r.blocks {
                // Unreachable blocks are dominated by everything.
                let expected = !reachable.contains(&b) || !without_a.contains(&b);
                prop_assert_eq!(
                    tree.dominates(a, b),
                    expected,
                    "{:?} dom {:?} in {:?}",
                    a,
                    b,
                    region
                );
            }
        }
    }
    Ok(())
}

/// A random two-region CFG. `shape[i] = (region, kind, x, y)` adds block
/// `i` to the root region or to a region nested in the entry block (so the
/// two regions' block ids interleave) and picks its terminator: an exit, a
/// branch to `x`, a conditional branch to `x`/`y`, or a switch to `x`/`y`/
/// the next block. Targets lie 1–4 blocks ahead in the block's own region,
/// wrapping around at its end, so diamonds and joins are common and the
/// wrap-around edges make loops.
fn random_cfg(shape: &[(u8, u8, u8, u8)]) -> Body {
    let (mut body, params) = Body::new(&[Type::I1, Type::I64]);
    let entry = body.entry_block();
    let (_, nested_entry) = Builder::at_end(&mut body, entry).rgn_val(&[]);
    let nested = body.block_region(nested_entry);
    let mut blocks = [vec![entry], vec![nested_entry]];
    for &(region, ..) in &shape[2..] {
        let which = usize::from(region % 2);
        let r = if which == 0 { ROOT_REGION } else { nested };
        blocks[which].push(body.new_block(r, &[]));
    }
    let mut next = [0usize; 2];
    for (i, &(region, kind, x, y)) in shape.iter().enumerate() {
        let which = if i < 2 { i } else { usize::from(region % 2) };
        let own = &blocks[which];
        let here = next[which];
        next[which] += 1;
        let block = own[here];
        let pick = |k: u8| own[(here + 1 + usize::from(k % 4)) % own.len()];
        let (tx, ty, tz) = (pick(x), pick(y), pick(0));
        let mut b = Builder::at_end(&mut body, block);
        match kind % 4 {
            0 => {
                b.unreachable();
            }
            1 => {
                b.br(tx, vec![]);
            }
            2 => {
                b.cond_br(params[0], (tx, vec![]), (ty, vec![]));
            }
            _ => {
                b.switch_br(
                    params[1],
                    vec![0, 1],
                    vec![(tx, vec![]), (ty, vec![])],
                    (tz, vec![]),
                );
            }
        }
    }
    body
}

/// Every function body of `module`.
fn bodies(module: &Module) -> impl Iterator<Item = &Body> {
    module.funcs.iter().filter_map(|f| f.body.as_ref())
}

/// A generated program lowered to the `rgn` level (nested regions, before
/// any optimization) and compiled all the way to a flat CFG.
fn rgn_and_cfg_modules(seed: u64) -> (Module, Module) {
    let case = generated(1, seed).remove(0);
    let program = parse_program(&case.src).expect("generated programs parse");
    let rc = insert_rc(&program);
    let mut rgn = lssa_core::lp::from_lambda::lower_program(&rc);
    lssa_core::rgn::from_lp::lower_module(&mut rgn);
    (rgn, compile(&rc, PipelineOptions::full()))
}

// ---- dead-op erasure --------------------------------------------------------

/// The recount-until-stable loop [`erase_trivially_dead`] replaced: recount
/// every use, erase the unused side-effect-free ops in walk order, repeat
/// until a sweep erases nothing.
fn erase_trivially_dead_by_recount(body: &mut Body) -> bool {
    let mut changed = false;
    loop {
        let counts = body.use_counts();
        let mut erased = false;
        for op in body.walk_ops() {
            let data = &body.ops[op.index()];
            if data.dead || data.opcode.purity() == Purity::Effect {
                continue;
            }
            if data.results.iter().all(|r| counts[r.index()] == 0) {
                body.erase_op(op);
                erased = true;
            }
        }
        changed |= erased;
        if !erased {
            break;
        }
    }
    changed
}

/// Runs both erasers on copies of `body` and requires the same report, the
/// same erased ops and the same block and region contents.
fn check_erasure(body: &Body) -> Result<(), TestCaseError> {
    let (mut fast, mut oracle) = (body.clone(), body.clone());
    prop_assert_eq!(
        erase_trivially_dead(&mut fast),
        erase_trivially_dead_by_recount(&mut oracle)
    );
    let dead = |b: &Body| b.ops.iter().map(|o| o.dead).collect::<Vec<_>>();
    prop_assert_eq!(dead(&fast), dead(&oracle));
    let blocks = |b: &Body| b.blocks.iter().map(|d| d.ops.clone()).collect::<Vec<_>>();
    prop_assert_eq!(blocks(&fast), blocks(&oracle));
    let regions = |b: &Body| {
        b.regions
            .iter()
            .map(|r| r.blocks.clone())
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(regions(&fast), regions(&oracle));
    prop_assert_eq!(fast.live_op_count(), oracle.live_op_count());
    Ok(())
}

/// A random straight-line body over ints, objects and region values, with
/// rgn.val regions nesting ops that use outer values: `steps[i] = (kind,
/// x, y)` appends one op built from earlier values, then a terminator
/// returns or runs one of them. Whatever the steps leave unused is dead,
/// often transitively and across region boundaries.
fn random_dead_code(steps: &[(u8, u8, u8)], exit: (bool, u8)) -> Body {
    let (mut body, params) = Body::new(&[Type::I64, Type::Obj, Type::I1]);
    let entry = body.entry_block();
    let (mut ints, mut objs, mut rgns) = (vec![params[0]], vec![params[1]], Vec::new());
    let pick = |pool: &[ValueId], k: u8| pool[usize::from(k) % pool.len()];
    for &(kind, x, y) in steps {
        let mut b = Builder::at_end(&mut body, entry);
        match kind % 7 {
            0 => ints.push(b.const_i(i64::from(x), Type::I64)),
            1 => ints.push(b.addi(pick(&ints, x), pick(&ints, y))),
            2 => objs.push(b.lp_construct(i64::from(x % 3), vec![pick(&objs, y)])),
            3 => {
                b.lp_inc(pick(&objs, x));
            }
            4 => {
                let (rv, inner) = b.rgn_val(&[]);
                let field = pick(&objs, x);
                let mut ib = Builder::at_end(&mut body, inner);
                let wrapped = ib.lp_construct(0, vec![field]);
                let lit = ib.lp_int(i64::from(y));
                ib.lp_ret(if y % 2 == 0 { wrapped } else { lit });
                rgns.push(rv);
            }
            5 if !rgns.is_empty() => {
                let (t, f) = (pick(&rgns, x), pick(&rgns, y));
                rgns.push(b.select(params[2], t, f));
            }
            _ => objs.push(b.lp_project(pick(&objs, x), i64::from(y % 2))),
        }
    }
    let mut b = Builder::at_end(&mut body, entry);
    match exit {
        (true, k) if !rgns.is_empty() => {
            b.rgn_run(pick(&rgns, k), vec![]);
        }
        (_, k) => {
            b.lp_ret(pick(&objs, k));
        }
    }
    body
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(feature = "slow-tests") { 64 } else { 24 },
        .. ProptestConfig::default()
    })]

    /// `DomTree` agrees with the definition of dominance on random CFGs of
    /// two interleaved regions.
    #[test]
    fn dom_tree_matches_definition_on_random_cfgs(
        shape in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 2..24)
    ) {
        check_dominance(&random_cfg(&shape))?;
    }

    /// ... and on every region of generated programs, both at the `rgn`
    /// level (many nested single-block regions) and as compiled CFGs.
    #[test]
    fn dom_tree_matches_definition_on_compiled_programs(seed in any::<u32>()) {
        let (rgn, cfg) = rgn_and_cfg_modules(u64::from(seed) ^ 0xd0_0d1e);
        for body in bodies(&rgn).chain(bodies(&cfg)) {
            check_dominance(body)?;
        }
    }

    /// The worklist `erase_trivially_dead` erases the same ops as the
    /// recount-until-stable loop on random bodies with nested regions.
    #[test]
    fn worklist_erasure_matches_recount_loop(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
        exit in (any::<bool>(), any::<u8>())
    ) {
        check_erasure(&random_dead_code(&steps, exit))?;
    }

    /// ... and on generated programs at the `rgn` level, where lowering
    /// leaves dead region values behind.
    #[test]
    fn worklist_erasure_matches_recount_loop_on_rgn_bodies(seed in any::<u32>()) {
        let (rgn, _) = rgn_and_cfg_modules(u64::from(seed) ^ 0xe2a5e);
        for body in bodies(&rgn) {
            check_erasure(body)?;
        }
    }

    /// Worklist liveness equals the naive per-value rescan on every
    /// function of every generated program, compiled flat.
    #[test]
    fn solver_liveness_matches_naive_oracle(seed in any::<u32>()) {
        let case = generated(1, seed as u64 ^ 0xda7a_f10f).remove(0);
        let program = parse_program(&case.src).expect("generated programs parse");
        let rc = insert_rc(&program);
        let module = compile(&rc, PipelineOptions::full());
        for f in &module.funcs {
            if let Some(body) = &f.body {
                check_function(body)?;
            }
        }
    }
}
