//! Property-based validation of the `lssa-ir` analyses against oracles
//! that share none of their machinery.
//!
//! - Dominance: [`DomTree`] must match the definition — `a` dominates a
//!   reachable `b` iff `b` becomes unreachable from the entry once `a` is
//!   removed — on random multi-region CFGs and on every region of compiled
//!   programs at the `rgn` and CFG levels, both freshly computed and
//!   recomputed in a tree that served other regions and bodies before.
//! - Dead-op erasure: the worklist [`erase_trivially_dead`] must erase
//!   exactly the ops the recount-until-stable loop it replaced erases (kept
//!   here, and only here, as the oracle), also with buffers that earlier
//!   bodies left behind.

use lambda_ssa::driver::conformance::generated;
use lambda_ssa::ir::body::{Body, ROOT_REGION};
use lambda_ssa::ir::builder::Builder;
use lambda_ssa::ir::dom::DomTree;
use lambda_ssa::ir::ids::{BlockId, RegionId, ValueId};
use lambda_ssa::ir::module::Module;
use lambda_ssa::ir::opcode::Purity;
use lambda_ssa::ir::rewrite::{erase_trivially_dead, RewriteBuffers};
use lambda_ssa::ir::types::Type;
use lambda_ssa::ir::FxHashSet as HashSet;
use lambda_ssa::lambda::{insert_rc, parse_program};
use lssa_core::pipeline::{compile, PipelineOptions};
use proptest::prelude::*;

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
/// the definition of dominance, in a fresh tree and in `reused`, which is
/// recomputed for each region.
fn check_dominance(body: &Body, reused: &mut DomTree) -> Result<(), TestCaseError> {
    for (ri, r) in body.regions.iter().enumerate() {
        if r.blocks.is_empty() {
            continue;
        }
        let region = RegionId(ri as u32);
        let tree = DomTree::compute(body, region);
        reused.recompute(body, region);
        let reachable = reachable_without(body, region, None);
        for &b in &r.blocks {
            prop_assert_eq!(tree.is_reachable(b), reachable.contains(&b), "{:?}", b);
            prop_assert_eq!(reused.is_reachable(b), reachable.contains(&b), "{:?}", b);
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
                prop_assert_eq!(reused.dominates(a, b), expected, "reused tree");
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
    let (mut counts, mut walk) = (Vec::new(), Vec::new());
    loop {
        body.use_counts(&mut counts);
        body.walk_ops(&mut walk);
        let mut erased = false;
        for &op in &walk {
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
/// same erased ops and the same block and region contents. The worklist
/// eraser runs with `bufs`, which earlier bodies may have used.
fn check_erasure(body: &Body, bufs: &mut RewriteBuffers) -> Result<(), TestCaseError> {
    let (mut fast, mut oracle) = (body.clone(), body.clone());
    prop_assert_eq!(
        erase_trivially_dead(&mut fast, bufs),
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
        check_dominance(&random_cfg(&shape), &mut DomTree::default())?;
    }

    /// ... and on every region of generated programs, both at the `rgn`
    /// level (many nested single-block regions) and as compiled CFGs.
    #[test]
    fn dom_tree_matches_definition_on_compiled_programs(seed in any::<u32>()) {
        let (rgn, cfg) = rgn_and_cfg_modules(u64::from(seed) ^ 0xd0_0d1e);
        let mut reused = DomTree::default();
        for body in bodies(&rgn).chain(bodies(&cfg)) {
            check_dominance(body, &mut reused)?;
        }
    }

    /// The worklist `erase_trivially_dead` erases the same ops as the
    /// recount-until-stable loop on random bodies with nested regions.
    #[test]
    fn worklist_erasure_matches_recount_loop(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
        exit in (any::<bool>(), any::<u8>())
    ) {
        check_erasure(&random_dead_code(&steps, exit), &mut RewriteBuffers::default())?;
    }

    /// ... and on generated programs at the `rgn` level, where lowering
    /// leaves dead region values behind.
    #[test]
    fn worklist_erasure_matches_recount_loop_on_rgn_bodies(seed in any::<u32>()) {
        let (rgn, _) = rgn_and_cfg_modules(u64::from(seed) ^ 0xe2a5e);
        let mut bufs = RewriteBuffers::default();
        for body in bodies(&rgn) {
            check_erasure(body, &mut bufs)?;
        }
    }
}
