//! The function-body arena: operations, blocks, regions, and SSA values.
//!
//! All IR entities of one function live in a single [`Body`] and are
//! addressed by typed indices ([`OpId`], [`BlockId`], [`RegionId`],
//! [`ValueId`]). Region 0 is the function's root region; its first block is
//! the entry block, whose arguments are the function parameters.
//!
//! Erased operations leave tombstones (the arena never shrinks); the
//! printer, verifier, and walkers skip them, and the body maintains a
//! lazily-compacted live-op index so use-scans ([`Body::replace_all_uses`],
//! [`Body::use_counts`], [`Body::users_of`]) stop paying for tombstones
//! shortly after erasure instead of rescanning the whole arena forever.
//!
//! Per-op lists (operands, results, successors, regions, attributes) and a
//! region's block list use [`InlineVec`] storage: small lists — the
//! overwhelmingly common case — live inside their owner, so building or
//! cloning an op does not allocate.
//!
//! The walks that produce a list ([`Body::walk_ops`], [`Body::use_counts`])
//! fill a buffer the caller owns, so a pass that visits many bodies reuses
//! one; [`Body::with_capacity`] and [`Body::reserve`] size the arenas for a
//! lowering that knows roughly how much it will build.

use crate::attr::{Attr, AttrKey};
use crate::hash::FxHashMap;
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::inline_vec::InlineVec;
use crate::opcode::Opcode;
use crate::types::Type;

/// Operand list storage: binary arithmetic plus most `lp` ops fit inline.
pub type OperandList = InlineVec<ValueId, 4>;
/// Result list storage: every op in the dialect set has zero or one result.
pub type ResultList = InlineVec<ValueId, 2>;
/// Successor list storage: `cf.cond_br` fits inline; jump tables spill.
pub type SuccessorList = InlineVec<Successor, 2>;
/// Nested-region list storage: `rgn.val` carries one region, `lp.joinpoint`
/// two and `lp.switch` one per arm. Three fit in the space one takes.
pub type RegionList = InlineVec<RegionId, 3>;
/// Attribute list storage: ops carry at most one attribute today.
pub type AttrList = InlineVec<(AttrKey, Attr), 1>;
/// Successor-argument storage (block-parameter arguments on a CFG edge).
pub type SuccessorArgs = InlineVec<ValueId, 2>;

/// A CFG edge target: destination block plus the arguments passed to its
/// block parameters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Successor {
    /// Destination block.
    pub block: BlockId,
    /// Arguments for the destination's block parameters.
    pub args: SuccessorArgs,
}

impl Successor {
    /// An edge with no arguments.
    pub fn new(block: BlockId) -> Successor {
        Successor {
            block,
            args: SuccessorArgs::new(),
        }
    }

    /// An edge passing `args`.
    pub fn with_args(block: BlockId, args: impl Into<SuccessorArgs>) -> Successor {
        Successor {
            block,
            args: args.into(),
        }
    }
}

/// Where a value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `idx`-th result of an operation.
    OpResult(OpId, u32),
    /// The `idx`-th argument of a block.
    BlockArg(BlockId, u32),
}

/// Data for an SSA value.
#[derive(Debug, Clone)]
pub struct ValueData {
    /// The value's type.
    pub ty: Type,
    /// The definition site.
    pub def: ValueDef,
}

/// Data for an operation.
#[derive(Debug, Clone)]
pub struct OpData {
    /// The operation code.
    pub opcode: Opcode,
    /// SSA operands.
    pub operands: OperandList,
    /// SSA results.
    pub results: ResultList,
    /// Attached compile-time attributes.
    pub attrs: AttrList,
    /// Nested regions.
    pub regions: RegionList,
    /// CFG successors (terminators only).
    pub successors: SuccessorList,
    /// Owning block (`None` while detached or erased).
    pub parent: Option<BlockId>,
    /// Tombstone flag.
    pub dead: bool,
}

impl OpData {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: AttrKey) -> Option<&Attr> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, a)| a)
    }

    /// The single result, if the op has exactly one.
    pub fn result(&self) -> Option<ValueId> {
        match self.results.as_slice() {
            [r] => Some(*r),
            _ => None,
        }
    }

    /// Calls `f` on every value the op uses: operands, then successor
    /// arguments (with multiplicity).
    pub(crate) fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        for &o in &self.operands {
            f(o);
        }
        for s in &self.successors {
            for &a in &s.args {
                f(a);
            }
        }
    }
}

/// Data for a basic block.
#[derive(Debug, Clone, Default)]
pub struct BlockData {
    /// Block arguments (φ-equivalents).
    pub args: Vec<ValueId>,
    /// Operations in order; the last must be a terminator in valid IR.
    pub ops: Vec<OpId>,
    /// Owning region.
    pub parent: Option<RegionId>,
}

/// Block list storage of a region: nested regions hold one block until
/// the CFG lowering moves them into the root region.
pub type BlockList = InlineVec<BlockId, 1>;

/// Data for a region: a nested, single-entry sub-CFG.
#[derive(Debug, Clone, Default)]
pub struct RegionData {
    /// Blocks; the first is the region's entry.
    pub blocks: BlockList,
    /// The op owning this region (`None` for the function root region).
    pub parent: Option<OpId>,
}

/// The arena holding one function's IR.
#[derive(Debug, Clone, Default)]
pub struct Body {
    /// Operation arena (with tombstones).
    pub ops: Vec<OpData>,
    /// Block arena.
    pub blocks: Vec<BlockData>,
    /// Region arena. Index 0 is the function root.
    pub regions: Vec<RegionData>,
    /// Value arena.
    pub values: Vec<ValueData>,
    /// Live-op index: ids of non-tombstoned ops, ascending, compacted
    /// lazily (at most 50% tombstones). Maintained by [`Body::create_op`]
    /// / [`Body::erase_op`] so whole-body scans skip tombstones without
    /// walking the arena (see [`Body::live_ops`]).
    live: Vec<OpId>,
    /// Tombstones currently sitting in `live` awaiting compaction.
    live_tombstones: usize,
}

/// The root region of every function body.
pub const ROOT_REGION: RegionId = RegionId(0);

impl Body {
    /// Creates a body with a root region and an entry block whose arguments
    /// have types `params`. Returns the body and the parameter values.
    pub fn new(params: &[Type]) -> (Body, Vec<ValueId>) {
        Body::with_capacity(params, 0, 0)
    }

    /// [`Body::new`], with the arenas reserved for `ops` operations and
    /// `blocks` blocks more (see [`Body::reserve`]).
    pub fn with_capacity(params: &[Type], ops: usize, blocks: usize) -> (Body, Vec<ValueId>) {
        let mut body = Body::default();
        body.reserve(ops, blocks + 1);
        body.values.reserve(params.len());
        let root = body.new_region_detached();
        debug_assert_eq!(root, ROOT_REGION);
        let entry = body.new_block(root, params);
        let args = body.blocks[entry.index()].args.clone();
        (body, args)
    }

    /// Makes room for `ops` more operations (and as many result values)
    /// and `blocks` more blocks (and as many regions), so a lowering that
    /// knows roughly how much it will build grows each arena once instead
    /// of doubling it.
    pub fn reserve(&mut self, ops: usize, blocks: usize) {
        self.ops.reserve(ops);
        self.live.reserve(ops);
        self.values.reserve(ops + blocks);
        self.blocks.reserve(blocks);
        self.regions.reserve(blocks);
    }

    /// The entry block of the root region.
    pub fn entry_block(&self) -> BlockId {
        self.regions[ROOT_REGION.index()].blocks[0]
    }

    /// The function parameters (entry block arguments).
    pub fn params(&self) -> &[ValueId] {
        &self.blocks[self.entry_block().index()].args
    }

    // ---- creation --------------------------------------------------------

    fn new_region_detached(&mut self) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData::default());
        id
    }

    /// Creates a new region owned by `op` (appended to the op's region list).
    pub fn new_region(&mut self, op: OpId) -> RegionId {
        let id = self.new_region_detached();
        self.regions[id.index()].parent = Some(op);
        self.ops[op.index()].regions.push(id);
        id
    }

    /// Creates a new block with arguments of the given types, appended to
    /// `region`. Returns the block id.
    pub fn new_block(&mut self, region: RegionId, arg_tys: &[Type]) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            args: Vec::new(),
            ops: Vec::new(),
            parent: Some(region),
        });
        for (i, &ty) in arg_tys.iter().enumerate() {
            let v = self.new_value(ty, ValueDef::BlockArg(id, i as u32));
            self.blocks[id.index()].args.push(v);
        }
        self.regions[region.index()].blocks.push(id);
        id
    }

    fn new_value(&mut self, ty: Type, def: ValueDef) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueData { ty, def });
        id
    }

    /// Creates a detached operation. Result values are allocated with the
    /// given types. Attach it with [`Body::push_op`] or [`Body::insert_op`].
    ///
    /// `operands` and `attrs` accept both `Vec`s and the inline list types.
    pub fn create_op(
        &mut self,
        opcode: Opcode,
        operands: impl Into<OperandList>,
        result_tys: &[Type],
        attrs: impl Into<AttrList>,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(OpData {
            opcode,
            operands: operands.into(),
            results: ResultList::new(),
            attrs: attrs.into(),
            regions: RegionList::new(),
            successors: SuccessorList::new(),
            parent: None,
            dead: false,
        });
        // Ids are allocated in ascending order, so a push keeps the live
        // index sorted.
        self.live.push(id);
        for (i, &ty) in result_tys.iter().enumerate() {
            let v = self.new_value(ty, ValueDef::OpResult(id, i as u32));
            self.ops[id.index()].results.push(v);
        }
        id
    }

    /// Appends a detached op to the end of `block`.
    pub fn push_op(&mut self, block: BlockId, op: OpId) {
        debug_assert!(self.ops[op.index()].parent.is_none(), "op already attached");
        self.ops[op.index()].parent = Some(block);
        self.blocks[block.index()].ops.push(op);
    }

    /// Inserts a detached op into `block` at position `idx`.
    pub fn insert_op(&mut self, block: BlockId, idx: usize, op: OpId) {
        debug_assert!(self.ops[op.index()].parent.is_none(), "op already attached");
        self.ops[op.index()].parent = Some(block);
        self.blocks[block.index()].ops.insert(idx, op);
    }

    /// Inserts a detached op immediately before `before` (which must be
    /// attached).
    pub fn insert_op_before(&mut self, before: OpId, op: OpId) {
        let block = self.ops[before.index()].parent.expect("anchor detached");
        let idx = self.op_index_in_block(before);
        self.insert_op(block, idx, op);
    }

    fn op_index_in_block(&self, op: OpId) -> usize {
        let block = self.ops[op.index()].parent.expect("op detached");
        self.blocks[block.index()]
            .ops
            .iter()
            .position(|&o| o == op)
            .expect("op not in its parent block")
    }

    // ---- erasure -----------------------------------------------------------

    /// Detaches `op` from its block without killing it.
    pub fn detach_op(&mut self, op: OpId) {
        if let Some(block) = self.ops[op.index()].parent.take() {
            self.blocks[block.index()].ops.retain(|&o| o != op);
        }
    }

    /// Erases `op` (and, transitively, its nested regions). The caller must
    /// ensure its results have no remaining uses.
    pub fn erase_op(&mut self, op: OpId) {
        self.detach_op(op);
        let regions = std::mem::take(&mut self.ops[op.index()].regions);
        for r in regions {
            self.erase_region_contents(r);
        }
        self.tombstone(op);
    }

    /// Marks `op` dead and clears its edges. The live index is compacted
    /// lazily — eagerly removing each id would make bulk erasure quadratic
    /// — so it may carry up to 50% tombstones, which scans skip via the
    /// `dead` flag.
    fn tombstone(&mut self, op: OpId) {
        let data = &mut self.ops[op.index()];
        if data.dead {
            return;
        }
        data.dead = true;
        data.operands.clear();
        data.successors.clear();
        self.live_tombstones += 1;
        if self.live_tombstones * 2 > self.live.len() {
            let Body { live, ops, .. } = self;
            live.retain(|id| !ops[id.index()].dead);
            self.live_tombstones = 0;
        }
    }

    fn erase_region_contents(&mut self, region: RegionId) {
        let blocks = std::mem::take(&mut self.regions[region.index()].blocks);
        for b in blocks {
            let ops = std::mem::take(&mut self.blocks[b.index()].ops);
            for op in ops {
                self.ops[op.index()].parent = None;
                let nested = std::mem::take(&mut self.ops[op.index()].regions);
                for r in nested {
                    self.erase_region_contents(r);
                }
                self.tombstone(op);
            }
            self.blocks[b.index()].parent = None;
        }
    }

    /// Detaches a region from its owning op (for region transfer during
    /// lowering). The region stays alive; re-attach with
    /// [`Body::attach_region`].
    pub fn detach_region(&mut self, region: RegionId) {
        if let Some(op) = self.regions[region.index()].parent.take() {
            self.ops[op.index()].regions.retain(|&r| r != region);
        }
    }

    /// Attaches a detached region to `op`.
    pub fn attach_region(&mut self, op: OpId, region: RegionId) {
        debug_assert!(self.regions[region.index()].parent.is_none());
        self.regions[region.index()].parent = Some(op);
        self.ops[op.index()].regions.push(region);
    }

    // ---- uses --------------------------------------------------------------

    /// Replaces every use of `old` with `new` (operands and successor
    /// arguments, across the whole body).
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        for i in 0..self.live.len() {
            let op = &mut self.ops[self.live[i].index()];
            if op.dead {
                continue;
            }
            for o in &mut op.operands {
                if *o == old {
                    *o = new;
                }
            }
            for s in &mut op.successors {
                for a in &mut s.args {
                    if *a == old {
                        *a = new;
                    }
                }
            }
        }
    }

    /// Counts uses of every value (operand and successor-arg positions) by
    /// live, attached ops into `counts`, indexed by [`ValueId::index`].
    /// `counts` is overwritten; a caller that counts many bodies passes the
    /// same buffer each time.
    pub fn use_counts(&self, counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.values.len(), 0);
        for &id in &self.live {
            let op = &self.ops[id.index()];
            if op.dead || op.parent.is_none() {
                continue;
            }
            op.for_each_use(|v| counts[v.index()] += 1);
        }
    }

    /// All attached (live) ops that use `v`, in arena order. A caller that
    /// only needs to know whether there is exactly one can stop at two.
    pub fn users_of(&self, v: ValueId) -> impl Iterator<Item = OpId> + '_ {
        self.live.iter().copied().filter(move |&id| {
            let op = &self.ops[id.index()];
            !op.dead
                && op.parent.is_some()
                && (op.operands.contains(&v) || op.successors.iter().any(|s| s.args.contains(&v)))
        })
    }

    /// The type of a value.
    pub fn value_type(&self, v: ValueId) -> Type {
        self.values[v.index()].ty
    }

    /// The op defining `v`, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.values[v.index()].def {
            ValueDef::OpResult(op, _) => Some(op),
            ValueDef::BlockArg(..) => None,
        }
    }

    // ---- traversal --------------------------------------------------------

    /// Writes all live ops in the region tree to `out`, pre-order (op
    /// before its regions), blocks in region order. `out` is overwritten; a
    /// pass that walks many bodies passes the same buffer each time, so a
    /// walk allocates only when a body is larger than every one before it.
    pub fn walk_ops(&self, out: &mut Vec<OpId>) {
        out.clear();
        // The live index bounds the walk (it holds every attached op), so
        // the buffer grows at most once.
        out.reserve(self.live.len());
        self.walk_region(ROOT_REGION, out);
    }

    fn walk_region(&self, region: RegionId, out: &mut Vec<OpId>) {
        for &b in &self.regions[region.index()].blocks {
            for &op in &self.blocks[b.index()].ops {
                out.push(op);
                for &r in &self.ops[op.index()].regions {
                    self.walk_region(r, out);
                }
            }
        }
    }

    /// The region containing `block`.
    pub fn block_region(&self, block: BlockId) -> RegionId {
        self.blocks[block.index()].parent.expect("detached block")
    }

    /// The block containing the definition of `v`.
    pub fn defining_block(&self, v: ValueId) -> Option<BlockId> {
        match self.values[v.index()].def {
            ValueDef::OpResult(op, _) => self.ops[op.index()].parent,
            ValueDef::BlockArg(b, _) => Some(b),
        }
    }

    /// The terminator of `block`, if the block is non-empty.
    pub fn terminator(&self, block: BlockId) -> Option<OpId> {
        self.blocks[block.index()]
            .ops
            .last()
            .copied()
            .filter(|&op| self.ops[op.index()].opcode.is_terminator())
    }

    // ---- cloning ------------------------------------------------------------

    /// Deep-clones `region`'s contents into a fresh region owned by `new_parent`.
    ///
    /// `value_map` seeds the remapping of values defined *outside* the region
    /// (e.g. mapping callee parameters to call arguments during inlining);
    /// values defined inside are remapped automatically. Unmapped external
    /// values are left as-is (implicit capture).
    pub fn clone_region_into(
        &mut self,
        region: RegionId,
        new_parent: OpId,
        value_map: &mut FxHashMap<ValueId, ValueId>,
    ) -> RegionId {
        let new_region = self.new_region(new_parent);
        let mut block_map: FxHashMap<BlockId, BlockId> = FxHashMap::default();
        let blocks = self.regions[region.index()].blocks.clone();
        // First pass: create blocks and their arguments.
        for &b in &blocks {
            let arg_tys: Vec<Type> = self.blocks[b.index()]
                .args
                .iter()
                .map(|&a| self.value_type(a))
                .collect();
            let nb = self.new_block(new_region, &arg_tys);
            for (i, &old_arg) in self.blocks[b.index()].args.clone().iter().enumerate() {
                let new_arg = self.blocks[nb.index()].args[i];
                value_map.insert(old_arg, new_arg);
            }
            block_map.insert(b, nb);
        }
        // Second pass: clone ops.
        for &b in &blocks {
            let ops = self.blocks[b.index()].ops.clone();
            let nb = block_map[&b];
            for op in ops {
                let new_op = self.clone_op_rec(op, value_map, &block_map);
                self.push_op(nb, new_op);
            }
        }
        new_region
    }

    fn clone_op_rec(
        &mut self,
        op: OpId,
        value_map: &mut FxHashMap<ValueId, ValueId>,
        block_map: &FxHashMap<BlockId, BlockId>,
    ) -> OpId {
        let data = self.ops[op.index()].clone();
        let operands: Vec<ValueId> = data
            .operands
            .iter()
            .map(|v| value_map.get(v).copied().unwrap_or(*v))
            .collect();
        let result_tys: Vec<Type> = data.results.iter().map(|&r| self.value_type(r)).collect();
        let new_op = self.create_op(data.opcode, operands, &result_tys, data.attrs.clone());
        for (i, &old_r) in data.results.iter().enumerate() {
            let new_r = self.ops[new_op.index()].results[i];
            value_map.insert(old_r, new_r);
        }
        for s in &data.successors {
            let args = s
                .args
                .iter()
                .map(|v| value_map.get(v).copied().unwrap_or(*v))
                .collect();
            let block = block_map.get(&s.block).copied().unwrap_or(s.block);
            self.ops[new_op.index()]
                .successors
                .push(Successor { block, args });
        }
        for &r in &data.regions {
            self.clone_region_into(r, new_op, value_map);
        }
        new_op
    }

    /// Number of live, attached ops (for tests and statistics).
    ///
    /// A counting walk — no id list is materialized, so the pass engine's
    /// per-pass before/after instrumentation costs no allocation.
    pub fn live_op_count(&self) -> usize {
        self.count_region_ops(ROOT_REGION)
    }

    fn count_region_ops(&self, region: RegionId) -> usize {
        let mut count = 0;
        for &b in &self.regions[region.index()].blocks {
            count += self.blocks[b.index()].ops.len();
            for &op in &self.blocks[b.index()].ops {
                for &r in &self.ops[op.index()].regions {
                    count += self.count_region_ops(r);
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrKey;

    fn const_op(b: &mut Body, v: i64) -> OpId {
        b.create_op(
            Opcode::ConstI,
            vec![],
            &[Type::I64],
            vec![(AttrKey::Value, Attr::Int(v))],
        )
    }

    #[test]
    fn op_data_stays_compact() {
        // The op-storage compaction budget (InlineVec'd lists, boxed
        // attribute payloads). Growing this grows every op in every module;
        // revisit the inline capacities before raising it.
        assert!(std::mem::size_of::<OpData>() <= 208);
    }

    #[test]
    fn new_body_has_entry_with_params() {
        let (body, params) = Body::new(&[Type::Obj, Type::I64]);
        assert_eq!(params.len(), 2);
        assert_eq!(body.value_type(params[0]), Type::Obj);
        assert_eq!(body.value_type(params[1]), Type::I64);
        assert_eq!(body.params(), params.as_slice());
    }

    #[test]
    fn push_and_walk() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let c1 = const_op(&mut body, 1);
        let c2 = const_op(&mut body, 2);
        body.push_op(e, c1);
        body.push_op(e, c2);
        let mut walk = Vec::new();
        body.walk_ops(&mut walk);
        assert_eq!(walk, vec![c1, c2]);
    }

    #[test]
    fn insert_before() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let c1 = const_op(&mut body, 1);
        body.push_op(e, c1);
        let c0 = const_op(&mut body, 0);
        body.insert_op_before(c1, c0);
        assert_eq!(body.blocks[e.index()].ops, vec![c0, c1]);
    }

    #[test]
    fn rauw_rewrites_operands_and_successor_args() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let c1 = const_op(&mut body, 1);
        let c2 = const_op(&mut body, 2);
        body.push_op(e, c1);
        body.push_op(e, c2);
        let v1 = body.ops[c1.index()].result().unwrap();
        let v2 = body.ops[c2.index()].result().unwrap();
        let b2 = body.new_block(ROOT_REGION, &[Type::I64]);
        let br = body.create_op(Opcode::Br, vec![], &[], vec![]);
        body.ops[br.index()]
            .successors
            .push(Successor::with_args(b2, vec![v1]));
        body.push_op(e, br);
        let add = body.create_op(Opcode::AddI, vec![v1, v1], &[Type::I64], vec![]);
        body.push_op(b2, add);
        body.replace_all_uses(v1, v2);
        assert_eq!(body.ops[add.index()].operands, vec![v2, v2]);
        assert_eq!(body.ops[br.index()].successors[0].args, vec![v2]);
        let mut counts = vec![7; 2];
        body.use_counts(&mut counts);
        assert_eq!(counts.len(), body.values.len());
        assert_eq!(counts[v1.index()], 0);
        assert_eq!(counts[v2.index()], 3);
    }

    #[test]
    fn erase_op_removes_from_walk() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let c1 = const_op(&mut body, 1);
        body.push_op(e, c1);
        assert_eq!(body.live_op_count(), 1);
        body.erase_op(c1);
        assert_eq!(body.live_op_count(), 0);
        assert!(body.ops[c1.index()].dead);
    }

    #[test]
    fn nested_region_walk_order() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let rv = body.create_op(Opcode::RgnVal, vec![], &[Type::Rgn], vec![]);
        let inner_region = body.new_region(rv);
        let inner_block = body.new_block(inner_region, &[]);
        let c = const_op(&mut body, 7);
        body.push_op(inner_block, c);
        body.push_op(e, rv);
        let c2 = const_op(&mut body, 8);
        body.push_op(e, c2);
        let mut walk = vec![c];
        body.walk_ops(&mut walk);
        assert_eq!(walk, vec![rv, c, c2]);
    }

    #[test]
    fn erase_op_with_region_kills_nested_ops() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let rv = body.create_op(Opcode::RgnVal, vec![], &[Type::Rgn], vec![]);
        let r = body.new_region(rv);
        let bl = body.new_block(r, &[]);
        let c = const_op(&mut body, 7);
        body.push_op(bl, c);
        body.push_op(e, rv);
        body.erase_op(rv);
        assert!(body.ops[c.index()].dead);
        assert_eq!(body.live_op_count(), 0);
    }

    #[test]
    fn region_transfer() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let a = body.create_op(Opcode::RgnVal, vec![], &[Type::Rgn], vec![]);
        let r = body.new_region(a);
        body.push_op(e, a);
        let b = body.create_op(Opcode::RgnVal, vec![], &[Type::Rgn], vec![]);
        body.push_op(e, b);
        body.detach_region(r);
        assert!(body.ops[a.index()].regions.is_empty());
        body.attach_region(b, r);
        assert_eq!(body.ops[b.index()].regions, vec![r]);
        assert_eq!(body.regions[r.index()].parent, Some(b));
    }

    #[test]
    fn clone_region_remaps_internal_values() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let holder = body.create_op(Opcode::RgnVal, vec![], &[Type::Rgn], vec![]);
        let r = body.new_region(holder);
        let bl = body.new_block(r, &[Type::I64]);
        let arg = body.blocks[bl.index()].args[0];
        let add = body.create_op(Opcode::AddI, vec![arg, arg], &[Type::I64], vec![]);
        body.push_op(bl, add);
        body.push_op(e, holder);

        let holder2 = body.create_op(Opcode::RgnVal, vec![], &[Type::Rgn], vec![]);
        body.push_op(e, holder2);
        let mut map = FxHashMap::default();
        let r2 = body.clone_region_into(r, holder2, &mut map);
        assert_ne!(r, r2);
        let bl2 = body.regions[r2.index()].blocks[0];
        let arg2 = body.blocks[bl2.index()].args[0];
        assert_ne!(arg, arg2);
        let add2 = body.blocks[bl2.index()].ops[0];
        assert_eq!(body.ops[add2.index()].operands, vec![arg2, arg2]);
    }

    #[test]
    fn users_of_finds_all() {
        let (mut body, _) = Body::new(&[]);
        let e = body.entry_block();
        let c = const_op(&mut body, 3);
        body.push_op(e, c);
        let v = body.ops[c.index()].result().unwrap();
        let a1 = body.create_op(Opcode::AddI, vec![v, v], &[Type::I64], vec![]);
        let a2 = body.create_op(Opcode::MulI, vec![v, v], &[Type::I64], vec![]);
        body.push_op(e, a1);
        body.push_op(e, a2);
        assert_eq!(body.users_of(v).collect::<Vec<_>>(), vec![a1, a2]);
    }
}
