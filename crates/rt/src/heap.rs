//! The reference-counted heap.
//!
//! Stand-in for `libleanrt`'s allocator. Every heap object is a slot (a
//! reference count plus an [`ObjData`] payload) in one slot table whose
//! free slots form an intrusive free list. Constructors follow LEAN's
//! object model:
//!
//! - a constructor without fields is never a heap object: it is the scalar
//!   `tag` (LEAN's `lean_box(tag)`), so `Nil`, `Leaf` or `Red` allocate
//!   nothing and `inc`/`dec` on them touch no memory;
//! - every other constructor keeps its slot (rc and tag) but stores its
//!   fields as a block of consecutive words in one flat field arena. A
//!   freed block goes onto the free list for its length, and the next
//!   constructor with as many fields takes it, so building or freeing a
//!   cell never calls the system allocator once the arena has grown to the
//!   program's peak.
//!
//! Closures, arrays, strings and big integers keep their own payloads. The
//! heap also implements the explicit `inc`/`dec` reference-count
//! operations (the targets of `lp.inc`/`lp.dec`) and the allocation
//! statistics the evaluation harness reports.

use crate::bignum::{Int, Nat};
use crate::object::{ObjData, ObjRef, Object, MAX_SMALL_INT, MAX_SMALL_NAT, MIN_SMALL_INT};

/// Ends a free list of the field arena.
const NO_BLOCK: u32 = u32::MAX;

/// Allocation and reference-count statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of objects allocated over the heap's lifetime.
    pub allocs: u64,
    /// Constructor cells allocated (constructors with fields: one without
    /// is a scalar and allocates nothing).
    pub ctor_allocs: u64,
    /// Closures allocated.
    pub closure_allocs: u64,
    /// Arrays allocated.
    pub array_allocs: u64,
    /// Strings allocated.
    pub str_allocs: u64,
    /// Boxed big integers allocated.
    pub bigint_allocs: u64,
    /// Number of objects freed.
    pub frees: u64,
    /// Number of `inc` operations executed.
    pub incs: u64,
    /// Number of `dec` operations executed.
    pub decs: u64,
    /// Current number of live objects.
    pub live: u64,
    /// High-water mark of live objects.
    pub peak_live: u64,
    /// Approximate bytes held by live objects (see [`obj_bytes`] for the
    /// size model — a header charge plus payload words).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
}

/// Approximate size in bytes of one heap object under a fixed cost model:
/// a 16-byte header (rc + discriminant) plus 8 bytes per payload word
/// (ctor fields, closure captures, array elements), the byte length for
/// strings, and a flat 32 bytes for boxed big integers. The model is
/// deliberately platform-independent so byte budgets trip at the same
/// allocation on every host.
pub fn obj_bytes(data: &ObjData) -> u64 {
    const HEADER: u64 = 16;
    HEADER
        + match data {
            ObjData::Ctor { len, .. } => 8 * u64::from(*len),
            ObjData::Closure { args, .. } => 8 + 8 * args.len() as u64,
            ObjData::Array(elems) => 8 * elems.len() as u64,
            ObjData::Str(s) => s.len() as u64,
            ObjData::BigInt(_) => 32,
            ObjData::Free(_) => 0,
        }
}

/// A reference-counted slot heap.
///
/// # Examples
///
/// ```
/// use lssa_rt::heap::Heap;
/// let mut heap = Heap::new();
/// let nil = heap.alloc_ctor(0, vec![]); // the scalar 0, no allocation
/// let one = lssa_rt::object::ObjRef::scalar(1);
/// let cons = heap.alloc_ctor(1, vec![one, nil]);
/// assert_eq!(heap.ctor_tag(cons), 1);
/// assert_eq!(heap.ctor_fields(cons), &[one, nil][..]);
/// assert_eq!(heap.stats().allocs, 1);
/// heap.dec(cons); // frees cons; its block waits for the next 2-field ctor
/// assert_eq!(heap.stats().live, 0);
/// ```
#[derive(Debug, Default)]
pub struct Heap {
    slots: Vec<Object>,
    free_head: Option<u32>,
    /// The field arena: each heap constructor's fields are the `len`
    /// words at its `off`.
    fields: Vec<ObjRef>,
    /// Heads of the arena's free lists, indexed by block length. The first
    /// word of a free block holds the offset of the next free block of the
    /// same length; `NO_BLOCK` ends a list.
    free_blocks: Vec<u32>,
    stats: HeapStats,
    /// Reused worklist for transitive frees ([`Heap::dec`]): a dec that
    /// frees nothing — the overwhelmingly common case — and even most
    /// frees cost no allocation.
    dec_scratch: Vec<ObjRef>,
    /// Live-byte cap (`None` = unlimited). Exceeding it sets `tripped`;
    /// allocation itself never fails, so the VM observes the trip at its
    /// next budget checkpoint and aborts with a structured error.
    byte_limit: Option<u64>,
    /// Fault injection: force a budget trip at the Nth allocation.
    trip_alloc: Option<u64>,
    /// Sticky budget-exceeded flag, polled via [`Heap::over_budget`].
    tripped: bool,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    // ---- resource governance --------------------------------------------

    /// Caps live heap bytes (`None` lifts the cap). The cap is advisory:
    /// crossing it sets a sticky flag ([`Heap::over_budget`]) rather than
    /// failing the allocation, so in-flight operations complete and the VM
    /// aborts cleanly at its next checkpoint.
    pub fn set_byte_limit(&mut self, limit: Option<u64>) {
        self.byte_limit = limit;
    }

    /// Fault injection: trip the budget flag at the `at`-th allocation
    /// (counted over the heap's lifetime), as if a byte cap had been hit.
    pub fn set_trip_alloc(&mut self, at: Option<u64>) {
        self.trip_alloc = at;
    }

    /// Whether any byte cap or allocation trip is armed (used by the VM to
    /// decide if budget checkpoints need to poll the heap at all).
    pub fn has_byte_budget(&self) -> bool {
        self.byte_limit.is_some() || self.trip_alloc.is_some()
    }

    /// Whether the byte cap (or an injected allocation trip) has been hit.
    /// Sticky until [`Heap::clear_budget_trip`] or [`Heap::free_all`].
    pub fn over_budget(&self) -> bool {
        self.tripped
    }

    /// Clears the sticky budget-exceeded flag.
    pub fn clear_budget_trip(&mut self) {
        self.tripped = false;
    }

    /// Counts live objects by scanning the arena — the ground truth the
    /// abort-path leak checks compare against `stats().live`.
    pub fn live_objects(&self) -> u64 {
        self.slots
            .iter()
            .filter(|o| !matches!(o.data, ObjData::Free(_)))
            .count() as u64
    }

    /// Frees every live object unconditionally, rebuilds the free list and
    /// empties the field arena — the drop-all sweep an aborted run uses to
    /// reclaim objects still owned by abandoned frames. Child references
    /// need no recursive dec: the sweep visits every slot exactly once.
    /// Returns the number of objects freed; afterwards `stats().live == 0`
    /// and, when the refcount machinery was balanced, `stats().allocs ==
    /// stats().frees`.
    pub fn free_all(&mut self) -> u64 {
        let mut freed = 0u64;
        let mut next = u32::MAX;
        for slot in (0..self.slots.len()).rev() {
            let obj = &mut self.slots[slot];
            if !matches!(obj.data, ObjData::Free(_)) {
                freed += 1;
                obj.rc = 0;
            }
            obj.data = ObjData::Free(next);
            next = slot as u32;
        }
        self.free_head = (next != u32::MAX).then_some(next);
        self.fields.clear();
        self.free_blocks.clear();
        // Set the ledgers directly rather than decrementing per object: if
        // bookkeeping had drifted, decrements could underflow and mask the
        // very imbalance the caller is about to assert on via allocs/frees.
        self.stats.frees += freed;
        self.stats.live = 0;
        self.stats.live_bytes = 0;
        self.tripped = false;
        freed
    }

    /// Objects allocated so far (cheap accessor: the VM samples this around
    /// allocating instructions to attribute allocations per opcode class).
    pub fn alloc_count(&self) -> u64 {
        self.stats.allocs
    }

    fn alloc(&mut self, data: ObjData) -> ObjRef {
        self.stats.allocs += 1;
        match data {
            ObjData::Ctor { .. } => self.stats.ctor_allocs += 1,
            ObjData::Closure { .. } => self.stats.closure_allocs += 1,
            ObjData::Array(_) => self.stats.array_allocs += 1,
            ObjData::Str(_) => self.stats.str_allocs += 1,
            ObjData::BigInt(_) => self.stats.bigint_allocs += 1,
            ObjData::Free(_) => unreachable!("allocating a free slot marker"),
        }
        self.stats.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.live_bytes += obj_bytes(&data);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        if self.byte_limit.is_some_and(|l| self.stats.live_bytes > l)
            || self.trip_alloc.is_some_and(|k| self.stats.allocs >= k)
        {
            self.tripped = true;
        }
        let obj = Object { rc: 1, data };
        match self.free_head.take() {
            Some(slot) => {
                let next = match self.slots[slot as usize].data {
                    ObjData::Free(next) => next,
                    _ => unreachable!("free list points at live object"),
                };
                self.free_head = if next == u32::MAX { None } else { Some(next) };
                self.slots[slot as usize] = obj;
                ObjRef::heap(slot)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("heap exhausted");
                self.slots.push(obj);
                ObjRef::heap(slot)
            }
        }
    }

    #[inline]
    fn obj(&self, r: ObjRef) -> &Object {
        let Some(slot) = r.as_heap() else { not_heap(r) };
        let o = &self.slots[slot as usize];
        debug_assert!(
            !matches!(o.data, ObjData::Free(_)),
            "use after free of slot {slot}"
        );
        o
    }

    #[inline]
    fn obj_mut(&mut self, r: ObjRef) -> &mut Object {
        let Some(slot) = r.as_heap() else { not_heap(r) };
        let o = &mut self.slots[slot as usize];
        debug_assert!(
            !matches!(o.data, ObjData::Free(_)),
            "use after free of slot {slot}"
        );
        o
    }

    /// Reads the payload of a heap object.
    ///
    /// # Panics
    ///
    /// Panics if `r` is a scalar.
    #[inline]
    pub fn data(&self, r: ObjRef) -> &ObjData {
        &self.obj(r).data
    }

    /// Current reference count of a heap object.
    pub fn rc(&self, r: ObjRef) -> u32 {
        self.obj(r).rc
    }

    /// Whether the object is uniquely referenced (enables in-place update).
    pub fn is_exclusive(&self, r: ObjRef) -> bool {
        r.is_heap() && self.obj(r).rc == 1
    }

    // ---- allocation -----------------------------------------------------

    /// Builds a constructor value. Ownership of `fields` transfers to the
    /// new object (no `inc` is performed). A constructor without fields is
    /// the scalar `tag` and allocates nothing; any other takes a slot and a
    /// block of the field arena.
    ///
    /// # Panics
    ///
    /// Panics if `fields` yields a different number of items than its
    /// `len()` reported.
    #[inline]
    pub fn alloc_ctor<I>(&mut self, tag: u32, fields: I) -> ObjRef
    where
        I: IntoIterator<Item = ObjRef>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut fields = fields.into_iter();
        let len = fields.len();
        if len == 0 {
            if fields.next().is_some() {
                field_count_mismatch(0);
            }
            return ObjRef::scalar(i64::from(tag));
        }
        let off = self.take_block(len);
        let mut written = 0;
        for (word, f) in self.fields[off..off + len].iter_mut().zip(&mut fields) {
            *word = f;
            written += 1;
        }
        if written != len || fields.next().is_some() {
            field_count_mismatch(len);
        }
        self.alloc(ObjData::Ctor {
            tag,
            off: off as u32,
            len: len as u32,
        })
    }

    /// Takes a block of `len` words from the field arena: the head of the
    /// free list for `len`, or fresh words at the arena's end.
    #[inline]
    fn take_block(&mut self, len: usize) -> usize {
        match self.free_blocks.get(len) {
            Some(&head) if head != NO_BLOCK => {
                let off = head as usize;
                self.free_blocks[len] = self.fields[off].to_bits() as u32;
                off
            }
            _ => self.grow_arena(len),
        }
    }

    fn grow_arena(&mut self, len: usize) -> usize {
        let off = self.fields.len();
        assert!(
            off + len < NO_BLOCK as usize,
            "constructor field arena exhausted"
        );
        self.fields.resize(off + len, ObjRef::scalar(0));
        off
    }

    /// Links the block at `off` onto the free list for `len`.
    fn free_block(&mut self, off: u32, len: u32) {
        let len = len as usize;
        if self.free_blocks.len() <= len {
            self.free_blocks.resize(len + 1, NO_BLOCK);
        }
        self.fields[off as usize] = ObjRef::from_bits(u64::from(self.free_blocks[len]));
        self.free_blocks[len] = off;
    }

    /// Allocates a closure capturing `args`.
    pub fn alloc_closure(
        &mut self,
        func: crate::object::FuncId,
        arity: u16,
        args: Vec<ObjRef>,
    ) -> ObjRef {
        debug_assert!(args.len() < arity as usize || arity == 0);
        self.alloc(ObjData::Closure { func, arity, args })
    }

    /// Allocates an array.
    pub fn alloc_array(&mut self, elems: Vec<ObjRef>) -> ObjRef {
        self.alloc(ObjData::Array(elems))
    }

    /// Allocates a string.
    pub fn alloc_str(&mut self, s: String) -> ObjRef {
        self.alloc(ObjData::Str(s))
    }

    /// Boxes an arbitrary-precision integer, or returns a scalar if it fits.
    pub fn mk_int(&mut self, v: Int) -> ObjRef {
        match v.to_i64() {
            Some(s) if (MIN_SMALL_INT..=MAX_SMALL_INT).contains(&s) => ObjRef::scalar(s),
            _ => self.alloc(ObjData::BigInt(v)),
        }
    }

    /// Boxes a natural number, or returns a scalar if it fits.
    pub fn mk_nat(&mut self, v: Nat) -> ObjRef {
        match v.to_u64() {
            Some(s) if s <= MAX_SMALL_NAT => ObjRef::scalar(s as i64),
            _ => self.alloc(ObjData::BigInt(Int::from_nat(v))),
        }
    }

    /// Decodes a value known to be an integer (scalar or boxed bigint).
    ///
    /// # Panics
    ///
    /// Panics if `r` refers to a non-integer heap object.
    pub fn get_int(&self, r: ObjRef) -> Int {
        match r.as_scalar() {
            Some(v) => Int::from_i64(v),
            None => match self.data(r) {
                ObjData::BigInt(i) => i.clone(),
                other => panic!("expected integer object, found {other:?}"),
            },
        }
    }

    /// Decodes a value known to be a natural number.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not an integer object.
    pub fn get_nat(&self, r: ObjRef) -> Nat {
        match r.as_scalar() {
            Some(v) => {
                assert!(v >= 0, "expected natural, found negative {v}");
                Nat::from_u64(v.unsigned_abs())
            }
            None => match self.data(r) {
                ObjData::BigInt(i) => {
                    assert!(!i.is_neg(), "expected natural, found negative {i}");
                    i.magnitude().clone()
                }
                other => panic!("expected integer object, found {other:?}"),
            },
        }
    }

    // ---- constructor access ---------------------------------------------

    /// The tag of a constructor value. Scalars are treated as zero-field
    /// constructors whose tag is the scalar value: that is how
    /// [`Heap::alloc_ctor`] builds every constructor without fields, and
    /// LEAN's representation of enum-like inductives such as `Bool`.
    #[inline]
    pub fn ctor_tag(&self, r: ObjRef) -> u32 {
        match r.as_scalar() {
            Some(v) => u32::try_from(v).unwrap_or_else(|_| bad_scalar_tag(v)),
            None => match *self.data(r) {
                ObjData::Ctor { tag, .. } => tag,
                ref other => not_a_ctor("getlabel", other),
            },
        }
    }

    /// Projects field `idx` out of a constructor (no refcount change).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a heap constructor or `idx` is out of bounds.
    #[inline]
    pub fn ctor_field(&self, r: ObjRef, idx: usize) -> ObjRef {
        match *self.data(r) {
            ObjData::Ctor { off, len, .. } if idx < len as usize => self.fields[off as usize + idx],
            ObjData::Ctor { len, .. } => field_out_of_bounds(idx, len),
            ref other => not_a_ctor("project", other),
        }
    }

    /// All fields of a heap constructor, in order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a heap constructor.
    pub fn ctor_fields(&self, r: ObjRef) -> &[ObjRef] {
        match *self.data(r) {
            ObjData::Ctor { off, len, .. } => {
                &self.fields[off as usize..off as usize + len as usize]
            }
            ref other => not_a_ctor("ctor_fields", other),
        }
    }

    // ---- reference counting ----------------------------------------------

    /// Increments the reference count (no-op on scalars), like `lean_inc`.
    #[inline]
    pub fn inc(&mut self, r: ObjRef) {
        self.stats.incs += 1;
        if let Some(slot) = r.as_heap() {
            let obj = &mut self.slots[slot as usize];
            debug_assert!(
                !matches!(obj.data, ObjData::Free(_)),
                "inc on freed slot {slot}"
            );
            obj.rc += 1;
        }
    }

    /// Increments the reference count by `n`.
    pub fn inc_n(&mut self, r: ObjRef, n: u32) {
        self.stats.incs += n as u64;
        if r.is_heap() && n > 0 {
            self.obj_mut(r).rc += n;
        }
    }

    /// Decrements the reference count, freeing (recursively, without using
    /// the machine stack) when it reaches zero. Like `lean_dec`.
    #[inline]
    pub fn dec(&mut self, r: ObjRef) {
        self.stats.decs += 1;
        let Some(slot) = r.as_heap() else {
            return;
        };
        let obj = &mut self.slots[slot as usize];
        debug_assert!(
            !matches!(obj.data, ObjData::Free(_)),
            "dec on freed slot {slot}"
        );
        debug_assert!(obj.rc >= 1, "dec on rc 0");
        obj.rc -= 1;
        if obj.rc == 0 {
            self.free_transitively(slot);
        }
    }

    /// Frees `slot` and — iteratively, without using the machine stack —
    /// every transitively-owned child whose refcount reaches zero. The
    /// worklist buffer persists on the heap (`dec_scratch`), so the free
    /// path itself does not allocate. Out of line and cold: it keeps the
    /// far more frequent dec that frees nothing small enough to inline.
    #[cold]
    #[inline(never)]
    fn free_transitively(&mut self, slot: u32) {
        let mut worklist = std::mem::take(&mut self.dec_scratch);
        debug_assert!(worklist.is_empty());
        self.free_one(slot, &mut worklist);
        while let Some(r) = worklist.pop() {
            let slot = r.as_heap().expect("worklist holds heap refs");
            let obj = &mut self.slots[slot as usize];
            debug_assert!(
                !matches!(obj.data, ObjData::Free(_)),
                "dec on freed slot {slot}"
            );
            debug_assert!(obj.rc >= 1, "dec on rc 0");
            obj.rc -= 1;
            if obj.rc == 0 {
                self.free_one(slot, &mut worklist);
            }
        }
        self.dec_scratch = worklist;
    }

    /// Frees one object: threads the slot onto the free list, queues its
    /// heap children for a deferred dec on `worklist`, and links a
    /// constructor's field block onto the free list for its length.
    fn free_one(&mut self, slot: u32, worklist: &mut Vec<ObjRef>) {
        let obj = &mut self.slots[slot as usize];
        let next_free = self.free_head.unwrap_or(u32::MAX);
        let data = std::mem::replace(&mut obj.data, ObjData::Free(next_free));
        self.free_head = Some(slot);
        self.stats.frees += 1;
        self.stats.live -= 1;
        self.stats.live_bytes -= obj_bytes(&data);
        match data {
            ObjData::Ctor { off, len, .. } => {
                let block = &self.fields[off as usize..off as usize + len as usize];
                worklist.extend(block.iter().copied().filter(|f| f.is_heap()));
                self.free_block(off, len);
            }
            ObjData::Closure { args, .. } => {
                worklist.extend(args.iter().copied().filter(|a| a.is_heap()));
            }
            ObjData::Array(elems) => {
                worklist.extend(elems.iter().copied().filter(|e| e.is_heap()));
            }
            ObjData::BigInt(_) | ObjData::Str(_) => {}
            ObjData::Free(_) => unreachable!(),
        }
    }

    // ---- arrays ------------------------------------------------------------

    /// Array length, or `None` when `r` is not a heap array — the cheap
    /// guard the VM's array fast paths branch on before touching elements.
    pub fn try_array_len(&self, r: ObjRef) -> Option<usize> {
        if !r.is_heap() {
            return None;
        }
        match self.data(r) {
            ObjData::Array(v) => Some(v.len()),
            _ => None,
        }
    }

    /// Array length.
    pub fn array_len(&self, r: ObjRef) -> usize {
        match self.data(r) {
            ObjData::Array(v) => v.len(),
            other => panic!("array_len on non-array {other:?}"),
        }
    }

    /// Reads an array element (no refcount change).
    pub fn array_get(&self, r: ObjRef, idx: usize) -> ObjRef {
        match self.data(r) {
            ObjData::Array(v) => v[idx],
            other => panic!("array_get on non-array {other:?}"),
        }
    }

    /// Functional array update with LEAN's exclusivity optimization: updates
    /// in place when `rc == 1`, otherwise copies. Consumes one reference to
    /// `arr` and takes ownership of `v`; returns the resulting array.
    pub fn array_set(&mut self, arr: ObjRef, idx: usize, v: ObjRef) -> ObjRef {
        if self.is_exclusive(arr) {
            let old = match &mut self.obj_mut(arr).data {
                ObjData::Array(elems) => std::mem::replace(&mut elems[idx], v),
                other => panic!("array_set on non-array {other:?}"),
            };
            self.dec(old);
            arr
        } else {
            let mut elems = match self.data(arr) {
                ObjData::Array(elems) => elems.clone(),
                other => panic!("array_set on non-array {other:?}"),
            };
            for &e in &elems {
                self.inc(e);
            }
            // Release the reference the caller handed us, and the +1 we gave
            // the element we are about to overwrite.
            self.dec(elems[idx]);
            elems[idx] = v;
            self.dec(arr);
            self.alloc_array(elems)
        }
    }

    /// Appends to an array with the same exclusivity optimization.
    pub fn array_push(&mut self, arr: ObjRef, v: ObjRef) -> ObjRef {
        if self.is_exclusive(arr) {
            match &mut self.obj_mut(arr).data {
                ObjData::Array(elems) => elems.push(v),
                other => panic!("array_push on non-array {other:?}"),
            }
            // The in-place push grew the array by one element word — the
            // only mutation path that changes an object's size after alloc.
            self.stats.live_bytes += 8;
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
            if self.byte_limit.is_some_and(|l| self.stats.live_bytes > l) {
                self.tripped = true;
            }
            arr
        } else {
            let mut elems = match self.data(arr) {
                ObjData::Array(elems) => elems.clone(),
                other => panic!("array_push on non-array {other:?}"),
            };
            for &e in &elems {
                self.inc(e);
            }
            elems.push(v);
            self.dec(arr);
            self.alloc_array(elems)
        }
    }

    // ---- strings -----------------------------------------------------------

    /// Reads a string object.
    pub fn get_str(&self, r: ObjRef) -> &str {
        match self.data(r) {
            ObjData::Str(s) => s,
            other => panic!("get_str on non-string {other:?}"),
        }
    }

    // ---- structural helpers -------------------------------------------------

    /// Deep structural equality of two values (used by the differential test
    /// harness to compare program results across pipelines).
    pub fn deep_eq(&self, a: ObjRef, b: ObjRef) -> bool {
        let mut stack = vec![(a, b)];
        while let Some((a, b)) = stack.pop() {
            if a == b {
                continue;
            }
            match (a.as_scalar(), b.as_scalar()) {
                (Some(x), Some(y)) => {
                    if x != y {
                        return false;
                    }
                }
                (None, None) => match (self.data(a), self.data(b)) {
                    (ObjData::Ctor { tag: t1, .. }, ObjData::Ctor { tag: t2, .. }) => {
                        let (f1, f2) = (self.ctor_fields(a), self.ctor_fields(b));
                        if t1 != t2 || f1.len() != f2.len() {
                            return false;
                        }
                        stack.extend(f1.iter().copied().zip(f2.iter().copied()));
                    }
                    (ObjData::BigInt(x), ObjData::BigInt(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (ObjData::Array(x), ObjData::Array(y)) => {
                        if x.len() != y.len() {
                            return false;
                        }
                        stack.extend(x.iter().copied().zip(y.iter().copied()));
                    }
                    (ObjData::Str(x), ObjData::Str(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (
                        ObjData::Closure {
                            func: fa, args: aa, ..
                        },
                        ObjData::Closure {
                            func: fb, args: ab, ..
                        },
                    ) => {
                        if fa != fb || aa.len() != ab.len() {
                            return false;
                        }
                        stack.extend(aa.iter().copied().zip(ab.iter().copied()));
                    }
                    _ => return false,
                },
                // Scalar vs boxed bigint holding the same value can only
                // happen if boxing discipline was violated; treat by value.
                _ => {
                    let (s, h) = if a.is_scalar() { (a, b) } else { (b, a) };
                    match self.data(h) {
                        ObjData::BigInt(i) => {
                            if i.to_i64() != s.as_scalar() {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
            }
        }
        true
    }

    /// Renders a value for display/debugging (a stable textual form used to
    /// compare outputs across pipelines).
    pub fn render(&self, r: ObjRef) -> String {
        match r.as_scalar() {
            Some(v) => v.to_string(),
            None => match self.data(r) {
                ObjData::Ctor { tag, .. } => {
                    let fs: Vec<String> = self
                        .ctor_fields(r)
                        .iter()
                        .map(|&f| self.render(f))
                        .collect();
                    format!("ctor{tag}({})", fs.join(", "))
                }
                ObjData::BigInt(i) => i.to_string(),
                ObjData::Closure { func, arity, args } => {
                    format!("closure<{func}/{arity}:{}>", args.len())
                }
                ObjData::Array(elems) => {
                    let es: Vec<String> = elems.iter().map(|&e| self.render(e)).collect();
                    format!("#[{}]", es.join(", "))
                }
                ObjData::Str(s) => format!("{s:?}"),
                ObjData::Free(_) => "<freed>".to_string(),
            },
        }
    }
}

// Panics of the inlined accessors, out of line so their formatting code
// stays off the hot path.

#[cold]
#[inline(never)]
fn not_heap(r: ObjRef) -> ! {
    panic!("expected heap reference, got scalar {r:?}")
}

#[cold]
#[inline(never)]
fn bad_scalar_tag(v: i64) -> ! {
    panic!("scalar ctor tag out of range: {v}")
}

#[cold]
#[inline(never)]
fn not_a_ctor(op: &str, data: &ObjData) -> ! {
    panic!("{op} on non-constructor {data:?}")
}

#[cold]
#[inline(never)]
fn field_out_of_bounds(idx: usize, len: u32) -> ! {
    panic!("field {idx} out of bounds of a {len}-field constructor")
}

#[cold]
#[inline(never)]
fn field_count_mismatch(len: usize) -> ! {
    panic!("constructor fields iterator reported {len} fields but yielded a different number")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::FuncId;

    /// A one-field constructor: the smallest constructor that is a heap
    /// object.
    fn cell(h: &mut Heap, tag: u32) -> ObjRef {
        h.alloc_ctor(tag, [ObjRef::scalar(0)])
    }

    /// Where a heap constructor's fields start in the field arena.
    fn block_of(h: &Heap, r: ObjRef) -> u32 {
        match *h.data(r) {
            ObjData::Ctor { off, .. } => off,
            ref other => panic!("not a constructor: {other:?}"),
        }
    }

    #[test]
    fn alloc_and_free_reuses_slots() {
        let mut h = Heap::new();
        let a = cell(&mut h, 0);
        let slot_a = a.as_heap().unwrap();
        h.dec(a);
        assert_eq!(h.stats().live, 0);
        let b = cell(&mut h, 1);
        assert_eq!(b.as_heap().unwrap(), slot_a, "slot should be reused");
        assert_eq!(h.ctor_tag(b), 1);
    }

    #[test]
    fn dec_frees_transitively() {
        let mut h = Heap::new();
        let mut list = cell(&mut h, 0);
        for i in 0..100 {
            list = h.alloc_ctor(1, vec![ObjRef::scalar(i), list]);
        }
        assert_eq!(h.stats().live, 101);
        h.dec(list);
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.stats().frees, 101);
    }

    #[test]
    fn shared_child_survives_parent_free() {
        let mut h = Heap::new();
        let child = cell(&mut h, 7);
        h.inc(child); // one ref for us, one for parent
        let parent = h.alloc_ctor(1, vec![child]);
        h.dec(parent);
        assert_eq!(h.stats().live, 1);
        assert_eq!(h.ctor_tag(child), 7);
        h.dec(child);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn deep_list_free_does_not_overflow_stack() {
        let mut h = Heap::new();
        let mut list = h.alloc_ctor(0, vec![]);
        for _ in 0..1_000_000 {
            list = h.alloc_ctor(1, vec![ObjRef::scalar(0), list]);
        }
        h.dec(list);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn mk_nat_boxes_only_large() {
        let mut h = Heap::new();
        let small = h.mk_nat(Nat::from_u64(12345));
        assert!(small.is_scalar());
        let big = h.mk_nat(Nat::from_u64(u64::MAX));
        assert!(big.is_heap());
        assert_eq!(h.get_nat(big).to_u64(), Some(u64::MAX));
    }

    #[test]
    fn mk_int_negative_scalars() {
        let mut h = Heap::new();
        let v = h.mk_int(Int::from_i64(-5));
        assert_eq!(v.as_scalar(), Some(-5));
        let big = h.mk_int(Int::from_i64(i64::MIN));
        assert!(big.is_heap());
        assert_eq!(h.get_int(big).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn array_set_exclusive_in_place() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![ObjRef::scalar(1), ObjRef::scalar(2)]);
        let arr2 = h.array_set(arr, 0, ObjRef::scalar(9));
        assert_eq!(arr, arr2, "exclusive update must be in place");
        assert_eq!(h.array_get(arr2, 0).as_scalar(), Some(9));
        assert_eq!(h.stats().allocs, 1);
    }

    #[test]
    fn array_set_shared_copies() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![ObjRef::scalar(1), ObjRef::scalar(2)]);
        h.inc(arr); // simulate sharing
        let arr2 = h.array_set(arr, 0, ObjRef::scalar(9));
        assert_ne!(arr, arr2, "shared update must copy");
        assert_eq!(h.array_get(arr, 0).as_scalar(), Some(1));
        assert_eq!(h.array_get(arr2, 0).as_scalar(), Some(9));
        h.dec(arr);
        h.dec(arr2);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn array_set_shared_preserves_heap_elements() {
        let mut h = Heap::new();
        let elem = cell(&mut h, 3);
        let arr = h.alloc_array(vec![elem, ObjRef::scalar(0)]);
        h.inc(arr);
        let arr2 = h.array_set(arr, 1, ObjRef::scalar(5));
        // `elem` is now referenced by both arrays.
        assert_eq!(h.rc(elem), 2);
        h.dec(arr);
        h.dec(arr2);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn array_push_shared_and_exclusive() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![]);
        let arr = h.array_push(arr, ObjRef::scalar(1));
        let arr = h.array_push(arr, ObjRef::scalar(2));
        assert_eq!(h.array_len(arr), 2);
        h.inc(arr);
        let arr2 = h.array_push(arr, ObjRef::scalar(3));
        assert_ne!(arr, arr2);
        assert_eq!(h.array_len(arr), 2);
        assert_eq!(h.array_len(arr2), 3);
        h.dec(arr);
        h.dec(arr2);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn deep_eq_structures() {
        let mut h = Heap::new();
        let n1 = h.alloc_ctor(0, vec![]);
        let n2 = h.alloc_ctor(0, vec![]);
        let l1 = h.alloc_ctor(1, vec![ObjRef::scalar(5), n1]);
        let l2 = h.alloc_ctor(1, vec![ObjRef::scalar(5), n2]);
        assert!(h.deep_eq(l1, l2));
        let l3 = h.alloc_ctor(1, vec![ObjRef::scalar(6), l1]);
        assert!(!h.deep_eq(l2, l3));
    }

    #[test]
    fn render_values() {
        let mut h = Heap::new();
        let nil = h.alloc_ctor(0, vec![]);
        let cons = h.alloc_ctor(1, vec![ObjRef::scalar(3), nil]);
        assert_eq!(h.render(cons), "ctor1(3, 0)");
        let arr = h.alloc_array(vec![ObjRef::scalar(1)]);
        assert_eq!(h.render(arr), "#[1]");
        let clos = h.alloc_closure(FuncId(2), 3, vec![ObjRef::scalar(0)]);
        assert_eq!(h.render(clos), "closure<@fn2/3:1>");
    }

    #[test]
    fn byte_accounting_tracks_alloc_free_and_push() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![ObjRef::scalar(1)]);
        assert_eq!(h.stats().live_bytes, 16 + 8);
        let arr = h.array_push(arr, ObjRef::scalar(2));
        assert_eq!(h.stats().live_bytes, 16 + 16, "in-place push adds a word");
        let s = h.alloc_str("hello".to_string());
        assert_eq!(h.stats().live_bytes, 16 + 16 + 16 + 5);
        assert_eq!(h.stats().peak_bytes, h.stats().live_bytes);
        h.dec(s);
        h.dec(arr);
        assert_eq!(h.stats().live_bytes, 0);
        assert_eq!(h.stats().peak_bytes, 16 + 16 + 16 + 5);
    }

    #[test]
    fn byte_limit_trips_sticky() {
        let mut h = Heap::new();
        h.set_byte_limit(Some(64));
        let mut keep = Vec::new();
        for i in 0..4 {
            keep.push(h.alloc_ctor(0, vec![ObjRef::scalar(i)]));
        }
        assert!(h.over_budget(), "4 * 24 bytes must exceed the 64-byte cap");
        // Freeing below the cap does not clear the trip: it is sticky so the
        // VM's checkpoint can observe it after the fact.
        for r in keep {
            h.dec(r);
        }
        assert!(h.over_budget());
        h.clear_budget_trip();
        assert!(!h.over_budget());
    }

    #[test]
    fn trip_alloc_fault_injection() {
        let mut h = Heap::new();
        h.set_trip_alloc(Some(3));
        cell(&mut h, 0);
        cell(&mut h, 0);
        assert!(!h.over_budget());
        cell(&mut h, 0);
        assert!(h.over_budget(), "third allocation must trip the fault");
    }

    #[test]
    fn free_all_reclaims_everything_and_balances() {
        let mut h = Heap::new();
        let keep = cell(&mut h, 0);
        let mut list = cell(&mut h, 0);
        for i in 0..10 {
            list = h.alloc_ctor(1, vec![ObjRef::scalar(i), list]);
        }
        h.dec(keep); // one slot already on the free list
        assert_eq!(h.live_objects(), h.stats().live);
        let freed = h.free_all();
        assert_eq!(freed, 11);
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.stats().allocs, h.stats().frees);
        assert_eq!(h.stats().live_bytes, 0);
        // The arena is fully reusable afterwards.
        let again = cell(&mut h, 9);
        assert_eq!(h.ctor_tag(again), 9);
        assert_eq!(h.stats().live, 1);
    }

    #[test]
    fn peak_live_tracking() {
        let mut h = Heap::new();
        let a = cell(&mut h, 0);
        let b = cell(&mut h, 0);
        h.dec(a);
        h.dec(b);
        let _c = cell(&mut h, 0);
        assert_eq!(h.stats().peak_live, 2);
        assert_eq!(h.stats().live, 1);
    }

    #[test]
    fn nullary_ctor_is_a_scalar_and_allocates_nothing() {
        let mut h = Heap::new();
        let nil = h.alloc_ctor(4, vec![]);
        assert_eq!(nil, ObjRef::scalar(4));
        assert_eq!(h.ctor_tag(nil), 4);
        assert_eq!(h.render(nil), "4");
        h.inc(nil);
        h.dec(nil);
        let s = h.stats();
        assert_eq!(
            (s.allocs, s.ctor_allocs, s.live, s.live_bytes),
            (0, 0, 0, 0)
        );
        assert_eq!((s.incs, s.decs), (1, 1), "rc traffic is still counted");
        assert!(h.fields.is_empty(), "no arena words for a nullary ctor");
    }

    #[test]
    fn freed_block_is_reused_by_same_length_only() {
        let mut h = Heap::new();
        let pair = h.alloc_ctor(1, [ObjRef::scalar(1), ObjRef::scalar(2)]);
        let block = block_of(&h, pair);
        h.dec(pair);
        let single = cell(&mut h, 1);
        assert_ne!(
            block_of(&h, single),
            block,
            "a 1-field ctor took a 2-word block"
        );
        let again = h.alloc_ctor(2, [ObjRef::scalar(3), ObjRef::scalar(4)]);
        assert_eq!(block_of(&h, again), block, "the 2-word block is reused");
        assert_eq!(
            h.ctor_fields(again),
            &[ObjRef::scalar(3), ObjRef::scalar(4)][..]
        );
        assert_eq!(h.ctor_field(single, 0), ObjRef::scalar(0));
        assert_eq!(
            h.fields.len(),
            3,
            "the arena grew only for the 1-field ctor"
        );
    }

    #[test]
    fn free_all_empties_the_field_arena() {
        let mut h = Heap::new();
        let a = h.alloc_ctor(1, [ObjRef::scalar(1), ObjRef::scalar(2)]);
        let _b = h.alloc_ctor(1, [a, ObjRef::scalar(3), ObjRef::scalar(4)]);
        let c = cell(&mut h, 0);
        h.dec(c);
        assert_eq!(h.free_all(), 2);
        assert!(h.fields.is_empty());
        assert!(h.free_blocks.is_empty());
        let d = cell(&mut h, 5);
        assert_eq!(block_of(&h, d), 0, "a fresh arena starts at offset 0");
        assert_eq!(h.ctor_tag(d), 5);
    }

    #[test]
    #[should_panic(expected = "field 2 out of bounds of a 2-field constructor")]
    fn ctor_field_past_len_panics() {
        let mut h = Heap::new();
        let pair = h.alloc_ctor(1, [ObjRef::scalar(1), ObjRef::scalar(2)]);
        // The next arena words exist (another ctor's), but are not this
        // ctor's fields.
        let _next = cell(&mut h, 0);
        h.ctor_field(pair, 2);
    }

    /// An iterator whose `len()` claims `claimed` items but yields `n`.
    struct Lying {
        n: usize,
        claimed: usize,
    }

    impl Iterator for Lying {
        type Item = ObjRef;
        fn next(&mut self) -> Option<ObjRef> {
            self.n = self.n.checked_sub(1)?;
            Some(ObjRef::scalar(0))
        }
    }

    impl ExactSizeIterator for Lying {
        fn len(&self) -> usize {
            self.claimed
        }
    }

    #[test]
    #[should_panic(expected = "reported 3 fields")]
    fn iterator_shorter_than_its_len_panics() {
        Heap::new().alloc_ctor(1, Lying { n: 2, claimed: 3 });
    }

    #[test]
    #[should_panic(expected = "reported 2 fields")]
    fn iterator_longer_than_its_len_panics() {
        Heap::new().alloc_ctor(1, Lying { n: 3, claimed: 2 });
    }

    #[test]
    #[should_panic(expected = "reported 0 fields")]
    fn iterator_claiming_no_fields_but_yielding_panics() {
        Heap::new().alloc_ctor(1, Lying { n: 1, claimed: 0 });
    }
}
