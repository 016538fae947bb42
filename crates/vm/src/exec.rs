//! The execution engine.
//!
//! An iterative interpreter over a pooled frame stack, executing the
//! pre-decoded instruction stream of [`crate::decode`]:
//!
//! - frames live in a **pool with a free list** — the stack holds indices
//!   into the pool, a `Ret` returns its frame (register file included) to
//!   the free list, and the next call reuses it without reallocating;
//! - `TailCall` *reuses the current frame's register file in place* — tail
//!   calls consume no stack and, once warm, **no heap allocation per
//!   iteration**, delivering the `musttail` guarantee of §III-E at zero
//!   amortized cost;
//! - `PapExtend` uses the shared saturation semantics from `lssa-rt`, so
//!   closure behaviour matches the reference interpreter exactly;
//! - every instruction executed is counted **per opcode class**
//!   ([`VmStatistics`], the run-side analogue of `lssa-ir`'s per-pass
//!   `PassStatistics`), giving a deterministic performance metric alongside
//!   wall-clock time.
//!
//! ## The interpreter loop
//!
//! One threaded loop executes the decoded stream. It caches the program
//! counter and the current frame in locals for the lifetime of an
//! *activation* (the stretch of instructions between frame transitions),
//! keeps the hot opcodes — arithmetic, branches, constants, moves, the
//! loop-header/tail superinstructions, calls and returns — on an inlined
//! fast path, and dispatches the cold classes (allocation, globals, rare
//! arithmetic) through a function-pointer table indexed by the cell's
//! [`OpClass`] ([`DecodedInstr::class`], the same index the per-class
//! statistics use), one `#[inline(never)]` handler per cold class.
//!
//! **Scalar builtins** cost one dispatch where decode could fuse them:
//! a decided comparison and its branch run as one
//! [`DecodedInstr::BuiltinBr`], and a builtin with a small constant
//! operand as one [`DecodedInstr::BuiltinImm`]. Both — like `CallBuiltin`
//! itself — finish inline when every operand is a scalar, and otherwise
//! fall back to the generic [`Builtin::call`] with its diagnostics. Every
//! path leaves the counters exactly as the cells it replaced would: the
//! borrow mask's retains, the consuming releases (statistics only, on
//! scalars) and one call.
//!
//! **Inline caches** give every `Call`/`PapExtend` site a [`CacheSlot`]:
//! the first successful execution proves the target's function index and
//! arity, and repeat executions skip the function lookup, the arity
//! re-check and — for `PapExtend` at exact saturation of an unapplied
//! closure — the whole closure unpack and argument `Vec` build. Sites
//! past a function's slot budget ([`NO_CACHE`]) take the uncached path.
//! Monomorphic hit/miss counters land in [`VmStatistics`].

use crate::bytecode::{CompiledProgram, Reg};
use crate::decode::{
    ArgSlice, DecodeOptions, DecodedFn, DecodedInstr, DecodedProgram, OpClass, NO_CACHE,
};
use lssa_rt::object::{MAX_SMALL_INT, MAX_SMALL_NAT, MIN_SMALL_INT};
use lssa_rt::{
    pap_extend, pap_new, ApplyOutcome, Builtin, FuncId, Heap, HeapStats, Int, ObjData, ObjRef,
};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-job resource limits, threaded through [`ExecOptions`] into the VM.
///
/// Every limit defaults to "unlimited". Steps, heap bytes and frame depth
/// are deterministic (counted in VM events, identical on every run); the
/// deadline is wall-clock and therefore host-dependent — use it for
/// operational protection, not for reproducible failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLimits {
    /// Maximum instructions executed (`u64::MAX` = unlimited). Combined
    /// with the `max_steps` constructor argument by `min`.
    pub steps: u64,
    /// Cap on approximate live heap bytes (`u64::MAX` = unlimited); see
    /// `lssa_rt::heap::obj_bytes` for the size model.
    pub heap_bytes: u64,
    /// Maximum frame-stack depth (`u64::MAX` = unlimited).
    pub max_depth: u64,
    /// Wall-clock budget, armed at each [`Vm::call`] entry.
    pub deadline: Option<Duration>,
}

impl Default for JobLimits {
    fn default() -> JobLimits {
        JobLimits {
            steps: u64::MAX,
            heap_bytes: u64::MAX,
            max_depth: u64::MAX,
            deadline: None,
        }
    }
}

impl JobLimits {
    /// Same limits with the step budget replaced.
    pub fn with_steps(self, steps: u64) -> JobLimits {
        JobLimits { steps, ..self }
    }

    /// Same limits with the live-heap-byte cap replaced.
    pub fn with_heap_bytes(self, heap_bytes: u64) -> JobLimits {
        JobLimits { heap_bytes, ..self }
    }

    /// Same limits with the frame-depth cap replaced.
    pub fn with_max_depth(self, max_depth: u64) -> JobLimits {
        JobLimits { max_depth, ..self }
    }

    /// Same limits with the wall-clock deadline replaced.
    pub fn with_deadline(self, deadline: Option<Duration>) -> JobLimits {
        JobLimits { deadline, ..self }
    }
}

/// A deterministic fault-injection plan, for exercising the abort paths.
///
/// All trigger points are counted in VM events (steps or allocations), so a
/// plan produces the identical failure at the identical point on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Force step-budget exhaustion once this many instructions executed.
    pub exhaust_at: Option<u64>,
    /// Trip the heap budget at the Nth allocation.
    pub trip_alloc: Option<u64>,
    /// Plant a panic at the checkpoint following this instruction count.
    pub panic_at: Option<u64>,
    /// Trigger cancellation at the checkpoint following this count.
    pub cancel_at: Option<u64>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// A shared cooperative-cancellation flag: clone it into a job, flip it from
/// any thread, and the VM aborts with [`VmErrorKind::Cancelled`] at its next
/// budget checkpoint (at most ~1024 instructions later).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (sticky).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Execution-time options (the run-side sibling of
/// [`crate::decode::DecodeOptions`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Per-job resource limits (default: unlimited).
    pub limits: JobLimits,
    /// Deterministic fault injection (default: none).
    pub fault: FaultPlan,
}

impl ExecOptions {
    /// Same options with the resource limits replaced.
    pub fn with_limits(self, limits: JobLimits) -> ExecOptions {
        ExecOptions { limits, ..self }
    }

    /// Same options with the fault plan replaced.
    pub fn with_fault(self, fault: FaultPlan) -> ExecOptions {
        ExecOptions { fault, ..self }
    }
}

/// How many instructions may execute between budget checkpoints when any
/// polled feature (deadline, cancellation, heap budget, injected fault) is
/// armed. The hot loops compare `steps` against a precomputed `stop_at`, so
/// polling costs nothing on the per-instruction path.
const POLL_INTERVAL: u64 = 1024;

/// Inline-cache slot states (see [`CacheSlot::state`]).
const SLOT_COLD: u8 = 0;
const SLOT_CALL: u8 = 1;
const SLOT_PAP: u8 = 2;

/// One per-call-site inline cache cell. Slots live in a per-[`Vm`] pool
/// (sized by [`DecodedProgram::cache_slots`]) so the shared, memoized
/// decoded program stays immutable.
///
/// A `Call` site caches the proof that its (static) target index and
/// argument count validated, plus the callee's register-file size; a
/// `PapExtend` site caches the function id and arity of the last unapplied
/// closure invoked at exact saturation.
#[derive(Debug, Clone, Copy)]
pub struct CacheSlot {
    /// Cached target function (VM index). Meaningful for `SLOT_PAP`.
    func: u32,
    /// Cached target arity.
    arity: u16,
    /// Cached target register-file size (what the frame resize needs).
    n_regs: u16,
    /// `SLOT_COLD` until the first successful execution.
    state: u8,
}

impl Default for CacheSlot {
    fn default() -> CacheSlot {
        CacheSlot {
            func: 0,
            arity: 0,
            n_regs: 0,
            state: SLOT_COLD,
        }
    }
}

/// Structured classification of a [`VmError`] — what killed the run, as a
/// machine-readable kind alongside the human-readable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmErrorKind {
    /// A genuine runtime fault (type confusion, bad arity, missing entry…).
    Trap,
    /// The step budget ([`JobLimits::steps`] or the `max_steps` argument)
    /// was exhausted.
    StepBudget,
    /// The live-heap-byte cap ([`JobLimits::heap_bytes`]) was exceeded.
    HeapBudget,
    /// The frame-depth cap ([`JobLimits::max_depth`]) was exceeded.
    DepthBudget,
    /// The wall-clock deadline ([`JobLimits::deadline`]) passed.
    Deadline,
    /// A [`CancelToken`] was flipped (or a planned cancellation fired).
    Cancelled,
}

impl VmErrorKind {
    /// Whether this kind is a resource-governance abort (budget, deadline or
    /// cancellation) rather than a program fault — the distinction the CLI
    /// maps to exit code 3.
    pub fn is_resource(self) -> bool {
        !matches!(self, VmErrorKind::Trap)
    }

    /// Stable kebab-case name (used in JSON reports).
    pub fn code(self) -> &'static str {
        match self {
            VmErrorKind::Trap => "trap",
            VmErrorKind::StepBudget => "step-budget",
            VmErrorKind::HeapBudget => "heap-budget",
            VmErrorKind::DepthBudget => "depth-budget",
            VmErrorKind::Deadline => "deadline",
            VmErrorKind::Cancelled => "cancelled",
        }
    }
}

/// A runtime failure (trap, resource budgets, type confusion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    /// Description.
    pub message: String,
    /// Structured failure class.
    pub kind: VmErrorKind,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm error: {}", self.message)
    }
}

impl std::error::Error for VmError {}

fn err(message: impl Into<String>) -> VmError {
    VmError {
        message: message.into(),
        kind: VmErrorKind::Trap,
    }
}

impl VmError {
    fn of_kind(kind: VmErrorKind, message: impl Into<String>) -> VmError {
        VmError {
            message: message.into(),
            kind,
        }
    }

    fn step_budget() -> VmError {
        VmError::of_kind(VmErrorKind::StepBudget, lssa_rt::STEP_BUDGET_MSG)
    }

    fn heap_budget() -> VmError {
        VmError::of_kind(VmErrorKind::HeapBudget, "heap budget exhausted")
    }

    fn depth_budget() -> VmError {
        VmError::of_kind(VmErrorKind::DepthBudget, "frame depth budget exhausted")
    }

    fn deadline() -> VmError {
        VmError::of_kind(VmErrorKind::Deadline, "deadline exceeded")
    }

    fn cancelled() -> VmError {
        VmError::of_kind(VmErrorKind::Cancelled, "job cancelled")
    }
}

/// Execution statistics (the compact summary; see [`VmStatistics`] for the
/// per-opcode-class breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Function calls made (including tail calls).
    pub calls: u64,
    /// Maximum frame-stack depth.
    pub max_stack: u64,
    /// Heap statistics at the end of the run.
    pub heap: HeapStats,
}

/// Per-opcode-class execution statistics — the VM-side mirror of the
/// compile-side `PassStatistics`: what ran, how often, what it allocated,
/// and how long the whole run took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStatistics {
    /// Instructions executed, per [`OpClass`] (indexed by discriminant).
    pub executed: [u64; OpClass::COUNT],
    /// Heap objects allocated while executing each class.
    pub class_allocs: [u64; OpClass::COUNT],
    /// Total instructions executed.
    pub instructions: u64,
    /// Function calls made (including tail calls).
    pub calls: u64,
    /// Maximum frame-stack depth (the frame pool's high-water mark).
    pub max_depth: u64,
    /// Frames freshly allocated in the pool (not reused).
    pub frame_allocs: u64,
    /// Frames recycled through the free list.
    pub frame_reuses: u64,
    /// Tail calls that reused the current register file in place.
    pub tail_frame_reuses: u64,
    /// Superinstruction cells in the decoded stream (static count; 0 when
    /// decoded with `--no-fuse`).
    pub fused_cells: u64,
    /// Inline-cache monomorphic hits (call sites that skipped the target
    /// lookup / closure unpack).
    pub cache_hits: u64,
    /// Inline-cache misses (cold or megamorphic sites that took the full
    /// validation path).
    pub cache_misses: u64,
    /// Widest register file wired to any frame (post-renumbering width).
    pub max_frame_width: u64,
    /// Bytes retained by the frame pool's register files at the end of the
    /// run (capacity, not length — what the pool actually holds onto).
    pub frame_pool_bytes: u64,
    /// Register-file words eliminated by decode-time renumbering (static
    /// count over the whole program; 0 for an unfused decode, which is
    /// not renumbered).
    pub regs_saved: u64,
    /// Wall time spent executing.
    pub duration: Duration,
    /// Heap statistics at the end of the run.
    pub heap: HeapStats,
}

impl VmStatistics {
    /// Executed count for one class.
    pub fn executed_of(&self, class: OpClass) -> u64 {
        self.executed[class as usize]
    }

    /// Heap allocations attributed to one class.
    pub fn allocs_of(&self, class: OpClass) -> u64 {
        self.class_allocs[class as usize]
    }

    /// Executed cells that were fused superinstructions.
    pub fn fused_executed(&self) -> u64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_fused())
            .map(|&c| self.executed_of(c))
            .sum()
    }

    /// Share of executed cells that were fused superinstructions (0..=1).
    pub fn fused_share(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.fused_executed() as f64 / self.instructions as f64
        }
    }

    /// Inline-cache hit rate over all probed call sites (0..=1).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Renders the per-opcode-class table (the payload behind
    /// `lssa run --vm-stats`), in the same fixed-width style as the
    /// compile-side pass tables.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "vm: {} instructions, {} calls, max depth {}, {:.3}ms",
            self.instructions,
            self.calls,
            self.max_depth,
            self.duration.as_secs_f64() * 1e3,
        );
        let _ = writeln!(
            out,
            "  {:<21} {:>14} {:>12} {:>7}",
            "opcode class", "executed", "heap-allocs", "share"
        );
        for class in OpClass::ALL {
            let executed = self.executed_of(class);
            if executed == 0 {
                continue;
            }
            let share = if self.instructions == 0 {
                0.0
            } else {
                executed as f64 * 100.0 / self.instructions as f64
            };
            let _ = writeln!(
                out,
                "  {:<21} {:>14} {:>12} {:>6.1}%",
                class.name(),
                executed,
                self.allocs_of(class),
                share,
            );
        }
        let _ = writeln!(
            out,
            "  frames: {} allocated, {} reused via free list, {} tail-call in-place reuses",
            self.frame_allocs, self.frame_reuses, self.tail_frame_reuses,
        );
        let _ = writeln!(
            out,
            "  frame pool: {} bytes retained, widest frame {} regs, {} register slots saved by renumbering",
            self.frame_pool_bytes, self.max_frame_width, self.regs_saved,
        );
        let _ = writeln!(
            out,
            "  caches: {} monomorphic hits, {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0,
        );
        let _ = writeln!(
            out,
            "  fused: {} superinstruction cells decoded, {:.1}% of executed cells were fused",
            self.fused_cells,
            self.fused_share() * 100.0,
        );
        let _ = writeln!(
            out,
            "  heap: {} allocs ({} ctor, {} closure, {} array, {} str, {} bigint), {} frees, peak {} live",
            self.heap.allocs,
            self.heap.ctor_allocs,
            self.heap.closure_allocs,
            self.heap.array_allocs,
            self.heap.str_allocs,
            self.heap.bigint_allocs,
            self.heap.frees,
            self.heap.peak_live,
        );
        out
    }
}

/// Result of running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Stable rendering of the produced value.
    pub rendered: String,
    /// Compact statistics.
    pub stats: ExecStats,
    /// Per-opcode-class statistics.
    pub vm_stats: VmStatistics,
}

/// One pooled frame. The register file and the over-application buffer are
/// retained across reuses, so a recycled frame allocates only when it is
/// wired to a function *wider* than any it has held before — steady-state
/// loops (same functions over and over) make zero heap allocations per
/// iteration. Register renumbering (part of the fused decode, see
/// [`crate::decode::DecodeOptions`]) shrinks those widths to the
/// referenced-register count, so the pool both grows less often and
/// retains less.
#[derive(Debug, Default)]
struct Frame {
    func: u32,
    pc: u32,
    /// Register in the *caller's* frame receiving the return value.
    ret_dst: Reg,
    regs: Vec<u64>,
    /// Arguments still to be applied to the returned closure
    /// (over-saturated `papextend`).
    after_ret: Vec<ObjRef>,
}

/// Scalar-scalar fast path for the hottest two-argument builtins: when
/// both operands are scalars and the result provably fits a scalar, the
/// whole builtin collapses to register arithmetic — no argument staging,
/// no `Nat`/`Int` round trip through the runtime. Returns the result
/// bits, or `None` when the generic [`Builtin::call`] must run (boxed
/// operands, possible overflow into a bignum, or a builtin without a
/// fast shape). On `Some` the caller still owes the runtime's
/// consume-both convention ([`consume_scalars`]).
#[inline(always)]
fn builtin_fast2(builtin: Builtin, a: u64, b: u64) -> Option<u64> {
    if a & b & 1 != 1 {
        return None;
    }
    let scalar = |v: u64| (v << 1) | 1;
    // Nat builtins: payloads are non-negative by typing; bail to the
    // generic path (and its diagnostics) if one is not.
    let nat_args = || ((a as i64) >= 0 && (b as i64) >= 0).then_some((a >> 1, b >> 1));
    // Int builtins: payloads are arithmetic (sign-extending) shifts.
    let (ia, ib) = ((a as i64) >> 1, (b as i64) >> 1);
    let int_fits = |v: i64| (MIN_SMALL_INT..=MAX_SMALL_INT).contains(&v);
    match builtin {
        // Both operands < 2^62, so the u64 sum cannot wrap.
        Builtin::NatAdd => nat_args().and_then(|(x, y)| {
            let s = x + y;
            (s <= MAX_SMALL_NAT).then(|| scalar(s))
        }),
        Builtin::NatSub => nat_args().map(|(x, y)| scalar(x.saturating_sub(y))),
        Builtin::NatMul => nat_args()
            .and_then(|(x, y)| x.checked_mul(y).filter(|&s| s <= MAX_SMALL_NAT).map(scalar)),
        Builtin::NatDiv => nat_args().map(|(x, y)| scalar(x.checked_div(y).unwrap_or(0))),
        Builtin::NatMod => nat_args().map(|(x, y)| scalar(x.checked_rem(y).unwrap_or(x))),
        Builtin::IntAdd => ia
            .checked_add(ib)
            .filter(|&v| int_fits(v))
            .map(|v| scalar(v as u64)),
        Builtin::IntSub => ia
            .checked_sub(ib)
            .filter(|&v| int_fits(v))
            .map(|v| scalar(v as u64)),
        Builtin::IntMul => ia
            .checked_mul(ib)
            .filter(|&v| int_fits(v))
            .map(|v| scalar(v as u64)),
        // Truncated division with `x / 0 = 0`; small-int payloads can't
        // overflow i64, so `checked_div` is `None` only on a zero divisor.
        // One non-fitting case remains: MIN_SMALL_INT / -1 lands one past
        // MAX_SMALL_INT.
        Builtin::IntDiv => Some(ia.checked_div(ib).unwrap_or(0))
            .filter(|&v| int_fits(v))
            .map(|v| scalar(v as u64)),
        Builtin::IntMod => Some(scalar(ia.checked_rem(ib).unwrap_or(ia) as u64)),
        _ => decide_fast(builtin, a, b).map(|d| scalar(u64::from(d))),
    }
}

/// The scalar fast path of a decided comparison
/// ([`Builtin::returns_scalar`]): the tagged encoding `(v << 1) | 1`
/// keeps the order of the payloads, so two scalars compare as raw words.
/// `None` sends boxed operands, negative `Nat` payloads (the runtime's
/// diagnostics handle those) and other builtins to the generic call.
#[inline(always)]
fn decide_fast(builtin: Builtin, a: u64, b: u64) -> Option<bool> {
    if a & b & 1 != 1 {
        return None;
    }
    let (x, y) = (a as i64, b as i64);
    let nat = x >= 0 && y >= 0;
    match builtin {
        Builtin::NatDecEq if nat => Some(x == y),
        Builtin::NatDecLt if nat => Some(x < y),
        Builtin::NatDecLe if nat => Some(x <= y),
        Builtin::IntDecEq => Some(x == y),
        Builtin::IntDecLt => Some(x < y),
        Builtin::IntDecLe => Some(x <= y),
        _ => None,
    }
}

/// Whether [`builtin_fast2`] has a scalar fast path for `builtin`: the
/// builtins decode fuses with a constant operand
/// ([`DecodedInstr::BuiltinImm`]).
pub(crate) fn has_scalar_fast_path(builtin: Builtin) -> bool {
    matches!(
        builtin,
        Builtin::NatAdd
            | Builtin::NatSub
            | Builtin::NatMul
            | Builtin::NatDiv
            | Builtin::NatMod
            | Builtin::NatDecEq
            | Builtin::NatDecLt
            | Builtin::NatDecLe
            | Builtin::IntAdd
            | Builtin::IntSub
            | Builtin::IntMul
            | Builtin::IntDiv
            | Builtin::IntMod
            | Builtin::IntDecEq
            | Builtin::IntDecLt
            | Builtin::IntDecLe
    )
}

/// The counter effects a builtin call owes after a scalar fast path: the
/// retains of `mask`, then the runtime's consume-both convention —
/// statistics only, as both operands are scalars — so the heap counters
/// match the generic path's.
#[inline(always)]
fn consume_scalars(heap: &mut Heap, mask: u8, a: u64, b: u64) {
    if mask & 1 != 0 {
        heap.inc(ObjRef::from_bits(a));
    }
    if mask & 2 != 0 {
        heap.inc(ObjRef::from_bits(b));
    }
    heap.dec(ObjRef::from_bits(a));
    heap.dec(ObjRef::from_bits(b));
}

/// The generic builtin call every fast path falls back to: stages the
/// arguments in `staged`, retains the `mask` positions, and calls the
/// runtime (which keeps its diagnostics). Returns the result and the
/// number of heap objects the call allocated.
#[inline(never)]
fn call_generic(
    heap: &mut Heap,
    staged: &mut Vec<ObjRef>,
    builtin: Builtin,
    mask: u8,
    args: impl Iterator<Item = ObjRef>,
) -> (ObjRef, u64) {
    staged.clear();
    staged.extend(args);
    if mask != 0 {
        for (i, &v) in staged.iter().enumerate() {
            if mask & (1 << i) != 0 {
                heap.inc(v);
            }
        }
    }
    let a0 = heap.alloc_count();
    let out = builtin.call(heap, staged);
    (out, heap.alloc_count() - a0)
}

/// Wires a (possibly recycled) frame's register file: arguments copied
/// from `scratch`, the remaining registers zeroed. Growth is *exact*,
/// never amortized — a frame reallocates only when wired wider than ever
/// before (a cold event), so the pool's retained footprint
/// ([`VmStatistics::frame_pool_bytes`]) equals each frame's widest-ever
/// wiring. `Vec`'s doubling policy would instead let a recycled frame
/// jump to twice a stale capacity, making a *narrower* renumbered
/// program retain a *larger* pool than the un-renumbered one.
#[inline]
fn wire_regs(regs: &mut Vec<u64>, scratch: &[u64], n_regs: u16) {
    regs.clear();
    let want = (n_regs as usize).max(scratch.len());
    if regs.capacity() < want {
        regs.reserve_exact(want);
    }
    regs.extend_from_slice(scratch);
    regs.resize(n_regs as usize, 0);
}

/// The virtual machine: executes a [`DecodedProgram`] over a pooled frame
/// stack.
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p DecodedProgram,
    /// The runtime heap (public for tests).
    pub heap: Heap,
    globals: Vec<ObjRef>,
    max_steps: u64,
    steps: u64,
    calls: u64,
    max_depth: u64,
    executed: [u64; OpClass::COUNT],
    class_allocs: [u64; OpClass::COUNT],
    frame_allocs: u64,
    frame_reuses: u64,
    tail_frame_reuses: u64,
    cache_hits: u64,
    cache_misses: u64,
    max_frame_width: u64,
    exec_time: Duration,
    /// Frame pool; `stack` holds indices into it, `free` the recyclable ones.
    pool: Vec<Frame>,
    free: Vec<u32>,
    stack: Vec<u32>,
    /// Argument staging buffer, reused across every call and tail call.
    scratch: Vec<u64>,
    /// Object-argument staging buffer for builtin calls, reused likewise.
    scratch_objs: Vec<ObjRef>,
    /// Inline-cache pool, one [`CacheSlot`] per cached call site
    /// (program-wide indexing via [`DecodedFn::cache_base`]).
    caches: Vec<CacheSlot>,
    opts: ExecOptions,
    /// Frame-depth cap from [`JobLimits::max_depth`].
    depth_limit: u64,
    /// Absolute wall-clock deadline, armed at each [`Vm::call`].
    deadline: Option<Instant>,
    /// Cooperative cancellation flag, polled at budget checkpoints.
    cancel: Option<CancelToken>,
    /// Injected fault: panic at the checkpoint after this step count.
    panic_at: Option<u64>,
    /// Injected fault: cancel at the checkpoint after this step count.
    cancel_at: Option<u64>,
    /// Whether any checkpoint-polled feature (deadline, cancellation, heap
    /// budget, planned fault) is armed. When false, `stop_at == max_steps`
    /// and the hot loops pay nothing beyond the pre-existing step compare.
    poll: bool,
    /// The step count at which the interpreter loops leave the hot path for
    /// [`Vm::checkpoint`]: `max_steps` itself, or the next poll boundary.
    stop_at: u64,
}

impl<'p> Vm<'p> {
    /// Creates a VM for a decoded `program` with a step budget, under the
    /// default execution options (no limits, no injected faults).
    pub fn new(program: &'p DecodedProgram, max_steps: u64) -> Vm<'p> {
        Vm::with_options(program, max_steps, ExecOptions::default())
    }

    /// Creates a VM with explicit [`ExecOptions`].
    pub fn with_options(program: &'p DecodedProgram, max_steps: u64, opts: ExecOptions) -> Vm<'p> {
        let mut heap = Heap::new();
        if opts.limits.heap_bytes != u64::MAX {
            heap.set_byte_limit(Some(opts.limits.heap_bytes));
        }
        heap.set_trip_alloc(opts.fault.trip_alloc);
        let max_steps = max_steps
            .min(opts.limits.steps)
            .min(opts.fault.exhaust_at.unwrap_or(u64::MAX));
        let mut vm = Vm {
            program,
            heap,
            globals: vec![ObjRef::scalar(0); program.globals.len()],
            max_steps,
            steps: 0,
            calls: 0,
            max_depth: 0,
            executed: [0; OpClass::COUNT],
            class_allocs: [0; OpClass::COUNT],
            frame_allocs: 0,
            frame_reuses: 0,
            tail_frame_reuses: 0,
            cache_hits: 0,
            cache_misses: 0,
            max_frame_width: 0,
            exec_time: Duration::ZERO,
            pool: Vec::new(),
            free: Vec::new(),
            stack: Vec::new(),
            scratch: Vec::new(),
            scratch_objs: Vec::new(),
            caches: vec![CacheSlot::default(); program.cache_slots as usize],
            opts,
            depth_limit: opts.limits.max_depth,
            deadline: None,
            cancel: None,
            panic_at: opts.fault.panic_at,
            cancel_at: opts.fault.cancel_at,
            poll: false,
            stop_at: 0,
        };
        vm.refresh_schedule();
        vm
    }

    /// Installs a cooperative cancellation token (see [`CancelToken`]).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
        self.refresh_schedule();
    }

    /// Removes any installed cancellation token.
    pub fn clear_cancel_token(&mut self) {
        self.cancel = None;
        self.refresh_schedule();
    }

    /// Replaces the absolute step budget — e.g. to grant an aborted VM a
    /// fresh allowance before a reuse probe.
    pub fn set_step_budget(&mut self, max_steps: u64) {
        self.max_steps = max_steps;
        self.refresh_schedule();
    }

    /// Disarms any injected [`FaultPlan`] triggers and clears a tripped heap
    /// budget, so a post-abort probe run observes a fault-free VM.
    pub fn clear_fault(&mut self) {
        self.panic_at = None;
        self.cancel_at = None;
        self.heap.set_trip_alloc(None);
        self.heap.clear_budget_trip();
        self.refresh_schedule();
    }

    /// Recycles every residual frame, resets the globals, and force-frees
    /// all live heap objects — the drop-all cleanup after an aborted run
    /// (error or caught panic), after which the VM (frame pool, caches and
    /// the shared decoded program) is reusable for the next job. Returns the
    /// number of heap objects reclaimed.
    pub fn purge(&mut self) -> u64 {
        while let Some(fi) = self.stack.pop() {
            self.pool[fi as usize].after_ret.clear();
            self.free.push(fi);
        }
        for g in &mut self.globals {
            *g = ObjRef::scalar(0);
        }
        self.heap.free_all()
    }

    /// Recomputes `poll` and `stop_at` after any limit/fault/token change.
    fn refresh_schedule(&mut self) {
        self.poll = self.deadline.is_some()
            || self.cancel.is_some()
            || self.panic_at.is_some()
            || self.cancel_at.is_some()
            || self.heap.has_byte_budget();
        self.stop_at = self.next_stop();
    }

    /// The next step count at which the loop must checkpoint: `max_steps`
    /// when nothing is polled, otherwise at most [`POLL_INTERVAL`] ahead and
    /// never past a planned fault trigger.
    fn next_stop(&self) -> u64 {
        if !self.poll {
            return self.max_steps;
        }
        let mut stop = self.max_steps.min(self.steps.saturating_add(POLL_INTERVAL));
        for at in [self.panic_at, self.cancel_at].into_iter().flatten() {
            if at > self.steps {
                stop = stop.min(at);
            }
        }
        stop
    }

    /// The slow half of the budget check, entered when `steps` reaches
    /// `stop_at`: decides between a structured abort, an injected fault and
    /// simply scheduling the next checkpoint. Consumes no steps and mutates
    /// no statistics, so a governed run counts exactly what an ungoverned
    /// one does.
    #[cold]
    #[inline(never)]
    fn checkpoint(&mut self) -> Result<(), VmError> {
        if self.steps >= self.max_steps {
            return Err(VmError::step_budget());
        }
        if self.panic_at.is_some_and(|at| self.steps >= at) {
            panic!("fault injection: planted panic at step {}", self.steps);
        }
        if self.cancel_at.is_some_and(|at| self.steps >= at)
            || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
        {
            return Err(VmError::cancelled());
        }
        if self.heap.over_budget() {
            return Err(VmError::heap_budget());
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(VmError::deadline());
            }
        }
        self.stop_at = self.next_stop();
        debug_assert!(self.stop_at > self.steps);
        Ok(())
    }

    /// Runs `entry` (zero-argument) to completion and returns the result.
    ///
    /// # Errors
    ///
    /// Returns an error on traps, step exhaustion, or a missing entry point.
    pub fn run(&mut self, entry: &str) -> Result<ObjRef, VmError> {
        let idx = self
            .program
            .fn_index(entry)
            .ok_or_else(|| err(format!("no function @{entry}")))?;
        self.call(idx, Vec::new())
    }

    /// Calls function `idx` with owned arguments.
    ///
    /// # Errors
    ///
    /// See [`Vm::run`].
    pub fn call(&mut self, idx: usize, args: Vec<ObjRef>) -> Result<ObjRef, VmError> {
        if let Some(budget) = self.opts.limits.deadline {
            self.deadline = Some(Instant::now() + budget);
            self.refresh_schedule();
        }
        let start = Instant::now();
        let result = self.run_threaded(idx, args);
        self.exec_time += start.elapsed();
        result
    }

    /// Returns any residue of a previous errored run to the free list,
    /// then stages and pushes the entry frame.
    fn enter(&mut self, idx: usize, args: &[ObjRef]) -> Result<(), VmError> {
        while let Some(fi) = self.stack.pop() {
            self.pool[fi as usize].after_ret.clear();
            self.free.push(fi);
        }
        self.stage_objs(args);
        let fi = self.alloc_frame(idx, Reg(0))?;
        self.stack.push(fi);
        Ok(())
    }

    /// The threaded interpreter loop.
    ///
    /// One outer iteration per *activation* — the stretch of instructions a
    /// single frame executes between frame transitions. The inner loop
    /// keeps the program counter and the current frame in locals (no
    /// per-instruction `stack.last()` / pool / function indexing), handles
    /// the hot opcodes inline, and routes the cold classes through
    /// [`COLD_HANDLERS`], indexed by the cell's [`OpClass`]. Frame
    /// transitions exit the inner loop with a [`Transfer`] so the
    /// whole-`self` bookkeeping (frame push/pop, closure application) runs
    /// after the per-activation borrows are released — everything stays
    /// inside `#![forbid(unsafe_code)]`.
    fn run_threaded(&mut self, idx: usize, args: Vec<ObjRef>) -> Result<ObjRef, VmError> {
        self.enter(idx, &args)?;
        let prog = self.program;
        loop {
            // The stack only grows between activations or in
            // `inline_call!` (which records its own height), so sampling
            // the depth here sees every height the stack reaches.
            self.max_depth = self.max_depth.max(self.stack.len() as u64);
            let mut fi = *self.stack.last().expect("empty stack") as usize;
            // The step counter lives in a register for the whole
            // activation (`self.steps` is only re-synced below): the
            // per-cell budget check is then a two-register compare
            // instead of two loads and a read-modify-write. `stop_at` is
            // `max_steps` unless deadline/cancellation/heap-budget polling
            // is armed, in which case it is the next checkpoint boundary.
            let stop_at = self.stop_at;
            let depth_limit = self.depth_limit;
            let mut steps = self.steps;
            let transfer = 'act: {
                // Field-disjoint borrows for the whole activation.
                let Vm {
                    heap,
                    globals,
                    calls,
                    executed,
                    class_allocs,
                    frame_reuses,
                    tail_frame_reuses,
                    cache_hits,
                    cache_misses,
                    max_depth,
                    max_frame_width,
                    pool,
                    stack,
                    free,
                    scratch,
                    scratch_objs,
                    caches,
                    ..
                } = self;
                let mut frame = &mut pool[fi];
                let mut f = &prog.fns[frame.func as usize];
                let mut pc = frame.pc as usize;

                // Inline call: enter the callee without leaving the
                // activation loop — the outer-loop round trip (dropping and
                // re-establishing every borrow above) is the dominant cost
                // of call-heavy programs. Takes the fast path only when a
                // recycled frame is available (the steady state after the
                // first few calls); growing the pool stays in
                // [`Vm::push_frame_fast`] behind [`Transfer::Push`].
                // Arguments are expected staged in `scratch`, validation
                // already done — exactly the `Transfer::Push` contract.
                macro_rules! inline_call {
                    ($func:expr, $n_regs:expr, $dst:expr) => {{
                        let (func, n_regs, dst) = ($func, $n_regs, $dst);
                        frame.pc = pc as u32;
                        // Same observation point as [`Vm::push_frame_fast`]:
                        // before the push, after the call step was counted.
                        if stack.len() as u64 >= depth_limit {
                            break 'act Transfer::Error(VmError::depth_budget());
                        }
                        match free.pop() {
                            Some(nfi) => {
                                *calls += 1;
                                *frame_reuses += 1;
                                let callee = &mut pool[nfi as usize];
                                debug_assert!(
                                    callee.after_ret.is_empty(),
                                    "recycled frame carries state"
                                );
                                wire_regs(&mut callee.regs, scratch, n_regs);
                                callee.func = func;
                                callee.pc = 0;
                                callee.ret_dst = dst;
                                *max_frame_width = (*max_frame_width).max(u64::from(n_regs));
                                stack.push(nfi);
                                *max_depth = (*max_depth).max(stack.len() as u64);
                                fi = nfi as usize;
                                frame = callee;
                                f = &prog.fns[func as usize];
                                pc = 0;
                            }
                            None => break 'act Transfer::Push { func, n_regs, dst },
                        }
                    }};
                }

                // Inline return: pop back into the caller without leaving
                // the activation loop. Bails to [`Transfer::Ret`] (which
                // routes through [`Vm::do_ret`]) for the slow cases: a
                // pending over-saturated application, or returning the
                // whole-program result from the entry frame.
                macro_rules! inline_ret {
                    ($bits:expr) => {{
                        let bits: u64 = $bits;
                        if frame.after_ret.is_empty() && stack.len() > 1 {
                            let dst = frame.ret_dst;
                            let done = stack.pop().expect("checked non-empty");
                            free.push(done);
                            let cfi = *stack.last().expect("checked len > 1") as usize;
                            let caller = &mut pool[cfi];
                            caller.regs[dst.0 as usize] = bits;
                            fi = cfi;
                            frame = caller;
                            f = &prog.fns[frame.func as usize];
                            pc = frame.pc as usize;
                        } else {
                            frame.pc = pc as u32;
                            break 'act Transfer::Ret { bits };
                        }
                    }};
                }
                loop {
                    if steps >= stop_at {
                        frame.pc = pc as u32;
                        break 'act Transfer::Checkpoint;
                    }
                    steps += 1;
                    let Some(&instr) = f.code.get(pc) else {
                        frame.pc = pc as u32;
                        break 'act Transfer::Error(err(format!("pc out of range in @{}", f.name)));
                    };
                    let class = instr.class();
                    executed[class as usize] += 1;
                    pc += 1;
                    match instr {
                        DecodedInstr::ConstInt { dst, v } => frame.regs[dst.0 as usize] = v as u64,
                        DecodedInstr::LpInt { dst, v } => {
                            frame.regs[dst.0 as usize] = ObjRef::scalar(v).to_bits();
                        }
                        DecodedInstr::GetLabel { dst, src } => {
                            let o = ObjRef::from_bits(frame.regs[src.0 as usize]);
                            frame.regs[dst.0 as usize] = heap.ctor_tag(o) as u64;
                        }
                        DecodedInstr::Project { dst, src, idx } => {
                            let o = ObjRef::from_bits(frame.regs[src.0 as usize]);
                            frame.regs[dst.0 as usize] = heap.ctor_field(o, idx as usize).to_bits();
                        }
                        DecodedInstr::Pap {
                            dst,
                            func,
                            arity,
                            args_off,
                            args_len,
                        } => {
                            let vals: Vec<ObjRef> = f
                                .arg_regs(ArgSlice {
                                    off: args_off,
                                    len: args_len,
                                })
                                .iter()
                                .map(|&r| ObjRef::from_bits(frame.regs[r.0 as usize]))
                                .collect();
                            let a0 = heap.alloc_count();
                            let outcome = pap_new(heap, FuncId(func), arity, vals);
                            class_allocs[OpClass::Closure as usize] += heap.alloc_count() - a0;
                            match outcome {
                                ApplyOutcome::Partial(c) => {
                                    frame.regs[dst.0 as usize] = c.to_bits();
                                }
                                other => {
                                    frame.pc = pc as u32;
                                    break 'act Transfer::Apply {
                                        dst,
                                        outcome: other,
                                    };
                                }
                            }
                        }
                        DecodedInstr::PapExtend {
                            dst,
                            closure,
                            args,
                            cache,
                        } => {
                            let c = ObjRef::from_bits(frame.regs[closure.0 as usize]);
                            let probe = match *heap.data(c) {
                                ObjData::Closure {
                                    func,
                                    arity,
                                    args: ref applied,
                                } => {
                                    if applied.is_empty() {
                                        Some((func, arity))
                                    } else {
                                        None
                                    }
                                }
                                _ => {
                                    frame.pc = pc as u32;
                                    break 'act Transfer::Error(err(
                                        "papextend of a non-closure value",
                                    ));
                                }
                            };
                            let slot = if cache != NO_CACHE {
                                Some(f.cache_base as usize + cache as usize)
                            } else {
                                None
                            };
                            if let (Some(g), Some((func, arity))) = (slot, probe) {
                                let s = caches[g];
                                if s.state == SLOT_PAP
                                    && s.func == func.0
                                    && s.arity == arity
                                    && arity == args.len
                                {
                                    *cache_hits += 1;
                                    scratch.clear();
                                    scratch.extend(
                                        f.arg_regs(args).iter().map(|&r| frame.regs[r.0 as usize]),
                                    );
                                    heap.dec(c);
                                    inline_call!(s.func, s.n_regs, dst);
                                    continue;
                                }
                            }
                            if let Some(g) = slot {
                                *cache_misses += 1;
                                if let Some((func, arity)) = probe {
                                    if arity == args.len {
                                        if let Some(t) = prog.fns.get(func.0 as usize) {
                                            if t.arity == arity {
                                                caches[g] = CacheSlot {
                                                    func: func.0,
                                                    arity,
                                                    n_regs: t.n_regs,
                                                    state: SLOT_PAP,
                                                };
                                            }
                                        }
                                    }
                                }
                            }
                            // Saturation fast path: extending an empty
                            // closure with exactly its arity is a direct
                            // call — same counter effects as the generic
                            // `pap_extend` (no captured args to retain,
                            // release the closure, no allocation), minus
                            // the staging `Vec` and `ApplyOutcome` round
                            // trip. Covers cache-cold and slotless sites;
                            // arity mismatches keep the generic path's
                            // error behaviour.
                            if let Some((func, arity)) = probe {
                                if arity == args.len {
                                    if let Some(t) = prog.fns.get(func.0 as usize) {
                                        if t.arity == arity {
                                            scratch.clear();
                                            scratch.extend(
                                                f.arg_regs(args)
                                                    .iter()
                                                    .map(|&r| frame.regs[r.0 as usize]),
                                            );
                                            heap.dec(c);
                                            inline_call!(func.0, t.n_regs, dst);
                                            continue;
                                        }
                                    }
                                }
                            }
                            let vals: Vec<ObjRef> = f
                                .arg_regs(args)
                                .iter()
                                .map(|&r| ObjRef::from_bits(frame.regs[r.0 as usize]))
                                .collect();
                            let a0 = heap.alloc_count();
                            let outcome = pap_extend(heap, c, vals);
                            class_allocs[OpClass::Closure as usize] += heap.alloc_count() - a0;
                            match outcome {
                                ApplyOutcome::Partial(cc) => {
                                    frame.regs[dst.0 as usize] = cc.to_bits();
                                }
                                other => {
                                    frame.pc = pc as u32;
                                    break 'act Transfer::Apply {
                                        dst,
                                        outcome: other,
                                    };
                                }
                            }
                        }
                        DecodedInstr::Inc { src } => {
                            let o = ObjRef::from_bits(frame.regs[src.0 as usize]);
                            heap.inc(o);
                        }
                        DecodedInstr::Dec { src } => {
                            let o = ObjRef::from_bits(frame.regs[src.0 as usize]);
                            heap.dec(o);
                        }
                        DecodedInstr::Call {
                            dst,
                            func,
                            args_off,
                            args_len,
                            cache,
                        } => {
                            scratch.clear();
                            scratch.extend(
                                f.arg_regs(ArgSlice {
                                    off: args_off,
                                    len: args_len,
                                })
                                .iter()
                                .map(|&r| frame.regs[r.0 as usize]),
                            );
                            let slot = if cache != NO_CACHE {
                                Some(f.cache_base as usize + cache as usize)
                            } else {
                                None
                            };
                            let n_regs = match slot {
                                Some(g) if caches[g].state == SLOT_CALL => {
                                    *cache_hits += 1;
                                    caches[g].n_regs
                                }
                                _ => {
                                    if slot.is_some() {
                                        *cache_misses += 1;
                                    }
                                    let Some(target) = prog.fns.get(func as usize) else {
                                        frame.pc = pc as u32;
                                        break 'act Transfer::Error(err(format!(
                                            "bad function index {func}"
                                        )));
                                    };
                                    if scratch.len() != target.arity as usize {
                                        frame.pc = pc as u32;
                                        break 'act Transfer::Error(err(format!(
                                            "@{} called with {} args (arity {})",
                                            target.name,
                                            scratch.len(),
                                            target.arity
                                        )));
                                    }
                                    if let Some(g) = slot {
                                        caches[g] = CacheSlot {
                                            func,
                                            arity: target.arity,
                                            n_regs: target.n_regs,
                                            state: SLOT_CALL,
                                        };
                                    }
                                    target.n_regs
                                }
                            };
                            inline_call!(func, n_regs, dst);
                        }
                        DecodedInstr::CallBuiltin {
                            dst,
                            builtin,
                            args,
                            mask,
                        } => {
                            // Array fast paths: a scalar nat index into a
                            // real heap array skips the staging buffer and
                            // the generic `Builtin::call` dispatch for a
                            // direct (bounds-checked) heap access with the
                            // exact same counter effects. Anything else —
                            // boxed index, out of bounds, non-array —
                            // falls through to the generic call below and
                            // keeps its diagnostics.
                            match builtin {
                                Builtin::ArrayGet => {
                                    if let [ra, ri] = f.arg_regs(args) {
                                        let arr = ObjRef::from_bits(frame.regs[ra.0 as usize]);
                                        let idx = ObjRef::from_bits(frame.regs[ri.0 as usize]);
                                        if let (Some(i), Some(len)) = (
                                            idx.as_scalar().filter(|&v| v >= 0),
                                            heap.try_array_len(arr),
                                        ) {
                                            if (i as usize) < len {
                                                if mask & 1 != 0 {
                                                    heap.inc(arr);
                                                }
                                                if mask & 2 != 0 {
                                                    heap.inc(idx);
                                                }
                                                *calls += 1;
                                                let v = heap.array_get(arr, i as usize);
                                                heap.inc(v);
                                                heap.dec(arr);
                                                frame.regs[dst.0 as usize] = v.to_bits();
                                                continue;
                                            }
                                        }
                                    }
                                }
                                Builtin::ArraySet => {
                                    if let [ra, ri, rv] = f.arg_regs(args) {
                                        let arr = ObjRef::from_bits(frame.regs[ra.0 as usize]);
                                        let idx = ObjRef::from_bits(frame.regs[ri.0 as usize]);
                                        let v = ObjRef::from_bits(frame.regs[rv.0 as usize]);
                                        if let (Some(i), Some(len)) = (
                                            idx.as_scalar().filter(|&v| v >= 0),
                                            heap.try_array_len(arr),
                                        ) {
                                            if (i as usize) < len {
                                                if mask & 1 != 0 {
                                                    heap.inc(arr);
                                                }
                                                if mask & 2 != 0 {
                                                    heap.inc(idx);
                                                }
                                                if mask & 4 != 0 {
                                                    heap.inc(v);
                                                }
                                                *calls += 1;
                                                let a0 = heap.alloc_count();
                                                let out = heap.array_set(arr, i as usize, v);
                                                class_allocs[OpClass::CallBuiltin as usize] +=
                                                    heap.alloc_count() - a0;
                                                frame.regs[dst.0 as usize] = out.to_bits();
                                                continue;
                                            }
                                        }
                                    }
                                }
                                Builtin::ArrayPush => {
                                    if let [ra, rv] = f.arg_regs(args) {
                                        let arr = ObjRef::from_bits(frame.regs[ra.0 as usize]);
                                        let v = ObjRef::from_bits(frame.regs[rv.0 as usize]);
                                        if heap.try_array_len(arr).is_some() {
                                            if mask & 1 != 0 {
                                                heap.inc(arr);
                                            }
                                            if mask & 2 != 0 {
                                                heap.inc(v);
                                            }
                                            *calls += 1;
                                            let a0 = heap.alloc_count();
                                            let out = heap.array_push(arr, v);
                                            class_allocs[OpClass::CallBuiltin as usize] +=
                                                heap.alloc_count() - a0;
                                            frame.regs[dst.0 as usize] = out.to_bits();
                                            continue;
                                        }
                                    }
                                }
                                _ => {}
                            }
                            *calls += 1;
                            if let [ra, rb] = f.arg_regs(args) {
                                let a = frame.regs[ra.0 as usize];
                                let b = frame.regs[rb.0 as usize];
                                if let Some(bits) = builtin_fast2(builtin, a, b) {
                                    consume_scalars(heap, mask, a, b);
                                    frame.regs[dst.0 as usize] = bits;
                                    continue;
                                }
                            }
                            let (out, allocs) = call_generic(
                                heap,
                                scratch_objs,
                                builtin,
                                mask,
                                f.arg_regs(args)
                                    .iter()
                                    .map(|&r| ObjRef::from_bits(frame.regs[r.0 as usize])),
                            );
                            class_allocs[OpClass::CallBuiltin as usize] += allocs;
                            frame.regs[dst.0 as usize] = out.to_bits();
                        }
                        DecodedInstr::TailCall {
                            func,
                            args_off,
                            args_len,
                        } => {
                            let args = ArgSlice {
                                off: args_off,
                                len: args_len,
                            };
                            let Some(target) = prog.fns.get(func as usize) else {
                                frame.pc = pc as u32;
                                break 'act Transfer::Error(err(format!(
                                    "bad function index {func}"
                                )));
                            };
                            if args.len != target.arity {
                                frame.pc = pc as u32;
                                break 'act Transfer::Error(err(format!(
                                    "@{} called with {} args (arity {})",
                                    target.name, args.len, target.arity
                                )));
                            }
                            let n_regs = target.n_regs;
                            *calls += 1;
                            *tail_frame_reuses += 1;
                            scratch.clear();
                            scratch
                                .extend(f.arg_regs(args).iter().map(|&r| frame.regs[r.0 as usize]));
                            wire_regs(&mut frame.regs, scratch, n_regs);
                            frame.func = func;
                            *max_frame_width = (*max_frame_width).max(u64::from(n_regs));
                            // The activation continues in the callee:
                            // `ret_dst`/`after_ret` carry over, the stack is
                            // untouched, and no outer-loop round trip is paid.
                            f = &prog.fns[func as usize];
                            pc = 0;
                        }
                        DecodedInstr::Ret { src } => {
                            inline_ret!(frame.regs[src.0 as usize]);
                        }
                        DecodedInstr::Jump { target } => pc = target as usize,
                        DecodedInstr::Branch {
                            cond,
                            then_t,
                            else_t,
                        } => {
                            pc = if frame.regs[cond.0 as usize] != 0 {
                                then_t as usize
                            } else {
                                else_t as usize
                            };
                        }
                        DecodedInstr::Bin { op, dst, a, b } => {
                            let x = frame.regs[a.0 as usize] as i64;
                            let y = frame.regs[b.0 as usize] as i64;
                            let Some(v) = op.eval(x, y) else {
                                frame.pc = pc as u32;
                                break 'act Transfer::Error(err("integer division by zero"));
                            };
                            frame.regs[dst.0 as usize] = v as u64;
                        }
                        DecodedInstr::Cmp { pred, dst, a, b } => {
                            let x = frame.regs[a.0 as usize] as i64;
                            let y = frame.regs[b.0 as usize] as i64;
                            frame.regs[dst.0 as usize] = pred.eval(x, y) as u64;
                        }
                        DecodedInstr::Move { dst, src } => {
                            frame.regs[dst.0 as usize] = frame.regs[src.0 as usize];
                        }
                        DecodedInstr::Trap => {
                            frame.pc = pc as u32;
                            break 'act Transfer::Error(err(format!(
                                "reached unreachable code in @{}",
                                f.name
                            )));
                        }
                        DecodedInstr::ConstCmpBr {
                            pred,
                            a,
                            imm,
                            then_t,
                            else_t,
                        } => {
                            let x = frame.regs[a.0 as usize] as i64;
                            pc = if pred.eval(x, i64::from(imm)) {
                                then_t as usize
                            } else {
                                else_t as usize
                            };
                        }
                        DecodedInstr::ConstRet { v } => {
                            inline_ret!(ObjRef::scalar(v).to_bits());
                        }
                        DecodedInstr::ProjInc { dst, src, idx } => {
                            let o = ObjRef::from_bits(frame.regs[src.0 as usize]);
                            let field = heap.ctor_field(o, idx as usize);
                            heap.inc(field);
                            frame.regs[dst.0 as usize] = field.to_bits();
                        }
                        DecodedInstr::Dec2 { a, b } => {
                            let oa = ObjRef::from_bits(frame.regs[a.0 as usize]);
                            heap.dec(oa);
                            let ob = ObjRef::from_bits(frame.regs[b.0 as usize]);
                            heap.dec(ob);
                        }
                        DecodedInstr::ProjInc2 {
                            dst1,
                            src1,
                            idx1,
                            dst2,
                            src2,
                            idx2,
                        } => {
                            // In-order: the first group's write lands
                            // before the second's read (src2 may name dst1).
                            let o1 = ObjRef::from_bits(frame.regs[src1.0 as usize]);
                            let f1 = heap.ctor_field(o1, idx1 as usize);
                            heap.inc(f1);
                            frame.regs[dst1.0 as usize] = f1.to_bits();
                            let o2 = ObjRef::from_bits(frame.regs[src2.0 as usize]);
                            let f2 = heap.ctor_field(o2, idx2 as usize);
                            heap.inc(f2);
                            frame.regs[dst2.0 as usize] = f2.to_bits();
                        }
                        DecodedInstr::Dec4 { a, b, c, d } => {
                            for r in [a, b, c, d] {
                                let o = ObjRef::from_bits(frame.regs[r.0 as usize]);
                                heap.dec(o);
                            }
                        }
                        DecodedInstr::ProjInc2Dec {
                            dst1,
                            src1,
                            idx1,
                            dst2,
                            src2,
                            idx2,
                            dec,
                        } => {
                            // Same ordering as ProjInc2; the release runs
                            // last, so the projected fields are already
                            // retained when the scrutinee drops.
                            let o1 = ObjRef::from_bits(frame.regs[src1.0 as usize]);
                            let f1 = heap.ctor_field(o1, idx1 as usize);
                            heap.inc(f1);
                            frame.regs[dst1.0 as usize] = f1.to_bits();
                            let o2 = ObjRef::from_bits(frame.regs[src2.0 as usize]);
                            let f2 = heap.ctor_field(o2, idx2 as usize);
                            heap.inc(f2);
                            frame.regs[dst2.0 as usize] = f2.to_bits();
                            let rel = ObjRef::from_bits(frame.regs[dec.0 as usize]);
                            heap.dec(rel);
                        }
                        DecodedInstr::CallBuiltinRet {
                            builtin,
                            args,
                            mask,
                        } => {
                            *calls += 1;
                            if let [ra, rb] = f.arg_regs(args) {
                                let a = frame.regs[ra.0 as usize];
                                let b = frame.regs[rb.0 as usize];
                                if let Some(bits) = builtin_fast2(builtin, a, b) {
                                    consume_scalars(heap, mask, a, b);
                                    inline_ret!(bits);
                                    continue;
                                }
                            }
                            let (out, allocs) = call_generic(
                                heap,
                                scratch_objs,
                                builtin,
                                mask,
                                f.arg_regs(args)
                                    .iter()
                                    .map(|&r| ObjRef::from_bits(frame.regs[r.0 as usize])),
                            );
                            class_allocs[OpClass::FusedCallBuiltinRet as usize] += allocs;
                            inline_ret!(out.to_bits());
                        }
                        DecodedInstr::BuiltinBr {
                            builtin,
                            mask,
                            imm,
                            a,
                            b,
                            on_true,
                            on_false,
                        } => {
                            let x = frame.regs[a.0 as usize];
                            let y = if imm {
                                ObjRef::scalar(i64::from(b as i16)).to_bits()
                            } else {
                                frame.regs[b as usize]
                            };
                            *calls += 1;
                            let taken = match decide_fast(builtin, x, y) {
                                Some(d) => {
                                    consume_scalars(heap, mask, x, y);
                                    d
                                }
                                // A decided comparison allocates nothing.
                                None => {
                                    let args = [x, y].map(ObjRef::from_bits).into_iter();
                                    call_generic(heap, scratch_objs, builtin, mask, args).0
                                        == ObjRef::scalar(1)
                                }
                            };
                            pc = if taken { on_true } else { on_false } as usize;
                        }
                        DecodedInstr::BuiltinImm {
                            builtin,
                            mask,
                            imm_left,
                            dst,
                            src,
                            imm,
                        } => {
                            let s = frame.regs[src.0 as usize];
                            let k = ObjRef::scalar(i64::from(imm)).to_bits();
                            let (x, y) = if imm_left { (k, s) } else { (s, k) };
                            *calls += 1;
                            frame.regs[dst.0 as usize] = match builtin_fast2(builtin, x, y) {
                                Some(bits) => {
                                    consume_scalars(heap, mask, x, y);
                                    bits
                                }
                                None => {
                                    let args = [x, y].map(ObjRef::from_bits).into_iter();
                                    let (out, allocs) =
                                        call_generic(heap, scratch_objs, builtin, mask, args);
                                    class_allocs[OpClass::FusedBuiltinImm as usize] += allocs;
                                    out.to_bits()
                                }
                            };
                        }
                        DecodedInstr::ConstructRet { tag, args } => {
                            let obj = heap.alloc_ctor(
                                tag,
                                f.arg_regs(args)
                                    .iter()
                                    .map(|&r| ObjRef::from_bits(frame.regs[r.0 as usize])),
                            );
                            // A nullary ctor is a scalar, not an allocation.
                            class_allocs[OpClass::FusedConstructRet as usize] +=
                                u64::from(obj.is_heap());
                            inline_ret!(obj.to_bits());
                        }
                        DecodedInstr::SwitchDense {
                            idx,
                            cases,
                            default,
                        } => {
                            let v = frame.regs[idx.0 as usize] as i64;
                            let run = &f.cases[cases.range()];
                            pc = match v.checked_sub(run[0].0) {
                                Some(p) if (p as u64) < run.len() as u64 => {
                                    run[p as usize].1 as usize
                                }
                                _ => default as usize,
                            };
                        }
                        // Cold classes: allocation, globals, rare arithmetic,
                        // sparse switches — one `#[inline(never)]` handler per
                        // class, dispatched on the decoded opcode-class byte.
                        // (No wildcard: a new variant must pick a side.)
                        DecodedInstr::LpBig { .. }
                        | DecodedInstr::LpStr { .. }
                        | DecodedInstr::Construct { .. }
                        | DecodedInstr::Switch { .. }
                        | DecodedInstr::Select { .. }
                        | DecodedInstr::Mask { .. }
                        | DecodedInstr::GlobalLoad { .. }
                        | DecodedInstr::GlobalStore { .. } => {
                            let mut ctx = ColdCtx {
                                heap: &mut *heap,
                                globals: &mut *globals,
                                class_allocs: &mut *class_allocs,
                                prog,
                            };
                            COLD_HANDLERS[class as usize](&mut ctx, f, frame, &mut pc, instr);
                        }
                    }
                }
            };
            self.steps = steps;
            match transfer {
                Transfer::Push { func, n_regs, dst } => {
                    let nfi = self.push_frame_fast(func, n_regs, dst)?;
                    self.stack.push(nfi);
                }
                Transfer::Ret { bits } => {
                    if let Some(value) = self.do_ret(fi, bits)? {
                        return Ok(value);
                    }
                }
                Transfer::Apply { dst, outcome } => self.apply(dst, outcome)?,
                Transfer::Checkpoint => self.checkpoint()?,
                Transfer::Error(e) => return Err(e),
            }
        }
    }

    /// Completes a return of `bits` from the frame at pool index `fi` —
    /// shared by `Ret` and every fused `*Ret` superinstruction. Recycles
    /// the frame, resumes any over-saturated application (allocation there
    /// is attributed to the `ret` class regardless of the fused shape), and
    /// either writes the caller's destination register (`None`) or, when
    /// the stack is empty, yields the whole-program result (`Some`).
    fn do_ret(&mut self, fi: usize, bits: u64) -> Result<Option<ObjRef>, VmError> {
        let value = ObjRef::from_bits(bits);
        let frame = &mut self.pool[fi];
        let ret_dst = frame.ret_dst;
        let after_ret = std::mem::take(&mut frame.after_ret);
        self.stack.pop();
        self.free.push(fi as u32);
        if !after_ret.is_empty() {
            // Continue an over-saturated application.
            if !matches!(self.heap.data(value), lssa_rt::ObjData::Closure { .. }) {
                return Err(err("over-application of a non-closure result"));
            }
            let a0 = self.heap.alloc_count();
            let outcome = pap_extend(&mut self.heap, value, after_ret);
            self.class_allocs[OpClass::Ret as usize] += self.heap.alloc_count() - a0;
            if self.stack.is_empty() {
                // Whole-program result must not be pending.
                return match outcome {
                    ApplyOutcome::Partial(c) => Ok(Some(c)),
                    _ => Err(err("dangling over-application at exit")),
                };
            }
            self.apply(ret_dst, outcome)?;
            return Ok(None);
        }
        match self.stack.last() {
            Some(&ci) => {
                self.pool[ci as usize].regs[ret_dst.0 as usize] = bits;
                Ok(None)
            }
            None => Ok(Some(value)),
        }
    }

    /// Stages owned object arguments into the scratch buffer (the calling
    /// convention of [`Vm::alloc_frame`]).
    fn stage_objs(&mut self, args: &[ObjRef]) {
        self.scratch.clear();
        self.scratch.extend(args.iter().map(|a| a.to_bits()));
    }

    /// Validates `func` against the staged arguments, then takes a frame
    /// from the free list (or grows the pool), wires it up, and returns its
    /// pool index. The caller pushes the index onto the stack.
    fn alloc_frame(&mut self, func: usize, ret_dst: Reg) -> Result<u32, VmError> {
        let f = self
            .program
            .fns
            .get(func)
            .ok_or_else(|| err(format!("bad function index {func}")))?;
        if self.scratch.len() != f.arity as usize {
            return Err(err(format!(
                "@{} called with {} args (arity {})",
                f.name,
                self.scratch.len(),
                f.arity
            )));
        }
        let n_regs = f.n_regs;
        self.push_frame_fast(func as u32, n_regs, ret_dst)
    }

    /// The validated tail of [`Vm::alloc_frame`]: wires a pooled frame to
    /// `func` with the staged arguments, skipping the function lookup and
    /// the arity check — the inline caches take this path directly on a
    /// monomorphic hit (the site proved both on its first execution). Fails
    /// only on the [`JobLimits::max_depth`] cap.
    fn push_frame_fast(&mut self, func: u32, n_regs: u16, ret_dst: Reg) -> Result<u32, VmError> {
        if self.stack.len() as u64 >= self.depth_limit {
            return Err(VmError::depth_budget());
        }
        self.calls += 1;
        let fi = match self.free.pop() {
            Some(fi) => {
                self.frame_reuses += 1;
                fi
            }
            None => {
                self.frame_allocs += 1;
                self.pool.push(Frame::default());
                u32::try_from(self.pool.len() - 1).expect("frame pool exhausted")
            }
        };
        let frame = &mut self.pool[fi as usize];
        frame.func = func;
        frame.pc = 0;
        frame.ret_dst = ret_dst;
        debug_assert!(frame.after_ret.is_empty(), "recycled frame carries state");
        wire_regs(&mut frame.regs, &self.scratch, n_regs);
        self.max_frame_width = self.max_frame_width.max(u64::from(n_regs));
        Ok(fi)
    }

    /// Handles a pap/papextend outcome: either a value, or a frame to push.
    fn apply(&mut self, dst: Reg, outcome: ApplyOutcome) -> Result<(), VmError> {
        match outcome {
            ApplyOutcome::Partial(c) => {
                let &fi = self.stack.last().expect("apply without frame");
                self.pool[fi as usize].regs[dst.0 as usize] = c.to_bits();
                Ok(())
            }
            ApplyOutcome::Call { func, args } => {
                self.stage_objs(&args);
                let fi = self.alloc_frame(func.0 as usize, dst)?;
                self.stack.push(fi);
                Ok(())
            }
            ApplyOutcome::CallThen { func, args, rest } => {
                self.stage_objs(&args);
                let fi = self.alloc_frame(func.0 as usize, dst)?;
                self.pool[fi as usize].after_ret = rest;
                self.stack.push(fi);
                Ok(())
            }
        }
    }

    /// Compact statistics so far.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            instructions: self.steps,
            calls: self.calls,
            max_stack: self.max_depth,
            heap: self.heap.stats(),
        }
    }

    /// Full per-opcode-class statistics so far.
    pub fn statistics(&self) -> VmStatistics {
        VmStatistics {
            executed: self.executed,
            class_allocs: self.class_allocs,
            instructions: self.steps,
            calls: self.calls,
            max_depth: self.max_depth,
            frame_allocs: self.frame_allocs,
            frame_reuses: self.frame_reuses,
            tail_frame_reuses: self.tail_frame_reuses,
            fused_cells: self.program.fusion.superinstructions(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            max_frame_width: self.max_frame_width,
            frame_pool_bytes: self
                .pool
                .iter()
                .map(|fr| (fr.regs.capacity() * std::mem::size_of::<u64>()) as u64)
                .sum(),
            regs_saved: self.program.renumber.regs_saved(),
            duration: self.exec_time,
            heap: self.heap.stats(),
        }
    }

    /// Decodes an integer result (convenience for tests).
    pub fn to_int(&self, r: ObjRef) -> Int {
        self.heap.get_int(r)
    }
}

/// What a threaded activation ended with: the frame transition (or failure)
/// the outer loop performs once the per-activation borrows are released.
enum Transfer {
    /// Push a frame for `func` — arguments staged in scratch, validation
    /// already done (`n_regs` is the callee's register-file size).
    Push { func: u32, n_regs: u16, dst: Reg },
    /// Return `bits` from the current frame.
    Ret { bits: u64 },
    /// Apply a closure outcome to `dst` (may push a frame).
    Apply { dst: Reg, outcome: ApplyOutcome },
    /// `steps` hit `stop_at`: run [`Vm::checkpoint`] and resume (or abort).
    Checkpoint,
    /// The run failed.
    Error(VmError),
}

/// The VM state a cold handler can touch: everything *except* the frame
/// pool and stack (cold opcodes never transfer frames — the current frame
/// is passed in by reborrow).
struct ColdCtx<'a> {
    heap: &'a mut Heap,
    globals: &'a mut Vec<ObjRef>,
    class_allocs: &'a mut [u64; OpClass::COUNT],
    prog: &'a DecodedProgram,
}

/// One cold-class handler: `(ctx, fn, frame, pc, instr)`. The pc is in/out
/// so sparse switches can jump. Cold opcodes cannot fail — failures are
/// hot-loop concerns (arithmetic traps, call validation).
type ColdHandler = fn(&mut ColdCtx<'_>, &DecodedFn, &mut Frame, &mut usize, DecodedInstr);

/// A hot opcode was routed to the cold table: the inline arms and this
/// table disagree about the class partition — a VM bug, not a program bug.
#[cold]
fn cold_mismatch() -> ! {
    unreachable!("hot opcode class routed to a cold handler")
}

/// Heap-allocating data constructors (`LpBig`, `LpStr`, `Construct`).
#[inline(never)]
fn cold_alloc(
    ctx: &mut ColdCtx<'_>,
    f: &DecodedFn,
    frame: &mut Frame,
    _pc: &mut usize,
    instr: DecodedInstr,
) {
    match instr {
        DecodedInstr::LpBig { dst, idx } => {
            let a0 = ctx.heap.alloc_count();
            let n = ctx.prog.big_pool[idx as usize].clone();
            frame.regs[dst.0 as usize] = ctx.heap.mk_nat(n).to_bits();
            ctx.class_allocs[OpClass::Alloc as usize] += ctx.heap.alloc_count() - a0;
        }
        DecodedInstr::LpStr { dst, idx } => {
            let s = ctx.prog.str_pool[idx as usize].clone();
            frame.regs[dst.0 as usize] = ctx.heap.alloc_str(s).to_bits();
            ctx.class_allocs[OpClass::Alloc as usize] += 1;
        }
        DecodedInstr::Construct { dst, tag, args } => {
            let obj = ctx.heap.alloc_ctor(
                tag,
                f.arg_regs(args)
                    .iter()
                    .map(|&r| ObjRef::from_bits(frame.regs[r.0 as usize])),
            );
            frame.regs[dst.0 as usize] = obj.to_bits();
            // A nullary ctor is a scalar, not an allocation.
            ctx.class_allocs[OpClass::Alloc as usize] += u64::from(obj.is_heap());
        }
        _ => cold_mismatch(),
    }
}

/// Sparse jump tables (`Switch`; the class's `Jump`/`Branch` stay inline).
#[inline(never)]
fn cold_branch(
    _ctx: &mut ColdCtx<'_>,
    f: &DecodedFn,
    frame: &mut Frame,
    pc: &mut usize,
    instr: DecodedInstr,
) {
    match instr {
        DecodedInstr::Switch {
            idx,
            cases,
            default,
        } => {
            let v = frame.regs[idx.0 as usize] as i64;
            *pc = f.cases[cases.range()]
                .iter()
                .find(|&&(c, _)| c == v)
                .map(|&(_, t)| t)
                .unwrap_or(default) as usize;
        }
        _ => cold_mismatch(),
    }
}

/// Rare word arithmetic (`Select`, `Mask`; `Bin`/`Cmp` stay inline).
#[inline(never)]
fn cold_arith(
    _ctx: &mut ColdCtx<'_>,
    _f: &DecodedFn,
    frame: &mut Frame,
    _pc: &mut usize,
    instr: DecodedInstr,
) {
    match instr {
        DecodedInstr::Select { dst, c, a, b } => {
            let v = if frame.regs[c.0 as usize] != 0 {
                frame.regs[a.0 as usize]
            } else {
                frame.regs[b.0 as usize]
            };
            frame.regs[dst.0 as usize] = v;
        }
        DecodedInstr::Mask { dst, src, mask } => {
            frame.regs[dst.0 as usize] = frame.regs[src.0 as usize] & mask;
        }
        _ => cold_mismatch(),
    }
}

/// Module-global loads and stores.
#[inline(never)]
fn cold_global(
    ctx: &mut ColdCtx<'_>,
    _f: &DecodedFn,
    frame: &mut Frame,
    _pc: &mut usize,
    instr: DecodedInstr,
) {
    match instr {
        DecodedInstr::GlobalLoad { dst, idx } => {
            frame.regs[dst.0 as usize] = ctx.globals[idx as usize].to_bits();
        }
        DecodedInstr::GlobalStore { idx, src } => {
            ctx.globals[idx as usize] = ObjRef::from_bits(frame.regs[src.0 as usize]);
        }
        _ => cold_mismatch(),
    }
}

/// Filler for classes the inline arms fully handle.
fn cold_never(
    _ctx: &mut ColdCtx<'_>,
    _f: &DecodedFn,
    _frame: &mut Frame,
    _pc: &mut usize,
    _instr: DecodedInstr,
) {
    cold_mismatch()
}

/// The cold-dispatch function-pointer table, indexed by [`OpClass`]
/// discriminant ([`DecodedInstr::class`]). Hot classes are fillers — their
/// instructions never reach the table.
static COLD_HANDLERS: [ColdHandler; OpClass::COUNT] = [
    cold_never,  // Const
    cold_alloc,  // Alloc
    cold_never,  // Project
    cold_never,  // Closure
    cold_never,  // Rc
    cold_never,  // Call
    cold_never,  // CallBuiltin
    cold_never,  // TailCall
    cold_never,  // Ret
    cold_branch, // Branch (only sparse Switch routes here)
    cold_arith,  // Arith (only Select/Mask route here)
    cold_never,  // Move
    cold_global, // Global
    cold_never,  // Trap
    cold_never,  // FusedConstCmpBr
    cold_never,  // FusedConstRet
    cold_never,  // FusedProjInc
    cold_never,  // FusedCallBuiltinRet
    cold_never,  // FusedConstructRet
    cold_never,  // FusedSwitchDense
    cold_never,  // FusedDec2
    cold_never,  // FusedProjInc2
    cold_never,  // FusedDec4
    cold_never,  // FusedProjInc2Dec
    cold_never,  // FusedBuiltinBr
    cold_never,  // FusedBuiltinImm
];

/// Runs `entry` of a pre-decoded program under explicit [`ExecOptions`]
/// and renders the result.
///
/// # Errors
///
/// See [`Vm::run`].
pub fn run_decoded_with(
    program: &DecodedProgram,
    entry: &str,
    max_steps: u64,
    exec: ExecOptions,
) -> Result<RunOutcome, VmError> {
    let mut vm = Vm::with_options(program, max_steps, exec);
    let result = vm.run(entry)?;
    let rendered = vm.heap.render(result);
    vm.heap.dec(result);
    Ok(RunOutcome {
        rendered,
        stats: vm.stats(),
        vm_stats: vm.statistics(),
    })
}

/// Runs `entry` of a pre-decoded program and renders the result (default
/// execution options: no limits, no injected faults).
///
/// # Errors
///
/// See [`Vm::run`].
pub fn run_decoded(
    program: &DecodedProgram,
    entry: &str,
    max_steps: u64,
) -> Result<RunOutcome, VmError> {
    run_decoded_with(program, entry, max_steps, ExecOptions::default())
}

/// Decodes `program` under `decode` (memoized per program, see
/// [`CompiledProgram::decoded`]), then runs `entry` under `exec` and
/// renders the result — the fully-parameterized entry point behind the
/// `--no-fuse` knob and the resource limits.
///
/// # Errors
///
/// See [`Vm::run`].
pub fn run_program_opts(
    program: &CompiledProgram,
    entry: &str,
    max_steps: u64,
    decode: DecodeOptions,
    exec: ExecOptions,
) -> Result<RunOutcome, VmError> {
    run_decoded_with(&program.decoded(decode), entry, max_steps, exec)
}

/// Decodes `program` under `opts` (memoized per program, see
/// [`CompiledProgram::decoded`]), then runs `entry` and renders the result.
///
/// # Errors
///
/// See [`Vm::run`].
pub fn run_program_with(
    program: &CompiledProgram,
    entry: &str,
    max_steps: u64,
    opts: DecodeOptions,
) -> Result<RunOutcome, VmError> {
    run_program_opts(program, entry, max_steps, opts, ExecOptions::default())
}

/// [`run_program_with`] under the default decode options (fusion on).
///
/// # Errors
///
/// See [`Vm::run`].
pub fn run_program(
    program: &CompiledProgram,
    entry: &str,
    max_steps: u64,
) -> Result<RunOutcome, VmError> {
    run_program_with(program, entry, max_steps, DecodeOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{BinOp, CmpPred, CompiledFn, CompiledProgram, Instr};
    use crate::decode::decode_program;

    fn single(code: Vec<Instr>, n_regs: u16) -> CompiledProgram {
        CompiledProgram {
            fns: vec![CompiledFn {
                name: "main".into(),
                arity: 0,
                n_regs,
                code,
            }],
            ..CompiledProgram::default()
        }
    }

    /// `loop(n): if n == 0 ret 7 else tail loop(n-1)` — every iteration is
    /// pure arith + one builtin, so the steady state allocates nothing.
    fn tail_loop(n: i64) -> CompiledProgram {
        CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 2,
                    code: vec![
                        Instr::LpInt { dst: Reg(0), v: n },
                        Instr::Call {
                            dst: Reg(1),
                            func: 1,
                            args: vec![Reg(0)],
                        },
                        Instr::Ret { src: Reg(1) },
                    ],
                },
                CompiledFn {
                    name: "loop".into(),
                    arity: 1,
                    n_regs: 4,
                    code: vec![
                        Instr::GetLabel {
                            dst: Reg(1),
                            src: Reg(0),
                        },
                        Instr::ConstInt { dst: Reg(2), v: 0 },
                        Instr::Cmp {
                            pred: CmpPred::Eq,
                            dst: Reg(2),
                            a: Reg(1),
                            b: Reg(2),
                        },
                        Instr::Branch {
                            cond: Reg(2),
                            then_t: 4,
                            else_t: 6,
                        },
                        Instr::LpInt { dst: Reg(3), v: 7 },
                        Instr::Ret { src: Reg(3) },
                        Instr::LpInt { dst: Reg(2), v: 1 },
                        Instr::CallBuiltin {
                            dst: Reg(3),
                            builtin: lssa_rt::Builtin::NatSub,
                            args: vec![Reg(0), Reg(2)],
                            mask: 0,
                        },
                        Instr::TailCall {
                            func: 1,
                            args: vec![Reg(3)],
                        },
                    ],
                },
            ],
            ..CompiledProgram::default()
        }
    }

    #[test]
    fn fast_path_predicates_match_the_fast_paths() {
        // Decode fuses constants into exactly the builtins `builtin_fast2`
        // finishes inline, and branches into the ones `decide_fast` does.
        let s = |v: i64| ObjRef::scalar(v).to_bits();
        for &b in Builtin::ALL {
            let fast = builtin_fast2(b, s(6), s(3)).is_some();
            assert_eq!(fast, has_scalar_fast_path(b), "{b}");
            let decided = decide_fast(b, s(6), s(3));
            assert_eq!(decided.is_some(), b.returns_scalar() && fast, "{b}");
            if let Some(d) = decided {
                assert_eq!(builtin_fast2(b, s(6), s(3)), Some(s(i64::from(d))), "{b}");
            }
        }
    }

    #[test]
    fn returns_scalar() {
        let p = single(
            vec![
                Instr::LpInt { dst: Reg(0), v: 42 },
                Instr::Ret { src: Reg(0) },
            ],
            1,
        );
        let out = run_program(&p, "main", 1000).unwrap();
        assert_eq!(out.rendered, "42");
        // LpInt + Ret fuse into a single ConstRet superinstruction.
        assert_eq!(out.stats.instructions, 1);
        assert_eq!(out.vm_stats.executed_of(OpClass::FusedConstRet), 1);
        assert_eq!(out.vm_stats.fused_cells, 1);
        // The unfused stream executes the two original cells.
        let unfused = run_program_with(&p, "main", 1000, DecodeOptions::no_fuse()).unwrap();
        assert_eq!(unfused.rendered, "42");
        assert_eq!(unfused.stats.instructions, 2);
        assert_eq!(unfused.vm_stats.executed_of(OpClass::Const), 1);
        assert_eq!(unfused.vm_stats.executed_of(OpClass::Ret), 1);
        assert_eq!(unfused.vm_stats.fused_cells, 0);
    }

    #[test]
    fn arithmetic_and_branching() {
        // if (2 < 3) then 10 else 20
        let p = single(
            vec![
                Instr::ConstInt { dst: Reg(0), v: 2 },
                Instr::ConstInt { dst: Reg(1), v: 3 },
                Instr::Cmp {
                    pred: CmpPred::Slt,
                    dst: Reg(2),
                    a: Reg(0),
                    b: Reg(1),
                },
                Instr::Branch {
                    cond: Reg(2),
                    then_t: 4,
                    else_t: 6,
                },
                Instr::LpInt { dst: Reg(3), v: 10 },
                Instr::Ret { src: Reg(3) },
                Instr::LpInt { dst: Reg(3), v: 20 },
                Instr::Ret { src: Reg(3) },
            ],
            4,
        );
        assert_eq!(run_program(&p, "main", 1000).unwrap().rendered, "10");
    }

    #[test]
    fn tail_call_uses_constant_stack() {
        let p = tail_loop(1_000_000);
        let d = decode_program(&p);
        let mut vm = Vm::new(&d, 100_000_000);
        let r = vm.run("main").unwrap();
        assert_eq!(vm.heap.render(r), "7");
        assert!(vm.stats().max_stack <= 2, "tail calls must not grow stack");
    }

    #[test]
    fn deep_tail_recursion_keeps_frame_pool_constant() {
        // The frame-pool high-water mark and the number of fresh frame
        // allocations must not depend on recursion depth: only `main` and
        // one `loop` frame ever exist, however deep the tail recursion.
        let shallow = run_program(&tail_loop(1_000), "main", 100_000_000).unwrap();
        let deep = run_program(&tail_loop(1_000_000), "main", 100_000_000).unwrap();
        for out in [&shallow, &deep] {
            assert_eq!(out.vm_stats.max_depth, 2);
            assert_eq!(out.vm_stats.frame_allocs, 2);
        }
        assert_eq!(
            deep.vm_stats.tail_frame_reuses, 1_000_000,
            "every iteration reuses the frame in place"
        );
        // The tail-call fast path performs zero heap allocations per
        // iteration: a run 1000x deeper allocates not one object more.
        assert_eq!(deep.vm_stats.heap.allocs, shallow.vm_stats.heap.allocs);
        assert_eq!(
            deep.vm_stats.allocs_of(OpClass::TailCall),
            0,
            "tail calls never touch the heap"
        );
    }

    #[test]
    fn closure_via_pap_extend() {
        // add(a, b) = a + b ; main: c = pap add [10]; papextend c [32]
        let p = CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 3,
                    code: vec![
                        Instr::LpInt { dst: Reg(0), v: 10 },
                        Instr::Pap {
                            dst: Reg(1),
                            func: 1,
                            arity: 2,
                            args: vec![Reg(0)],
                        },
                        Instr::LpInt { dst: Reg(2), v: 32 },
                        Instr::PapExtend {
                            dst: Reg(0),
                            closure: Reg(1),
                            args: vec![Reg(2)],
                        },
                        Instr::Ret { src: Reg(0) },
                    ],
                },
                CompiledFn {
                    name: "add".into(),
                    arity: 2,
                    n_regs: 3,
                    code: vec![
                        Instr::CallBuiltin {
                            dst: Reg(2),
                            builtin: lssa_rt::Builtin::NatAdd,
                            args: vec![Reg(0), Reg(1)],
                            mask: 0,
                        },
                        Instr::Ret { src: Reg(2) },
                    ],
                },
            ],
            ..CompiledProgram::default()
        };
        let out = run_program(&p, "main", 1000).unwrap();
        assert_eq!(out.rendered, "42");
        assert!(out.vm_stats.allocs_of(OpClass::Closure) >= 1);
    }

    /// Like [`tail_loop`], but the self-call is non-tail (the countdown
    /// result returns through a register), so the site keeps its cache
    /// slot — tail sites no longer get one.
    fn call_loop(n: i64) -> CompiledProgram {
        CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 2,
                    code: vec![
                        Instr::LpInt { dst: Reg(0), v: n },
                        Instr::Call {
                            dst: Reg(1),
                            func: 1,
                            args: vec![Reg(0)],
                        },
                        Instr::Ret { src: Reg(1) },
                    ],
                },
                CompiledFn {
                    name: "loop".into(),
                    arity: 1,
                    n_regs: 4,
                    code: vec![
                        Instr::GetLabel {
                            dst: Reg(1),
                            src: Reg(0),
                        },
                        Instr::ConstInt { dst: Reg(2), v: 0 },
                        Instr::Cmp {
                            pred: CmpPred::Eq,
                            dst: Reg(2),
                            a: Reg(1),
                            b: Reg(2),
                        },
                        Instr::Branch {
                            cond: Reg(2),
                            then_t: 4,
                            else_t: 6,
                        },
                        Instr::LpInt { dst: Reg(3), v: 7 },
                        Instr::Ret { src: Reg(3) },
                        Instr::LpInt { dst: Reg(2), v: 1 },
                        Instr::CallBuiltin {
                            dst: Reg(3),
                            builtin: lssa_rt::Builtin::NatSub,
                            args: vec![Reg(0), Reg(2)],
                            mask: 0,
                        },
                        Instr::Call {
                            dst: Reg(3),
                            func: 1,
                            args: vec![Reg(3)],
                        },
                        Instr::Ret { src: Reg(3) },
                    ],
                },
            ],
            ..CompiledProgram::default()
        }
    }

    #[test]
    fn inline_caches_hit_on_monomorphic_sites() {
        // The non-tail loop's call sites each bind one target, so after
        // the first-execution miss every deeper call must hit.
        let cached = run_program(&call_loop(1_000), "main", 1_000_000).unwrap();
        assert_eq!(cached.rendered, "7");
        assert!(
            cached.vm_stats.cache_hits >= 999,
            "the monomorphic call site must hit on all but its first execution (got {})",
            cached.vm_stats.cache_hits
        );
        assert!(
            cached.vm_stats.cache_misses <= 3,
            "only first executions may miss (got {})",
            cached.vm_stats.cache_misses
        );
    }

    #[test]
    fn tail_call_sites_probe_no_cache() {
        // Tail-call cells are skipped by cache-slot assignment (static
        // target — a probe buys nothing), so a pure tail loop's only
        // recorded probe is main's entry call missing once.
        let out = run_program(&tail_loop(1_000), "main", 1_000_000).unwrap();
        assert_eq!(out.rendered, "7");
        assert_eq!(out.vm_stats.cache_hits, 0, "tail sites must not probe");
        assert_eq!(
            out.vm_stats.cache_misses, 1,
            "only main's entry call takes a first-execution miss"
        );
    }

    #[test]
    fn sites_past_the_slot_budget_run_uncached() {
        // A function owns at most `NO_CACHE` slots: its first 65,535
        // call-shaped cells get one each, and a `PapExtend` and a `Call`
        // after them keep the sentinel and take the uncached paths.
        let slotted = usize::from(NO_CACHE);
        let mut code = vec![
            Instr::Call {
                dst: Reg(0),
                func: 1,
                args: vec![],
            };
            slotted
        ];
        code.extend([
            Instr::Pap {
                dst: Reg(1),
                func: 2,
                arity: 1,
                args: vec![],
            },
            Instr::PapExtend {
                dst: Reg(2),
                closure: Reg(1),
                args: vec![Reg(0)],
            },
            Instr::Call {
                dst: Reg(3),
                func: 2,
                args: vec![Reg(2)],
            },
            Instr::Ret { src: Reg(3) },
        ]);
        let inc = CompiledFn {
            name: "inc".into(),
            arity: 1,
            n_regs: 3,
            code: vec![
                Instr::LpInt { dst: Reg(1), v: 1 },
                Instr::CallBuiltin {
                    dst: Reg(2),
                    builtin: lssa_rt::Builtin::NatAdd,
                    args: vec![Reg(0), Reg(1)],
                    mask: 0,
                },
                Instr::Ret { src: Reg(2) },
            ],
        };
        let p = CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 4,
                    code,
                },
                CompiledFn {
                    name: "one".into(),
                    arity: 0,
                    n_regs: 1,
                    code: vec![
                        Instr::LpInt { dst: Reg(0), v: 1 },
                        Instr::Ret { src: Reg(0) },
                    ],
                },
                inc,
            ],
            ..CompiledProgram::default()
        };
        let d = decode_program(&p);
        let caches: Vec<u16> = d.fns[0]
            .code
            .iter()
            .filter_map(|i| match *i {
                DecodedInstr::Call { cache, .. } | DecodedInstr::PapExtend { cache, .. } => {
                    Some(cache)
                }
                _ => None,
            })
            .collect();
        assert_eq!(caches.len(), slotted + 2);
        assert_eq!(caches[slotted - 1], NO_CACHE - 1, "last slotted site");
        assert_eq!(caches[slotted..], [NO_CACHE, NO_CACHE]);
        assert_eq!(d.fns[0].cache_sites, NO_CACHE);
        let out = run_decoded(&d, "main", 1_000_000).unwrap();
        assert_eq!(out.rendered, "3", "inc(inc(one()))");
        assert_eq!(out.stats.heap.live, 0);
        // Each slotted site runs once (one cold miss apiece); the two
        // slotless sites must not probe at all.
        assert_eq!(out.vm_stats.cache_hits, 0);
        assert_eq!(
            out.vm_stats.cache_hits + out.vm_stats.cache_misses,
            slotted as u64
        );
    }

    /// `apply5(c) = papextend c [5]`, called with closures over `twice`
    /// and optionally `inc` — one papextend site, one or two targets.
    fn papextend_site(second_target: u32) -> CompiledProgram {
        CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 3,
                    code: vec![
                        Instr::Pap {
                            dst: Reg(0),
                            func: 2,
                            arity: 1,
                            args: vec![],
                        },
                        Instr::Call {
                            dst: Reg(1),
                            func: 1,
                            args: vec![Reg(0)],
                        },
                        Instr::Pap {
                            dst: Reg(0),
                            func: second_target,
                            arity: 1,
                            args: vec![],
                        },
                        Instr::Call {
                            dst: Reg(2),
                            func: 1,
                            args: vec![Reg(0)],
                        },
                        Instr::CallBuiltin {
                            dst: Reg(0),
                            builtin: lssa_rt::Builtin::NatAdd,
                            args: vec![Reg(1), Reg(2)],
                            mask: 0,
                        },
                        Instr::Ret { src: Reg(0) },
                    ],
                },
                CompiledFn {
                    name: "apply5".into(),
                    arity: 1,
                    n_regs: 3,
                    code: vec![
                        Instr::LpInt { dst: Reg(1), v: 5 },
                        Instr::PapExtend {
                            dst: Reg(2),
                            closure: Reg(0),
                            args: vec![Reg(1)],
                        },
                        Instr::Ret { src: Reg(2) },
                    ],
                },
                CompiledFn {
                    name: "twice".into(),
                    arity: 1,
                    n_regs: 2,
                    code: vec![
                        Instr::CallBuiltin {
                            dst: Reg(1),
                            builtin: lssa_rt::Builtin::NatAdd,
                            args: vec![Reg(0), Reg(0)],
                            mask: 0,
                        },
                        Instr::Ret { src: Reg(1) },
                    ],
                },
                CompiledFn {
                    name: "inc".into(),
                    arity: 1,
                    n_regs: 3,
                    code: vec![
                        Instr::LpInt { dst: Reg(1), v: 1 },
                        Instr::CallBuiltin {
                            dst: Reg(2),
                            builtin: lssa_rt::Builtin::NatAdd,
                            args: vec![Reg(0), Reg(1)],
                            mask: 0,
                        },
                        Instr::Ret { src: Reg(2) },
                    ],
                },
            ],
            ..CompiledProgram::default()
        }
    }

    #[test]
    fn papextend_cache_distinguishes_mono_from_polymorphic_sites() {
        // Same closure shape twice: the papextend site misses once, then
        // hits. Cache sites executed: main's two `Call`s (one miss each)
        // and the papextend (miss + hit).
        let mono = run_program(&papextend_site(2), "main", 1000).unwrap();
        assert_eq!(mono.rendered, "20");
        assert_eq!(mono.vm_stats.cache_hits, 1);
        assert_eq!(mono.vm_stats.cache_misses, 3);
        // Two different targets through the one site: the second probe
        // sees a different function and must fall back to the runtime's
        // generic path — no stale-target call, one extra miss.
        let poly = run_program(&papextend_site(3), "main", 1000).unwrap();
        assert_eq!(poly.rendered, "16");
        assert_eq!(poly.vm_stats.cache_hits, 0);
        assert_eq!(poly.vm_stats.cache_misses, 4);
    }

    #[test]
    fn step_budget_enforced() {
        let p = single(vec![Instr::Jump { target: 0 }], 1);
        let e = run_program(&p, "main", 100).unwrap_err();
        assert!(e.message.contains("step budget"));
    }

    #[test]
    fn trap_reports_function() {
        let p = single(vec![Instr::Trap], 1);
        let e = run_program(&p, "main", 100).unwrap_err();
        assert!(e.message.contains("unreachable"), "{e}");
        assert!(e.message.contains("main"), "{e}");
    }

    #[test]
    fn division_by_zero_traps() {
        let p = single(
            vec![
                Instr::ConstInt { dst: Reg(0), v: 1 },
                Instr::ConstInt { dst: Reg(1), v: 0 },
                Instr::Bin {
                    op: BinOp::Div,
                    dst: Reg(0),
                    a: Reg(0),
                    b: Reg(1),
                },
                Instr::Ret { src: Reg(0) },
            ],
            2,
        );
        let e = run_program(&p, "main", 100).unwrap_err();
        assert!(e.message.contains("division"), "{e}");
    }

    #[test]
    fn globals_round_trip() {
        let mut p = single(
            vec![
                Instr::LpInt { dst: Reg(0), v: 5 },
                Instr::GlobalStore {
                    idx: 0,
                    src: Reg(0),
                },
                Instr::GlobalLoad {
                    dst: Reg(1),
                    idx: 0,
                },
                Instr::Ret { src: Reg(1) },
            ],
            2,
        );
        p.globals.push("slot".into());
        assert_eq!(run_program(&p, "main", 100).unwrap().rendered, "5");
    }

    #[test]
    fn vm_is_reusable_after_an_error() {
        // An errored run leaves no residue: the same VM can run again and
        // its frame pool is intact.
        let p = CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 1,
                    code: vec![
                        Instr::LpInt { dst: Reg(0), v: 3 },
                        Instr::Ret { src: Reg(0) },
                    ],
                },
                CompiledFn {
                    name: "boom".into(),
                    arity: 0,
                    n_regs: 1,
                    code: vec![Instr::Trap],
                },
            ],
            ..CompiledProgram::default()
        };
        let d = decode_program(&p);
        let mut vm = Vm::new(&d, 1000);
        assert!(vm.run("boom").is_err());
        let r = vm.run("main").unwrap();
        assert_eq!(vm.heap.render(r), "3");
    }

    #[test]
    fn statistics_table_renders() {
        let out = run_program(&tail_loop(10), "main", 100_000).unwrap();
        let table = out.vm_stats.render_table();
        for needle in ["opcode class", "tail-call", "frames:", "heap:"] {
            assert!(table.contains(needle), "missing {needle}\n{table}");
        }
    }

    // ---- resource governance & fault injection ---------------------------

    /// `rec(n): if n == 0 ret 7 else ret 1 + rec(n - 1)` — a non-tail
    /// recursion whose frame depth grows with `n`.
    fn deep_recursion(n: i64) -> CompiledProgram {
        CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 2,
                    code: vec![
                        Instr::LpInt { dst: Reg(0), v: n },
                        Instr::Call {
                            dst: Reg(1),
                            func: 1,
                            args: vec![Reg(0)],
                        },
                        Instr::Ret { src: Reg(1) },
                    ],
                },
                CompiledFn {
                    name: "rec".into(),
                    arity: 1,
                    n_regs: 4,
                    code: vec![
                        Instr::GetLabel {
                            dst: Reg(1),
                            src: Reg(0),
                        },
                        Instr::ConstInt { dst: Reg(2), v: 0 },
                        Instr::Cmp {
                            pred: CmpPred::Eq,
                            dst: Reg(2),
                            a: Reg(1),
                            b: Reg(2),
                        },
                        Instr::Branch {
                            cond: Reg(2),
                            then_t: 4,
                            else_t: 6,
                        },
                        Instr::LpInt { dst: Reg(3), v: 7 },
                        Instr::Ret { src: Reg(3) },
                        Instr::LpInt { dst: Reg(2), v: 1 },
                        Instr::CallBuiltin {
                            dst: Reg(3),
                            builtin: lssa_rt::Builtin::NatSub,
                            args: vec![Reg(0), Reg(2)],
                            mask: 0,
                        },
                        Instr::Call {
                            dst: Reg(3),
                            func: 1,
                            args: vec![Reg(3)],
                        },
                        Instr::LpInt { dst: Reg(2), v: 1 },
                        Instr::CallBuiltin {
                            dst: Reg(3),
                            builtin: lssa_rt::Builtin::NatAdd,
                            args: vec![Reg(2), Reg(3)],
                            mask: 0,
                        },
                        Instr::Ret { src: Reg(3) },
                    ],
                },
            ],
            ..CompiledProgram::default()
        }
    }

    /// `build(n, acc): if n == 0 ret acc else tail build(n-1, Cons(n, acc))`
    /// — allocates one constructor cell per iteration.
    fn alloc_loop(n: i64) -> CompiledProgram {
        CompiledProgram {
            fns: vec![
                CompiledFn {
                    name: "main".into(),
                    arity: 0,
                    n_regs: 3,
                    code: vec![
                        Instr::LpInt { dst: Reg(0), v: n },
                        Instr::Construct {
                            dst: Reg(1),
                            tag: 0,
                            args: vec![],
                        },
                        Instr::Call {
                            dst: Reg(2),
                            func: 1,
                            args: vec![Reg(0), Reg(1)],
                        },
                        Instr::Ret { src: Reg(2) },
                    ],
                },
                CompiledFn {
                    name: "build".into(),
                    arity: 2,
                    n_regs: 5,
                    code: vec![
                        Instr::GetLabel {
                            dst: Reg(2),
                            src: Reg(0),
                        },
                        Instr::ConstInt { dst: Reg(3), v: 0 },
                        Instr::Cmp {
                            pred: CmpPred::Eq,
                            dst: Reg(3),
                            a: Reg(2),
                            b: Reg(3),
                        },
                        Instr::Branch {
                            cond: Reg(3),
                            then_t: 4,
                            else_t: 5,
                        },
                        Instr::Ret { src: Reg(1) },
                        Instr::Construct {
                            dst: Reg(4),
                            tag: 1,
                            args: vec![Reg(0), Reg(1)],
                        },
                        Instr::LpInt { dst: Reg(3), v: 1 },
                        Instr::CallBuiltin {
                            dst: Reg(3),
                            builtin: lssa_rt::Builtin::NatSub,
                            args: vec![Reg(0), Reg(3)],
                            mask: 0,
                        },
                        Instr::TailCall {
                            func: 1,
                            args: vec![Reg(3), Reg(4)],
                        },
                    ],
                },
            ],
            ..CompiledProgram::default()
        }
    }

    #[test]
    fn step_budget_error_is_structured() {
        let p = single(vec![Instr::Jump { target: 0 }], 1);
        let d = decode_program(&p);
        let mut vm = Vm::new(&d, 100);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::StepBudget);
        assert_eq!(e.message, lssa_rt::STEP_BUDGET_MSG);
        assert_eq!(vm.stats().instructions, 100, "fails exactly at budget");
    }

    #[test]
    fn limits_steps_tightens_the_constructor_budget() {
        let p = single(vec![Instr::Jump { target: 0 }], 1);
        let d = decode_program(&p);
        let opts = ExecOptions::default().with_limits(JobLimits::default().with_steps(37));
        let mut vm = Vm::with_options(&d, 1_000_000, opts);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::StepBudget);
        assert_eq!(vm.stats().instructions, 37);
    }

    #[test]
    fn heap_budget_aborts_and_purge_rebalances() {
        let d = decode_program(&alloc_loop(1_000_000));
        let opts = ExecOptions::default().with_limits(JobLimits::default().with_heap_bytes(4096));
        let mut vm = Vm::with_options(&d, u64::MAX, opts);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::HeapBudget, "{e}");
        let stats = vm.heap.stats();
        assert!(stats.live > 0, "abort leaves the list alive");
        assert_eq!(stats.live, vm.heap.live_objects());
        vm.purge();
        let after = vm.heap.stats();
        assert_eq!(after.live, 0);
        assert_eq!(after.allocs, after.frees, "drop-all must balance");
    }

    #[test]
    fn depth_budget_aborts_and_purge_rebalances() {
        let d = decode_program(&deep_recursion(1_000_000));
        let opts = ExecOptions::default().with_limits(JobLimits::default().with_max_depth(64));
        let mut vm = Vm::with_options(&d, u64::MAX, opts);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::DepthBudget, "{e}");
        assert_eq!(vm.stats().max_stack, 64, "stops at the cap, not past it");
        vm.purge();
        assert!(vm.heap.stats().live == 0);
    }

    #[test]
    fn cancel_token_aborts_within_a_poll_interval() {
        let p = single(vec![Instr::Jump { target: 0 }], 1);
        let d = decode_program(&p);
        let token = CancelToken::new();
        token.cancel();
        let mut vm = Vm::new(&d, u64::MAX);
        vm.set_cancel_token(token);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::Cancelled);
        assert!(vm.stats().instructions <= POLL_INTERVAL);
    }

    #[test]
    fn planned_cancellation_is_deterministic() {
        let p = single(vec![Instr::Jump { target: 0 }], 1);
        let d = decode_program(&p);
        let opts = ExecOptions::default().with_fault(FaultPlan {
            cancel_at: Some(5000),
            ..FaultPlan::default()
        });
        let mut vm = Vm::with_options(&d, u64::MAX, opts);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::Cancelled);
        assert_eq!(vm.stats().instructions, 5000);
    }

    #[test]
    fn zero_deadline_trips_at_first_checkpoint() {
        let p = single(vec![Instr::Jump { target: 0 }], 1);
        let d = decode_program(&p);
        let opts = ExecOptions::default()
            .with_limits(JobLimits::default().with_deadline(Some(Duration::ZERO)));
        let mut vm = Vm::with_options(&d, u64::MAX, opts);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::Deadline);
        assert_eq!(vm.stats().instructions, POLL_INTERVAL);
    }

    #[test]
    fn planted_panic_fires_and_vm_survives() {
        let p = single(vec![Instr::Jump { target: 0 }], 1);
        let d = decode_program(&p);
        let opts = ExecOptions::default().with_fault(FaultPlan {
            panic_at: Some(2048),
            ..FaultPlan::default()
        });
        let mut vm = Vm::with_options(&d, u64::MAX, opts);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| vm.run("main"))).unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("planted panic at step 2048"), "{msg}");
        // The VM object itself survived: purge and probe it.
        vm.purge();
        assert_eq!(vm.heap.stats().live, 0);
        vm.clear_fault();
        vm.set_step_budget(vm.stats().instructions + 10);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::StepBudget, "probe hits the budget");
    }

    #[test]
    fn exhaust_at_forces_step_budget() {
        let d = decode_program(&tail_loop(1_000_000));
        let opts = ExecOptions::default().with_fault(FaultPlan {
            exhaust_at: Some(1234),
            ..FaultPlan::default()
        });
        let mut vm = Vm::with_options(&d, u64::MAX, opts);
        let e = vm.run("main").unwrap_err();
        assert_eq!(e.kind, VmErrorKind::StepBudget);
        assert_eq!(vm.stats().instructions, 1234);
    }

    #[test]
    fn governed_success_is_unchanged() {
        // Limits far above what the program needs: result and statistics
        // must be identical to the ungoverned run.
        let d = decode_program(&tail_loop(500));
        let plain = {
            let mut vm = Vm::new(&d, u64::MAX);
            let r = vm.run("main").unwrap();
            let rendered = vm.heap.render(r);
            vm.heap.dec(r);
            (rendered, vm.stats().instructions)
        };
        let limits = JobLimits::default()
            .with_steps(1_000_000)
            .with_heap_bytes(1 << 20)
            .with_max_depth(1 << 20);
        let mut vm = Vm::with_options(&d, u64::MAX, ExecOptions::default().with_limits(limits));
        let r = vm.run("main").unwrap();
        assert_eq!(vm.heap.render(r), plain.0);
        vm.heap.dec(r);
        assert_eq!(vm.stats().instructions, plain.1);
        assert_eq!(vm.heap.stats().live, 0);
    }
}
