//! The front half's heap allocations, pinned per function.
//!
//! The input is the conformance corpus — the hand-written cases and 200
//! generated programs — printed as `.lssa` text, as perfbench's
//! `compile-corpus` feeds it. The measured calls are the front half's, in
//! perfbench's traced order: the `.lssa` reader, the checker, the
//! simplifier and RC insertion. With bodies stored as boxed trees, a
//! binding, an operand list and a callee name each cost an allocation:
//! 66.6 per function on this corpus. With blocks in per-function arenas, a
//! pass costs one allocation per pool of each function it builds, plus its
//! scratch buffers, sized once per program: 18.9.
//!
//! The counting allocator counts only the test thread's allocations, and
//! only while a call is measured. The file holds one test so that no other
//! test shares the allocator's counter. Allocation counts do not depend on
//! the build profile, so the ceiling holds in debug and release builds
//! alike.

use lssa_driver::conformance::{generated, handwritten};
use lssa_lambda::SimplifyOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations this thread made while measuring; `None` otherwise.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    ALLOCS.with(|a| {
        if let Some(n) = a.get() {
            a.set(Some(n + 1));
        }
    });
}

// SAFETY: every request is forwarded unchanged to the system allocator;
// the counter is a plain thread-local without a destructor, so touching
// it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per function the four calls may make together: the 18.9
/// they make, plus about 15%.
const CEILING_PER_FN: u64 = 22;

/// `f()`, and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|a| a.set(Some(0)));
    let out = f();
    (out, ALLOCS.with(|a| a.replace(None)).unwrap())
}

#[test]
fn the_front_half_allocates_per_function_not_per_binding() {
    let mut cases = handwritten();
    cases.extend(generated(200, 7));
    let (mut allocs, mut fns) = ([0u64; 4], 0u64);
    for case in &cases {
        let ast =
            lssa_lambda::parse_program(&case.src).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let text = lssa_syntax::print_program(&ast);
        let (ast, parse) = counted(|| lssa_syntax::parse_program(&text));
        let ast = ast.unwrap_or_else(|e| panic!("{}: {e:?}", case.name));
        let (checked, check) = counted(|| lssa_lambda::check_program(&ast));
        checked.unwrap_or_else(|e| panic!("{}: {e:?}", case.name));
        let (simple, simplify) =
            counted(|| lssa_lambda::simplify_program(&ast, SimplifyOptions::all()));
        let (_, rc) = counted(|| lssa_lambda::insert_rc(&simple));
        fns += ast.fns.len() as u64;
        for (total, n) in allocs.iter_mut().zip([parse, check, simplify, rc]) {
            *total += n;
        }
    }
    let total: u64 = allocs.iter().sum();
    let per_fn = total as f64 / fns as f64;
    assert!(
        total <= CEILING_PER_FN * fns,
        "{total} allocations for {fns} functions ({per_fn:.1} each; ceiling {CEILING_PER_FN}): \
         parse {}, check {}, simplify {}, insert_rc {}",
        allocs[0],
        allocs[1],
        allocs[2],
        allocs[3]
    );
}
