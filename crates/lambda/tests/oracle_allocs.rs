//! The reference interpreter's calls allocate nothing: a tail-recursive
//! loop over scalars makes as many allocations at 100,000 iterations as at
//! 1,000. Callees are resolved, and the frame stack, the operand buffer
//! and the join stack grown, before the loop settles; the one-word path
//! keeps the arithmetic off the bignums.
//!
//! The counting allocator counts only the test thread's allocations, and
//! only while a run is measured. The file holds one test so that no other
//! test shares the allocator's counter.

use lssa_lambda::{insert_rc, parse_program, run_program};
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

/// Allocations made by the λrc oracle run of the loop at `n` iterations,
/// and its result.
fn allocations(n: u64) -> (u64, String) {
    let src = format!(
        "def loop(n, acc) := if n == 0 then acc else loop(n - 1, acc + n)\n\
         def main() := loop({n}, 0)"
    );
    let rc = insert_rc(&parse_program(&src).unwrap());
    ALLOCS.with(|a| a.set(Some(0)));
    let out = run_program(&rc, "main", true, 100_000_000);
    let allocs = ALLOCS.with(|a| a.replace(None)).unwrap();
    (allocs, out.unwrap().rendered)
}

#[test]
fn a_run_allocates_the_same_at_any_iteration_count() {
    let (short, r) = allocations(1_000);
    assert_eq!(r, "500500");
    let (long, r) = allocations(100_000);
    assert_eq!(r, "5000050000");
    assert_eq!(
        short, long,
        "1,000 iterations made {short} allocations, 100,000 made {long}"
    );
}
