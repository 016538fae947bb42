//! Lowering a `.fl` call costs time and memory linear in its argument
//! count: each argument's continuation borrows the arguments after it
//! instead of copying them. A constructor call of 200 arguments `1 + 1`
//! must make at most about twice the allocations, and ask for at most about
//! twice the bytes, of one with 100 (a copy of the remaining list per
//! argument made it four times both).
//!
//! The counting allocator counts only the measuring thread's allocations,
//! and only while a parse is measured. The file holds one test so that no
//! other test shares the allocator's counters. Lowering recurses once per
//! argument in the surface parser, so the parses run on a thread with an
//! 8 MiB stack.

use lssa_lambda::parse_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations and bytes this thread asked for while measuring; `None`
    /// otherwise.
    static ALLOCS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn count_one(bytes: usize) {
    ALLOCS.with(|a| {
        if let Some((n, b)) = a.get() {
            a.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

// SAFETY: every request is forwarded unchanged to the system allocator;
// the counter is a plain thread-local without a destructor, so touching
// it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes of parsing and lowering a `case` on an `n`-field
/// constructor built from `n` arguments `1 + 1`.
fn lowering_cost(n: usize) -> (u64, u64) {
    let fields: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    let src = format!(
        "inductive T := Mk({})\ndef main() := case Mk({}) of | Mk({}) => 0 end\n",
        fields.join(", "),
        vec!["1 + 1"; n].join(", "),
        vec!["_"; n].join(", ")
    );
    ALLOCS.with(|a| a.set(Some((0, 0))));
    let program = parse_program(&src);
    let cost = ALLOCS.with(|a| a.replace(None)).unwrap();
    program.unwrap_or_else(|e| panic!("{n} arguments: {e}"));
    cost
}

#[test]
fn lowering_a_call_costs_linear_in_its_argument_count() {
    let ((short, short_bytes), (long, long_bytes)) = std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(|| (lowering_cost(100), lowering_cost(200)))
        .unwrap()
        .join()
        .unwrap();
    assert!(
        long <= 2 * short + 64,
        "100 arguments made {short} allocations, 200 made {long}"
    );
    assert!(
        long_bytes <= 2 * short_bytes + 4096,
        "100 arguments asked for {short_bytes} bytes, 200 for {long_bytes}"
    );
}
