//! The compile path's heap allocations, pinned per compiled function.
//!
//! The input is the conformance corpus — the hand-written cases and 200
//! generated programs — printed as `.lssa` text and parsed, as perfbench's
//! `compile-corpus` feeds it. The measured path is the one `lssa run` takes
//! after parsing: `compile_ast_with_report` under `mlir` (checking,
//! simplification, RC insertion, the lp/rgn/CFG pipelines, verification,
//! bytecode), then the decoded program. Before the back half reused its
//! buffers across functions, that path made 221 allocations per function;
//! it now makes about a quarter as many (56.5), the front half's share
//! having fallen with its bodies' move into per-function arenas and the
//! bytecode compiler's with its operand lists' move into per-function
//! pools.
//!
//! The counting allocator counts only the test thread's allocations, and
//! only while a compilation is measured. The file holds one test so that
//! no other test shares the allocator's counter. Allocation counts do not
//! depend on the build profile, so the ceiling holds in debug and release
//! builds alike.

use lssa_driver::conformance::{generated, handwritten};
use lssa_driver::pipelines::{compile_ast_with_report, CompilerConfig};
use lssa_vm::DecodeOptions;
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

/// Allocations per compiled function the path may make: the 56.5 it makes,
/// plus about 15%.
const CEILING_PER_FN: u64 = 65;

#[test]
fn the_compile_path_allocates_under_half_of_what_it_did_per_function() {
    let mut cases = handwritten();
    cases.extend(generated(200, 7));
    let (mut allocs, mut fns) = (0u64, 0u64);
    for case in &cases {
        let ast =
            lssa_lambda::parse_program(&case.src).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let text = lssa_syntax::print_program(&ast);
        let ast =
            lssa_syntax::parse_program(&text).unwrap_or_else(|e| panic!("{}: {e:?}", case.name));
        fns += ast.fns.len() as u64;
        ALLOCS.with(|a| a.set(Some(0)));
        let compiled = compile_ast_with_report(&ast, CompilerConfig::mlir())
            .map(|(program, _)| program.decoded(DecodeOptions::default()));
        allocs += ALLOCS.with(|a| a.replace(None)).unwrap();
        compiled.unwrap_or_else(|e| panic!("{}: {e}", case.name));
    }
    let per_fn = allocs as f64 / fns as f64;
    assert!(
        allocs <= CEILING_PER_FN * fns,
        "{allocs} allocations for {fns} functions ({per_fn:.1} each; ceiling {CEILING_PER_FN})"
    );
}
