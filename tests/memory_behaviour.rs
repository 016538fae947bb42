//! Memory behaviour across pipelines: reference counting must balance, and
//! the exclusivity optimization (LEAN's in-place array updates) must fire
//! in compiled code.

use lambda_ssa::driver::pipelines::{compile_and_run, CompilerConfig};
use lambda_ssa::driver::workloads::{all, by_name, Scale};
use lambda_ssa::vm::{OpClass, RunOutcome};

const MAX_STEPS: u64 = 500_000_000;

/// The VM's per-opcode-class allocation counts account for every heap
/// allocation, no more (a nullary constructor is not one) and no fewer.
fn class_allocs_sum_to_heap_allocs(out: &RunOutcome) -> bool {
    let by_class: u64 = OpClass::ALL
        .iter()
        .map(|&c| out.vm_stats.allocs_of(c))
        .sum();
    by_class == out.stats.heap.allocs
}

#[test]
fn every_workload_frees_everything_on_every_pipeline() {
    for w in all(Scale::Test) {
        for config in lambda_ssa::driver::diff::configs() {
            let out = compile_and_run(&w.src, config, MAX_STEPS).unwrap();
            assert_eq!(
                out.stats.heap.live,
                0,
                "{} [{}] leaked",
                w.name,
                config.label()
            );
            assert_eq!(out.stats.heap.allocs, out.stats.heap.frees);
            assert!(class_allocs_sum_to_heap_allocs(&out), "{}", w.name);
        }
    }
}

#[test]
fn qsort_arrays_update_in_place() {
    // A linear in-place quicksort allocates O(n) array cells once, not
    // O(n log n) copies: peak live objects stays near the array size.
    let w = by_name("qsort", Scale::Test).unwrap();
    let out = compile_and_run(&w.src, CompilerConfig::mlir(), MAX_STEPS).unwrap();
    // n = 16 at test scale; a copying sort would peak far above this.
    assert!(
        out.stats.heap.peak_live < 64,
        "expected in-place behaviour, peak live = {}",
        out.stats.heap.peak_live
    );
}

#[test]
fn peak_memory_comparable_across_backends() {
    // The paper's claim is performance *and* memory parity; peak live
    // objects should be within 2x between backends on every workload.
    for w in all(Scale::Test) {
        let a = compile_and_run(&w.src, CompilerConfig::leanc(), MAX_STEPS).unwrap();
        let b = compile_and_run(&w.src, CompilerConfig::mlir(), MAX_STEPS).unwrap();
        let (lo, hi) = if a.stats.heap.peak_live < b.stats.heap.peak_live {
            (a.stats.heap.peak_live, b.stats.heap.peak_live)
        } else {
            (b.stats.heap.peak_live, a.stats.heap.peak_live)
        };
        assert!(
            hi <= lo * 2 + 16,
            "{}: peak live diverges, leanc={} mlir={}",
            w.name,
            a.stats.heap.peak_live,
            b.stats.heap.peak_live
        );
    }
}

#[test]
fn allocation_counts_match_reference_interpreter() {
    // Every compiled pipeline must do the same number of allocations as
    // the λrc reference interpreter (the RC insertion fixes the program's
    // allocation behaviour; backends must not add hidden allocations).
    let w = by_name("binarytrees", Scale::Test).unwrap();
    let rc = lambda_ssa::driver::pipelines::frontend(&w.src, CompilerConfig::none()).unwrap();
    let oracle = lambda_ssa::lambda::run_program(&rc, "main", true, MAX_STEPS).unwrap();
    // The 30 `Node` cells of the test-scale trees; the 32 `Leaf`s are
    // scalars and allocate nothing.
    assert_eq!(oracle.stats.allocs, 30);
    for config in lambda_ssa::driver::diff::configs() {
        let compiled = compile_and_run(&w.src, config, MAX_STEPS).unwrap();
        assert_eq!(
            oracle.stats.allocs,
            compiled.stats.heap.allocs,
            "[{}]",
            config.label()
        );
    }
}

#[test]
fn nullary_constructors_are_scalars_in_every_engine() {
    // `main` returns constructors without fields, bare or nested: the
    // reference interpreter and every pipeline render them as their tag,
    // allocate only the cells that have fields, and free everything.
    let cases = [
        (
            "bare-nil",
            "inductive List := Nil | Cons(h, t)\ndef main() := Nil",
            "0",
            0,
        ),
        (
            "list",
            "inductive List := Nil | Cons(h, t)\ndef main() := Cons(1, Cons(2, Nil))",
            "ctor1(1, ctor1(2, 0))",
            2,
        ),
        (
            "enum",
            "inductive Color := Red | Green | Blue\n\
             def pick(n) := if n == 0 then Red else if n == 1 then Green else Blue\n\
             def main() := pick(2)",
            "2",
            0,
        ),
    ];
    for (name, src, rendered, allocs) in cases {
        // The differential run compares every pipeline's rendering with
        // the oracle's and fails on a live object anywhere.
        let diff = lambda_ssa::driver::diff::run_differential(name, src, MAX_STEPS);
        assert!(diff.passed(), "{name}: {:?}", diff.failure);
        assert_eq!(diff.rendered.as_deref(), Some(rendered), "{name}");
        for config in lambda_ssa::driver::diff::configs() {
            let out = compile_and_run(src, config, MAX_STEPS).unwrap();
            assert_eq!(out.stats.heap.allocs, allocs, "{name} [{}]", config.label());
            assert!(class_allocs_sum_to_heap_allocs(&out), "{name}");
        }
    }
}
