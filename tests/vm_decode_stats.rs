//! End-to-end guards for the decoded-bytecode VM:
//!
//! - decoding is lossless on real pipeline output (decode → encode
//!   round-trips every instruction of every compiled workload function);
//! - running the decoded form produces the workloads' recorded checksums
//!   (the enum form and the decoded form execute identically);
//! - deep tail recursion compiled by the full pipeline keeps the frame
//!   pool at a constant high-water mark with zero steady-state heap
//!   allocation — the `musttail` guarantee, now provable from
//!   `VmStatistics` instead of by stack-overflow absence.

use lambda_ssa::driver::pipelines::{compile, CompilerConfig};
use lambda_ssa::driver::workloads::{all, Scale};
use lambda_ssa::vm::{decode_program, decode_program_with, run_decoded, DecodeOptions, OpClass};

const MAX_STEPS: u64 = 500_000_000;

#[test]
fn decode_round_trips_compiled_workloads() {
    for w in all(Scale::Test) {
        let program =
            compile(&w.src, CompilerConfig::mlir()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        // Round-tripping is defined on the unfused stream (fused cells have
        // no single enum counterpart); fused-vs-unfused equivalence is
        // covered by `fuse_differential.rs`.
        let decoded = decode_program_with(&program, DecodeOptions::no_fuse());
        assert_eq!(decoded.fns.len(), program.fns.len());
        for (df, f) in decoded.fns.iter().zip(&program.fns) {
            assert_eq!(df.name, f.name, "{}", w.name);
            assert_eq!(df.arity, f.arity);
            assert_eq!(df.n_regs, f.n_regs);
            assert_eq!(df.code.len(), f.code.len());
            for (i, original) in f.code.iter().enumerate() {
                assert_eq!(
                    &df.encode(i),
                    original,
                    "{}: @{} instruction {i} does not round-trip",
                    w.name,
                    f.name
                );
            }
        }
        // And the decoded form executes to the recorded checksum.
        let out =
            run_decoded(&decoded, "main", MAX_STEPS).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(out.rendered, w.expected_test, "{}", w.name);
        assert_eq!(out.stats.heap.live, 0, "{}: leak", w.name);
        // The fused stream is strictly shorter statically and dynamically,
        // and produces the same checksum.
        let fused = decode_program(&program);
        assert!(
            fused.fusion.cells_saved > 0,
            "{}: fusion found nothing to fuse",
            w.name
        );
        let fused_out =
            run_decoded(&fused, "main", MAX_STEPS).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(fused_out.rendered, w.expected_test, "{}", w.name);
        assert!(
            fused_out.stats.instructions < out.stats.instructions,
            "{}: fused dispatch must execute fewer cells",
            w.name
        );
    }
}

#[test]
fn compiled_tail_recursion_runs_in_constant_frames() {
    // A tail-recursive countdown over raw machine arithmetic: after TCO the
    // loop body is pure arith + tail call, so the steady state must not
    // allocate at all.
    let run = |n: u64| {
        let src = format!(
            "def loop(n, acc) := if n == 0 then acc else loop(n - 1, acc + n)\n\
             def main() := loop({n}, 0)"
        );
        let program = compile(&src, CompilerConfig::mlir()).expect("compile");
        run_decoded(&decode_program(&program), "main", MAX_STEPS).expect("run")
    };
    let shallow = run(1_000);
    let deep = run(100_000);
    assert_eq!(deep.rendered, "5000050000");
    for out in [&shallow, &deep] {
        assert!(
            out.vm_stats.executed_of(OpClass::TailCall) > 0,
            "the pipeline must compile the recursion to tail calls"
        );
        assert!(
            out.vm_stats.max_depth <= 3,
            "frame-pool high-water mark must not grow with depth (got {})",
            out.vm_stats.max_depth
        );
        assert_eq!(
            out.vm_stats.frame_allocs, out.vm_stats.max_depth,
            "only the high-water mark's worth of frames is ever allocated"
        );
    }
    // Zero steady-state allocations of any kind: 100x the iterations,
    // identical heap-allocation count, identical frame-pool footprint. A
    // recycled frame re-allocates only when wired wider than ever before,
    // so the pool's retained bytes must not grow with depth either.
    assert_eq!(
        deep.vm_stats.heap.allocs, shallow.vm_stats.heap.allocs,
        "tail-call fast path must not allocate per iteration"
    );
    assert_eq!(deep.vm_stats.allocs_of(OpClass::TailCall), 0);
    assert_eq!(
        deep.vm_stats.frame_pool_bytes, shallow.vm_stats.frame_pool_bytes,
        "frame-pool footprint must not grow with loop depth"
    );
    assert_eq!(
        deep.vm_stats.max_frame_width, shallow.vm_stats.max_frame_width,
        "widest frame must not grow with loop depth"
    );
    assert!(
        deep.vm_stats.tail_frame_reuses > shallow.vm_stats.tail_frame_reuses,
        "the deep loop must reuse its frame in place"
    );
}

#[test]
fn renumbering_shrinks_frames_without_changing_results() {
    // Real pipeline output: fusion swallows intermediates, renumbering
    // then compacts the register file. The fused, compacted program must
    // compute what the unfused, uncompacted one does with a never larger
    // frame pool. (That renumbering alone leaves the executed cells
    // unchanged is pinned by the committed `full` instruction counts.)
    for w in all(Scale::Test) {
        let program =
            compile(&w.src, CompilerConfig::mlir()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let plain = decode_program_with(&program, DecodeOptions::no_fuse());
        let compact = decode_program_with(&program, DecodeOptions::fused());
        assert_eq!(
            plain.renumber.regs_saved(),
            0,
            "{}: unfused is lossless",
            w.name
        );
        assert!(
            compact.renumber.regs_after <= compact.renumber.regs_before,
            "{}: renumbering grew a register file",
            w.name
        );
        for (p, c) in plain.fns.iter().zip(&compact.fns) {
            assert!(c.n_regs <= p.n_regs, "{}/@{}", w.name, p.name);
        }
        let plain_out = run_decoded(&plain, "main", MAX_STEPS).expect("plain run");
        let compact_out = run_decoded(&compact, "main", MAX_STEPS).expect("compact run");
        assert_eq!(plain_out.rendered, compact_out.rendered, "{}", w.name);
        assert_eq!(
            plain_out.vm_stats.heap, compact_out.vm_stats.heap,
            "{}",
            w.name
        );
        assert!(
            compact_out.vm_stats.frame_pool_bytes <= plain_out.vm_stats.frame_pool_bytes,
            "{}: compaction must never retain a larger frame pool",
            w.name
        );
        assert_eq!(
            compact_out.vm_stats.regs_saved,
            compact.renumber.regs_saved(),
            "{}",
            w.name
        );
    }
}
