//! Decode differential suite: superinstruction fusion (with the register
//! renumbering that follows it) must be a pure dispatch optimization. For
//! every workload (under every compiler configuration) and every
//! conformance case, the fused and unfused decoded streams must produce
//! byte-identical results and identical heap/allocation counters — only
//! the executed-cell counts may differ (fused runs fewer).
//!
//! Runtime errors count too: a program that traps must trap with the same
//! message under both decodes.

use lambda_ssa::core::pipeline::PipelineOptions;
use lambda_ssa::driver::conformance::handwritten;
use lambda_ssa::driver::pipelines::{compile, Backend, CompilerConfig};
use lambda_ssa::driver::workloads::{all, Scale};
use lambda_ssa::driver::{diff, par};
use lambda_ssa::vm::{run_program_with, DecodeOptions, OpClass};

const MAX_STEPS: u64 = 500_000_000;

/// The decodes under test, fused (the default) first.
fn decodes() -> [(&'static str, DecodeOptions); 2] {
    [
        ("fused", DecodeOptions::fused()),
        ("no-fuse", DecodeOptions::no_fuse()),
    ]
}

/// Runs one compiled program under both decodes and checks that they
/// agree. Returns the fused run's rendering (for checksum asserts), or
/// `None` if the program traps.
fn assert_decodes_agree(label: &str, program: &lambda_ssa::vm::CompiledProgram) -> Option<String> {
    let reference = run_program_with(program, "main", MAX_STEPS, DecodeOptions::fused());
    let got = run_program_with(program, "main", MAX_STEPS, DecodeOptions::no_fuse());
    match (&reference, &got) {
        (Ok(r), Ok(g)) => {
            assert_eq!(
                r.rendered, g.rendered,
                "{label} [no-fuse]: checksum diverged"
            );
            assert_eq!(
                r.vm_stats.heap, g.vm_stats.heap,
                "{label} [no-fuse]: heap counters diverged"
            );
            assert_eq!(
                r.vm_stats.max_depth, g.vm_stats.max_depth,
                "{label} [no-fuse]: frame depth diverged"
            );
            assert_eq!(
                r.vm_stats.frame_allocs, g.vm_stats.frame_allocs,
                "{label} [no-fuse]: frame allocation diverged"
            );
            assert!(
                r.stats.instructions <= g.stats.instructions,
                "{label} [no-fuse]: fused dispatch must never execute more cells"
            );
        }
        (Err(re), Err(ge)) => {
            assert_eq!(
                re.message, ge.message,
                "{label} [no-fuse]: error message diverged"
            );
        }
        (r, g) => panic!(
            "{label} [no-fuse]: one decode failed, the other did not \
             (fused: {:?}, no-fuse: {:?})",
            r.as_ref().map(|o| &o.rendered),
            g.as_ref().map(|o| &o.rendered)
        ),
    }
    reference.ok().map(|o| o.rendered)
}

#[test]
fn workloads_agree_across_dispatch_matrix_and_all_pipelines() {
    let workloads = all(Scale::Test);
    par::par_map(&workloads, |w| {
        for config in diff::configs() {
            let label = format!("{} [{}]", w.name, config.label());
            let program = compile(&w.src, config).unwrap_or_else(|e| panic!("{label}: {e}"));
            let rendered = assert_decodes_agree(&label, &program)
                .unwrap_or_else(|| panic!("{label}: workload must not trap"));
            assert_eq!(rendered, w.expected_test, "{label}");
        }
    });
}

/// The full pipeline with the §III reference-count optimization switched
/// off — the `--no-rc-opt` ablation knob.
fn norc_config() -> CompilerConfig {
    CompilerConfig {
        backend: Backend::Mlir(PipelineOptions {
            rc_opt: false,
            ..PipelineOptions::full()
        }),
        ..CompilerConfig::mlir()
    }
}

/// Compares an rc-opt compile against a no-rc-opt compile of the same
/// source: identical checksum, identical allocation profile (same
/// `allocs`/`frees`), and an empty heap at exit on both sides. The
/// inc/dec totals may differ — shrinking that traffic is the point of
/// the pass — and `peak_live` may shift because dec sinking moves
/// releases earlier or later. Returns `(rendered, (executed rc cells
/// with, without))` for successful runs: borrow folding retires `Inc`
/// *cells* by folding the retain into the builtin call's mask, so the
/// cell counts are where the win shows even when the runtime inc/dec
/// op counts break even.
fn assert_rc_knob_agrees(
    label: &str,
    with: &lambda_ssa::vm::CompiledProgram,
    without: &lambda_ssa::vm::CompiledProgram,
) -> Option<(String, (u64, u64))> {
    let run = |p: &lambda_ssa::vm::CompiledProgram| {
        run_program_with(p, "main", MAX_STEPS, DecodeOptions::fused())
    };
    match (run(with), run(without)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.rendered, b.rendered,
                "{label}: rc-opt changed the checksum"
            );
            assert_eq!(
                a.vm_stats.heap.allocs, b.vm_stats.heap.allocs,
                "{label}: rc-opt changed the allocation count"
            );
            assert_eq!(
                a.vm_stats.heap.frees, b.vm_stats.heap.frees,
                "{label}: rc-opt changed the free count"
            );
            assert_eq!(a.vm_stats.heap.live, 0, "{label}: rc-opt compile leaked");
            assert_eq!(b.vm_stats.heap.live, 0, "{label}: no-rc-opt compile leaked");
            let heap_traffic = |h: &lambda_ssa::rt::HeapStats| h.incs + h.decs;
            assert!(
                heap_traffic(&a.vm_stats.heap) <= heap_traffic(&b.vm_stats.heap),
                "{label}: rc-opt increased inc/dec traffic ({} > {})",
                heap_traffic(&a.vm_stats.heap),
                heap_traffic(&b.vm_stats.heap)
            );
            // No per-case `<=` on cells: on tiny programs a sunk dec can
            // break a `Dec2` fusion and cost a cell; only the suite-wide
            // aggregate (checked by the workload test) must improve.
            let rc_cells = |s: &lambda_ssa::vm::VmStatistics| {
                s.executed_of(OpClass::Rc)
                    + s.executed_of(OpClass::FusedDec2)
                    + s.executed_of(OpClass::FusedDec4)
            };
            Some((a.rendered, (rc_cells(&a.vm_stats), rc_cells(&b.vm_stats))))
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                a.message, b.message,
                "{label}: rc-opt changed the error message"
            );
            None
        }
        (a, b) => panic!(
            "{label}: rc-opt changed whether the program fails \
             (with: {:?}, without: {:?})",
            a.map(|o| o.rendered),
            b.map(|o| o.rendered)
        ),
    }
}

#[test]
fn rc_opt_knob_preserves_behaviour_on_workloads() {
    let workloads = all(Scale::Test);
    let traffic = par::par_map(&workloads, |w| {
        let with =
            compile(&w.src, CompilerConfig::mlir()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let without = compile(&w.src, norc_config()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        // The no-rc-opt compile must itself agree across both decodes
        // (the rc-opt compile is covered by
        // `workloads_agree_across_dispatch_matrix_and_all_pipelines`)…
        let label = format!("{} [no-rc-opt]", w.name);
        let rendered = assert_decodes_agree(&label, &without)
            .unwrap_or_else(|| panic!("{label}: workload must not trap"));
        assert_eq!(rendered, w.expected_test, "{label}");
        // …and with the optimized compile head-to-head.
        assert_rc_knob_agrees(w.name, &with, &without).unwrap()
    });
    // Across the whole suite the pass must actually retire rc cells, not
    // just break even.
    let (with, without) = traffic
        .iter()
        .fold((0, 0), |(a, b), (_, (ta, tb))| (a + ta, b + tb));
    assert!(
        with < without,
        "rc-opt retired no executed rc cells anywhere ({with} vs {without})"
    );
}

#[test]
fn rc_opt_knob_preserves_behaviour_on_corpus() {
    let cases = handwritten();
    par::par_map(&cases, |case| {
        let with = compile(&case.src, CompilerConfig::mlir());
        let without = compile(&case.src, norc_config());
        match (with, without) {
            (Ok(with), Ok(without)) => {
                assert_rc_knob_agrees(&case.name, &with, &without);
            }
            // Compile-time failures (type errors and friends) happen
            // before the pass pipeline; both knobs must agree on them.
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "{}: rc-opt changed compilability (with: {}, without: {})",
                case.name,
                a.is_ok(),
                b.is_ok()
            ),
        }
    });
}

#[test]
fn conformance_cases_agree_across_dispatch_matrix() {
    // The hand-written corpus covers every language construct and the
    // runtime-error edges (div-by-zero and friends) — exactly the places a
    // dispatch or fusion bug would hide.
    let cases = handwritten();
    par::par_map(&cases, |case| {
        let program = match compile(&case.src, CompilerConfig::mlir()) {
            Ok(p) => p,
            // Compile-time failures never reach the decoder.
            Err(_) => return,
        };
        assert_decodes_agree(&case.name, &program);
    });
}

#[test]
fn step_budget_exhaustion_is_identical_across_dispatch_matrix() {
    // Resource governance must be decode-invariant: capping the step
    // budget below a workload's total must abort both decodes at the
    // *identical* step count with the *identical* structured error. A
    // checkpoint scheme that consumed steps, or polled differently per
    // decode, would diverge here.
    let workloads = all(Scale::Test);
    par::par_map(&workloads, |w| {
        let program =
            compile(&w.src, CompilerConfig::mlir()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        // Learn the fused total; cap at half of it. Fused decode executes
        // the fewest cells, so the cap undershoots every decode mode.
        let full = run_program_with(&program, "main", MAX_STEPS, DecodeOptions::fused())
            .unwrap_or_else(|e| panic!("{}: uncapped run failed: {e}", w.name));
        let budget = full.stats.instructions / 2;
        if budget == 0 {
            return;
        }
        for (name, decode) in decodes() {
            let decoded = program.decoded(decode);
            let mut vm = lambda_ssa::vm::Vm::new(&decoded, budget);
            let err = vm
                .run("main")
                .expect_err(&format!("{} [{name}]: capped run must exhaust", w.name));
            assert_eq!(
                err.kind,
                lambda_ssa::vm::VmErrorKind::StepBudget,
                "{} [{name}]: wrong error kind",
                w.name
            );
            assert_eq!(
                err.message,
                lambda_ssa::rt::STEP_BUDGET_MSG,
                "{} [{name}]: wrong error message",
                w.name
            );
            assert_eq!(
                vm.stats().instructions,
                budget,
                "{} [{name}]: aborted at a different step count",
                w.name
            );
        }
    });
}
