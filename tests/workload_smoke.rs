//! Differential smoke oracle: every benchmark `Workload` at `Scale::Test`
//! runs through the λ reference interpreter (both λpure and λrc) and
//! through all four compiled pipelines on the VM, and every route must
//! produce the workload's recorded checksum with a balanced heap.
//!
//! This is the cheapest end-to-end guard for future refactors: any change
//! that breaks a lowering, an optimization, or the runtime shows up here as
//! a checksum mismatch on a named workload long before the full 648-program
//! conformance suite finishes.
//!
//! Workloads are independent — each case owns its interpreter environment,
//! its compiled program, and its VM `Heap` — so the oracle shards one job
//! per workload through the shared batch executor (`lssa_driver::par`,
//! the ROADMAP's parallel batch driver). A panic in any job propagates
//! after all workers join and fails the test with the workload's own
//! message.

use lambda_ssa::driver::diff::configs;
use lambda_ssa::driver::par::BatchRunner;
use lambda_ssa::driver::pipelines::compile_and_run;
use lambda_ssa::driver::workloads::{all, Scale, Workload};
use lambda_ssa::lambda::{insert_rc, parse_program, run_program};

const MAX_STEPS: u64 = 500_000_000;

/// Runs `check` once per workload, one executor job per workload.
fn for_each_workload_parallel(scale: Scale, check: impl Fn(&Workload) + Sync) {
    let workloads = all(scale);
    BatchRunner::new()
        .with_jobs(workloads.len())
        .map(&workloads, |w| check(w));
}

#[test]
fn interpreter_matches_checksums() {
    for_each_workload_parallel(Scale::Test, |w| {
        let p = parse_program(&w.src).unwrap_or_else(|e| panic!("{}: parse: {e}", w.name));
        let pure = run_program(&p, "main", false, MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}: λpure: {e}", w.name));
        assert_eq!(pure.rendered, w.expected_test, "{}: λpure checksum", w.name);

        let rc = insert_rc(&p);
        let rc_out = run_program(&rc, "main", true, MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}: λrc: {e}", w.name));
        assert_eq!(rc_out.rendered, w.expected_test, "{}: λrc checksum", w.name);
        assert_eq!(rc_out.stats.live, 0, "{}: λrc leaked objects", w.name);
    });
}

#[test]
fn all_pipelines_match_checksums() {
    for_each_workload_parallel(Scale::Test, |w| {
        for config in configs() {
            let label = config.label();
            let out = compile_and_run(&w.src, config, MAX_STEPS)
                .unwrap_or_else(|e| panic!("{}/{label}: {e}", w.name));
            assert_eq!(
                out.rendered, w.expected_test,
                "{}/{label}: VM checksum disagrees with the oracle",
                w.name
            );
            assert_eq!(
                out.stats.heap.live, 0,
                "{}/{label}: VM leaked objects",
                w.name
            );
        }
    });
}

/// At `Scale::Bench` the runs take seconds each, so this cross-check of the
/// two interesting pipelines is gated behind `--features slow-tests`.
#[cfg(feature = "slow-tests")]
#[test]
fn bench_scale_pipelines_agree() {
    use lambda_ssa::driver::pipelines::CompilerConfig;
    for_each_workload_parallel(Scale::Bench, |w| {
        let base = compile_and_run(&w.src, CompilerConfig::leanc(), MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}/leanc: {e}", w.name));
        let mlir = compile_and_run(&w.src, CompilerConfig::mlir(), MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}/mlir: {e}", w.name));
        assert_eq!(
            base.rendered, mlir.rendered,
            "{}: bench-scale disagreement",
            w.name
        );
    });
}

/// `Scale::Stress` runs several times `Bench` — the nightly-only guard that
/// the VM (frame pool, decoded stream, runtime) holds up well past the
/// timing sizes.
#[cfg(feature = "slow-tests")]
#[test]
fn stress_scale_pipelines_agree() {
    use lambda_ssa::driver::pipelines::CompilerConfig;
    const STRESS_MAX_STEPS: u64 = 20_000_000_000;
    for_each_workload_parallel(Scale::Stress, |w| {
        let base = compile_and_run(&w.src, CompilerConfig::leanc(), STRESS_MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}/leanc: {e}", w.name));
        let mlir = compile_and_run(&w.src, CompilerConfig::mlir(), STRESS_MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}/mlir: {e}", w.name));
        assert_eq!(
            base.rendered, mlir.rendered,
            "{}: stress-scale disagreement",
            w.name
        );
        assert_eq!(base.stats.heap.live, 0, "{}: leak at stress scale", w.name);
        assert_eq!(mlir.stats.heap.live, 0, "{}: leak at stress scale", w.name);
    });
}
