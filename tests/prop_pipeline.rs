//! Property-based end-to-end testing: for any generated program, all
//! pipelines agree with the reference interpreter, the simplifier preserves
//! semantics, and reference counting balances.

use lambda_ssa::core::pipeline::{
    compile_with_report, rc_opt_pipeline, reoptimize, PipelineOptions,
};
use lambda_ssa::driver::conformance::generated;
use lambda_ssa::driver::diff::run_differential;
use lambda_ssa::driver::pipelines::{frontend, CompilerConfig};
use lambda_ssa::ir::verifier::verify_module;
use lambda_ssa::lambda::{
    check_program, insert_rc, parse_program, run_program, simplify_program, SimplifyOptions,
};
use proptest::prelude::*;

const MAX_STEPS: u64 = 200_000_000;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case compiles 4 pipelines; keep CI time bounded
        .. ProptestConfig::default()
    })]

    /// Differential agreement on arbitrary generated programs.
    #[test]
    fn generated_programs_agree_across_pipelines(seed in any::<u32>()) {
        let case = generated(1, seed as u64).remove(0);
        let r = run_differential(&case.name, &case.src, MAX_STEPS);
        prop_assert!(r.passed(), "{}\n{}", r.failure.unwrap_or_default(), case.src);
    }

    /// The λpure simplifier preserves observable behaviour.
    #[test]
    fn simplifier_preserves_semantics(seed in any::<u32>()) {
        let case = generated(1, seed as u64 ^ 0xabcd_ef01).remove(0);
        let p = parse_program(&case.src).unwrap();
        check_program(&p).unwrap();
        let s = simplify_program(&p, SimplifyOptions::all());
        check_program(&s).unwrap();
        let before = run_program(&p, "main", false, MAX_STEPS).unwrap().rendered;
        let after = run_program(&s, "main", false, MAX_STEPS).unwrap().rendered;
        prop_assert_eq!(before, after, "simplifier changed behaviour of\n{}", case.src);
    }

    /// RC insertion is balanced on arbitrary programs: after running the
    /// λrc form, the heap is empty.
    #[test]
    fn rc_insertion_is_balanced(seed in any::<u32>()) {
        let case = generated(1, seed as u64 ^ 0x1234_5678).remove(0);
        let p = parse_program(&case.src).unwrap();
        let rc = insert_rc(&p);
        check_program(&rc).unwrap();
        let out = run_program(&rc, "main", true, MAX_STEPS).unwrap();
        prop_assert_eq!(out.stats.live, 0, "leaked on\n{}", case.src);
        // And it computes the same thing as λpure.
        let pure = run_program(&p, "main", false, MAX_STEPS).unwrap();
        prop_assert_eq!(out.rendered, pure.rendered);
    }

    /// Pipeline idempotence: `compile` ends with the `cleanup` pipeline
    /// driven to a fixpoint, so re-running that pass pipeline on the
    /// compiler's own output must report `changed == false` — on arbitrary
    /// generated programs, not just the workloads.
    #[test]
    fn pipeline_is_idempotent_on_its_own_output(seed in any::<u32>()) {
        let case = generated(1, seed as u64 ^ 0x5a5a_5a5a).remove(0);
        let rc = frontend(&case.src, CompilerConfig::mlir()).unwrap();
        let opts = PipelineOptions { verify: true, ..PipelineOptions::full() };
        let (mut module, report) = compile_with_report(&rc, opts);
        let cleanup = report.phases.last().unwrap();
        prop_assert!(cleanup.converged, "cleanup missed its fixpoint on\n{}", case.src);
        let again = reoptimize(&mut module, opts);
        prop_assert!(
            !again.changed,
            "re-running the pass pipeline changed the IR of\n{}\n{}",
            case.src,
            again.render_table()
        );
    }

    /// The §III reference-count optimization is a true single-sweep
    /// fixpoint pass: its output passes the verifier, and re-running it
    /// on its own output reports `changed == false` — on arbitrary
    /// generated programs, not just the workloads.
    #[test]
    fn rc_opt_is_idempotent_and_verified(seed in any::<u32>()) {
        let case = generated(1, seed as u64 ^ 0x00dc_0de5).remove(0);
        let rc = frontend(&case.src, CompilerConfig::mlir()).unwrap();
        // Compile without rc-opt to get verified IR the pass has never
        // seen, then apply it by hand, twice.
        let opts = PipelineOptions { rc_opt: false, verify: true, ..PipelineOptions::full() };
        let (mut module, _) = compile_with_report(&rc, opts);
        rc_opt_pipeline(opts).run(&mut module);
        prop_assert!(
            verify_module(&module).is_ok(),
            "rc-opt broke the IR of\n{}",
            case.src
        );
        let again = rc_opt_pipeline(opts).run(&mut module);
        prop_assert!(
            !again.changed,
            "rc-opt is not at a fixpoint after one sweep on\n{}",
            case.src
        );
    }

    /// Simplifier + RC + both backends agree even when the simplifier is
    /// run with individual flags toggled.
    #[test]
    fn simplifier_option_combinations_sound(seed in any::<u32>(), simpcase in any::<bool>(), fold in any::<bool>()) {
        let case = generated(1, seed as u64 ^ 0x9999).remove(0);
        let p = parse_program(&case.src).unwrap();
        let opts = SimplifyOptions {
            const_fold: fold,
            simpcase,
        };
        let s = simplify_program(&p, opts);
        check_program(&s).unwrap();
        let before = run_program(&p, "main", false, MAX_STEPS).unwrap().rendered;
        let after = run_program(&s, "main", false, MAX_STEPS).unwrap().rendered;
        prop_assert_eq!(before, after);
    }
}
