//! Shape checks for the evaluation figures: the reproduced numbers must
//! show the same *qualitative* result as the paper even at test scale,
//! using the deterministic instruction counts of the `lssa bench` records
//! (`benchjson`'s six-rung ladder; wall time is what `lssa bench` prints
//! next to them).

use lambda_ssa::driver::benchjson::{geomean, run_suite, BenchRecord};
use lambda_ssa::driver::pipelines::{compile, CompilerConfig};
use lambda_ssa::driver::workloads::{all, Scale};
use std::sync::OnceLock;

const MAX_STEPS: u64 = 500_000_000;

/// The test-scale records every figure reads, measured once.
fn records() -> &'static [BenchRecord] {
    static RECORDS: OnceLock<Vec<BenchRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| run_suite(&all(Scale::Test), 1, MAX_STEPS).unwrap())
}

/// The instruction count of one rung of one record.
fn instructions(r: &BenchRecord, rung: &str) -> f64 {
    r.row(rung).unwrap().instructions as f64
}

#[test]
fn fig9_shape_performance_parity() {
    // Paper: geomean 1.09× — parity. Here: the instruction-count ratio of
    // leanc/full must be close to 1 on every benchmark (within ±40%)
    // and the geomean within ±20%.
    let mut ratios = Vec::new();
    for r in records() {
        let ratio = instructions(r, "leanc") / instructions(r, "full");
        assert!(
            (0.6..=1.67).contains(&ratio),
            "{}: leanc/full instruction ratio {ratio:.2} is far from parity",
            r.name
        );
        ratios.push(ratio);
    }
    let geomean = geomean(&ratios);
    assert!(
        (0.8..=1.25).contains(&geomean),
        "geomean {geomean:.2} breaks the parity claim"
    );
}

#[test]
fn fig10_shape_rgn_matches_simplifier() {
    // Paper: geomean 1.0× between the rgn pipeline on raw λrc and the
    // λrc-simplifier pipeline. Same tolerance discipline as Figure 9.
    let mut ratios = Vec::new();
    for r in records() {
        let ratio = instructions(r, "full") / instructions(r, "rgn_only");
        assert!(
            (0.6..=1.67).contains(&ratio),
            "{}: full/rgn_only instruction ratio {ratio:.2} far from parity",
            r.name
        );
        ratios.push(ratio);
    }
    let geomean = geomean(&ratios);
    assert!(
        (0.85..=1.18).contains(&geomean),
        "geomean {geomean:.2} breaks the Figure 10 parity claim"
    );
}

#[test]
fn optimizations_never_hurt_much_nor_explode_code() {
    // The unoptimized pipeline must not beat the optimized one by a large
    // margin anywhere (optimizations can be neutral, not harmful).
    for r in records() {
        let (opt, raw) = (instructions(r, "full"), instructions(r, "none"));
        assert!(
            opt <= raw * 1.15,
            "{}: optimized pipeline executes {opt} instrs vs {raw} unoptimized",
            r.name
        );
    }
}

#[test]
fn region_optimizations_shrink_static_code() {
    // Static effect of §IV-B: with region opts the compiled code is never
    // larger than without, and shrinks somewhere.
    let mut shrank = false;
    for w in all(Scale::Test) {
        let with = compile(&w.src, CompilerConfig::rgn_only())
            .unwrap()
            .code_size();
        let without = compile(
            &w.src,
            CompilerConfig {
                simplify: Some(lambda_ssa::lambda::SimplifyOptions::without_simpcase()),
                backend: lambda_ssa::driver::Backend::Mlir(
                    lambda_ssa::core::PipelineOptions::no_opt(),
                ),
            },
        )
        .unwrap()
        .code_size();
        // Allow a tiny slack: selector materialization can trade one
        // instruction shape for another (qsort gains a single move).
        assert!(
            with <= without + 3,
            "{}: region opts grew code {with} > {without}",
            w.name
        );
        if with < without {
            shrank = true;
        }
    }
    assert!(shrank, "region opts had no static effect on any benchmark");
}
