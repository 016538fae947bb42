//! The pipeline census: every (pipeline, pass) slot of the optimizing
//! backend must change some program.
//!
//! Compiles the handwritten conformance cases and a seeded generated draw
//! under `mlir` (the simplified input Figure 10's `full` rung compiles) and
//! under `rgn_only` (the raw input on which the region optimizations do
//! their work), and fails, naming the slot, when a pass row of some
//! pipeline never reports `changed` under either configuration. A slot
//! that changes nothing on this corpus costs compile time on every program
//! and should be deleted, or the corpus should gain a program it changes.

use lssa_driver::conformance::{generated, handwritten};
use lssa_driver::pipelines::{compile_with_report, CompilerConfig};

/// Size and seed of the generated draw.
const DRAW: (usize, u64) = (200, 7);

#[test]
fn every_pipeline_slot_changes_some_program() {
    let mut cases = handwritten();
    cases.extend(generated(DRAW.0, DRAW.1));
    // (pipeline, pass) in first-seen order, and whether any run changed.
    let mut slots: Vec<(&'static str, &'static str, bool)> = Vec::new();
    for config in [CompilerConfig::mlir(), CompilerConfig::rgn_only()] {
        for case in &cases {
            let (_, report) = compile_with_report(&case.src, config)
                .unwrap_or_else(|e| panic!("{} ({}): {e}", case.name, config.label()));
            let report = report.expect("the mlir backend reports its pipelines");
            for phase in &report.phases {
                for row in &phase.passes {
                    let seen = slots
                        .iter_mut()
                        .find(|(p, pass, _)| *p == phase.pipeline && *pass == row.pass);
                    match seen {
                        Some(slot) => slot.2 |= row.changed,
                        None => slots.push((phase.pipeline, row.pass, row.changed)),
                    }
                }
            }
        }
    }
    for pipeline in [
        "rgn-opt",
        "lower-cfg",
        "generic-opt",
        "rc-opt",
        "tco",
        "cleanup",
    ] {
        assert!(
            slots.iter().any(|(p, _, _)| *p == pipeline),
            "no `{pipeline}` rows were reported"
        );
    }
    let idle: Vec<String> = slots
        .iter()
        .filter(|(_, _, changed)| !changed)
        .map(|(pipeline, pass, _)| format!("{pipeline}/{pass}"))
        .collect();
    assert!(
        idle.is_empty(),
        "these pipeline slots changed none of {} programs under mlir or rgn_only: {}",
        cases.len(),
        idle.join(", ")
    );
}
