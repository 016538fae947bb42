//! The batching layer's headline guarantee, end-to-end: a compile-and-run
//! batch produces **byte-identical** output whether it runs on one thread
//! or many — the same property the `correctness` binary's `--jobs` flag
//! relies on (and its CLI tests check from the outside).

use lambda_ssa::driver::conformance::full_corpus;
use lambda_ssa::driver::diff::run_differential;
use lambda_ssa::driver::par::BatchRunner;

#[test]
fn differential_batch_is_deterministic_across_job_counts() {
    let mut corpus = full_corpus(0, 0x5e5a_2022); // handwritten cases only
    corpus.truncate(24);
    let render = |jobs: usize| -> String {
        let results = BatchRunner::new().with_jobs(jobs).map(&corpus, |case| {
            run_differential(&case.name, &case.src, 200_000_000)
        });
        assert_eq!(results.len(), corpus.len());
        results
            .iter()
            .enumerate()
            .map(|(i, r)| format!("{i} {} {:?} {:?}\n", r.name, r.rendered, r.failure))
            .collect()
    };
    let serial = render(1);
    for jobs in [2, 5, 16] {
        assert_eq!(serial, render(jobs), "jobs={jobs} must match jobs=1");
    }
}
