//! The parallel batch executor — one subsystem for every sharded run.
//!
//! One chunked work-queue executor that all batch consumers share: the
//! `correctness` and `gauntlet` binaries and the integration-test
//! harnesses (the workload smoke oracle, the conformance suites).
//!
//! Design:
//!
//! - **Chunked work queue.** Workers claim contiguous chunks of the input
//!   off a shared atomic cursor, so threads that land cheap jobs keep
//!   pulling work instead of idling behind a static partition.
//! - **Deterministic output.** Each job's result is tagged with its input
//!   index and the merged output is in input order — byte-identical
//!   regardless of `jobs` or scheduling.
//! - **Panic transparency.** Every job runs under `catch_unwind`, so a
//!   panicking job never wedges the batch or loses its worker's other
//!   results. In the default mode the panic is re-raised on the caller's
//!   thread after the whole batch completes — deterministically the
//!   lowest-input-index panic, with a summary counting *all* panicked jobs
//!   when there was more than one. In **quarantine mode**
//!   ([`BatchRunner::map_quarantined`]) nothing is re-raised: each panic
//!   becomes a per-job [`JobPanic`] entry and the rest of the batch is
//!   unaffected.
//! - **Aggregation.** [`BatchRunner::run_with_progress`] wraps each job
//!   with wall-clock timing and returns a [`BatchReport`] carrying per-job
//!   durations, the batch wall time, and (for `Result` jobs) failure
//!   accounting.
//!
//! ```
//! use lssa_driver::par::BatchRunner;
//! let squares = BatchRunner::new().with_jobs(4).map(&[1, 2, 3, 4], |n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What `catch_unwind` hands back from a panicked job.
pub(crate) type PanicPayload = Box<dyn Any + Send + 'static>;

/// Best-effort text of a panic payload (`&str` and `String` payloads cover
/// everything `panic!` and the `assert!` family produce).
pub(crate) fn panic_message(payload: &PanicPayload) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A job panic captured by the quarantine mode: the panic message, carried
/// as a per-job failure value instead of an unwinding panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, rendered to text.
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The number of worker threads the executor uses by default: the
/// machine's available parallelism, or 1 when that cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A configured batch executor.
///
/// Cheap to build; carries only the thread count. See the [module
/// docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    jobs: usize,
}

impl Default for BatchRunner {
    fn default() -> BatchRunner {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// An executor using [`available_jobs`] threads.
    pub fn new() -> BatchRunner {
        BatchRunner {
            jobs: available_jobs(),
        }
    }

    /// Sets the worker-thread count. `0` restores the default
    /// ([`available_jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> BatchRunner {
        self.jobs = if jobs == 0 { available_jobs() } else { jobs };
        self
    }

    /// The worker-thread count a batch of `len` jobs would actually use
    /// (never more threads than jobs).
    fn effective_jobs(&self, len: usize) -> usize {
        self.jobs.max(1).min(len.max(1))
    }

    /// The chunk size workers claim per queue pop: ~4 turns per worker so
    /// stragglers rebalance, capped so progress callbacks stay responsive
    /// on huge batches.
    fn effective_chunk(len: usize, jobs: usize) -> usize {
        (len / (jobs * 4)).clamp(1, 64)
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order regardless of thread count.
    ///
    /// # Panics
    ///
    /// After the whole batch has run, re-raises the panic of the
    /// lowest-input-index panicking job — deterministic regardless of thread
    /// count. When several jobs panicked, the re-raised payload is a summary
    /// counting all of them (with their input indices), so no failure is
    /// silently dropped.
    pub fn map<T, R>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_with_progress(items, f, |_, _| {})
    }

    /// [`BatchRunner::map`], invoking `progress(done, total)` after each
    /// completed chunk. `progress` is called from worker threads; completion
    /// counts are monotone per call site but calls may interleave.
    fn map_with_progress<T, R>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
        progress: impl Fn(usize, usize) + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let results = self.map_caught(items, f, progress);
        let mut out = Vec::with_capacity(results.len());
        let mut panics: Vec<(usize, PanicPayload)> = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(payload) => panics.push((i, payload)),
            }
        }
        if panics.is_empty() {
            return out;
        }
        if panics.len() == 1 {
            // Single failure: re-raise the original payload untouched.
            std::panic::resume_unwind(panics.remove(0).1);
        }
        let indices: Vec<String> = panics.iter().map(|(i, _)| i.to_string()).collect();
        let first = panic_message(&panics[0].1);
        panic!(
            "{} batch jobs panicked (input indices {}); first: {}",
            panics.len(),
            indices.join(", "),
            first
        );
    }

    /// The quarantined sibling of [`BatchRunner::map`]: every panic is
    /// captured as a per-job [`JobPanic`] and nothing is re-raised, so one
    /// hostile job cannot take down the batch (or the process).
    pub fn map_quarantined<T, R>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<Result<R, JobPanic>>
    where
        T: Sync,
        R: Send,
    {
        self.map_caught(items, f, |_, _| {})
            .into_iter()
            .map(|r| {
                r.map_err(|payload| JobPanic {
                    message: panic_message(&payload),
                })
            })
            .collect()
    }

    /// The shared engine: applies `f` to every item in parallel with each
    /// job under `catch_unwind`, returning per-job outcomes in input order.
    /// A panicking job costs the batch nothing — its worker keeps claiming
    /// chunks and every other result is retained.
    fn map_caught<T, R>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
        progress: impl Fn(usize, usize) + Sync,
    ) -> Vec<Result<R, PanicPayload>>
    where
        T: Sync,
        R: Send,
    {
        let total = items.len();
        let jobs = self.effective_jobs(total);
        let chunk = BatchRunner::effective_chunk(total, jobs);
        let guarded = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item)));
        if jobs <= 1 || total <= 1 {
            // Serial fast path — same chunk-grained progress reporting.
            let mut out = Vec::with_capacity(total);
            for (i, item) in items.iter().enumerate() {
                out.push(guarded(item));
                if (i + 1) % chunk == 0 || i + 1 == total {
                    progress(i + 1, total);
                }
            }
            return out;
        }
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let (guarded, progress, next, done) = (&guarded, &progress, &next, &done);
        let mut buckets: Vec<Vec<(usize, Result<R, PanicPayload>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    std::thread::Builder::new()
                        .name(format!("batch-{w}"))
                        .spawn_scoped(s, move || {
                            let mut local = Vec::new();
                            loop {
                                let start = next.fetch_add(chunk, Ordering::Relaxed);
                                if start >= total {
                                    break;
                                }
                                let end = (start + chunk).min(total);
                                for (i, item) in items[start..end].iter().enumerate() {
                                    local.push((start + i, guarded(item)));
                                }
                                let finished =
                                    done.fetch_add(end - start, Ordering::Relaxed) + (end - start);
                                progress(finished, total);
                            }
                            local
                        })
                        .expect("spawn batch worker")
                })
                .collect();
            // Workers cannot unwind (jobs are caught), so plain joins.
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker survives"))
                .collect()
        });
        // Merge worker-local results back into input order.
        let mut slots: Vec<Option<Result<R, PanicPayload>>> =
            std::iter::repeat_with(|| None).take(total).collect();
        for bucket in &mut buckets {
            for (i, r) in bucket.drain(..) {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("executor produced a result for every job"))
            .collect()
    }

    /// Runs the batch with per-job timing, aggregating into a
    /// [`BatchReport`], and invokes `progress(done, total)` after each
    /// completed chunk (from worker threads; completion counts are monotone
    /// per call site but calls may interleave).
    ///
    /// # Panics
    ///
    /// Re-raises job panics as [`BatchRunner::map`] does.
    pub fn run_with_progress<T, R>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
        progress: impl Fn(usize, usize) + Sync,
    ) -> BatchReport<R>
    where
        T: Sync,
        R: Send,
    {
        let start = Instant::now();
        let timed = self.map_with_progress(
            items,
            |item| {
                let t = Instant::now();
                let result = f(item);
                (t.elapsed(), result)
            },
            progress,
        );
        BatchReport {
            results: timed
                .into_iter()
                .map(|(duration, result)| JobResult { duration, result })
                .collect(),
            wall_time: start.elapsed(),
            jobs: self.effective_jobs(items.len()),
        }
    }
}

/// Convenience wrapper: [`BatchRunner::map`] with the default executor.
pub fn par_map<T, R>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    BatchRunner::new().map(items, f)
}

/// One job's outcome inside a [`BatchReport`]. Its position in
/// [`BatchReport::results`] is the job's position in the input slice.
#[derive(Debug, Clone)]
pub struct JobResult<R> {
    /// Wall time this job took on its worker.
    pub duration: Duration,
    /// What the job returned.
    pub result: R,
}

/// Aggregate outcome of one [`BatchRunner::run_with_progress`] batch:
/// per-job results in input order plus batch-level accounting.
#[derive(Debug, Clone)]
pub struct BatchReport<R> {
    /// Per-job outcomes, in input order.
    pub results: Vec<JobResult<R>>,
    /// Wall time of the whole batch (queue open to last join).
    pub wall_time: Duration,
    /// Worker threads the batch used.
    pub jobs: usize,
}

impl<R> BatchReport<R> {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Sum of per-job wall times — the serial cost the batch amortized
    /// across its workers.
    pub fn total_job_time(&self) -> Duration {
        self.results.iter().map(|j| j.duration).sum()
    }
}

impl<R, E> BatchReport<Result<R, E>> {
    /// The failed jobs as `(input index, error)`, in input order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &E)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, j)| j.result.as_ref().err().map(|e| (i, e)))
    }

    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.failures().count()
    }

    /// Number of successful jobs.
    pub fn passed(&self) -> usize {
        self.len() - self.failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|n| n * 2).collect();
        for jobs in [1, 2, 7, 32] {
            let got = BatchRunner::new().with_jobs(jobs).map(&items, |n| n * 2);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let got: Vec<usize> = BatchRunner::new().map(&[], |n: &usize| *n);
        assert!(got.is_empty());
        let report = BatchRunner::new().run_with_progress(&[], |n: &usize| *n, |_, _| {});
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let got = BatchRunner::new().with_jobs(64).map(&[1, 2, 3], |n| n + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert_eq!(
            BatchRunner::new().with_jobs(0).effective_jobs(1024),
            available_jobs()
        );
    }

    #[test]
    fn job_panic_propagates_after_join() {
        let items: Vec<usize> = (0..64).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            BatchRunner::new().with_jobs(4).map(&items, |&n| {
                assert!(n != 13, "unlucky job");
                n
            });
        }))
        .expect_err("the panic must reach the caller");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("unlucky job"), "{msg}");
    }

    #[test]
    fn multiple_panics_are_all_accounted() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 4] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                BatchRunner::new().with_jobs(jobs).map(&items, |&n| {
                    assert!(n % 10 != 3, "bad job {n}");
                    n
                });
            }))
            .expect_err("the panic must reach the caller");
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            // Jobs 3, 13, 23, 33, 43, 53, 63 all panicked: the summary must
            // count them and list their input indices, deterministically.
            assert!(msg.contains("7 batch jobs panicked"), "jobs={jobs}: {msg}");
            assert!(
                msg.contains("3, 13, 23, 33, 43, 53, 63"),
                "jobs={jobs}: {msg}"
            );
            assert!(msg.contains("bad job 3"), "jobs={jobs}: {msg}");
        }
    }

    #[test]
    fn quarantine_turns_panics_into_per_job_failures() {
        let items: Vec<usize> = (0..40).collect();
        for jobs in [1, 4] {
            let results = BatchRunner::new()
                .with_jobs(jobs)
                .map_quarantined(&items, |&n| {
                    assert!(n != 7 && n != 19, "poisoned {n}");
                    n * 2
                });
            assert_eq!(results.len(), 40);
            for (i, r) in results.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i * 2),
                    Err(p) => {
                        assert!(i == 7 || i == 19, "unexpected panic at {i}");
                        assert!(p.message.contains(&format!("poisoned {i}")));
                    }
                }
            }
        }
    }

    #[test]
    fn progress_is_chunkwise_and_reaches_total() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 8] {
            let seen = Mutex::new(Vec::new());
            BatchRunner::new().with_jobs(jobs).map_with_progress(
                &items,
                |n| *n,
                |done, total| seen.lock().unwrap().push((done, total)),
            );
            let seen = seen.into_inner().unwrap();
            assert!(!seen.is_empty());
            assert!(seen.iter().all(|&(_, t)| t == 100));
            assert_eq!(
                seen.iter().map(|&(d, _)| d).max(),
                Some(100),
                "jobs={jobs}: progress must reach the total"
            );
        }
    }

    #[test]
    fn run_reports_timing_and_failures() {
        let items: Vec<usize> = (0..20).collect();
        let report = BatchRunner::new().with_jobs(4).run_with_progress(
            &items,
            |&n| {
                if n % 5 == 0 {
                    Err(format!("bad {n}"))
                } else {
                    Ok(n)
                }
            },
            |_, _| {},
        );
        assert_eq!(report.len(), 20);
        assert_eq!(report.failed(), 4);
        assert_eq!(report.passed(), 16);
        let failed: Vec<usize> = report.failures().map(|(i, _)| i).collect();
        assert_eq!(failed, vec![0, 5, 10, 15], "failures stay in input order");
        assert!(report.total_job_time() >= Duration::ZERO);
        // Results sit at their input positions.
        let ok: Vec<Option<usize>> = report
            .results
            .iter()
            .map(|j| j.result.as_ref().ok().copied())
            .collect();
        for (i, v) in ok.iter().enumerate() {
            assert_eq!(*v, (i % 5 != 0).then_some(i), "position {i}");
        }
    }

    #[test]
    fn par_map_convenience_matches_serial() {
        let items: Vec<i64> = (0..50).collect();
        assert_eq!(
            par_map(&items, |n| n * n),
            items.iter().map(|n| n * n).collect::<Vec<_>>()
        );
    }
}
