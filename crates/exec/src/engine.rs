//! The scoped-thread worker pool and per-job context.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flexprot_core::Protected;
use flexprot_sim::SimConfig;
use flexprot_trace::Metrics;
use flexprot_workloads::Workload;

use crate::cache::{ArtifactCache, Baseline};
use crate::sweep::Job;

/// Worker count from the environment: `FLEXPROT_JOBS` when set (values
/// below 1 are ignored), else the available parallelism capped at 8.
pub fn default_jobs() -> usize {
    if let Ok(value) = std::env::var("FLEXPROT_JOBS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(8)
}

/// The batched execution engine: a worker pool plus the shared
/// [`ArtifactCache`] and the aggregate metrics document.
///
/// Results come back in *job order* regardless of the worker count, and
/// the aggregate metrics are built from commutative merges — so a sweep's
/// tables and metrics JSON are byte-identical under `--jobs 1` and
/// `--jobs N`.
#[derive(Debug, Default)]
pub struct Engine {
    workers: usize,
    cache: ArtifactCache,
    aggregate: Mutex<Metrics>,
    jobs_completed: AtomicUsize,
}

impl Engine {
    /// An engine with a fixed worker count (minimum 1).
    pub fn new(workers: usize) -> Engine {
        Engine {
            workers: workers.max(1),
            cache: ArtifactCache::new(),
            aggregate: Mutex::new(Metrics::new()),
            jobs_completed: AtomicUsize::new(0),
        }
    }

    /// An engine sized by [`default_jobs`].
    pub fn with_default_jobs() -> Engine {
        Engine::new(default_jobs())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Runs every job through `run`, fanning out over the worker pool, and
    /// returns the results in job order.
    ///
    /// Jobs are claimed from a shared counter, so workers stay busy while
    /// any remain; each runs with its own [`JobCtx`] whose metrics are
    /// merged into the engine aggregate when the job finishes. A panicking
    /// job propagates its payload to the caller.
    pub fn run_jobs<J, T, F>(&self, jobs: &[J], run: F) -> Vec<T>
    where
        J: Sync,
        T: Send,
        F: Fn(&mut JobCtx<'_>, &J) -> T + Sync,
    {
        let total = jobs.len();
        let workers = self.workers.min(total.max(1));
        if workers <= 1 {
            return jobs.iter().map(|job| self.run_one(&run, job)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = Vec::with_capacity(total);
        results.resize_with(total, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= total {
                                break;
                            }
                            mine.push((index, self.run_one(&run, &jobs[index])));
                        }
                        mine
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(mine) => {
                        for (index, value) in mine {
                            results[index] = Some(value);
                        }
                    }
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        });
        results
            .into_iter()
            .map(|value| value.expect("every claimed job produced a result"))
            .collect()
    }

    fn run_one<J, T>(&self, run: &(impl Fn(&mut JobCtx<'_>, &J) -> T + Sync), job: &J) -> T {
        let mut ctx = JobCtx {
            cache: &self.cache,
            metrics: Metrics::new(),
        };
        let value = run(&mut ctx, job);
        self.aggregate
            .lock()
            .expect("engine aggregate metrics")
            .merge(&ctx.metrics);
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// A snapshot of the aggregate metrics: every per-job registry merged,
    /// plus the engine's own counters (`exec_jobs_completed`,
    /// `exec_cache_hits`, `exec_cache_misses`).
    ///
    /// Deliberately excludes anything scheduling-dependent (worker count,
    /// wall time), so the document is identical across thread counts.
    pub fn metrics(&self) -> Metrics {
        let mut snapshot = self
            .aggregate
            .lock()
            .expect("engine aggregate metrics")
            .clone();
        snapshot.set(
            "exec_jobs_completed",
            self.jobs_completed.load(Ordering::Relaxed) as u64,
        );
        let stats = self.cache.stats();
        snapshot.set("exec_cache_hits", stats.hits);
        snapshot.set("exec_cache_misses", stats.misses);
        snapshot
    }
}

/// What one running job sees: the shared cache plus its private metrics
/// registry (merged into the engine aggregate when the job returns).
#[derive(Debug)]
pub struct JobCtx<'a> {
    pub(crate) cache: &'a ArtifactCache,
    pub(crate) metrics: Metrics,
}

impl JobCtx<'_> {
    /// The shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        self.cache
    }

    /// This job's metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Merges an already-aggregated registry (e.g. a run's
    /// `Machine::metrics`) into this job's metrics.
    pub fn merge_metrics(&mut self, metrics: &Metrics) {
        self.metrics.merge(metrics);
    }

    /// Cached baseline lookup (see [`ArtifactCache::baseline`]).
    pub fn baseline(&self, workload: &Workload, sim: &SimConfig) -> Arc<Baseline> {
        self.cache.baseline(workload, sim)
    }

    /// The job's protected binary from the cache (see
    /// [`ArtifactCache::protected`]).
    ///
    /// # Errors
    ///
    /// Returns the stringified pipeline error.
    pub fn protected(&self, job: &Job) -> Result<Arc<Protected>, String> {
        self.cache.protected(
            &job.workload,
            &job.config,
            job.use_profile.then_some(&job.sim),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let engine = Engine::new(4);
        let jobs: Vec<usize> = (0..64).collect();
        let results = engine.run_jobs(&jobs, |_, &n| n * 2);
        assert_eq!(results, (0..64).map(|n| n * 2).collect::<Vec<_>>());
        assert_eq!(engine.metrics().counter("exec_jobs_completed"), 64);
    }

    #[test]
    fn single_worker_engine_matches_parallel_engine() {
        let jobs: Vec<u64> = (1..=40).collect();
        let run = |ctx: &mut JobCtx<'_>, &n: &u64| {
            ctx.metrics_mut().add("total", n);
            ctx.metrics_mut().observe("sample", n);
            n
        };
        let serial = Engine::new(1);
        let parallel = Engine::new(4);
        assert_eq!(serial.run_jobs(&jobs, run), parallel.run_jobs(&jobs, run));
        assert_eq!(
            serial.metrics().to_json(),
            parallel.metrics().to_json(),
            "aggregate metrics must be scheduling-independent"
        );
        assert_eq!(serial.metrics().counter("total"), (1..=40).sum::<u64>());
    }

    #[test]
    fn empty_job_list_is_fine() {
        let engine = Engine::new(4);
        let results: Vec<u32> = engine.run_jobs(&Vec::<u32>::new(), |_, &n| n);
        assert!(results.is_empty());
    }

    #[test]
    fn job_panics_propagate() {
        let engine = Engine::new(2);
        let jobs = vec![0u32, 1, 2, 3];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_jobs(&jobs, |_, &n| {
                assert_ne!(n, 2, "boom");
                n
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn env_override_parses() {
        // Can't mutate the environment safely in-process across parallel
        // tests; just sanity-check the default is at least one worker.
        assert!(default_jobs() >= 1);
        assert!(Engine::new(0).workers() == 1);
    }
}
