//! The persistent job scheduler: a worker pool that outlives any one
//! grid, fed by the same [`SubmissionQueue`] claim machinery `run_sweep`
//! uses for a single grid.
//!
//! Three layers of result sharing, checked in order at submission time,
//! under one lock so the classification is race-free against concurrent
//! completions:
//!
//! 1. **Intra-job dedup** — identical points within one submission share
//!    a single evaluation (a sweep grid with repeated points costs its
//!    unique points only).
//! 2. **Cache** — a point whose fingerprint is already in the
//!    [`ResultCache`] is answered from stored bytes.
//! 3. **In-flight coalescing** — a point some *other* job is currently
//!    evaluating is joined, not re-evaluated; the evaluating worker
//!    fans the result out to every waiting job.
//!
//! The `serve/cache/hits` counter counts every unique point served
//! without a fresh evaluation — disk/memory hits *and* coalesced joins —
//! so for two overlapping submissions it equals the overlap size
//! regardless of how their timing interleaves. `serve/cache/coalesced`
//! separately counts just the joins.
//!
//! Lock order (always acquired in this direction, never the reverse):
//! `inflight` → `cache` → `jobs` → `metrics` → `timeline`. The precise
//! memo's lock is taken only inside an evaluation, which holds no other.
//!
//! Below the three layers, the production evaluator shares work a level
//! down: points that miss the cache but share a (workload, scale, seed,
//! precise config) share one precise reference run through a memo of
//! two references per worker. Each job's points are queued grouped by
//! that key, so a grid in any point order runs one reference per key.
//! `serve/precise/hits` and `serve/precise/misses` count the memo's
//! lookups.
//!
//! Beside the pool runs one sampler thread that closes a timeline epoch
//! every `epoch_ms` wall-milliseconds (see [`Scheduler::new_every`]):
//! the metrics registry
//! is snapshotted (under the `metrics` lock, diffed outside it) into
//! per-epoch delta frames — jobs, cache traffic, queue depth, `eval_ns`
//! intervals — held in the [`EpochSampler`]'s bounded ring. The server's
//! `watch` request streams these frames to clients. Wall-clock sampling
//! is deliberate here: the scheduler *is* a wall-clock system, unlike
//! the simulators, whose timelines run on simulated clocks.

use crate::cache::ResultCache;
use crate::point::{point_record, resolve_point, PointSpec};
use lva_obs::{EpochFrame, EpochSampler, MetricsRegistry, TimelineConfig};
use lva_sim::sched::{catch_point, JobId, SubmissionQueue};
use lva_workloads::{group_by_reference, Lookup, PreciseMemo, WorkloadScale};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Evaluates one point to its manifest text. Injected in tests; the
/// production evaluator is [`crate::point::evaluate_point`] with its
/// precise references memoized.
#[cfg(test)]
pub(crate) type Evaluator = dyn Fn(&PointSpec) -> Result<String, String> + Send + Sync;

/// The kernel instance a point runs: its seed (first, so most
/// mismatches stop at one integer), scale and workload name.
type Instance = (u64, WorkloadScale, String);

fn instance(spec: &PointSpec) -> Instance {
    (spec.seed, spec.scale, spec.workload.clone())
}

/// How the workers evaluate a point.
enum Eval {
    /// The production path: [`crate::point::evaluate_point`] with its
    /// precise references memoized.
    Memo(PreciseMemo<Instance>),
    /// An injected evaluator (test seam).
    #[cfg(test)]
    Custom(Box<Evaluator>),
}

impl Eval {
    /// The point's manifest text, and how it found its precise
    /// reference: `None` when it failed before the lookup (invalid
    /// config, unknown workload).
    fn evaluate(&self, spec: &PointSpec) -> (PointResult, Option<Lookup>) {
        match self {
            Eval::Memo(memo) => match resolve_point(spec) {
                Ok(workload) => {
                    let (run, lookup) = memo.execute(instance(spec), &*workload, &spec.config);
                    (
                        Ok(point_record(spec, &run).to_string_pretty()),
                        Some(lookup),
                    )
                }
                Err(e) => (Err(e), None),
            },
            #[cfg(test)]
            Eval::Custom(eval) => (eval(spec), None),
        }
    }
}

/// Per-point result: the manifest text, or why the point failed.
pub type PointResult = Result<String, String>;

/// Everything a finished job hands back.
#[derive(Debug)]
pub struct JobOutcome {
    /// Per-point results, in submission order.
    pub results: Vec<PointResult>,
    /// Unique points served without a fresh evaluation (cache tiers or
    /// an in-flight join).
    pub cache_hits: u64,
    /// Points that duplicated an earlier point of the same submission.
    pub deduped: u64,
}

struct JobState {
    /// Per original point index: the result, once known.
    results: Vec<Option<PointResult>>,
    /// Original indices not yet filled.
    remaining: usize,
    /// fingerprint → original indices (the intra-job dedup fan-out).
    fanout: HashMap<u64, Vec<usize>>,
    /// Points this job evaluates itself, indexed by the queue's point
    /// sequence number.
    scheduled: Vec<(u64, PointSpec)>,
    cache_hits: u64,
    deduped: u64,
}

struct Inner {
    queue: SubmissionQueue,
    jobs: Mutex<HashMap<JobId, JobState>>,
    jobs_done: Condvar,
    /// fingerprint → jobs waiting on an in-flight evaluation. Presence
    /// of a key means some worker owns (or is about to claim) that
    /// point's evaluation.
    inflight: Mutex<HashMap<u64, Vec<JobId>>>,
    cache: Mutex<ResultCache>,
    metrics: Mutex<MetricsRegistry>,
    /// Wall-interval epoch sampler; fed by the sampler thread, read by
    /// `watch` streams. Last in the lock order.
    timeline: Mutex<EpochSampler>,
    /// Signals `watch` waiters that a new frame landed (paired with
    /// `timeline`).
    timeline_tick: Condvar,
    /// Tells the sampler thread to stop (paired with `sampler_gate`).
    sampler_stop: AtomicBool,
    /// The sampler thread parks here between epochs, so shutdown can
    /// interrupt a sleep instead of waiting out the interval.
    sampler_gate: Mutex<()>,
    sampler_wake: Condvar,
    /// When the scheduler started; the timeline clock is milliseconds
    /// since this instant.
    start: Instant,
    next_job: AtomicU64,
    eval: Eval,
}

/// A persistent worker pool with content-addressed result sharing.
/// Submissions from any number of threads interleave fairly (round-robin
/// across open jobs, via [`SubmissionQueue`]).
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    sampler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("queue_depth", &self.inner.queue.depth())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Default wall interval between timeline epochs, in milliseconds.
    pub const DEFAULT_EPOCH_MS: u64 = 500;

    /// Spawns `workers` threads evaluating points with the production
    /// evaluator: [`crate::point::evaluate_point`]'s manifests, with
    /// precise references shared through a memo of two references per
    /// worker, least recently used evicted first.
    #[must_use]
    pub fn new(workers: usize, cache: ResultCache) -> Self {
        Self::new_every(workers, cache, Self::DEFAULT_EPOCH_MS)
    }

    /// Like [`new`](Self::new), with the wall interval between timeline
    /// epochs in milliseconds (clamped to at least 1).
    #[must_use]
    pub fn new_every(workers: usize, cache: ResultCache, epoch_ms: u64) -> Self {
        let memo = PreciseMemo::new(workers);
        Self::spawn(workers, cache, Eval::Memo(memo), epoch_ms)
    }

    /// Spawns `workers` threads with a custom evaluator (test seam).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_evaluator(workers: usize, cache: ResultCache, eval: Box<Evaluator>) -> Self {
        Self::with_evaluator_every(workers, cache, eval, Self::DEFAULT_EPOCH_MS)
    }

    /// Like [`with_evaluator`](Self::with_evaluator), with the wall
    /// interval between timeline epochs in milliseconds (clamped to at
    /// least 1).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_evaluator_every(
        workers: usize,
        cache: ResultCache,
        eval: Box<Evaluator>,
        epoch_ms: u64,
    ) -> Self {
        Self::spawn(workers, cache, Eval::Custom(eval), epoch_ms)
    }

    fn spawn(workers: usize, cache: ResultCache, eval: Eval, epoch_ms: u64) -> Self {
        let epoch_ms = epoch_ms.max(1);
        let inner = Arc::new(Inner {
            queue: SubmissionQueue::new(),
            jobs: Mutex::new(HashMap::new()),
            jobs_done: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            cache: Mutex::new(cache),
            metrics: Mutex::new(MetricsRegistry::new()),
            timeline: Mutex::new(EpochSampler::new(TimelineConfig::every(epoch_ms))),
            timeline_tick: Condvar::new(),
            sampler_stop: AtomicBool::new(false),
            sampler_gate: Mutex::new(()),
            sampler_wake: Condvar::new(),
            start: Instant::now(),
            next_job: AtomicU64::new(1),
            eval,
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let sampler = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || sampler_loop(&inner, epoch_ms))
        };
        Scheduler {
            inner,
            workers: Mutex::new(handles),
            sampler: Mutex::new(Some(sampler)),
        }
    }

    /// Submits a job; returns immediately with its id. Points are
    /// answered from the cache or an in-flight evaluation where
    /// possible; the rest are queued for the worker pool.
    pub fn submit(&self, points: Vec<PointSpec>) -> JobId {
        let inner = &*self.inner;
        let id = inner.next_job.fetch_add(1, Ordering::Relaxed);
        let n = points.len();
        let keys: Vec<u64> = points.iter().map(PointSpec::fingerprint).collect();

        // First-occurrence order of unique points, plus the fan-out map.
        let mut fanout: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut unique: Vec<(u64, usize)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let slots = fanout.entry(key).or_default();
            if slots.is_empty() {
                unique.push((key, i));
            }
            slots.push(i);
        }
        let deduped = (n - unique.len()) as u64;

        // The job must be visible in the map before any fingerprint is
        // registered in-flight: a worker finishing a coalesced point
        // looks the job up to fan the result out.
        inner.jobs.lock().expect("jobs lock").insert(
            id,
            JobState {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
                fanout,
                scheduled: Vec::new(),
                cache_hits: 0,
                deduped,
            },
        );

        // Classify every unique point under the inflight lock so the
        // cache check and the join registration are atomic with respect
        // to a concurrent completion (which takes the same locks).
        let mut resolved: Vec<(u64, PointResult)> = Vec::new();
        let mut scheduled: Vec<(u64, PointSpec)> = Vec::new();
        let mut hits = 0u64;
        let mut coalesced = 0u64;
        let mut misses = 0u64;
        {
            let mut inflight = inner.inflight.lock().expect("inflight lock");
            let mut cache = inner.cache.lock().expect("cache lock");
            for &(key, first_index) in &unique {
                if let Some(text) = cache.get(key) {
                    hits += 1;
                    resolved.push((key, Ok(text)));
                } else if let Some(waiters) = inflight.get_mut(&key) {
                    hits += 1;
                    coalesced += 1;
                    waiters.push(id);
                } else {
                    misses += 1;
                    inflight.insert(key, vec![id]);
                    scheduled.push((key, points[first_index].clone()));
                }
            }
        }

        // Points sharing a precise reference go out back to back, so the
        // memo's small bound serves a grid sent in any order.
        let scheduled = group_by_reference(scheduled, |(_, spec)| (instance(spec), &spec.config));
        let queued = scheduled.len();
        let mut completed = false;
        {
            let mut jobs = inner.jobs.lock().expect("jobs lock");
            let job = jobs.get_mut(&id).expect("job just inserted");
            job.scheduled = scheduled;
            job.cache_hits = hits;
            for (key, result) in resolved {
                fill_job(job, key, &result);
            }
            if job.remaining == 0 {
                completed = true;
                inner.jobs_done.notify_all();
            }
        }

        {
            let mut metrics = inner.metrics.lock().expect("metrics lock");
            metrics.counter("serve/jobs/accepted").inc();
            metrics.counter("serve/points/requested").add(n as u64);
            metrics.counter("serve/points/deduped").add(deduped);
            metrics.counter("serve/cache/hits").add(hits);
            metrics.counter("serve/cache/coalesced").add(coalesced);
            metrics.counter("serve/cache/misses").add(misses);
            if completed {
                metrics.counter("serve/jobs/completed").inc();
            }
        }

        // Open the queue job last: workers may claim the instant this
        // returns, and everything they need is in place.
        inner.queue.submit(id, queued);
        self.refresh_depth();
        id
    }

    /// Progress of a job: `(done, total)` point counts. Blocks until
    /// `done` differs from `last_done` or the job finishes. Returns
    /// `None` for a job already taken by [`wait`](Self::wait).
    pub(crate) fn progress(&self, id: JobId, last_done: usize) -> Option<(usize, usize)> {
        let mut jobs = self.inner.jobs.lock().expect("jobs lock");
        loop {
            let job = jobs.get(&id)?;
            let total = job.results.len();
            let done = total - job.remaining;
            if done != last_done || job.remaining == 0 {
                return Some((done, total));
            }
            jobs = self.inner.jobs_done.wait(jobs).expect("jobs lock");
        }
    }

    /// Blocks until the job finishes, then removes it and returns its
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never submitted or was already waited on.
    #[must_use]
    pub fn wait(&self, id: JobId) -> JobOutcome {
        let mut jobs = self.inner.jobs.lock().expect("jobs lock");
        loop {
            match jobs.get(&id) {
                None => panic!("job {id} was never submitted or already collected"),
                Some(job) if job.remaining == 0 => break,
                Some(_) => jobs = self.inner.jobs_done.wait(jobs).expect("jobs lock"),
            }
        }
        let job = jobs.remove(&id).expect("checked above");
        JobOutcome {
            results: job
                .results
                .into_iter()
                .map(|r| r.expect("remaining == 0 means every slot is filled"))
                .collect(),
            cache_hits: job.cache_hits,
            deduped: job.deduped,
        }
    }

    /// Snapshot of the server metrics (queue depth refreshed first).
    #[must_use]
    pub fn metrics_dump(&self) -> Vec<(String, f64)> {
        self.refresh_depth();
        self.inner.metrics.lock().expect("metrics lock").dump()
    }

    fn refresh_depth(&self) {
        let depth = self.inner.queue.depth() as f64;
        self.inner
            .metrics
            .lock()
            .expect("metrics lock")
            .gauge("serve/queue/depth")
            .set(depth);
    }

    /// Blocks until a frame with epoch index greater than `after`
    /// exists (any frame at all when `after` is `None`) and returns the
    /// oldest such retained frame, or `None` on timeout. This is the
    /// `watch` stream's pull: each client remembers the last index it
    /// was sent and asks for the next.
    #[must_use]
    pub(crate) fn wait_frame(&self, after: Option<u64>, timeout: Duration) -> Option<EpochFrame> {
        let deadline = Instant::now() + timeout;
        let mut sampler = self.inner.timeline.lock().expect("timeline lock");
        loop {
            let found = sampler
                .frames()
                .iter()
                .find(|f| after.is_none_or(|a| f.index > a))
                .cloned();
            if found.is_some() {
                return found;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, _) = self
                .inner
                .timeline_tick
                .wait_timeout(sampler, remaining)
                .expect("timeline lock");
            sampler = guard;
        }
    }

    /// Drains outstanding work and stops the worker pool and the
    /// timeline sampler. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.inner.queue.close();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("workers lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        // Stop the sampler under its gate so a concurrent park cannot
        // miss the wake, then close one final (possibly partial) epoch
        // so post-drain counters are all accounted for.
        {
            let _gate = self.inner.sampler_gate.lock().expect("sampler gate");
            self.inner.sampler_stop.store(true, Ordering::Release);
            self.inner.sampler_wake.notify_all();
        }
        let sampler = self.sampler.lock().expect("sampler lock").take();
        if let Some(h) = sampler {
            let _ = h.join();
            sample_epoch(&self.inner);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Writes `result` into every slot of `key`'s fan-out within one job.
fn fill_job(job: &mut JobState, key: u64, result: &PointResult) {
    if let Some(slots) = job.fanout.get(&key) {
        for &i in slots {
            if job.results[i].is_none() {
                job.results[i] = Some(result.clone());
                job.remaining -= 1;
            }
        }
    }
}

/// The sampler thread: closes one timeline epoch every `epoch_ms` of
/// wall time until told to stop. Parks on `sampler_gate` between
/// epochs so shutdown interrupts the sleep instead of waiting it out.
/// If a tick stalls (a loaded box), the cadence realigns rather than
/// bursting to catch up — epoch *ends* are honest wall clocks either
/// way, since frames span `[previous sample, this sample)`.
fn sampler_loop(inner: &Inner, epoch_ms: u64) {
    let epoch = Duration::from_millis(epoch_ms);
    let mut next = inner.start + epoch;
    loop {
        {
            let gate = inner.sampler_gate.lock().expect("sampler gate");
            let _parked = inner
                .sampler_wake
                .wait_timeout_while(gate, next.saturating_duration_since(Instant::now()), |()| {
                    !inner.sampler_stop.load(Ordering::Acquire)
                })
                .expect("sampler gate");
        }
        if inner.sampler_stop.load(Ordering::Acquire) {
            return;
        }
        sample_epoch(inner);
        next += epoch;
        let now = Instant::now();
        if next < now {
            next = now + epoch;
        }
    }
}

/// Closes one epoch: refreshes the queue-depth gauge and snapshots the
/// registry under the `metrics` lock, then diffs the snapshot into the
/// timeline under the `timeline` lock — never both at once, and in the
/// documented `metrics` → `timeline` order regardless.
fn sample_epoch(inner: &Inner) {
    let depth = inner.queue.depth() as f64;
    let snapshot = {
        let mut metrics = inner.metrics.lock().expect("metrics lock");
        metrics.gauge("serve/queue/depth").set(depth);
        metrics.clone()
    };
    let clock = u64::try_from(inner.start.elapsed().as_millis()).unwrap_or(u64::MAX);
    let mut timeline = inner.timeline.lock().expect("timeline lock");
    timeline.sample(clock, &snapshot);
    inner.timeline_tick.notify_all();
}

fn worker_loop(inner: &Inner) {
    while let Some(claim) = inner.queue.claim() {
        // Snapshot the spec; evaluation must not hold any lock.
        let (key, spec) = {
            let jobs = inner.jobs.lock().expect("jobs lock");
            let job = jobs.get(&claim.job).expect("claimed job exists");
            job.scheduled[claim.point].clone()
        };

        let t0 = Instant::now();
        let (result, lookup) = match catch_point(|| inner.eval.evaluate(&spec)) {
            Ok(r) => r,
            Err(panic_msg) => (Err(format!("evaluator panicked: {panic_msg}")), None),
        };
        let eval_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

        // Publish: cache the result, retire the in-flight entry, fan out
        // to every waiting job. Same lock order as submission.
        let waiters = {
            let mut inflight = inner.inflight.lock().expect("inflight lock");
            if let Ok(text) = &result {
                inner
                    .cache
                    .lock()
                    .expect("cache lock")
                    .put(key, text.clone());
            }
            inflight.remove(&key).unwrap_or_default()
        };
        {
            let mut jobs = inner.jobs.lock().expect("jobs lock");
            let mut jobs_completed = 0u64;
            for jid in waiters {
                if let Some(job) = jobs.get_mut(&jid) {
                    fill_job(job, key, &result);
                    if job.remaining == 0 {
                        jobs_completed += 1;
                    }
                }
            }
            // Metrics are updated while the jobs lock is still held: a
            // waiter released by this fill must never observe completion
            // before the counters reflect it.
            {
                let mut metrics = inner.metrics.lock().expect("metrics lock");
                metrics.counter("serve/points/evaluated").inc();
                if spec.config.govern.is_some() {
                    metrics.counter("serve/points/governed").inc();
                }
                if result.is_err() {
                    metrics.counter("serve/points/failed").inc();
                }
                if let Some(lookup) = lookup {
                    // Both counters, so each shows from the first lookup on.
                    let hit = lookup == Lookup::Hit;
                    metrics.counter("serve/precise/hits").add(u64::from(hit));
                    metrics.counter("serve/precise/misses").add(u64::from(!hit));
                }
                metrics.counter("serve/jobs/completed").add(jobs_completed);
                metrics.histogram("serve/point/eval_ns").record(eval_ns);
                metrics
                    .gauge("serve/queue/depth")
                    .set(inner.queue.depth() as f64);
            }
            // Progress watchers wake on every filled point, not only on
            // completion.
            inner.jobs_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_sim::SimConfig;
    use std::sync::atomic::AtomicUsize;

    fn spec(workload: &str, seed: u64) -> PointSpec {
        PointSpec::new(workload, WorkloadScale::Test, seed, SimConfig::precise())
    }

    fn counting_eval(counter: Arc<AtomicUsize>) -> Box<Evaluator> {
        Box::new(move |spec| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(format!("manifest:{:016x}", spec.fingerprint()))
        })
    }

    #[test]
    fn duplicate_points_in_one_job_evaluate_once() {
        let evals = Arc::new(AtomicUsize::new(0));
        let sched = Scheduler::with_evaluator(
            2,
            ResultCache::in_memory(16),
            counting_eval(Arc::clone(&evals)),
        );
        // Five points, two unique fingerprints.
        let points = vec![
            spec("blackscholes", 0),
            spec("canneal", 0),
            spec("blackscholes", 0),
            spec("blackscholes", 0),
            spec("canneal", 0),
        ];
        let id = sched.submit(points.clone());
        let outcome = sched.wait(id);
        assert_eq!(
            evals.load(Ordering::SeqCst),
            2,
            "one evaluation per unique fingerprint"
        );
        assert_eq!(outcome.deduped, 3);
        assert_eq!(outcome.cache_hits, 0, "dedup is not a cache hit");
        assert_eq!(outcome.results.len(), 5);
        for (point, result) in points.iter().zip(&outcome.results) {
            assert_eq!(
                result.as_ref().unwrap(),
                &format!("manifest:{:016x}", point.fingerprint())
            );
        }
    }

    #[test]
    fn repeat_submission_is_served_from_cache() {
        let evals = Arc::new(AtomicUsize::new(0));
        let sched = Scheduler::with_evaluator(
            2,
            ResultCache::in_memory(16),
            counting_eval(Arc::clone(&evals)),
        );
        let points = vec![spec("blackscholes", 0), spec("canneal", 0)];
        let cold = sched.wait(sched.submit(points.clone()));
        assert_eq!(cold.cache_hits, 0);
        let warm = sched.wait(sched.submit(points));
        assert_eq!(warm.cache_hits, 2, "every unique point hits");
        assert_eq!(evals.load(Ordering::SeqCst), 2, "no re-evaluation");
        assert_eq!(cold.results, warm.results, "hits serve identical bytes");

        let dump: HashMap<String, f64> = sched.metrics_dump().into_iter().collect();
        assert_eq!(dump["serve/jobs/accepted"], 2.0);
        assert_eq!(dump["serve/jobs/completed"], 2.0);
        assert_eq!(dump["serve/cache/hits"], 2.0);
        assert_eq!(dump["serve/cache/misses"], 2.0);
        assert_eq!(dump["serve/queue/depth"], 0.0);
        assert_eq!(dump["serve/point/eval_ns/count"], 2.0);
    }

    #[test]
    fn concurrent_overlapping_jobs_coalesce_to_one_evaluation() {
        // An evaluator that blocks until released, so the overlap window
        // is guaranteed: job B arrives while job A's point is mid-flight.
        let evals = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let eval_gate = Arc::clone(&gate);
        let eval_count = Arc::clone(&evals);
        let sched = Scheduler::with_evaluator(
            2,
            ResultCache::in_memory(16),
            Box::new(move |spec| {
                eval_count.fetch_add(1, Ordering::SeqCst);
                let (lock, cv) = &*eval_gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(format!("manifest:{:016x}", spec.fingerprint()))
            }),
        );

        let a = sched.submit(vec![spec("blackscholes", 0)]);
        // Wait until A's point is actually being evaluated.
        while evals.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let b = sched.submit(vec![spec("blackscholes", 0)]);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let oa = sched.wait(a);
        let ob = sched.wait(b);
        assert_eq!(
            evals.load(Ordering::SeqCst),
            1,
            "the join re-used A's flight"
        );
        assert_eq!(oa.results, ob.results);
        assert_eq!(oa.cache_hits, 0);
        assert_eq!(ob.cache_hits, 1, "a join counts as a hit");
        let dump: HashMap<String, f64> = sched.metrics_dump().into_iter().collect();
        assert_eq!(dump["serve/cache/coalesced"], 1.0);
    }

    #[test]
    fn failures_and_panics_are_per_point_results() {
        let sched = Scheduler::with_evaluator(
            2,
            ResultCache::in_memory(16),
            Box::new(|spec| match spec.workload.as_str() {
                "canneal" => Err("no such input deck".into()),
                "ferret" => panic!("simulated evaluator bug"),
                _ => Ok("ok".into()),
            }),
        );
        let id = sched.submit(vec![
            spec("blackscholes", 0),
            spec("canneal", 0),
            spec("ferret", 0),
        ]);
        let outcome = sched.wait(id);
        assert_eq!(outcome.results[0], Ok("ok".into()));
        assert_eq!(outcome.results[1], Err("no such input deck".into()));
        let panic_err = outcome.results[2].as_ref().unwrap_err();
        assert!(panic_err.contains("simulated evaluator bug"), "{panic_err}");

        // The pool survived; failures were not cached.
        let again = sched.wait(sched.submit(vec![spec("canneal", 0)]));
        assert_eq!(again.cache_hits, 0, "errors must not be cached");
        assert!(again.results[0].is_err());
        let dump: HashMap<String, f64> = sched.metrics_dump().into_iter().collect();
        assert_eq!(dump["serve/points/failed"], 3.0);
    }

    #[test]
    fn progress_counts_points_as_they_land() {
        let sched =
            Scheduler::with_evaluator(1, ResultCache::in_memory(16), Box::new(|_| Ok("m".into())));
        let id = sched.submit(vec![spec("blackscholes", 0), spec("canneal", 0)]);
        let mut done = 0;
        let mut observations = Vec::new();
        loop {
            let (d, total) = sched.progress(id, done).expect("job not collected yet");
            observations.push(d);
            done = d;
            if d == total {
                break;
            }
        }
        assert_eq!(*observations.last().unwrap(), 2);
        assert!(observations.windows(2).all(|w| w[0] <= w[1]));
        let _ = sched.wait(id);
        assert!(sched.progress(id, 0).is_none(), "collected jobs are gone");
    }

    #[test]
    fn wall_timeline_deltas_sum_to_the_aggregate_counters() {
        let evals = Arc::new(AtomicUsize::new(0));
        let sched = Scheduler::with_evaluator_every(
            2,
            ResultCache::in_memory(16),
            counting_eval(Arc::clone(&evals)),
            5, // short epochs so the test sees several frames quickly
        );
        let id = sched.submit(vec![
            spec("blackscholes", 0),
            spec("canneal", 0),
            spec("blackscholes", 0),
        ]);
        let _ = sched.wait(id);
        // Shutdown closes one final epoch, so every delta has landed.
        sched.shutdown();
        // Every retained frame, pulled the way the `watch` stream pulls.
        let mut tl = lva_obs::Timeline::default();
        while let Some(frame) = sched.wait_frame(tl.frames.last().map(|f| f.index), Duration::ZERO)
        {
            tl.frames.push(frame);
        }
        assert!(
            !tl.is_empty(),
            "sampler must have closed at least one epoch"
        );
        assert_eq!(tl.frames[0].index, 0, "the ring dropped nothing");
        assert_eq!(tl.sum_counter("serve/jobs/accepted"), 1);
        assert_eq!(tl.sum_counter("serve/jobs/completed"), 1);
        assert_eq!(tl.sum_counter("serve/points/requested"), 3);
        assert_eq!(tl.sum_counter("serve/points/deduped"), 1);
        assert_eq!(tl.sum_counter("serve/points/evaluated"), 2);
        // Frames are contiguous: each starts where the previous ended.
        for w in tl.frames.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert!(w[0].index < w[1].index);
        }
        // eval_ns interval merges also sum to the aggregate count.
        let hist_count: u64 = tl
            .frames
            .iter()
            .flat_map(|f| &f.histograms)
            .filter(|(p, _)| p == "serve/point/eval_ns")
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(hist_count, 2);
    }

    #[test]
    fn wait_frame_streams_fresh_frames_and_times_out_cleanly() {
        let sched = Scheduler::with_evaluator_every(
            1,
            ResultCache::in_memory(4),
            Box::new(|_| Ok("m".into())),
            2,
        );
        let f1 = sched
            .wait_frame(None, Duration::from_secs(30))
            .expect("an idle scheduler still emits heartbeat frames");
        let f2 = sched
            .wait_frame(Some(f1.index), Duration::from_secs(30))
            .expect("a later frame follows");
        assert!(f2.index > f1.index);
        assert!(f2.end > f1.end, "wall clock advances between frames");
        // A cursor past every frame times out rather than blocking.
        assert!(sched
            .wait_frame(Some(u64::MAX), Duration::from_millis(20))
            .is_none());
    }

    #[test]
    fn the_production_evaluator_runs_one_precise_reference_per_kernel() {
        use lva_core::{ApproximatorConfig, ClpConfig};
        let sched = Scheduler::new(1, ResultCache::in_memory(16));
        let points: Vec<PointSpec> = [
            SimConfig::precise(),
            SimConfig::baseline_lva(),
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
            SimConfig::baseline_lva().with_error_budget(0.05),
        ]
        .into_iter()
        .map(|c| PointSpec::new("swaptions", WorkloadScale::Test, 4, c))
        .collect();
        let outcome = sched.wait(sched.submit(points.clone()));
        for (point, result) in points.iter().zip(&outcome.results) {
            assert_eq!(result, &crate::point::evaluate_point(point));
        }
        let dump: HashMap<String, f64> = sched.metrics_dump().into_iter().collect();
        assert_eq!(dump["serve/precise/misses"], 1.0);
        assert_eq!(dump["serve/precise/hits"], 3.0);
        assert_eq!(dump["serve/points/evaluated"], 4.0);
    }

    #[test]
    fn failures_before_the_lookup_leave_the_memo_untouched() {
        // One worker: the memo keeps two references.
        let eval = Eval::Memo(PreciseMemo::new(1));
        let lookup = |spec| eval.evaluate(&spec).1;
        assert_eq!(lookup(spec("swaptions", 0)), Some(Lookup::Miss));
        assert_eq!(lookup(spec("swaptions", 1)), Some(Lookup::Miss));
        let (text, failed) = eval.evaluate(&spec("nonesuch", 0));
        assert!(text.unwrap_err().contains("unknown workload nonesuch"));
        assert_eq!(failed, None);
        // A failure that took a slot would have evicted seed 0's.
        assert_eq!(lookup(spec("swaptions", 0)), Some(Lookup::Hit));
    }

    #[test]
    fn empty_jobs_complete_immediately() {
        let sched =
            Scheduler::with_evaluator(1, ResultCache::in_memory(4), Box::new(|_| Ok("m".into())));
        let outcome = sched.wait(sched.submit(Vec::new()));
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.cache_hits, 0);
    }
}
