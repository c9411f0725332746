//! `serve`: an in-process `lva-serve` on loopback with a disk result
//! cache, one scheduler worker and one client connection, driven closed
//! loop. A pass covers the seven kernels × {precise, lva, lva+clp, lva
//! with a 5% error budget} under a fresh registry seed, one job per
//! point, each submitted twice:
//!
//! * cold — the point is evaluated (so four precise references per
//!   kernel) and written to the cache; these round trips set
//!   `throughput`;
//! * warm — the same job resubmitted verbatim, a cache read through the
//!   fingerprint, the codec and the framing; these round trips set
//!   `latency_ms`.
//!
//! One point per job: the client's JSON string decode is quadratic in
//! the line length, so decoding a reply costs about 3 ms for one point,
//! 60 ms for four and over two seconds for all 28. Batched replies would
//! let that decode, and its sensitivity to a neighbour's cache traffic,
//! swamp both metrics.

use crate::measure::{median, metric, quantile, secs, Metric, Sample, FAST_QUANTILE, PARTS};
use crate::phase1::{kernels, run_alone, KERNELS};
use crate::Workload;
use lva_core::{ApproximatorConfig, ClpConfig};
use lva_serve::protocol::{encode_outcome, encode_submit, parse_server_line};
use lva_serve::{
    evaluate_point, point_record, Client, JobOutcome, PointSpec, ResultCache, Scheduler, Server,
    ServerHandle,
};
use lva_sim::SimConfig;
use lva_workloads::{registry_seeded, WorkloadScale};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Scheduler workers and client connections the workload runs with.
pub const SCHED_WORKERS: usize = 1;
pub const CONNECTIONS: usize = 1;
/// The server's default memory-tier capacity.
const CACHE_CAPACITY: usize = 256;
/// Pass `p` of a run with seed `s` uses registry seed
/// `(s mod 2^32) * JOB_STRIDE + p`, which stays below 2^53: seeds travel
/// the wire as JSON numbers.
const JOB_STRIDE: u64 = 1_000_000;

/// Configurations per kernel.
const CONFIGS: usize = 4;

fn configs() -> [SimConfig; CONFIGS] {
    [
        SimConfig::precise(),
        SimConfig::baseline_lva(),
        SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
        SimConfig::baseline_lva().with_error_budget(0.05),
    ]
}

/// The 28 points of one pass, kernel-major.
fn pass_points(job_seed: u64) -> Vec<PointSpec> {
    KERNELS
        .iter()
        .flat_map(|name| {
            configs()
                .into_iter()
                .map(move |c| PointSpec::new(*name, WorkloadScale::Test, job_seed, c))
        })
        .collect()
}

/// Per-pass layer spans, collected outside the timed round trips.
#[derive(Debug, Default)]
struct Spans {
    registry_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    precise_ref_share: Vec<f64>,
    render_us: Vec<f64>,
    cache_put_us: Vec<f64>,
    cold_overhead_ms: Vec<f64>,
    fingerprint_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    cache_get_mem_us: Vec<f64>,
    cache_get_disk_us: Vec<f64>,
}

pub struct Serve {
    seed: u64,
    dir: PathBuf,
    client: Option<Client>,
    handle: Option<ServerHandle>,
    passes: u64,
    spans: Spans,
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    const PROFILE_PASSES: usize = 1;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let dir = dir.to_path_buf();
        let cache = ResultCache::open(dir.join("cache"), CACHE_CAPACITY)
            .map_err(|e| format!("open cache: {e}"))?;
        let scheduler = Arc::new(Scheduler::new(SCHED_WORKERS, cache));
        let server = Server::bind("127.0.0.1:0", scheduler).map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let mut serve = Serve {
            seed,
            dir,
            client: None,
            handle: Some(handle),
            passes: 0,
            spans: Spans::default(),
        };
        let addr = serve
            .handle
            .as_ref()
            .map(ServerHandle::addr)
            .expect("just set");
        // No ping: a protocol round trip would time a cross-vCPU thread
        // wake-up, not start-up; the first pass proves the server serves.
        serve.client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        Ok(serve)
    }

    fn pass(&mut self, traced: bool) -> Result<Sample, String> {
        let pass = self.passes;
        self.passes += 1;
        let job_seed = (self.seed & 0xffff_ffff) * JOB_STRIDE + pass;
        let client = self.client.as_mut().expect("connected in setup");
        let before = if traced {
            Some(eval_ns_sum(client)?)
        } else {
            None
        };
        let mut cold_s = [0.0; PARTS];
        let mut warm_s = Vec::with_capacity(PARTS * CONFIGS);
        let mut manifests = Vec::with_capacity(PARTS * CONFIGS);
        for (i, spec) in pass_points(job_seed).into_iter().enumerate() {
            let (k, c) = (i / CONFIGS, i % CONFIGS);
            let job = [spec];
            let t0 = Instant::now();
            let cold = client.submit(&job)?;
            cold_s[k] += secs(t0);
            let t1 = Instant::now();
            let warm = client.submit(&job)?;
            warm_s.push(secs(t1));

            let what = format!("pass {pass}: {} config {c}", KERNELS[k]);
            if cold.cache_hits != 0 || warm.cache_hits != 1 {
                return Err(format!(
                    "{what}: cache hits cold {} / warm {}",
                    cold.cache_hits, warm.cache_hits
                ));
            }
            let text = cold
                .results
                .into_iter()
                .next()
                .expect("one result per point")
                .map_err(|e| format!("{what}: point failed: {e}"))?;
            if warm.results[0].as_ref() != Ok(&text) {
                return Err(format!("{what}: warm manifest differs from the cold one"));
            }
            // One point per pass, rotating over kernels and
            // configurations, is recomputed directly.
            if k == pass as usize % PARTS
                && c == pass as usize % CONFIGS
                && evaluate_point(&job[0])? != text
            {
                return Err(format!("{what}: cold manifest differs from evaluate_point"));
            }
            manifests.push(text);
        }
        if let Some(before) = before {
            let evaluated_s = (eval_ns_sum(client)? - before) / 1e9;
            let overhead_s = (cold_s.iter().sum::<f64>() - evaluated_s) / manifests.len() as f64;
            self.spans.cold_overhead_ms.push(overhead_s * 1e3);
            self.trace_layers(job_seed, &manifests)?;
        }
        Ok(Sample {
            parts: cold_s,
            work: manifests.len() as f64,
            round_trips: warm_s,
        })
    }

    /// Throughput from the cold round trips as for the other workloads;
    /// `latency_ms` is the fast end of every cached job's round trip,
    /// pooled over the points (the replies are of similar size).
    fn estimate(samples: &[Sample]) -> (f64, f64) {
        let (throughput, _) = crate::measure::estimate(samples);
        let warm: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.round_trips.iter().copied())
            .collect();
        (throughput, quantile(&warm, FAST_QUANTILE) * 1e3)
    }

    fn layers(&mut self) -> Result<Vec<Metric>, String> {
        let client = self.client.as_mut().expect("connected in setup");
        let dump: HashMap<String, f64> = client.metrics()?.into_iter().collect();
        let g = |path: &str| dump.get(path).copied().unwrap_or(0.0);
        let s = &self.spans;
        let hits = g("serve/cache/hits");
        Ok(vec![
            metric("serve.registry_ms", median(&s.registry_ms), "ms"),
            metric("serve.execute_ms", median(&s.execute_ms), "ms"),
            metric(
                "serve.precise_ref_share",
                median(&s.precise_ref_share),
                "ratio",
            ),
            metric("serve.render_us", median(&s.render_us), "us"),
            metric("serve.cache_put_us", median(&s.cache_put_us), "us"),
            metric("serve.cold_overhead_ms", median(&s.cold_overhead_ms), "ms"),
            metric("serve.fingerprint_us", median(&s.fingerprint_us), "us"),
            metric("serve.encode_us", median(&s.encode_us), "us"),
            metric("serve.decode_us", median(&s.decode_us), "us"),
            metric("serve.cache_get_mem_us", median(&s.cache_get_mem_us), "us"),
            metric(
                "serve.cache_get_disk_us",
                median(&s.cache_get_disk_us),
                "us",
            ),
            metric(
                "serve.hit_ratio",
                hits / (hits + g("serve/cache/misses")),
                "ratio",
            ),
            metric(
                "serve.points_evaluated",
                g("serve/points/evaluated"),
                "count",
            ),
            metric("serve.points_failed", g("serve/points/failed"), "count"),
            metric(
                "serve.eval_p50_ms",
                g("serve/point/eval_ns/p50") / 1e6,
                "ms",
            ),
        ])
    }
}

impl Serve {
    /// Times, in process and for all of the pass's points, the layers a
    /// cold and a warm point pass through: registry construction,
    /// `Workload::execute` against the mechanism alone, manifest
    /// rendering, the wire codec, the content address and the cache tiers.
    fn trace_layers(&mut self, job_seed: u64, manifests: &[String]) -> Result<(), String> {
        let s = &mut self.spans;
        let t = Instant::now();
        let registry = registry_seeded(WorkloadScale::Test, job_seed);
        s.registry_ms.push(secs(t) * 1e3);

        let alone = kernels(job_seed);
        let points = pass_points(job_seed);
        let (mut execute_s, mut alone_s, mut render_s, mut encode_s, mut decode_s) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for (i, (spec, served)) in points.iter().zip(manifests).enumerate() {
            let k = i / CONFIGS;
            let t = Instant::now();
            let run = registry[k].execute(&spec.config);
            execute_s += secs(t);
            let t = Instant::now();
            let _ = run_alone(alone[k].as_ref(), &spec.config);
            alone_s += secs(t);
            let t = Instant::now();
            let text = point_record(spec, &run).to_string_pretty();
            render_s += secs(t);
            if text != *served {
                return Err(format!(
                    "point {i}: in-process manifest differs from the served one"
                ));
            }

            let t = Instant::now();
            let line = encode_submit(std::slice::from_ref(spec))?;
            encode_s += secs(t);
            std::hint::black_box(line);
            let outcome = JobOutcome {
                results: vec![Ok(text)],
                cache_hits: 1,
                deduped: 0,
            };
            let line = encode_outcome(0, &outcome);
            let t = Instant::now();
            let parsed = parse_server_line(&line)?;
            decode_s += secs(t);
            std::hint::black_box(parsed);
        }
        let n = points.len() as f64;
        s.execute_ms.push(execute_s * 1e3 / n);
        s.precise_ref_share.push((execute_s - alone_s) / execute_s);
        s.render_us.push(render_s * 1e6 / n);
        s.encode_us.push(encode_s * 1e6 / n);
        s.decode_us.push(decode_s * 1e6 / n);

        let t = Instant::now();
        let keys: Vec<u64> = points.iter().map(PointSpec::fingerprint).collect();
        s.fingerprint_us.push(secs(t) * 1e6 / n);

        // A private cache directory, so the server's own cache is untouched.
        let dir = self.dir.join(format!("layer-cache-{job_seed}"));
        let mut cache =
            ResultCache::open(&dir, CACHE_CAPACITY).map_err(|e| format!("open: {e}"))?;
        let per_point = |f: &mut dyn FnMut(u64, &String)| -> f64 {
            let t = Instant::now();
            for (key, text) in keys.iter().zip(manifests) {
                f(*key, text);
            }
            secs(t) * 1e6 / keys.len() as f64
        };
        s.cache_put_us
            .push(per_point(&mut |key, text| cache.put(key, text.clone())));
        let mut ok = true;
        s.cache_get_mem_us.push(per_point(&mut |key, text| {
            ok &= cache.get(key).as_ref() == Some(text)
        }));
        cache.clear_memory();
        s.cache_get_disk_us.push(per_point(&mut |key, text| {
            ok &= cache.get(key).as_ref() == Some(text)
        }));
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        if ok {
            Ok(())
        } else {
            Err("a cache tier returned a different manifest".into())
        }
    }
}

/// Total host ns the server has spent evaluating points so far.
fn eval_ns_sum(client: &mut Client) -> Result<f64, String> {
    Ok(client
        .metrics()?
        .into_iter()
        .find(|(p, _)| p == "serve/point/eval_ns/sum")
        .map_or(0.0, |(_, v)| v))
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut client) = self.client.take() {
            let _ = client.shutdown_server();
        }
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
    }
}
