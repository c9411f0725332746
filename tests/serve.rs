//! Acceptance tests for the sweep service: the `lva-serve` scheduler and
//! wire protocol must hand back exactly the bytes a direct in-process
//! `run_sweep` would produce, share evaluations across overlapping
//! clients, and make a repeated sweep dramatically cheaper than a cold
//! one.

use lva::serve::{evaluate_point, Client, PointSpec, ResultCache, Scheduler, Server, ServerHandle};
use lva::sim::sweep::{run_sweep, SweepOptions};
use lva::sim::SimConfig;
use lva::workloads::WorkloadScale;
use std::io::BufRead;
use std::sync::Arc;
use std::time::Instant;

fn spec(workload: &str, config: &SimConfig) -> PointSpec {
    PointSpec::new(workload, WorkloadScale::Test, 0, config.clone())
}

fn start_server(workers: usize) -> ServerHandle {
    let scheduler = Arc::new(Scheduler::new(workers, ResultCache::in_memory(64)));
    Server::bind("127.0.0.1:0", scheduler)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

/// The headline acceptance property: two concurrent clients with
/// overlapping sweeps each receive manifests byte-identical to a direct
/// `run_sweep`, and the cache-hit counter equals the overlap size.
#[test]
fn concurrent_overlapping_clients_match_direct_run_sweep() {
    let precise = SimConfig::precise();
    let lva = SimConfig::baseline_lva();
    let points_a = vec![
        spec("blackscholes", &precise),
        spec("canneal", &precise),
        spec("swaptions", &precise),
        spec("blackscholes", &lva),
    ];
    let points_b = vec![
        spec("canneal", &precise),
        spec("swaptions", &precise),
        spec("x264", &precise),
        spec("canneal", &lva),
    ];
    let overlap = 2; // canneal/precise and swaptions/precise appear in both

    // Ground truth: the same points through the plain in-process sweep
    // engine, no server, no cache.
    let direct_a = run_sweep(
        &points_a,
        &SweepOptions {
            workers: Some(2),
            progress: false,
        },
        |_, p| evaluate_point(p).expect("direct evaluation succeeds"),
    );
    let direct_b = run_sweep(
        &points_b,
        &SweepOptions {
            workers: Some(2),
            progress: false,
        },
        |_, p| evaluate_point(p).expect("direct evaluation succeeds"),
    );

    let handle = start_server(2);
    let addr = handle.addr();
    let submit = |points: Vec<PointSpec>| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.submit(&points).expect("submit succeeds")
        })
    };
    let ta = submit(points_a.clone());
    let tb = submit(points_b.clone());
    let oa = ta.join().expect("client a");
    let ob = tb.join().expect("client b");

    for (i, outcome) in direct_a.outcomes.iter().enumerate() {
        assert_eq!(
            oa.results[i].as_ref().expect("server result ok"),
            &outcome.value,
            "client a point {i} must be byte-identical to direct run_sweep"
        );
    }
    for (i, outcome) in direct_b.outcomes.iter().enumerate() {
        assert_eq!(
            ob.results[i].as_ref().expect("server result ok"),
            &outcome.value,
            "client b point {i} must be byte-identical to direct run_sweep"
        );
    }

    // Each overlapping point is evaluated once for one client and served
    // (cache or in-flight join) to the other — however the timing falls.
    assert_eq!(
        oa.cache_hits + ob.cache_hits,
        overlap,
        "cache-hit counter must equal the overlap size"
    );
    assert_eq!(oa.deduped + ob.deduped, 0);

    let mut ctl = Client::connect(addr).expect("connect ctl");
    let metrics: std::collections::HashMap<String, f64> =
        ctl.metrics().expect("metrics").into_iter().collect();
    assert_eq!(metrics["serve/cache/hits"], overlap as f64);
    assert_eq!(
        metrics["serve/points/evaluated"],
        (points_a.len() + points_b.len() - overlap as usize) as f64,
        "overlapping points must not be evaluated twice"
    );
    ctl.shutdown_server().expect("shutdown");
    handle.join();
}

/// A grid whose points share precise references in groups: two kernels
/// × two seeds × two value delays, each under five configs that differ
/// only outside the precise config. Key-major order.
fn memo_grid() -> Vec<PointSpec> {
    use lva::core::{ApproximatorConfig, ClpConfig};
    let mut points = Vec::new();
    for workload in ["blackscholes", "swaptions"] {
        for seed in [0, 1] {
            for value_delay in [4, 9] {
                for config in [
                    SimConfig::precise(),
                    SimConfig::baseline_lva(),
                    SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
                    SimConfig::baseline_lva().with_error_budget(0.05),
                    SimConfig::baseline_lva().with_govern_slo(0.02),
                ] {
                    let config = SimConfig {
                        value_delay,
                        ..config
                    };
                    points.push(PointSpec::new(workload, WorkloadScale::Test, seed, config));
                }
            }
        }
    }
    points
}

/// Precise-reference keys in [`memo_grid`].
const MEMO_KEYS: f64 = 8.0;

fn precise_lookups(sched: &Scheduler) -> (f64, f64) {
    let dump: std::collections::HashMap<String, f64> = sched.metrics_dump().into_iter().collect();
    (
        dump.get("serve/precise/hits").copied().unwrap_or(0.0),
        dump.get("serve/precise/misses").copied().unwrap_or(0.0),
    )
}

fn assert_served_bytes(results: &[Result<String, String>], expected: &[&String], what: &str) {
    assert_eq!(results.len(), expected.len(), "{what}");
    for (i, (result, want)) in results.iter().zip(expected).enumerate() {
        assert_eq!(
            result.as_ref().expect("point ok"),
            *want,
            "{what}: point {i} must be byte-identical to evaluate_point"
        );
    }
}

/// The precise-reference memo is invisible in the results and costs one
/// precise run per key whatever order a job lists its points in: every
/// served manifest is byte-identical to the memo-free `evaluate_point`.
#[test]
fn precise_memo_serves_manifests_byte_identical_to_evaluate_point() {
    let grid = memo_grid();
    let expected: Vec<String> = grid
        .iter()
        .map(|p| evaluate_point(p).expect("direct evaluation succeeds"))
        .collect();
    let n = grid.len() as f64;

    // One job, key-major and then config-major (the order `lva-explore
    // submit` sends). The scheduler queues a job's points grouped by key,
    // so on one worker every key misses exactly once either way: points
    // differing only in seed or value delay never share a reference, and
    // the other four configs of each key always do.
    let per_key = grid.len() / MEMO_KEYS as usize;
    let config_major: Vec<usize> = (0..per_key)
        .flat_map(|c| (0..MEMO_KEYS as usize).map(move |k| k * per_key + c))
        .collect();
    let key_major: Vec<usize> = (0..grid.len()).collect();
    for (label, order) in [("key-major", &key_major), ("config-major", &config_major)] {
        for workers in [1, 2] {
            let what = format!("{label} on {workers} worker(s)");
            let sched = Scheduler::new(workers, ResultCache::in_memory(64));
            let points: Vec<PointSpec> = order.iter().map(|&i| grid[i].clone()).collect();
            let outcome = sched.wait(sched.submit(points));
            let want: Vec<&String> = order.iter().map(|&i| &expected[i]).collect();
            assert_served_bytes(&outcome.results, &want, &what);
            let (hits, misses) = precise_lookups(&sched);
            println!("{what}: {hits} precise hits, {misses} misses");
            assert_eq!(hits + misses, n, "{what}: one lookup per point");
            if workers == 1 {
                assert_eq!(misses, MEMO_KEYS, "{what}: one miss per key");
            } else {
                // Two workers keep four references. A worker descheduled
                // between claiming a point and looking its key up can find
                // the key evicted by the other worker's next groups, so
                // only a bound is certain; ungrouped, this order would miss
                // on every point.
                assert!(misses <= 2.0 * MEMO_KEYS, "{what}: {misses} misses");
            }
        }
    }

    // One-point jobs in a fixed shuffle: the scheduler cannot regroup
    // across jobs, so neighbours rarely share a key and references are
    // evicted and recomputed as well as shared.
    let mut order: Vec<usize> = (0..grid.len()).collect();
    let mut rng = lva::core::Rng64::new(13);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.gen_u64() % (i as u64 + 1)) as usize);
    }
    for workers in [1, 2] {
        let what = format!("shuffled one-point jobs on {workers} worker(s)");
        let sched = Scheduler::new(workers, ResultCache::in_memory(64));
        let ids: Vec<_> = order
            .iter()
            .map(|&i| sched.submit(vec![grid[i].clone()]))
            .collect();
        let results: Vec<Result<String, String>> = ids
            .into_iter()
            .flat_map(|id| sched.wait(id).results)
            .collect();
        let want: Vec<&String> = order.iter().map(|&i| &expected[i]).collect();
        assert_served_bytes(&results, &want, &what);
        let (hits, misses) = precise_lookups(&sched);
        println!("{what}: {hits} precise hits, {misses} misses");
        assert_eq!(hits + misses, n, "{what}: one lookup per point");
        assert!(
            misses >= MEMO_KEYS,
            "{what}: every key misses at least once"
        );
        if workers == 1 {
            // Deterministic on one worker; two workers' claim timing
            // moves the split, never the sum.
            assert!(
                misses < n,
                "{what}: the shuffle still shares some references"
            );
        }
    }
}

#[test]
fn repeated_identical_sweep_is_served_from_cache_and_far_faster() {
    // Points heavy enough that evaluation dwarfs the fixed wire and
    // JSON cost of shipping the manifests (canneal at Small scale runs
    // for >1s per point in unoptimized builds; the warm pass is pure
    // protocol + cache, ~tens of milliseconds).
    let points = vec![
        PointSpec::new("canneal", WorkloadScale::Small, 0, SimConfig::precise()),
        PointSpec::new(
            "canneal",
            WorkloadScale::Small,
            0,
            SimConfig::baseline_lva(),
        ),
    ];

    let handle = start_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let t0 = Instant::now();
    let cold = client.submit(&points).expect("cold submit");
    let cold_elapsed = t0.elapsed();
    assert_eq!(cold.cache_hits, 0);

    let t1 = Instant::now();
    let warm = client.submit(&points).expect("warm submit");
    let warm_elapsed = t1.elapsed();

    assert_eq!(warm.cache_hits, points.len() as u64, "every point hits");
    assert_eq!(cold.results, warm.results, "hits serve identical bytes");
    assert!(
        cold_elapsed >= warm_elapsed * 10,
        "a fully cached sweep must be at least 10x faster: cold {cold_elapsed:?}, warm {warm_elapsed:?}"
    );

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Kills the server child if a test assertion unwinds before the clean
/// stop, so failed tests cannot leak a listening process.
struct ServeChild(std::process::Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `lva-explore serve` and parses the listen line for its
/// ephemeral address.
fn spawn_cli_server(extra: &[&str]) -> (ServeChild, String) {
    let explore = env!("CARGO_BIN_EXE_lva-explore");
    let child = std::process::Command::new(explore)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--memory-only",
            "--threads",
            "2",
        ])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn lva-explore serve");
    let mut child = ServeChild(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read listen line");
    let addr = first_line
        .trim()
        .strip_prefix("lva-serve listening on ")
        .expect("listen line format")
        .to_owned();
    (child, addr)
}

#[test]
fn cli_serve_submit_round_trip() {
    let explore = env!("CARGO_BIN_EXE_lva-explore");
    let (mut child, addr) = spawn_cli_server(&[]);

    let out_dirs = [
        std::env::temp_dir().join(format!("lva-serve-cli-a-{}", std::process::id())),
        std::env::temp_dir().join(format!("lva-serve-cli-b-{}", std::process::id())),
    ];
    let mut summaries = Vec::new();
    for dir in &out_dirs {
        let out = std::process::Command::new(explore)
            .args([
                "submit",
                "blackscholes",
                "--addr",
                &addr,
                "--degrees",
                "0,4",
                "--out-dir",
                dir.to_str().expect("utf8 temp path"),
            ])
            .output()
            .expect("run submit");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "submit failed: {stdout}");
        summaries.push(stdout);
    }
    assert!(summaries[0].contains("0 cache hits"), "{}", summaries[0]);
    assert!(summaries[1].contains("2 cache hits"), "{}", summaries[1]);

    // The dumped manifests are content-addressed; the repeat submission
    // must produce the same file set with byte-identical contents.
    let listing = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("out dir readable")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    };
    let names = listing(&out_dirs[0]);
    assert_eq!(names.len(), 2, "one manifest per point: {names:?}");
    assert_eq!(names, listing(&out_dirs[1]));
    for name in &names {
        let a = std::fs::read(out_dirs[0].join(name)).expect("manifest a");
        let b = std::fs::read(out_dirs[1].join(name)).expect("manifest b");
        assert_eq!(a, b, "{name} must be byte-identical across submissions");
    }

    let out = std::process::Command::new(explore)
        .args(["serve-ctl", "stop", "--addr", &addr])
        .output()
        .expect("run serve-ctl stop");
    assert!(out.status.success());
    let status = child.0.wait().expect("server exits");
    assert!(status.success(), "server exit status {status:?}");

    for dir in &out_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A faulted grid under a tuned governor crosses the wire whole: the
/// served manifests are byte-identical to evaluating the same configs
/// in-process.
#[test]
fn cli_submit_ships_faults_and_governor_knobs() {
    use lva::core::ApproximatorConfig;
    use lva::sim::{FaultConfig, GovernorConfig};
    let explore = env!("CARGO_BIN_EXE_lva-explore");
    let (mut child, addr) = spawn_cli_server(&[]);
    let dir = std::env::temp_dir().join(format!("lva-serve-cli-tuned-{}", std::process::id()));
    let out = std::process::Command::new(explore)
        .args([
            "submit",
            "blackscholes",
            "--addr",
            &addr,
            "--degrees",
            "0,4",
            "--inject",
            "seed=7,table=1e-3",
            "--govern",
            "quality=2%,epoch=500",
            "--out-dir",
            dir.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("run submit");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "submit failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("2 points, 0 cache hits"), "{stdout}");

    for degree in [0, 4] {
        let config = SimConfig::lva(ApproximatorConfig::with_degree(degree))
            .with_faults(FaultConfig::seeded(7).with_table_rate(1e-3))
            .with_govern(GovernorConfig {
                epoch_len: 500,
                ..GovernorConfig::slo(0.02)
            });
        let point = spec("blackscholes", &config);
        let name = format!("point-blackscholes-{:016x}.json", point.fingerprint());
        let served = std::fs::read_to_string(dir.join(&name)).expect("served manifest");
        assert_eq!(
            served,
            evaluate_point(&point).expect("direct evaluation succeeds"),
            "{name} must be byte-identical to evaluate_point"
        );
    }

    let out = std::process::Command::new(explore)
        .args(["serve-ctl", "stop", "--addr", &addr])
        .output()
        .expect("run serve-ctl stop");
    assert!(out.status.success());
    assert!(child.0.wait().expect("server exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live-observability acceptance property: `serve-ctl watch` streams
/// at least two epoch frames from a spawned server, mirrors them into a
/// valid JSONL file, and `serve-ctl metrics` renders the registry as a
/// sorted, aligned table with integers for counters and humanized
/// nanosecond stats.
#[test]
fn cli_watch_streams_live_frames_and_metrics_print_as_a_table() {
    let explore = env!("CARGO_BIN_EXE_lva-explore");
    let (mut child, addr) = spawn_cli_server(&["--timeline-ms", "25"]);

    // One tiny evaluated job so the table and frames carry real numbers.
    let submit = std::process::Command::new(explore)
        .args(["submit", "blackscholes", "--addr", &addr, "--degrees", "0"])
        .output()
        .expect("run submit");
    assert!(
        submit.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&submit.stderr)
    );

    let jsonl = std::env::temp_dir().join(format!("lva-watch-{}.jsonl", std::process::id()));
    let watch = std::process::Command::new(explore)
        .args(["serve-ctl", "watch", "--addr", &addr, "--frames", "2"])
        .args(["--jsonl", jsonl.to_str().expect("utf8 temp path")])
        .output()
        .expect("run serve-ctl watch");
    assert!(
        watch.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let table = String::from_utf8_lossy(&watch.stdout).into_owned();
    let rows: Vec<&str> = table.lines().collect();
    assert!(
        rows[0].contains("epoch") && rows[0].contains("eval p95"),
        "header row: {table}"
    );
    assert_eq!(rows.len(), 3, "header + 2 live frames: {table}");
    assert!(
        String::from_utf8_lossy(&watch.stderr).contains("watched 2 epoch frame(s)"),
        "summary on stderr"
    );

    // The JSONL mirror reloads as the same two frames, indices ascending.
    let load = lva::obs::read_jsonl(&jsonl).expect("reload watch jsonl");
    assert_eq!(load.frames.len(), 2);
    assert!(!load.truncated);
    assert!(load.frames[0].index < load.frames[1].index);
    let _ = std::fs::remove_file(&jsonl);

    // `--once` is the scripting spelling of `--frames 1`.
    let once = std::process::Command::new(explore)
        .args(["serve-ctl", "watch", "--addr", &addr, "--once"])
        .output()
        .expect("run serve-ctl watch --once");
    assert!(once.status.success());
    assert_eq!(String::from_utf8_lossy(&once.stdout).lines().count(), 2);

    let metrics = std::process::Command::new(explore)
        .args(["serve-ctl", "metrics", "--addr", &addr])
        .output()
        .expect("run serve-ctl metrics");
    assert!(metrics.status.success());
    let table = String::from_utf8_lossy(&metrics.stdout).into_owned();
    let mut paths = Vec::new();
    let mut cols = std::collections::HashSet::new();
    let mut values = std::collections::HashMap::new();
    for line in table.lines() {
        // `path<padding>  value` — neither token contains spaces.
        let mut tokens = line.split_whitespace();
        let path = tokens.next().expect("path column");
        let value = tokens.next().expect("value column");
        assert_eq!(tokens.next(), None, "two columns: {line:?}");
        paths.push(path.to_owned());
        cols.insert(line.len() - value.len());
        values.insert(path.to_owned(), value.to_owned());
    }
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(paths, sorted, "rows sort by path:\n{table}");
    assert_eq!(cols.len(), 1, "values align in one column:\n{table}");
    // Round trip: the table's accepted-jobs row equals what the typed
    // client reports, printed as a bare integer.
    let mut ctl = Client::connect(&*addr).expect("connect ctl");
    let dump: std::collections::HashMap<String, f64> =
        ctl.metrics().expect("metrics").into_iter().collect();
    assert_eq!(
        values["serve/jobs/accepted"],
        format!("{}", dump["serve/jobs/accepted"]),
        "counters print as integers"
    );
    // The precise-reference memo's counters: one lookup per evaluation.
    let lookups: u64 = ["serve/precise/hits", "serve/precise/misses"]
        .iter()
        .map(|p| values[*p].parse::<u64>().expect("integer counter"))
        .sum();
    assert_eq!(
        lookups.to_string(),
        values["serve/points/evaluated"],
        "one precise lookup per evaluated point:\n{table}"
    );
    let p95 = &values["serve/point/eval_ns/p95"];
    assert!(
        ["ns", "us", "ms", "s"].iter().any(|u| p95.ends_with(u)),
        "nanosecond stats humanize: {p95}"
    );

    let stop = std::process::Command::new(explore)
        .args(["serve-ctl", "stop", "--addr", &addr])
        .output()
        .expect("run serve-ctl stop");
    assert!(stop.status.success());
    assert!(child.0.wait().expect("server exits").success());
}

/// A peer that never sends a newline cannot grow one request line
/// without bound: at the cap it gets a protocol error and its connection
/// closes, while other clients keep being served — including a request
/// that arrives split across the server's read timeouts.
#[test]
fn oversized_request_line_is_refused_and_the_server_keeps_serving() {
    use lva::serve::protocol::{parse_server_line, ServerLine};
    use lva::serve::server::MAX_REQUEST_LINE;
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    let handle = start_server(1);
    let mut flood = TcpStream::connect(handle.addr()).expect("connect");
    flood
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    flood
        .write_all(&vec![b'a'; MAX_REQUEST_LINE + 4096])
        .expect("the server reads the flood up to the cap and drains the rest");
    let mut reader = BufReader::new(flood);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error line");
    match parse_server_line(&reply).expect("protocol line") {
        ServerLine::Error(msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected an error, got {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "nothing follows the error");

    // A ping split across two writes with a pause longer than the
    // server's poll interval still assembles into one request.
    let mut split = TcpStream::connect(handle.addr()).expect("connect");
    split.write_all(br#"{"cmd":"#).expect("first half");
    std::thread::sleep(std::time::Duration::from_millis(300));
    split.write_all(b"\"ping\"}\n").expect("second half");
    let mut reply = String::new();
    BufReader::new(split)
        .read_line(&mut reply)
        .expect("pong line");
    assert!(
        matches!(parse_server_line(&reply), Ok(ServerLine::Pong)),
        "{reply}"
    );

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("the server still serves");
    client.shutdown_server().expect("shutdown");
    handle.join();
}
