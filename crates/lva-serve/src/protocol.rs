//! The wire protocol: one compact JSON document per `\n`-terminated
//! line, in both directions, reusing the `lva-obs` JSON model.
//!
//! Requests (client → server):
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"metrics"}
//! {"cmd":"shutdown"}
//! {"cmd":"watch","frames":8}
//! {"cmd":"submit","points":[{"workload":"blackscholes","scale":"test","seed":0,"config":{...}},...]}
//! ```
//!
//! A point's `config` is `lva-sim`'s one `SimConfig` codec
//! ([`lva_sim::SimConfig::to_json`] / [`lva_sim::SimConfig::from_json`]).
//! The encoder writes every key that applies; a client may leave out any
//! but `mechanism`, and a key left out takes the default in parentheses:
//!
//! ```text
//! mechanism     precise | lva | lvp | real-lvp | prefetch | clp | lva+clp
//! value_delay   (4)       threads (4; the workloads need at least 4)
//! l1            {size (65536), ways (8), block (64)}
//! lva           {table (512), lhb (4), ghb (0), degree (0), window (0.1 |
//!   lva+clp too  "exact" | "inf"), on_int (false), tag_bits (21), bits (4),
//!                update (unit | proportional), compute (average | last-value |
//!                stride | weighted-average), mantissa_loss (0), hash (xor |
//!                folded-xor)}
//! lvp           {table (512), lhb (4), ghb (0), tag_bits (21), hash (xor)}
//! real-lvp      the lvp keys + {bits (4), threshold (3), rollback (20)}
//! prefetch      {degree (1), ghb (2048), index (2048), next_line (true), depth (64)}
//! clp           {table (512), bits (4), depth (4), penalty (8),
//!   lva+clp too  slow (llc | l1 | l2 | dram)}
//! faults        {seed (0), table (0), drop (0), delay (0), delay_extra (8)}; off
//! error_budget  the governor's per-PC budget layer; off
//! governor_slo  the governor's epoch-SLO layer; off
//! governor      {epoch (1000), energy_weight (0.1), hysteresis (2), min_samples (16)}
//! ```
//!
//! Any of the three governor keys turns the governor on. Types are
//! strict, integers must be at most 2^53 − 1, and the decoded config must
//! validate. Tracing, timeline sampling and trace recording are not part
//! of the format.
//!
//! A `watch` answers with a stream of `frame` events — the server's
//! wall-interval timeline epochs, each an [`EpochFrame`] document with
//! `"event":"frame"` prepended — `frames` of them when positive, or
//! until the connection drops when `frames` is 0 (the default):
//!
//! ```text
//! {"event":"frame","epoch":12,"start":6000,"end":6500,"counters":{...},"gauges":{...},"histograms":{...}}
//! ```
//!
//! Responses (server → client). A `submit` answers with a stream:
//! an `accepted` event, zero or more monotonic `progress` events, then
//! exactly one final line carrying every result:
//!
//! ```text
//! {"event":"accepted","job":3,"points":4}
//! {"event":"progress","job":3,"done":2,"total":4}
//! {"ok":true,"job":3,"cache_hits":1,"deduped":0,"results":[{"ok":true,"manifest":"..."},...]}
//! ```
//!
//! Manifests travel as JSON strings (the pretty multi-line text,
//! `\n`-escaped by the serializer), so a cache hit's bytes survive the
//! wire exactly. Any request the server cannot parse or satisfy is
//! answered with `{"ok":false,"error":"..."}` and the connection stays
//! usable.

use crate::point::PointSpec;
use crate::sched::{JobOutcome, PointResult};
use lva_obs::{EpochFrame, Json};
use lva_sim::sched::JobId;

/// A parsed client request.
#[derive(Debug)]
pub(crate) enum Request {
    /// Liveness check.
    Ping,
    /// Dump the server metrics registry.
    Metrics,
    /// Stop accepting connections and drain the worker pool.
    Shutdown,
    /// Stream timeline frames: this many, or until disconnect when 0.
    Watch(u64),
    /// Evaluate a batch of points.
    Submit(Vec<PointSpec>),
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an `{"ok":false}` reply.
pub(crate) fn parse_request(line: &str) -> Result<Request, String> {
    let json = lva_obs::parse_json(line).map_err(|e| format!("bad request: {e}"))?;
    match json.get("cmd").and_then(Json::as_str) {
        Some("ping") => Ok(Request::Ping),
        Some("metrics") => Ok(Request::Metrics),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("watch") => match json.get("frames") {
            None => Ok(Request::Watch(0)),
            Some(n) => n
                .as_f64()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .map(|n| Request::Watch(n as u64))
                .ok_or_else(|| "watch 'frames' must be a non-negative number".into()),
        },
        Some("submit") => {
            let points = json
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("submit missing array 'points'")?;
            points
                .iter()
                .map(PointSpec::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Submit)
        }
        Some(other) => Err(format!("unknown command {other}")),
        None => Err("request missing string 'cmd'".into()),
    }
}

/// Encodes a submit request line.
///
/// # Errors
///
/// Returns a message when a point's seed is above 2^53 − 1 (see
/// [`PointSpec::to_json`]).
pub fn encode_submit(points: &[PointSpec]) -> Result<String, String> {
    let points = points
        .iter()
        .map(PointSpec::to_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Json::Obj(vec![
        ("cmd".into(), Json::Str("submit".into())),
        ("points".into(), Json::Arr(points)),
    ])
    .to_string_compact())
}

/// Encodes a bare command line (`ping` / `metrics` / `shutdown`).
#[must_use]
pub(crate) fn encode_command(cmd: &str) -> String {
    Json::Obj(vec![("cmd".into(), Json::Str(cmd.into()))]).to_string_compact()
}

/// Encodes a watch request line (`frames` 0 = until disconnect).
#[must_use]
pub(crate) fn encode_watch(frames: u64) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::Str("watch".into())),
        ("frames".into(), Json::Num(frames as f64)),
    ])
    .to_string_compact()
}

/// A `frame` event: the frame's own document ([`EpochFrame::to_json`])
/// with `"event":"frame"` prepended.
#[must_use]
pub(crate) fn encode_frame(frame: &EpochFrame) -> String {
    let mut fields = vec![("event".into(), Json::Str("frame".into()))];
    if let Json::Obj(rest) = frame.to_json() {
        fields.extend(rest);
    }
    Json::Obj(fields).to_string_compact()
}

/// `{"ok":false,"error":...}`.
#[must_use]
pub(crate) fn encode_error(message: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.into())),
    ])
    .to_string_compact()
}

/// `{"ok":true,"pong":true}`.
#[must_use]
pub(crate) fn encode_pong() -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("pong".into(), Json::Bool(true)),
    ])
    .to_string_compact()
}

/// `{"ok":true,"stopping":true}`.
#[must_use]
pub(crate) fn encode_stopping() -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("stopping".into(), Json::Bool(true)),
    ])
    .to_string_compact()
}

/// `{"ok":true,"metrics":{...}}` with paths in dump order.
#[must_use]
pub(crate) fn encode_metrics(dump: &[(String, f64)]) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "metrics".into(),
            Json::Obj(
                dump.iter()
                    .map(|(path, value)| (path.clone(), Json::Num(*value)))
                    .collect(),
            ),
        ),
    ])
    .to_string_compact()
}

/// The `accepted` event opening a submit stream.
#[must_use]
pub(crate) fn encode_accepted(job: JobId, points: usize) -> String {
    Json::Obj(vec![
        ("event".into(), Json::Str("accepted".into())),
        ("job".into(), Json::Num(job as f64)),
        ("points".into(), Json::Num(points as f64)),
    ])
    .to_string_compact()
}

/// A `progress` event.
#[must_use]
pub(crate) fn encode_progress(job: JobId, done: usize, total: usize) -> String {
    Json::Obj(vec![
        ("event".into(), Json::Str("progress".into())),
        ("job".into(), Json::Num(job as f64)),
        ("done".into(), Json::Num(done as f64)),
        ("total".into(), Json::Num(total as f64)),
    ])
    .to_string_compact()
}

/// The final line of a submit stream.
#[must_use]
pub fn encode_outcome(job: JobId, outcome: &JobOutcome) -> String {
    let results = outcome
        .results
        .iter()
        .map(|r| match r {
            Ok(manifest) => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("manifest".into(), Json::Str(manifest.clone())),
            ]),
            Err(error) => Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::Str(error.clone())),
            ]),
        })
        .collect();
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("job".into(), Json::Num(job as f64)),
        ("cache_hits".into(), Json::Num(outcome.cache_hits as f64)),
        ("deduped".into(), Json::Num(outcome.deduped as f64)),
        ("results".into(), Json::Arr(results)),
    ])
    .to_string_compact()
}

/// One parsed server line, as seen by a client.
#[derive(Debug)]
pub enum ServerLine {
    /// Submit stream opened.
    Accepted {
        /// Server-assigned job id.
        job: JobId,
        /// Points accepted.
        points: usize,
    },
    /// Submit stream progress.
    Progress {
        /// Job the event belongs to.
        job: JobId,
        /// Points finished so far.
        done: usize,
        /// Total points in the job.
        total: usize,
    },
    /// Final submit response.
    Outcome {
        /// Job the results belong to.
        job: JobId,
        /// Per-point results in submission order.
        results: Vec<PointResult>,
        /// Unique points served without evaluation.
        cache_hits: u64,
        /// Intra-job duplicates.
        deduped: u64,
    },
    /// One timeline epoch of a watch stream.
    Frame(EpochFrame),
    /// Ping reply.
    Pong,
    /// Shutdown acknowledged.
    Stopping,
    /// Metrics dump.
    Metrics(Vec<(String, f64)>),
    /// Request-level failure.
    Error(String),
}

fn field_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .filter(|n| n.is_finite() && *n >= 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("server line missing number '{key}'"))
}

/// Moves member `key` out of an object, leaving `null` in its place:
/// the manifests of an outcome line leave the parsed document without a
/// copy.
fn take(json: &mut Json, key: &str) -> Option<Json> {
    match json {
        Json::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Json::Null)),
        _ => None,
    }
}

/// One entry of an outcome line's `results`.
fn point_result(mut result: Json) -> Result<PointResult, String> {
    match result.get("ok") {
        Some(Json::Bool(true)) => match take(&mut result, "manifest") {
            Some(Json::Str(manifest)) => Ok(Ok(manifest)),
            _ => Err("result missing string 'manifest'".into()),
        },
        Some(Json::Bool(false)) => Ok(Err(match take(&mut result, "error") {
            Some(Json::Str(error)) => error,
            _ => "unspecified point error".into(),
        })),
        _ => Err("result missing bool 'ok'".into()),
    }
}

/// Parses one server line.
///
/// # Errors
///
/// Returns a message when the line is not valid protocol JSON.
pub fn parse_server_line(line: &str) -> Result<ServerLine, String> {
    let mut json = lva_obs::parse_json(line).map_err(|e| format!("bad server line: {e}"))?;
    if let Some(event) = json.get("event").and_then(Json::as_str) {
        return match event {
            "accepted" => Ok(ServerLine::Accepted {
                job: field_u64(&json, "job")?,
                points: field_u64(&json, "points")? as usize,
            }),
            "progress" => Ok(ServerLine::Progress {
                job: field_u64(&json, "job")?,
                done: field_u64(&json, "done")? as usize,
                total: field_u64(&json, "total")? as usize,
            }),
            "frame" => EpochFrame::from_json(&json)
                .map(ServerLine::Frame)
                .map_err(|e| format!("bad frame event: {e}")),
            other => Err(format!("unknown event {other}")),
        };
    }
    match json.get("ok") {
        Some(Json::Bool(false)) => Ok(ServerLine::Error(
            json.get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_owned(),
        )),
        Some(Json::Bool(true)) => {
            if json.get("pong").is_some() {
                return Ok(ServerLine::Pong);
            }
            if json.get("stopping").is_some() {
                return Ok(ServerLine::Stopping);
            }
            if let Some(metrics) = json.get("metrics").and_then(Json::as_obj) {
                let dump = metrics
                    .iter()
                    .map(|(path, value)| {
                        value
                            .as_f64()
                            .map(|v| (path.clone(), v))
                            .ok_or_else(|| format!("non-numeric metric {path}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(ServerLine::Metrics(dump));
            }
            let Some(Json::Arr(results)) = take(&mut json, "results") else {
                return Err("final line missing array 'results'".into());
            };
            let results = results
                .into_iter()
                .map(point_result)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ServerLine::Outcome {
                job: field_u64(&json, "job")?,
                results,
                cache_hits: field_u64(&json, "cache_hits")?,
                deduped: field_u64(&json, "deduped")?,
            })
        }
        _ => Err("server line missing 'ok' or 'event'".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fnv1a64;
    use lva_sim::SimConfig;
    use lva_workloads::WorkloadScale;

    #[test]
    fn submit_round_trips_through_both_directions() {
        let points = vec![
            PointSpec::new("blackscholes", WorkloadScale::Test, 0, SimConfig::precise()),
            PointSpec::new(
                "canneal",
                WorkloadScale::Small,
                2,
                SimConfig::baseline_lva(),
            ),
        ];
        let line = encode_submit(&points).unwrap();
        assert!(!line.contains('\n'));
        match parse_request(&line).unwrap() {
            Request::Submit(parsed) => assert_eq!(parsed, points),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn outcome_round_trips_with_multiline_manifests() {
        let outcome = JobOutcome {
            results: vec![
                Ok("line one\nline two\n".into()),
                Err("point exploded".into()),
            ],
            cache_hits: 1,
            deduped: 0,
        };
        let line = encode_outcome(7, &outcome);
        assert!(!line.contains('\n'), "manifest newlines must be escaped");
        match parse_server_line(&line).unwrap() {
            ServerLine::Outcome {
                job,
                results,
                cache_hits,
                deduped,
            } => {
                assert_eq!(job, 7);
                assert_eq!(results, outcome.results);
                assert_eq!(cache_hits, 1);
                assert_eq!(deduped, 0);
            }
            other => panic!("expected outcome, got {other:?}"),
        }
    }

    #[test]
    fn outcome_and_submit_wire_bytes_are_pinned() {
        // A manifest-shaped pretty document whose strings hold every
        // byte the escaper treats specially and multi-byte UTF-8, and a
        // refused point whose message needs escapes too.
        let control: String = (0u8..0x20).map(char::from).collect();
        let manifest = Json::Obj(vec![
            ("kind".into(), Json::Str("lva-obs.run-record".into())),
            (
                "name".into(),
                Json::Str(format!("q\"b\\s/{control}\u{7f}\u{e9}\u{4e2d}\u{1f600}")),
            ),
            (
                "stats".into(),
                Json::Obj(vec![
                    ("summary/norm_mpki".into(), Json::Num(0.1985302547669558)),
                    ("phase1/core0/loads".into(), Json::Num(56076.0)),
                ]),
            ),
        ])
        .to_string_pretty();
        let outcome = JobOutcome {
            results: vec![Ok(manifest), Err(format!("bad\tpoint \"{control}\""))],
            cache_hits: 1,
            deduped: 0,
        };
        let points = [
            PointSpec::new("blackscholes", WorkloadScale::Test, 0, SimConfig::precise()),
            PointSpec::new(
                "canneal",
                WorkloadScale::Small,
                2,
                SimConfig::baseline_lva().with_error_budget(0.05),
            ),
        ];
        let outcome_line = encode_outcome(7, &outcome);
        let submit_line = encode_submit(&points).unwrap();
        // Pinned from the char-by-char escaper the run-based one replaced.
        let pins = [
            (fnv1a64(outcome_line.as_bytes()), outcome_line.len()),
            (fnv1a64(submit_line.as_bytes()), submit_line.len()),
        ];
        assert_eq!(
            pins,
            [(0xf521_b7fc_ced3_df5e, 703), (0x4440_3fe2_cce2_2021, 588)],
            "{outcome_line}\n{submit_line}"
        );
    }

    #[test]
    fn control_lines_round_trip() {
        assert!(matches!(
            parse_request(&encode_command("ping")).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(&encode_command("metrics")).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            parse_request(&encode_command("shutdown")).unwrap(),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_server_line(&encode_pong()).unwrap(),
            ServerLine::Pong
        ));
        assert!(matches!(
            parse_server_line(&encode_stopping()).unwrap(),
            ServerLine::Stopping
        ));
        match parse_server_line(&encode_progress(3, 1, 4)).unwrap() {
            ServerLine::Progress { job, done, total } => {
                assert_eq!((job, done, total), (3, 1, 4));
            }
            other => panic!("expected progress, got {other:?}"),
        }
        match parse_server_line(&encode_metrics(&[("serve/cache/hits".into(), 5.0)])).unwrap() {
            ServerLine::Metrics(dump) => {
                assert_eq!(dump, vec![("serve/cache/hits".into(), 5.0)]);
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        match parse_server_line(&encode_error("nope")).unwrap() {
            ServerLine::Error(msg) => assert_eq!(msg, "nope"),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn watch_requests_and_frame_events_round_trip() {
        match parse_request(&encode_watch(8)).unwrap() {
            Request::Watch(frames) => assert_eq!(frames, 8),
            other => panic!("expected watch, got {other:?}"),
        }
        // A bare watch (no 'frames' field) means stream until disconnect.
        assert!(matches!(
            parse_request(r#"{"cmd":"watch"}"#).unwrap(),
            Request::Watch(0)
        ));
        assert!(parse_request(r#"{"cmd":"watch","frames":-1}"#).is_err());

        let mut frame = EpochFrame {
            index: 12,
            start: 6000,
            end: 6500,
            counters: vec![("serve/points/evaluated".into(), 3)],
            gauges: vec![("serve/queue/depth".into(), 2.0)],
            histograms: Vec::new(),
        };
        frame.histograms.push((
            "serve/point/eval_ns".into(),
            lva_obs::HistogramFrame {
                count: 3,
                sum: 9.0,
                mean: 3.0,
                p50: 3,
                p95: 3,
                p99: 3,
                max: 3,
            },
        ));
        let line = encode_frame(&frame);
        assert!(!line.contains('\n'));
        match parse_server_line(&line).unwrap() {
            ServerLine::Frame(parsed) => assert_eq!(parsed, frame),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"cmd":"fly"}"#,
            r#"{"cmd":"submit"}"#,
            r#"{"cmd":"submit","points":[{"workload":"blackscholes"}]}"#,
        ] {
            assert!(parse_request(line).is_err(), "{line:?} must not parse");
        }
    }
}
