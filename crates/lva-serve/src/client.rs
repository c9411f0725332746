//! The in-process client: a thin typed wrapper over one protocol
//! connection.
//!
//! `lva-explore submit` is built on this, and so are the integration
//! tests — both speak to the server exclusively through [`Client`], so
//! the wire protocol is exercised end to end everywhere, not just in
//! unit tests.

use crate::point::PointSpec;
use crate::protocol::{self, ServerLine};
use crate::sched::PointResult;
use crate::server::MAX_REQUEST_LINE;
use lva_obs::EpochFrame;
use lva_sim::sched::JobId;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What a submit handed back: [`crate::sched::JobOutcome`] plus the
/// server-assigned job id.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// Server-assigned job id.
    pub job: JobId,
    /// Per-point results, in submission order.
    pub results: Vec<PointResult>,
    /// Unique points served without a fresh evaluation.
    pub cache_hits: u64,
    /// Points that duplicated an earlier point of the same submission.
    pub deduped: u64,
}

/// A persistent connection to an `lva-serve` instance.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        // Requests are tiny; waiting for ACKs under Nagle's algorithm
        // would add delayed-ACK latency to every round trip.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    fn send(&mut self, mut line: String) -> Result<(), String> {
        // One write per line — see the matching note in the server.
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Reads one server line of at most [`MAX_REQUEST_LINE`] bytes per
    /// point the caller waits on (at least one): an outcome line carries
    /// every manifest of its job, so its bound grows with the job.
    fn read_server_line(&mut self, points: usize) -> Result<ServerLine, String> {
        let limit = MAX_REQUEST_LINE.saturating_mul(points.max(1));
        let mut line = String::new();
        match self.reader.by_ref().take(limit as u64).read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) if n == limit && !line.ends_with('\n') => {
                Err(format!("server line exceeds {limit} bytes"))
            }
            Ok(_) => protocol::parse_server_line(&line),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Returns a message if the server is unreachable or replies out of
    /// protocol.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send(protocol::encode_command("ping"))?;
        match self.read_server_line(1)? {
            ServerLine::Pong => Ok(()),
            ServerLine::Error(msg) => Err(msg),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    /// Fetches the server's metrics dump (path → value, dump order).
    ///
    /// # Errors
    ///
    /// Returns a message if the server is unreachable or replies out of
    /// protocol.
    pub fn metrics(&mut self) -> Result<Vec<(String, f64)>, String> {
        self.send(protocol::encode_command("metrics"))?;
        match self.read_server_line(1)? {
            ServerLine::Metrics(dump) => Ok(dump),
            ServerLine::Error(msg) => Err(msg),
            other => Err(format!("expected metrics, got {other:?}")),
        }
    }

    /// Asks the server to stop. The server finishes in-flight requests,
    /// drains its worker pool and exits.
    ///
    /// # Errors
    ///
    /// Returns a message if the server is unreachable or replies out of
    /// protocol.
    pub fn shutdown_server(&mut self) -> Result<(), String> {
        self.send(protocol::encode_command("shutdown"))?;
        match self.read_server_line(1)? {
            ServerLine::Stopping => Ok(()),
            ServerLine::Error(msg) => Err(msg),
            other => Err(format!("expected stopping, got {other:?}")),
        }
    }

    /// Watches the server's wall-interval timeline: streams `frames`
    /// epoch frames (0 = until the server goes away), invoking
    /// `on_frame` for each. `on_frame` returning `false` stops the
    /// watch early by dropping the connection — for a finite watch the
    /// server stops on its own and the connection stays usable, so
    /// only bail out of an unbounded stream this way.
    ///
    /// # Errors
    ///
    /// Returns a message on connection loss before the requested frame
    /// count is reached, a protocol violation, or a request-level
    /// rejection.
    pub fn watch(
        &mut self,
        frames: u64,
        mut on_frame: impl FnMut(&EpochFrame) -> bool,
    ) -> Result<u64, String> {
        self.send(protocol::encode_watch(frames))?;
        let mut seen = 0u64;
        loop {
            if frames > 0 && seen == frames {
                return Ok(seen);
            }
            match self.read_server_line(1) {
                Ok(ServerLine::Frame(frame)) => {
                    seen += 1;
                    if !on_frame(&frame) {
                        return Ok(seen);
                    }
                }
                Ok(ServerLine::Error(msg)) => return Err(msg),
                Ok(other) => return Err(format!("unexpected line mid-watch: {other:?}")),
                // An unbounded watch ends when the server goes away.
                Err(_) if frames == 0 => return Ok(seen),
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits a batch of points and blocks until every result is in.
    ///
    /// # Errors
    ///
    /// Returns a message on connection loss, protocol violation, or a
    /// request-level rejection. Per-*point* failures are not errors
    /// here — they come back as `Err` entries in the outcome's results.
    pub fn submit(&mut self, points: &[PointSpec]) -> Result<SubmitOutcome, String> {
        self.submit_with_progress(points, |_, _| {})
    }

    /// [`submit`](Self::submit), invoking `on_progress(done, total)` for
    /// every progress event the server streams.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub fn submit_with_progress(
        &mut self,
        points: &[PointSpec],
        mut on_progress: impl FnMut(usize, usize),
    ) -> Result<SubmitOutcome, String> {
        self.send(protocol::encode_submit(points)?)?;
        let mut job_id = None;
        loop {
            match self.read_server_line(points.len())? {
                ServerLine::Accepted { job, points: n } => {
                    if n != points.len() {
                        return Err(format!("server accepted {n} of {} points", points.len()));
                    }
                    job_id = Some(job);
                }
                ServerLine::Progress { job, done, total } => {
                    if Some(job) == job_id {
                        on_progress(done, total);
                    }
                }
                ServerLine::Outcome {
                    job,
                    results,
                    cache_hits,
                    deduped,
                } => {
                    if results.len() != points.len() {
                        return Err(format!(
                            "server returned {} results for {} points",
                            results.len(),
                            points.len()
                        ));
                    }
                    return Ok(SubmitOutcome {
                        job,
                        results,
                        cache_hits,
                        deduped,
                    });
                }
                ServerLine::Error(msg) => return Err(msg),
                other => return Err(format!("unexpected line mid-submit: {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::sched::Scheduler;
    use crate::server::{Server, ServerHandle};
    use lva_sim::SimConfig;
    use lva_workloads::WorkloadScale;
    use std::sync::Arc;

    fn spec(workload: &str, seed: u64) -> PointSpec {
        PointSpec::new(workload, WorkloadScale::Test, seed, SimConfig::precise())
    }

    fn start() -> ServerHandle {
        let scheduler = Arc::new(Scheduler::with_evaluator(
            2,
            ResultCache::in_memory(16),
            Box::new(|spec| match spec.workload.as_str() {
                "ferret" => Err("broken workload".into()),
                _ => Ok(format!("manifest:{:016x}\nline2\n", spec.fingerprint())),
            }),
        ));
        Server::bind("127.0.0.1:0", scheduler)
            .unwrap()
            .spawn()
            .unwrap()
    }

    #[test]
    fn a_full_session_over_one_connection() {
        let handle = start();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();

        // Cold submit with an intra-job duplicate and a failing point.
        let points = vec![
            spec("blackscholes", 0),
            spec("canneal", 0),
            spec("blackscholes", 0),
            spec("ferret", 0),
        ];
        let mut progress = Vec::new();
        let cold = client
            .submit_with_progress(&points, |done, total| progress.push((done, total)))
            .unwrap();
        assert_eq!(cold.results.len(), 4);
        assert_eq!(cold.results[0], cold.results[2], "dedup fan-out");
        assert_eq!(cold.deduped, 1);
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.results[0].is_ok());
        assert_eq!(cold.results[3], Err("broken workload".into()));
        assert!(!progress.is_empty(), "progress events streamed");
        assert!(progress.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(progress.last().unwrap().1, 4);

        // Warm submit of the cacheable subset: all hits, same bytes.
        let warm = client
            .submit(&[spec("blackscholes", 0), spec("canneal", 0)])
            .unwrap();
        assert_eq!(warm.cache_hits, 2);
        assert_eq!(warm.results[0], cold.results[0]);
        assert_eq!(warm.results[1], cold.results[1]);
        assert!(warm.job > cold.job);

        let metrics = client.metrics().unwrap();
        let hits = metrics
            .iter()
            .find(|(path, _)| path == "serve/cache/hits")
            .map(|(_, v)| *v);
        assert_eq!(hits, Some(2.0));

        client.shutdown_server().unwrap();
        handle.join();
    }

    #[test]
    fn watch_delivers_live_frames_then_the_connection_still_works() {
        let scheduler = Arc::new(Scheduler::with_evaluator_every(
            1,
            ResultCache::in_memory(4),
            Box::new(|_| Ok("m".into())),
            5,
        ));
        let handle = Server::bind("127.0.0.1:0", scheduler)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut spans = Vec::new();
        let seen = client
            .watch(3, |frame| {
                spans.push((frame.start, frame.end));
                true
            })
            .unwrap();
        assert_eq!(seen, 3);
        assert!(spans.windows(2).all(|w| w[0].1 == w[1].0), "contiguous");
        client.ping().unwrap();
        client.shutdown_server().unwrap();
        handle.join();
    }

    #[test]
    fn two_clients_share_the_cache() {
        let handle = start();
        let mut a = Client::connect(handle.addr()).unwrap();
        let mut b = Client::connect(handle.addr()).unwrap();
        let oa = a.submit(&[spec("blackscholes", 7)]).unwrap();
        let ob = b.submit(&[spec("blackscholes", 7)]).unwrap();
        assert_eq!(oa.results, ob.results);
        assert_eq!(ob.cache_hits, 1, "b is served from a's evaluation");
        a.shutdown_server().unwrap();
        handle.join();
    }

    /// A one-connection fake server: reads the client's request line,
    /// then writes `reply` and closes.
    fn fake_server(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut request)
                .unwrap();
            let _ = (&stream).write_all(&reply);
        });
        (addr, server)
    }

    #[test]
    fn an_endless_server_line_is_refused_at_the_bound() {
        let extra = 4096;
        let (addr, server) = fake_server(vec![b'a'; MAX_REQUEST_LINE + extra]);
        let mut client = Client::connect(addr).unwrap();
        let err = client.ping().unwrap_err();
        assert!(
            err.contains(&MAX_REQUEST_LINE.to_string()),
            "names the limit: {err}"
        );
        // The client consumed exactly the bound; the rest is still unread.
        let mut rest = Vec::new();
        client.reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest.len(), extra);
        server.join().unwrap();
    }

    #[test]
    fn an_outcome_line_may_carry_a_cap_per_point() {
        let manifest = "m".repeat(MAX_REQUEST_LINE / 2 + 1024);
        let outcome = crate::sched::JobOutcome {
            results: vec![Ok(manifest.clone()), Ok(manifest.clone())],
            cache_hits: 0,
            deduped: 0,
        };
        let line = protocol::encode_outcome(3, &outcome);
        assert!(line.len() > MAX_REQUEST_LINE && line.len() < 2 * MAX_REQUEST_LINE);
        let reply = format!("{}\n{line}\n", protocol::encode_accepted(3, 2));
        let (addr, server) = fake_server(reply.into_bytes());
        let mut client = Client::connect(addr).unwrap();
        let got = client
            .submit(&[spec("blackscholes", 0), spec("canneal", 0)])
            .unwrap();
        assert_eq!(got.job, 3);
        assert_eq!(got.results, vec![Ok(manifest.clone()), Ok(manifest)]);
        server.join().unwrap();
    }
}
