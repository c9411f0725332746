//! The TCP front end: an accept loop handing each connection to its own
//! thread, all connections feeding one shared [`Scheduler`].
//!
//! A connection is persistent and serially handles any number of
//! requests. A `submit` blocks its connection (streaming progress
//! events) until the job's final line is written, but never blocks the
//! scheduler — other connections keep submitting and the worker pool
//! interleaves all open jobs fairly.
//!
//! Shutdown is cooperative: any client may send `{"cmd":"shutdown"}`.
//! The handler raises a stop flag and pokes the accept loop awake with
//! a loopback connection; connection threads notice the flag via short
//! read timeouts, finish their in-flight request, and exit; the accept
//! loop joins them all and only then drains the scheduler, so no
//! submission can race the worker pool teardown.

use crate::protocol::{self, Request};
use crate::sched::Scheduler;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often an idle connection thread re-checks the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest request line accepted, newline included. Far above any grid
/// `lva-explore submit` sends; a peer that exceeds it gets a protocol
/// error and the connection closes, so no peer can grow a line without
/// bound.
pub const MAX_REQUEST_LINE: usize = 8 << 20;

/// A bound-but-not-yet-running sweep server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread (test and embedding
/// convenience; the binary calls [`Server::run`] directly).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server thread exits (i.e. after a shutdown
    /// request).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port). The scheduler
    /// is shared — callers may also submit to it in-process.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn bind(addr: &str, scheduler: Arc<Scheduler>) -> std::io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            scheduler,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the socket's local address is
    /// unavailable.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `shutdown`: accepts connections, one
    /// handler thread each, then joins every handler and drains the
    /// scheduler's worker pool.
    pub fn run(self) {
        let addr = self.listener.local_addr().ok();
        let mut handlers = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let scheduler = Arc::clone(&self.scheduler);
                    let stop = Arc::clone(&self.stop);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &scheduler, &stop, addr);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        for h in handlers {
            let _ = h.join();
        }
        // Every connection thread has exited, so no submit can race the
        // queue closing.
        self.scheduler.shutdown();
    }

    /// Runs the server on a background thread; returns once the listen
    /// address is known.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the socket's local address is
    /// unavailable.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// One write per line (plus `TCP_NODELAY` set at accept time): splitting
/// the newline into a second small write would stall on the peer's
/// delayed ACK under Nagle's algorithm, adding tens of milliseconds to
/// every protocol round trip. The newline goes onto the owned line, so
/// framing copies no manifest.
fn send_line(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn handle_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    stop: &AtomicBool,
    server_addr: Option<SocketAddr>,
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    // A short read timeout lets the thread notice the stop flag while
    // idle; `read_line` keeps partial bytes in `line` across timeouts,
    // so a request split over several reads still assembles correctly.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let room = (MAX_REQUEST_LINE - line.len()) as u64;
        match reader.by_ref().take(room).read_line(&mut line) {
            Ok(0) => return, // client closed the connection
            Ok(_) if line.len() == MAX_REQUEST_LINE && !line.ends_with('\n') => {
                refuse_oversized_line(reader, &mut writer);
                return;
            }
            Ok(_) => {
                let request = std::mem::take(&mut line);
                if request.trim().is_empty() {
                    continue;
                }
                if !handle_request(&request, scheduler, stop, server_addr, &mut writer) {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers a request line that hit [`MAX_REQUEST_LINE`] with a protocol
/// error, then closes lingeringly: the write half shuts first and the
/// bytes the peer already sent are drained (up to another cap's worth,
/// until it pauses), so closing does not reset the connection before the
/// peer has read the error.
fn refuse_oversized_line(reader: BufReader<TcpStream>, writer: &mut TcpStream) {
    let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
    let _ = send_line(writer, protocol::encode_error(&message));
    let _ = writer.shutdown(Shutdown::Write);
    let _ = std::io::copy(
        &mut reader.take(MAX_REQUEST_LINE as u64),
        &mut std::io::sink(),
    );
}

/// Handles one request line; returns `false` when the connection should
/// close.
fn handle_request(
    request: &str,
    scheduler: &Scheduler,
    stop: &AtomicBool,
    server_addr: Option<SocketAddr>,
    writer: &mut TcpStream,
) -> bool {
    let request = match protocol::parse_request(request) {
        Ok(req) => req,
        Err(msg) => return send_line(writer, protocol::encode_error(&msg)).is_ok(),
    };
    match request {
        Request::Ping => send_line(writer, protocol::encode_pong()).is_ok(),
        Request::Metrics => {
            send_line(writer, protocol::encode_metrics(&scheduler.metrics_dump())).is_ok()
        }
        Request::Shutdown => {
            let _ = send_line(writer, protocol::encode_stopping());
            stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            if let Some(addr) = server_addr {
                let _ = TcpStream::connect(addr);
            }
            false
        }
        Request::Watch(frames) => {
            // Stream timeline epochs as they close. The sampler emits
            // heartbeat frames even when the pool is idle, so a watcher
            // always observes liveness; waits are chopped into
            // `POLL_INTERVAL` slices so the stop flag is honoured
            // between frames. A finite watch leaves the connection
            // reusable; an unbounded one ends when the peer goes away
            // (the write fails) or the server stops.
            let mut cursor = None;
            let mut sent = 0u64;
            loop {
                if stop.load(Ordering::SeqCst) {
                    return true;
                }
                if let Some(frame) = scheduler.wait_frame(cursor, POLL_INTERVAL) {
                    cursor = Some(frame.index);
                    if send_line(writer, protocol::encode_frame(&frame)).is_err() {
                        return false;
                    }
                    sent += 1;
                    if frames > 0 && sent == frames {
                        return true;
                    }
                }
            }
        }
        Request::Submit(points) => {
            if stop.load(Ordering::SeqCst) {
                return send_line(writer, protocol::encode_error("server is stopping")).is_ok();
            }
            let total = points.len();
            let id = scheduler.submit(points);
            let mut writes_ok = send_line(writer, protocol::encode_accepted(id, total)).is_ok();
            let mut done = 0;
            while let Some((d, t)) = scheduler.progress(id, done) {
                if d != done && writes_ok {
                    writes_ok = send_line(writer, protocol::encode_progress(id, d, t)).is_ok();
                }
                done = d;
                if d == t {
                    break;
                }
            }
            // Always collect the job — even when the client is gone —
            // so it cannot leak in the scheduler's job map.
            let outcome = scheduler.wait(id);
            writes_ok && send_line(writer, protocol::encode_outcome(id, &outcome)).is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;

    fn test_server() -> (ServerHandle, TcpStream) {
        let scheduler = Arc::new(Scheduler::with_evaluator(
            2,
            ResultCache::in_memory(16),
            Box::new(|spec| Ok(format!("manifest:{:016x}", spec.fingerprint()))),
        ));
        let server = Server::bind("127.0.0.1:0", scheduler).unwrap();
        let handle = server.spawn().unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        (handle, stream)
    }

    fn round_trip(stream: &mut TcpStream, line: &str) -> String {
        send_line(stream, line.into()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_owned()
    }

    #[test]
    fn ping_garbage_and_shutdown_over_a_raw_socket() {
        let (handle, mut stream) = test_server();
        assert_eq!(
            round_trip(&mut stream, r#"{"cmd":"ping"}"#),
            protocol::encode_pong()
        );

        let reply = round_trip(&mut stream, "this is not json");
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // The connection survived the bad request.
        assert_eq!(
            round_trip(&mut stream, r#"{"cmd":"ping"}"#),
            protocol::encode_pong()
        );

        let reply = round_trip(&mut stream, r#"{"cmd":"shutdown"}"#);
        assert_eq!(reply, protocol::encode_stopping());
        handle.join();
    }

    #[test]
    fn watch_streams_finite_frames_and_keeps_the_connection() {
        let scheduler = Arc::new(Scheduler::with_evaluator_every(
            1,
            ResultCache::in_memory(4),
            Box::new(|_| Ok("m".into())),
            5,
        ));
        let server = Server::bind("127.0.0.1:0", scheduler).unwrap();
        let handle = server.spawn().unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();

        send_line(&mut stream, protocol::encode_watch(2)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut indices = Vec::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match protocol::parse_server_line(line.trim_end()).unwrap() {
                protocol::ServerLine::Frame(f) => indices.push(f.index),
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert!(indices[1] > indices[0], "frames arrive in epoch order");

        // The finite watch ended; the same connection still answers.
        send_line(&mut stream, r#"{"cmd":"ping"}"#.into()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), protocol::encode_pong());

        send_line(&mut stream, r#"{"cmd":"shutdown"}"#.into()).unwrap();
        handle.join();
    }

    #[test]
    fn metrics_are_served_as_a_numeric_object() {
        let (handle, mut stream) = test_server();
        let reply = round_trip(&mut stream, r#"{"cmd":"metrics"}"#);
        match protocol::parse_server_line(&reply).unwrap() {
            protocol::ServerLine::Metrics(dump) => {
                assert!(dump.iter().any(|(path, _)| path == "serve/queue/depth"));
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        let _ = round_trip(&mut stream, r#"{"cmd":"shutdown"}"#);
        handle.join();
    }
}
