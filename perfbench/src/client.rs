//! The load generator: at most `nproc` threads, each owning a fixed set
//! of sessions and sending their requests at the scheduled due times
//! over real sockets (the server speaks one request per connection, so
//! each request opens its own). The probe phase is one such thread.

use crate::workload::{Instance, Kind, Req};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tsm_model::Sample;

/// A client gives up on a reply after this long and counts a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// The raw HTTP request for one scheduled request (also what the traced
/// in-process replay feeds the server's parser).
pub fn request_bytes(inst: &Instance, req: &Req) -> Vec<u8> {
    match req.kind {
        Kind::Ingest => ingest_bytes(&inst.name, &inst.samples[req.lo..req.hi]),
        Kind::Predict => get_bytes(&format!("/predict?session={}", inst.name)),
        Kind::Query => get_bytes(&format!("/query?session={}&k=10", inst.name)),
    }
}

/// `POST /ingest/{name}` with a `time,x[,y[,z]]` body. Floats use Rust's
/// shortest round-trip form, so the server parses back the exact bits.
pub fn ingest_bytes(name: &str, samples: &[Sample]) -> Vec<u8> {
    let mut body = String::with_capacity(samples.len() * 40);
    for s in samples {
        body.push_str(&format!("{}", s.time));
        for c in s.position.coords() {
            body.push_str(&format!(",{c}"));
        }
        body.push('\n');
    }
    let mut out = format!(
        "POST /ingest/{name} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

pub fn get_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Sends one request and reads the reply: `(status, body)`.
pub fn send(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.write_all(request)?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the reply head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("reply without Content-Length"))?;
    while buf.len() < head_end + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
    Ok((status, body))
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub req: Req,
    /// When the generator thread was free to send: the due time, or the
    /// end of its previous request if that ended later.
    pub ready_ns: u64,
    /// When the generator started sending, ns after the window start.
    pub sent_ns: u64,
    /// When the reply was complete (or the attempt failed).
    pub done_ns: u64,
    /// HTTP status; 0 for a transport error or timeout.
    pub status: u16,
    pub body: String,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.req.due_ns) as f64 / 1e6
    }

    /// The generator's own lag: how long after it was free to send it
    /// sent. Time spent blocked on an earlier reply of the same thread
    /// is the server's backlog, which `latency_ms` already counts.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.ready_ns) as f64 / 1e6
    }

    pub fn service_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.sent_ns) as f64 / 1e6
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sleeps until `t0 + due_ns` (returns at once when already late).
pub fn wait_until(t0: Instant, due_ns: u64) {
    let due = t0 + Duration::from_nanos(due_ns);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Replays `queues` (one generator thread each) against `addr` and
/// returns every outcome, in per-thread send order (threads
/// concatenated). Each request is sent at its due time, or as soon as
/// its thread's previous request ended if that is later. `Req::instance`
/// indexes `instances`.
pub fn run_schedule(addr: SocketAddr, instances: &[Instance], queues: &[Vec<Req>]) -> Vec<Outcome> {
    let requests: Vec<Vec<Vec<u8>>> = queues
        .iter()
        .map(|queue| {
            queue
                .iter()
                .map(|r| request_bytes(&instances[r.instance], r))
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = queues
            .iter()
            .zip(&requests)
            .map(|(queue, bytes)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(queue.len());
                    let mut free_ns = 0;
                    for (req, raw) in queue.iter().zip(bytes) {
                        wait_until(t0, req.due_ns);
                        let sent_ns = ns_since(t0);
                        let (status, body) = send(addr, raw).unwrap_or((0, String::new()));
                        let done_ns = ns_since(t0);
                        out.push(Outcome {
                            req: *req,
                            ready_ns: req.due_ns.max(free_ns),
                            sent_ns,
                            done_ns,
                            status,
                            body,
                        });
                        free_ns = done_ns;
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    })
}
