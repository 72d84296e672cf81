//! Load generation: closed loops over keep-alive connections and open
//! loops on a fixed schedule with one connection per request.
//!
//! Open-loop latency is timed from when a request was *due*, not from
//! when it was sent, so a stall that delays later sends shows up in
//! their latencies; how late the sender ran is recorded apart as `lag`.

use crate::client::{Conn, Reply};
use crate::gate::{read_answer, Answer};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The name the served graph is registered under.
pub const GRAPH: &str = "g";

/// One request a workload sends.
#[derive(Debug, Clone)]
pub enum Req {
    /// `GET /v1/query`.
    Query { seed: usize },
    /// `GET /v1/topk`.
    TopK { seed: usize, k: usize },
    /// `POST /admin/load` of an index file.
    Swap { index: PathBuf },
}

impl Req {
    fn method_target(&self) -> (&'static str, String) {
        match self {
            Req::Query { seed } => ("GET", format!("/v1/query?graph={GRAPH}&seed={seed}")),
            Req::TopK { seed, k } => ("GET", format!("/v1/topk?graph={GRAPH}&seed={seed}&k={k}")),
            Req::Swap { index } => {
                ("POST", format!("/admin/load?graph={GRAPH}&index={}", index.display()))
            }
        }
    }

    /// The span name of the HTTP call.
    pub fn span_name(&self) -> &'static str {
        match self {
            Req::Query { .. } => "http.query",
            Req::TopK { .. } => "http.topk",
            Req::Swap { .. } => "http.swap",
        }
    }

    /// The seed this request asks about; `None` for a swap.
    pub fn seed(&self) -> Option<usize> {
        match self {
            Req::Query { seed } | Req::TopK { seed, .. } => Some(*seed),
            Req::Swap { .. } => None,
        }
    }
}

/// How one request ended.
#[derive(Debug)]
pub enum Outcome {
    /// A 200 whose body was read into an answer (or failed to read).
    Answer(Result<Answer, String>),
    /// Any other status.
    Status(u16),
    /// The connection failed.
    Transport(String),
}

/// One request as the generator saw it.
#[derive(Debug)]
pub struct Sample {
    /// Request id, shared with the spans of its replays.
    pub id: u64,
    /// What was asked.
    pub req: Req,
    /// When the request was due.
    pub due: Instant,
    /// Due (open loop) or send (closed loop) time to last byte.
    pub latency: Duration,
    /// How late the sender started the request after it was due.
    pub lag: Duration,
    /// Connect time, for calls that opened a connection.
    pub connect: Option<Duration>,
    /// Send to first response byte.
    pub ttfb: Duration,
    /// First to last response byte.
    pub transfer: Duration,
    /// Response bytes on the wire.
    pub bytes: usize,
    /// How it ended.
    pub outcome: Outcome,
}

/// All samples of one measured window.
pub struct Run {
    /// Samples in no particular order.
    pub samples: Vec<Sample>,
    /// Window length: from its start until the last request finished.
    pub window: Duration,
    /// Spans recorded during the window (traced runs only).
    pub trace: Trace,
}

/// Turns a finished call into a sample. `due` is when the request was
/// due: its schedule slot in an open loop, the previous answer in a
/// closed loop. Open-loop latency counts from `due`, closed-loop latency
/// from the send; either way `lag` is how late the send began.
fn finish(
    id: u64,
    req: Req,
    due: Instant,
    open: bool,
    connect: Option<(Instant, Instant)>,
    result: std::io::Result<Reply>,
    trace: Option<&mut Trace>,
) -> Sample {
    let connect_time = connect.map(|(s, e)| e - s);
    let reply = match result {
        Ok(reply) => reply,
        Err(e) => {
            let began = connect.map_or(due, |(s, _)| s);
            return Sample {
                id,
                due,
                latency: due.elapsed(),
                lag: began.saturating_duration_since(due),
                connect: connect_time,
                ttfb: Duration::ZERO,
                transfer: Duration::ZERO,
                bytes: 0,
                outcome: Outcome::Transport(e.to_string()),
                req,
            };
        }
    };
    let began = connect.map_or(reply.sent, |(s, _)| s);
    let clock = if open { due } else { began };
    if let Some(trace) = trace {
        let root = trace.span(req.span_name(), clock, reply.done, None, id);
        if let Some((s, e)) = connect {
            trace.span("serve.connect", s, e, Some(root), id);
        }
        trace.span("serve.ttfb", reply.sent, reply.first_byte, Some(root), id);
        trace.span("serve.transfer", reply.first_byte, reply.done, Some(root), id);
    }
    let outcome = if reply.status == 200 {
        Outcome::Answer(read_answer(&req, &reply.body))
    } else {
        Outcome::Status(reply.status)
    };
    Sample {
        id,
        due,
        latency: reply.done - clock,
        lag: began.saturating_duration_since(due),
        connect: connect_time,
        ttfb: reply.first_byte - reply.sent,
        transfer: reply.done - reply.first_byte,
        bytes: reply.bytes,
        outcome,
        req,
    }
}

/// Closed loop: `conns` clients, each on its own keep-alive connection,
/// send their next request when the previous answer is in, until
/// `window` has passed. `next` draws client `c`'s requests from its own
/// seeded generator.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    window: Duration,
    seed: u64,
    traced: bool,
    next: &(dyn Fn(&mut StdRng) -> Req + Sync),
) -> Run {
    let start = Instant::now();
    let deadline = start + window;
    let per_client: Vec<(Vec<Sample>, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64 + 1) << 40));
                    let mut trace = Trace::new(start);
                    let mut samples = Vec::new();
                    let mut conn: Option<Conn> = None;
                    let mut counter = 0u64;
                    let mut due = start;
                    while Instant::now() < deadline {
                        let req = next(&mut rng);
                        let id = ((c as u64) << 32) | counter;
                        counter += 1;
                        let mut opened = None;
                        if conn.is_none() {
                            match Conn::open(addr, true) {
                                Ok(new) => {
                                    opened = Some(new.connect);
                                    conn = Some(new);
                                }
                                Err(e) => {
                                    samples.push(finish(id, req, due, false, None, Err(e), None));
                                    due = Instant::now();
                                    continue;
                                }
                            }
                        }
                        let Some(open) = conn.as_mut() else { continue };
                        let (method, target) = req.method_target();
                        let result = open.call(method, &target);
                        if result.is_err() {
                            conn = None;
                        }
                        // The next request is due when this answer is in, so
                        // reading the answer counts as the client's lag.
                        let done = result.as_ref().map_or_else(|_| Instant::now(), |r| r.done);
                        let tr = traced.then_some(&mut trace);
                        samples.push(finish(id, req, due, false, opened, result, tr));
                        due = done;
                    }
                    (samples, trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    collect(start, per_client)
}

/// Open loop: request `i` of `schedule` is due at `start + offset`;
/// `senders` threads take requests in order, wait until each is due and
/// send it on a fresh connection.
pub fn open_loop(
    addr: SocketAddr,
    senders: usize,
    schedule: &[(Duration, Req)],
    traced: bool,
) -> Run {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let per_sender: Vec<(Vec<Sample>, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut trace = Trace::new(start);
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((offset, req)) = schedule.get(i) else { break };
                        let due = start + *offset;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let (method, target) = req.method_target();
                        let tr = traced.then_some(&mut trace);
                        let sample = match Conn::open(addr, false) {
                            Ok(mut conn) => {
                                let result = conn.call(method, &target);
                                finish(
                                    i as u64,
                                    req.clone(),
                                    due,
                                    true,
                                    Some(conn.connect),
                                    result,
                                    tr,
                                )
                            }
                            Err(e) => finish(i as u64, req.clone(), due, true, None, Err(e), None),
                        };
                        samples.push(sample);
                    }
                    (samples, trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    collect(start, per_sender)
}

fn collect(start: Instant, parts: Vec<(Vec<Sample>, Trace)>) -> Run {
    let window = start.elapsed();
    let mut trace = Trace::new(start);
    let mut samples = Vec::new();
    for (s, t) in parts {
        samples.extend(s);
        trace.absorb(t);
    }
    Run { samples, window, trace }
}
