//! The open-loop load generator. One process, one sending thread, at
//! most `nproc` connections (each with a thread that only reads
//! replies); requests are pipelined and matched to replies by `id`. Every latency is timed from the request's
//! scheduled send time, so a stall in the generator or the server is
//! charged to every request it delays.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use asteria::vulnsearch::FunctionQuery;

use crate::inputs::StepPlan;
use crate::report::object;
use asteria::serve::json::Json;

/// A step stops sending once this many requests are outstanding: the
/// backlog is then growing by any measure, and stopping well below the
/// server's default queue bound (256) keeps the benchmark from turning
/// an over-capacity rung into refused requests.
pub const BACKLOG_CAP: usize = 160;

/// How long a step waits for its last replies after its last send.
const DRAIN: Duration = Duration::from_secs(20);

/// The request line, newline included, that sends `q` with `id`.
fn request_line(id: u64, q: &FunctionQuery) -> String {
    let mut line = object([
        ("id", Json::from(id)),
        ("op", Json::from("query")),
        ("function", Json::from(q.function.as_str())),
        ("source", Json::from(q.source.as_str())),
        ("arch", Json::from(q.arch.name())),
        ("top_k", Json::from(q.top_k)),
    ])
    .render();
    line.push('\n');
    line
}

/// What one step measured, per request in plan order.
#[derive(Debug, Clone, Default)]
pub struct StepRecord {
    /// Whether each planned request was sent (a step cut short at
    /// [`BACKLOG_CAP`] leaves the rest unsent).
    pub sent: Vec<bool>,
    /// Latency from due time to reply, ms; `f64::INFINITY` for a request
    /// that failed, was refused, or got no reply. Unsent requests are
    /// `NaN` and excluded from every statistic.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms (`NaN` if unsent).
    pub late_ms: Vec<f64>,
    /// Requests outstanding just before each send (0 if unsent).
    pub backlog: Vec<usize>,
    /// The raw reply line of each request, when one came.
    pub replies: Vec<Option<String>>,
    /// Whether the step stopped sending at [`BACKLOG_CAP`].
    pub cut_short: bool,
}

impl StepRecord {
    /// Requests actually sent.
    pub fn sent_count(&self) -> usize {
        self.sent.iter().filter(|s| **s).count()
    }

    /// Sent requests without a successful reply.
    pub fn failed_count(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_infinite()).count()
    }

    /// Ascending latencies of the sent requests (failures last, as ∞).
    pub fn sorted_latencies(&self) -> Vec<f64> {
        sorted_finite_or_inf(&self.latency_ms)
    }

    /// Ascending lateness of the sent requests.
    pub fn sorted_lateness(&self) -> Vec<f64> {
        sorted_finite_or_inf(&self.late_ms)
    }

    /// Backlog samples of the sent requests, in due order.
    pub fn sent_backlog(&self) -> Vec<usize> {
        self.backlog
            .iter()
            .zip(&self.sent)
            .filter(|(_, s)| **s)
            .map(|(b, _)| *b)
            .collect()
    }
}

fn sorted_finite_or_inf(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The generator's connections to one server.
pub struct Client {
    streams: Vec<TcpStream>,
}

impl Client {
    /// Opens `connections` connections and waits until the server has
    /// answered a ping on each, so that no step pays for an accept.
    ///
    /// # Errors
    ///
    /// Any connect, write or read failure.
    pub fn connect(addr: SocketAddr, connections: usize) -> io::Result<Client> {
        let mut streams = Vec::with_capacity(connections);
        for _ in 0..connections.max(1) {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.write_all(b"{\"id\":0,\"op\":\"ping\"}\n")?;
            let mut byte = [0u8; 1];
            let mut line = Vec::new();
            while byte[0] != b'\n' {
                s.read_exact(&mut byte)?;
                line.push(byte[0]);
            }
            if !line.starts_with(b"{\"id\":0,\"ok\":true") {
                return Err(io::Error::other("server did not answer the ping"));
            }
            streams.push(s);
        }
        Ok(Client { streams })
    }

    /// Runs one step: sends request `k` of the plan at `due_s[k]` after
    /// the step starts, on connection `k % connections`, with id
    /// `first_id + k`, and collects every reply. One thread sends, on
    /// schedule, for all connections (sleeping until each due time);
    /// one thread per connection blocks on its socket and timestamps
    /// each reply as it arrives.
    pub fn run_step(&mut self, plan: &StepPlan, first_id: u64) -> StepRecord {
        let n = plan.due_s.len();
        let lines: Vec<String> = (first_id..)
            .zip(&plan.queries)
            .map(|(id, q)| request_line(id, q))
            .collect();
        let streams = &self.streams;
        let outstanding = AtomicUsize::new(0);
        let expected: Vec<AtomicUsize> = streams.iter().map(|_| AtomicUsize::new(0)).collect();
        let done = AtomicBool::new(false);
        let start = Instant::now() + Duration::from_millis(20);
        let (sends, cut_short, replies) = std::thread::scope(|scope| {
            let readers: Vec<_> = streams
                .iter()
                .zip(&expected)
                .map(|(stream, expected)| {
                    let (outstanding, done) = (&outstanding, &done);
                    scope.spawn(move || {
                        read_replies(stream, first_id, n, outstanding, expected, done)
                    })
                })
                .collect();
            let (sends, cut_short) =
                send_all(streams, start, &plan.due_s, &lines, &outstanding, &expected);
            done.store(true, Ordering::SeqCst);
            let replies: Vec<(usize, Instant, String)> = readers
                .into_iter()
                .flat_map(|h| h.join().expect("a reply reader panicked"))
                .collect();
            (sends, cut_short, replies)
        });
        let mut rec = StepRecord {
            sent: vec![false; n],
            latency_ms: vec![f64::NAN; n],
            late_ms: vec![f64::NAN; n],
            backlog: vec![0; n],
            replies: vec![None; n],
            cut_short,
        };
        let due = |k: usize| start + Duration::from_secs_f64(plan.due_s[k]);
        for (k, sent_at, backlog) in sends {
            rec.sent[k] = true;
            rec.late_ms[k] = ms(sent_at.saturating_duration_since(due(k)));
            rec.backlog[k] = backlog;
            rec.latency_ms[k] = f64::INFINITY;
        }
        for (k, at, line) in replies {
            if rec.sent[k]
                && line.starts_with(&format!("{{\"id\":{},\"ok\":true", first_id + k as u64))
            {
                rec.latency_ms[k] = ms(at.saturating_duration_since(due(k)));
            }
            rec.replies[k] = Some(line);
        }
        rec
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends every request at its due time, request `k` on connection
/// `k % streams.len()`. Returns (plan index, send instant, backlog just
/// before the send) per request sent, and whether the step was cut
/// short at [`BACKLOG_CAP`].
fn send_all(
    streams: &[TcpStream],
    start: Instant,
    due_s: &[f64],
    lines: &[String],
    outstanding: &AtomicUsize,
    expected: &[AtomicUsize],
) -> (Vec<(usize, Instant, usize)>, bool) {
    let mut sends = Vec::with_capacity(due_s.len());
    for (k, (due_s, line)) in due_s.iter().zip(lines).enumerate() {
        if outstanding.load(Ordering::SeqCst) >= BACKLOG_CAP {
            return (sends, true);
        }
        let due = start + Duration::from_secs_f64(*due_s);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let c = k % streams.len();
        let backlog = outstanding.fetch_add(1, Ordering::SeqCst);
        expected[c].fetch_add(1, Ordering::SeqCst);
        let sent_at = Instant::now();
        if (&streams[c]).write_all(line.as_bytes()).is_err() {
            outstanding.fetch_sub(1, Ordering::SeqCst);
            expected[c].fetch_sub(1, Ordering::SeqCst);
            return (sends, true);
        }
        sends.push((k, sent_at, backlog));
    }
    (sends, false)
}

/// Reads one connection's replies until, after the sender is `done`,
/// every request it `expected` on this connection has a reply or
/// [`DRAIN`] has passed. Returns (plan index, receive instant, line).
fn read_replies(
    stream: &TcpStream,
    first_id: u64,
    n: usize,
    outstanding: &AtomicUsize,
    expected: &AtomicUsize,
    done: &AtomicBool,
) -> Vec<(usize, Instant, String)> {
    let mut replies = Vec::new();
    // The timeout only bounds how long a quiet socket delays the exit
    // check; a reply wakes the read at once.
    if stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .is_err()
    {
        return replies;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut drain_until: Option<Instant> = None;
    loop {
        if done.load(Ordering::SeqCst) {
            if replies.len() >= expected.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            if now >= *drain_until.get_or_insert(now + DRAIN) {
                break;
            }
        }
        match (&*stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..got]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let raw: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
                    let Some(k) = reply_id(&line)
                        .and_then(|id| id.checked_sub(first_id))
                        .and_then(|k| usize::try_from(k).ok())
                        .filter(|k| *k < n)
                    else {
                        continue;
                    };
                    replies.push((k, at, line));
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    replies
}

/// The integer `id` a reply line starts with.
fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(',')?;
    rest[..end].parse().ok()
}
