//! Load from this one process over real loopback sockets, one
//! keep-alive connection at a time: an open-loop read stream, and a
//! closed-loop ingest stream that runs after it.
//!
//! Every read has a due time on a fixed schedule. A read that waited for
//! its connection (the previous response came back after it was due) is
//! timed from its due time, so a stall is charged to every read it
//! delays; a read whose connection was free is timed from when it was
//! sent, so the generator's own wake-up delay is not charged to the
//! server. How late the generator sent each read is recorded too.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uqsj::net::Client;
use uqsj::nlp::Lexicon;
use uqsj::serve::Ingestor;
use uqsj::template::TemplateLibrary;

use crate::stats::us;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Outcome counts of one stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub shed_429: u64,
    pub deadline_503: u64,
    pub other_5xx: u64,
    pub other_4xx: u64,
    pub transport: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed_429 += other.shed_429;
        self.deadline_503 += other.deadline_503;
        self.other_5xx += other.other_5xx;
        self.other_4xx += other.other_4xx;
        self.transport += other.transport;
    }

    fn status(&mut self, status: u16) {
        match status {
            200..=299 => self.ok += 1,
            429 => self.shed_429 += 1,
            503 => self.deadline_503 += 1,
            500..=599 => self.other_5xx += 1,
            _ => self.other_4xx += 1,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "attempted {} ok {} 429 {} 503 {} 5xx {} 4xx {} transport {}",
            self.attempted,
            self.ok,
            self.shed_429,
            self.deadline_503,
            self.other_5xx,
            self.other_4xx,
            self.transport
        )
    }
}

/// Questions to be mined into the live library: each goes through
/// `Ingestor::ingest`, then `POST /v1/templates`.
pub struct IngestStream {
    pub ingestor: Ingestor,
    pub lexicon: Arc<Lexicon>,
    pub questions: Vec<String>,
    pub next: usize,
}

/// What one ingest stream did.
#[derive(Debug, Default)]
pub struct IngestOut {
    pub tally: Tally,
    /// Questions that failed analysis: deterministic input rejections
    /// (`IngestError::Analysis`), not failures of the system.
    pub rejected: u64,
    /// Start of the ingest to acknowledged POST, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Templates the server reported as new.
    pub added: u64,
}

/// What the read stream did.
#[derive(Debug, Default)]
pub struct ReadOut {
    pub tally: Tally,
    /// Due time to response, microseconds.
    pub latency_us: Vec<f64>,
    /// How late each read was sent, microseconds.
    pub late_us: Vec<f64>,
    /// `(position in the sequence, response body)` of successful reads,
    /// when kept.
    pub bodies: Vec<(usize, String)>,
    /// Stopped early: more than 1% of reads already missed the limit.
    pub aborted: bool,
    /// From the first due time to the last response.
    pub elapsed_s: f64,
}

/// One phase of reads: the `POST /v1/answer` bodies in `requests` at
/// `rate` per second.
pub struct Phase<'a> {
    pub requests: &'a [String],
    pub rate: f64,
    pub keep_bodies: bool,
    /// Abort the phase once more than 1% of its reads exceeded this.
    pub abort_over_us: Option<f64>,
}

/// Sleep until just before `due`, then spin: the schedule is kept to
/// within a few microseconds, not to the sleep's timer slack.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn due_at(start: Instant, i: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// JSON body asking one question.
pub fn answer_body(question: &str) -> String {
    format!("{{\"question\":{}}}", uqsj::net::Value::from(question).render())
}

/// JSON body asking a batch of questions on one server thread.
pub fn batch_body<'a>(questions: impl IntoIterator<Item = &'a str>) -> String {
    let list: Vec<String> =
        questions.into_iter().map(|q| uqsj::net::Value::from(q).render()).collect();
    format!("{{\"questions\":[{}],\"threads\":1}}", list.join(","))
}

/// Run one phase of reads against the server at `addr`; its connection
/// is closed before this returns.
pub fn run(addr: SocketAddr, phase: &Phase<'_>) -> ReadOut {
    let start = Instant::now() + Duration::from_millis(5);
    let mut out = ReadOut::default();
    let mut client = Client::connect(addr, TIMEOUT).ok();
    let mut over = 0usize;
    let limit = phase.abort_over_us.unwrap_or(f64::INFINITY);
    let mut free_at = start;
    for (i, body) in phase.requests.iter().enumerate() {
        let due = due_at(start, i, phase.rate);
        wait_until(due);
        let sent = Instant::now();
        out.late_us.push(us(sent - due));
        out.tally.attempted += 1;
        let response = match client.as_mut() {
            Some(c) => c.post("/v1/answer", body),
            None => Err(std::io::Error::other("not connected")),
        };
        let latency = us(if free_at > due { due } else { sent }.elapsed());
        free_at = Instant::now();
        out.latency_us.push(latency);
        match response {
            Ok(resp) => {
                out.tally.status(resp.status);
                if resp.close {
                    client = Client::connect(addr, TIMEOUT).ok();
                }
                if phase.keep_bodies && resp.status == 200 {
                    out.bodies.push((i, resp.body));
                }
            }
            Err(_) => {
                out.tally.transport += 1;
                client = Client::connect(addr, TIMEOUT).ok();
            }
        }
        if latency > limit {
            over += 1;
            if over * 100 > phase.requests.len() {
                out.aborted = true;
                break;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// `count` ingests back to back on one connection: each is timed from
/// its start to its acknowledgement.
pub fn run_ingest(addr: SocketAddr, stream: &mut IngestStream, count: usize) -> IngestOut {
    let mut out = IngestOut::default();
    let mut client = Client::connect(addr, TIMEOUT).ok();
    for _ in 0..count {
        let began = Instant::now();
        let question = &stream.questions[stream.next % stream.questions.len()];
        stream.next += 1;
        let outcome = match stream.ingestor.ingest(&stream.lexicon, question) {
            Ok(outcome) => outcome,
            Err(_) => {
                out.rejected += 1;
                continue;
            }
        };
        let mut library = TemplateLibrary::new();
        for t in outcome.templates {
            library.add(t);
        }
        let text = uqsj::template::io::to_text(&library);
        let body = format!("{{\"templates\":{}}}", uqsj::net::Value::from(text).render());
        out.tally.attempted += 1;
        let response = match client.as_mut() {
            Some(c) => c.post("/v1/templates", &body),
            None => Err(std::io::Error::other("not connected")),
        };
        match response {
            Ok(resp) => {
                out.latency_ms.push(began.elapsed().as_secs_f64() * 1e3);
                out.tally.status(resp.status);
                if resp.status == 200 {
                    let added = uqsj::net::json::parse(&resp.body)
                        .ok()
                        .and_then(|v| v.get("added").and_then(uqsj::net::Value::as_f64));
                    out.added += added.unwrap_or(0.0) as u64;
                }
                if resp.close {
                    client = Client::connect(addr, TIMEOUT).ok();
                }
            }
            Err(_) => {
                out.tally.transport += 1;
                client = Client::connect(addr, TIMEOUT).ok();
            }
        }
    }
    out
}
