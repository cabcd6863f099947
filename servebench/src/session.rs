//! A closed-loop client that runs `serve_session` on its own thread over an
//! in-memory line transport.
//!
//! The session's reader is the client: when the session asks for the next
//! line, the client first judges the previous reply, then hands out the
//! next request and starts its clock. The session's writer collects the
//! reply bytes, and its `flush` — which the session calls once per request,
//! after the last reply line — stops the clock. Judging a reply therefore
//! happens outside the timed window, and no socket or extra thread enters
//! the numbers.

use crate::oracle::{Checker, Ledger, Verdict};
use crate::workload::{Op, ReqKind, Stream, Workload};
use inflog_serve::{serve_session, Server};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::time::Instant;

/// What a client sends.
#[derive(Debug)]
pub enum Plan {
    /// Whole rounds of `stream` until `deadline` has passed at a round
    /// boundary.
    Timed { stream: Stream, deadline: Instant },
    /// A fixed request list.
    Script(Vec<Op>),
}

/// Per-kind request accounting of one client (or of a whole run).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: [u64; 4],
    pub failed: [u64; 4],
    /// Latencies of the requests that did not fail, in microseconds.
    pub samples: [Vec<f64>; 4],
    /// Replies the oracle rejected (also counted in `failed`).
    pub wrong: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, kind: ReqKind, verdict: Verdict, micros: f64) {
        let k = kind as usize;
        self.attempted[k] += 1;
        let note = match verdict {
            Verdict::Ok => {
                self.samples[k].push(micros);
                return;
            }
            Verdict::Refused(why) => why,
            Verdict::Wrong(why) => {
                self.wrong += 1;
                why
            }
        };
        self.failed[k] += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for k in 0..4 {
            self.attempted[k] += other.attempted[k];
            self.failed[k] += other.failed[k];
            self.samples[k].extend_from_slice(&other.samples[k]);
        }
        self.wrong += other.wrong;
        for n in other.notes {
            if self.notes.len() < 5 {
                self.notes.push(n);
            }
        }
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

struct InFlight {
    op: Op,
    start: Instant,
    end: Option<Instant>,
}

struct Client<'a> {
    wl: &'a Workload,
    checker: Checker<'a>,
    plan: Plan,
    queue: VecDeque<Op>,
    inflight: Option<InFlight>,
    reply: Vec<u8>,
    tally: Tally,
    /// When the plan ran out.
    done: Option<Instant>,
}

impl Client<'_> {
    /// Judges the finished request, if any, then starts the next one and
    /// returns its line (`None` at the end of the plan).
    fn next_line(&mut self) -> Option<Vec<u8>> {
        self.settle();
        if self.queue.is_empty() {
            match &mut self.plan {
                Plan::Timed { stream, deadline } => {
                    if Instant::now() < *deadline {
                        self.queue.extend(self.wl.round(stream));
                    }
                }
                Plan::Script(ops) => self.queue.extend(ops.drain(..)),
            }
        }
        let Some(op) = self.queue.pop_front() else {
            self.done.get_or_insert_with(Instant::now);
            return None;
        };
        let mut line = self.wl.line(&op).into_bytes();
        line.push(b'\n');
        self.inflight = Some(InFlight {
            op,
            start: Instant::now(),
            end: None,
        });
        Some(line)
    }

    fn settle(&mut self) {
        let Some(req) = self.inflight.take() else {
            return;
        };
        let text = String::from_utf8_lossy(&self.reply).into_owned();
        self.reply.clear();
        let verdict = match req.end {
            Some(_) => self.checker.judge(&req.op, &text),
            None => Verdict::Refused(format!("no reply to {}", self.wl.line(&req.op))),
        };
        let micros = req
            .end
            .map_or(0.0, |end| (end - req.start).as_secs_f64() * 1e6);
        self.tally.record(req.op.kind(), verdict, micros);
    }
}

struct Input<'a> {
    client: Rc<RefCell<Client<'a>>>,
    line: Vec<u8>,
    pos: usize,
}

impl Read for Input<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Input<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.line.len() {
            match self.client.borrow_mut().next_line() {
                Some(line) => {
                    self.line = line;
                    self.pos = 0;
                }
                None => return Ok(&[]),
            }
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

struct Output<'a> {
    client: Rc<RefCell<Client<'a>>>,
}

impl Write for Output<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.client.borrow_mut().reply.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let now = Instant::now();
        if let Some(req) = &mut self.client.borrow_mut().inflight {
            req.end.get_or_insert(now);
        }
        Ok(())
    }
}

/// Runs one client's `plan` through `serve_session` on the calling thread
/// and returns its tally and the instant its plan ran out.
pub fn run_client(server: &Server, wl: &Workload, ledger: &Ledger, plan: Plan) -> (Tally, Instant) {
    let client = Rc::new(RefCell::new(Client {
        wl,
        checker: Checker::new(wl, ledger),
        plan,
        queue: VecDeque::new(),
        inflight: None,
        reply: Vec::new(),
        tally: Tally::default(),
        done: None,
    }));
    let input = Input {
        client: Rc::clone(&client),
        line: Vec::new(),
        pos: 0,
    };
    let output = Output {
        client: Rc::clone(&client),
    };
    serve_session(server, input, output).expect("the in-memory transport does not fail");
    let mut c = client.borrow_mut();
    // A session that closed early leaves its last request unanswered.
    c.settle();
    let done = c.done.unwrap_or_else(Instant::now);
    (std::mem::take(&mut c.tally), done)
}
