//! The traced run: per-layer metrics.
//!
//! It replays the workload's requests by calling each layer's public
//! functions directly, in the order a session and the server's writer
//! thread call them, and records a span around every call (name, start,
//! end, parent, request id). Clients' rounds are interleaved one request at
//! a time on this one thread. Spans stay in memory and are written to
//! `.work/spans-<workload>.tsv` at the end.
//!
//! `Server::pin` is a one-line forward to `EpochCell::pin`; this run owns
//! the `EpochCell`, so `server.pin_us` times that call. Queue wait inside
//! `Server` has no public boundary to time from here.

use crate::host::{self, WorkDir};
use crate::oracle::{check_model, Checker, Ledger, LEDGER_WAIT};
use crate::session::Tally;
use crate::stats::median;
use crate::workload::{Op, Workload};
use crate::{Args, Report};
use inflog_core::Tuple;
use inflog_eval::materialize::Engine;
use inflog_eval::{
    inflationary_with, stratified_eval_with, DurableMaterialized, DurableOpts, EpochCell,
    EvalOptions, MaterializeOpts, Materialized,
};
use inflog_serve::{parse_request, render_error, render_tuple, Request, ServeError};
use inflog_syntax::{Atom, Term};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up and recovery repetitions of the traced run (medians reported).
const SETUP_REPS: usize = 3;
const RECOVER_REPS: usize = 3;

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start: Duration,
    end: Duration,
}

/// In-memory span and count recorder.
#[derive(Debug)]
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            parent,
            request,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    fn count(&mut self, name: &'static str, request: u64, value: f64) {
        self.counts.push((name, request, value));
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    fn counted(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "kind\tid\tparent\trequest\tname\tstart_us\tend_us_or_value"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{i}\t{parent}\t{}\t{}\t{:.3}\t{:.3}",
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        for (name, request, value) in &self.counts {
            writeln!(out, "count\t-\t-\t{request}\t{name}\t-\t{value}")?;
        }
        out.flush()
    }
}

/// The layers one replay drives.
struct Replay<'a> {
    wl: &'a Workload,
    tr: Tracer,
    dm: DurableMaterialized,
    twin: Materialized,
    cell: EpochCell,
    next_request: u64,
    tally: Tally,
    notes: Vec<String>,
}

fn durable_opts(wl: &Workload) -> DurableOpts {
    DurableOpts {
        engine: wl.engine,
        eval: EvalOptions::default(),
        durability: inflog_eval::Durability::Sync,
        store_failpoints: inflog_store::Failpoints::none(),
    }
}

impl Replay<'_> {
    /// One request: parse, then the read or write path, then the in-memory
    /// twin's repair and (when asked) a from-scratch evaluation of the same
    /// EDB, each under its own root span.
    fn request(&mut self, checker: &mut Checker<'_>, op: &Op, full_eval: bool) {
        let req = self.next_request;
        self.next_request += 1;
        let root = self.tr.begin("request", None, req);
        let line = self.wl.line(op);
        let parsed = self
            .tr
            .time("proto.parse", Some(root), req, || parse_request(&line));
        let text = match parsed {
            Ok(Request::Query(goal)) => self.query(&goal, root, req),
            Ok(Request::Insert(atom)) => self.write(&atom, true, root, req),
            Ok(Request::Retract(atom)) => self.write(&atom, false, root, req),
            Ok(Request::Compact) => match self.dm.compact() {
                Ok(()) => format!("OK epoch={} changed=0\n", self.dm.epoch()),
                Err(e) => render_error(&ServeError::Eval(e)) + "\n",
            },
            Ok(other) => format!("ERR protocol: unexpected request {other:?}\n"),
            Err(e) => render_error(&e) + "\n",
        };
        self.tr.end(root);
        let micros = (self.tr.spans[root].end - self.tr.spans[root].start).as_secs_f64() * 1e6;
        let verdict = checker.judge(op, &text);
        self.tally.record(op.kind(), verdict, micros);
        match op {
            Op::Insert(_) | Op::Retract(_) if text.starts_with("OK") => {
                self.twin_repair(op, req);
                if full_eval {
                    self.full_eval(req);
                }
            }
            _ => {}
        }
    }

    fn query(&mut self, goal: &Atom, root: usize, req: u64) -> String {
        let epoch = self
            .tr
            .time("server.pin", Some(root), req, || self.cell.pin());
        let answer = self
            .tr
            .time("epoch.select", Some(root), req, || epoch.select(goal, None));
        let answer = match answer {
            Ok(a) => a,
            Err(e) => return render_error(&ServeError::Eval(e)) + "\n",
        };
        self.tr
            .count("epoch.answer_tuples", req, answer.tuples.len() as f64);
        self.tr.time("proto.render", Some(root), req, || {
            let universe = epoch.database().universe();
            let mut out = format!("EPOCH {}\n", epoch.number());
            for t in &answer.tuples {
                let _ = writeln!(out, "TRUE {}", render_tuple(universe, &goal.predicate, t));
            }
            for t in &answer.undefined {
                let _ = writeln!(out, "UNDEF {}", render_tuple(universe, &goal.predicate, t));
            }
            let _ = writeln!(
                out,
                "OK true={} undef={}",
                answer.tuples.len(),
                answer.undefined.len()
            );
            out
        })
    }

    /// Resolves a ground atom against the served universe, as the session
    /// does before handing a write to the server.
    fn ground(&self, atom: &Atom) -> Result<Tuple, String> {
        let epoch = self.cell.pin();
        let universe = epoch.database().universe();
        let consts = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(name) => universe
                    .lookup(name)
                    .ok_or_else(|| format!("unknown constant {name:?}")),
                Term::Var(v) => Err(format!("variable {v:?} in a write")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Tuple::from_slice(&consts))
    }

    fn write(&mut self, atom: &Atom, inserting: bool, root: usize, req: u64) -> String {
        let tuple = match self.ground(atom) {
            Ok(t) => t,
            Err(e) => return format!("ERR protocol: {e}\n"),
        };
        let facts = [(atom.predicate.as_str(), tuple)];
        let name = if inserting {
            "durable.apply_insert"
        } else {
            "durable.apply_retract"
        };
        let applied = self.tr.time(name, Some(root), req, || {
            if inserting {
                self.dm.insert(&facts)
            } else {
                self.dm.retract(&facts)
            }
        });
        let changed = match applied {
            Ok(n) => n,
            Err(e) => return render_error(&ServeError::Eval(e)) + "\n",
        };
        let published = self
            .tr
            .time("materialize.publish", Some(root), req, || self.dm.publish());
        let epoch = match published {
            Ok(e) => e,
            Err(e) => return render_error(&ServeError::Eval(e)) + "\n",
        };
        self.tr.count(
            "epoch.model_tuples",
            req,
            epoch.interp().total_tuples() as f64,
        );
        self.tr.time("epoch.swap", Some(root), req, || {
            drop(self.cell.publish(epoch));
        });
        format!("OK epoch={} changed={changed}\n", self.dm.epoch())
    }

    fn twin_repair(&mut self, op: &Op, req: u64) {
        let (name, inserting, (u, v)) = match op {
            Op::Insert(e) => ("materialize.repair_insert", true, *e),
            Op::Retract(e) => ("materialize.repair_retract", false, *e),
            _ => return,
        };
        let db = self.twin.database();
        let consts: Vec<_> = [u, v]
            .iter()
            .map(|&x| db.universe().lookup(&self.wl.names[x as usize]))
            .collect::<Option<_>>()
            .expect("workload vertices are interned");
        let facts = [("E", Tuple::from_slice(&consts))];
        let twin = &mut self.twin;
        let done = self.tr.time(name, None, req, || {
            if inserting {
                twin.insert(&facts)
            } else {
                twin.retract(&facts)
            }
        });
        if let Err(e) = done {
            self.notes.push(format!("in-memory twin: {e}"));
        }
    }

    fn full_eval(&mut self, req: u64) {
        let opts = EvalOptions::default();
        let (program, db, engine) = (&self.wl.program, self.twin.database(), self.wl.engine);
        let result = self
            .tr
            .time("engine.full_eval", None, req, || match engine {
                Engine::Inflationary => inflationary_with(program, db, &opts),
                _ => stratified_eval_with(program, db, &opts),
            });
        match result {
            Ok((model, trace)) => {
                self.tr.count("engine.rounds", req, trace.rounds as f64);
                if model.total_tuples() != self.twin.interp().total_tuples() {
                    self.notes
                        .push("from-scratch evaluation disagrees with the twin".to_string());
                }
            }
            Err(e) => self.notes.push(format!("from-scratch evaluation: {e}")),
        }
    }
}

pub fn run(wl: &Workload, args: &Args) -> Result<Report, String> {
    wl.dist_oracle();
    let work = WorkDir::new(&format!("{}-trace", wl.kind.name()))?;
    println!("store_fs: {}", host::filesystem_of(work.path()));
    let dopts = durable_opts(wl);
    let mopts = MaterializeOpts {
        engine: wl.engine,
        eval: EvalOptions::default(),
    };
    let mut tr = Tracer::new();
    let err = |what: &str| {
        let what = what.to_string();
        move |e: inflog_eval::EvalError| format!("{what}: {e}")
    };

    let mut built = None;
    let dir = work.path().join("store");
    for i in 0..SETUP_REPS {
        drop(built.take());
        let _ = std::fs::remove_dir_all(&dir);
        let req = i as u64;
        let root = tr.begin("setup", None, req);
        let twin = tr
            .time("setup.eval", Some(root), req, || {
                Materialized::new(&wl.program, &wl.db, &mopts)
            })
            .map_err(err("Materialized::new"))?;
        let dm = tr
            .time("setup.create", Some(root), req, || {
                DurableMaterialized::create(&wl.program, &wl.db, &dir, &dopts)
            })
            .map_err(err("DurableMaterialized::create"))?;
        let cell = tr
            .time("setup.publish", Some(root), req, || {
                dm.publish().map(EpochCell::new)
            })
            .map_err(err("publish"))?;
        tr.end(root);
        built = Some((twin, dm, cell));
    }
    let (twin, dm, cell) = built.expect("at least one set-up");
    let mut replay = Replay {
        wl,
        tr,
        dm,
        twin,
        cell,
        next_request: SETUP_REPS as u64,
        tally: Tally::default(),
        notes: Vec::new(),
    };

    let ledger = Ledger::new();
    let mut checkers: Vec<Checker<'_>> =
        (0..wl.clients).map(|_| Checker::new(wl, &ledger)).collect();
    let mut streams: Vec<_> = (0..wl.clients).map(|c| wl.stream(c)).collect();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        let rounds: Vec<Vec<Op>> = streams.iter_mut().map(|s| wl.round(s)).collect();
        let mut evaluated = vec![false; wl.clients];
        let longest = rounds.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (c, ops) in rounds.iter().enumerate() {
                let Some(op) = ops.get(i) else { continue };
                let full_eval = matches!(op, Op::Retract(_)) && !evaluated[c];
                evaluated[c] |= full_eval;
                replay.request(&mut checkers[c], op, full_eval);
            }
        }
    }

    // Finish: compact, then the recovery tail, through a fresh client view.
    let mut finish = Checker::new(wl, &ledger);
    replay.request(&mut finish, &Op::Compact, false);
    let wal = replay.dm.dir().join("wal.bin");
    let wal_compacted = std::fs::metadata(&wal).map_or(0, |m| m.len());
    let tail = wl.tail();
    for op in &tail {
        replay.request(&mut finish, op, false);
    }
    let wal_bytes = std::fs::metadata(&wal).map_or(0, |m| m.len());
    let last = ledger.head();
    let key = ledger
        .key_at(last, LEDGER_WAIT)
        .ok_or("the final epoch is not in the ledger")?;
    let Replay {
        mut tr,
        dm,
        twin,
        cell,
        tally,
        mut notes,
        ..
    } = replay;
    if let Err(e) = check_model(wl, &cell.pin(), &key) {
        notes.push(format!("final model: {e}"));
    }
    drop((dm, twin, cell));

    for i in 0..RECOVER_REPS {
        let req = u64::MAX - i as u64;
        let root = tr.begin("recover", None, req);
        let dm = tr
            .time("recover.open", Some(root), req, || {
                DurableMaterialized::open(&wl.program, &dir, &dopts)
            })
            .map_err(err("DurableMaterialized::open"))?;
        let epoch = tr
            .time("recover.publish", Some(root), req, || dm.publish())
            .map_err(err("publish"))?;
        tr.end(root);
        tr.count(
            "recover.records",
            req,
            (dm.epoch() - dm.snapshot_epoch()) as f64,
        );
        if epoch.number() != last {
            notes.push(format!(
                "recovered epoch {}, last acknowledged {last}",
                epoch.number()
            ));
        }
        if i == 0 {
            if let Err(e) = check_model(wl, &epoch, &key) {
                notes.push(format!("recovered model: {e}"));
            }
        }
    }

    let spans = host::work_root().join(format!("spans-{}.tsv", wl.kind.name()));
    tr.write(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!(
        "spans: {} spans, {} counts -> {}",
        tr.spans.len(),
        tr.counts.len(),
        spans.display()
    );
    crate::live::print_counts(&tally.attempted, &tally.failed);

    let mut report = Report {
        correct: tally.wrong == 0 && notes.is_empty(),
        attempted: tally.total_attempted(),
        failed: tally.total_failed(),
        ..Report::default()
    };
    report.notes = notes;
    report.notes.extend(tally.notes);
    for (metric, span, scale, unit) in [
        ("proto.parse_us", "proto.parse", 1e6, "us"),
        ("proto.render_us", "proto.render", 1e6, "us"),
        ("server.pin_us", "server.pin", 1e6, "us"),
        ("epoch.select_us", "epoch.select", 1e6, "us"),
        ("materialize.publish_us", "materialize.publish", 1e6, "us"),
        ("epoch.swap_us", "epoch.swap", 1e6, "us"),
        ("durable.apply_insert_us", "durable.apply_insert", 1e6, "us"),
        (
            "durable.apply_retract_us",
            "durable.apply_retract",
            1e6,
            "us",
        ),
        (
            "materialize.repair_insert_us",
            "materialize.repair_insert",
            1e6,
            "us",
        ),
        (
            "materialize.repair_retract_us",
            "materialize.repair_retract",
            1e6,
            "us",
        ),
        ("engine.full_eval_ms", "engine.full_eval", 1e3, "ms"),
        ("recover.open_ms", "recover.open", 1e3, "ms"),
        ("recover.publish_ms", "recover.publish", 1e3, "ms"),
        ("setup.eval_ms", "setup.eval", 1e3, "ms"),
        ("setup.create_ms", "setup.create", 1e3, "ms"),
        ("setup.publish_ms", "setup.publish", 1e3, "ms"),
    ] {
        let d = tr.durations(span);
        report.metric(metric, median(&d) * scale, unit);
        println!(
            "layer {metric}: n={} median={:.3}{unit}",
            d.len(),
            median(&d) * scale
        );
    }
    for name in [
        "epoch.answer_tuples",
        "epoch.model_tuples",
        "engine.rounds",
        "recover.records",
    ] {
        report.metric(name, median(&tr.counted(name)), "count");
    }
    let per_write = (wal_bytes - wal_compacted) as f64 / tail.len() as f64;
    report.metric("store.bytes_per_write", per_write, "bytes");
    Ok(report)
}
