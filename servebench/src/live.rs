//! The untraced run: end-to-end metrics through `Server` and
//! `serve_session`.
//!
//! A run is [`SEGMENTS`] segments, each a fresh child process of this binary
//! that serves its own store for a third of `--seconds`; each segment times
//! recovery in a fresh process of its own, as after a restart. The parent
//! pools the segments' latency samples for medians, takes the median of the
//! segments' tails, the medians of their set-up and recovery repetitions,
//! and the lowest of their peak RSS. Measured on the
//! reference host, one long-lived process drifts: after a 30 s load its heap
//! made `Server::open` up to 20 % slower or faster from run to run and moved
//! its peak RSS by up to 40 %; and every process has its own speed, which
//! three processes average out.

use crate::host::{self, WorkDir};
use crate::oracle::{check_model, Ledger, LEDGER_WAIT};
use crate::session::{run_client, Plan, Tally};
use crate::stats::{median, percentile, rung_label, Summary, READ_CEILING_BP, WRITE_CEILING_BP};
use crate::workload::{Op, ReqKind, Workload};
use crate::{Args, Report};
use inflog_serve::{ServeOptions, Server};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Child processes per run.
pub const SEGMENTS: u64 = 3;

/// `setup_s` and `recover_s` are medians of repetitions: in each segment at
/// least `MIN_REPS`, and more while the repetitions have taken less than
/// `REPS_SECONDS`, up to `MAX_REPS`.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 41;
const REPS_SECONDS: f64 = 0.6;

fn more_reps(samples: &[f64]) -> bool {
    samples.len() < MIN_REPS
        || (samples.len() < MAX_REPS && samples.iter().sum::<f64>() < REPS_SECONDS)
}

/// The request stream seed of segment `index` of a run with `seed`.
pub fn segment_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(100).wrapping_add(index)
}

/// What one segment measured, as it travels from child to parent.
#[derive(Debug, Default)]
struct Segment {
    setup: Vec<f64>,
    recover: Vec<f64>,
    /// Latencies (µs) of the load's queries, inserts and retracts.
    samples: [Vec<f64>; 3],
    attempted: [u64; 4],
    failed: [u64; 4],
    wrong: u64,
    load_s: f64,
    completed: u64,
    rss_mib: f64,
    store_bytes: u64,
    notes: Vec<String>,
}

impl Segment {
    /// The lines a child prints for its parent.
    fn render(&self) -> String {
        let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        let counts = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        let mut out = format!(
            "segment setup {}\nsegment recover {}\n",
            join(&self.setup),
            join(&self.recover)
        );
        for (k, s) in self.samples.iter().enumerate() {
            out += &format!("segment samples{k} {}\n", join(s));
        }
        out += &format!(
            "segment attempted {}\nsegment failed {}\nsegment wrong {}\n",
            counts(&self.attempted),
            counts(&self.failed),
            self.wrong
        );
        out += &format!(
            "segment load {} {}\nsegment rss_mib {}\nsegment store_bytes {}\n",
            self.load_s, self.completed, self.rss_mib, self.store_bytes
        );
        for n in &self.notes {
            out += &format!("segment note {n}\n");
        }
        out
    }

    fn parse(out: &str) -> Result<Segment, String> {
        let mut s = Segment::default();
        for line in out.lines() {
            let Some(rest) = line.strip_prefix("segment ") else {
                continue;
            };
            let bad = || format!("malformed segment line {line:?}");
            let (key, values) = rest.split_once(' ').unwrap_or((rest, ""));
            if key == "note" {
                s.notes.push(values.to_string());
                continue;
            }
            let nums: Vec<f64> = values
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| bad())?;
            let one = || nums.first().copied().ok_or_else(bad);
            let four = || -> Result<[u64; 4], String> {
                let v: Vec<u64> = nums.iter().map(|&x| x as u64).collect();
                v.try_into().map_err(|_| bad())
            };
            match key {
                "setup" => s.setup = nums.clone(),
                "recover" => s.recover = nums.clone(),
                "samples0" => s.samples[0] = nums.clone(),
                "samples1" => s.samples[1] = nums.clone(),
                "samples2" => s.samples[2] = nums.clone(),
                "attempted" => s.attempted = four()?,
                "failed" => s.failed = four()?,
                "wrong" => s.wrong = one()? as u64,
                "load" => match nums[..] {
                    [secs, completed] => (s.load_s, s.completed) = (secs, completed as u64),
                    _ => return Err(bad()),
                },
                "rss_mib" => s.rss_mib = one()?,
                "store_bytes" => s.store_bytes = one()? as u64,
                _ => return Err(bad()),
            }
        }
        if s.setup.is_empty() || s.recover.is_empty() || s.load_s <= 0.0 {
            return Err("segment output is incomplete".to_string());
        }
        Ok(s)
    }
}

/// The parent: runs the segments one after another and reports.
pub fn run(wl: &Workload, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let per_segment = args.seconds.div_ceil(SEGMENTS).max(1);
    let mut segments = Vec::new();
    for i in 0..SEGMENTS {
        let out = Command::new(&exe)
            .args(["--workload", wl.kind.name()])
            .args(["--seed", &segment_seed(args.seed, i).to_string()])
            .args(["--seconds", &per_segment.to_string()])
            .args(["--trace", "0", "--segment", &i.to_string()])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("segment {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "segment {i} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        if i == 0 {
            if let Some(fs) = stdout.lines().find(|l| l.starts_with("store_fs: ")) {
                println!("{fs}");
            }
        }
        let seg = Segment::parse(&stdout).map_err(|e| format!("segment {i}: {e}"))?;
        println!(
            "segment {i}: seed {} load {:.3}s, setup median {:.4}s of {}, recover median {:.4}s of {}, peak rss {:.2} MiB",
            segment_seed(args.seed, i),
            seg.load_s,
            median(&seg.setup),
            seg.setup.len(),
            median(&seg.recover),
            seg.recover.len(),
            seg.rss_mib
        );
        segments.push(seg);
    }

    let mut all = Segment::default();
    for seg in &segments {
        all.setup.extend_from_slice(&seg.setup);
        all.recover.extend_from_slice(&seg.recover);
        for k in 0..3 {
            all.samples[k].extend_from_slice(&seg.samples[k]);
        }
        for k in 0..4 {
            all.attempted[k] += seg.attempted[k];
            all.failed[k] += seg.failed[k];
        }
        all.wrong += seg.wrong;
        all.load_s += seg.load_s;
        all.completed += seg.completed;
        all.notes.extend(seg.notes.iter().cloned());
    }
    print_counts(&all.attempted, &all.failed);

    let mut report = Report {
        correct: all.wrong == 0 && all.notes.is_empty(),
        attempted: all.attempted.iter().sum(),
        failed: all.failed.iter().sum(),
        notes: all.notes.clone(),
        ..Report::default()
    };
    report.metric("setup_s", median(&all.setup), "s");
    for (k, kind) in [ReqKind::Query, ReqKind::Insert, ReqKind::Retract]
        .into_iter()
        .enumerate()
    {
        // The rung comes from the pooled count; the value is the median of
        // the segments' percentiles at that rung, so a slow spell of the
        // shared disk or CPU inside one segment does not move it.
        let ceiling = match kind {
            ReqKind::Query => READ_CEILING_BP,
            _ => WRITE_CEILING_BP,
        };
        let s = Summary::of(&all.samples[k], ceiling);
        let per_segment: Vec<f64> = segments
            .iter()
            .map(|seg| {
                let mut v = seg.samples[k].clone();
                v.sort_by(f64::total_cmp);
                if v.is_empty() {
                    f64::NAN
                } else {
                    percentile(&v, s.tail_bp)
                }
            })
            .collect();
        let tail = median(&per_segment);
        let mut sorted = all.samples[k].clone();
        sorted.sort_by(f64::total_cmp);
        let profile: Vec<String> = [9000, 9900, 9990]
            .iter()
            .filter(|_| !sorted.is_empty())
            .map(|&bp| format!("{}={:.0}", rung_label(bp), percentile(&sorted, bp)))
            .collect();
        let per_segment: Vec<String> = per_segment.iter().map(|t| format!("{t:.0}")).collect();
        println!(
            "latency {}: n={} p50={:.1}us tail={}={:.1}us (segments {}; pooled {} max={:.0})",
            kind.name(),
            s.n,
            s.p50,
            rung_label(s.tail_bp),
            tail,
            per_segment.join(" "),
            profile.join(" "),
            sorted.last().copied().unwrap_or(f64::NAN)
        );
        report.metric(&format!("{}_p50_us", kind.name()), s.p50, "us");
        report.metric(&format!("{}_tail_us", kind.name()), tail, "us");
    }
    report.metric("ops_per_s", all.completed as f64 / all.load_s, "1/s");
    report.metric("recover_s", median(&all.recover), "s");
    // The lowest segment peak: a segment's VmHWM moves by up to 40 % between
    // identical runs (same seed and segment) with where glibc's arenas leave
    // freed memory, while its floor is what the serving state needs.
    let rss = segments
        .iter()
        .map(|s| s.rss_mib)
        .fold(f64::INFINITY, f64::min);
    report.metric("peak_rss_mb", rss, "MiB");
    let bytes: Vec<f64> = segments.iter().map(|s| s.store_bytes as f64).collect();
    report.metric("store_bytes", median(&bytes), "bytes");
    println!(
        "load: {:.3}s over {SEGMENTS} segments, {} requests completed",
        all.load_s, all.completed
    );
    Ok(report)
}

/// One segment, in a child process: set-up, load, finish and recovery on a
/// store of its own. Prints its raw measurements for the parent.
pub fn segment(wl: &Workload, args: &Args) -> Result<(), String> {
    wl.dist_oracle();
    let work = WorkDir::new(wl.kind.name())?;
    println!("store_fs: {}", host::filesystem_of(work.path()));
    let mut opts = ServeOptions::quiet();
    opts.engine = wl.engine;
    let mut seg = Segment::default();

    // Set-up: Server::create on a fresh directory to the first served epoch.
    let mut kept: Option<(Server, std::path::PathBuf)> = None;
    while more_reps(&seg.setup) {
        if let Some((server, dir)) = kept.take() {
            drop(server);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.path().join(format!("store-{}", seg.setup.len()));
        let start = Instant::now();
        let server = Server::create(&wl.program, &wl.db, &dir, &opts)
            .map_err(|e| format!("Server::create: {e}"))?;
        let first = server.pin();
        seg.setup.push(start.elapsed().as_secs_f64());
        if first.number() != 0 {
            return Err(format!("a new store served epoch {}", first.number()));
        }
        drop(first);
        kept = Some((server, dir));
    }
    let (server, dir) = kept.expect("at least one set-up");

    // The load: closed-loop clients, whole rounds until the deadline.
    let ledger = Ledger::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let results: Vec<(Tally, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..wl.clients)
            .map(|c| {
                let (server, ledger) = (&server, &ledger);
                let plan = Plan::Timed {
                    stream: wl.stream(c),
                    deadline,
                };
                s.spawn(move || run_client(server, wl, ledger, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = results.iter().map(|(_, done)| *done).max().unwrap_or(start);
    seg.load_s = (end - start).as_secs_f64();
    let mut tally = Tally::default();
    for (t, _) in results {
        tally.merge(t);
    }
    seg.completed = tally.total_attempted() - tally.total_failed();
    for (k, kind) in [ReqKind::Query, ReqKind::Insert, ReqKind::Retract]
        .into_iter()
        .enumerate()
    {
        seg.samples[k] = std::mem::take(&mut tally.samples[kind as usize]);
    }

    // Finish: compact, then the fixed recovery tail.
    let mut script = vec![Op::Compact];
    script.extend(wl.tail());
    let (finish, _) = run_client(&server, wl, &ledger, Plan::Script(script));
    tally.merge(finish);
    let last = ledger.head();
    let final_key = ledger
        .key_at(last, LEDGER_WAIT)
        .ok_or("the final epoch is not in the ledger")?;
    let final_epoch = server.pin();
    if final_epoch.number() != last {
        seg.notes.push(format!(
            "serving epoch {} after the last acknowledged {last}",
            final_epoch.number()
        ));
    }
    if let Err(e) = check_model(wl, &final_epoch, &final_key) {
        seg.notes.push(format!("final model: {e}"));
    }
    drop(final_epoch);
    drop(server);
    seg.store_bytes = host::dir_bytes(&dir);
    seg.rss_mib = host::peak_rss_mib().ok_or("cannot read VmHWM")?;

    // Recovery: Server::open on the finished store to the first served
    // epoch, timed in a fresh process as after a restart; then once more
    // here, untimed, to check the recovered model.
    let out = Command::new(std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?)
        .args(["--workload", wl.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--recover"])
        .arg(&dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("recovery process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "recovery process exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let recovered: Vec<u64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("recovered_epochs "))
        .map(|v| {
            v.split_whitespace()
                .filter_map(|n| n.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    seg.recover = stdout
        .lines()
        .find_map(|l| l.strip_prefix("recover_s "))
        .map(|v| {
            v.split_whitespace()
                .filter_map(|n| n.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if recovered.len() != seg.recover.len() || recovered.iter().any(|&e| e != last) {
        seg.notes.push(format!(
            "recovered epochs {recovered:?}, last acknowledged {last}"
        ));
    }
    let server =
        Server::open(&wl.program, &dir, &opts).map_err(|e| format!("Server::open: {e}"))?;
    if let Err(e) = check_model(wl, &server.pin(), &final_key) {
        seg.notes.push(format!("recovered model: {e}"));
    }
    drop(server);

    seg.attempted = tally.attempted;
    seg.failed = tally.failed;
    seg.wrong = tally.wrong;
    seg.notes.extend(tally.notes);
    print!("{}", seg.render());
    Ok(())
}

/// The recovery process: repeated `Server::open` on the finished store in
/// `dir`, each to its first served epoch. Prints the times and the epochs.
pub fn recover(wl: &Workload, dir: &Path) -> Result<(), String> {
    let mut opts = ServeOptions::quiet();
    opts.engine = wl.engine;
    let (mut times, mut epochs) = (Vec::new(), Vec::new());
    while more_reps(&times) {
        let start = Instant::now();
        let server =
            Server::open(&wl.program, dir, &opts).map_err(|e| format!("Server::open: {e}"))?;
        let epoch = server.pin();
        times.push(start.elapsed().as_secs_f64());
        epochs.push(epoch.number().to_string());
    }
    let times: Vec<String> = times.iter().map(f64::to_string).collect();
    println!("recover_s {}", times.join(" "));
    println!("recovered_epochs {}", epochs.join(" "));
    Ok(())
}

/// Prints attempted and failed requests per kind.
pub fn print_counts(attempted: &[u64; 4], failed: &[u64; 4]) {
    let per_kind: Vec<String> = ReqKind::ALL
        .iter()
        .map(|&k| {
            let i = k as usize;
            format!("{}={}/{}", k.name(), attempted[i], failed[i])
        })
        .collect();
    println!("requests (attempted/failed): {}", per_kind.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_lines_round_trip() {
        let seg = Segment {
            setup: vec![0.031, 0.0305],
            recover: vec![0.25],
            samples: [vec![150.5, 170.25], vec![1000.0], vec![1200.125]],
            attempted: [2, 1, 1, 1],
            failed: [0, 0, 0, 0],
            wrong: 0,
            load_s: 10.0625,
            completed: 4,
            rss_mib: 12.5,
            store_bytes: 465_738,
            notes: vec!["a note".to_string()],
        };
        let text = seg.render() + "unrelated line\n";
        let back = Segment::parse(&text).unwrap();
        assert_eq!(back.setup, seg.setup);
        assert_eq!(back.samples, seg.samples);
        assert_eq!(back.attempted, seg.attempted);
        assert_eq!((back.load_s, back.completed), (10.0625, 4));
        assert_eq!(back.store_bytes, seg.store_bytes);
        assert_eq!(back.notes, seg.notes);
        assert!(Segment::parse("segment load 1\n").is_err());
    }
}
