//! servebench — the inflog serving benchmark. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <tc_point|tc_retract|dist_infl> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). An untraced run starts this binary again
//! with `--segment <i>` for each of its segments, and each segment once more
//! with `--recover <store>` to time recovery in a fresh process (see `live`).

mod host;
mod live;
mod oracle;
mod session;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::{Kind, Workload};

const USAGE: &str = "usage: servebench --workload <tc_point|tc_retract|dist_infl> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Set in the child processes of an untraced run (see `live`).
    pub segment: Option<u64>,
    /// Set in a segment's recovery process: the store to recover.
    pub recover: Option<std::path::PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut segment, mut recover) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--segment" => segment = Some(number()?),
            "--recover" => recover = Some(std::path::PathBuf::from(&value)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        segment,
        recover,
    })
}

/// What a run prints last.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Failures and oracle rejections worth reading.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::guard() {
        eprintln!("servebench: refusing to measure: {e}");
        return ExitCode::from(2);
    }
    println!(
        "servebench: workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} eval_threads={} durability=sync commit={}",
        host::nproc(),
        inflog_eval::EvalOptions::default().effective_threads(),
        host::commit()
    );
    let wl = Workload::build(args.kind, args.seed);
    let result = if args.trace {
        trace::run(&wl, &args)
    } else if args.segment.is_some() || args.recover.is_some() {
        let child = match &args.recover {
            Some(dir) => live::recover(&wl, dir),
            None => live::segment(&wl, &args),
        };
        return match child {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::from(1)
            }
        };
    } else {
        live::run(&wl, &args)
    };
    match result {
        Ok(mut report) => {
            if report
                .metrics
                .iter()
                .any(|(_, v, _)| !v.is_finite() || *v <= 0.0)
            {
                report.correct = false;
                report
                    .notes
                    .push("a metric is not a positive number".to_string());
            }
            for note in &report.notes {
                println!("note: {note}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload dist_infl --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.kind, Kind::DistInfl);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload tc_point --seed 1 --trace 2 --seconds 1").is_err());
        assert!(args("--workload tc_point --seconds 1").is_err());
    }

    #[test]
    fn json_has_exactly_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
