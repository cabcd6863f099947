//! Medians and tail percentiles of latency samples.
//!
//! A tail is the highest rung up to a ceiling — p90 for queries, p75 for
//! writes — that keeps at least fifty samples beyond it; below 200 samples
//! it falls back to the median. Percentiles are nearest-rank. Measurements
//! on a shared 2-CPU host with a shared disk set these limits, for a tail
//! that two runs of identical code reproduce within 25 %: p99 moved by 30 %
//! to 115 % between runs; with ten samples beyond it, p90 of `tc_retract`'s
//! 400 inserts jumped between the two modes of the fsync latency (spread
//! 26 %); and the share of slow fsyncs moved p90 of `tc_point`'s 4,000
//! writes by 45 % between runs, while queries, which do not fsync, kept p90
//! within 6 %.

/// Tail rungs in basis points (hundredths of a percent), highest first.
pub const TAIL_RUNGS_BP: [u64; 2] = [9000, 7500];

/// Highest tail rung of requests that wait for no fsync (queries).
pub const READ_CEILING_BP: u64 = 9000;
/// Highest tail rung of requests that wait for a WAL fsync (writes).
pub const WRITE_CEILING_BP: u64 = 7500;

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: u64 = 50;

/// Nearest-rank position (1-based) of percentile `bp` in `n` samples.
fn rank(n: u64, bp: u64) -> u64 {
    (bp * n).div_ceil(10_000).max(1)
}

/// Samples strictly after the nearest-rank position of `bp`.
pub fn beyond(n: u64, bp: u64) -> u64 {
    n - rank(n, bp)
}

/// The tail percentile (in basis points) reported for `n` samples, at most
/// `ceiling`.
pub fn tail_rung(n: u64, ceiling: u64) -> u64 {
    TAIL_RUNGS_BP
        .into_iter()
        .filter(|&bp| bp <= ceiling)
        .find(|&bp| beyond(n, bp) >= MIN_BEYOND)
        .unwrap_or(5000)
}

/// Nearest-rank percentile `bp` of ascending `sorted`.
pub fn percentile(sorted: &[f64], bp: u64) -> f64 {
    sorted[(rank(sorted.len() as u64, bp) - 1) as usize]
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and tail rung of one request kind's latencies.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: u64,
    pub p50: f64,
    pub tail_bp: u64,
}

impl Summary {
    pub fn of(samples: &[f64], ceiling: u64) -> Summary {
        let n = samples.len() as u64;
        Summary {
            n,
            p50: median(samples),
            tail_bp: tail_rung(n, ceiling),
        }
    }
}

/// `p99.9`-style label of a rung.
pub fn rung_label(bp: u64) -> String {
    let pct = bp as f64 / 100.0;
    format!("p{pct}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_fifty_samples_beyond_it() {
        // Sample counts a 30 s run produces (tc_retract inserts and
        // retracts ~400 and queries ~800, dist_infl writes ~2,700 and
        // queries ~5,400, tc_point writes ~4,300 and queries ~80,000) and
        // the rung boundaries.
        for (n, bp) in [
            (199, 5000),
            (200, 7500),
            (400, 7500),
            (499, 7500),
            (500, 9000),
            (800, 9000),
            (2_700, 9000),
            (80_000, 9000),
        ] {
            assert_eq!(tail_rung(n, READ_CEILING_BP), bp, "n = {n}");
            assert_eq!(tail_rung(n, WRITE_CEILING_BP), bp.min(7500), "n = {n}");
            if bp != 5000 {
                assert!(beyond(n, bp) >= MIN_BEYOND, "n = {n}");
            }
            // The next rung up would leave fewer than fifty beyond.
            if let Some(&higher) = TAIL_RUNGS_BP.iter().rev().find(|&&r| r > bp) {
                assert!(beyond(n, higher) < MIN_BEYOND, "n = {n}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = Summary::of(&v, READ_CEILING_BP);
        assert_eq!(s.tail_bp, 9000);
        let tail = percentile(&v, s.tail_bp);
        assert_eq!(tail, 450.0);
        assert_eq!(v.iter().filter(|&&x| x > tail).count(), 50);
        assert_eq!(percentile(&v, 9900), 495.0);
        assert_eq!(s.p50, 250.5);
        assert_eq!(rung_label(9990), "p99.9");
    }
}
