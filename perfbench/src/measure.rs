//! Pure measurement helpers: percentiles, failure accounting and the
//! open-loop backlog-growth check. Kept free of engine types so their
//! self-tests run without setting up a workload.

use std::time::Duration;

/// Nearest-rank percentile `q ∈ [0, 1]` of `samples`. Failed operations
/// are recorded as `f64::INFINITY`, so they sort last and count as
/// missing every latency limit. Returns `NaN` for an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (nearest rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Percentile `q` of each of `windows` consecutive windows, from
/// `(window, sample)` pairs. Windows without samples are left out.
pub fn window_percentiles(samples: &[(usize, f64)], windows: usize, q: f64) -> Vec<f64> {
    (0..windows)
        .map(|w| {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|(i, _)| *i == w)
                .map(|(_, x)| *x)
                .collect();
            percentile(&xs, q)
        })
        .filter(|p| !p.is_nan())
        .collect()
}

/// The window of sample `i` of `n` when `n` samples are split into
/// `windows` consecutive windows of (near) equal size.
pub fn window_of(i: usize, n: usize, windows: usize) -> usize {
    i * windows / n.max(1)
}

/// Attempted operations, failed operations and named pass/fail gates of
/// one run. `commit_fail_frac = (failed transactions + failed gates) /
/// transactions attempted`.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    txn_failed: u64,
    gates: Vec<(&'static str, bool)>,
}

impl Tally {
    /// Record one updater transaction.
    pub fn txn(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.txn_failed += 1;
        }
    }

    /// Record one named check.
    pub fn gate(&mut self, name: &'static str, ok: bool) {
        self.gates.push((name, ok));
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn txn_failed(&self) -> u64 {
        self.txn_failed
    }

    pub fn gates(&self) -> &[(&'static str, bool)] {
        &self.gates
    }

    /// Failed transactions plus failed gates.
    pub fn failed(&self) -> u64 {
        self.txn_failed + self.gates.iter().filter(|(_, ok)| !ok).count() as u64
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// True when every gate whose name is in `names` passed (a gate that
    /// was never recorded counts as failed).
    pub fn passed_all(&self, names: &[&str]) -> bool {
        names
            .iter()
            .all(|n| self.gates.iter().any(|(g, ok)| g == n && *ok))
    }
}

/// Mean open-loop backlog (commits returned but not yet visible in the
/// view) over the first and the last tenth of a phase of length `phase`,
/// from `(offset into the phase, backlog)` samples.
pub fn backlog_tenths(samples: &[(Duration, usize)], phase: Duration) -> (f64, f64) {
    let tenth = phase / 10;
    let mean_in = |lo: Duration, hi: Duration| {
        let xs: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|(_, b)| *b as f64)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    (
        mean_in(Duration::ZERO, tenth),
        mean_in(phase.saturating_sub(tenth), phase + tenth),
    )
}

/// The open-loop validity rule: a run measured an overloaded rate, not
/// the program, when its backlog grew from the first to the last tenth of
/// the steady phase by more than half again plus `slack` commits (the
/// slack absorbs the saw-tooth a periodic apply driver leaves).
pub fn backlog_grew(first: f64, last: f64, slack: f64) -> bool {
    last > first * 1.5 + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_miss_every_limit() {
        // 2 failures in 100: p99 lands on a failure, p50 does not.
        let mut xs: Vec<f64> = (1..=98).map(f64::from).collect();
        xs.extend([f64::INFINITY, f64::INFINITY]);
        assert!(percentile(&xs, 0.99).is_infinite());
        assert_eq!(percentile(&xs, 0.5), 50.0);
    }

    #[test]
    fn windowed_percentiles_take_each_window_alone() {
        let n = 1000;
        // Window 3 of 5 holds a stall: its p99 is high, the median of the
        // five window p99s is not.
        let samples: Vec<(usize, f64)> = (0..n)
            .map(|i| {
                let w = window_of(i, n, 5);
                let stalled = w == 3 && i % 200 < 10;
                (w, if stalled { 1000.0 } else { (i % 200) as f64 })
            })
            .collect();
        let p99s = window_percentiles(&samples, 5, 0.99);
        assert_eq!(p99s.len(), 5);
        assert_eq!(p99s[3], 1000.0);
        assert_eq!(p99s[0], 197.0);
        assert_eq!(median(&p99s), 197.0);
        assert_eq!(window_of(0, n, 5), 0);
        assert_eq!(window_of(199, n, 5), 0);
        assert_eq!(window_of(200, n, 5), 1);
        assert_eq!(window_of(999, n, 5), 4);
        // An empty window is skipped, not reported as NaN.
        assert_eq!(window_percentiles(&[(0, 1.0)], 2, 0.5), vec![1.0]);
    }

    #[test]
    fn tally_counts_failed_txns_and_gates() {
        let mut t = Tally::default();
        for i in 0..10 {
            t.txn(i != 3);
        }
        t.gate("oracle", true);
        t.gate("recovery", false);
        assert_eq!(t.attempted(), 10);
        assert_eq!(t.txn_failed(), 1);
        assert_eq!(t.failed(), 2);
        assert!((t.fail_frac() - 0.2).abs() < 1e-12);
        assert!(t.passed_all(&["oracle"]));
        assert!(!t.passed_all(&["oracle", "recovery"]));
        assert!(!t.passed_all(&["never-run"]));
    }

    #[test]
    fn tally_with_nothing_attempted_is_not_nan() {
        let mut t = Tally::default();
        t.gate("g", false);
        assert_eq!(t.fail_frac(), 1.0);
    }

    #[test]
    fn backlog_tenths_average_the_ends() {
        let phase = Duration::from_secs(10);
        let samples: Vec<(Duration, usize)> = (0..100)
            .map(|i| (Duration::from_millis(i * 100), i as usize))
            .collect();
        let (first, last) = backlog_tenths(&samples, phase);
        assert_eq!(first, 4.5); // samples 0..=9
        assert_eq!(last, 94.5); // samples 90..=99
    }

    #[test]
    fn backlog_growth_rule() {
        // Flat saw-tooth: not growth.
        assert!(!backlog_grew(10.0, 12.0, 5.0));
        // Within slack of an empty start: not growth.
        assert!(!backlog_grew(0.0, 4.0, 5.0));
        // Steadily rising queue: growth.
        assert!(backlog_grew(10.0, 40.0, 5.0));
        assert!(backlog_grew(0.0, 6.0, 5.0));
    }

    #[test]
    fn growing_queue_is_flagged_end_to_end() {
        let phase = Duration::from_secs(10);
        let rising: Vec<(Duration, usize)> = (0..1000)
            .map(|i| (Duration::from_millis(i * 10), i as usize / 10))
            .collect();
        let (f, l) = backlog_tenths(&rising, phase);
        assert!(backlog_grew(f, l, 5.0));
        let flat: Vec<(Duration, usize)> = (0..1000)
            .map(|i| (Duration::from_millis(i * 10), (i % 7) as usize))
            .collect();
        let (f, l) = backlog_tenths(&flat, phase);
        assert!(!backlog_grew(f, l, 5.0));
    }
}
