//! Steady-state end-to-end benchmark of asynchronous view maintenance.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload star-skew --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets the system up (schema, load, indexes, materialization,
//! background drivers), drives a single open-loop updater at the
//! workload's fixed rate, commits a backlog while propagation and apply
//! are suspended and times the catch-up, then recovers a second engine
//! from the run's WAL. `--trace 0` prints the end-to-end metrics of that
//! run; `--trace 1` makes the same timed run for the counters, then a
//! traced run of the same workload and seed for the per-layer times, and
//! prints the per-layer metrics. Every run checks its outputs. The last
//! line of standard output is one JSON object.

mod drivers;
mod measure;
mod run;
mod trace;
mod workloads;

use measure::{median, percentile, window_percentiles};
use run::{RunOut, OUTPUT_GATES};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <star-skew|churn-cancel|chain-all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `(name, value, unit)` of one reported metric.
type Metric = (&'static str, f64, &'static str);

fn json_number(v: f64) -> String {
    // A latency made infinite by failed transactions still has to be a
    // JSON number; the run's `failed` count says why.
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set of this process (`VmHWM`), MB.
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn print_config(a: &Args, steady: usize) {
    let w = &a.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = run::tuning(false);
    println!("workload {} seed {} seconds {}", w.name, a.seed, a.seconds);
    println!("  sizes: {}", w.sizes);
    println!(
        "  open loop, 1 generator thread: rate {}/s, {:?} warm-up, {steady} steady txns in {} \
         windows, {} catch-up rounds of {} txns",
        w.rate,
        run::WARMUP,
        run::WINDOWS,
        run::CATCHUP_ROUNDS,
        w.backlog
    );
    println!(
        "  tuning: ExecTuning::default() (workers {}, probe_scan_ratio {}, delta_probe_ratio {}) \
         + CompactionPolicy::Background({}) + ObsConfig::Metrics (Full in the traced run)",
        t.workers,
        t.probe_scan_ratio,
        t.delta_probe_ratio,
        run::COMPACT_THRESHOLD
    );
    println!(
        "  interval policy TargetRows({}); periods: capture {:?} x {} records, propagate idle {:?}, \
         apply {:?}, compaction {:?}; poll slice {:?}",
        drivers::TARGET_ROWS,
        drivers::CAPTURE_POLL,
        drivers::CAPTURE_MAX_RECORDS,
        drivers::PROPAGATE_IDLE,
        drivers::APPLY_PERIOD,
        drivers::COMPACT_PERIOD,
        run::POLL_SLICE
    );
    println!("  WAL: in-memory byte buffer, no fsync; nproc {nproc}");
}

fn print_gates(label: &str, r: &RunOut) {
    let gates: Vec<String> = r
        .tally
        .gates()
        .iter()
        .map(|(g, ok)| format!("{g}={}", if *ok { "ok" } else { "FAIL" }))
        .collect();
    println!("  [{label}] gates: {}", gates.join(" "));
    if let Some(e) = &r.driver_error {
        println!("  [{label}] a driver ended with: {e}");
    }
    println!(
        "  [{label}] backlog first/last tenth {:.1}/{:.1} commits, at end {}; \
         generator late p99 {:.3} ms",
        r.backlog_first,
        r.backlog_last,
        r.backlog_end,
        percentile(&r.late_ms, 0.99)
    );
}

/// Median over the steady-phase windows of the per-window percentile.
fn windowed(samples: &[(usize, f64)], q: f64) -> f64 {
    median(&window_percentiles(samples, run::WINDOWS, q))
}

/// Catch-up throughput of each round, commits per second.
fn catchup_rates(r: &RunOut) -> Vec<f64> {
    r.catchup
        .iter()
        .map(|c| c.commits as f64 / c.secs)
        .collect()
}

fn catchup_secs(r: &RunOut) -> f64 {
    r.catchup.iter().map(|c| c.secs).sum()
}

/// Backlog commits over catch-up time, summed over the rounds.
fn catchup_rate(r: &RunOut) -> f64 {
    (r.commits - r.steady_commits) as f64 / catchup_secs(r)
}

/// Process CPU time per backlog commit during catch-up, summed over the
/// rounds: the pipeline's work per update, free of the host's CPU steal.
fn catchup_cpu_us(r: &RunOut) -> f64 {
    let cpu: f64 = r.catchup.iter().map(|c| c.cpu_s).sum();
    cpu * 1e6 / (r.commits - r.steady_commits).max(1) as f64
}

fn end_to_end(r: &RunOut) -> Result<Vec<Metric>, String> {
    Ok(vec![
        ("setup_s", median(&r.setup_s), "s"),
        ("commit_p50_us", windowed(&r.commit_us, 0.5), "us"),
        ("visible_p50_ms", windowed(&r.visible_ms, 0.5), "ms"),
        ("visible_p99_ms", windowed(&r.visible_ms, 0.99), "ms"),
        ("rss_peak_mb", rss_peak_mb()?, "MB"),
    ])
}

/// Every sample behind the end-to-end figures, for the human-readable log.
fn print_samples(label: &str, r: &RunOut) {
    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let tails = |xs: &[(usize, f64)]| {
        [0.5, 0.9, 0.95, 0.99, 0.999]
            .iter()
            .map(|q| format!("p{}={:.4}", q * 100.0, windowed(xs, *q)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let by_window = |xs: &[(usize, f64)], q| fmt(&window_percentiles(xs, run::WINDOWS, q));
    println!(
        "  [{label}] commit us n={} (failed {}): window p99 [{}]; median of windows {}",
        r.commit_us.len(),
        r.tally.txn_failed(),
        by_window(&r.commit_us, 0.99),
        tails(&r.commit_us)
    );
    println!(
        "  [{label}] service us n={}: window p99 [{}]; median of windows {}",
        r.service_us.len(),
        by_window(&r.service_us, 0.99),
        tails(&r.service_us)
    );
    println!(
        "  [{label}] visible ms n={}: window p99 [{}]; median of windows {}",
        r.visible_ms.len(),
        by_window(&r.visible_ms, 0.99),
        tails(&r.visible_ms)
    );
    println!(
        "  [{label}] setup s n={} [{}]; catch-up 1/s n={} [{}] ({} commits); recover s n={} [{}] \
         ({:.3} MB of WAL)",
        r.setup_s.len(),
        fmt(&r.setup_s),
        r.catchup.len(),
        fmt(&catchup_rates(r)),
        r.commits - r.steady_commits,
        r.recover_s.len(),
        fmt(&r.recover_s),
        r.wal_bytes_end as f64 / 1e6
    );
}

fn per_layer(timed: &RunOut, traced: &RunOut) -> Vec<Metric> {
    let p = &timed.prop;
    let commits = timed.commits.max(1) as f64;
    let queries = p.total_queries().max(1) as f64;
    let locks = &timed.locks;
    let tr = traced.trace.as_ref().expect("traced run keeps its trace");
    let (lo, _) = tr.window_of("bench.steady").unwrap_or((0, 0));
    let (_, hi) = tr.window_of("bench.catchup").unwrap_or((0, u64::MAX));
    let window_ms = (hi.saturating_sub(lo)) as f64 / 1e6;
    let busy = |name: &str| tr.durations_ms(name, lo, hi, 0).iter().sum::<f64>() / window_ms;
    let steps = tr.durations_ms("bench.rolling_step", lo, hi, trace::STEPPED);
    let empty = tr.count(
        "bench.rolling_step",
        lo,
        hi,
        trace::STEPPED | trace::SKIPPED_EMPTY,
    );
    let rows = tr.layer_rows(lo, hi);
    let self_ms = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_ms)
    };
    vec![
        (
            "storage.txn.lock_wait_p99_us",
            percentile(&timed.lock_wait_us, 0.99),
            "us",
        ),
        (
            "storage.lock.waits",
            (locks.table.waits + locks.stripe.waits) as f64,
            "count",
        ),
        (
            "storage.lock.timeouts",
            (locks.table.timeouts + locks.stripe.timeouts) as f64,
            "count",
        ),
        (
            "storage.lock.table_wait_ms",
            locks.table.wait_nanos as f64 / 1e6,
            "ms",
        ),
        (
            "storage.lock.stripe_wait_ms",
            locks.stripe.wait_nanos as f64 / 1e6,
            "ms",
        ),
        (
            "core.execute.lock_wait_frac",
            p.lock_wait_nanos as f64 / p.query_wall_nanos.max(1) as f64,
            "frac",
        ),
        (
            "relalg.source.rows_read_per_commit",
            p.total_rows_read() as f64 / commits,
            "rows/commit",
        ),
        (
            "relalg.source.delta_probe_rate",
            p.delta_probe_rate(),
            "frac",
        ),
        (
            "storage.delta.postings_mb_end",
            timed.postings_bytes_end as f64 / 1e6,
            "MB",
        ),
        (
            "core.compaction.rows_removed",
            timed.compaction_removed as f64,
            "rows",
        ),
        (
            "relalg.source.scan_compaction_save_rate",
            p.scan_compaction_save_rate(),
            "frac",
        ),
        (
            "storage.delta.store_rows_end",
            timed.store_rows_end as f64,
            "rows",
        ),
        (
            "storage.delta.vd_rows_end",
            timed.vd_rows_end as f64,
            "rows",
        ),
        (
            "core.compaction.busy_frac",
            busy("bench.compact_stores"),
            "frac",
        ),
        (
            "core.compaction.pass_ms_p99",
            percentile(&tr.durations_ms("bench.compact_stores", lo, hi, 0), 0.99),
            "ms",
        ),
        (
            "core.execute.queries_per_commit",
            p.total_queries() as f64 / commits,
            "queries/commit",
        ),
        (
            "core.execute.comp_frac",
            p.comp_queries as f64 / queries,
            "frac",
        ),
        (
            "core.execute.query_ms_mean",
            p.query_wall_nanos as f64 / 1e6 / queries,
            "ms",
        ),
        (
            "core.execute.worker_busy_frac",
            p.worker_busy_nanos as f64 / 1e9 / (timed.window_s * timed.workers as f64),
            "frac",
        ),
        ("core.rolling.steps", steps.len() as f64, "count"),
        ("core.rolling.step_ms_p50", percentile(&steps, 0.5), "ms"),
        ("core.rolling.step_ms_p99", percentile(&steps, 0.99), "ms"),
        ("core.rolling.busy_frac", busy("bench.rolling_step"), "frac"),
        (
            "core.rolling.empty_step_frac",
            empty as f64 / steps.len().max(1) as f64,
            "frac",
        ),
        (
            "core.apply.rolls",
            tr.count("bench.roll_to", lo, hi, 0) as f64,
            "count",
        ),
        (
            "core.apply.roll_ms_p99",
            percentile(&tr.durations_ms("bench.roll_to", lo, hi, 0), 0.99),
            "ms",
        ),
        ("core.apply.busy_frac", busy("bench.roll_to"), "frac"),
        (
            "relalg.exec.vd_rows_per_commit",
            p.vd_rows_written as f64 / commits,
            "rows/commit",
        ),
        ("relalg.source.fetch_self_ms", self_ms("fetch"), "ms"),
        ("relalg.exec.join_self_ms", self_ms("join"), "ms"),
        (
            "core.execute.capture_wait_self_ms",
            self_ms("capture_wait"),
            "ms",
        ),
        ("core.execute.commit_self_ms", self_ms("commit"), "ms"),
        (
            "storage.capture.busy_frac",
            busy("bench.capture_step"),
            "frac",
        ),
        (
            "storage.capture.lag_p99_records",
            percentile(
                &traced
                    .capture_lag
                    .iter()
                    .map(|&l| l as f64)
                    .collect::<Vec<_>>(),
                0.99,
            ),
            "records",
        ),
        (
            "storage.wal.bytes_per_commit",
            timed.wal_bytes_window as f64 / commits,
            "B/commit",
        ),
        ("storage.wal.mb_end", timed.wal_bytes_end as f64 / 1e6, "MB"),
        ("storage.recovery.recover_s", median(&timed.recover_s), "s"),
        ("workload.commits", timed.steady_commits as f64, "count"),
        ("workload.catchup_commits_per_s", catchup_rate(timed), "1/s"),
        (
            "workload.catchup_cpu_us_per_commit",
            catchup_cpu_us(timed),
            "us",
        ),
        (
            "workload.commit_p99_us",
            windowed(&timed.commit_us, 0.99),
            "us",
        ),
        (
            "workload.gen_late_p99_ms",
            percentile(&timed.late_ms, 0.99),
            "ms",
        ),
        ("workload.backlog_end", timed.backlog_end as f64, "commits"),
        (
            "obs.tracing_overhead",
            catchup_secs(traced) / catchup_secs(timed),
            "ratio",
        ),
        ("obs.spans_dropped", tr.dropped as f64, "count"),
    ]
}

/// Write the traced run's Chrome trace and per-layer table under `out/`.
fn write_trace_files(a: &Args, traced: &RunOut) -> Result<String, String> {
    let tr = traced.trace.as_ref().expect("traced run keeps its trace");
    let (lo, _) = tr.window_of("bench.steady").unwrap_or((0, 0));
    let (catchup_lo, hi) = tr.window_of("bench.catchup").unwrap_or((0, u64::MAX));
    let mut table = String::new();
    let _ = writeln!(
        table,
        "per-layer self time, steady + catch-up window ({:.3} s), traced run of {} seed {}",
        hi.saturating_sub(lo) as f64 / 1e9,
        a.workload.name,
        a.seed
    );
    table.push_str(&trace::format_layers(&tr.layer_rows(lo, hi)));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-s{}", a.workload.name, a.seed);
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}-layers.txt"), &table)?;
    write(
        format!("{stem}-trace.json"),
        &tr.chrome_json(catchup_lo, 50_000),
    )?;
    let _ = writeln!(
        table,
        "  [wrote out/{stem}-layers.txt and out/{stem}-trace.json (catch-up phase, at most 50000 spans)]"
    );
    Ok(table)
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for (n, v, u) in metrics {
        println!("  [{label}] {n} = {v:.6} {u}");
    }
}

fn main_inner(a: &Args) -> Result<(), String> {
    let w = &a.workload;
    let steady = (w.rate * a.seconds as f64).round() as usize;
    let inputs = w.generate(a.seed, run::warmup_txns(w) + steady, run::CATCHUP_ROUNDS);
    print_config(a, steady);
    let err = |e: rolljoin_common::Error| e.to_string();
    let timed = run::run(w, &inputs, a.seconds, false).map_err(err)?;
    print_gates("timed", &timed);
    let e2e = end_to_end(&timed)?;
    print_metrics("timed", &e2e);
    print_samples("timed", &timed);
    // Printed, not in the result line (see perfbench/README.md): recovery,
    // the commit p99 and the catch-up figures spread too far from run to
    // run on a shared host, and the failure share is carried by
    // `failed`/`attempted`.
    println!(
        "  [timed] commit_p99_us = {:.6} us",
        windowed(&timed.commit_us, 0.99)
    );
    println!("  [timed] recover_s = {:.6} s", median(&timed.recover_s));
    println!(
        "  [timed] catchup_commits_per_s = {:.6} 1/s",
        catchup_rate(&timed)
    );
    println!(
        "  [timed] catchup_cpu_us_per_commit = {:.6} us",
        catchup_cpu_us(&timed)
    );
    println!(
        "  [timed] commit_fail_frac = {:.6} frac",
        timed.tally.fail_frac()
    );
    let mut correct = timed.tally.passed_all(&OUTPUT_GATES);
    let mut attempted = timed.tally.attempted();
    let mut failed = timed.tally.failed();
    let metrics = if a.trace {
        let traced = run::run(w, &inputs, a.seconds, true).map_err(err)?;
        print_gates("traced", &traced);
        print!("{}", write_trace_files(a, &traced)?);
        correct &= traced.tally.passed_all(&OUTPUT_GATES);
        attempted += traced.tally.attempted();
        failed += traced.tally.failed();
        let layers = per_layer(&timed, &traced);
        print_metrics("layer", &layers);
        layers
    } else {
        e2e
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match main_inner(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_numbers_only() {
        let l = result_line(
            true,
            10,
            1,
            &[("a_ms", 1.5, "ms"), ("b", f64::INFINITY, "us")],
        );
        assert!(
            l.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {")
        );
        assert!(l.contains("\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(!l.contains("inf"));
    }
}
