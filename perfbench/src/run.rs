//! One run of one workload: set-up, steady phase, catch-up phase and
//! recovery phase, with the correctness gates.

use crate::drivers::Drivers;
use crate::measure::{backlog_grew, backlog_tenths, window_of, Tally};
use crate::trace::{Collector, Trace};
use crate::workloads::{Inputs, Op, Workload};
use rolljoin_common::{Csn, Error, Result, TableId};
use rolljoin_core::{
    materialize, oracle, CompactionPolicy, ExecTuning, LockStatsSnapshot, MaintCtx,
    MaterializedView, ObsConfig, PropStatsSnapshot,
};
use rolljoin_storage::Engine;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop warm-up before the steady phase, so the capture of the load,
/// the first compaction passes and the first propagation steps are not
/// timed. Its transactions are generated and committed like the rest.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per timed run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Recoveries per run; `recover_s` is their median.
pub const RECOVERIES: usize = 5;
/// Catch-up rounds per run; the catch-up figures sum over them.
pub const CATCHUP_ROUNDS: usize = 5;
/// The steady phase is split into this many consecutive windows; latency
/// percentiles are the median of the per-window percentiles, so one
/// burst of CPU steal or one long maintenance pause moves one window,
/// not the run's figure.
pub const WINDOWS: usize = 3;
/// Rows per load transaction.
const LOAD_BATCH: usize = 1000;
/// How long the generator sleeps between polls of the view's
/// materialization time.
pub const POLL_SLICE: Duration = Duration::from_micros(250);
/// Background compaction threshold (records per store).
pub const COMPACT_THRESHOLD: usize = 1024;
/// Blocking capture wait of propagation queries.
const CAPTURE_WAIT_POLL: Duration = Duration::from_millis(1);
const CAPTURE_WAIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest wait for the view to reach a CSN before the run fails.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(60);
/// Backlog growth (in commits) tolerated on top of half again, as a share
/// of the offered rate: 50 ms of arrivals.
const BACKLOG_SLACK_S: f64 = 0.05;

/// The gates whose failure means the program produced a wrong result.
pub const OUTPUT_GATES: [&str; 4] = ["drivers", "mv_equals_oracle", "recovered_bases", "mat_time"];

/// The tuning every workload runs with.
pub fn tuning(traced: bool) -> ExecTuning {
    ExecTuning::default()
        .with_compaction(CompactionPolicy::Background(COMPACT_THRESHOLD))
        .with_obs(if traced {
            ObsConfig::Full
        } else {
            ObsConfig::Metrics
        })
}

/// Everything one run measured.
pub struct RunOut {
    pub setup_s: Vec<f64>,
    /// Steady-phase updater latency from due time, µs (failures = ∞),
    /// with the window of the transaction.
    pub commit_us: Vec<(usize, f64)>,
    /// Steady-phase updater service time, begin to commit return, µs
    /// (failures = ∞), with the window of the transaction.
    pub service_us: Vec<(usize, f64)>,
    /// Steady-phase updater lock wait before commit, µs.
    pub lock_wait_us: Vec<f64>,
    /// Commit return to first poll seeing it in the view, ms, with the
    /// window of the transaction.
    pub visible_ms: Vec<(usize, f64)>,
    /// Generator lateness (send − due), ms.
    pub late_ms: Vec<f64>,
    pub backlog_first: f64,
    pub backlog_last: f64,
    pub backlog_end: usize,
    pub catchup: Vec<Round>,
    pub recover_s: Vec<f64>,
    pub tally: Tally,
    /// The error a driver ended with, if any.
    pub driver_error: Option<String>,
    /// Counter deltas over the measured window (steady + catch-up).
    pub prop: PropStatsSnapshot,
    pub locks: LockStatsSnapshot,
    pub compaction_removed: u64,
    pub window_s: f64,
    /// Successful updater commits in the window.
    pub commits: u64,
    pub steady_commits: u64,
    pub wal_bytes_window: u64,
    pub wal_bytes_end: u64,
    pub postings_bytes_end: u64,
    pub store_rows_end: u64,
    pub vd_rows_end: u64,
    pub workers: usize,
    /// Traced run only: spans and capture-lag samples.
    pub trace: Option<Trace>,
    pub capture_lag: Vec<u64>,
}

/// One catch-up round.
pub struct Round {
    /// Backlog transactions committed.
    pub commits: u64,
    /// Wall time from resume until the view reached the last of them.
    pub secs: f64,
    /// CPU time all of this process's threads used in that interval.
    pub cpu_s: f64,
}

/// User plus system CPU time of the whole process so far, from
/// `/proc/self/stat`. The kernel leaves out time the hypervisor ran
/// something else on the vCPU (steal), so this does not drift with the
/// host's load the way wall time does.
fn process_cpu_s() -> Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| Error::Internal(format!("reading /proc/self/stat: {e}")))?;
    // Fields after the parenthesised command name, starting at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| Error::Internal("malformed /proc/self/stat".into()))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| Error::Internal("malformed /proc/self/stat".into()))
    };
    // Linux reports these in USER_HZ = 100 ticks per second.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

struct System {
    ctx: MaintCtx,
    drivers: Drivers,
    collector: Option<Collector>,
}

fn setup(
    w: &Workload,
    inputs: &Inputs,
    tag: &str,
    traced: bool,
    lag: &Arc<Mutex<Vec<u64>>>,
) -> Result<System> {
    let schema = w.create_schema(tag)?;
    let bases = schema.mv.view.bases.clone();
    for chunk in inputs.load.chunks(LOAD_BATCH) {
        let mut txn = schema.engine.begin();
        for (slot, t) in chunk {
            txn.insert(bases[*slot], t.clone())?;
        }
        txn.commit()?;
    }
    let ctx = MaintCtx::new(schema.engine, schema.mv)
        .with_tuning(tuning(traced))
        .with_blocking_capture(CAPTURE_WAIT_POLL, CAPTURE_WAIT_TIMEOUT);
    let collector = traced.then(|| Collector::start(ctx.obs.clone()));
    let mat = {
        let _s = ctx.obs.span("bench.materialize");
        materialize(&ctx)?
    };
    let drivers = if traced {
        Drivers::traced(&ctx, mat, lag.clone())
    } else {
        Drivers::library(&ctx, mat)
    };
    Ok(System {
        ctx,
        drivers,
        collector,
    })
}

/// Run one single-row transaction; returns the commit CSN (or the error)
/// and the lock wait the transaction saw before committing.
fn commit_op(engine: &Engine, bases: &[TableId], op: &Op) -> (Result<Csn>, Duration) {
    let mut txn = engine.begin();
    let res = match op {
        Op::Insert(s, t) => txn.insert(bases[*s], t.clone()),
        Op::Delete(s, t) => txn.delete_one(bases[*s], t),
        Op::Update(s, old, new) => txn.update(bases[*s], old, new.clone()),
    };
    let lock_wait = txn.lock_wait();
    match res {
        Ok(()) => (txn.commit(), lock_wait),
        Err(e) => {
            txn.abort();
            (Err(e), lock_wait)
        }
    }
}

/// Record the visibility latency of every waiting commit the view now
/// covers.
fn poll_visible(
    mv: &MaterializedView,
    waiting: &mut VecDeque<(Csn, Instant, usize)>,
    out: &mut Vec<(usize, f64)>,
) {
    let mat = mv.mat_time();
    let now = Instant::now();
    while let Some(&(csn, returned, window)) = waiting.front() {
        if csn > mat {
            break;
        }
        if window < WINDOWS {
            out.push((window, ms(now - returned)));
        }
        waiting.pop_front();
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Window {
    prop: PropStatsSnapshot,
    locks: LockStatsSnapshot,
    removed: u64,
    wal: u64,
}

fn window_mark(ctx: &MaintCtx) -> Result<Window> {
    Ok(Window {
        prop: ctx.stats.snapshot(),
        locks: ctx.engine.locks().stats().snapshot_full(),
        removed: ctx.compaction_report()?.rows_removed(),
        wal: ctx.engine.wal().byte_len() as u64,
    })
}

/// Transactions sent open-loop before the steady phase starts.
pub fn warmup_txns(w: &Workload) -> usize {
    (w.rate * WARMUP.as_secs_f64()).round() as usize
}

/// Run `w` on `inputs` for a steady phase of `seconds`.
pub fn run(w: &Workload, inputs: &Inputs, seconds: u64, traced: bool) -> Result<RunOut> {
    let lag = Arc::new(Mutex::new(Vec::new()));
    let mut setup_s = Vec::new();
    let mut sys: Option<System> = None;
    for k in 0..if traced { 1 } else { SETUPS } {
        if let Some(old) = sys.take() {
            old.drivers.stop()?;
        }
        let t0 = Instant::now();
        sys = Some(setup(w, inputs, &format!("s{k}"), traced, &lag)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let System {
        ctx,
        drivers,
        collector,
    } = sys.expect("at least one set-up");
    let engine = ctx.engine.clone();
    let mv = ctx.mv.clone();
    let bases = mv.view.bases.clone();
    let mut tally = Tally::default();

    // ---- warm-up, then the steady phase: open loop at the workload's rate ----
    let warm = warmup_txns(w);
    let steady_n = inputs.steady.len() - warm;
    let phase = Duration::from_secs(seconds);
    let mut commit_us = Vec::with_capacity(steady_n);
    let mut service_us = Vec::with_capacity(steady_n);
    let mut lock_wait_us = Vec::with_capacity(steady_n);
    let mut visible_ms = Vec::with_capacity(steady_n);
    let mut late_ms = Vec::with_capacity(steady_n);
    let mut backlog = Vec::with_capacity(steady_n);
    let mut waiting: VecDeque<(Csn, Instant, usize)> = VecDeque::new();
    let mut steady_commits = 0u64;
    let mut steady = None;
    let start = Instant::now();
    for (i, op) in inputs.steady.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / w.rate);
        if i == warm {
            steady = Some((window_mark(&ctx)?, due, ctx.obs.span("bench.steady")));
        }
        // Warm-up transactions carry window `WINDOWS` and are not reported.
        let window = i
            .checked_sub(warm)
            .map_or(WINDOWS, |j| window_of(j, steady_n, WINDOWS));
        loop {
            poll_visible(&mv, &mut waiting, &mut visible_ms);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL_SLICE));
        }
        let sent = Instant::now();
        let (res, lock_wait) = {
            let _s = ctx.obs.span("bench.updater_txn");
            commit_op(&engine, &bases, op)
        };
        let returned = Instant::now();
        tally.txn(res.is_ok());
        if let Some((_, steady_start, _)) = &steady {
            late_ms.push(ms(sent - due));
            backlog.push((sent - *steady_start, waiting.len()));
            lock_wait_us.push(lock_wait.as_secs_f64() * 1e6);
            let since = |t: Instant| {
                res.as_ref()
                    .map_or(f64::INFINITY, |_| (returned - t).as_secs_f64() * 1e6)
            };
            commit_us.push((window, since(due)));
            service_us.push((window, since(sent)));
            steady_commits += res.is_ok() as u64;
        }
        if let Ok(csn) = res {
            waiting.push_back((csn, returned, window));
        }
    }
    let (before, window_start, steady_span) = steady.expect("steady phase has transactions");
    let backlog_end = waiting.len();
    let drain_deadline = Instant::now() + VISIBLE_DEADLINE;
    while !waiting.is_empty() && Instant::now() < drain_deadline && drivers.all_running() {
        std::thread::sleep(POLL_SLICE);
        poll_visible(&mv, &mut waiting, &mut visible_ms);
    }
    let drained = waiting.is_empty();
    drop(steady_span);
    let (backlog_first, backlog_last) = backlog_tenths(&backlog, phase);
    let slack = w.rate * BACKLOG_SLACK_S;
    tally.gate(
        "open_loop",
        drained && !backlog_grew(backlog_first, backlog_last, slack),
    );

    // ---- catch-up phase: backlogs committed while maintenance sleeps ----
    let catchup_span = ctx.obs.span("bench.catchup");
    let mut commits = steady_commits;
    let mut catchup = Vec::with_capacity(CATCHUP_ROUNDS);
    let mut caught_up = true;
    for round in inputs.backlog.chunks(w.backlog) {
        drivers.suspend_maintenance();
        let (mut last, mut n) = (0, 0u64);
        for op in round {
            let (res, _) = commit_op(&engine, &bases, op);
            tally.txn(res.is_ok());
            if let Ok(csn) = res {
                last = csn;
                n += 1;
            }
        }
        let (t0, cpu0) = (Instant::now(), process_cpu_s()?);
        drivers.resume_maintenance();
        while mv.mat_time() < last && t0.elapsed() < VISIBLE_DEADLINE && drivers.all_running() {
            std::thread::sleep(POLL_SLICE);
        }
        catchup.push(Round {
            commits: n,
            secs: t0.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s()? - cpu0,
        });
        commits += n;
        caught_up &= mv.mat_time() >= last;
        if !caught_up {
            break;
        }
    }
    drop(catchup_span);
    let window_s = window_start.elapsed().as_secs_f64();
    let after = window_mark(&ctx)?;
    let driver_error = drivers.stop().err().map(|e| e.to_string());
    tally.gate("drivers", caught_up && driver_error.is_none());

    // ---- gates on the live view ----
    let got = oracle::mv_state(&engine, &mv)?;
    let want = oracle::view_at(&engine, &mv.view, mv.mat_time())?;
    tally.gate("mv_equals_oracle", got == want);

    // ---- recovery phase ----
    let bytes = engine.wal().snapshot_bytes();
    let mut recover_s = Vec::with_capacity(RECOVERIES);
    let mut last_recovery = None;
    for _ in 0..RECOVERIES {
        drop(last_recovery.take());
        let t0 = Instant::now();
        let recovered = {
            let _s = ctx.obs.span("bench.recover_from_bytes");
            Engine::recover_from_bytes(&bytes)?
        };
        let remv = {
            let _s = ctx.obs.span("bench.reattach");
            MaterializedView::reattach(&recovered, (*mv.view).clone())?
        };
        recover_s.push(t0.elapsed().as_secs_f64());
        last_recovery = Some((recovered, remv));
    }
    let (recovered, remv) = last_recovery.expect("at least one recovery");
    let mut same = true;
    for t in bases.iter().copied().chain([mv.mv_table]) {
        let live = engine.begin().scan_counts(t)?;
        let rec = recovered.begin().scan_counts(t)?;
        same &= live == rec;
    }
    tally.gate("recovered_bases", same);
    tally.gate("mat_time", remv.mat_time() == mv.mat_time());

    let mut store_rows_end = 0u64;
    for b in &bases {
        store_rows_end += engine.delta_store(*b)?.len() as u64;
    }
    let trace = collector.map(Collector::finish);
    let capture_lag = std::mem::take(&mut *lag.lock().expect("lag samples poisoned"));
    Ok(RunOut {
        setup_s,
        commit_us,
        service_us,
        lock_wait_us,
        visible_ms,
        late_ms,
        backlog_first,
        backlog_last,
        backlog_end,
        catchup,
        recover_s,
        tally,
        driver_error,
        prop: after.prop.since(&before.prop),
        locks: after.locks.since(&before.locks),
        compaction_removed: after.removed.saturating_sub(before.removed),
        window_s,
        commits,
        steady_commits,
        wal_bytes_window: after.wal.saturating_sub(before.wal),
        wal_bytes_end: engine.wal().byte_len() as u64,
        postings_bytes_end: engine.delta_postings_bytes(),
        store_rows_end,
        vd_rows_end: engine.vd_len(mv.vd_table)? as u64,
        workers: ctx.tuning.workers,
        trace,
        capture_lag,
    })
}
