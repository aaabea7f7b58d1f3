//! Background drivers (paper Fig. 11).
//!
//! The prototype architecture runs three independent processes around the
//! engine: **log capture** (DPropR), the **propagate driver**, and the
//! **apply driver**. "Aside from the usual producer/consumer
//! synchronization, the two processes are completely independent. Either
//! process, or both, can be suspended during periods of high system load"
//! (paper §1) — so every driver here has suspend/resume/stop controls.
//!
//! Propagation drivers retry on lock timeouts (a deadlock-resolution abort
//! just means "try again"); any other error stops the driver and is
//! returned by [`DriverHandle::stop`].

use crate::execute::MaintCtx;
use crate::policy::IntervalPolicy;
use crate::rolling::RollingPropagator;
use rolljoin_common::{Csn, Error, Result};
use rolljoin_storage::Engine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Control handle for a background driver thread.
pub struct DriverHandle {
    stop: Arc<AtomicBool>,
    suspend: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<()>>>,
    name: &'static str,
}

impl DriverHandle {
    fn spawn(
        name: &'static str,
        f: impl FnOnce(Arc<AtomicBool>, Arc<AtomicBool>) -> Result<()> + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let suspend = Arc::new(AtomicBool::new(false));
        let (s2, p2) = (stop.clone(), suspend.clone());
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || f(s2, p2))
            .expect("spawn driver thread");
        DriverHandle {
            stop,
            suspend,
            handle: Some(handle),
            name,
        }
    }

    /// Pause the driver's loop (paper: suspend during high load).
    pub fn suspend(&self) {
        self.suspend.store(true, Ordering::Release);
    }

    /// Resume a suspended driver.
    pub fn resume(&self) {
        self.suspend.store(false, Ordering::Release);
    }

    /// True while the driver thread is alive.
    pub fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Signal stop and join, returning the driver's final result.
    pub fn stop(mut self) -> Result<()> {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            Some(h) => {
                h.thread().unpark();
                h.join()
                    .map_err(|_| Error::Internal(format!("{} driver panicked", self.name)))?
            }
            None => Ok(()),
        }
    }
}

impl Drop for DriverHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// Spawn the capture driver: steps log capture every `poll`, at most
/// `max_records_per_step` records per step. A small `max_records_per_step`
/// with a long `poll` injects the capture lag experiment E13 studies.
pub fn spawn_capture_driver(
    engine: Engine,
    poll: Duration,
    max_records_per_step: usize,
) -> DriverHandle {
    DriverHandle::spawn("capture", move |stop, suspend| {
        while !stop.load(Ordering::Acquire) {
            if !suspend.load(Ordering::Acquire) {
                engine.capture_step(max_records_per_step)?;
            }
            std::thread::sleep(poll);
        }
        // Final catch-up so nothing is stranded in the log.
        engine.capture_catch_up()?;
        Ok(())
    })
}

/// Spawn the rolling propagate driver: repeatedly performs Fig. 10
/// iterations (argmin-frontier relation, policy-chosen interval). When
/// there is nothing new to propagate it waits on the engine's
/// capture-progress signal for at most `idle`, so a commit is picked up
/// as soon as capture ingests it; under [`crate::CaptureWait::Block`]
/// each step covers only captured history ([`MaintCtx::step_bound`]).
/// Suspension and lock-timeout backoff sleep `idle`.
pub fn spawn_rolling_driver(
    ctx: MaintCtx,
    t_initial: Csn,
    mut policy: Box<dyn IntervalPolicy>,
    idle: Duration,
) -> DriverHandle {
    DriverHandle::spawn("propagate", move |stop, suspend| {
        let mut rp = RollingPropagator::new(ctx, t_initial);
        while !stop.load(Ordering::Acquire) {
            if suspend.load(Ordering::Acquire) {
                std::thread::sleep(idle);
                continue;
            }
            match rp.step(policy.as_mut()) {
                Ok(Some(_)) => {}
                Ok(None) => {
                    let next = rp.tfwd()[rp.next_relation()] + 1;
                    rp.ctx().engine.wait_captured(next, Instant::now() + idle);
                }
                Err(Error::LockTimeout { .. }) => {
                    // Deadlock-resolution abort: back off and retry.
                    std::thread::sleep(idle);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    })
}

/// Spawn the background φ-compactor: every `period`, rewrites each base
/// delta store below the global compaction LWM
/// ([`MaintCtx::compaction_lwm`], clamped to the capture HWM) and the view
/// delta store below the apply position, honoring the
/// [`crate::policy::CompactionPolicy::Background`] store-size threshold in
/// the context's tuning. Compaction is an in-place rewrite of history no
/// consumer can read anymore, so the driver needs no coordination with
/// propagate or apply beyond the LWM itself — it can be suspended and
/// resumed freely like the paper's other background processes.
pub fn spawn_compaction_driver(ctx: MaintCtx, period: Duration) -> DriverHandle {
    DriverHandle::spawn("compact", move |stop, suspend| {
        while !stop.load(Ordering::Acquire) {
            if !suspend.load(Ordering::Acquire) {
                ctx.compact_stores()?;
            }
            std::thread::sleep(period);
        }
        Ok(())
    })
}

/// Spawn the apply driver: at most one roll per tick, with ticks `period`
/// apart at a fixed rate (a tick that overruns its slot is followed by the
/// next one at once). Each tick targets the latest commit made before it:
/// it waits on the view-delta HWM's progress signal until propagation
/// covers that commit or the next tick is due, then rolls the view to the
/// HWM it has. A commit made before a tick is therefore visible after
/// that tick whenever propagation reaches it before the next tick, and
/// otherwise as far as propagation got. A tick at which nothing has
/// committed since the view last caught up — apart from the driver's own
/// roll, which commits the control-table row — is skipped, so an idle
/// pipeline commits nothing. [`DriverHandle::stop`] wakes a driver that is
/// sleeping until its next tick; one waiting on the HWM stops when that
/// wait ends, within a period.
pub fn spawn_apply_driver(ctx: MaintCtx, period: Duration) -> DriverHandle {
    DriverHandle::spawn("apply", move |stop, suspend| {
        // The latest commit when the view last caught up: while no commit
        // is newer, a tick has nothing to show.
        let mut caught_up = None;
        let mut tick = Instant::now();
        while !stop.load(Ordering::Acquire) {
            let next = tick + period;
            let target = ctx.engine.current_csn();
            if !suspend.load(Ordering::Acquire) && caught_up != Some(target) {
                let mut span = ctx.obs.span("apply_wait");
                span.arg("target", target as i64);
                let met = ctx.mv.wait_hwm(target, next);
                span.arg("met", met as i64);
                let hwm = ctx.mv.hwm();
                if hwm > ctx.mv.mat_time() {
                    match crate::apply::roll_to(&ctx, hwm) {
                        // Only the roll's own commit is newer than the view.
                        Ok(out) if out.committed_at == Some(hwm + 1) => {
                            caught_up = out.committed_at;
                        }
                        Ok(_) | Err(Error::LockTimeout { .. }) => {}
                        Err(e) => return Err(e),
                    }
                } else if met {
                    caught_up = Some(target);
                }
            }
            tick = next.max(Instant::now());
            park_until(tick, &stop);
        }
        Ok(())
    })
}

/// Sleep until `deadline`, returning early once `stop` is set
/// ([`DriverHandle::stop`] unparks the driver thread).
fn park_until(deadline: Instant, stop: &AtomicBool) {
    loop {
        let now = Instant::now();
        if now >= deadline || stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::park_timeout(deadline - now);
    }
}
