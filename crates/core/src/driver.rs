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
            Some(h) => h
                .join()
                .map_err(|_| Error::Internal(format!("{} driver panicked", self.name)))?,
            None => Ok(()),
        }
    }
}

impl Drop for DriverHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
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

/// Spawn the apply driver: every `period`, rolls the materialized view
/// forward to the current view-delta high-water mark.
pub fn spawn_apply_driver(ctx: MaintCtx, period: Duration) -> DriverHandle {
    DriverHandle::spawn("apply", move |stop, suspend| {
        while !stop.load(Ordering::Acquire) {
            if !suspend.load(Ordering::Acquire) {
                let target = ctx.mv.hwm();
                if target > ctx.mv.mat_time() {
                    match crate::apply::roll_to(&ctx, target) {
                        Ok(_) => {}
                        Err(Error::LockTimeout { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            std::thread::sleep(period);
        }
        Ok(())
    })
}
