//! The four background maintenance processes of one run.
//!
//! The timed run uses the library's own `spawn_*_driver`s. The traced run
//! replaces them with loops of identical shape (same sleeps, same retry on
//! `LockTimeout`) that wrap each call into the library in a span, so the
//! per-layer table can split the run's time by layer.

use rolljoin_common::{Csn, Error, Result};
use rolljoin_core::{
    roll_to, spawn_apply_driver, spawn_capture_driver, spawn_compaction_driver,
    spawn_rolling_driver, DriverHandle, MaintCtx, RollingPropagator, TargetRows,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Capture driver: poll period and records per step.
pub const CAPTURE_POLL: Duration = Duration::from_millis(2);
pub const CAPTURE_MAX_RECORDS: usize = 4096;
/// Rolling propagate driver: sleep when caught up or after a lock timeout.
pub const PROPAGATE_IDLE: Duration = Duration::from_millis(2);
/// Apply driver period.
pub const APPLY_PERIOD: Duration = Duration::from_millis(50);
/// Background compaction driver period.
pub const COMPACT_PERIOD: Duration = Duration::from_millis(250);
/// `TargetRows` interval policy: change records per forward query.
pub const TARGET_ROWS: usize = 512;

fn policy() -> Box<TargetRows> {
    Box::new(TargetRows {
        target_rows: TARGET_ROWS,
    })
}

/// Suspend/resume/stop controls shared by library and traced drivers.
trait Control: Send {
    fn suspend(&self);
    fn resume(&self);
    fn is_running(&self) -> bool;
    fn stop(self: Box<Self>) -> Result<()>;
}

impl Control for DriverHandle {
    fn suspend(&self) {
        DriverHandle::suspend(self)
    }
    fn resume(&self) {
        DriverHandle::resume(self)
    }
    fn is_running(&self) -> bool {
        DriverHandle::is_running(self)
    }
    fn stop(self: Box<Self>) -> Result<()> {
        DriverHandle::stop(*self)
    }
}

/// A traced driver thread. Dropping it stops and joins the thread.
struct Loop {
    name: &'static str,
    stop: Arc<AtomicBool>,
    suspend: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<()>>>,
}

impl Loop {
    fn spawn(
        name: &'static str,
        f: impl FnOnce(&AtomicBool, &AtomicBool) -> Result<()> + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let suspend = Arc::new(AtomicBool::new(false));
        let (s, p) = (stop.clone(), suspend.clone());
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || f(&s, &p))
            .expect("spawn traced driver thread");
        Loop {
            name,
            stop,
            suspend,
            handle: Some(handle),
        }
    }
}

impl Control for Loop {
    fn suspend(&self) {
        self.suspend.store(true, Ordering::Release);
    }
    fn resume(&self) {
        self.suspend.store(false, Ordering::Release);
    }
    fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }
    fn stop(mut self: Box<Self>) -> Result<()> {
        self.stop.store(true, Ordering::Release);
        let h = self.handle.take().expect("loop joined once");
        h.join()
            .map_err(|_| Error::Internal(format!("{} loop panicked", self.name)))?
    }
}

impl Drop for Loop {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Capture, propagate, apply and compaction drivers of one view.
pub struct Drivers {
    capture: Box<dyn Control>,
    propagate: Box<dyn Control>,
    apply: Box<dyn Control>,
    compact: Box<dyn Control>,
}

impl Drivers {
    /// The library's drivers.
    pub fn library(ctx: &MaintCtx, t_initial: Csn) -> Drivers {
        Drivers {
            capture: Box::new(spawn_capture_driver(
                ctx.engine.clone(),
                CAPTURE_POLL,
                CAPTURE_MAX_RECORDS,
            )),
            propagate: Box::new(spawn_rolling_driver(
                ctx.clone(),
                t_initial,
                policy(),
                PROPAGATE_IDLE,
            )),
            apply: Box::new(spawn_apply_driver(ctx.clone(), APPLY_PERIOD)),
            compact: Box::new(spawn_compaction_driver(ctx.clone(), COMPACT_PERIOD)),
        }
    }

    /// Span-wrapped loops of the same shape as the library's drivers. The
    /// capture loop also samples the capture lag (WAL records not yet
    /// captured) before each step into `lag`.
    pub fn traced(ctx: &MaintCtx, t_initial: Csn, lag: Arc<Mutex<Vec<u64>>>) -> Drivers {
        let c = ctx.clone();
        let capture = Loop::spawn("capture", move |stop, suspend| {
            while !stop.load(Ordering::Acquire) {
                if !suspend.load(Ordering::Acquire) {
                    let lag_now = c.engine.capture_lag();
                    lag.lock().expect("lag samples poisoned").push(lag_now);
                    let _s = c.obs.span("bench.capture_step");
                    c.engine.capture_step(CAPTURE_MAX_RECORDS)?;
                }
                std::thread::sleep(CAPTURE_POLL);
            }
            c.engine.capture_catch_up()
        });
        let c = ctx.clone();
        let propagate = Loop::spawn("propagate", move |stop, suspend| {
            let obs = c.obs.clone();
            let mut rp = RollingPropagator::new(c, t_initial);
            let mut policy = policy();
            while !stop.load(Ordering::Acquire) {
                if suspend.load(Ordering::Acquire) {
                    std::thread::sleep(PROPAGATE_IDLE);
                    continue;
                }
                let res = {
                    let mut s = obs.span("bench.rolling_step");
                    let res = rp.step(policy.as_mut());
                    if let Ok(Some(step)) = &res {
                        s.arg("stepped", 1);
                        s.arg("skipped_empty", step.skipped_empty as i64);
                    }
                    res
                };
                match res {
                    Ok(Some(_)) => {}
                    Ok(None) | Err(Error::LockTimeout { .. }) => std::thread::sleep(PROPAGATE_IDLE),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        let c = ctx.clone();
        let apply = Loop::spawn("apply", move |stop, suspend| {
            while !stop.load(Ordering::Acquire) {
                if !suspend.load(Ordering::Acquire) {
                    let target = c.mv.hwm();
                    if target > c.mv.mat_time() {
                        let _s = c.obs.span("bench.roll_to");
                        match roll_to(&c, target) {
                            Ok(_) | Err(Error::LockTimeout { .. }) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
                std::thread::sleep(APPLY_PERIOD);
            }
            Ok(())
        });
        let c = ctx.clone();
        let compact = Loop::spawn("compact", move |stop, suspend| {
            while !stop.load(Ordering::Acquire) {
                if !suspend.load(Ordering::Acquire) {
                    let _s = c.obs.span("bench.compact_stores");
                    c.compact_stores()?;
                }
                std::thread::sleep(COMPACT_PERIOD);
            }
            Ok(())
        });
        Drivers {
            capture: Box::new(capture),
            propagate: Box::new(propagate),
            apply: Box::new(apply),
            compact: Box::new(compact),
        }
    }

    /// Suspend propagation and apply (capture and compaction keep going).
    pub fn suspend_maintenance(&self) {
        self.propagate.suspend();
        self.apply.suspend();
    }

    pub fn resume_maintenance(&self) {
        self.propagate.resume();
        self.apply.resume();
    }

    /// True while no driver has ended (a driver ends early only on an
    /// error other than a lock timeout).
    pub fn all_running(&self) -> bool {
        [&self.capture, &self.propagate, &self.apply, &self.compact]
            .iter()
            .all(|d| d.is_running())
    }

    /// Stop every driver (capture last, so it drains the log) and return
    /// the first error any of them ended with.
    pub fn stop(self) -> Result<()> {
        let results = [
            self.propagate.stop(),
            self.apply.stop(),
            self.compact.stop(),
            self.capture.stop(),
        ];
        results.into_iter().collect()
    }
}
