//! A monotone CSN that wakes its waiters when it advances.
//!
//! Both high-water marks of the pipeline are one: the capture HWM (base
//! deltas are complete through here) and a view's delta HWM (its view
//! delta is complete through here). Each has one producer that advances
//! it and consumers that block until it reaches a CSN — propagation waits
//! on capture, apply waits on propagation — instead of polling.

use parking_lot::{Condvar, Mutex};
use rolljoin_common::Csn;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone CSN with a progress signal. `advance` is a release and `get`
/// an acquire: whatever the producer wrote before advancing (captured
/// delta rows, view-delta rows) is visible to a reader that sees the new
/// value.
#[derive(Default)]
pub struct Watermark {
    csn: AtomicU64,
    lock: Mutex<()>,
    advanced: Condvar,
}

impl Watermark {
    /// A watermark at `csn`.
    pub fn new(csn: Csn) -> Self {
        Watermark {
            csn: AtomicU64::new(csn),
            ..Default::default()
        }
    }

    /// The current value.
    pub fn get(&self) -> Csn {
        self.csn.load(Ordering::Acquire)
    }

    /// Raise the watermark to `csn` (lower values are ignored) and wake
    /// every waiter if it moved. Taking the signal mutex orders the
    /// notification after any waiter's check, so no wake-up is lost.
    pub fn advance(&self, csn: Csn) {
        if self.csn.fetch_max(csn, Ordering::AcqRel) < csn {
            drop(self.lock.lock());
            self.advanced.notify_all();
        }
    }

    /// Block until the watermark reaches `csn` or `deadline` passes.
    /// Returns whether it reached `csn`.
    pub fn wait_for(&self, csn: Csn, deadline: Instant) -> bool {
        if self.get() >= csn {
            return true;
        }
        let mut guard = self.lock.lock();
        while self.get() < csn {
            if self.advanced.wait_until(&mut guard, deadline).timed_out() {
                return self.get() >= csn;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn never_regresses() {
        let w = Watermark::new(4);
        w.advance(9);
        w.advance(3);
        assert_eq!(w.get(), 9);
        w.advance(9);
        assert_eq!(w.get(), 9);
    }

    #[test]
    fn wakes_on_advance() {
        let w = Arc::new(Watermark::new(0));
        let w2 = w.clone();
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.advance(2);
            std::thread::sleep(Duration::from_millis(20));
            w2.advance(5);
        });
        let start = Instant::now();
        assert!(w.wait_for(5, start + Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(5), "woke by signal");
        assert_eq!(w.get(), 5);
        producer.join().unwrap();
    }

    #[test]
    fn gives_up_at_the_deadline() {
        let w = Watermark::new(1);
        let start = Instant::now();
        assert!(!w.wait_for(2, start + Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
        // Already reached: returns at once, even past the deadline.
        assert!(w.wait_for(1, start));
    }
}
