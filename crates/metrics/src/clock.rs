//! The process clock and the precise [`Timer`].
//!
//! Durations are measured with one precise clock read per edge:
//! [`Timer::start`] stores nanoseconds since the process epoch and
//! [`Timer::stop`] reads the clock once more and records the
//! difference. No reading is cached or shared between threads, so a
//! timed span writes nothing but its histogram's stripe, and nothing
//! in a hot path ever takes a lock for time.

use std::sync::OnceLock;
use std::time::Instant;

/// The process epoch: all clock readings are nanoseconds since the
/// first use of this module.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Precise nanoseconds since the process epoch (a real clock read).
///
/// # Examples
///
/// ```
/// let a = blobseer_metrics::clock::precise_now();
/// let b = blobseer_metrics::clock::precise_now();
/// assert!(b >= a);
/// ```
pub fn precise_now() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A precise duration measurement that feeds an [`AtomicHistogram`].
///
/// [`AtomicHistogram`]: crate::AtomicHistogram
///
/// # Examples
///
/// ```
/// use blobseer_metrics::{AtomicHistogram, Timer};
///
/// let hist = AtomicHistogram::new();
/// let timer = Timer::start();
/// let elapsed_ns = timer.stop(&hist);
/// let snap = hist.snapshot();
/// assert_eq!(snap.count(), 1);
/// assert!(snap.sum() >= elapsed_ns.min(1));
/// ```
#[derive(Debug)]
pub struct Timer {
    start_ns: u64,
}

impl Timer {
    /// Start timing (a precise clock read).
    pub fn start() -> Timer {
        Timer { start_ns: precise_now() }
    }

    /// Stop timing: read the clock once, record the elapsed nanoseconds
    /// into `hist` and return them.
    pub fn stop(self, hist: &crate::AtomicHistogram) -> u64 {
        let elapsed = precise_now().saturating_sub(self.start_ns);
        hist.record(elapsed);
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_now_is_monotone() {
        let a = precise_now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(precise_now() > a);
    }

    #[test]
    fn timer_records_plausible_duration() {
        let hist = crate::AtomicHistogram::new();
        let t = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = t.stop(&hist);
        assert!(ns >= 2_000_000, "slept 2ms but measured {ns}ns");
        assert_eq!(hist.snapshot().count(), 1);
    }
}
