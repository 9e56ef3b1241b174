//! The coarse cached clock and the precise [`Timer`].
//!
//! Hot paths want *a* recent timestamp (to place a sample in the right
//! sliding-window slice) far more often than they want a *precise* one
//! (to measure a duration). The split here mirrors clocksource's
//! `AtomicInstant` recipe:
//!
//! * durations are measured with one precise clock read per edge:
//!   [`Timer::start`] stores nanoseconds since the process epoch and
//!   [`Timer::stop`] reads the clock once more, using that one reading
//!   both for the duration and as the sample's timestamp;
//! * the coarse clock is a process-wide atomic holding "nanoseconds
//!   since process epoch", readable with one relaxed load
//!   ([`coarse_now`]). `Timer::stop` publishes its reading there only
//!   when it is at least a granule (1 ms) ahead of the cached one;
//!   otherwise its publish is a single load. So the shared line is
//!   written about once per millisecond, not once per operation, and
//!   the coarse clock lags the real one by up to a granule.
//!
//! Consumers that only need bucketing granularity — sliding-window
//! rotation, whose slices are a second long — read the coarse clock;
//! nothing in a hot path ever takes a lock for time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process epoch: all clock readings are nanoseconds since the
/// first use of this module.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The cached coarse reading (ns since [`epoch`]).
static COARSE: AtomicU64 = AtomicU64::new(0);

/// How far a [`Timer::stop`] reading must be ahead of the cached coarse
/// reading before it is published: 1 ms.
const GRANULE_NS: u64 = 1_000_000;

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

/// The cached coarse reading: one relaxed atomic load, no clock read.
/// Advances when something calls [`refresh`], or when a
/// [`Timer::stop`] finds it a granule (1 ms) or more behind, so it lags
/// the real clock by up to a granule, or by however long the process
/// went without measuring anything — by design: its consumers need
/// bucketing granularity, not precision.
///
/// # Examples
///
/// ```
/// let refreshed = blobseer_metrics::clock::refresh();
/// assert!(blobseer_metrics::clock::coarse_now() >= refreshed);
/// ```
pub fn coarse_now() -> u64 {
    COARSE.load(Ordering::Relaxed)
}

/// Read the real clock and publish it as the new coarse reading.
/// Returns the fresh reading. Monotone: a concurrent refresh that read
/// a later instant wins (`fetch_max`), so [`coarse_now`] never goes
/// backwards.
///
/// # Examples
///
/// ```
/// let now = blobseer_metrics::clock::refresh();
/// assert!(blobseer_metrics::clock::coarse_now() >= now);
/// ```
pub fn refresh() -> u64 {
    let now = precise_now();
    COARSE.fetch_max(now, Ordering::Relaxed);
    now
}

/// A precise duration measurement that feeds a [`WindowedHistogram`]
/// and keeps the coarse clock within a granule on the way out.
///
/// [`WindowedHistogram`]: crate::WindowedHistogram
///
/// # Examples
///
/// ```
/// use blobseer_metrics::{Timer, WindowedHistogram};
///
/// let hist = WindowedHistogram::new();
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
    /// into `hist` stamped with that reading (so the sample lands in
    /// the current window slice), and return them. The reading becomes
    /// the coarse clock only if it is a granule (1 ms) ahead of it.
    pub fn stop(self, hist: &crate::WindowedHistogram) -> u64 {
        let now = precise_now();
        if now >= COARSE.load(Ordering::Relaxed).saturating_add(GRANULE_NS) {
            COARSE.fetch_max(now, Ordering::Relaxed);
        }
        let elapsed = now.saturating_sub(self.start_ns);
        hist.record_at(now, elapsed);
        elapsed
    }

    /// Elapsed nanoseconds so far, without consuming the timer.
    pub fn elapsed_ns(&self) -> u64 {
        precise_now().saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_clock_is_monotone_and_tracks_refresh() {
        let a = refresh();
        let cached = coarse_now();
        assert!(cached >= a);
        let b = refresh();
        assert!(b >= a);
        assert!(coarse_now() >= cached);
    }

    #[test]
    fn precise_now_is_monotone() {
        let a = precise_now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(precise_now() > a);
    }

    #[test]
    fn timer_records_plausible_duration() {
        let hist = crate::WindowedHistogram::new();
        let t = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = t.stop(&hist);
        assert!(ns >= 2_000_000, "slept 2ms but measured {ns}ns");
        assert_eq!(hist.snapshot().count(), 1);
    }

    #[test]
    fn timer_stop_keeps_the_coarse_clock_within_a_granule() {
        let hist = crate::WindowedHistogram::new();
        let t = Timer::start();
        let before_stop = precise_now();
        t.stop(&hist);
        // The stop's reading is at or after `before_stop`, and after
        // the stop the cached reading is within a granule of it.
        assert!(coarse_now() + GRANULE_NS > before_stop);
        let cached = coarse_now();
        Timer::start().stop(&hist);
        assert!(coarse_now() >= cached, "the coarse clock never steps back");
    }
}
