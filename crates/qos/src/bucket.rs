//! The lock-free token bucket.

use std::sync::atomic::{AtomicU64, Ordering};

const NANOS_PER_SEC: u128 = 1_000_000_000;

/// A lock-free token-bucket rate limiter.
///
/// State is two `AtomicU64`s: the current token count and the refill
/// clock (`last_ns`, the virtual instant up to which refill credit has
/// been minted). Refill is CAS-driven and **exact**: the winner
/// advances `last_ns` by precisely the nanoseconds its minted tokens
/// account for (`minted * 1e9 / rate`, rounded down), so fractional
/// remainders carry over to the next refill instead of being lost —
/// the bucket admits exactly `rate_per_sec` tokens per second of
/// injected time, with no drift, at any call cadence.
///
/// Time is injected (`now_ns` on every call), never read: the engine
/// passes the metrics process clock, tests pass virtual time.
///
/// # Examples
///
/// ```
/// use blobseer_qos::TokenBucket;
///
/// // 1000 tokens/s, burst of 10; starts full.
/// let b = TokenBucket::new(1000, 10);
/// assert!(b.try_acquire_at(0, 10).is_ok());
/// // Drained: the failure returns a wait hint in nanoseconds.
/// let hint = b.try_acquire_at(0, 1).unwrap_err();
/// assert_eq!(hint, 1_000_000); // one token takes 1 ms at 1000/s
/// // After that long, the token is there.
/// assert!(b.try_acquire_at(hint, 1).is_ok());
/// ```
#[derive(Debug)]
pub struct TokenBucket {
    /// Sustained refill rate, tokens per second of injected time.
    rate_per_sec: u64,
    /// Burst capacity: the token count is clamped here, so at most
    /// this many tokens can be acquired back-to-back after idleness.
    capacity: u64,
    tokens: AtomicU64,
    /// The injected instant up to which refill credit was minted.
    last_ns: AtomicU64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` (≥ 1) with `capacity`
    /// burst tokens (≥ 1, clamped up). Starts full.
    pub fn new(rate_per_sec: u64, capacity: u64) -> Self {
        assert!(rate_per_sec >= 1, "a zero-rate bucket never admits; omit the bucket instead");
        let capacity = capacity.max(1);
        TokenBucket {
            rate_per_sec,
            capacity,
            tokens: AtomicU64::new(capacity),
            last_ns: AtomicU64::new(0),
        }
    }

    /// Sustained rate, tokens per second.
    pub fn rate_per_sec(&self) -> u64 {
        self.rate_per_sec
    }

    /// Burst capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Mint the refill credit accrued up to `now_ns`. Lock-free: one
    /// CAS claims the elapsed span, a second CAS loop deposits the
    /// tokens (clamped at capacity — an idle bucket overflows, it
    /// does not bank).
    fn refill(&self, now_ns: u64) {
        loop {
            let last = self.last_ns.load(Ordering::Acquire);
            let elapsed = now_ns.saturating_sub(last);
            let minted = elapsed as u128 * self.rate_per_sec as u128 / NANOS_PER_SEC;
            if minted == 0 {
                return;
            }
            // Advance the clock by exactly the span the minted tokens
            // pay for (≤ elapsed): the sub-token remainder stays
            // unclaimed for the next refill.
            let consumed_ns = (minted * NANOS_PER_SEC / self.rate_per_sec as u128) as u64;
            if self
                .last_ns
                .compare_exchange(last, last + consumed_ns, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Another thread claimed this span; re-observe.
                continue;
            }
            let add = u64::try_from(minted).unwrap_or(u64::MAX);
            let mut cur = self.tokens.load(Ordering::Acquire);
            loop {
                let next = cur.saturating_add(add).min(self.capacity);
                match self.tokens.compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return,
                    Err(observed) => cur = observed,
                }
            }
        }
    }

    /// Acquire `n` tokens at injected instant `now_ns`, or learn how
    /// long to wait: `Err(hint_ns)` is the time until the bucket
    /// *could* have enough (other contenders may still win them). A
    /// request larger than the burst capacity is clamped to it —
    /// oversized operations drain the full bucket and proceed rather
    /// than deadlocking on tokens that can never accumulate.
    pub fn try_acquire_at(&self, now_ns: u64, n: u64) -> Result<(), u64> {
        let need = n.max(1).min(self.capacity);
        self.refill(now_ns);
        let mut cur = self.tokens.load(Ordering::Acquire);
        loop {
            if cur < need {
                let deficit = (need - cur) as u128;
                let hint = (deficit * NANOS_PER_SEC).div_ceil(self.rate_per_sec as u128);
                return Err(u64::try_from(hint).unwrap_or(u64::MAX).max(1));
            }
            match self.tokens.compare_exchange(cur, cur - need, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(()),
                Err(observed) => cur = observed,
            }
        }
    }

    /// Return `n` tokens (clamped at capacity). Used to undo a
    /// partial multi-bucket admission: ops token taken, byte tokens
    /// refused — the op token goes back.
    pub fn refund(&self, n: u64) {
        let mut cur = self.tokens.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_add(n).min(self.capacity);
            match self.tokens.compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Tokens available at `now_ns` (refills first). The gauge view.
    pub fn available_at(&self, now_ns: u64) -> u64 {
        self.refill(now_ns);
        self.tokens.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const MS: u64 = 1_000_000;
    const SEC: u64 = 1_000_000_000;

    #[test]
    fn starts_full_and_clamps_at_capacity() {
        let b = TokenBucket::new(100, 50);
        assert_eq!(b.available_at(0), 50);
        // A decade of idleness still leaves exactly the burst.
        assert_eq!(b.available_at(10 * SEC), 50);
    }

    #[test]
    fn refills_at_the_configured_rate() {
        let b = TokenBucket::new(1000, 1000);
        assert!(b.try_acquire_at(0, 1000).is_ok());
        assert_eq!(b.available_at(0), 0);
        assert_eq!(b.available_at(250 * MS), 250);
        assert_eq!(b.available_at(SEC), 1000);
    }

    #[test]
    fn fractional_refill_carries_no_drift() {
        // 3 tokens/s polled every 100 ms: naive integer refill would
        // mint 0 every poll forever. The exact clock advance mints
        // one token per ceil(1e9/3) ns regardless of cadence.
        let b = TokenBucket::new(3, 3);
        assert!(b.try_acquire_at(0, 3).is_ok());
        let mut minted = 0u64;
        for step in 1..=100 {
            minted += b.try_acquire_at(step * 100 * MS, 1).is_ok() as u64;
        }
        // 10 seconds at 3/s = 30 tokens, exactly.
        assert_eq!(minted, 30);
    }

    #[test]
    fn wait_hint_is_honest() {
        let b = TokenBucket::new(100, 10);
        assert!(b.try_acquire_at(0, 10).is_ok());
        let hint = b.try_acquire_at(0, 5).unwrap_err();
        // 5 tokens at 100/s = 50 ms.
        assert_eq!(hint, 50 * MS);
        // One nanosecond early: still refused.
        assert!(b.try_acquire_at(hint - 1, 5).is_err());
        assert!(b.try_acquire_at(hint, 5).is_ok());
    }

    #[test]
    fn oversized_requests_clamp_to_the_burst() {
        let b = TokenBucket::new(10, 4);
        // 100 tokens can never accumulate in a 4-token bucket; the
        // request drains the burst and proceeds.
        assert!(b.try_acquire_at(0, 100).is_ok());
        assert_eq!(b.available_at(0), 0);
    }

    #[test]
    fn refund_returns_tokens_up_to_capacity() {
        let b = TokenBucket::new(10, 8);
        assert!(b.try_acquire_at(0, 8).is_ok());
        b.refund(3);
        assert_eq!(b.available_at(0), 3);
        b.refund(100);
        assert_eq!(b.available_at(0), 8);
    }

    #[test]
    fn concurrent_acquirers_never_overdraw() {
        // 8 threads fight over a fixed budget; the total admitted
        // must equal exactly what the bucket ever minted.
        let b = Arc::new(TokenBucket::new(1_000_000, 1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                for _ in 0..10_000 {
                    // Frozen time: no refill beyond the initial burst.
                    got += b.try_acquire_at(0, 1).is_ok() as u64;
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000, "admitted more than the burst ever contained");
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let b = TokenBucket::new(1000, 10);
        assert!(b.try_acquire_at(SEC, 10).is_ok());
        // An older timestamp mints nothing and breaks nothing.
        assert!(b.try_acquire_at(0, 1).is_err());
        assert!(b.try_acquire_at(SEC + 10 * MS, 10).is_ok());
    }
}
