//! Multi-tenant QoS primitives for the BlobSeer reproduction (PR 8).
//!
//! The paper's regime is *heavy access concurrency* — many clients
//! hammering one deployment — and without admission control one hot
//! client starves everyone: ingest is unbounded and the shared pools
//! drain FIFO. This crate provides the three mechanisms the engine
//! composes into per-tenant isolation:
//!
//! * [`TokenBucket`] — a lock-free rate limiter (atomic token count
//!   plus an atomic refill clock, CAS-advanced) used for per-tenant
//!   bytes/s and ops/s quotas with burst capacity;
//! * [`FairQueue`] — a deficit-weighted round-robin queue: per-tenant
//!   FIFO sub-queues drained by byte-cost deficit counters, so a
//!   weight-3 tenant gets ~3x the drain bandwidth of a weight-1
//!   tenant under contention, and no tenant is starved;
//! * [`TenantRegistry`] — tenant id → live [`TenantState`] (buckets +
//!   weight), lazily populated from a default quota and
//!   runtime-adjustable.
//!
//! **Time is always injected.** Nothing in this crate reads a clock:
//! every method takes `now_ns`, a monotonic nanosecond timestamp. The
//! engine passes the `blobseer_metrics` process clock
//! (`clock::precise_now`); tests pass virtual time
//! (`tests/isolation.rs` runs a whole noisy-neighbour scenario that
//! way), which makes every throttling decision deterministic.

mod bucket;
mod queue;
mod registry;

pub use bucket::TokenBucket;
pub use queue::FairQueue;
pub use registry::{QuotaSpec, TenantRegistry, TenantState};
