//! Engine-side multi-tenant QoS (PR 8): admission control on the
//! update paths and the deficit-weighted drain of completion stages.
//!
//! QoS is **opt-in** via [`crate::Builder::qos`]. When it is off,
//! `Engine::qos` is `None` and every hook in this module is a no-op —
//! the hot paths pay one `Option` check. When it is on:
//!
//! * **blocking updates** (`Blob::write` / `Blob::append`) call
//!   [`admit_blocking`] before doing any work: tokens are acquired
//!   from the tenant's byte and op buckets, waiting (bounded by
//!   `QosConfig::max_wait_ms`) when the tenant is over its rate, and
//!   failing typed ([`BlobError::QuotaExceeded`]) at the deadline;
//! * **pipelined submissions** (`write_pipelined` / `append_pipelined`)
//!   call [`admit_nonblocking`] — a refused submission fails
//!   immediately, with nothing stored and no version assigned;
//! * **completion stages** are queued through [`dispatch`]: instead of
//!   the engine pool's FIFO, each stage enters its tenant's lane in a
//!   [`FairQueue`] (cost = payload bytes, quantum = page size) and a
//!   drain *ticket* goes to the pool — each ticket serves the next
//!   deficit-weighted round-robin pick, which need not be the item its
//!   own push queued. Under contention a weight-3 tenant's stages
//!   drain ~3x the bytes of a weight-1 tenant's, and a quiet tenant is
//!   served within one round instead of behind a noisy backlog.
//!
//! Admission runs *before* the per-blob order lock and before
//! `prepare`, so a refused update has zero side effects: no version
//! assigned, no page stored, no pin taken. Counters conserve —
//! every settled submission increments exactly one of
//! `blobseer_qos_admitted_total` / `blobseer_qos_throttled_total`.
//!
//! **Ordering caveat.** Within one tenant, lanes are FIFO, so a
//! single-tenant blob keeps its pipelined stages in version order —
//! the invariant `Engine::order_locks` exists to protect. Pipelining
//! to the *same blob from different tenants* can let the DRR serve a
//! higher version's stage first; that stage then blocks (bounded by
//! the metadata wait + self-help sweep) until the lower version's
//! stage runs. Safe, but it wastes a pool worker — tag each blob's
//! pipelined traffic with a single tenant (see `docs/OPERATIONS.md`,
//! "tenant quotas").
//!
//! Time: admission reads the metrics crate's process clock via
//! [`clock::precise_now`] (a real clock read, so a throttled loop sees
//! time advance whatever else is running); the buckets themselves are
//! the injected-time primitives from `blobseer_qos`, so the sim and
//! tests drive identical logic in virtual time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use blobseer_metrics::{clock, AtomicHistogram, Counter};
use blobseer_qos::{FairQueue, QuotaSpec, TenantRegistry};
use blobseer_types::{BlobError, QosConfig, Result, TenantId, TenantQuota};
use parking_lot::Mutex;

use crate::engine::Engine;
use crate::stats::OpLatency;

/// Cap on a single admission-loop sleep: a blocked writer re-checks at
/// least this often, so runtime quota raises ([`EngineQos::set_quota`])
/// take effect promptly even against a long wait hint.
const MAX_SLEEP: Duration = Duration::from_millis(10);

/// A queued pipelined completion stage.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Admission / throttle counters and wait histogram of one tenant.
/// Created lazily on the tenant's first submission.
pub(crate) struct TenantQosMetrics {
    pub admitted: Counter,
    pub throttled: Counter,
    pub wait: AtomicHistogram,
}

/// Typed per-tenant QoS statistics, from
/// [`crate::BlobSeer::tenant_qos_stats`]. Conservation invariant:
/// every settled update submission is counted in exactly one of
/// `admitted` / `throttled`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantQosStats {
    /// Updates that acquired their tokens (including after a bounded
    /// wait on the blocking paths).
    pub admitted: u64,
    /// Updates refused with [`BlobError::QuotaExceeded`].
    pub throttled: u64,
    /// Time blocked in admission waiting for tokens (blocking paths
    /// only; a non-blocking submission never waits). Lifetime digest.
    pub wait: OpLatency,
}

/// The engine's QoS state: the tenant registry (buckets + weights),
/// the DRR queue for pipelined completion stages, and lazily-created
/// per-tenant metrics.
pub(crate) struct EngineQos {
    pub registry: TenantRegistry,
    queue: FairQueue<Job>,
    max_wait: Duration,
    pub tenants: Mutex<HashMap<u32, Arc<TenantQosMetrics>>>,
}

impl EngineQos {
    /// Build from a validated [`QosConfig`]; `quantum` is the DRR
    /// per-visit byte quantum (the engine passes the page size).
    pub fn new(config: &QosConfig, quantum: u64) -> EngineQos {
        let registry = TenantRegistry::new(spec_of(&config.default_quota));
        for e in &config.tenants {
            registry.set_quota(e.tenant as u64, spec_of(&e.quota));
        }
        EngineQos {
            registry,
            queue: FairQueue::new(quantum.max(1)),
            max_wait: Duration::from_millis(config.max_wait_ms),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Replace `tenant`'s quota with fresh, full buckets (runtime
    /// adjustment; in-flight admissions finish against the old state).
    pub fn set_quota(&self, tenant: TenantId, quota: &TenantQuota) {
        self.registry.set_quota(tenant.raw() as u64, spec_of(quota));
    }

    /// The quota `tenant` currently runs under.
    pub fn quota(&self, tenant: TenantId) -> TenantQuota {
        quota_of(self.registry.quota(tenant.raw() as u64))
    }

    /// The typed stats view for `tenant` (zeroes before its first
    /// submission).
    pub fn stats_of(&self, tenant: TenantId) -> TenantQosStats {
        match self.tenants.lock().get(&tenant.raw()) {
            Some(m) => TenantQosStats {
                admitted: m.admitted.value(),
                throttled: m.throttled.value(),
                wait: OpLatency::from_snapshot(&m.wait.snapshot()),
            },
            None => TenantQosStats::default(),
        }
    }

    fn metrics_of(&self, tenant: TenantId) -> Arc<TenantQosMetrics> {
        Arc::clone(self.tenants.lock().entry(tenant.raw()).or_insert_with(|| {
            Arc::new(TenantQosMetrics {
                admitted: Counter::new(),
                throttled: Counter::new(),
                wait: AtomicHistogram::new(),
            })
        }))
    }
}

impl std::fmt::Debug for EngineQos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineQos")
            .field("max_wait", &self.max_wait)
            .field("queued", &self.queue.len())
            .finish()
    }
}

/// `TenantQuota` → the qos crate's raw-integer spec.
fn spec_of(q: &TenantQuota) -> QuotaSpec {
    QuotaSpec {
        bytes_per_sec: q.bytes_per_sec,
        ops_per_sec: q.ops_per_sec,
        burst_bytes: q.burst_bytes,
        burst_ops: q.burst_ops,
        weight: q.weight.max(1),
    }
}

/// The reverse mapping, for [`crate::BlobSeer::tenant_quota`].
fn quota_of(s: QuotaSpec) -> TenantQuota {
    TenantQuota {
        bytes_per_sec: s.bytes_per_sec,
        ops_per_sec: s.ops_per_sec,
        burst_bytes: s.burst_bytes,
        burst_ops: s.burst_ops,
        weight: s.weight,
    }
}

/// Blocking admission (`Blob::write` / `Blob::append`): acquire one op
/// token plus `payload_bytes` byte tokens, sleeping out the bucket's
/// wait hint (in [`MAX_SLEEP`] slices) up to `QosConfig::max_wait_ms`,
/// then fail typed. No-op when QoS is off.
pub(crate) fn admit_blocking(engine: &Engine, tenant: TenantId, payload_bytes: u64) -> Result<()> {
    let Some(qos) = &engine.qos else { return Ok(()) };
    let state = qos.registry.state(tenant.raw() as u64);
    let m = qos.metrics_of(tenant);
    if !state.is_limited() {
        m.admitted.increment();
        return Ok(());
    }
    let start = clock::precise_now();
    let deadline = start.saturating_add(qos.max_wait.as_nanos() as u64);
    loop {
        let now = clock::precise_now();
        match state.try_admit_at(now, payload_bytes) {
            Ok(()) => {
                m.admitted.increment();
                m.wait.record(now.saturating_sub(start));
                return Ok(());
            }
            Err(hint_ns) => {
                if now >= deadline {
                    m.throttled.increment();
                    return Err(BlobError::QuotaExceeded { tenant });
                }
                let sleep = hint_ns.min(deadline - now).min(MAX_SLEEP.as_nanos() as u64).max(1);
                std::thread::sleep(Duration::from_nanos(sleep));
            }
        }
    }
}

/// Non-blocking admission (`write_pipelined` / `append_pipelined`):
/// one shot — a submission over quota fails immediately rather than
/// stalling the caller a pipelined API promised not to block. No-op
/// when QoS is off.
pub(crate) fn admit_nonblocking(
    engine: &Engine,
    tenant: TenantId,
    payload_bytes: u64,
) -> Result<()> {
    let Some(qos) = &engine.qos else { return Ok(()) };
    let state = qos.registry.state(tenant.raw() as u64);
    let m = qos.metrics_of(tenant);
    if state.is_limited() && state.try_admit_at(clock::precise_now(), payload_bytes).is_err() {
        m.throttled.increment();
        return Err(BlobError::QuotaExceeded { tenant });
    }
    m.admitted.increment();
    Ok(())
}

/// Queue a pipelined completion stage. QoS off: straight onto the
/// engine's pool (FIFO, as with no QoS at all). QoS on: the job
/// enters its tenant's DRR lane and a drain ticket goes to the pool —
/// one ticket per push, each ticket serving the next DRR pick (not
/// necessarily the item its own push queued). Every push
/// happens-before its ticket's pop, so a ticket never finds the queue
/// short.
pub(crate) fn dispatch(engine: &Arc<Engine>, tenant: TenantId, cost: u64, job: Job) {
    let Some(qos) = &engine.qos else {
        engine.pool.execute(job);
        return;
    };
    let weight = qos.registry.state(tenant.raw() as u64).weight();
    qos.queue.push(tenant.raw() as u64, weight, cost.max(1), job);
    let eng = Arc::clone(engine);
    engine.pool.execute(move || {
        if let Some(qos) = &eng.qos {
            if let Some(job) = qos.queue.pop() {
                job();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use blobseer_types::{BlobError, QosConfig, TenantId, TenantQuota};

    fn store(qos: Option<QosConfig>) -> crate::BlobSeer {
        let mut b = crate::BlobSeer::builder()
            .page_size(1024)
            .data_providers(2)
            .metadata_providers(2)
            .io_threads(1);
        if let Some(q) = qos {
            b = b.qos(q);
        }
        b.build().unwrap()
    }

    #[test]
    fn qos_off_is_fully_inert() {
        let store = store(None);
        let blob = store.create().for_tenant(TenantId(3));
        blob.append(&[1u8; 2048]).unwrap();
        let p = blob.append_pipelined(crate::Bytes::from(vec![2u8; 2048])).unwrap();
        p.wait().unwrap();
        // The facade methods fail typed rather than pretending.
        assert!(store.tenant_quota(TenantId(3)).is_err());
        assert!(store.tenant_qos_stats(TenantId(3)).is_err());
        assert!(store.set_tenant_quota(TenantId(3), TenantQuota::unlimited()).is_err());
        assert!(!store.metrics_text().contains("blobseer_qos_"));
    }

    #[test]
    fn nonblocking_submissions_fail_typed_over_quota() {
        let config = QosConfig::default()
            .with_tenant(7, TenantQuota { ops_per_sec: 2, ..TenantQuota::unlimited() });
        let store = store(Some(config));
        let blob = store.create().for_tenant(TenantId(7));
        let before = blob.recent_version().unwrap();
        let p1 = blob.append_pipelined(crate::Bytes::from(vec![1u8; 1024])).unwrap();
        let p2 = blob.append_pipelined(crate::Bytes::from(vec![2u8; 1024])).unwrap();
        // Burst of 2 ops spent; the third submission is refused with
        // zero side effects — no version was assigned.
        let err = blob.append_pipelined(crate::Bytes::from(vec![3u8; 1024])).unwrap_err();
        assert!(matches!(err, BlobError::QuotaExceeded { tenant } if tenant == TenantId(7)));
        let v = p2.wait().unwrap();
        p1.wait().unwrap();
        blob.sync(v).unwrap();
        assert_eq!(v.0, before.0 + 2, "the throttled submission left no version hole");
        // Conservation: every settled submission counted exactly once.
        let stats = store.tenant_qos_stats(TenantId(7)).unwrap();
        assert_eq!((stats.admitted, stats.throttled), (2, 1));
    }

    #[test]
    fn blocking_updates_wait_then_fail_at_the_deadline() {
        let config = QosConfig::default()
            .with_tenant(1, TenantQuota { ops_per_sec: 1, ..TenantQuota::unlimited() })
            .with_max_wait_ms(50);
        let store = store(Some(config));
        let blob = store.create().for_tenant(TenantId(1));
        blob.append(&[1u8; 64]).unwrap(); // burst of 1 spent
        let t0 = std::time::Instant::now();
        let err = blob.append(&[2u8; 64]).unwrap_err();
        assert!(matches!(err, BlobError::QuotaExceeded { .. }));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(50), "waited out the deadline");
        let stats = store.tenant_qos_stats(TenantId(1)).unwrap();
        assert_eq!((stats.admitted, stats.throttled), (1, 1));
        assert!(stats.wait.count >= 1, "the admitted op recorded its (zero) wait");
    }

    #[test]
    fn blocking_updates_ride_out_a_short_throttle() {
        // 1 op burst, 20 ops/s refill: the second append waits ~50 ms
        // for a token instead of failing (deadline is 5 s).
        let config = QosConfig::default().with_tenant(
            1,
            TenantQuota { ops_per_sec: 20, burst_ops: 1, ..TenantQuota::unlimited() },
        );
        let store = store(Some(config));
        let blob = store.create().for_tenant(TenantId(1));
        blob.append(&[1u8; 64]).unwrap();
        blob.append(&[2u8; 64]).unwrap(); // waits, succeeds
        let stats = store.tenant_qos_stats(TenantId(1)).unwrap();
        assert_eq!((stats.admitted, stats.throttled), (2, 0));
    }

    #[test]
    fn runtime_quota_adjustment_unthrottles() {
        let config = QosConfig::default()
            .with_tenant(4, TenantQuota { ops_per_sec: 1, ..TenantQuota::unlimited() })
            .with_max_wait_ms(20);
        let store = store(Some(config));
        let blob = store.create().for_tenant(TenantId(4));
        blob.append(&[1u8; 64]).unwrap();
        assert!(blob.append(&[2u8; 64]).is_err(), "over the 1 op/s quota");
        store.set_tenant_quota(TenantId(4), TenantQuota::unlimited()).unwrap();
        blob.append(&[3u8; 64]).unwrap();
        assert_eq!(store.tenant_quota(TenantId(4)), Ok(TenantQuota::unlimited()));
    }

    #[test]
    fn exposition_renders_labeled_tenant_series() {
        let config = QosConfig::default()
            .with_tenant(2, TenantQuota { bytes_per_sec: 1 << 30, ..TenantQuota::unlimited() });
        let store = store(Some(config));
        store.create().for_tenant(TenantId(2)).append(&[1u8; 1024]).unwrap();
        store.create().for_tenant(TenantId(9)).append(&[2u8; 1024]).unwrap();
        let text = store.metrics_text();
        assert!(text.contains("# TYPE blobseer_qos_admitted_total counter"));
        assert!(text.contains("blobseer_qos_admitted_total{tenant=\"2\"} 1"));
        assert!(text.contains("blobseer_qos_admitted_total{tenant=\"9\"} 1"));
        assert!(text.contains("blobseer_qos_throttled_total{tenant=\"2\"} 0"));
        assert!(text.contains("blobseer_qos_wait_seconds_count{tenant=\"2\"}"));
        // Token gauge only for the limited axis of the limited tenant.
        assert!(text.contains("blobseer_qos_tokens_bytes{tenant=\"2\"}"));
        assert!(!text.contains("blobseer_qos_tokens_ops{tenant=\"2\"}"));
        assert!(!text.contains("blobseer_qos_tokens_bytes{tenant=\"9\"}"));
        // Per-provider splits render alongside (satellite b).
        assert!(text.contains("# TYPE blobseer_provider_store_latency_seconds summary"));
        assert!(text.contains("blobseer_provider_store_latency_seconds_count{provider=\"0\"}"));
        assert!(text.contains("blobseer_provider_fetch_latency_seconds_count{provider=\"1\"}"));
    }

    #[test]
    fn weighted_drain_conserves_all_pipelined_updates() {
        // Two tenants, different weights, one blob each: every queued
        // stage must run exactly once and publish (the DRR drain must
        // not lose or double-serve tickets).
        let config = QosConfig::default()
            .with_tenant(1, TenantQuota { weight: 1, ..TenantQuota::unlimited() })
            .with_tenant(2, TenantQuota { weight: 4, ..TenantQuota::unlimited() });
        let store = store(Some(config));
        let blobs =
            [store.create().for_tenant(TenantId(1)), store.create().for_tenant(TenantId(2))];
        let mut pending = Vec::new();
        for round in 0..8u8 {
            for blob in &blobs {
                pending.push(blob.append_pipelined(crate::Bytes::from(vec![round; 1024])).unwrap());
            }
        }
        for p in pending {
            let blob_id = p.blob_id();
            let v = p.wait().unwrap();
            store.sync(blob_id, v).unwrap();
        }
        for blob in &blobs {
            assert_eq!(blob.latest().unwrap().len(), 8 * 1024);
            let stats = store.tenant_qos_stats(blob.tenant()).unwrap();
            assert_eq!((stats.admitted, stats.throttled), (8, 0));
        }
    }
}
