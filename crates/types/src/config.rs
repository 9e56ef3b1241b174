//! Store-wide configuration.

use serde::{Deserialize, Serialize};

/// Default page size: 64 KiB, the smaller of the two page sizes used in
/// the paper's evaluation (§5 uses 64 KiB and 256 KiB).
pub const DEFAULT_PAGE_SIZE: u64 = 64 * 1024;

/// Configuration of a BlobSeer deployment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Page size in bytes (`psize`). Must be a power of two (paper §4.1:
    /// "We assume the page size psize is a power of two").
    pub page_size: u64,
    /// Number of data providers pages are striped over.
    pub data_providers: usize,
    /// Number of metadata providers (DHT buckets) tree nodes are
    /// distributed over.
    pub metadata_providers: usize,
    /// Maximum time a blocking metadata wait may take before an
    /// operation fails with [`crate::BlobError::Timeout`]. Expressed in
    /// milliseconds to keep the type serde-friendly.
    pub metadata_wait_ms: u64,
    /// Number of worker threads each client uses for parallel page and
    /// metadata I/O (the paper's clients fetch/store pages "in
    /// parallel").
    pub client_io_threads: usize,
    /// Copies kept of every page (1 = no replication). The paper defers
    /// replication to future work (§3.2); this implementation places
    /// the extra copies on the providers that follow the primary in
    /// registry order, so replica locations are derivable without any
    /// extra metadata.
    pub replication: usize,
    /// Worker threads completing pipelined (non-blocking) updates:
    /// boundary merges, metadata weaving and version-manager
    /// notification of `write_pipelined`/`append_pipelined` run here so
    /// the caller's thread returns right after version assignment. Also
    /// the practical bound on how many unaligned pipelined updates can
    /// make progress at once (a stage may block on a lower in-flight
    /// version's metadata).
    pub pipeline_threads: usize,
    /// Writer-lease TTL in version-manager **logical-clock ticks**. An
    /// update holds a lease on its assigned version from `assign` until
    /// `complete`; pipeline stages renew it as they progress. The clock
    /// ticks on VM write-path operations (assign / renew / complete /
    /// abort) and via explicit advancement, never on wall time — so
    /// lease expiry is deterministic under test. A version whose lease
    /// lapses for `lease_ttl_ticks` ticks is presumed dead: the sweeper
    /// aborts it, the total order skips the hole, and every later
    /// version publishes. Must be ≥ 1; size it to comfortably exceed
    /// the number of VM operations a slow-but-alive writer can overlap
    /// with (spurious expiry of a *live* writer aborts its update —
    /// safe, but the writer gets [`crate::BlobError::VersionAborted`]).
    pub lease_ttl_ticks: u64,
    /// Opt-in wall-clock→tick mapping for the lease clock: when
    /// non-zero, a background ticker advances the version manager's
    /// logical clock by one tick every `lease_tick_interval_ms`
    /// milliseconds and runs a lease sweep whenever something expired.
    /// This closes the "quiet deployment" liveness gap — a wedged
    /// writer is aborted after roughly `lease_ttl_ticks *
    /// lease_tick_interval_ms` ms even with zero traffic. **Default 0
    /// (off)**: the clock then moves only with VM operations and
    /// explicit advancement, keeping lease expiry deterministic under
    /// test. See `docs/OPERATIONS.md` for tuning guidance.
    pub lease_tick_interval_ms: u64,
    /// Extra store attempts per page-store target after the first
    /// failure, before the write path gives up on that provider and
    /// fails over to the next live one in registry order. Retries catch
    /// transient faults (a flaky store erroring one request); failover
    /// catches durable ones (provider offline). `0` disables retries:
    /// the first error per target immediately triggers failover.
    pub store_retry_attempts: u32,
    /// Backoff between store retries, in milliseconds: attempt `n`
    /// (1-based) sleeps `n * store_retry_backoff_ms` before retrying —
    /// deterministic, no jitter, so tests can reason about timing.
    /// **Default 0 (no sleep)**: in-process stores fail fast and a
    /// same-thread retry is already a meaningful delay for them.
    pub store_retry_backoff_ms: u64,
    /// Slice a blocking metadata wait into `metadata_wait_slice_ms`
    /// chunks, running a **self-help lease sweep** between slices: a
    /// reader (or higher update) blocked on a dead writer's missing
    /// tree node then recovers in roughly one slice — the sweep aborts
    /// the expired version, abort repair fills the hole — instead of
    /// burning the full `metadata_wait_ms` and failing. `0` disables
    /// slicing (one uninterrupted block, the pre-PR 7 behaviour). The
    /// overall deadline is still `metadata_wait_ms`; slicing only
    /// changes what happens *during* the wait, and block-time metrics
    /// still record one sample per blocked call.
    pub metadata_wait_slice_ms: u64,
}

impl StoreConfig {
    /// Validate invariants, normalising nothing.
    pub fn validate(&self) -> Result<(), String> {
        if !self.page_size.is_power_of_two() {
            return Err(format!("page_size {} is not a power of two", self.page_size));
        }
        if self.data_providers == 0 {
            return Err("at least one data provider is required".into());
        }
        if self.metadata_providers == 0 {
            return Err("at least one metadata provider is required".into());
        }
        if self.client_io_threads == 0 {
            return Err("client_io_threads must be at least 1".into());
        }
        if self.replication == 0 {
            return Err("replication must be at least 1 (1 = no extra copies)".into());
        }
        if self.replication > self.data_providers {
            return Err(format!(
                "replication {} exceeds the {} data providers",
                self.replication, self.data_providers
            ));
        }
        if self.pipeline_threads == 0 {
            return Err("pipeline_threads must be at least 1".into());
        }
        if self.lease_ttl_ticks == 0 {
            return Err("lease_ttl_ticks must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            page_size: DEFAULT_PAGE_SIZE,
            data_providers: 16,
            metadata_providers: 16,
            metadata_wait_ms: 10_000,
            client_io_threads: 8,
            replication: 1,
            pipeline_threads: 4,
            lease_ttl_ticks: 1 << 20,
            lease_tick_interval_ms: 0,
            store_retry_attempts: 1,
            store_retry_backoff_ms: 0,
            metadata_wait_slice_ms: 250,
        }
    }
}

/// Per-tenant rate quota for multi-tenant QoS (PR 8).
///
/// A quota is two token buckets (bytes/s and ops/s, each with its own
/// burst capacity) plus a scheduling weight for the deficit-weighted
/// round-robin pipeline drain. `0` for a rate means **unlimited** on
/// that axis (the corresponding bucket is not created at all, so the
/// fast path pays nothing for it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantQuota {
    /// Sustained payload bytes per second admitted into updates
    /// (writes, appends, pipelined submissions). `0` = unlimited.
    pub bytes_per_sec: u64,
    /// Sustained update operations per second. `0` = unlimited.
    pub ops_per_sec: u64,
    /// Byte-bucket burst capacity: how many bytes may be admitted
    /// back-to-back after an idle period. `0` defaults to one second's
    /// worth (`bytes_per_sec`).
    pub burst_bytes: u64,
    /// Op-bucket burst capacity. `0` defaults to `ops_per_sec`.
    pub burst_ops: u64,
    /// Scheduling weight for the pipeline's deficit-weighted
    /// round-robin: a weight-3 tenant drains ~3x the bytes per round
    /// of a weight-1 tenant under contention. Must be ≥ 1.
    pub weight: u32,
}

impl TenantQuota {
    /// A quota that never throttles (both rates unlimited, weight 1).
    pub fn unlimited() -> Self {
        TenantQuota { bytes_per_sec: 0, ops_per_sec: 0, burst_bytes: 0, burst_ops: 0, weight: 1 }
    }

    /// Effective byte-bucket burst: explicit, or one second's refill.
    pub fn effective_burst_bytes(&self) -> u64 {
        if self.burst_bytes != 0 {
            self.burst_bytes
        } else {
            self.bytes_per_sec
        }
    }

    /// Effective op-bucket burst: explicit, or one second's refill.
    pub fn effective_burst_ops(&self) -> u64 {
        if self.burst_ops != 0 {
            self.burst_ops
        } else {
            self.ops_per_sec
        }
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota::unlimited()
    }
}

/// A named tenant's quota inside a [`QosConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantQuotaEntry {
    /// Raw tenant id (see `TenantId`).
    pub tenant: u32,
    /// That tenant's quota.
    pub quota: TenantQuota,
}

/// Multi-tenant QoS configuration, passed to `Builder::qos` (PR 8).
///
/// QoS is **opt-in**: a store built without it has no admission hook
/// at all (the zero-copy hot path is untouched). With it, every
/// update acquires tokens from its tenant's buckets before doing any
/// work, and the pipeline pool drains per-tenant completion queues by
/// deficit-weighted round-robin instead of FIFO. Quotas are
/// runtime-adjustable afterwards via `BlobSeer::set_tenant_quota`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosConfig {
    /// Quota for every tenant without an explicit entry — including
    /// `TenantId::DEFAULT`, which all untagged callers share. Defaults
    /// to unlimited, so enabling QoS alone throttles nobody.
    pub default_quota: TenantQuota,
    /// Per-tenant overrides.
    pub tenants: Vec<TenantQuotaEntry>,
    /// Deadline for **blocking** update admission (`Blob::write` /
    /// `Blob::append`): a throttled caller waits up to this long for
    /// tokens before failing with `BlobError::QuotaExceeded`.
    /// Non-blocking submission (`*_pipelined`) never waits — it fails
    /// typed immediately. Milliseconds, serde-friendly.
    pub max_wait_ms: u64,
}

impl QosConfig {
    /// Validate invariants (weights ≥ 1).
    pub fn validate(&self) -> Result<(), String> {
        if self.default_quota.weight == 0 {
            return Err("default_quota.weight must be at least 1".into());
        }
        for e in &self.tenants {
            if e.quota.weight == 0 {
                return Err(format!("tenant {} weight must be at least 1", e.tenant));
            }
        }
        Ok(())
    }

    /// Set the quota shared by all tenants without explicit entries.
    pub fn with_default_quota(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// Add (or replace) one tenant's quota.
    pub fn with_tenant(mut self, tenant: u32, quota: TenantQuota) -> Self {
        self.tenants.retain(|e| e.tenant != tenant);
        self.tenants.push(TenantQuotaEntry { tenant, quota });
        self
    }

    /// Set the blocking-admission deadline (milliseconds).
    pub fn with_max_wait_ms(mut self, ms: u64) -> Self {
        self.max_wait_ms = ms;
        self
    }
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            default_quota: TenantQuota::unlimited(),
            tenants: Vec::new(),
            max_wait_ms: 5_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(StoreConfig::default().validate().is_ok());
    }

    #[test]
    fn default_qos_is_valid_and_unlimited() {
        let qos = QosConfig::default();
        assert!(qos.validate().is_ok());
        assert_eq!(qos.default_quota, TenantQuota::unlimited());
        assert_eq!(qos.default_quota.bytes_per_sec, 0);
    }

    #[test]
    fn qos_rejects_zero_weight() {
        let mut qos = QosConfig::default();
        qos.default_quota.weight = 0;
        assert!(qos.validate().is_err());
        let qos = QosConfig::default()
            .with_tenant(3, TenantQuota { weight: 0, ..TenantQuota::unlimited() });
        assert!(qos.validate().is_err());
    }

    #[test]
    fn with_tenant_replaces_existing_entries() {
        let q1 = TenantQuota { bytes_per_sec: 100, ..TenantQuota::unlimited() };
        let q2 = TenantQuota { bytes_per_sec: 200, ..TenantQuota::unlimited() };
        let qos = QosConfig::default().with_tenant(7, q1).with_tenant(7, q2);
        assert_eq!(qos.tenants.len(), 1);
        assert_eq!(qos.tenants[0].quota.bytes_per_sec, 200);
    }

    #[test]
    fn burst_defaults_to_one_second_of_refill() {
        let q = TenantQuota { bytes_per_sec: 1024, ops_per_sec: 8, ..TenantQuota::unlimited() };
        assert_eq!(q.effective_burst_bytes(), 1024);
        assert_eq!(q.effective_burst_ops(), 8);
        let q = TenantQuota { bytes_per_sec: 1024, burst_bytes: 64, ..TenantQuota::unlimited() };
        assert_eq!(q.effective_burst_bytes(), 64);
    }

    #[test]
    fn rejects_non_power_of_two_pages() {
        let cfg = StoreConfig { page_size: 3000, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_providers() {
        let cfg = StoreConfig { data_providers: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = StoreConfig { metadata_providers: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = StoreConfig { client_io_threads: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_replication() {
        let cfg = StoreConfig { replication: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = StoreConfig { replication: 17, data_providers: 16, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = StoreConfig { replication: 3, data_providers: 16, ..Default::default() };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rejects_zero_pipeline_threads() {
        let cfg = StoreConfig { pipeline_threads: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_lease_ttl() {
        let cfg = StoreConfig { lease_ttl_ticks: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }
}
