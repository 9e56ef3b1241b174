//! Deployment configuration.

use std::sync::Arc;
use std::time::Duration;

use blobseer_meta::MetaStore;
use blobseer_provider::{PageStore, ProviderManager};
use blobseer_rt::ThreadPool;
use blobseer_types::{BlobError, PageIdGen, QosConfig, Result, StoreConfig};
use blobseer_version::{ConcurrencyMode, VersionManager};

use crate::engine::Engine;
use crate::metrics::EngineMetrics;
use crate::BlobSeer;

/// Configures and builds a [`BlobSeer`] deployment.
///
/// Defaults mirror [`StoreConfig::default`]: 64 KiB pages (the paper's
/// smaller evaluation page size), 16 data + 16 metadata providers and
/// the paper's concurrent metadata mode. Placement is not a setting:
/// pages always go round robin over the eligible providers.
#[derive(Clone)]
pub struct Builder {
    config: StoreConfig,
    mode: ConcurrencyMode,
    stores: Option<Vec<Arc<dyn PageStore>>>,
    qos: Option<QosConfig>,
}

impl std::fmt::Debug for Builder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Builder")
            .field("config", &self.config)
            .field("mode", &self.mode)
            .field("custom_stores", &self.stores.as_ref().map(Vec::len))
            .field("qos", &self.qos)
            .finish()
    }
}

impl Builder {
    /// Builder with default settings.
    pub fn new() -> Self {
        Builder {
            config: StoreConfig::default(),
            mode: ConcurrencyMode::Concurrent,
            stores: None,
            qos: None,
        }
    }

    /// Page size (`psize`) in bytes; must be a power of two.
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Number of data providers pages are striped over.
    pub fn data_providers(mut self, n: usize) -> Self {
        self.config.data_providers = n;
        self
    }

    /// Number of metadata providers (DHT buckets).
    pub fn metadata_providers(mut self, n: usize) -> Self {
        self.config.metadata_providers = n;
        self
    }

    /// Worker threads used for parallel page/metadata I/O.
    pub fn io_threads(mut self, n: usize) -> Self {
        self.config.client_io_threads = n;
        self
    }

    /// Bound on blocking waits (SYNC, in-flight metadata nodes).
    pub fn metadata_wait(mut self, timeout: Duration) -> Self {
        self.config.metadata_wait_ms = timeout.as_millis() as u64;
        self
    }

    /// Copies kept of every page (1 = no replication). Replicas go to
    /// the providers following the primary in registry order, so reads
    /// can fall back without extra metadata (the paper defers
    /// replication to future work, §3.2).
    pub fn replication(mut self, copies: usize) -> Self {
        self.config.replication = copies;
        self
    }

    /// Writer-lease TTL in version-manager logical-clock ticks (see
    /// [`StoreConfig::lease_ttl_ticks`]): how long an in-flight update
    /// may go without a lease renewal before the sweeper presumes its
    /// writer dead and aborts the version. The clock is logical — it
    /// advances with VM write operations and explicit
    /// [`crate::BlobSeer::advance_lease_clock`] calls — so expiry is
    /// deterministic under test.
    pub fn lease_ttl_ticks(mut self, ticks: u64) -> Self {
        self.config.lease_ttl_ticks = ticks;
        self
    }

    /// Opt-in wall-clock→tick mapping (see
    /// [`StoreConfig::lease_tick_interval_ms`]): when `ms > 0`, a
    /// background ticker thread advances the lease clock by one tick
    /// every `ms` milliseconds and sweeps whenever something expired —
    /// so a wedged writer in a fully *quiet* deployment is still
    /// aborted after ~`lease_ttl_ticks × ms` milliseconds of real
    /// time, with no traffic and no external
    /// [`crate::BlobSeer::advance_lease_clock`] calls. Default `0`
    /// (off): expiry then stays fully deterministic, which is what
    /// tests want. The ticker holds only a weak reference and exits by
    /// itself when the deployment is dropped.
    ///
    /// # Examples
    ///
    /// ```
    /// let store = blobseer::BlobSeer::builder()
    ///     .data_providers(2)
    ///     .metadata_providers(2)
    ///     .io_threads(1)
    ///     .lease_ttl_ticks(10_000)
    ///     .lease_tick_interval_ms(1) // wedged writers recover in ~10 s of wall time
    ///     .build()?;
    /// assert_eq!(store.config().lease_tick_interval_ms, 1);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn lease_tick_interval_ms(mut self, ms: u64) -> Self {
        self.config.lease_tick_interval_ms = ms;
        self
    }

    /// Back each data provider with a caller-supplied [`PageStore`]
    /// (one provider per store, in order — overriding
    /// [`Builder::data_providers`]). This is the fault-injection seam:
    /// wrap stores in [`blobseer_provider::FaultPlan`] and keep the
    /// handles to take providers offline, inject errors or flip bits
    /// mid-workload.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use blobseer_provider::{FaultPlan, MemoryPageStore, PageStore};
    ///
    /// let plans: Vec<Arc<FaultPlan>> = (0..3)
    ///     .map(|_| Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new()))))
    ///     .collect();
    /// let store = blobseer::BlobSeer::builder()
    ///     .metadata_providers(2)
    ///     .io_threads(1)
    ///     .replication(2)
    ///     .page_stores(plans.iter().map(|p| Arc::clone(p) as Arc<dyn PageStore>).collect())
    ///     .build()?;
    /// let blob = store.create();
    /// plans[0].set_offline(true); // kill a provider; writes now fail over
    /// blob.append(&[7u8; 64])?;
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn page_stores(mut self, stores: Vec<Arc<dyn PageStore>>) -> Self {
        self.stores = Some(stores);
        self
    }

    /// Opt into multi-tenant QoS: per-tenant token-bucket admission on
    /// the update paths and deficit-weighted (instead of FIFO) drain of
    /// pipelined completion stages. Off by default — without this call
    /// the store behaves exactly as before and tenant tags are inert.
    /// See [`blobseer_types::QosConfig`] and `docs/OPERATIONS.md`
    /// ("tenant quotas").
    ///
    /// # Examples
    ///
    /// ```
    /// use blobseer::{QosConfig, TenantId, TenantQuota};
    ///
    /// let store = blobseer::BlobSeer::builder()
    ///     .data_providers(2)
    ///     .metadata_providers(2)
    ///     .io_threads(1)
    ///     .qos(QosConfig::default().with_tenant(
    ///         7,
    ///         TenantQuota { ops_per_sec: 2, ..TenantQuota::unlimited() },
    ///     ))
    ///     .build()?;
    /// let blob = store.create().for_tenant(TenantId(7));
    /// blob.append(&[1u8; 16])?;
    /// blob.append(&[2u8; 16])?;
    /// // Burst of 2 ops spent; the next append waits, then fails typed.
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn qos(mut self, config: QosConfig) -> Self {
        self.qos = Some(config);
        self
    }

    /// Concurrency mode — [`ConcurrencyMode::SerializedMetadata`] is the
    /// ablation baseline measured by experiment E5.
    pub fn concurrency_mode(mut self, mode: ConcurrencyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Start from an explicit [`StoreConfig`].
    pub fn config(mut self, config: StoreConfig) -> Self {
        self.config = config;
        self
    }

    /// Validate the configuration and assemble the deployment.
    pub fn build(self) -> Result<BlobSeer> {
        let Builder { mut config, mode, stores, qos } = self;
        if let Some(stores) = &stores {
            config.data_providers = stores.len();
        }
        config.validate().map_err(BlobError::Storage)?;
        if let Some(q) = &qos {
            q.validate().map_err(BlobError::Storage)?;
        }
        let wait = Duration::from_millis(config.metadata_wait_ms);
        let providers = match stores {
            Some(stores) => ProviderManager::new(stores),
            None => ProviderManager::with_memory_providers(config.data_providers),
        };
        let engine = Engine {
            vm: VersionManager::new(config.page_size, mode, wait)
                .with_lease_ttl(config.lease_ttl_ticks),
            meta: MetaStore::new(config.metadata_providers, wait),
            metrics: EngineMetrics::default(),
            providers,
            pool: ThreadPool::new(config.client_io_threads, "blobseer-io"),
            order_locks: Default::default(),
            sweep_gate: Default::default(),
            sweep_queued: Default::default(),
            update_pins: Default::default(),
            pidgen: PageIdGen::new(),
            qos: qos.map(|q| crate::qos::EngineQos::new(&q, config.page_size)),
            config,
        };
        let store = BlobSeer { engine: Arc::new(engine) };
        // The self-help hook closes over the engine that owns the
        // MetaStore — install it post-construction through a Weak so
        // the cycle cannot leak the deployment.
        let weak = Arc::downgrade(&store.engine);
        store.engine.meta.set_self_help(Arc::new(move || {
            if let Some(engine) = weak.upgrade() {
                crate::abort::self_help_on_wait(&engine);
            }
        }));
        if store.engine.config.lease_tick_interval_ms > 0 {
            spawn_lease_ticker(&store.engine);
        }
        Ok(store)
    }
}

impl Default for Builder {
    fn default() -> Self {
        Self::new()
    }
}

/// The opt-in wall-clock lease ticker (`lease_tick_interval_ms > 0`):
/// maps *absolute elapsed time* to ticks, plus a sweep whenever the
/// cheap expiry check fires. Holds only a [`std::sync::Weak`] on the
/// engine — the thread notices the deployment's drop within one
/// interval and exits, so it is deliberately detached (nothing to
/// join, no shutdown plumbing).
///
/// Each wakeup advances the clock to `elapsed / interval` rather than
/// by one: an oversleeping ticker (loaded box, coarse OS timer versus
/// a 1 ms interval) then *catches up* instead of silently stretching
/// every tick, so `lease_ttl_ticks × interval` stays an honest
/// wall-clock bound on wedged-writer recovery. Elapsed time is read
/// off the metrics crate's monotone process clock
/// ([`clock::precise_now`]).
fn spawn_lease_ticker(engine: &Arc<Engine>) {
    use blobseer_metrics::clock;
    let weak = Arc::downgrade(engine);
    let interval = Duration::from_millis(engine.config.lease_tick_interval_ms);
    let interval_ns = interval.as_nanos() as u64;
    let spawned = std::thread::Builder::new().name("blobseer-lease-tick".into()).spawn(move || {
        let t0 = clock::precise_now();
        let mut ticked = 0u64;
        loop {
            std::thread::sleep(interval);
            let Some(engine) = weak.upgrade() else { break };
            let target = (clock::precise_now() - t0) / interval_ns;
            if target > ticked {
                engine.vm.advance_clock(target - ticked);
                ticked = target;
            }
            if !engine.vm.expired_leases(None).is_empty() {
                let _ = crate::abort::sweep_expired(&engine, None);
            }
            // The upgrade may have made this thread the engine's last
            // owner; dropping it here joins the I/O pool from outside
            // it, like any client thread would.
        }
    });
    // Spawn failure (resource exhaustion) degrades to the documented
    // logical-clock-only behaviour rather than failing the build.
    let _ = spawned;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builds() {
        let store = Builder::new().build().unwrap();
        assert_eq!(store.config().page_size, 64 * 1024);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Builder::new().page_size(3000).build().is_err());
        assert!(Builder::new().data_providers(0).build().is_err());
    }

    #[test]
    fn lease_ticker_recovers_a_quiet_wedged_deployment() {
        // The ROADMAP "lease liveness in quiet deployments" scenario: a
        // writer dies mid-update and *nothing else happens* — no
        // traffic, no explicit clock advancement. With the wall-clock
        // ticker on, the sweeper still aborts the dead version.
        let store = Builder::new()
            .page_size(1024)
            .data_providers(2)
            .metadata_providers(2)
            .io_threads(1)
            .lease_ttl_ticks(5)
            .lease_tick_interval_ms(1)
            .build()
            .unwrap();
        let blob = store.create();
        let v = blob
            .crash_append(crate::Bytes::from(vec![1u8; 1024]), crate::CrashPoint::AfterPrepare)
            .unwrap();
        // One-sided wait: the abort eventually lands (ttl * interval ≈
        // 5 ms plus scheduling noise); the deadline only bounds a hang.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !store.engine.vm.is_aborted(blob.id(), v).unwrap() {
            assert!(std::time::Instant::now() < deadline, "ticker never swept");
            std::thread::sleep(Duration::from_millis(2));
        }
        // The blob is healthy again, with zero manual intervention.
        let v2 = blob.append(&[2u8; 8]).unwrap();
        blob.sync(v2).unwrap();
    }

    #[test]
    fn settings_propagate() {
        let store = Builder::new()
            .page_size(4096)
            .data_providers(3)
            .metadata_providers(5)
            .io_threads(2)
            .metadata_wait(Duration::from_millis(1234))
            .concurrency_mode(ConcurrencyMode::SerializedMetadata)
            .build()
            .unwrap();
        let cfg = store.config();
        assert_eq!(cfg.page_size, 4096);
        assert_eq!(cfg.data_providers, 3);
        assert_eq!(cfg.metadata_providers, 5);
        assert_eq!(cfg.client_io_threads, 2);
        assert_eq!(cfg.metadata_wait_ms, 1234);
    }
}
