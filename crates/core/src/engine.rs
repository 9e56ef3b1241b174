//! Deployment wiring: every paper role assembled in one process.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use blobseer_meta::MetaStore;
use blobseer_provider::ProviderManager;
use blobseer_rt::ThreadPool;
use blobseer_types::{BlobId, PageId, PageIdGen, StoreConfig};
use blobseer_version::VersionManager;
use parking_lot::Mutex;

/// The in-process cluster: version manager, provider manager + data
/// providers, metadata providers (DHT) and the client I/O pool.
///
/// The paper deploys these as separate processes on separate nodes; the
/// algorithms only require that they be independent components with
/// their own state and synchronization, which is what this struct holds.
pub(crate) struct Engine {
    pub config: StoreConfig,
    pub vm: VersionManager,
    pub meta: MetaStore,
    /// Per-engine metric registry (counters + latency histograms); see
    /// `crate::metrics` and `docs/OBSERVABILITY.md`.
    pub metrics: crate::metrics::EngineMetrics,
    pub providers: ProviderManager,
    /// The store's one thread pool: fork-join helpers, pipelined
    /// completion stages (both arms of `crate::qos::dispatch`) and the
    /// background lease sweep (`crate::abort::maybe_sweep`) all run
    /// here. Nesting is safe because the caller joins its own fork-join
    /// (it never needs a free worker); releasing the last `Arc<Engine>`
    /// on a worker is safe because the pool's `Drop` skips the
    /// self-join.
    pub pool: ThreadPool,
    /// Per-blob submission locks for pipelined updates: held across
    /// version assignment *and* the enqueue of the completion stage, so
    /// the FIFO pool queue receives a blob's stages in version order.
    /// Without this, a submitter preempted between `assign` and
    /// `execute` could let higher versions enqueue first and occupy
    /// every pool worker with stages that block (bounded by the
    /// metadata timeout) on the not-yet-queued lower version. One
    /// `Arc<Mutex>` per blob that ever pipelined; never reclaimed
    /// (bytes per blob, same order as the VM's own per-blob state).
    pub order_locks: Mutex<HashMap<BlobId, Arc<Mutex<()>>>>,
    /// Serializes lease sweeps (see `crate::abort::sweep_expired`):
    /// concurrent sweeps would race each other's repairs for the same
    /// versions; a second sweeper waits its turn and then re-scans.
    pub sweep_gate: Mutex<()>,
    /// `true` while a background sweep job sits in the pool's queue —
    /// keeps `maybe_sweep` from stacking redundant jobs.
    pub sweep_queued: AtomicBool,
    /// Birth watermarks of operations currently storing pages (updates
    /// and abort repairs), keyed by pin id — the engine-side half of
    /// the orphan scrubber's **epoch cut** (see
    /// [`Engine::scrub_pid_epoch`]).
    pub update_pins: Mutex<UpdatePins>,
    pub pidgen: PageIdGen,
    /// Multi-tenant QoS state (admission buckets + the deficit-weighted
    /// queue of completion stages); `None` unless configured via
    /// `Builder::qos(...)`. See `crate::qos`.
    pub qos: Option<crate::qos::EngineQos>,
}

/// Registry behind [`Engine::pin_update`]: each live pin records the
/// page-id watermark at the instant its operation began.
#[derive(Default)]
pub struct UpdatePins {
    next: u64,
    floors: BTreeMap<u64, PageId>,
}

/// RAII registration of a page-storing operation (an update pipeline or
/// an abort repair) with the scrubber's epoch-cut registry. Held from
/// *before* the operation allocates its first page id until its pages
/// are either referenced by durable leaves or the operation is dead —
/// dropping the pin is, to the scrubber, the writer's death
/// certificate.
pub struct UpdatePin {
    engine: Arc<Engine>,
    id: u64,
}

impl Drop for UpdatePin {
    fn drop(&mut self) {
        self.engine.update_pins.lock().floors.remove(&self.id);
    }
}

impl Engine {
    /// Register a page-storing operation with the epoch-cut registry.
    /// Must be called **before** the operation's first
    /// `pidgen.next_id()`: the pin's floor then lower-bounds every page
    /// id the operation will ever store, which is what lets
    /// [`Engine::scrub_pid_epoch`] exempt the operation's pages without
    /// knowing their ids. The watermark read and the registration
    /// happen under one lock so they cannot interleave with an epoch
    /// read.
    pub fn pin_update(self: &Arc<Self>) -> UpdatePin {
        let mut pins = self.update_pins.lock();
        let floor = self.pidgen.peek();
        let id = pins.next;
        pins.next += 1;
        pins.floors.insert(id, floor);
        UpdatePin { engine: Arc::clone(self), id }
    }

    /// The orphan scrubber's **epoch cut**: every page id `>= ` the
    /// returned watermark is exempt from the sweep. Taken under the pin
    /// lock as `min(every live pin's floor, the current watermark)`, so
    /// it lower-bounds the page ids of (a) any operation registered
    /// after this read (its floor is read later, hence higher) and (b)
    /// any operation still alive from before it (its floor is in the
    /// registry). Pages *below* the cut therefore belong to operations
    /// that finished or died — exactly the set metadata can judge.
    pub fn scrub_pid_epoch(&self) -> PageId {
        let pins = self.update_pins.lock();
        let now = self.pidgen.peek();
        pins.floors.values().copied().min().map_or(now, |floor| floor.min(now))
    }
}

impl Engine {
    /// The pipelined-submission lock for `blob`.
    pub fn order_lock(&self, blob: BlobId) -> Arc<Mutex<()>> {
        Arc::clone(self.order_locks.lock().entry(blob).or_default())
    }
}

impl Engine {
    /// The bound on blocking waits (SYNC, in-flight metadata nodes).
    pub fn wait_timeout(&self) -> Duration {
        Duration::from_millis(self.config.metadata_wait_ms)
    }

    /// Page size shorthand.
    pub fn psize(&self) -> u64 {
        self.config.page_size
    }
}
