//! The trajectory harness: fast, deterministic measurements of the
//! paper-critical hot paths, each as a baseline-vs-optimized pair.
//!
//! * **fig2a_append** — Figure 2(a)'s workload on the *real engine*: a
//!   single client appends fixed-size units to a growing blob at 64 KiB
//!   pages. Baseline = the seed write path (per-page payload copies,
//!   one boxed pool job per page); optimized = zero-copy `Bytes::slice`
//!   carving + chunked range dispatch. Both modes drive
//!   `append_bytes` with the same prebuilt buffer, so the A/B isolates
//!   exactly the PR-2 changes.
//! * **dht_micro** — Figure 2(b)'s metadata hotspot in isolation:
//!   read-dominated key/value traffic against one DHT (see [`DhtCase`]
//!   for the three shapes). Baseline = the seed's Mutex bucket (frozen
//!   in [`crate::baseline`]); optimized = `blobseer_dht::Dht`'s RwLock
//!   read path with waiter-gated notify. On a single-core host the
//!   measured gain is dominated by uncontended puts skipping the
//!   condvar; multi-core hosts additionally overlap readers on the
//!   shared guard.
//! * **snapshot_pinned_read** — the PR-3 handle API's read hot path:
//!   repeated single-page reads of one published snapshot through a
//!   reusable buffer. Baseline = the flat facade (`read_into`), which
//!   resolves the version-manager view — blob lock, size/root lookup,
//!   lineage clone — on *every* call; optimized = a pinned
//!   [`blobseer::Snapshot`], which resolved it once at construction.
//! * **hot_blob_snapshot** — the PR-10 wait-free publication A/B:
//!   `dht_threads` threads opening `Blob::latest()` on one hot blob.
//!   Baseline = the store built with `lockfree_publication(false)`, so
//!   every open takes the blob-registry read lock and the blob-state
//!   mutex; optimized = the seqlock cell (three atomic words, no lock).
//!   The optimized side additionally asserts `VmStats::lockfree_reads`
//!   covered every open — the bench cannot silently fall back to the
//!   locked path. Single-core hosts understate the win (there is no
//!   cross-core mutex contention to remove, only the lock's fixed cost).
//! * **pipelined_append** — blocking `append_bytes` vs depth-4
//!   `append_pipelined` on the same prebuilt buffer: the caller thread
//!   overlaps the next append's page stores with the engine pool's
//!   metadata work for lower versions. Single-core hosts understate
//!   the overlap (stages time-slice instead of running concurrently).
//!
//! Runs are deterministic: fixed sizes, fixed thread counts, fixed LCG
//! key streams, best-of-N timing. Numbers are still hardware-dependent
//! — trajectory files record ratios, not absolute SLOs.

use std::time::{Duration, Instant};

use blobseer::{BlobSeer, Bytes};
use blobseer_dht::Dht;

use crate::baseline::MutexDht;

/// One measured run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Logical operations completed (appends, or kv ops).
    pub ops: u64,
    /// Payload bytes moved (0 when not meaningful).
    pub bytes: u64,
    /// Best-of-N wall time.
    pub elapsed: Duration,
    /// Boxed pool jobs dispatched (engine runs only).
    pub io_jobs: Option<u64>,
    /// Heap allocations during the run (filled in by `bench_report`'s
    /// counting allocator; `None` when not measured).
    pub allocs: Option<u64>,
}

impl RunStats {
    /// Operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Payload megabytes (1e6) per second.
    pub fn mbps(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Mean allocations per operation, when measured.
    pub fn allocs_per_op(&self) -> Option<f64> {
        self.allocs.map(|a| a as f64 / self.ops as f64)
    }
}

/// Workload sizes; `fast()` is the CI smoke mode.
#[derive(Clone, Copy, Debug)]
pub struct ReportParams {
    /// Page size for the append bench.
    pub page_size: u64,
    /// Bytes per append call.
    pub append_unit: usize,
    /// Total bytes appended per timed run.
    pub append_total: usize,
    /// Timed repetitions (best-of).
    pub reps: usize,
    /// Threads for the DHT cases.
    pub dht_threads: usize,
    /// Ops per thread for the DHT cases.
    pub dht_iters_per_thread: u64,
    /// Reads per timed run of the snapshot-pinned case.
    pub pinned_reads: u64,
    /// Bytes per read of the snapshot-pinned case (sub-page: the
    /// small-object serving shape, where per-call control-plane cost
    /// is a real share of the op).
    pub pinned_read_bytes: u64,
    /// In-flight window of the pipelined append case.
    pub pipeline_depth: usize,
    /// Bytes per append of the pipelined case.
    pub pipeline_unit: usize,
}

impl ReportParams {
    /// Fast deterministic mode: finishes in a few seconds on CI-class
    /// hardware while keeping each timed section well above timer noise.
    pub fn fast() -> Self {
        ReportParams {
            page_size: 64 * 1024,
            append_unit: 1 << 20,
            append_total: 48 << 20,
            reps: 3,
            dht_threads: 8,
            dht_iters_per_thread: 200_000,
            pinned_reads: 200_000,
            pinned_read_bytes: 4096,
            pipeline_depth: 4,
            pipeline_unit: 256 * 1024,
        }
    }

    /// Larger sizes for manual runs.
    pub fn full() -> Self {
        ReportParams {
            append_total: 256 << 20,
            reps: 5,
            dht_iters_per_thread: 1_000_000,
            pinned_reads: 1_000_000,
            ..Self::fast()
        }
    }
}

fn build_store(p: &ReportParams, optimized: bool) -> BlobSeer {
    BlobSeer::builder()
        .page_size(p.page_size)
        .data_providers(16)
        .metadata_providers(16)
        .io_threads(4)
        .zero_copy_pages(optimized)
        .build()
        .expect("valid bench config")
}

/// Figure 2(a) workload on the real engine; see module docs.
///
/// `alloc_count`, when given, is sampled immediately around each rep's
/// timed section (store construction excluded) and the count of the
/// *winning* rep is reported — so `allocs_per_op` is a true per-append
/// figure, independent of `reps`.
pub fn fig2a_append(
    p: &ReportParams,
    optimized: bool,
    alloc_count: Option<&dyn Fn() -> u64>,
) -> RunStats {
    let unit: Bytes = Bytes::from((0..p.append_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let appends = (p.append_total / p.append_unit) as u64;

    let mut best = Duration::MAX;
    let mut io_jobs = 0u64;
    let mut allocs = None;
    for _ in 0..p.reps {
        let store = build_store(p, optimized);
        let blob = store.create();
        let jobs_before = store.stats().io_jobs_dispatched;
        let allocs_before = alloc_count.map(|f| f());
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..appends {
            last = Some(blob.append_bytes(unit.clone()).expect("append"));
        }
        blob.sync(last.expect("at least one append")).expect("sync");
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
            io_jobs = store.stats().io_jobs_dispatched - jobs_before;
            allocs = alloc_count.zip(allocs_before).map(|(f, before)| f() - before);
        }
    }
    RunStats {
        ops: appends,
        bytes: p.append_total as u64,
        elapsed: best,
        io_jobs: Some(io_jobs),
        allocs,
    }
}

/// The PR-3 snapshot-pinned read case; see module docs. The paper's
/// hot-snapshot regime: `dht_threads` reader threads hammer one
/// published snapshot with sub-page reads into reusable buffers. Both
/// sides run the identical loop — the A/B isolates the per-call
/// version-manager resolution (blob-registry read lock, blob-state
/// mutex, lineage clone) that every flat read pays *per call, per
/// thread* and that a pinned `Snapshot` resolved once.
pub fn snapshot_pinned_read(p: &ReportParams, optimized: bool) -> RunStats {
    let store = build_store(p, true);
    let blob = store.create();
    let unit: Bytes = Bytes::from(vec![0xA5u8; p.append_unit]);
    let mut last = None;
    for _ in 0..(p.append_total / p.append_unit) {
        last = Some(blob.append_bytes(unit.clone()).expect("append"));
    }
    let v = last.expect("at least one append");
    blob.sync(v).expect("sync");
    let slots = p.append_total as u64 / p.pinned_read_bytes;
    let snap = blob.snapshot(v).expect("published");
    let id = blob.id();

    let per_thread = p.pinned_reads / p.dht_threads as u64;
    let mut best = Duration::MAX;
    for _ in 0..p.reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..p.dht_threads as u64 {
                let (store, snap) = (store.clone(), snap.clone());
                s.spawn(move || {
                    let mut buf = vec![0u8; p.pinned_read_bytes as usize];
                    let mut x = 0x2545F4914F6CDD1Du64.wrapping_mul(t + 1);
                    for _ in 0..per_thread {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let offset = ((x >> 33) % slots) * p.pinned_read_bytes;
                        if optimized {
                            snap.read_into(offset, &mut buf).expect("read");
                        } else {
                            store.read_into(id, v, offset, &mut buf).expect("read");
                        }
                    }
                    std::hint::black_box(&buf);
                });
            }
        });
        best = best.min(t0.elapsed());
    }
    RunStats {
        ops: per_thread * p.dht_threads as u64,
        bytes: per_thread * p.dht_threads as u64 * p.pinned_read_bytes,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// The PR-10 hot-blob snapshot-open case; see module docs. Both sides
/// run the identical `Blob::latest()` loop; the knob flips only the
/// version-manager read path, so the A/B isolates the seqlock against
/// the registry-lock + blob-mutex resolution it replaces.
pub fn hot_blob_snapshot(p: &ReportParams, lockfree: bool) -> RunStats {
    let store = BlobSeer::builder()
        .page_size(p.page_size)
        .data_providers(16)
        .metadata_providers(16)
        .io_threads(4)
        .zero_copy_pages(true)
        .lockfree_publication(lockfree)
        .build()
        .expect("valid bench config");
    let blob = store.create();
    let unit: Bytes = Bytes::from(vec![0x5Au8; p.append_unit]);
    let mut last = None;
    for _ in 0..8 {
        last = Some(blob.append_bytes(unit.clone()).expect("append"));
    }
    let v = last.expect("at least one append");
    blob.sync(v).expect("sync");

    let per_thread = p.pinned_reads / p.dht_threads as u64;
    let served_before = store.stats().vm.lockfree_reads;
    let mut best = Duration::MAX;
    for _ in 0..p.reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..p.dht_threads {
                let blob = &blob;
                s.spawn(move || {
                    for _ in 0..per_thread {
                        let snap = blob.latest().expect("latest");
                        debug_assert_eq!(snap.version(), v);
                        std::hint::black_box(snap.len());
                    }
                });
            }
        });
        best = best.min(t0.elapsed());
    }
    let total_opens = per_thread * p.dht_threads as u64 * p.reps as u64;
    if lockfree {
        let served = store.stats().vm.lockfree_reads - served_before;
        assert!(
            served >= total_opens,
            "hot path fell back to the mutex: {served} lock-free reads for {total_opens} opens"
        );
    }
    RunStats {
        ops: per_thread * p.dht_threads as u64,
        bytes: 0,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// The PR-3 pipelined append case; see module docs. Baseline = blocking
/// `append_bytes`; optimized = `append_pipelined` with a depth-bounded
/// in-flight window. Same prebuilt buffer and total volume as
/// [`fig2a_append`]'s optimized side.
pub fn pipelined_append(p: &ReportParams, optimized: bool) -> RunStats {
    use std::collections::VecDeque;

    let unit: Bytes =
        Bytes::from((0..p.pipeline_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let appends = (p.append_total / p.pipeline_unit) as u64;

    let mut best = Duration::MAX;
    for _ in 0..p.reps {
        let store = build_store(p, true);
        let blob = store.create();
        let t0 = Instant::now();
        let mut last = blobseer::Version(0);
        if optimized {
            let mut inflight = VecDeque::with_capacity(p.pipeline_depth);
            for _ in 0..appends {
                inflight.push_back(blob.append_pipelined(unit.clone()).expect("append"));
                if inflight.len() == p.pipeline_depth {
                    let oldest: blobseer::PendingWrite = inflight.pop_front().expect("non-empty");
                    last = last.max(oldest.wait().expect("complete"));
                }
            }
            for pending in inflight {
                last = last.max(pending.wait().expect("complete"));
            }
        } else {
            for _ in 0..appends {
                last = blob.append_bytes(unit.clone()).expect("append");
            }
        }
        blob.sync(last).expect("sync");
        best = best.min(t0.elapsed());
    }
    RunStats {
        ops: appends,
        bytes: p.append_total as u64,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// Unit of [`pipelined_append`]'s work, for report labels.
pub fn pipeline_unit_label(p: &ReportParams) -> String {
    format!("append of {} KiB", p.pipeline_unit >> 10)
}

/// Appends between injected writer deaths in [`writer_crash_recovery`].
pub const CRASH_EVERY: u64 = 8;

/// The PR-4 writer-fault-tolerance case: the same depth-bounded
/// pipelined ingest as [`pipelined_append`]'s optimized side, but
/// every [`CRASH_EVERY`]-th writer dies right after version assignment
/// and the deployment recovers through the production path — lease
/// expiry plus a sweep that aborts the hole — before ingest continues.
/// The report pairs this against `pipelined_append(p, true)` (the
/// identical failure-free ingest) rather than re-running it.
/// `ops`/`bytes` count **survivors only**, so the ratio prices what a
/// 12.5% writer-death rate costs per byte of *useful* published data
/// (abort repair, sweep scans, and the lost appends' fixed overhead).
pub fn writer_crash_recovery(p: &ReportParams) -> RunStats {
    use std::collections::VecDeque;

    let unit: Bytes =
        Bytes::from((0..p.pipeline_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let appends = (p.append_total / p.pipeline_unit) as u64;

    let mut best = Duration::MAX;
    let mut survivors = 0u64;
    for _ in 0..p.reps {
        let store = build_store(p, true);
        let blob = store.create();
        let ttl = store.config().lease_ttl_ticks;
        let t0 = Instant::now();
        let mut last = blobseer::Version(0);
        let mut inflight = VecDeque::with_capacity(p.pipeline_depth);
        let mut ok = 0u64;
        for i in 1..=appends {
            if i.is_multiple_of(CRASH_EVERY) {
                // Failure epoch: quiesce, die mid-update, recover via
                // lease expiry + sweep.
                for pending in inflight.drain(..) {
                    let pending: blobseer::PendingWrite = pending;
                    last = last.max(pending.wait().expect("complete"));
                }
                blob.crash_append(unit.clone(), blobseer::CrashPoint::AfterPrepare)
                    .expect("crash injection");
                store.advance_lease_clock(ttl + 1);
                store.sweep_expired_leases();
            } else {
                inflight.push_back(blob.append_pipelined(unit.clone()).expect("append"));
                ok += 1;
                if inflight.len() == p.pipeline_depth {
                    let oldest: blobseer::PendingWrite = inflight.pop_front().expect("non-empty");
                    last = last.max(oldest.wait().expect("complete"));
                }
            }
        }
        for pending in inflight {
            last = last.max(pending.wait().expect("complete"));
        }
        if last > blobseer::Version(0) {
            blob.sync(last).expect("sync");
        }
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
            survivors = ok;
        }
    }
    RunStats {
        ops: survivors,
        bytes: survivors * p.pipeline_unit as u64,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// The PR-5 orphan-scrub trajectory: a crash-injected pipelined ingest
/// (every [`CRASH_EVERY`]-th writer dies at a rotating `CrashPoint`,
/// recovered through lease expiry + sweep — the exact
/// [`blobseer_workloads::CrashyIngest`] driver), then a full
/// [`blobseer::BlobSeer::scrub_orphans`] pass. Reported as absolute
/// leak/reclaim numbers plus timings rather than a baseline/optimized
/// ratio: the interesting quantities are *leaked bytes before vs.
/// after* (completeness — after must be 0) and *scrub seconds vs.
/// ingest seconds* (the maintenance tax).
pub fn orphan_scrub(
    p: &ReportParams,
) -> (blobseer_workloads::CrashReport, blobseer_workloads::ScrubTrajectory) {
    let store = build_store(p, true);
    let blob = store.create();
    // Fixed-size chunks (the pipelined unit) keep the run deterministic
    // and the per-crash leak a constant number of pages.
    let mut stream =
        blobseer_workloads::AppendStream::new(0x5eed_b10b, p.pipeline_unit, p.pipeline_unit);
    let appends = (p.append_total / p.pipeline_unit) as u64;
    let ingest = blobseer_workloads::CrashyIngest::new(p.pipeline_depth, CRASH_EVERY);
    let (report, trajectory) =
        ingest.run_then_scrub(&store, &blob, &mut stream, appends).expect("crashy ingest + scrub");
    // The run self-verifies: content intact, leak fully reclaimed.
    let snap = blob.snapshot(report.last).expect("published snapshot");
    blobseer_workloads::CrashyIngest::verify(&snap, 0x5eed_b10b, &report).expect("content intact");
    assert_eq!(trajectory.leaked_bytes_after, 0, "scrub must reclaim the whole leak");
    (report, trajectory)
}

/// A replicated deployment behind caller-held [`blobseer::FaultPlan`]s
/// for the PR-7 fault-tolerance cases: 16 in-memory providers,
/// replication 2, the optimized write path.
fn build_faulty_store(p: &ReportParams) -> (BlobSeer, Vec<std::sync::Arc<blobseer::FaultPlan>>) {
    use std::sync::Arc;

    use blobseer::{FaultPlan, MemoryPageStore, PageStore};

    let plans: Vec<Arc<FaultPlan>> = (0..16)
        .map(|i| Arc::new(FaultPlan::with_seed(Arc::new(MemoryPageStore::new()), i as u64)))
        .collect();
    let store = BlobSeer::builder()
        .page_size(p.page_size)
        .metadata_providers(16)
        .io_threads(4)
        .replication(2)
        .zero_copy_pages(true)
        .page_stores(plans.iter().map(|pl| Arc::clone(pl) as Arc<dyn PageStore>).collect())
        .build()
        .expect("valid bench config");
    (store, plans)
}

/// The PR-7 degraded-read case: sub-page reads of one hot snapshot on
/// a replication-2 deployment, healthy (baseline) vs with one data
/// provider dead (measured). A dead primary costs the reader one
/// failed fetch before the deterministic chain fallback serves the
/// page from the replica — the ratio prices exactly that detour. On
/// in-memory providers the detour is an immediate typed error, so the
/// ratio sits at ~1.0 (this case exists to keep it there); a networked
/// deployment would pay a connect timeout in the same spot, which is
/// what `blobseer_sim::degraded_read_experiment` prices.
pub fn degraded_read(p: &ReportParams, degraded: bool) -> RunStats {
    let (store, plans) = build_faulty_store(p);
    let blob = store.create();
    let unit: Bytes = Bytes::from(vec![0x5Au8; p.append_unit]);
    let mut last = None;
    for _ in 0..(p.append_total / p.append_unit) {
        last = Some(blob.append_bytes(unit.clone()).expect("append"));
    }
    let v = last.expect("at least one append");
    blob.sync(v).expect("sync");
    if degraded {
        plans[0].set_offline(true);
    }
    let snap = blob.snapshot(v).expect("published");
    let slots = p.append_total as u64 / p.pinned_read_bytes;
    // Single-threaded and page-fetch-bound (~100 µs/read): a modest
    // count keeps the case seconds-scale while staying far above timer
    // noise.
    let reads = p.pinned_reads / 20;

    let mut best = Duration::MAX;
    for _ in 0..p.reps {
        let mut buf = vec![0u8; p.pinned_read_bytes as usize];
        let mut x = 0x2545F4914F6CDD1Du64;
        let t0 = Instant::now();
        for _ in 0..reads {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let offset = ((x >> 33) % slots) * p.pinned_read_bytes;
            snap.read_into(offset, &mut buf).expect("read");
        }
        std::hint::black_box(&buf);
        best = best.min(t0.elapsed());
    }
    RunStats {
        ops: reads,
        bytes: reads * p.pinned_read_bytes,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// One measured [`blobseer::BlobSeer::repair_replicas`] trajectory.
#[derive(Clone, Copy, Debug)]
pub struct RepairTrajectory {
    /// Appends issued while one provider was dead (all succeeded).
    pub appends: u64,
    /// Payload bytes of that degraded ingest.
    pub ingest_bytes: u64,
    /// Write-path failovers the dead provider forced.
    pub failovers: u64,
    /// Wall time of the degraded ingest.
    pub ingest_elapsed: Duration,
    /// What the (first) repair pass found and fixed.
    pub report: blobseer::RepairReport,
    /// Wall time of that pass (mark + scan + diff/copy + trim).
    pub repair_elapsed: Duration,
}

/// The PR-7 repair-cost case: ingest the [`fig2a_append`] volume with
/// one of 16 providers dead the whole run (every chain through it
/// fails over — updates keep succeeding), recover the provider, then
/// run one [`blobseer::BlobSeer::repair_replicas`] pass. Reported as
/// absolute numbers plus timings, like [`orphan_scrub`]: the claims
/// measured are convergence (a second pass must be a no-op; the run
/// asserts it) and cost (repair seconds vs. the ingest it mops up
/// after, and the re-replication rate in MB/s).
pub fn repair_replicas_cost(p: &ReportParams) -> RepairTrajectory {
    let (store, plans) = build_faulty_store(p);
    let blob = store.create();
    let unit: Bytes = Bytes::from((0..p.append_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let appends = (p.append_total / p.append_unit) as u64;

    plans[0].set_offline(true);
    let t0 = Instant::now();
    let mut last = None;
    for _ in 0..appends {
        last = Some(blob.append_bytes(unit.clone()).expect("append survives the dead provider"));
    }
    blob.sync(last.expect("at least one append")).expect("sync");
    let ingest_elapsed = t0.elapsed();
    let failovers = store.stats_snapshot().failovers_total;
    assert!(failovers > 0, "a dead chain member must force failovers");

    plans[0].set_offline(false);
    let t1 = Instant::now();
    let report = store.repair_replicas().expect("repair");
    let repair_elapsed = t1.elapsed();
    assert_eq!(report.pages_unrepairable, 0, "single-fault ingest must stay repairable");

    // The run self-verifies: a second pass finds nothing to do.
    let second = store.repair_replicas().expect("second repair");
    assert_eq!(second.copies_repaired, 0, "repair must converge");
    assert_eq!(second.strays_trimmed, 0, "repair must converge");

    RepairTrajectory {
        appends,
        ingest_bytes: p.append_total as u64,
        failovers,
        ingest_elapsed,
        report,
        repair_elapsed,
    }
}

/// One measured elastic-membership trajectory
/// ([`blobseer_workloads::ElasticIngest`]).
#[derive(Clone, Debug)]
pub struct ElasticTrajectory {
    /// Pipelined appends issued across the membership churn.
    pub appends: u64,
    /// Payload bytes of that ingest.
    pub ingest_bytes: u64,
    /// Providers joined mid-ingest.
    pub joined: usize,
    /// Wall time of the whole ingest (the drain overlaps it).
    pub ingest_elapsed: Duration,
    /// What the concurrent drain migrated off the victim.
    pub drain: blobseer::DrainReport,
    /// Wall time of the drain, measured on its own thread.
    pub drain_elapsed: Duration,
    /// Copies the post-churn rebalance pass moved onto the newcomers.
    pub rebalance_copies: u64,
    /// Wall time of that rebalance pass.
    pub rebalance_elapsed: Duration,
}

/// The PR-9 elastic-membership case: the [`pipelined_append`] volume
/// streamed onto a replication-2 deployment of 16 in-memory providers
/// while the provider set changes underneath it — two providers join
/// at one third of the run, and provider 0 starts draining at two
/// thirds, concurrent with the live writers. The driver
/// ([`blobseer_workloads::ElasticIngest`]) self-verifies content,
/// retirement and rebalance convergence; this case additionally proves
/// the victim's store is physically empty and reports the costs: drain
/// seconds vs. the ingest it overlapped, and the migration rate in
/// MB/s.
pub fn elastic_rebalance(p: &ReportParams) -> ElasticTrajectory {
    use std::sync::Arc;

    use blobseer::{MemoryPageStore, PageStore, ProviderId};

    let handles: Vec<Arc<MemoryPageStore>> =
        (0..16).map(|_| Arc::new(MemoryPageStore::new())).collect();
    let store = BlobSeer::builder()
        .page_size(p.page_size)
        .metadata_providers(16)
        .io_threads(4)
        .replication(2)
        .zero_copy_pages(true)
        .page_stores(handles.iter().map(|h| Arc::clone(h) as Arc<dyn PageStore>).collect())
        .build()
        .expect("valid bench config");

    let appends = (p.append_total / p.pipeline_unit) as u64;
    let mut stream =
        blobseer_workloads::AppendStream::new(0x0e1a_57ec, p.pipeline_unit, p.pipeline_unit);
    let report = blobseer_workloads::ElasticIngest::new(p.pipeline_depth, 2)
        .run(&store, &mut stream, appends, ProviderId(0))
        .expect("elastic ingest");

    // The driver proved the logical invariants; the bench holds the
    // physical stores too, so prove the victim is byte-empty.
    assert_eq!(handles[0].page_count(), 0, "drained provider must hold nothing");
    assert_eq!(handles[0].stored_bytes(), 0, "drained provider must hold nothing");

    ElasticTrajectory {
        appends: report.appends,
        ingest_bytes: report.bytes,
        joined: report.joined.len(),
        ingest_elapsed: report.ingest_elapsed,
        drain: report.drain,
        drain_elapsed: report.drain_elapsed,
        rebalance_copies: report.rebalance_copies,
        rebalance_elapsed: report.rebalance_elapsed,
    }
}

/// The PR-6 observability-tax case: the exact [`fig2a_append`]
/// optimized workload, run with latency metrics off (baseline) vs on
/// (optimized — the shipping default). The instrumented side pays two
/// `Instant::now` calls, one coarse-clock `fetch_max` and one relaxed
/// histogram increment per operation; the ratio should be ~1.0 —
/// this case exists to *keep* it there.
pub fn metrics_overhead_append(p: &ReportParams, instrumented: bool) -> RunStats {
    let unit: Bytes = Bytes::from((0..p.append_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let appends = (p.append_total / p.append_unit) as u64;

    // The effect measured is nanoseconds per op against a ~50 µs op:
    // extra best-of reps, or the A/B ratio is timer noise, not tax.
    let mut best = Duration::MAX;
    for _ in 0..p.reps * 4 {
        let store = BlobSeer::builder()
            .page_size(p.page_size)
            .data_providers(16)
            .metadata_providers(16)
            .io_threads(4)
            .latency_metrics(instrumented)
            .build()
            .expect("valid bench config");
        let blob = store.create();
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..appends {
            last = Some(blob.append_bytes(unit.clone()).expect("append"));
        }
        blob.sync(last.expect("at least one append")).expect("sync");
        best = best.min(t0.elapsed());
    }
    RunStats {
        ops: appends,
        bytes: p.append_total as u64,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// The PR-8 admission-tax case: the exact [`metrics_overhead_append`]
/// workload, run without the QoS subsystem (baseline) vs with QoS
/// enabled on all-unlimited quotas (optimized — what a shared
/// deployment with no throttled tenants pays). The enabled side pays
/// one registry lookup, one atomic counter bump and the
/// dispatch-ticket indirection per update; the ratio should sit at
/// ~1.0 (the PR's bar is ≥ 0.95) — this case exists to *keep* it
/// there.
pub fn qos_overhead_append(p: &ReportParams, qos: bool) -> RunStats {
    let unit: Bytes = Bytes::from((0..p.append_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let appends = (p.append_total / p.append_unit) as u64;

    let mut best = Duration::MAX;
    for _ in 0..p.reps * 4 {
        let mut builder = BlobSeer::builder()
            .page_size(p.page_size)
            .data_providers(16)
            .metadata_providers(16)
            .io_threads(4);
        if qos {
            // Enabled but throttling nobody: the default quota is
            // unlimited, so this prices pure admission overhead.
            builder = builder.qos(blobseer::QosConfig::default());
        }
        let store = builder.build().expect("valid bench config");
        let blob = store.create();
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..appends {
            last = Some(blob.append_bytes(unit.clone()).expect("append"));
        }
        blob.sync(last.expect("at least one append")).expect("sync");
        best = best.min(t0.elapsed());
    }
    RunStats {
        ops: appends,
        bytes: p.append_total as u64,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// What [`multi_tenant_isolation`] measured: the quiet tenant's append
/// latency distribution alone, next to an unthrottled noisy flood, and
/// next to the same flood with QoS capping the noisy tenant.
#[derive(Clone, Copy, Debug)]
pub struct QosIsolationTrajectory {
    /// Quiet appends timed per scenario.
    pub quiet_ops: u64,
    /// Bytes per quiet append.
    pub quiet_unit: u64,
    /// Quiet append p50, alone on the store.
    pub solo_p50: Duration,
    /// Quiet append p99, alone on the store.
    pub solo_p99: Duration,
    /// Quiet p50 sharing the store with the unthrottled flood.
    pub fifo_p50: Duration,
    /// Quiet p99 sharing the store with the unthrottled flood.
    pub fifo_p99: Duration,
    /// Noisy appends the unthrottled flood landed meanwhile.
    pub fifo_noisy_appends: u64,
    /// Quiet p50 with QoS throttling the flood.
    pub qos_p50: Duration,
    /// Quiet p99 with QoS throttling the flood.
    pub qos_p99: Duration,
    /// Noisy appends the throttled flood landed meanwhile.
    pub qos_noisy_appends: u64,
    /// Non-blocking refusals the engine issued to the throttled flood.
    pub qos_noisy_throttled: u64,
}

/// The noisy tenant's id in [`multi_tenant_isolation`] (quiet = 0).
const NOISY_TENANT: u32 = 1;
/// Sustained byte budget the QoS run grants the noisy tenant — far
/// below what an in-memory flood can push, so throttling engages on
/// any host.
const NOISY_BYTES_PER_SEC: u64 = 50_000_000;
/// Flood size cap per scenario (bounds provider memory).
const NOISY_CAP: u64 = 512;

/// The PR-8 isolation trajectory: one quiet tenant's blocking appends
/// timed individually while a noisy tenant floods pipelined appends
/// from another thread — solo, shared with QoS off, and shared with
/// QoS capping the noisy tenant at 50 MB/s sustained (refused
/// submissions back off and retry). The quantity of interest is
/// quiet p99 vs solo; the deterministic 2x acceptance bound lives in
/// `blobseer_sim::qos_isolation_experiment` — this case records what a
/// real host shows, where single-core CPU time-slicing also taxes the
/// quiet thread.
pub fn multi_tenant_isolation(p: &ReportParams) -> QosIsolationTrajectory {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let quiet_unit_len = (p.pinned_read_bytes * 4) as usize;
    let quiet_ops = p.pinned_reads / 200;
    let quiet_unit: Bytes =
        Bytes::from((0..quiet_unit_len).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let noisy_unit: Bytes =
        Bytes::from((0..p.pipeline_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());

    let build = |qos: bool| {
        let mut builder = BlobSeer::builder()
            .page_size(p.page_size)
            .data_providers(16)
            .metadata_providers(16)
            .io_threads(4);
        if qos {
            builder = builder.qos(blobseer::QosConfig::default().with_tenant(
                NOISY_TENANT,
                blobseer::TenantQuota {
                    bytes_per_sec: NOISY_BYTES_PER_SEC,
                    burst_bytes: NOISY_BYTES_PER_SEC / 10,
                    ..blobseer::TenantQuota::unlimited()
                },
            ));
        }
        builder.build().expect("valid bench config")
    };

    let time_quiet = |store: &BlobSeer| -> Vec<Duration> {
        let blob = store.create();
        let mut lat = Vec::with_capacity(quiet_ops as usize);
        let mut last = None;
        for _ in 0..quiet_ops {
            let t0 = Instant::now();
            last = Some(blob.append_bytes(quiet_unit.clone()).expect("quiet append"));
            lat.push(t0.elapsed());
        }
        blob.sync(last.expect("at least one append")).expect("sync");
        lat
    };

    // Noisy flood: depth-bounded pipelined appends until told to stop
    // (or the memory cap); a QuotaExceeded refusal backs off briefly
    // and retries — the compliant reaction to non-blocking throttling.
    let flood = |store: BlobSeer, stop: Arc<AtomicBool>| {
        let noisy_unit = noisy_unit.clone();
        std::thread::spawn(move || -> u64 {
            use std::collections::VecDeque;
            let blob = store.create().for_tenant(blobseer::TenantId(NOISY_TENANT));
            let mut inflight = VecDeque::with_capacity(4);
            let mut appends = 0u64;
            let mut last = blobseer::Version(0);
            while !stop.load(Ordering::Relaxed) && appends < NOISY_CAP {
                match blob.append_pipelined(noisy_unit.clone()) {
                    Ok(pending) => {
                        inflight.push_back(pending);
                        appends += 1;
                        if inflight.len() == 4 {
                            let oldest: blobseer::PendingWrite =
                                inflight.pop_front().expect("non-empty");
                            last = last.max(oldest.wait().expect("noisy append"));
                        }
                    }
                    Err(blobseer::BlobError::QuotaExceeded { .. }) => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("noisy append: {e}"),
                }
            }
            for pending in inflight {
                last = last.max(pending.wait().expect("noisy append"));
            }
            if appends > 0 {
                blob.sync(last).expect("noisy sync");
            }
            appends
        })
    };

    let pctl = |lat: &mut Vec<Duration>, q: f64| -> Duration {
        lat.sort_unstable();
        let rank = ((lat.len() as f64 * q).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    };

    // Scenario 1: solo.
    let store = build(false);
    let mut solo = time_quiet(&store);
    drop(store);

    // Scenario 2: shared, QoS off.
    let store = build(false);
    let stop = Arc::new(AtomicBool::new(false));
    let noisy = flood(store.clone(), stop.clone());
    let mut fifo = time_quiet(&store);
    stop.store(true, Ordering::Relaxed);
    let fifo_noisy = noisy.join().expect("noisy thread");
    drop(store);

    // Scenario 3: shared, QoS on.
    let store = build(true);
    let stop = Arc::new(AtomicBool::new(false));
    let noisy = flood(store.clone(), stop.clone());
    let mut qos = time_quiet(&store);
    stop.store(true, Ordering::Relaxed);
    let qos_noisy = noisy.join().expect("noisy thread");
    let throttled =
        store.tenant_qos_stats(blobseer::TenantId(NOISY_TENANT)).expect("qos enabled").throttled;

    QosIsolationTrajectory {
        quiet_ops,
        quiet_unit: quiet_unit_len as u64,
        solo_p50: pctl(&mut solo, 0.50),
        solo_p99: pctl(&mut solo, 0.99),
        fifo_p50: pctl(&mut fifo, 0.50),
        fifo_p99: pctl(&mut fifo, 0.99),
        fifo_noisy_appends: fifo_noisy,
        qos_p50: pctl(&mut qos, 0.50),
        qos_p99: pctl(&mut qos, 0.99),
        qos_noisy_appends: qos_noisy,
        qos_noisy_throttled: throttled,
    }
}

/// The PR-6 tail-latency trajectory: a mixed instrumented workload —
/// blocking appends, depth-bounded pipelined appends, pinned snapshot
/// reads and scatter reads — on one store, then the store's own
/// [`blobseer::BlobSeer::stats_snapshot`]. The *product under test* is
/// the measurement pipeline itself: the trajectory file records the
/// percentiles the registry reports, so a regression in either the
/// hot paths or the histogram math shows up as moved (or vanished)
/// tails.
pub fn latency_percentiles(p: &ReportParams) -> blobseer::StatsSnapshot {
    use std::collections::VecDeque;

    let store = build_store(p, true);
    let blob = store.create();
    let unit: Bytes =
        Bytes::from((0..p.pipeline_unit).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let appends = (p.append_total / p.pipeline_unit) as u64;

    // Half blocking, half pipelined: both update spans land in the
    // same append histogram.
    let mut last = blobseer::Version(0);
    for _ in 0..appends / 2 {
        last = blob.append_bytes(unit.clone()).expect("append");
    }
    let mut inflight = VecDeque::with_capacity(p.pipeline_depth);
    for _ in appends / 2..appends {
        inflight.push_back(blob.append_pipelined(unit.clone()).expect("append"));
        if inflight.len() == p.pipeline_depth {
            let oldest: blobseer::PendingWrite = inflight.pop_front().expect("non-empty");
            last = last.max(oldest.wait().expect("complete"));
        }
    }
    for pending in inflight {
        last = last.max(pending.wait().expect("complete"));
    }
    blob.sync(last).expect("sync");

    // Read side: pinned sub-page reads plus zero-copy scatter reads.
    let snap = blob.snapshot(last).expect("published");
    let slots = snap.len() / p.pinned_read_bytes;
    let mut buf = vec![0u8; p.pinned_read_bytes as usize];
    let mut x = 0x2545F4914F6CDD1Du64;
    for _ in 0..p.pinned_reads / 10 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let offset = ((x >> 33) % slots) * p.pinned_read_bytes;
        snap.read_into(offset, &mut buf).expect("read");
    }
    for i in 0..64u64 {
        let offset = (i % slots) * p.pinned_read_bytes;
        snap.read_scatter(blobseer::ByteRange::new(offset, p.pinned_read_bytes)).expect("scatter");
    }
    std::hint::black_box(&buf);
    store.stats_snapshot()
}

/// Format one [`blobseer::OpLatency`] as a JSON object line.
pub fn json_latency(name: &str, lat: &blobseer::OpLatency) -> String {
    format!(
        "\"{name}\": {{ \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
         \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {} }}",
        lat.count, lat.mean_ns, lat.p50_ns, lat.p90_ns, lat.p99_ns, lat.p999_ns, lat.max_ns
    )
}

/// Minimal shared-kv surface so one driver measures both DHT designs.
pub trait KvStore: Sync {
    /// Insert or overwrite.
    fn kv_put(&self, k: (u64, u64), v: u64);
    /// Non-blocking lookup.
    fn kv_get(&self, k: &(u64, u64)) -> Option<u64>;
}

impl KvStore for Dht<(u64, u64), u64> {
    fn kv_put(&self, k: (u64, u64), v: u64) {
        self.put(k, v);
    }
    fn kv_get(&self, k: &(u64, u64)) -> Option<u64> {
        self.get(k)
    }
}

impl KvStore for MutexDht<(u64, u64), u64> {
    fn kv_put(&self, k: (u64, u64), v: u64) {
        self.put(k, v);
    }
    fn kv_get(&self, k: &(u64, u64)) -> Option<u64> {
        self.get(k)
    }
}

const DHT_BUCKETS: usize = 16;
const DHT_KEYS: u64 = 4096;

/// Traffic shape for [`dht_micro`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtCase {
    /// 80% `get` / 20% `put` over uniform keys — reads dominate 4:1,
    /// writers (tree-node stores) are steady. Exercises both the shared
    /// read path and the waiter-gated notify on the put path.
    ReadHeavy,
    /// 97% `get` / 3% `put` — almost pure reads of published metadata.
    ReadMostly,
    /// Every thread `get`s one key — the Figure 2(b) "all readers fetch
    /// the same root node" hotspot.
    HotRoot,
}

impl DhtCase {
    fn get_pct(self) -> u64 {
        match self {
            DhtCase::ReadHeavy => 80,
            DhtCase::ReadMostly => 97,
            DhtCase::HotRoot => 100,
        }
    }
}

fn dht_run(kv: &(impl KvStore + ?Sized), p: &ReportParams, case: DhtCase) -> Duration {
    for k in 0..DHT_KEYS {
        kv.kv_put((k, k), k);
    }
    let iters = p.dht_iters_per_thread;
    let get_pct = case.get_pct();
    let hot_key = case == DhtCase::HotRoot;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..p.dht_threads as u64 {
            s.spawn(move || {
                // Per-thread LCG for a fixed, reproducible op stream.
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                let mut sink = 0u64;
                for _ in 0..iters {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if hot_key {
                        sink ^= kv.kv_get(&(0, 0)).unwrap_or(0);
                    } else if x % 100 < get_pct {
                        let k = (x >> 32) % DHT_KEYS;
                        sink ^= kv.kv_get(&(k, k)).unwrap_or(0);
                    } else {
                        let k = (x >> 32) % DHT_KEYS;
                        kv.kv_put((k, k), sink ^ x);
                    }
                }
                std::hint::black_box(sink);
            });
        }
    });
    t0.elapsed()
}

/// DHT traffic in the given shape; best-of-`reps` over fresh stores.
pub fn dht_micro(p: &ReportParams, optimized: bool, case: DhtCase) -> RunStats {
    let mut best = Duration::MAX;
    for _ in 0..p.reps {
        let dt = if optimized {
            dht_run(&Dht::<(u64, u64), u64>::new(DHT_BUCKETS), p, case)
        } else {
            dht_run(&MutexDht::<(u64, u64), u64>::new(DHT_BUCKETS), p, case)
        };
        best = best.min(dt);
    }
    RunStats {
        ops: p.dht_threads as u64 * p.dht_iters_per_thread,
        bytes: 0,
        elapsed: best,
        io_jobs: None,
        allocs: None,
    }
}

/// Format one baseline/optimized pair as a JSON object (hand-rolled:
/// the serde shim has no JSON backend).
pub fn json_pair(indent: &str, unit: &str, baseline: &RunStats, optimized: &RunStats) -> String {
    let line = |s: &RunStats| {
        let mut fields = vec![
            format!("\"ops\": {}", s.ops),
            format!("\"elapsed_s\": {:.4}", s.elapsed.as_secs_f64()),
            format!("\"ops_per_s\": {:.1}", s.ops_per_s()),
        ];
        if s.bytes > 0 {
            fields.push(format!("\"mb_per_s\": {:.1}", s.mbps()));
        }
        if let Some(j) = s.io_jobs {
            fields.push(format!("\"io_jobs_dispatched\": {j}"));
        }
        if let Some(a) = s.allocs_per_op() {
            fields.push(format!("\"allocs_per_op\": {a:.1}"));
        }
        fields.join(", ")
    };
    let speedup = baseline.elapsed.as_secs_f64() / optimized.elapsed.as_secs_f64();
    format!(
        "{indent}\"unit\": \"{unit}\",\n\
         {indent}\"baseline\": {{ {} }},\n\
         {indent}\"optimized\": {{ {} }},\n\
         {indent}\"speedup\": {speedup:.2}",
        line(baseline),
        line(optimized),
    )
}
