//! One round of a workload: set-up, timed client phases, the
//! maintenance cycle, verification — and the bookkeeping that turns it
//! into named per-round values (`main` turns those of a run into one
//! figure per metric).
//!
//! Only the engine's public handle API and public statistics are used;
//! see the README's "API surface" section for the exact list and why
//! it is closed.

use std::sync::Mutex;
use std::time::Instant;

use blobseer::{Blob, BlobSeer, Bytes, ProviderId, QosConfig, TenantId};

use crate::alloc;
use crate::host;
use crate::lcg::Lcg;
use crate::oplog::{Kind, Section};
use crate::shadow::{Replay, Shadow};
use crate::stats::{percentile, ratio};

pub const MIB: usize = 1 << 20;

/// What a round needs to know about the run it belongs to.
pub struct Cx<'a> {
    pub seed: u64,
    pub workload: usize,
    pub round: u64,
    /// 2 in the end-to-end run; 1 in the traced run, where counts must
    /// repeat exactly.
    pub clients: usize,
    /// The run's payload pool.
    pub pool: &'a Pool,
    /// Present in traced rounds.
    pub shadow: Option<&'a Mutex<Shadow>>,
    /// Zero of every `Op` timestamp of the run.
    pub epoch: Instant,
}

/// A round's set-up, done: how long it took, and the CPU time stolen
/// meanwhile.
pub struct SetUp {
    setup_s: f64,
    steal: (f64, f64),
}

impl Cx<'_> {
    /// Run a round's set-up — everything before its first timed
    /// operation: store, blobs, the data they start with — and time it.
    pub fn set_up<T>(&self, build: impl FnOnce() -> T) -> (T, SetUp) {
        let (began, steal) = (Instant::now(), host::StealWatch::start());
        let built = build();
        (built, SetUp { setup_s: began.elapsed().as_secs_f64(), steal: steal.ticks() })
    }

    /// The random stream of one role (payload pool, client 0, ...) in
    /// this workload and round.
    pub fn lcg(&self, role: u64) -> Lcg {
        Lcg::new(self.seed, ((self.workload as u64) << 48) | (self.round << 8) | role)
    }

    /// In a traced round, queue an engine call for the shadow replay
    /// (run after the timed phase, see `crate::shadow`).
    pub fn replay(&self, replay: impl FnOnce() -> Replay) {
        if let Some(shadow) = self.shadow {
            shadow.lock().expect("shadow lock").defer(replay());
        }
    }

    fn drain_replays(&self) {
        if let Some(shadow) = self.shadow {
            shadow.lock().expect("shadow lock").drain();
        }
    }
}

/// Buffers in a run's payload pool: 64 distinct MiB, more than the L2
/// caches hold.
pub const POOL: usize = 64;
/// Random stream the pool is filled from (workload-independent).
pub const POOL_STREAM: u64 = u64::MAX;

/// Distinct 1 MiB payload buffers, generated once per run. Updates
/// carry refcounted slices of them, so a stored page costs no memory
/// beyond the pool, and every byte a read returns can be checked
/// against the buffer it came from.
pub struct Pool {
    bufs: Vec<Bytes>,
}

impl Pool {
    pub fn generate(mut lcg: Lcg, buffers: usize) -> Pool {
        let mut scratch = vec![0u8; MIB];
        let bufs = (0..buffers)
            .map(|_| {
                lcg.fill(&mut scratch);
                Bytes::copy_from_slice(&scratch)
            })
            .collect();
        Pool { bufs }
    }

    /// Buffer `i`, cycling.
    pub fn buf(&self, i: u64) -> &Bytes {
        &self.bufs[(i % self.bufs.len() as u64) as usize]
    }
}

/// Every store has the same shape: 16 data and 16 metadata providers,
/// memory page stores, 2 client I/O threads (the host has 2 CPUs).
pub fn build_store(page_size: u64, replication: usize, qos: bool) -> BlobSeer {
    let mut builder = BlobSeer::builder()
        .page_size(page_size)
        .data_providers(16)
        .metadata_providers(16)
        .io_threads(2)
        .replication(replication);
    if qos {
        // Admission on, quotas unlimited: the cost of the mechanism
        // without its effect.
        builder = builder.qos(QosConfig::default());
    }
    builder.build().expect("valid store configuration")
}

pub const WRITER: TenantId = TenantId(1);
pub const READER: TenantId = TenantId(2);

/// The engine's public counters at one instant.
#[derive(Clone, Copy, Default)]
struct Counts {
    gets: u64,
    puts: u64,
    waits: u64,
    stores: u64,
    fetches: u64,
    bytes_written: u64,
    io_jobs: u64,
    read_views: u64,
    lockfree: u64,
    renewals: u64,
    nodes: u64,
    allocs: u64,
    store_s: f64,
    store_n: f64,
    fetch_s: f64,
    fetch_n: f64,
}

/// Sum of the values of every series of `metric` in a Prometheus text
/// exposition (`metric 1.5` and `metric{provider="3"} 1.5` alike).
fn text_sum(text: &str, metric: &str) -> f64 {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(metric)?;
            (rest.starts_with(' ') || rest.starts_with('{'))
                .then(|| rest.rsplit(' ').next()?.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

impl Counts {
    fn take(store: &BlobSeer, traced: bool) -> Counts {
        let s = store.stats();
        let mut c = Counts {
            gets: s.metadata.total_gets,
            puts: s.metadata.total_puts,
            waits: s.metadata.total_waits,
            stores: s.providers.iter().map(|p| p.writes).sum(),
            fetches: s.providers.iter().map(|p| p.reads).sum(),
            bytes_written: s.providers.iter().map(|p| p.bytes_written).sum(),
            io_jobs: s.io_jobs_dispatched,
            read_views: s.vm.read_views,
            lockfree: s.vm.lockfree_reads,
            renewals: s.vm.lease_renewals,
            nodes: s.metadata_nodes as u64,
            allocs: alloc::count(),
            ..Counts::default()
        };
        if traced {
            let text = store.metrics_text();
            c.store_s = text_sum(&text, "blobseer_provider_store_latency_seconds_sum");
            c.store_n = text_sum(&text, "blobseer_provider_store_latency_seconds_count");
            c.fetch_s = text_sum(&text, "blobseer_provider_fetch_latency_seconds_sum");
            c.fetch_n = text_sum(&text, "blobseer_provider_fetch_latency_seconds_count");
        }
        c
    }
}

/// What one round measured.
pub struct Round {
    /// Per-round end-to-end values, by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Per-round layer values; empty unless the round was traced.
    pub layer: Vec<(&'static str, f64)>,
    /// CPU ticks, user MiB moved and client operations of the timed
    /// client phases.
    pub cpu_ticks: u64,
    pub mib_moved: f64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Metadata nodes after the client phases (sizes the DHT probe).
    pub nodes: u64,
    /// Share of the CPU time (all CPUs) the hypervisor gave to another
    /// guest during set-up and the client phases, and during the
    /// maintenance cycle. `main` keeps a round's values out of the
    /// run's figures when the window they were measured in was disturbed.
    pub ops_steal_share: f64,
    pub maint_steal_share: f64,
}

/// Accumulates a round from the moment set-up ends.
pub struct RoundAcc<'a> {
    cx: &'a Cx<'a>,
    store: &'a BlobSeer,
    page_size: u64,
    set_up: SetUp,
    first: Counts,
    last: Counts,
    writes: Kind,
    reads: Kind,
    write_wall_ns: u64,
    read_wall_ns: u64,
    /// Gets and fetches of phases that only read.
    read_gets: u64,
    read_fetches: u64,
    cpu_ticks: u64,
    /// Stolen ticks and ticks had, set-up and client phases.
    steal: (f64, f64),
    attempted: u64,
    failed: u64,
}

impl<'a> RoundAcc<'a> {
    /// Set-up is over; the timed client phases follow.
    pub fn begin(
        cx: &'a Cx<'a>,
        store: &'a BlobSeer,
        page_size: u64,
        set_up: SetUp,
    ) -> RoundAcc<'a> {
        cx.drain_replays();
        alloc::set_counting(cx.shadow.is_some());
        let first = Counts::take(store, cx.shadow.is_some());
        RoundAcc {
            cx,
            store,
            page_size,
            steal: set_up.steal,
            set_up,
            first,
            last: first,
            writes: Kind::default(),
            reads: Kind::default(),
            write_wall_ns: 0,
            read_wall_ns: 0,
            read_gets: 0,
            read_fetches: 0,
            cpu_ticks: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Add one timed client phase.
    pub fn ops(&mut self, section: Section) {
        let now = Counts::take(self.store, self.cx.shadow.is_some());
        alloc::set_counting(false);
        self.cx.drain_replays();
        alloc::set_counting(self.cx.shadow.is_some());
        if !section.writes.ops.is_empty() {
            self.write_wall_ns += section.wall_ns;
        }
        if !section.reads.ops.is_empty() {
            self.read_wall_ns += section.wall_ns;
            if section.writes.ops.is_empty() {
                self.read_gets += now.gets - self.last.gets;
                self.read_fetches += now.fetches - self.last.fetches;
            }
        }
        self.last = now;
        self.writes.ops.extend(section.writes.ops);
        self.writes.bytes += section.writes.bytes;
        self.reads.ops.extend(section.reads.ops);
        self.reads.bytes += section.reads.bytes;
        self.cpu_ticks += section.cpu_ticks;
        self.steal = (self.steal.0 + section.steal.0, self.steal.1 + section.steal.1);
        self.attempted += section.attempted;
        self.failed += section.failed;
    }

    /// Count an untimed check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            eprintln!("verification failed: {what}");
            self.failed += 1;
        }
    }

    /// The client phases are over: run the maintenance cycle, let
    /// `verify` check the store, and close the round.
    pub fn finish(mut self, blobs: &[Blob], verify: impl FnOnce(&mut RoundAcc)) -> Round {
        alloc::set_counting(false);
        let store = self.store;
        let rss_mib = host::rss_mib();
        let pages: Vec<usize> = store.stats().providers.iter().map(|p| p.pages).collect();
        let cycle = Cycle::run(store);
        self.check(cycle.ok, "maintenance cycle returned an error");

        let user_bytes: u64 = blobs.iter().filter_map(|b| b.latest().ok()).map(|s| s.len()).sum();
        let after = store.stats();
        // A retired provider leaves the statistics; had it kept pages,
        // `physical_bytes` (which spans retired providers too) would
        // exceed what the workload's own check expects.
        self.check(
            after.providers.iter().all(|p| p.id != ProviderId(0)),
            "provider 0 was not retired",
        );
        verify(&mut self);

        let (write_ns, read_ns) = (sorted_ns(&self.writes), sorted_ns(&self.reads));
        let nodes = (self.last.nodes - self.first.nodes) as f64;
        let pages_written = self.writes.bytes.div_ceil(self.page_size) as f64;
        let values = vec![
            ("setup_s", self.set_up.setup_s),
            (
                "write_mb_per_s",
                ratio(self.writes.bytes as f64 / 1e6, self.write_wall_ns as f64 / 1e9),
            ),
            ("write_p50_us", percentile_us(&write_ns, 50.0)),
            ("read_mb_per_s", ratio(self.reads.bytes as f64 / 1e6, self.read_wall_ns as f64 / 1e9)),
            ("read_p50_us", percentile_us(&read_ns, 50.0)),
            ("rss_mib", rss_mib),
            ("stored_bytes_per_user_byte", ratio(after.physical_bytes as f64, user_bytes as f64)),
            ("meta_nodes_per_page", ratio(nodes, pages_written)),
            ("maint_cycle_ms", cycle.scrub_ms + cycle.repair_ms + cycle.drain_ms),
        ];
        let layer = if self.cx.shadow.is_some() {
            self.layer_values(&cycle, &pages, &write_ns, &read_ns)
        } else {
            Vec::new()
        };
        Round {
            values,
            layer,
            cpu_ticks: self.cpu_ticks,
            mib_moved: (self.writes.bytes + self.reads.bytes) as f64 / MIB as f64,
            ops: (self.writes.ops.len() + self.reads.ops.len()) as u64,
            attempted: self.attempted,
            failed: self.failed,
            nodes: self.last.nodes,
            ops_steal_share: ratio(self.steal.0, self.steal.1),
            maint_steal_share: ratio(cycle.steal.0, cycle.steal.1),
        }
    }

    /// The per-layer values of a traced round: deltas of the engine's
    /// counters over the client phases (S) and its histograms (H).
    /// `pages` is the per-provider page count before maintenance.
    fn layer_values(
        &self,
        cycle: &Cycle,
        pages: &[usize],
        write_ns: &[u64],
        read_ns: &[u64],
    ) -> Vec<(&'static str, f64)> {
        let store = self.store;
        let d = |f: fn(&Counts) -> u64| (f(&self.last) - f(&self.first)) as f64;
        let df = |f: fn(&Counts) -> f64| f(&self.last) - f(&self.first);
        let updates = write_ns.len() as f64;
        let ops = updates + read_ns.len() as f64;
        let op_s = write_ns.iter().chain(read_ns).sum::<u64>() as f64 / 1e9;
        let snap = store.stats_snapshot();
        let sum_s = |l: blobseer::OpLatency| l.mean_ns as f64 * l.count as f64 / 1e9;
        let qos = store.tenant_qos_stats(WRITER).unwrap_or_default();
        let text = store.metrics_text();
        let mark_ms: f64 = ["scrub", "repair", "drain"]
            .iter()
            .map(|m| 1e3 * text_sum(&text, &format!("blobseer_{m}_mark_latency_seconds_sum")))
            .sum();
        let cycle_ms = cycle.scrub_ms + cycle.repair_ms + cycle.drain_ms;
        let max_pages = pages.iter().copied().max().unwrap_or(0) as f64;
        let mean_pages = ratio(pages.iter().sum::<usize>() as f64, pages.len() as f64);
        vec![
            ("rt.io_jobs_per_op", ratio(d(|c| c.io_jobs), ops)),
            ("dht.gets_per_op", ratio(d(|c| c.gets), ops)),
            ("dht.puts_per_op", ratio(d(|c| c.puts), ops)),
            ("dht.waits_per_op", ratio(d(|c| c.waits), ops)),
            ("dht.get_wait_p90_us", snap.dht_get_wait.p90_ns as f64 / 1e3),
            ("provider.stores_per_op", ratio(d(|c| c.stores), ops)),
            ("provider.fetches_per_op", ratio(d(|c| c.fetches), ops)),
            (
                "provider.bytes_written_per_user_byte",
                ratio(d(|c| c.bytes_written), self.writes.bytes as f64),
            ),
            ("provider.load_imbalance", ratio(max_pages, mean_pages)),
            ("provider.store_us_per_page", ratio(df(|c| c.store_s) * 1e6, df(|c| c.store_n))),
            ("provider.fetch_us_per_call", ratio(df(|c| c.fetch_s) * 1e6, df(|c| c.fetch_n))),
            ("provider.store_busy_share", ratio(df(|c| c.store_s), op_s)),
            ("provider.fetch_busy_share", ratio(df(|c| c.fetch_s), op_s)),
            (
                "meta.read_meta_gets_per_leaf",
                ratio(self.read_gets as f64, self.read_fetches as f64),
            ),
            ("meta.nodes_per_update", ratio(d(|c| c.nodes), updates)),
            ("version.lockfree_read_share", ratio(d(|c| c.lockfree), d(|c| c.read_views))),
            ("version.lease_renewals_per_op", ratio(d(|c| c.renewals), ops)),
            ("qos.admitted_per_update", ratio(qos.admitted as f64, updates)),
            (
                "qos.throttled_share",
                ratio(qos.throttled as f64, (qos.admitted + qos.throttled) as f64),
            ),
            ("qos.wait_p90_us", qos.wait.p90_ns as f64 / 1e3),
            (
                "core.prepare_share",
                ratio(sum_s(snap.write_prepare), sum_s(snap.append) + sum_s(snap.write)),
            ),
            ("core.allocs_per_op", ratio(d(|c| c.allocs), ops)),
            ("core.write_p50_us", percentile_us(write_ns, 50.0)),
            ("core.write_p90_us", percentile_us(write_ns, 90.0)),
            ("core.write_p99_us", percentile_us(write_ns, 99.0)),
            ("core.read_p50_us", percentile_us(read_ns, 50.0)),
            ("core.read_p90_us", percentile_us(read_ns, 90.0)),
            ("core.read_p99_us", percentile_us(read_ns, 99.0)),
            ("core.maintenance.scrub_ms", cycle.scrub_ms),
            ("core.maintenance.repair_ms", cycle.repair_ms),
            ("core.maintenance.drain_ms", cycle.drain_ms),
            ("core.maintenance.mark_share", ratio(mark_ms, cycle_ms)),
            ("core.maintenance.mark_restarts", cycle.mark_restarts as f64),
            ("core.maintenance.pages_scanned", cycle.pages_scanned as f64),
            ("core.maintenance.copies_repaired", cycle.copies_repaired as f64),
            ("core.maintenance.pages_migrated", cycle.pages_migrated as f64),
        ]
    }
}

/// Latencies of one kind of operation, ascending, in nanoseconds.
fn sorted_ns(kind: &Kind) -> Vec<u64> {
    let mut ns: Vec<u64> = kind.ops.iter().map(|op| op.ns()).collect();
    ns.sort_unstable();
    ns
}

fn percentile_us(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        0.0
    } else {
        percentile(sorted_ns, pct) as f64 / 1e3
    }
}

/// One timed maintenance cycle: `scrub_orphans`, `repair_replicas`,
/// `drain_provider(0)`, with what their reports counted.
struct Cycle {
    ok: bool,
    scrub_ms: f64,
    repair_ms: f64,
    drain_ms: f64,
    mark_restarts: u64,
    pages_scanned: u64,
    copies_repaired: u64,
    pages_migrated: usize,
    /// Stolen ticks and ticks had during the cycle.
    steal: (f64, f64),
}

impl Cycle {
    fn run(store: &BlobSeer) -> Cycle {
        let steal = host::StealWatch::start();
        let t0 = Instant::now();
        let scrub = store.scrub_orphans();
        let t1 = Instant::now();
        let repair = store.repair_replicas();
        let t2 = Instant::now();
        let drain = store.drain_provider(ProviderId(0));
        let t3 = Instant::now();
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        let ok = scrub.is_ok() && repair.is_ok() && drain.is_ok();
        let (scrub, repair) = (scrub.unwrap_or_default(), repair.unwrap_or_default());
        let (drain_restarts, pages_migrated) =
            drain.map_or((0, 0), |d| (d.mark_restarts, d.pages_evacuated));
        Cycle {
            ok,
            scrub_ms: ms(t0, t1),
            repair_ms: ms(t1, t2),
            drain_ms: ms(t2, t3),
            mark_restarts: scrub.mark_restarts + repair.mark_restarts + drain_restarts,
            pages_scanned: scrub.pages_scanned,
            copies_repaired: repair.copies_repaired,
            pages_migrated,
            steal: steal.ticks(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_sum_adds_labeled_and_bare_series_of_exactly_that_metric() {
        let text = "# HELP x_sum help\n\
                    x_sum{provider=\"0\"} 0.250000000\n\
                    x_sum{provider=\"1\"} 0.500000000\n\
                    x_summary 9\n\
                    x_count{provider=\"0\"} 3\n\
                    y_sum 1.5\n";
        assert_eq!(text_sum(text, "x_sum"), 0.75);
        assert_eq!(text_sum(text, "y_sum"), 1.5);
        assert_eq!(text_sum(text, "z_sum"), 0.0);
    }

    #[test]
    fn pool_buffers_are_distinct_and_repeat_per_seed() {
        let a = Pool::generate(Lcg::new(1, 9), 3);
        let b = Pool::generate(Lcg::new(1, 9), 3);
        assert_eq!(a.buf(0), b.buf(0));
        assert_ne!(a.buf(0), a.buf(1));
        assert_eq!(a.buf(4), a.buf(1));
        assert_eq!(a.buf(2).len(), MIB);
    }
}
