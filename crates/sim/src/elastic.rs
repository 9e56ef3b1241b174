//! The elastic-rebalance experiment: what does draining a provider
//! cost, relative to the ingest that filled it, while the cluster
//! keeps growing?
//!
//! The modelled deployment state is the end state of a healthy
//! replicated ingest: `total_pages` pages placed round-robin over the
//! original `providers`, each with a successor-chain replica
//! (replication 2). Then the cluster *changes shape*: `joins` fresh
//! providers register (free — registration is a control-plane blip)
//! and provider 0 is drained. The drain executes the engine's phases
//! (`BlobSeer::drain_provider` on the real engine) on the simulated
//! cluster:
//!
//! * **mark** — fetch every live tree node from its metadata provider
//!   (the drain reuses the scrubber's liveness walk, so this phase is
//!   priced exactly like the scrub mark: it scales with *metadata*
//!   size and rides the same DHT paths);
//! * **scan** — one enumeration RPC at the victim, priced per page
//!   held ([`crate::SimParams::provider_scan_overhead`]);
//! * **migrate** — every copy the victim holds moves through the
//!   drain client to its post-retirement chain target: victim → client
//!   (read + reassembly) then client → target (send + store), with the
//!   write path's RPC window. Targets re-derive over the survivors
//!   *including the newcomers*, which is what makes the join half of
//!   the elasticity visible: a bigger survivor set spreads the
//!   migration fan-in;
//! * each migrated page ends with a deletion charge at the victim
//!   (storage mutation, priced like the scrub sweep's deletes).
//!
//! The headline number is `migrate_to_ingest`: virtual drain seconds
//! per virtual ingest second — the cost of shrinking a cluster by one
//! node as a fraction of the work that filled it. The real-engine
//! driver of the same trajectory is `blobseer_workloads::ElasticIngest`;
//! the benchmark times real drains as `core.maintenance.drain_ms`
//! inside `maint_cycle_ms`@`maintenance_cycle` (`BENCHMARK.json`).

use std::sync::{Arc, Mutex};

use blobseer_meta::plan::update_plan;
use blobseer_simnet::{
    to_secs, Activity, Engine, Nanos, Network, NodeId, Process, Stage, Step, TransferSpec,
};
use blobseer_types::{div_ceil, NodePos, PageRange};

use crate::append::append_experiment;
use crate::cluster::Cluster;
use crate::params::SimParams;

/// Aggregate result of one elastic-rebalance run.
#[derive(Clone, Copy, Debug)]
pub struct ElasticSimSummary {
    /// Data providers before the churn.
    pub providers: usize,
    /// Providers joined before the drain.
    pub joined: usize,
    /// Pages the blob holds (each with one chain replica).
    pub pages_total: u64,
    /// Page copies the victim held and the drain migrated.
    pub pages_migrated: u64,
    /// Payload bytes of those copies.
    pub bytes_migrated: u64,
    /// Virtual seconds of the liveness mark …
    pub mark_seconds: f64,
    /// … of the victim's enumeration scan …
    pub scan_seconds: f64,
    /// … and of the copy-out/copy-in migration.
    pub migrate_seconds: f64,
    /// Total virtual drain time (mark + scan + migrate).
    pub drain_seconds: f64,
    /// Virtual time the equivalent sequential ingest took.
    pub ingest_seconds: f64,
    /// The elasticity tax: `drain_seconds / ingest_seconds`.
    pub migrate_to_ingest: f64,
}

/// Run the elastic-rebalance experiment; see the module docs.
/// Deterministic.
pub fn elastic_drain_experiment(
    params: SimParams,
    providers: usize,
    joins: usize,
    page_size: u64,
    append_bytes: u64,
    total_pages: u64,
) -> ElasticSimSummary {
    assert!(providers >= 3, "drain needs survivors beyond the replica chain");
    assert!(append_bytes.is_multiple_of(page_size), "appends are page-aligned in this workload");
    let pages_per_append = append_bytes / page_size;
    let appends = div_ceil(total_pages, pages_per_append);
    let pages = appends * pages_per_append;

    // Replay the ingest's metadata growth through the real planner —
    // the drain's mark fetches exactly these nodes (shared once).
    let mut nodes: Vec<NodePos> = Vec::new();
    for k in 0..appends {
        let range = PageRange::new(k * pages_per_append, pages_per_append);
        let root = NodePos::root_for((k + 1) * pages_per_append);
        for span in &update_plan(range, root).levels {
            nodes.extend(span.positions());
        }
    }

    // The victim's copy set under round-robin + successor replication:
    // primaries of pages placed on slot 0, plus replicas of pages whose
    // primary is the predecessor slot. Each migrates to its
    // post-retirement chain target, re-derived over the survivors
    // including the joined newcomers.
    let total_nodes = providers + joins;
    let mut net = Network::new(params.latency);
    let cluster = Cluster::build(&mut net, total_nodes, 1)
        .with_centralized_metadata(params.centralized_metadata);
    let mut moves: Vec<(NodeId, u64)> = Vec::new(); // (target, pages)
    let mut per_target = vec![0u64; total_nodes];
    for page in 0..pages {
        let primary = (page % providers as u64) as usize;
        let replica = (primary + 1) % providers;
        if primary == 0 {
            // The primary copy moves to the slot after the (surviving)
            // replica in the new, larger ring.
            per_target[(replica + 1) % total_nodes] += 1;
        } else if replica == 0 {
            // The replica copy re-homes on the primary's new successor.
            per_target[(primary + 1) % total_nodes] += 1;
        }
    }
    for (slot, pages) in per_target.iter().enumerate() {
        if *pages > 0 {
            assert_ne!(slot, 0, "a migration target must not be the victim");
            moves.push((cluster.providers[slot], *pages));
        }
    }
    let pages_migrated: u64 = per_target.iter().sum();

    let mark_done = Arc::new(Mutex::new(None));
    let scan_done = Arc::new(Mutex::new(None));
    let mut engine = Engine::new(net);
    engine.spawn(Box::new(Drainer {
        params,
        client: cluster.clients[0],
        victim: cluster.providers[0],
        cluster,
        nodes,
        moves,
        page_size,
        phase: Phase::Mark,
        mark_done: Arc::clone(&mark_done),
        scan_done: Arc::clone(&scan_done),
    }));
    let end = engine.run();
    drop(engine);

    let mark_ns: Nanos = mark_done.lock().expect("no poison").expect("mark phase ran");
    let scan_ns: Nanos = scan_done.lock().expect("no poison").expect("scan phase ran");
    let drain_seconds = to_secs(end);
    let ingest_seconds: f64 = append_experiment(params, providers, page_size, append_bytes, pages)
        .iter()
        .map(|pt| pt.seconds)
        .sum();
    ElasticSimSummary {
        providers,
        joined: joins,
        pages_total: pages,
        pages_migrated,
        bytes_migrated: pages_migrated * page_size,
        mark_seconds: to_secs(mark_ns),
        scan_seconds: to_secs(scan_ns) - to_secs(mark_ns),
        migrate_seconds: drain_seconds - to_secs(scan_ns),
        drain_seconds,
        ingest_seconds,
        migrate_to_ingest: drain_seconds / ingest_seconds,
    }
}

enum Phase {
    Mark,
    Scan,
    Migrate,
    Finish,
}

struct Drainer {
    params: SimParams,
    cluster: Cluster,
    client: NodeId,
    victim: NodeId,
    nodes: Vec<NodePos>,
    /// `(target provider, pages to move there)`.
    moves: Vec<(NodeId, u64)>,
    page_size: u64,
    phase: Phase,
    mark_done: Arc<Mutex<Option<Nanos>>>,
    scan_done: Arc<Mutex<Option<Nanos>>>,
}

impl Drainer {
    /// One mark fetch — the scrubber's node-fetch shape.
    fn node_fetch(&self, pos: NodePos) -> Activity {
        let p = &self.params;
        let dst = self.cluster.meta_provider_of(pos);
        Activity::new(vec![
            Stage::Transfer(TransferSpec {
                src: self.client,
                dst,
                bytes: p.ctl_bytes,
                src_overhead: p.client_send_overhead,
                dst_overhead: 0,
            }),
            Stage::Service { node: dst, duration: p.rpc_service },
            Stage::Transfer(TransferSpec {
                src: dst,
                dst: self.client,
                bytes: p.node_bytes,
                src_overhead: p.meta_read_overhead,
                dst_overhead: p.client_recv_ctl_overhead,
            }),
        ])
    }

    /// The victim's enumeration scan, priced per page held.
    fn victim_scan(&self, pages: u64) -> Activity {
        let p = &self.params;
        Activity::new(vec![
            Stage::Transfer(TransferSpec {
                src: self.client,
                dst: self.victim,
                bytes: p.ctl_bytes,
                src_overhead: p.client_send_overhead,
                dst_overhead: 0,
            }),
            Stage::Service {
                node: self.victim,
                duration: p.rpc_service + pages * p.provider_scan_overhead,
            },
            Stage::Transfer(TransferSpec {
                src: self.victim,
                dst: self.client,
                bytes: p.ctl_bytes,
                src_overhead: 0,
                dst_overhead: p.client_recv_ctl_overhead,
            }),
        ])
    }

    /// One page's migration: victim → client (read + reassembly),
    /// client → target (send + store), and the victim-side deletion of
    /// the evacuated copy.
    fn migrate_page(&self, target: NodeId) -> Activity {
        let p = &self.params;
        Activity::new(vec![
            Stage::Transfer(TransferSpec {
                src: self.victim,
                dst: self.client,
                bytes: self.page_size,
                src_overhead: p.provider_read_overhead,
                dst_overhead: p.client_recv_page_overhead,
            }),
            Stage::Transfer(TransferSpec {
                src: self.client,
                dst: target,
                bytes: self.page_size,
                src_overhead: p.client_send_overhead,
                dst_overhead: p.provider_store_overhead,
            }),
            // Deleting the drained copy mutates the victim's store —
            // same charge the scrub sweep pays per reclaimed page.
            Stage::Service { node: self.victim, duration: p.provider_store_overhead },
        ])
    }
}

impl Process for Drainer {
    fn step(&mut self, now: Nanos) -> Step {
        match self.phase {
            Phase::Mark => {
                self.phase = Phase::Scan;
                let batch: Vec<Activity> =
                    self.nodes.iter().map(|&pos| self.node_fetch(pos)).collect();
                Step::AwaitWindow { activities: batch, window: self.params.fetch_window }
            }
            Phase::Scan => {
                *self.mark_done.lock().expect("no poison") = Some(now);
                self.phase = Phase::Migrate;
                let held: u64 = self.moves.iter().map(|&(_, n)| n).sum();
                Step::Await(vec![self.victim_scan(held)])
            }
            Phase::Migrate => {
                *self.scan_done.lock().expect("no poison") = Some(now);
                self.phase = Phase::Finish;
                let batch: Vec<Activity> = self
                    .moves
                    .iter()
                    .flat_map(|&(target, n)| (0..n).map(move |_| target))
                    .map(|target| self.migrate_page(target))
                    .collect();
                Step::AwaitWindow { activities: batch, window: self.params.store_window }
            }
            Phase::Finish => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_drain_is_deterministic_and_priced() {
        let run = || elastic_drain_experiment(SimParams::default(), 16, 2, 64 * 1024, 1 << 20, 256);
        let a = run();
        let b = run();
        assert_eq!(a.pages_migrated, b.pages_migrated);
        assert_eq!(a.drain_seconds, b.drain_seconds);
        // Replication 2 over 16 providers: the victim holds ~2/16 of
        // all copies.
        assert_eq!(a.pages_migrated, 2 * a.pages_total / 16);
        assert!(a.migrate_to_ingest > 0.0);
        assert!(
            a.migrate_to_ingest < 1.0,
            "moving 1/8 of the copies must cost less than the full ingest: {:?}",
            a
        );
        assert!(a.mark_seconds > 0.0 && a.scan_seconds > 0.0 && a.migrate_seconds > 0.0);
    }
}
