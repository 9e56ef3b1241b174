//! The Figure 2(a) workload: a single client appends to a growing blob.
//!
//! Per append, the simulated client executes the real pipeline of
//! Algorithm 2: store all new pages in parallel → register with the
//! version manager → build the new metadata tree (the node set comes
//! from [`blobseer_meta::plan::update_plan`] — the *real* planner, at
//! the paper's two children per node) and store every node in parallel
//! → notify the version manager. The client-side tree build charges
//! CPU per node and per level, which is where the paper's "slight
//! bandwidth decrease ... when the number of pages reaches a power of
//! two" comes from: crossing a power of two adds a tree level
//! permanently.

use std::sync::{Arc, Mutex};

use blobseer_meta::plan::{border_positions, update_plan, UpdatePlan};
use blobseer_simnet::{to_secs, Activity, Engine, Nanos, Network, NodeId, Process, Stage, Step};
use blobseer_types::{NodePos, PageRange};

use crate::cluster::Cluster;
use crate::params::{SimParams, BUILD_PER_LEVEL, BUILD_PER_NODE, PAPER_LEVEL_BITS};
use crate::rpc::Rpc;

/// One measured append: the paper plots `mbps` against `pages_after`.
#[derive(Clone, Copy, Debug)]
pub struct AppendPoint {
    /// Blob size in pages after this append.
    pub pages_after: u64,
    /// Wall-clock (virtual) duration of the append in seconds.
    pub seconds: f64,
    /// Achieved append bandwidth in MB/s.
    pub mbps: f64,
}

/// Run the Figure 2(a) experiment: a dedicated client performs
/// successive `append_bytes`-sized appends until the blob holds
/// `total_pages` pages, on a cluster of `providers` co-deployed
/// data+metadata providers. Returns one point per append.
pub fn append_experiment(
    params: SimParams,
    providers: usize,
    page_size: u64,
    append_bytes: u64,
    total_pages: u64,
) -> Vec<AppendPoint> {
    assert!(append_bytes.is_multiple_of(page_size), "appends are page-aligned in this workload");
    let mut net = Network::new(params.latency);
    let cluster = Cluster::build(&mut net, providers, 1)
        .with_centralized_metadata(params.centralized_metadata);
    let client = cluster.clients[0];
    let results = Arc::new(Mutex::new(Vec::new()));
    let proc = AppendClient {
        params,
        cluster,
        client,
        page_size,
        pages_per_append: append_bytes / page_size,
        total_pages,
        next_index: 0,
        stride: 1,
        phase: Phase::Begin,
        plan: None,
        append_start: 0,
        results: Some(Arc::clone(&results)),
    };
    let mut engine = Engine::new(net);
    engine.spawn(Box::new(proc));
    engine.run();
    drop(engine); // releases the process's clone of `results`
    Arc::try_unwrap(results).expect("engine dropped").into_inner().expect("no poison")
}

/// Aggregate result of one pipelined-append run.
#[derive(Clone, Copy, Debug)]
pub struct PipelinedSummary {
    /// Updates kept in flight.
    pub depth: usize,
    /// Virtual time until the last append published, in seconds.
    pub seconds: f64,
    /// Aggregate append bandwidth in MB/s.
    pub mbps: f64,
}

/// The paper's Figure 4/5 overlap scenario: a client keeps `depth`
/// appends in flight. Modelled as `depth` interleaved append pipelines
/// (process `k` performs appends `k, k + depth, ...` of the version
/// sequence) whose data transfers, border fetches and metadata stores
/// all overlap on the simulated network — exactly what the engine's
/// `append_pipelined` does with its completion pool. `depth == 1`
/// degenerates to the sequential [`append_experiment`] client.
pub fn pipelined_append_experiment(
    params: SimParams,
    providers: usize,
    page_size: u64,
    append_bytes: u64,
    total_pages: u64,
    depth: usize,
) -> PipelinedSummary {
    assert!(depth >= 1);
    assert!(append_bytes.is_multiple_of(page_size), "appends are page-aligned in this workload");
    let mut net = Network::new(params.latency);
    let cluster = Cluster::build(&mut net, providers, depth)
        .with_centralized_metadata(params.centralized_metadata);
    let mut engine = Engine::new(net);
    for k in 0..depth {
        engine.spawn(Box::new(AppendClient {
            params,
            client: cluster.clients[k],
            cluster: cluster.clone(),
            page_size,
            pages_per_append: append_bytes / page_size,
            total_pages,
            next_index: k as u64,
            stride: depth as u64,
            phase: Phase::Begin,
            plan: None,
            append_start: 0,
            results: None,
        }));
    }
    let end = engine.run();
    let seconds = to_secs(end);
    let bytes = total_pages * page_size;
    PipelinedSummary { depth, seconds, mbps: bytes as f64 / 1e6 / seconds }
}

enum Phase {
    /// Start the next append (or finish).
    Begin,
    /// Pages stored; register with the version manager.
    Register,
    /// Version assigned; resolve borders (cold descent only).
    Borders,
    /// Build the tree in memory (client CPU).
    Build,
    /// Store all new tree nodes.
    StoreNodes,
    /// Nodes durable; notify the version manager.
    Notify,
    /// Notify acknowledged; record the measurement.
    Record { start: Nanos, pages_after: u64, bytes: u64 },
}

struct AppendClient {
    params: SimParams,
    cluster: Cluster,
    client: NodeId,
    page_size: u64,
    pages_per_append: u64,
    total_pages: u64,
    /// Index (in the global version sequence) of this client's next
    /// append; advances by `stride` per append.
    next_index: u64,
    stride: u64,
    phase: Phase,
    plan: Option<UpdatePlan>,
    append_start: Nanos,
    /// Per-append measurement sink; `None` when the caller only wants
    /// the aggregate (the pipelined experiment).
    results: Option<Arc<Mutex<Vec<AppendPoint>>>>,
}

impl AppendClient {
    fn rpc(&self, dst: NodeId, req_bytes: u64, resp_bytes: u64) -> Activity {
        let rpc = Rpc { req_bytes, resp_bytes, ..Rpc::ctl(&self.params) };
        Activity::new(rpc.stages(&self.params, self.client, dst))
    }

    fn page_store(&self, page_index: u64) -> Activity {
        let p = &self.params;
        let rpc =
            Rpc { req_bytes: self.page_size, server_in: p.provider_store_overhead, ..Rpc::ctl(p) };
        Activity::new(rpc.stages(p, self.client, self.cluster.data_provider_of(page_index)))
    }

    fn node_store(&self, pos: NodePos) -> Activity {
        let p = &self.params;
        let rpc = Rpc { req_bytes: p.node_bytes, server_in: p.meta_store_overhead, ..Rpc::ctl(p) };
        Activity::new(rpc.stages(p, self.client, self.cluster.meta_provider_of(pos)))
    }

    fn node_fetch(&self, pos: NodePos) -> Vec<Stage> {
        let p = &self.params;
        let rpc = Rpc { resp_bytes: p.node_bytes, server_out: p.meta_read_overhead, ..Rpc::ctl(p) };
        rpc.stages(p, self.client, self.cluster.meta_provider_of(pos))
    }

    /// Client-side CPU cost of computing the new tree: per created node
    /// plus per level ([`BUILD_PER_NODE`], [`BUILD_PER_LEVEL`]).
    fn build_compute(&self, plan: &UpdatePlan) -> Nanos {
        plan.node_count() * BUILD_PER_NODE + u64::from(plan.depth()) * BUILD_PER_LEVEL
    }
}

impl Process for AppendClient {
    fn step(&mut self, now: Nanos) -> Step {
        loop {
            match self.phase {
                Phase::Begin => {
                    let pages_before = self.next_index * self.pages_per_append;
                    if pages_before >= self.total_pages {
                        return Step::Done;
                    }
                    self.append_start = now;
                    let range = PageRange::new(pages_before, self.pages_per_append);
                    let root = NodePos::root_for_step(
                        pages_before + self.pages_per_append,
                        PAPER_LEVEL_BITS,
                    );
                    self.plan = Some(update_plan(range, root, PAPER_LEVEL_BITS));
                    self.phase = Phase::Register;
                    let batch = range.iter().map(|p| self.page_store(p)).collect();
                    return Step::AwaitWindow {
                        activities: batch,
                        window: self.params.store_window,
                    };
                }
                Phase::Register => {
                    self.phase = Phase::Borders;
                    // Version grant carries the partial border set.
                    return Step::Await(vec![self.rpc(
                        self.cluster.vm,
                        self.params.ctl_bytes,
                        self.params.ctl_bytes + self.params.node_bytes,
                    )]);
                }
                Phase::Borders => {
                    self.phase = Phase::Build;
                    if self.params.cached_border_descent {
                        // Single writer: every border node is one this
                        // client wrote itself — resolution is local.
                        continue;
                    }
                    // Cold descent: sequential fetches of the path from
                    // the root to the first page (each inner span's
                    // first position) plus the border positions.
                    let plan = self.plan.as_ref().expect("planned");
                    let mut stages = Vec::new();
                    let path = plan.levels.iter().skip(1).rev().flat_map(|s| s.positions().take(1));
                    let borders = border_positions(plan.range, plan.root, PAPER_LEVEL_BITS);
                    for pos in path.chain(borders) {
                        stages.extend(self.node_fetch(pos));
                    }
                    if stages.is_empty() {
                        continue;
                    }
                    return Step::Await(vec![Activity::new(stages)]);
                }
                Phase::Build => {
                    // In-memory tree construction on the client CPU.
                    self.phase = Phase::StoreNodes;
                    let compute = self.build_compute(self.plan.as_ref().expect("planned"));
                    return Step::Await(vec![Activity::new(vec![Stage::Service {
                        node: self.client,
                        duration: compute,
                    }])]);
                }
                Phase::StoreNodes => {
                    self.phase = Phase::Notify;
                    let plan = self.plan.as_ref().expect("planned");
                    let batch: Vec<Activity> =
                        plan.positions().map(|pos| self.node_store(pos)).collect();
                    return Step::AwaitWindow {
                        activities: batch,
                        window: self.params.store_window,
                    };
                }
                Phase::Notify => {
                    // The notify RPC is the append's last timed step.
                    self.phase = Phase::Record {
                        start: self.append_start,
                        pages_after: (self.next_index + 1) * self.pages_per_append,
                        bytes: self.pages_per_append * self.page_size,
                    };
                    return Step::Await(vec![self.rpc(
                        self.cluster.vm,
                        self.params.ctl_bytes,
                        self.params.ctl_bytes,
                    )]);
                }
                Phase::Record { start, pages_after, bytes } => {
                    if let Some(results) = &self.results {
                        let seconds = to_secs(now - start);
                        results.lock().expect("no poison").push(AppendPoint {
                            pages_after,
                            seconds,
                            mbps: bytes as f64 / 1e6 / seconds,
                        });
                    }
                    self.next_index += self.stride;
                    self.phase = Phase::Begin;
                    continue;
                }
            }
        }
    }
}
