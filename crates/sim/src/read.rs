//! The Figure 2(b) workload: concurrent readers over disjoint chunks.
//!
//! A blob of `blob_pages` pages (the paper grows it to 64 GiB = 2^20
//! pages of 64 KiB) is served by co-deployed data+metadata providers.
//! Each reader executes Algorithm 1: consult the version manager, walk
//! the paper's binary metadata tree level by level (parents before
//! children — the node set per level is
//! [`blobseer_meta::plan::update_plan`]'s span there: a read visits
//! what an update of its range creates),
//! then fetch all pages in parallel. Readers run *on provider nodes*
//! ("the readers are deployed on nodes that already run a data and
//! metadata provider"), so client-side work contends with serving work
//! — one of the two degradation sources under concurrency, the other
//! being the shared upper tree levels (every reader fetches the same
//! root from the same metadata provider).

use std::sync::{Arc, Mutex};

use blobseer_meta::plan::{update_plan, LevelSpan};
use blobseer_simnet::{to_secs, Activity, Engine, Nanos, Network, NodeId, Process, Step};
use blobseer_types::{NodePos, PageRange};

use crate::cluster::Cluster;
use crate::params::{SimParams, PAPER_LEVEL_BITS};
use crate::rpc::Rpc;

/// Aggregate result of one reader-concurrency point.
#[derive(Clone, Copy, Debug)]
pub struct ReadSummary {
    /// Number of concurrent readers.
    pub readers: usize,
    /// Mean per-reader bandwidth in MB/s (the paper's y-axis).
    pub avg_mbps: f64,
    /// Slowest reader's bandwidth.
    pub min_mbps: f64,
    /// Fastest reader's bandwidth.
    pub max_mbps: f64,
    /// Virtual time until the last reader finished, in seconds.
    pub seconds: f64,
}

/// Run the Figure 2(b) experiment: `readers` concurrent clients each
/// read a distinct chunk of `chunk_pages` pages from a blob of
/// `blob_pages` pages striped over `providers` co-deployed nodes.
pub fn read_experiment(
    params: SimParams,
    providers: usize,
    readers: usize,
    blob_pages: u64,
    page_size: u64,
    chunk_pages: u64,
) -> ReadSummary {
    assert!(readers as u64 * chunk_pages <= blob_pages, "chunks must be disjoint");
    let mut net = Network::new(params.latency);
    let cluster = Cluster::build(&mut net, providers, 0)
        .with_centralized_metadata(params.centralized_metadata);
    let root = NodePos::root_for_step(blob_pages, PAPER_LEVEL_BITS);
    let results = Arc::new(Mutex::new(Vec::new()));
    let mut engine = Engine::new(net);
    for r in 0..readers {
        let range = PageRange::new(r as u64 * chunk_pages, chunk_pages);
        engine.spawn(Box::new(ReadClient {
            params,
            client: cluster.co_deployed_client(r),
            cluster: cluster.clone(),
            page_size,
            levels: update_plan(range, root, PAPER_LEVEL_BITS).levels,
            range,
            phase: Phase::Begin,
            start: 0,
            results: Arc::clone(&results),
        }));
    }
    let end = engine.run();
    drop(engine); // releases the readers' clones of `results`
    let durations =
        Arc::try_unwrap(results).expect("engine dropped").into_inner().expect("no poison");
    let bytes = (chunk_pages * page_size) as f64;
    let mbps: Vec<f64> = durations.iter().map(|&d| bytes / 1e6 / to_secs(d)).collect();
    ReadSummary {
        readers,
        avg_mbps: mbps.iter().sum::<f64>() / mbps.len() as f64,
        min_mbps: mbps.iter().copied().fold(f64::INFINITY, f64::min),
        max_mbps: mbps.iter().copied().fold(0.0, f64::max),
        seconds: to_secs(end),
    }
}

enum Phase {
    Begin,
    MetaLevels,
    Pages,
    Finish,
}

struct ReadClient {
    params: SimParams,
    cluster: Cluster,
    client: NodeId,
    page_size: u64,
    /// Spans still to fetch, leaves first: the root's is popped first.
    levels: Vec<LevelSpan>,
    range: PageRange,
    phase: Phase,
    start: Nanos,
    results: Arc<Mutex<Vec<Nanos>>>,
}

impl ReadClient {
    fn node_fetch(&self, pos: NodePos) -> Activity {
        let p = &self.params;
        let rpc = Rpc { resp_bytes: p.node_bytes, server_out: p.meta_read_overhead, ..Rpc::ctl(p) };
        Activity::new(rpc.stages(p, self.client, self.cluster.meta_provider_of(pos)))
    }

    fn page_fetch(&self, page_index: u64) -> Activity {
        let p = &self.params;
        let rpc = Rpc {
            resp_bytes: self.page_size,
            server_out: p.provider_read_overhead,
            client_in: p.client_recv_page_overhead,
            ..Rpc::ctl(p)
        };
        Activity::new(rpc.stages(p, self.client, self.cluster.data_provider_of(page_index)))
    }

    fn vm_rpc(&self) -> Activity {
        let p = &self.params;
        Activity::new(Rpc::ctl(p).stages(p, self.client, self.cluster.vm))
    }
}

impl Process for ReadClient {
    fn step(&mut self, now: Nanos) -> Step {
        loop {
            match self.phase {
                Phase::Begin => {
                    self.start = now;
                    self.phase = Phase::MetaLevels;
                    // Algorithm 1 line 1: check publication with the VM.
                    return Step::Await(vec![self.vm_rpc()]);
                }
                Phase::MetaLevels => {
                    let Some(span) = self.levels.pop() else {
                        self.phase = Phase::Pages;
                        continue;
                    };
                    let batch = span.positions().map(|pos| self.node_fetch(pos)).collect();
                    return Step::AwaitWindow {
                        activities: batch,
                        window: self.params.fetch_window,
                    };
                }
                Phase::Pages => {
                    self.phase = Phase::Finish;
                    let batch = self.range.iter().map(|p| self.page_fetch(p)).collect();
                    return Step::AwaitWindow {
                        activities: batch,
                        window: self.params.fetch_window,
                    };
                }
                Phase::Finish => {
                    self.results.lock().expect("no poison").push(now - self.start);
                    return Step::Done;
                }
            }
        }
    }
}
