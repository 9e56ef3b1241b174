//! Calibration constants for the simulated testbed.

use blobseer_simnet::{millis, Nanos};

/// Bits of page index per level of the simulated tree: the paper's tree
/// is binary (§4.1), and Figures 2(a) and 2(b) step at its powers of
/// two. The engine's tree steps `blobseer_types::LEVEL_BITS`.
pub const PAPER_LEVEL_BITS: u32 = 1;

/// Client CPU per tree node an update creates (building the new tree
/// in memory): 0.01 ms.
pub const BUILD_PER_NODE: Nanos = 10_000;

/// Client CPU per level of the updated tree (border bookkeeping, level
/// assembly): 0.15 ms. A new level is gained exactly when the page count
/// crosses a power of two, which makes the step visible in the append
/// bandwidth curve.
pub const BUILD_PER_LEVEL: Nanos = 150_000;

/// Cost model of the simulated deployment.
///
/// Wire-level constants are taken from the paper (§5): 1 Gbit/s links
/// measured at 117.5 MB/s for TCP, 0.1 ms latency. Software-path
/// constants are calibrated so that the *single-client* operating
/// points match the paper's measurements (≈ 95-105 MB/s append
/// bandwidth at small blob sizes; ≈ 60 MB/s single-reader bandwidth);
/// everything else — degradation under concurrency, power-of-two steps,
/// series ordering — then **emerges** from the model rather than being
/// fit. The asymmetry between cheap send paths and expensive
/// receive/storage paths reflects the prototype's behaviour: writers
/// push pages zero-copy, while receivers copy, checksum and store.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// NIC capacity, bytes/second, full duplex (paper: 117.5 MB/s).
    pub bandwidth_bps: f64,
    /// One-way propagation latency (paper: 0.1 ms).
    pub latency: Nanos,
    /// CPU service time per RPC at any server (request parse/dispatch).
    pub rpc_service: Nanos,
    /// Wire size of control messages (requests, acks, version grants).
    pub ctl_bytes: u64,
    /// Wire size of a serialized metadata tree node.
    pub node_bytes: u64,
    /// Sender-side per-transfer cost at a client pushing a page
    /// (scatter-gather send).
    pub client_send_overhead: Nanos,
    /// Receiver-side per-transfer cost at a client pulling a page
    /// (reassembly + copy into the user buffer). Calibrates the
    /// single-reader bandwidth of Figure 2(b).
    pub client_recv_page_overhead: Nanos,
    /// Receiver-side per-transfer cost at a client for small messages.
    pub client_recv_ctl_overhead: Nanos,
    /// Receive-and-store path cost per page at a data provider.
    pub provider_store_overhead: Nanos,
    /// Read-and-send path cost per page at a data provider.
    pub provider_read_overhead: Nanos,
    /// Store path cost per tree node at a metadata provider.
    pub meta_store_overhead: Nanos,
    /// Read path cost per tree node at a metadata provider.
    pub meta_read_overhead: Nanos,
    /// When `true`, a writer's border-set resolution is free of remote
    /// fetches because the client caches the nodes it wrote itself —
    /// exact for the single-writer experiments of Figure 2(a). Set to
    /// `false` to price a cold descent of the published tree (used by
    /// the ablation benches).
    pub cached_border_descent: bool,
    /// Maximum concurrent outbound fetch RPCs per client (request
    /// pipelining depth on the read path).
    pub fetch_window: usize,
    /// Maximum concurrent outbound store RPCs per client (write path).
    pub store_window: usize,
    /// Ablation switch: place ALL metadata tree nodes on a single
    /// server instead of distributing them over the DHT. This is the
    /// related-work baseline the paper argues against (§1: "in all
    /// these systems the metadata management is centralized"); measured
    /// by `--bench ablation_metadata`.
    pub centralized_metadata: bool,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            bandwidth_bps: 117.5e6,
            latency: millis(0.1),
            rpc_service: millis(0.1),
            ctl_bytes: 64,
            node_bytes: 128,
            client_send_overhead: millis(0.02),
            client_recv_page_overhead: millis(0.45),
            client_recv_ctl_overhead: millis(0.01),
            provider_store_overhead: millis(0.5),
            provider_read_overhead: millis(0.36),
            meta_store_overhead: millis(0.03),
            meta_read_overhead: millis(0.01),
            cached_border_descent: true,
            fetch_window: 8,
            store_window: 16,
            centralized_metadata: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let p = SimParams::default();
        assert_eq!(p.bandwidth_bps, 117.5e6);
        assert_eq!(p.latency, 100_000);
        assert_eq!(BUILD_PER_NODE, millis(0.01));
        assert_eq!(BUILD_PER_LEVEL, millis(0.15));
    }
}
