//! Simulated BlobSeer protocol pipelines (the paper's §5 experiments).
//!
//! This crate reruns the paper's two evaluation workloads on the
//! [`blobseer_simnet`] cluster model:
//!
//! * [`append_experiment`] — Figure 2(a): a single client repeatedly
//!   appends to a growing blob; per-append bandwidth is recorded
//!   against the blob's page count;
//! * [`read_experiment`] — Figure 2(b): N concurrent readers fetch
//!   disjoint 64 MiB chunks of a large blob; the average per-reader
//!   bandwidth is recorded against N;
//! * [`pipelined_append_experiment`] — the Figure 4/5 overlap
//!   scenario: a client keeps `depth` appends in flight (the engine's
//!   `append_pipelined`), overlapping data transfers with metadata
//!   work of lower versions.
//!
//! Crucially, the *costs* fed into the simulator come from the real
//! implementation, not from formulas baked into the benchmark:
//!
//! * the number and position of metadata tree nodes touched by an
//!   update or a read come from [`blobseer_meta::plan`] — the exact
//!   planner the real engine executes, here at the paper's two children
//!   per node ([`PAPER_LEVEL_BITS`]; the engine's tree has four), which
//!   is where the power-of-two bandwidth steps of Figure 2(a) originate;
//! * page→provider placement replays the engine's round-robin
//!   allocation, and tree-node→metadata-provider placement uses the
//!   real DHT hash ([`blobseer_dht::static_bucket`]), so simulated
//!   hotspots (every reader hits the same root bucket) are the real
//!   ones.
//!
//! Calibration constants live in [`SimParams`]; its docs map each one
//! to the paper's testbed.

mod append;
mod cluster;
mod params;
mod read;
mod rpc;

pub use append::{append_experiment, pipelined_append_experiment, AppendPoint, PipelinedSummary};
pub use cluster::Cluster;
pub use params::{SimParams, PAPER_LEVEL_BITS};
pub use read::{read_experiment, ReadSummary};
