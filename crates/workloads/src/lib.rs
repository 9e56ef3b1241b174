//! Workload generators for BlobSeer.
//!
//! Three families, mirroring the paper:
//!
//! * [`AppendStream`] — continuously growing data (the paper's core
//!   motivation: "data streams generated and updated by continuously
//!   running applications"), with deterministic, verifiable content;
//! * [`DisjointChunks`] — the Figure 2(b) access pattern: a set of
//!   workers reading disjoint parts of one snapshot;
//! * [`photo`] — the §2.2 usage scenario: a photo-processing service
//!   appending pictures to one huge blob from many sites, running
//!   map-reduce style statistics over snapshots, and overwriting
//!   pictures in place (producing new versions) after enhancement.
//!
//! Plus three drivers over the real engine. [`PipelinedIngest`] wires
//! [`AppendStream`] to the engine's non-blocking `append_pipelined`
//! with a bounded in-flight window — the pipelined client driven by
//! `examples/concurrent_ingest.rs`. [`CrashyIngest`] is the same client
//! under failure injection: every k-th writer dies mid-update and the
//! engine's writer leases recover the blob. [`MultiTenantIngest`] is
//! the shared-deployment client: zipfian-skewed, bursty appends from
//! many tenants, retrying throttled chunks so published content is
//! independent of QoS — the noisy-neighbour traffic `Builder::qos`
//! admission control exists to contain.

pub mod photo;

mod chunks;
mod crashy;
mod driver;
mod stream;
mod tenants;

pub use chunks::DisjointChunks;
pub use crashy::{ChunkRecord, CrashReport, CrashyIngest};
pub use driver::{IngestReport, PipelinedIngest};
pub use stream::AppendStream;
pub use tenants::{MultiTenantIngest, MultiTenantReport, TenantIngestReport};
