//! Tail-latency observability primitives for BlobSeer.
//!
//! The paper's evaluation (§5) reasons in aggregate throughput; a
//! deployment serving heavy traffic is judged on **tail latency**. This
//! crate provides the measurement layer, in the spirit of pelikan-io's
//! rustcommon stack (base-2 sub-bucketed histograms):
//!
//! * [`Counter`] — an event counter striped by thread: a bump is one
//!   relaxed `fetch_add` on a cache line only the calling thread
//!   writes, and a read sums the stripes;
//! * [`AtomicHistogram`] — a base-2-bucketed atomic histogram whose
//!   relative error is bounded by its [grouping power](GROUPING_POWER)
//!   (7 → ≤ 1/128 ≈ 0.8%), recording in O(1) with two `fetch_add`s
//!   (bucket and sum) on the recording thread's stripe, its bucket
//!   groups allocated on first record; every latency, engine-wide or
//!   per provider or tenant, is one of these, and its snapshot gives
//!   lifetime percentiles (p50/p90/p99/p999);
//! * [`clock`] — the process clock ([`clock::precise_now`]) and the
//!   [`Timer`] that measures a span into a histogram with one clock
//!   read per edge;
//! * the text exposition — [`write_header`], [`write_sample`] and
//!   [`write_summary_seconds_labeled`] for labeled families,
//!   [`write_counter`], [`write_gauge`] and [`write_summary_seconds`]
//!   for one-series ones — in the Prometheus text format. There is no
//!   registry: a caller keeps its metrics as plain fields and writes
//!   them in its own order.
//!
//! **No record writes a line another thread writes.** Up to
//! [`STRIPES`] live threads each own a stripe (see the `stripe`
//! module), and no metric keeps a shared cell beside its stripes. That
//! is what keeps per-operation metrics cheap when many threads serve
//! operations at once.
//!
//! Everything is safe under full concurrency; recording never takes a
//! lock. Snapshots taken while writers are recording are approximate in
//! the usual relaxed-atomics sense (a snapshot may split a concurrent
//! record between `_sum` and its bucket) — fine for observability,
//! documented so nobody builds an invariant on it. Once writers
//! quiesce, every count and sum is exact.
//!
//! # Examples
//!
//! ```
//! use blobseer_metrics::{AtomicHistogram, Timer};
//!
//! let latency = AtomicHistogram::new();
//! let timer = Timer::start();
//! timer.stop(&latency); // records elapsed nanoseconds
//!
//! let mut text = String::new();
//! let snap = latency.snapshot();
//! blobseer_metrics::write_counter(&mut text, "myapp_ops_total", "operations served", snap.count());
//! blobseer_metrics::write_summary_seconds(&mut text, "myapp_op_latency_seconds", "operation latency", &snap);
//! assert!(text.contains("myapp_ops_total 1\n"));
//! assert!(text.contains("# TYPE myapp_op_latency_seconds summary"));
//! ```

pub mod clock;
mod exposition;
mod histogram;
mod metric;
mod stripe;

pub use clock::Timer;
pub use exposition::{
    write_counter, write_gauge, write_header, write_sample, write_summary_seconds,
    write_summary_seconds_labeled,
};
pub use histogram::{AtomicHistogram, HistogramSnapshot, GROUPING_POWER};
pub use metric::Counter;
pub use stripe::STRIPES;
