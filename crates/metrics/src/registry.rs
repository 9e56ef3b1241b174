//! Named metric registration and Prometheus-style text exposition.
//!
//! A [`Registry`] owns a list of named metrics and renders them in the
//! Prometheus text format, **in registration order** — deterministic
//! output, so the format is golden-testable. Histograms are exposed as
//! `summary` metrics (pre-computed quantiles), with latency quantiles
//! converted from recorded nanoseconds to seconds per Prometheus base
//! units.
//!
//! Registries are per-instance, not process-global: a test spinning up
//! ten stores in one process gets ten independent registries.

use std::sync::{Arc, Mutex};

use crate::histogram::{AtomicHistogram, HistogramSnapshot};
use crate::metric::Counter;

enum Entry {
    Counter(Arc<Counter>),
    Histogram(Arc<AtomicHistogram>),
}

struct Registered {
    name: String,
    help: String,
    entry: Entry,
}

/// A named collection of metrics with a Prometheus-style text
/// exposition.
///
/// Registration takes a short lock; recording into the returned `Arc`s
/// never does.
///
/// # Examples
///
/// ```
/// use blobseer_metrics::Registry;
///
/// let registry = Registry::new();
/// let ops = registry.counter("app_ops_total", "operations served");
/// ops.add(3);
/// assert!(registry.render().contains("app_ops_total 3"));
/// ```
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Registered>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, entry: Entry) {
        self.entries.lock().expect("metrics registry poisoned").push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            entry,
        });
    }

    /// Create and register a [`Counter`].
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = blobseer_metrics::Registry::new();
    /// let c = registry.counter("jobs_total", "jobs run");
    /// c.increment();
    /// assert_eq!(c.value(), 1);
    /// ```
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register(name, help, Entry::Counter(Arc::clone(&c)));
        c
    }

    /// Create and register an [`AtomicHistogram`] whose recorded values
    /// are **nanoseconds**; the exposition
    /// renders its quantiles in seconds (hence the conventional
    /// `_seconds` name suffix).
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = blobseer_metrics::Registry::new();
    /// let h = registry.histogram_seconds("op_latency_seconds", "op latency");
    /// h.record(250); // 250ns
    /// let text = registry.render();
    /// assert!(text.contains(r#"op_latency_seconds{quantile="0.99"} 0.000000250"#));
    /// assert!(text.contains("op_latency_seconds_count 1"));
    /// ```
    pub fn histogram_seconds(&self, name: &str, help: &str) -> Arc<AtomicHistogram> {
        let h = Arc::new(AtomicHistogram::new());
        self.register(name, help, Entry::Histogram(Arc::clone(&h)));
        h
    }

    /// Register an existing histogram (one owned by another component,
    /// e.g. the DHT's wait-latency histogram) under this registry's
    /// exposition. Recorded values are nanoseconds, rendered as
    /// seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use blobseer_metrics::{AtomicHistogram, Registry};
    ///
    /// let shared = Arc::new(AtomicHistogram::new());
    /// let registry = Registry::new();
    /// registry.register_histogram_seconds("wait_seconds", "wait time", Arc::clone(&shared));
    /// shared.record(100);
    /// assert!(registry.render().contains("wait_seconds_count 1"));
    /// ```
    pub fn register_histogram_seconds(&self, name: &str, help: &str, hist: Arc<AtomicHistogram>) {
        self.register(name, help, Entry::Histogram(hist));
    }

    /// Render every registered metric in the Prometheus text format,
    /// in registration order.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = blobseer_metrics::Registry::new();
    /// registry.counter("a_total", "first").increment();
    /// let text = registry.render();
    /// assert!(text.starts_with("# HELP a_total first\n# TYPE a_total counter\na_total 1\n"));
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.entries.lock().expect("metrics registry poisoned").iter() {
            match &r.entry {
                Entry::Counter(c) => write_counter(&mut out, &r.name, &r.help, c.value()),
                Entry::Histogram(h) => {
                    write_summary_seconds(&mut out, &r.name, &r.help, &h.snapshot())
                }
            }
        }
        out
    }
}

/// Append one counter in Prometheus text format.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// blobseer_metrics::write_counter(&mut out, "x_total", "an x", 7);
/// assert_eq!(out, "# HELP x_total an x\n# TYPE x_total counter\nx_total 7\n");
/// ```
pub fn write_counter(out: &mut String, name: &str, help: &str, value: u64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}");
}

/// Append one gauge in Prometheus text format.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// blobseer_metrics::write_gauge(&mut out, "depth", "queue depth", -3);
/// assert_eq!(out, "# HELP depth queue depth\n# TYPE depth gauge\ndepth -3\n");
/// ```
pub fn write_gauge(out: &mut String, name: &str, help: &str, value: i64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}");
}

/// Append one latency histogram as a Prometheus `summary`: quantiles
/// 0.5/0.9/0.99/0.999 plus `_sum` and `_count`. Recorded values are
/// interpreted as nanoseconds and rendered in seconds with nanosecond
/// precision. Quantile lines are omitted while the histogram is empty
/// (a quantile of an empty distribution has no value), but `_sum` and
/// `_count` always render.
///
/// # Examples
///
/// ```
/// use blobseer_metrics::AtomicHistogram;
///
/// let h = AtomicHistogram::new();
/// h.record(200); // 200ns; values < 256 land in exact buckets
/// let mut out = String::new();
/// blobseer_metrics::write_summary_seconds(&mut out, "op_seconds", "op latency", &h.snapshot());
/// assert!(out.contains(r#"op_seconds{quantile="0.5"} 0.000000200"#));
/// assert!(out.contains("op_seconds_sum 0.000000200"));
/// assert!(out.contains("op_seconds_count 1"));
/// ```
pub fn write_summary_seconds(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} summary");
    let count = snap.count();
    if count > 0 {
        for (label, pct) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0), ("0.999", 99.9)] {
            let ns = snap.percentile(pct).unwrap_or(0);
            let _ =
                writeln!(out, "{name}{{quantile=\"{label}\"}} {:.9}", ns as f64 / 1_000_000_000.0);
        }
    }
    let _ = writeln!(out, "{name}_sum {:.9}", snap.sum() as f64 / 1_000_000_000.0);
    let _ = writeln!(out, "{name}_count {count}");
}

/// Append one latency histogram as **labeled** Prometheus `summary`
/// series: quantile lines carry `{labels,quantile="..."}` and the
/// `_sum`/`_count` lines carry `{labels}`. Writes no `# HELP`/`# TYPE`
/// header — emit that once per metric name, then call this per label
/// set (per tenant, per provider, ...). `labels` is the pre-rendered
/// label list without braces, e.g. `tenant="7"`.
///
/// # Examples
///
/// ```
/// use blobseer_metrics::AtomicHistogram;
///
/// let h = AtomicHistogram::new();
/// h.record(200);
/// let mut out = String::new();
/// blobseer_metrics::write_summary_seconds_labeled(
///     &mut out,
///     "op_seconds",
///     "provider=\"3\"",
///     &h.snapshot(),
/// );
/// assert!(out.contains(r#"op_seconds{provider="3",quantile="0.5"} 0.000000200"#));
/// assert!(out.contains(r#"op_seconds_sum{provider="3"} 0.000000200"#));
/// assert!(out.contains(r#"op_seconds_count{provider="3"} 1"#));
/// ```
pub fn write_summary_seconds_labeled(
    out: &mut String,
    name: &str,
    labels: &str,
    snap: &HistogramSnapshot,
) {
    use std::fmt::Write;
    let count = snap.count();
    if count > 0 {
        for (label, pct) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0), ("0.999", 99.9)] {
            let ns = snap.percentile(pct).unwrap_or(0);
            let _ = writeln!(
                out,
                "{name}{{{labels},quantile=\"{label}\"}} {:.9}",
                ns as f64 / 1_000_000_000.0
            );
        }
    }
    let _ = writeln!(out, "{name}_sum{{{labels}}} {:.9}", snap.sum() as f64 / 1_000_000_000.0);
    let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_exposition() {
        // All recorded values sit in the exact bucket region (< 256),
        // so the rendered quantiles are byte-for-byte deterministic.
        let registry = Registry::new();
        let ops = registry.counter("blobseer_append_ops_total", "appends completed");
        let lat = registry.histogram_seconds("blobseer_append_latency_seconds", "append latency");
        ops.add(2);
        lat.record(100);
        lat.record(200);

        let expected = "\
# HELP blobseer_append_ops_total appends completed
# TYPE blobseer_append_ops_total counter
blobseer_append_ops_total 2
# HELP blobseer_append_latency_seconds append latency
# TYPE blobseer_append_latency_seconds summary
blobseer_append_latency_seconds{quantile=\"0.5\"} 0.000000100
blobseer_append_latency_seconds{quantile=\"0.9\"} 0.000000200
blobseer_append_latency_seconds{quantile=\"0.99\"} 0.000000200
blobseer_append_latency_seconds{quantile=\"0.999\"} 0.000000200
blobseer_append_latency_seconds_sum 0.000000300
blobseer_append_latency_seconds_count 2
";
        assert_eq!(registry.render(), expected);
    }

    #[test]
    fn empty_histogram_renders_without_quantiles() {
        let registry = Registry::new();
        registry.histogram_seconds("quiet_seconds", "never recorded");
        let text = registry.render();
        assert!(!text.contains("quantile"));
        assert!(text.contains("quiet_seconds_sum 0.000000000"));
        assert!(text.contains("quiet_seconds_count 0"));
    }

    #[test]
    fn shared_histogram_renders() {
        let shared = Arc::new(AtomicHistogram::new());
        let registry = Registry::new();
        registry.register_histogram_seconds("shared_seconds", "shared", Arc::clone(&shared));
        shared.record(50);
        assert!(registry.render().contains("shared_seconds_count 1"));
    }
}
