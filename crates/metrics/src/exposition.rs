//! Prometheus-style text exposition: one writer per kind of line.
//!
//! A metric family is a `# HELP`/`# TYPE` header ([`write_header`])
//! followed by its samples: one [`write_sample`] line per counter or
//! gauge series, one [`write_summary_seconds_labeled`] block per
//! latency histogram. Labels are a pre-rendered list without braces,
//! e.g. `tenant="7"`; an empty list writes the bare name. The
//! unlabeled one-series families are one call each: [`write_counter`],
//! [`write_gauge`] and [`write_summary_seconds`].
//!
//! There is no registry: the caller owns its metrics as plain fields
//! and writes them in its own order, so the output is deterministic
//! and golden-testable. Histograms are exposed as `summary` metrics
//! (pre-computed quantiles), with latency quantiles converted from
//! recorded nanoseconds to seconds per Prometheus base units.

use std::fmt::{Display, Write};

use crate::histogram::HistogramSnapshot;

/// The quantiles a summary exposes, as label value and percentile.
const QUANTILES: [(&str, f64); 4] = [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0), ("0.999", 99.9)];

/// Append the `# HELP` and `# TYPE` lines of one metric family;
/// `kind` is `counter`, `gauge` or `summary`.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// blobseer_metrics::write_header(&mut out, "jobs_total", "jobs run", "counter");
/// assert_eq!(out, "# HELP jobs_total jobs run\n# TYPE jobs_total counter\n");
/// ```
pub fn write_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Append one sample line: `name{labels} value`, or `name value` when
/// `labels` is empty.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// blobseer_metrics::write_sample(&mut out, "jobs_total", "tenant=\"7\"", 3);
/// blobseer_metrics::write_sample(&mut out, "depth", "", -1);
/// assert_eq!(out, "jobs_total{tenant=\"7\"} 3\ndepth -1\n");
/// ```
pub fn write_sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{labels}}} {value}")
    };
}

/// Append one counter family of one unlabeled series.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// blobseer_metrics::write_counter(&mut out, "x_total", "an x", 7);
/// assert_eq!(out, "# HELP x_total an x\n# TYPE x_total counter\nx_total 7\n");
/// ```
pub fn write_counter(out: &mut String, name: &str, help: &str, value: u64) {
    write_header(out, name, help, "counter");
    write_sample(out, name, "", value);
}

/// Append one gauge family of one unlabeled series.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// blobseer_metrics::write_gauge(&mut out, "depth", "queue depth", -3);
/// assert_eq!(out, "# HELP depth queue depth\n# TYPE depth gauge\ndepth -3\n");
/// ```
pub fn write_gauge(out: &mut String, name: &str, help: &str, value: i64) {
    write_header(out, name, help, "gauge");
    write_sample(out, name, "", value);
}

/// Append one latency histogram as an unlabeled Prometheus `summary`:
/// its header, then [`write_summary_seconds_labeled`]'s rows.
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
/// assert!(out.starts_with("# HELP op_seconds op latency\n# TYPE op_seconds summary\n"));
/// assert!(out.contains(r#"op_seconds{quantile="0.5"} 0.000000200"#));
/// assert!(out.contains("op_seconds_sum 0.000000200"));
/// assert!(out.contains("op_seconds_count 1"));
/// ```
pub fn write_summary_seconds(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
    write_header(out, name, help, "summary");
    write_summary_seconds_labeled(out, name, "", snap);
}

/// Append one latency histogram's `summary` rows under `labels`:
/// quantiles 0.5/0.9/0.99/0.999 (`{labels,quantile="..."}`), then
/// `_sum` and `_count` (`{labels}`). Recorded values are nanoseconds,
/// rendered in seconds with nanosecond precision. Quantile lines are
/// omitted while the histogram is empty (a quantile of an empty
/// distribution has no value), but `_sum` and `_count` always render.
/// Writes no header: emit that once per family, then call this per
/// label set (per tenant, per provider, ...).
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
    let seconds = |ns: u64| format!("{:.9}", ns as f64 / 1_000_000_000.0);
    let count = snap.count();
    if count > 0 {
        let sep = if labels.is_empty() { "" } else { "," };
        for (q, pct) in QUANTILES {
            let ns = snap.percentile(pct).unwrap_or(0);
            write_sample(out, name, &format!("{labels}{sep}quantile=\"{q}\""), seconds(ns));
        }
    }
    write_sample(out, &format!("{name}_sum"), labels, seconds(snap.sum()));
    write_sample(out, &format!("{name}_count"), labels, count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicHistogram;

    #[test]
    fn golden_exposition() {
        // All recorded values sit in the exact bucket region (< 256),
        // so the rendered quantiles are byte-for-byte deterministic.
        let lat = AtomicHistogram::new();
        lat.record(100);
        lat.record(200);
        let mut out = String::new();
        write_counter(&mut out, "blobseer_append_ops_total", "appends completed", 2);
        write_summary_seconds(
            &mut out,
            "blobseer_append_latency_seconds",
            "append latency",
            &lat.snapshot(),
        );

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
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_histogram_renders_without_quantiles() {
        let mut out = String::new();
        write_summary_seconds(
            &mut out,
            "quiet_seconds",
            "never recorded",
            &AtomicHistogram::new().snapshot(),
        );
        assert!(!out.contains("quantile"));
        assert!(out.contains("quiet_seconds_sum 0.000000000"));
        assert!(out.contains("quiet_seconds_count 0"));
    }

    #[test]
    fn labeled_rows_carry_their_labels_on_every_line() {
        let h = AtomicHistogram::new();
        h.record(50);
        let mut out = String::new();
        write_summary_seconds_labeled(&mut out, "s", "tenant=\"1\"", &h.snapshot());
        let expected = "\
s{tenant=\"1\",quantile=\"0.5\"} 0.000000050
s{tenant=\"1\",quantile=\"0.9\"} 0.000000050
s{tenant=\"1\",quantile=\"0.99\"} 0.000000050
s{tenant=\"1\",quantile=\"0.999\"} 0.000000050
s_sum{tenant=\"1\"} 0.000000050
s_count{tenant=\"1\"} 1
";
        assert_eq!(out, expected);
    }
}
