//! The benchmark's contract as data: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json`
//! at the repository root is [`manifest`] printed verbatim
//! (`--manifest`), and a unit test keeps the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

impl EndToEnd {
    /// A time or a rate, which a disturbed round can only worsen — as
    /// opposed to a size or a count.
    pub fn is_timing(&self) -> bool {
        matches!(self.unit, "s" | "ms" | "us" | "MB/s")
    }
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// How long one run measures, as the driver passes it in `--seconds`.
pub const RUN_SECONDS: u64 = 24;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "append_stream",
        why: "Fig. 2a: two clients, a blob each, append 1 MiB chunks then scan them back; 16 pages per op through checksum, provider store and pool dispatch, ~2 tree nodes per page, no version contention",
    },
    Workload {
        name: "read_small_hot",
        why: "Fig. 2b hotspot: two readers issue random 4 KiB reads over 128 MiB of pinned snapshots; one tree descent plus one sub-page fetch per read, no node cache to fit or overflow",
    },
    Workload {
        name: "write_small_concurrent",
        why: "The paper's headline: two writers overwrite random 4 KiB pages of one blob; total order, border sets, tree weaving, 15 nodes per 4 KiB, the data plane nearly idle",
    },
    Workload {
        name: "mixed_rw",
        why: "Readers beside a pipelined appender on one blob, replication 2, QoS on: stores beside fetches, put_new beside get, latest() under publication; a gain on one side that taxes the other shows",
    },
    Workload {
        name: "maintenance_cycle",
        why: "Background work on fixed damage: ingest with a provider down and every 8th writer dying, degraded reads, then scrub, repair and drain; completeness is checked exactly",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

// Bounds: every measured metric gets the contract's maximum, 0.25.
// This host's speed itself moves by 10-25 % for seconds at a time (a
// neighbour on the sibling hardware thread, stolen CPU time), so
// ten-run quartile spreads are 0.01-0.10 in a quiet sweep and reached
// 0.22 under a synthetic neighbour (README, "Steadiness"); the driver
// refuses a bound the spread exceeds. The two count ratios repeat
// exactly.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("write_mb_per_s", "MB/s", "higher", 0.25),
    e2e("write_p50_us", "us", "lower", 0.25),
    e2e("read_mb_per_s", "MB/s", "higher", 0.25),
    e2e("read_p50_us", "us", "lower", 0.25),
    e2e("cpu_us_per_mib", "us/MiB", "lower", 0.25),
    e2e("rss_mib", "MiB", "lower", 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
    e2e("meta_nodes_per_page", "ratio", "lower", 0.01),
    e2e("maint_cycle_ms", "ms", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: [Layer; 55] = [
    layer("types.checksum_gib_per_s", "GiB/s", "higher"),
    layer("types.checksum_4k_ns", "ns", "lower"),
    layer("types.cpu_share", "ratio", "lower"),
    layer("rt.io_jobs_per_op", "count", "lower"),
    layer("dht.get_ns", "ns", "lower"),
    layer("dht.get_ns_2thr", "ns", "lower"),
    layer("dht.put_new_ns", "ns", "lower"),
    layer("dht.gets_per_op", "count", "lower"),
    layer("dht.puts_per_op", "count", "lower"),
    layer("dht.waits_per_op", "count", "lower"),
    layer("dht.get_wait_p90_us", "us", "lower"),
    layer("dht.cpu_share", "ratio", "lower"),
    layer("provider.stores_per_op", "count", "lower"),
    layer("provider.fetches_per_op", "count", "lower"),
    layer("provider.bytes_written_per_user_byte", "ratio", "lower"),
    layer("provider.load_imbalance", "ratio", "lower"),
    layer("provider.store_us_per_page", "us", "lower"),
    layer("provider.fetch_us_per_call", "us", "lower"),
    layer("provider.store_busy_share", "ratio", "lower"),
    layer("provider.fetch_busy_share", "ratio", "lower"),
    layer("meta.build_ns_per_node", "ns", "lower"),
    layer("meta.read_meta_ns_per_leaf", "ns", "lower"),
    layer("meta.read_meta_gets_per_leaf", "count", "lower"),
    layer("meta.nodes_per_update", "count", "lower"),
    layer("meta.cpu_share", "ratio", "lower"),
    layer("version.assign_complete_ns", "ns", "lower"),
    layer("version.assign_complete_ns_2thr", "ns", "lower"),
    layer("version.latest_view_ns", "ns", "lower"),
    layer("version.lockfree_read_share", "ratio", "higher"),
    layer("version.lease_renewals_per_op", "count", "lower"),
    layer("version.cpu_share", "ratio", "lower"),
    layer("qos.admitted_per_update", "count", "lower"),
    layer("qos.throttled_share", "ratio", "lower"),
    layer("qos.wait_p90_us", "us", "lower"),
    layer("core.prepare_share", "ratio", "lower"),
    layer("core.unattributed_share", "ratio", "lower"),
    layer("core.self_time_share", "ratio", "lower"),
    layer("core.allocs_per_op", "count", "lower"),
    layer("core.cpu_us_per_op", "us", "lower"),
    layer("core.write_p50_us", "us", "lower"),
    layer("core.write_p90_us", "us", "lower"),
    layer("core.write_p99_us", "us", "lower"),
    layer("core.read_p50_us", "us", "lower"),
    layer("core.read_p90_us", "us", "lower"),
    layer("core.read_p99_us", "us", "lower"),
    layer("core.maintenance.scrub_ms", "ms", "lower"),
    layer("core.maintenance.repair_ms", "ms", "lower"),
    layer("core.maintenance.drain_ms", "ms", "lower"),
    layer("core.maintenance.mark_share", "ratio", "lower"),
    layer("core.maintenance.mark_restarts", "count", "lower"),
    layer("core.maintenance.pages_scanned", "count", "lower"),
    layer("core.maintenance.copies_repaired", "count", "lower"),
    layer("core.maintenance.pages_migrated", "count", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// Where the benchmark lives; the only directory this package owns.
pub const PATH: &str = "crates/bench/examples/benchmark";

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let command = ["cargo", "run", "--release", "--quiet", "--manifest-path"]
        .into_iter()
        .map(quoted)
        .chain([quoted(&format!("{PATH}/Cargo.toml")), quoted("--")])
        .collect::<Vec<_>>()
        .join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        quoted(PATH)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()) && WORKLOADS.len() == 5);
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(well_formed_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(well_formed_name(m.name) && well_formed_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(well_formed_name(m.name) && well_formed_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
    }

    #[test]
    fn set_up_time_is_an_end_to_end_metric_with_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_manifest_is_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(on_disk == manifest(), "regenerate with `--manifest > BENCHMARK.json`");
        assert!(on_disk.len() <= 64 * 1024);
    }
}
