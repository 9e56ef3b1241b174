//! E4 — §4.1 ablation: metadata *weaving* vs. rebuilding a full tree
//! per snapshot ("rebuilding a full tree for subsequent updates would
//! be space- and time-inefficient").
//!
//! Part 1 uses the real planner to count the tree nodes each scheme
//! materializes as a blob grows through appends: in the paper's binary
//! tree, and in the engine's tree of four children. Part 2 prices the
//! difference in simulated time: the same append sweep with the cold
//! border descent (no client cache) vs. the cached one.

use blobseer_meta::plan::{full_tree_node_count, update_plan};
use blobseer_sim::{append_experiment, SimParams, PAPER_LEVEL_BITS};
use blobseer_types::{NodePos, PageRange, FANOUT, LEVEL_BITS};

/// Nodes woven and rebuilt over 64 appends of 16 pages, in a tree of
/// level step `bits`, printing the running totals every 8 appends.
fn node_counts(bits: u32) -> (u64, u64) {
    let append_pages = 16u64;
    let appends = 64u64;
    let mut woven_total = 0u64;
    let mut rebuild_total = 0u64;
    println!("\n{:>8} {:>16} {:>16} {:>10}", "pages", "woven nodes", "rebuilt nodes", "ratio");
    for k in 1..=appends {
        let total = k * append_pages;
        let plan = update_plan(
            PageRange::new(total - append_pages, append_pages),
            NodePos::root_for_step(total, bits),
            bits,
        );
        woven_total += plan.node_count();
        rebuild_total += full_tree_node_count(total, bits);
        if k % 8 == 0 {
            println!(
                "{total:>8} {woven_total:>16} {rebuild_total:>16} {:>9.1}x",
                rebuild_total as f64 / woven_total as f64
            );
        }
    }
    assert!(
        rebuild_total > 10 * woven_total,
        "rebuilding must be an order of magnitude worse: {rebuild_total} vs {woven_total}"
    );
    (woven_total, rebuild_total)
}

fn main() {
    println!("# E4 — weaving vs full-rebuild metadata cost");

    // ---- Part 1: node counts (pure planner arithmetic), in the
    // paper's binary tree, then in the engine's. ----
    let (woven_total, rebuild_total) = node_counts(PAPER_LEVEL_BITS);
    println!("\nthe engine's tree ({FANOUT} children per node):");
    let (engine_woven, engine_rebuilt) = node_counts(LEVEL_BITS);
    println!(
        "engine tree: {:.1}x fewer nodes woven than the paper's binary tree",
        woven_total as f64 / engine_woven as f64
    );
    assert!(engine_woven < woven_total && engine_rebuilt < rebuild_total);

    // ---- Part 2: priced in simulated append bandwidth. ----
    let cached = append_experiment(SimParams::default(), 50, 64 * 1024, 1 << 20, 512);
    let cold = append_experiment(
        SimParams { cached_border_descent: false, ..SimParams::default() },
        50,
        64 * 1024,
        1 << 20,
        512,
    );
    let avg = |pts: &[blobseer_sim::AppendPoint]| {
        pts.iter().map(|p| p.mbps).sum::<f64>() / pts.len() as f64
    };
    println!("\nappend bandwidth, cached border resolution: {:>6.1} MB/s", avg(&cached));
    println!("append bandwidth, cold tree descent:        {:>6.1} MB/s", avg(&cold));
    assert!(avg(&cold) < avg(&cached));
    println!(
        "# OK: weaving creates {:.1}x fewer nodes than rebuilding; cold descent costs {:.1}%",
        rebuild_total as f64 / woven_total as f64,
        (1.0 - avg(&cold) / avg(&cached)) * 100.0
    );
}
