//! E1 — Figure 2(a): append throughput as a blob dynamically grows.
//!
//! Paper setup (§5): version manager + provider manager on dedicated
//! nodes; data + metadata providers co-deployed on the rest (50 and 175
//! of them); a single client appends 64 MB of data; page sizes 64 KiB
//! and 256 KiB; x-axis: blob size in pages (up to ~1200); y-axis:
//! append bandwidth (MB/s, observed band ≈ 55..105).
//!
//! The paper does not state the per-append unit; we use 1 MiB appends
//! so every series spans the figure's 0..1200-page x-range (16 pages
//! of 64 KiB or 4 of 256 KiB per append; calibration constants are
//! documented on `SimParams`). Expected shape: sustained high bandwidth, small
//! permanent step-downs where the page count crosses a power of two
//! (a new metadata tree level), larger pages ≥ smaller pages.

use blobseer_sim::{append_experiment, AppendPoint, SimParams};

const MIB: u64 = 1 << 20;

fn main() {
    println!("# Figure 2(a) — append throughput as the blob grows");
    println!("# single client, 1 MiB appends, Grid'5000 constants (117.5 MB/s, 0.1 ms)");
    let series = [(64 * 1024u64, 175usize), (256 * 1024, 175), (64 * 1024, 50), (256 * 1024, 50)];
    let mut results: Vec<(String, Vec<AppendPoint>)> = Vec::new();
    for (psize, providers) in series {
        let total_pages = 1280 * 64 * 1024 / psize; // ≈ 80 MiB of data
        let pts = append_experiment(SimParams::default(), providers, psize, MIB, total_pages);
        results.push((format!("{}K/{}prov", psize / 1024, providers), pts));
    }

    println!(
        "\n{:>12} {:>14} {:>14} {:>14} {:>14}   (MB/s)",
        "64K-pages", results[0].0, results[1].0, results[2].0, results[3].0
    );
    // Shared x-grid over the fraction of the sweep (page counts differ
    // per page size at equal bytes).
    let steps = 20;
    for step in 1..=steps {
        let frac = step as f64 / steps as f64;
        let mut row = String::new();
        let mut pages_64k = 0;
        for (i, (_, pts)) in results.iter().enumerate() {
            let idx = ((pts.len() as f64 * frac) as usize).clamp(1, pts.len()) - 1;
            let p = pts[idx];
            if i == 0 {
                pages_64k = p.pages_after;
            }
            row.push_str(&format!(" {:>14.1}", p.mbps));
        }
        println!("{pages_64k:>12} {row}");
    }

    for (name, pts) in &results {
        let first = pts.first().unwrap().mbps;
        let last = pts.last().unwrap().mbps;
        let min = pts.iter().map(|p| p.mbps).fold(f64::INFINITY, f64::min);
        let max = pts.iter().map(|p| p.mbps).fold(0.0, f64::max);
        println!(
            "# {name}: first {first:.1} last {last:.1} min {min:.1} max {max:.1} MB/s \
             (decline {:.1}%)",
            (1.0 - last / first) * 100.0
        );
    }

    // Highlight the power-of-two steps on the 64K/175 series.
    let pts = &results[0].1;
    println!("# power-of-two step-downs (64K, 175 providers):");
    for window in pts.windows(2) {
        let (a, b) = (window[0], window[1]);
        let crossed = a.pages_after.next_power_of_two() < b.pages_after.next_power_of_two();
        if crossed && b.mbps < a.mbps {
            println!(
                "#   {:>5} -> {:>5} pages: {:.2} -> {:.2} MB/s (new tree level)",
                a.pages_after, b.pages_after, a.mbps, b.mbps
            );
        }
    }

    // Shape assertions — fail loudly if the reproduction drifts.
    for (name, pts) in &results {
        for p in pts {
            assert!(
                p.mbps > 55.0 && p.mbps < 117.5,
                "{name}: {:.1} MB/s at {} pages outside the paper's band",
                p.mbps,
                p.pages_after
            );
        }
    }
    println!("# OK: all series within the paper's 55..117.5 MB/s band");
}
