//! Sanity and shape tests for the simulated experiments (small scales,
//! so they run in milliseconds; the full paper-scale sweeps live in the
//! bench harnesses).

use blobseer_sim::{append_experiment, pipelined_append_experiment, read_experiment, SimParams};

#[test]
fn append_points_cover_the_sweep() {
    let pts = append_experiment(SimParams::default(), 10, 64 * 1024, 1 << 20, 256);
    // 1 MiB appends of 16 pages each, up to 256 pages → 16 appends.
    assert_eq!(pts.len(), 16);
    assert_eq!(pts.last().unwrap().pages_after, 256);
    for p in &pts {
        assert!(p.seconds > 0.0);
        assert!(p.mbps > 10.0 && p.mbps < 117.5, "bandwidth {} out of band", p.mbps);
    }
}

#[test]
fn append_bandwidth_dips_when_tree_gains_a_level() {
    // With 16-page appends, the tree root grows at 16→32, 32→64, ...:
    // the append that first needs the deeper tree must be slower than
    // its predecessor.
    let pts = append_experiment(SimParams::default(), 10, 64 * 1024, 1 << 20, 512);
    let at = |pages: u64| pts.iter().find(|p| p.pages_after == pages).unwrap().mbps;
    assert!(at(48) < at(32), "crossing 32 pages adds a level: {} !< {}", at(48), at(32));
    assert!(at(144) < at(128), "crossing 128 pages adds a level");
    // And bandwidth declines only mildly overall (high sustained BW).
    assert!(at(512) > 0.7 * at(16), "decline must be slight: {} vs {}", at(512), at(16));
}

#[test]
fn append_is_deterministic() {
    let a = append_experiment(SimParams::default(), 10, 64 * 1024, 1 << 20, 128);
    let b = append_experiment(SimParams::default(), 10, 64 * 1024, 1 << 20, 128);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.seconds, y.seconds);
    }
}

#[test]
fn larger_pages_amortize_overheads() {
    let small = append_experiment(SimParams::default(), 10, 64 * 1024, 1 << 20, 64);
    let large = append_experiment(SimParams::default(), 10, 256 * 1024, 1 << 20, 64);
    let avg = |pts: &[blobseer_sim::AppendPoint]| {
        pts.iter().map(|p| p.mbps).sum::<f64>() / pts.len() as f64
    };
    assert!(
        avg(&large) > avg(&small),
        "256 KiB pages should beat 64 KiB: {} vs {}",
        avg(&large),
        avg(&small)
    );
}

#[test]
fn single_reader_baseline() {
    // Tiny version of Figure 2(b)'s first point: one reader, small blob.
    let s = read_experiment(SimParams::default(), 16, 1, 1 << 14, 64 * 1024, 256);
    assert_eq!(s.readers, 1);
    assert!(s.avg_mbps > 30.0 && s.avg_mbps < 117.5, "got {}", s.avg_mbps);
    assert_eq!(s.min_mbps, s.max_mbps);
}

#[test]
fn reader_bandwidth_degrades_gracefully() {
    // More readers on the same providers → mild per-reader slowdown,
    // not collapse.
    let one = read_experiment(SimParams::default(), 16, 1, 1 << 14, 64 * 1024, 256);
    let sixteen = read_experiment(SimParams::default(), 16, 16, 1 << 14, 64 * 1024, 256);
    assert!(sixteen.avg_mbps < one.avg_mbps, "contention must cost something");
    assert!(
        sixteen.avg_mbps > 0.5 * one.avg_mbps,
        "degradation must be graceful: {} vs {}",
        sixteen.avg_mbps,
        one.avg_mbps
    );
}

#[test]
fn read_is_deterministic() {
    let a = read_experiment(SimParams::default(), 8, 4, 1 << 12, 64 * 1024, 128);
    let b = read_experiment(SimParams::default(), 8, 4, 1 << 12, 64 * 1024, 128);
    assert_eq!(a.avg_mbps, b.avg_mbps);
    assert_eq!(a.seconds, b.seconds);
}

#[test]
fn pipelining_appends_beats_sequential() {
    // Keeping appends in flight overlaps page transfers with metadata
    // work of lower versions: aggregate bandwidth must rise with depth
    // (and saturate, not explode).
    let p = SimParams::default();
    let d1 = pipelined_append_experiment(p, 16, 64 * 1024, 1 << 20, 512, 1);
    let d4 = pipelined_append_experiment(p, 16, 64 * 1024, 1 << 20, 512, 4);
    assert!(
        d4.mbps > 1.2 * d1.mbps,
        "depth-4 pipelining must clearly beat sequential: {} vs {}",
        d4.mbps,
        d1.mbps
    );
    assert!(d4.mbps < 10.0 * d1.mbps, "a 4-deep pipeline cannot exceed ~4x: {}", d4.mbps);
    assert!(d4.seconds < d1.seconds);
}

#[test]
fn pipelined_depth_one_matches_sequential_client() {
    let p = SimParams::default();
    let seq = append_experiment(p, 10, 64 * 1024, 1 << 20, 256);
    let pipe = pipelined_append_experiment(p, 10, 64 * 1024, 1 << 20, 256, 1);
    let seq_total: f64 = seq.iter().map(|pt| pt.seconds).sum();
    assert!(
        (pipe.seconds - seq_total).abs() < 1e-6,
        "depth 1 must degenerate to the sequential pipeline: {} vs {}",
        pipe.seconds,
        seq_total
    );
}

#[test]
fn cold_border_descent_costs_more() {
    let cached = append_experiment(SimParams::default(), 10, 64 * 1024, 1 << 20, 128);
    let cold_params = SimParams { cached_border_descent: false, ..SimParams::default() };
    let cold = append_experiment(cold_params, 10, 64 * 1024, 1 << 20, 128);
    let avg = |pts: &[blobseer_sim::AppendPoint]| {
        pts.iter().map(|p| p.mbps).sum::<f64>() / pts.len() as f64
    };
    assert!(avg(&cold) < avg(&cached));
}
