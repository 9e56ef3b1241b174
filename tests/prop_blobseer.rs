//! The data plane against the one spec (`spec/mod.rs`): random appends,
//! unaligned writes and branches on several blobs, with deeper trees
//! than the small-scope search reaches.
//!
//! * `engine_matches_model`: every version of every blob holds the
//!   spec's bytes — snapshot *k* is snapshot *k − 1* with update *k*
//!   applied (§2) — after every operation and once settled.
//! * `reads_are_slices_of_full_reads`: random windows of every readable
//!   version equal the same slice of its full read, and of the spec.

mod spec;

use blobseer::{ByteRange, Version};
use proptest::prelude::*;
use spec::{appends, op_strategy, run_script, writes, Op, RandomOp};

/// Mostly appends and writes, some branches and moves between blobs.
fn data_plane() -> impl Strategy<Value = RandomOp> {
    prop_oneof![
        4 => appends(),
        4 => writes(),
        1 => Just(RandomOp::Op(Op::BranchLatest)),
        1 => Just(RandomOp::Op(Op::BranchBack)),
        2 => any::<usize>().prop_map(|index| RandomOp::Op(Op::Focus { index })),
        2 => op_strategy(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_model(script in proptest::collection::vec(data_plane(), 1..60)) {
        run_script(&script);
    }

    #[test]
    fn reads_are_slices_of_full_reads(
        script in proptest::collection::vec(data_plane(), 1..24),
        windows in proptest::collection::vec((0u16..=1000, 1u64..200), 1..12),
    ) {
        let (harness, spec) = run_script(&script);
        for (b, blob) in harness.blobs.iter().enumerate() {
            for v in 0..=spec.last(b) {
                let Ok(want) = spec.read(b, v) else { continue };
                let snap = blob.snapshot(Version(v)).unwrap();
                let size = snap.len();
                let full = snap.read(ByteRange::new(0, size)).unwrap();
                for &(permille, len) in &windows {
                    let offset = size * u64::from(permille) / 1000;
                    let len = len.min(size - offset);
                    let got = snap.read(ByteRange::new(offset, len)).unwrap();
                    let (start, end) = (offset as usize, (offset + len) as usize);
                    prop_assert_eq!(&got[..], &full[start..end], "blob {} v{}", b, v);
                    prop_assert_eq!(&got[..], &want[start..end], "blob {} v{}", b, v);
                }
            }
        }
    }
}
