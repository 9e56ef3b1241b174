//! Property: pipelined and blocking writes are observationally
//! identical. For any sequence of WRITE/APPEND operations, applying it
//! through `write_pipelined`/`append_pipelined` (depth-bounded, waits
//! deferred) must publish byte-identical snapshots — every version —
//! to applying it through the blocking `write`/`append` path.

use std::collections::VecDeque;

use blobseer::{Blob, BlobSeer, ByteRange, Bytes, PendingWrite, Version};
use proptest::prelude::*;

const PSIZE: u64 = 32;
const DEPTH: usize = 4;

#[derive(Clone, Debug)]
enum Op {
    Append { len: usize, fill: u8 },
    Write { offset_permille: u16, len: usize, fill: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (1usize..200, any::<u8>()).prop_map(|(len, fill)| Op::Append { len, fill }),
        1 => (0u16..=1000, 1usize..150, any::<u8>())
            .prop_map(|(offset_permille, len, fill)| Op::Write { offset_permille, len, fill }),
    ]
}

fn fill_bytes(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8).wrapping_mul(13) | 1).collect()
}

fn build() -> Blob {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(5)
        .metadata_providers(3)
        .io_threads(2)
        .build()
        .unwrap()
        .create()
}

/// Resolve an op against the latest *assigned* size so both drivers
/// compute identical absolute offsets. Returns `(offset, data)`.
fn resolve(op: &Op, assigned_size: u64) -> (u64, Vec<u8>) {
    match *op {
        Op::Append { len, fill } => (assigned_size, fill_bytes(len, fill)),
        Op::Write { offset_permille, len, fill } => {
            (assigned_size * u64::from(offset_permille) / 1000, fill_bytes(len, fill))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn pipelined_equals_blocking(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let blocking = build();
        let pipelined = build();

        // Blocking driver.
        let mut size = 0u64;
        let mut last = Version(0);
        for op in &ops {
            let (offset, data) = resolve(op, size);
            last = match *op {
                Op::Append { .. } => blocking.append(&data).unwrap(),
                Op::Write { .. } => blocking.write(&data, offset).unwrap(),
            };
            size = size.max(offset + data.len() as u64);
        }
        blocking.sync(last).unwrap();

        // Pipelined driver: up to DEPTH updates in flight, waits
        // deferred until the window fills.
        let mut size = 0u64;
        let mut inflight: VecDeque<PendingWrite> = VecDeque::new();
        for op in &ops {
            let (offset, data) = resolve(op, size);
            let data_len = data.len() as u64;
            let pending = match *op {
                Op::Append { .. } => pipelined.append_pipelined(Bytes::from(data)).unwrap(),
                Op::Write { .. } => {
                    pipelined.write_pipelined(Bytes::from(data), offset).unwrap()
                }
            };
            inflight.push_back(pending);
            if inflight.len() > DEPTH {
                inflight.pop_front().unwrap().wait().unwrap();
            }
            size = size.max(offset + data_len);
        }
        let mut newest = Version(0);
        for pending in inflight {
            newest = newest.max(pending.wait().unwrap());
        }
        prop_assert_eq!(newest, last, "both drivers assign the same version sequence");
        pipelined.sync(newest).unwrap();

        // Every published snapshot must be byte-identical.
        for v in 0..=last.raw() {
            let v = Version(v);
            let a = blocking.snapshot(v).unwrap();
            let b = pipelined.snapshot(v).unwrap();
            prop_assert_eq!(a.len(), b.len(), "{:?} size", v);
            let range = ByteRange::new(0, a.len());
            prop_assert_eq!(
                &a.read(range).unwrap()[..],
                &b.read(range).unwrap()[..],
                "{:?} content",
                v
            );
        }
    }
}
