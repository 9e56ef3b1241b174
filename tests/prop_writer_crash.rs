//! Property: writer crashes never corrupt the store. For any sequence
//! of WRITE/APPEND operations where an arbitrary subset of writers dies
//! at an arbitrary prefix of its pipelined update:
//!
//! (a) every surviving writer's version still publishes once the dead
//!     versions are aborted, and
//! (b) every published snapshot is byte-identical to a blocking-write
//!     oracle in which dead updates grow the blob (their assigned
//!     offsets are part of the total order) but contribute only what
//!     they made durable *as metadata*: nothing for crashes before the
//!     leaf store, their full bytes for a crash after it (repair fills
//!     gaps, never overwrites — see `crates/core/src/abort.rs`), and
//! (c) every crashed version is a typed `VersionAborted` hole.

use blobseer::{Blob, BlobSeer, ByteRange, Bytes, CrashPoint, PendingWrite, Version};
use proptest::prelude::*;

const PSIZE: u64 = 32;

#[derive(Clone, Copy, Debug)]
enum Fate {
    Survive,
    /// Crash at the given pipeline prefix; `defer` leaves the wedged
    /// version in place while later updates pile up behind it (abort
    /// happens at the end), `!defer` aborts right away.
    Crash {
        point: CrashPoint,
        defer: bool,
    },
}

#[derive(Clone, Debug)]
enum Op {
    Append { len: usize, fill: u8, fate: Fate },
    Write { offset_permille: u16, len: usize, fill: u8, fate: Fate },
}

fn fate_strategy() -> impl Strategy<Value = Fate> {
    prop_oneof![
        3 => Just(Fate::Survive),
        1 => (
            prop_oneof![
                Just(CrashPoint::AfterPrepare),
                Just(CrashPoint::AfterBoundaryPages),
                Just(CrashPoint::AfterPartialMetadata),
                Just(CrashPoint::BeforeNotify),
            ],
            any::<bool>()
        )
            .prop_map(|(point, defer)| Fate::Crash { point, defer }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (1usize..200, any::<u8>(), fate_strategy())
            .prop_map(|(len, fill, fate)| Op::Append { len, fill, fate }),
        1 => (0u16..=1000, 1usize..150, any::<u8>(), fate_strategy())
            .prop_map(|(offset_permille, len, fill, fate)| Op::Write {
                offset_permille,
                len,
                fill,
                fate
            }),
    ]
}

fn fill_bytes(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8).wrapping_mul(13) | 1).collect()
}

fn build() -> (BlobSeer, Blob) {
    let store = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(5)
        .metadata_providers(3)
        .io_threads(2)
        .build()
        .unwrap();
    let blob = store.create();
    (store, blob)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn crashed_writers_never_corrupt_survivors(ops in proptest::collection::vec(op_strategy(), 1..30)) {
        let (store, blob) = build();

        // Oracle: a zero-filled buffer to which every update applies at
        // its assigned offset — survivors copy their bytes, dead
        // writers only grow the blob. `expected[v]` snapshots the
        // buffer right after version v+1 was assigned.
        let mut oracle: Vec<u8> = Vec::new();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        let mut crashed: Vec<bool> = Vec::new();

        let mut pendings: Vec<PendingWrite> = Vec::new();
        let mut deferred: Vec<Version> = Vec::new();
        let mut assigned_size = 0u64;

        for op in &ops {
            let (offset, data, fate) = match *op {
                Op::Append { len, fill, fate } => (assigned_size, fill_bytes(len, fill), fate),
                Op::Write { offset_permille, len, fill, fate } => (
                    assigned_size * u64::from(offset_permille) / 1000,
                    fill_bytes(len, fill),
                    fate,
                ),
            };
            let end = offset + data.len() as u64;
            if oracle.len() < end as usize {
                oracle.resize(end as usize, 0);
            }
            assigned_size = assigned_size.max(end);

            match fate {
                Fate::Survive => {
                    oracle[offset as usize..end as usize].copy_from_slice(&data);
                    let pending = match *op {
                        Op::Append { .. } => blob.append_pipelined(Bytes::from(data)).unwrap(),
                        Op::Write { .. } => {
                            blob.write_pipelined(Bytes::from(data), offset).unwrap()
                        }
                    };
                    crashed.push(false);
                    prop_assert_eq!(pending.version().raw() as usize, crashed.len());
                    pendings.push(pending);
                }
                Fate::Crash { point, defer } => {
                    // A crash point past AfterPrepare merges boundary
                    // bytes from snapshot vw−1 on *this* thread, which
                    // would block while an unaborted hole sits below.
                    let point = if deferred.is_empty() { point } else { CrashPoint::AfterPrepare };
                    // A writer that died only after all its leaves
                    // were stored leaves its content behind (repair
                    // fills gaps, never overwrites); every earlier
                    // crash point stored no leaf, so the hole reads as
                    // predecessor bytes + zeros.
                    if point == CrashPoint::BeforeNotify {
                        oracle[offset as usize..end as usize].copy_from_slice(&data);
                    }
                    let v = match *op {
                        Op::Append { .. } => {
                            blob.crash_append(Bytes::from(data), point).unwrap()
                        }
                        Op::Write { .. } => {
                            blob.crash_write(Bytes::from(data), offset, point).unwrap()
                        }
                    };
                    crashed.push(true);
                    prop_assert_eq!(v.raw() as usize, crashed.len());
                    if defer || !deferred.is_empty() || blob.abort(v).is_err() {
                        deferred.push(v);
                    }
                }
            }
            expected.push(oracle.clone());
        }

        // Recovery: abort the piled-up holes lowest-first (each repair
        // waits only on strictly lower, already-repaired versions).
        deferred.sort_unstable();
        deferred.dedup();
        for v in deferred {
            match blob.abort(v) {
                // The background sweeper may have beaten us to a
                // version that piled up long enough for later stages
                // to run — equally valid recovery.
                Ok(()) | Err(blobseer::BlobError::AbortConflict(_)) => {}
                other => panic!("abort of deferred {v:?} failed: {other:?}"),
            }
        }
        // (a) every survivor publishes.
        let mut newest = Version(0);
        for pending in pendings {
            newest = newest.max(pending.wait().unwrap());
        }
        if newest > Version(0) {
            blob.sync(newest).unwrap();
        }

        // (b) + (c): every version is either byte-identical to the
        // oracle or a typed hole.
        for (i, &died) in crashed.iter().enumerate() {
            let v = Version(i as u64 + 1);
            if died {
                prop_assert!(
                    matches!(blob.snapshot(v), Err(blobseer::BlobError::VersionAborted { .. })),
                    "{:?} must be an aborted hole",
                    v
                );
                continue;
            }
            let snap = blob.snapshot(v).unwrap();
            prop_assert_eq!(snap.len() as usize, expected[i].len(), "{:?} size", v);
            if snap.is_empty() {
                continue;
            }
            let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
            prop_assert_eq!(&bytes[..], &expected[i][..], "{:?} content", v);
        }
        let aborted_total = crashed.iter().filter(|&&c| c).count() as u64;
        prop_assert_eq!(store.stats().vm.aborted, aborted_total);
    }
}
