//! Property: with replication ≥ 2, killing **or corrupting any single
//! data provider** mid-workload loses nothing. For any sequence of
//! WRITE/APPEND operations with a fault injected at an arbitrary point
//! against an arbitrary provider:
//!
//! (a) **no update fails** — write-path failover re-places copies onto
//!     live providers instead of surfacing the fault;
//! (b) every published snapshot stays **byte-identical to a healthy
//!     oracle** (reads treat dead/corrupt copies as misses and fall
//!     back along the deterministic chain, then past it);
//! (c) after the provider recovers, [`BlobSeer::repair_replicas`]
//!     restores full replication — proven by failing each provider in
//!     turn afterwards and re-reading everything — and
//! (d) a second repair pass is a no-op.

use std::sync::Arc;

use blobseer::{BlobSeer, ByteRange, FaultPlan, MemoryPageStore, PageStore};
use proptest::prelude::*;

const PSIZE: u64 = 32;
const PROVIDERS: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Take the provider offline (requests fail until recovery).
    Kill,
    /// Flip one bit in every page copy the provider holds.
    Corrupt,
}

#[derive(Clone, Debug)]
enum Op {
    Append { len: usize, fill: u8 },
    Write { offset_permille: u16, len: usize, fill: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (1usize..200, any::<u8>()).prop_map(|(len, fill)| Op::Append { len, fill }),
        1 => (0u16..=1000, 1usize..150, any::<u8>()).prop_map(|(offset_permille, len, fill)| {
            Op::Write { offset_permille, len, fill }
        }),
    ]
}

fn fill_bytes(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8).wrapping_mul(13) | 1).collect()
}

fn build() -> (BlobSeer, Vec<Arc<FaultPlan>>) {
    let plans: Vec<Arc<FaultPlan>> = (0..PROVIDERS)
        .map(|i| Arc::new(FaultPlan::with_seed(Arc::new(MemoryPageStore::new()), i as u64)))
        .collect();
    let store = BlobSeer::builder()
        .page_size(PSIZE)
        .metadata_providers(3)
        .io_threads(2)
        .replication(2)
        .page_stores(plans.iter().map(|p| Arc::clone(p) as Arc<dyn PageStore>).collect())
        .build()
        .unwrap();
    (store, plans)
}

fn assert_matches_oracle(store: &BlobSeer, blob: &blobseer::Blob, oracle: &[u8]) {
    let v = store.get_recent(blob).unwrap();
    let snap = blob.snapshot(v).unwrap();
    assert_eq!(snap.len() as usize, oracle.len());
    if !oracle.is_empty() {
        let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
        assert_eq!(&bytes[..], oracle, "snapshot diverged from the healthy oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    #[test]
    fn single_provider_faults_lose_nothing(
        ops in proptest::collection::vec(op_strategy(), 2..24),
        fault_at in 0usize..24,
        victim in 0usize..PROVIDERS,
        kill in any::<bool>(),
    ) {
        let (store, plans) = build();
        let blob = store.create();
        let fault = if kill { Fault::Kill } else { Fault::Corrupt };
        let fault_at = fault_at % ops.len();

        let mut oracle: Vec<u8> = Vec::new();
        let mut newest = blobseer::Version(0);
        for (i, op) in ops.iter().enumerate() {
            if i == fault_at {
                match fault {
                    Fault::Kill => plans[victim].set_offline(true),
                    Fault::Corrupt => {
                        for (pid, _) in plans[victim].scan().unwrap() {
                            plans[victim].corrupt_stored_page(pid).unwrap();
                        }
                    }
                }
            }
            let (offset, data) = match *op {
                Op::Append { len, fill } => (oracle.len() as u64, fill_bytes(len, fill)),
                Op::Write { offset_permille, len, fill } => (
                    oracle.len() as u64 * u64::from(offset_permille) / 1000,
                    fill_bytes(len, fill),
                ),
            };
            let end = offset as usize + data.len();
            if oracle.len() < end {
                oracle.resize(end, 0);
            }
            oracle[offset as usize..end].copy_from_slice(&data);
            // (a) the update must succeed despite the fault.
            let v = match *op {
                Op::Append { .. } => blob.append(&data).unwrap(),
                Op::Write { .. } => blob.write(&data, offset).unwrap(),
            };
            newest = newest.max(v);
        }
        blob.sync(newest).unwrap();

        // (b) the degraded deployment still serves the oracle's bytes.
        assert_matches_oracle(&store, &blob, &oracle);

        // (c) recover, repair, and prove full replication: afterwards
        // the loss of ANY single provider must not lose a byte.
        plans[victim].set_offline(false);
        let report = store.repair_replicas().unwrap();
        prop_assert_eq!(report.pages_unrepairable, 0);
        prop_assert_eq!(report.providers_skipped, 0);
        for plan in &plans {
            plan.set_offline(true);
            assert_matches_oracle(&store, &blob, &oracle);
            plan.set_offline(false);
        }

        // (d) a second pass finds a healthy deployment and is a no-op.
        let second = store.repair_replicas().unwrap();
        prop_assert_eq!(second.copies_repaired, 0);
        prop_assert_eq!(second.copies_failed, 0);
        prop_assert_eq!(second.strays_trimmed, 0);
        prop_assert_eq!(second.pages_unrepairable, 0);
    }
}
