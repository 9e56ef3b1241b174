//! Property tests of the DHT: model conformance and placement facts.

use std::collections::HashMap;

use blobseer_dht::{static_bucket, Dht};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Put(u64, u64),
    Get(u64),
}

/// Scripts long enough, over keys enough, that a bucket grows through
/// several segments mid-script (most often with the few-bucket half of
/// the bucket-count draw below). Tombstones and compaction are
/// `tests/cells.rs`' business: only a slab sweep removes.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..512, any::<u64>()).prop_map(|(k, v)| Op::Put(k, v)),
            (0u64..512).prop_map(Op::Get),
        ],
        1..4000,
    )
}

proptest! {
    #[test]
    fn conforms_to_hashmap_model(ops in ops(), buckets in prop_oneof![1usize..6, 6usize..40]) {
        let dht: Dht<u64, u64> = Dht::new(buckets);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let absent = !model.contains_key(&k);
                    prop_assert_eq!(dht.put_new(k, v), absent, "a stored value is never replaced");
                    model.entry(k).or_insert(v);
                }
                Op::Get(k) => {
                    prop_assert_eq!(dht.get(&k), model.get(&k).copied());
                }
            }
            prop_assert_eq!(dht.len(), model.len());
        }
        prop_assert_eq!(dht.is_empty(), model.is_empty());
    }

    #[test]
    fn placement_is_stable_and_in_range(key in any::<(u64, u64)>(), n in 1usize..500) {
        let a = static_bucket(&key, n);
        prop_assert!(a < n);
        prop_assert_eq!(a, static_bucket(&key, n), "same key, same bucket");
    }

    #[test]
    fn bucket_of_matches_static_distribution(keys in proptest::collection::vec(any::<u64>(), 1..100)) {
        let dht: Dht<u64, u64> = Dht::new(7);
        for k in keys {
            prop_assert_eq!(dht.bucket_of(&k), static_bucket(&k, 7));
        }
    }

    #[test]
    fn stats_counters_are_exact(puts in 1u64..100, gets in 1u64..100) {
        let dht: Dht<u64, u64> = Dht::new(3);
        for k in 0..puts {
            dht.put_new(k, k);
        }
        for k in 0..gets {
            let _ = dht.get(&(k % puts));
        }
        let s = dht.stats();
        prop_assert_eq!(s.total_puts, puts);
        prop_assert_eq!(s.total_gets, gets);
        prop_assert_eq!(s.total_entries as u64, puts);
    }
}
