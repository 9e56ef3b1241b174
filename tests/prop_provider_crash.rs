//! Single-provider faults against the one spec (`spec/mod.rs`): a
//! provider's store goes offline, comes back, or has every copy it
//! holds rotted, between any two appends and writes of a random script.
//!
//! `single_provider_faults_lose_nothing`: with replication 2 the spec
//! predicts that no update fails and that every version reads back
//! unchanged while the fault lasts. Settling then checks that repair
//! restores full replication (each provider failed in turn, everything
//! re-read) and that a second repair is a no-op.

mod spec;

use proptest::prelude::*;
use spec::{appends, op_strategy, run_script, writes, Op, RandomOp};

/// Faults and repairs between appends and writes.
fn faults() -> impl Strategy<Value = RandomOp> {
    prop_oneof![
        3 => appends(),
        2 => writes(),
        2 => Just(RandomOp::Op(Op::Fail)),
        2 => Just(RandomOp::Op(Op::Recover)),
        1 => Just(RandomOp::Op(Op::Corrupt)),
        1 => Just(RandomOp::Op(Op::Repair)),
        2 => op_strategy(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn single_provider_faults_lose_nothing(script in proptest::collection::vec(faults(), 1..48)) {
        run_script(&script);
    }
}
