//! Elastic membership against the one spec (`spec/mod.rs`): providers
//! join and drain between any two operations of a random script of
//! appends, writes, crashed writers, retires and scrubs.
//!
//! `membership_churn_is_invisible_to_readers`: the spec has no
//! placement, so every version reading back as the spec says after
//! every join and drain is the claim that churn moves bytes and never
//! changes them. Settling then checks that a drained provider holds no
//! page and stays empty, that repair and scrub reach a fixed point, and
//! the registered, active and retired counts.

mod spec;

use proptest::prelude::*;
use spec::{crashes, op_strategy, run_script, Op, RandomOp};

/// Joins and drains beside the other letters.
fn churn() -> impl Strategy<Value = RandomOp> {
    prop_oneof![
        3 => op_strategy(),
        2 => Just(RandomOp::Op(Op::Drain)),
        2 => Just(RandomOp::Op(Op::AddProvider)),
        1 => Just(RandomOp::Op(Op::Scrub)),
        1 => crashes(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn membership_churn_is_invisible_to_readers(
        script in proptest::collection::vec(churn(), 1..48),
    ) {
        run_script(&script);
    }
}
