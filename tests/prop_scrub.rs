//! The orphan scrubber against the one spec (`spec/mod.rs`): random
//! scripts of appends, writers dying at every crash point, aborts that
//! race a pipelined append's completion, retires and scrubs.
//!
//! `scrub_never_reclaims_live_pages_and_reclaims_all_leaks`: every
//! version reads back as the spec says after every scrub (nothing live
//! reclaimed). Settling then checks that the scrub's report accounts
//! for every byte it dropped, that physical bytes are then exactly
//! replication × the pages the spec's retained versions name (every
//! leak reclaimed), and that a second scrub reclaims nothing.

mod spec;

use proptest::prelude::*;
use spec::{appends, crashes, op_strategy, run_script, Op, RandomOp};

/// Leaks (crashes, aborts, retires) and scrubs.
fn leaks() -> impl Strategy<Value = RandomOp> {
    prop_oneof![
        3 => appends(),
        3 => crashes(),
        1 => (1u64..100).prop_map(|len| RandomOp::Op(Op::AbortRace { len })),
        1 => Just(RandomOp::Op(Op::RetireBack)),
        1 => (0u64..8).prop_map(|keep_from| RandomOp::Op(Op::RetireRoot { keep_from })),
        2 => Just(RandomOp::Op(Op::Scrub)),
        2 => op_strategy(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn scrub_never_reclaims_live_pages_and_reclaims_all_leaks(
        script in proptest::collection::vec(leaks(), 1..48),
    ) {
        run_script(&script);
    }
}
