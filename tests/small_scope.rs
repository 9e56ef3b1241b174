//! Every short history, and long random scripts, checked against the
//! one spec ([`Spec`], in `spec/mod.rs`).
//!
//! * **Exhaustive** ([`explore`]): every sequence over the fixed
//!   alphabet [`ALPHABET`] up to a length, on the harness's tiny store,
//!   with at most 3 blobs. This is the small-scope hypothesis (Jackson,
//!   *Software Abstractions*): most bugs have a short witness, so
//!   enumerate every short history instead of sampling. Each sequence
//!   is replayed on a fresh store, breadth first, so the first witness
//!   found is a shortest one. A state the search has already reached
//!   (and so at an equal or smaller depth) is not expanded again; the
//!   state is the spec plus each provider's page count, a cheap
//!   fingerprint of what the spec leaves out (leaked or extra copies).
//! * **Random** (`random_scripts_meet_the_spec`): long proptest scripts
//!   over every letter with random lengths and offsets, so trees get
//!   deep and writes land unaligned.

mod spec;

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use blobseer::PageStore;
use proptest::prelude::*;
use spec::{op_strategy, run_script, witness, Harness, Op, Spec, ALPHABET};

/// Replay `ops` from a fresh store, checking each result; read every
/// version after the last one.
fn replay(ops: &[Op]) -> Result<(Harness, Spec), String> {
    let mut harness = Harness::new();
    let mut spec = Spec::new();
    for &op in ops {
        harness.step(&mut spec, op)?;
    }
    harness.check_reads(&spec)?;
    Ok((harness, spec))
}

#[derive(Debug, Default)]
struct Search {
    /// Sequences replayed on a fresh store.
    replayed: usize,
    /// Distinct states reached, each settled once.
    states: usize,
    seen: HashSet<u64>,
}

impl Search {
    /// Replay `ops` and check it; settle the state it reaches if the
    /// search has not seen that state before. `true` when it is new.
    fn visit(&mut self, ops: &[Op]) -> bool {
        let (mut harness, spec) = replay(ops).unwrap_or_else(|e| witness(&e, ops));
        self.replayed += 1;
        let page_counts: Vec<_> = harness.plans.iter().map(|p| p.page_count()).collect();
        let mut fingerprint = DefaultHasher::new();
        (&spec, page_counts).hash(&mut fingerprint);
        if !self.seen.insert(fingerprint.finish()) {
            return false;
        }
        self.states += 1;
        let settled = harness.settle(&mut spec.clone());
        settled.unwrap_or_else(|e| witness(&format!("settle: {e}"), ops));
        true
    }
}

/// Breadth-first search over every enabled sequence of [`ALPHABET`] up
/// to `max_len` letters, so the first witness found is a shortest one.
/// Each state is expanded once, from the first (and so shortest)
/// sequence that reached it; states are kept as 64-bit fingerprints.
/// Panics with the first witness.
fn explore(max_len: usize) -> Search {
    let mut search = Search::default();
    search.visit(&[]);
    let mut level: Vec<Vec<Op>> = vec![Vec::new()];
    for depth in 1..=max_len {
        let mut next = Vec::new();
        for prefix in &level {
            let mut at = Spec::new();
            for &op in prefix {
                let _ = at.apply(op);
            }
            for op in ALPHABET.into_iter().filter(|&op| at.enabled(op)) {
                let mut ops = prefix.clone();
                ops.push(op);
                if search.visit(&ops) && depth < max_len {
                    next.push(ops);
                }
            }
        }
        level = next;
    }
    search
}

fn explore_and_report(max_len: usize) {
    let started = Instant::now();
    let Search { replayed, states, .. } = explore(max_len);
    let took = started.elapsed();
    eprintln!(
        "small scope L = {max_len}: {replayed} sequences replayed, {states} states, {took:.2?}"
    );
}

#[test]
fn every_history_of_four_ops_meets_the_spec() {
    explore_and_report(4);
}

/// Two letters deeper than tier-1; CI runs it in release.
#[test]
#[ignore = "minutes in debug; run with --release -- --ignored"]
fn every_history_of_six_ops_meets_the_spec() {
    explore_and_report(6);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_scripts_meet_the_spec(script in proptest::collection::vec(op_strategy(), 1..48)) {
        run_script(&script);
    }
}
