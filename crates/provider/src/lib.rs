//! Data providers and the provider manager.
//!
//! Paper §3.1: *data providers* "physically store the pages generated by
//! WRITE and APPEND"; the *provider manager* "keeps information about
//! the available storage space \[and\] decides which providers should be
//! used to store the generated pages according to a strategy aiming at
//! ensuring an even distribution of pages among providers".
//!
//! This crate supplies:
//!
//! * [`SealedPage`] — a page payload plus the block checksums
//!   ([`SUM_BLOCK`] bytes each) its client took; the unit every store
//!   and provider below traffics in;
//! * [`PageStore`] — the storage backend trait, with one sharded
//!   in-memory implementation ([`MemoryPageStore`]);
//! * [`DataProvider`] — one storage node: a store plus access counters
//!   and its own store/fetch latency histograms;
//! * [`ProviderManager`] — the registry, page-to-provider placement
//!   (round robin over the eligible providers, the even distribution
//!   §3.1 asks for) and every page's replica chain and failover
//!   sequence ([`ProviderManager::chain`]);
//! * [`FaultPlan`] — composable fault injection (offline, one-shot and
//!   probabilistic I/O errors, latency, bit-flip corruption) wrapping
//!   any store, so provider failure is a first-class, testable event.
//!
//! Integrity in one sentence: the client seals a page once, providers
//! trust the sums on store and verify — block by block, only the blocks
//! they return — on every fetch; see [`SealedPage`] and [`DataProvider`].

mod fault;
mod manager;
mod provider;
mod sealed;
mod store;

pub use fault::FaultPlan;
pub use manager::{MembershipCounts, ProviderManager};
pub use provider::{DataProvider, ProviderStats, ScrubPass};
pub use sealed::{SealedPage, SUM_BLOCK};
pub use store::{MemoryPageStore, PageStore};
