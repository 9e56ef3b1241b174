//! Block-granular verification, as a property: with one bit of a stored
//! page rotted beneath the provider, a sub-page fetch fails exactly
//! when the rotted block overlaps the requested range, a whole-page
//! fetch always fails, and every failure is counted.

use std::sync::Arc;

use blobseer_provider::{
    DataProvider, FaultPlan, MemoryPageStore, PageStore, SealedPage, SUM_BLOCK,
};
use blobseer_types::{BlobError, PageId, ProviderId};
use bytes::Bytes;
use proptest::prelude::*;

proptest! {
    #[test]
    fn a_range_fetch_is_corrupt_iff_the_flipped_block_overlaps_it(
        len in 1usize..3 * SUM_BLOCK + 18,
        fill in any::<u8>(),
        seed in any::<u64>(),
        offset_sel in any::<u64>(),
        len_sel in any::<u64>(),
    ) {
        let mem = Arc::new(MemoryPageStore::new());
        let plan =
            Arc::new(FaultPlan::with_seed(Arc::clone(&mem) as Arc<dyn PageStore>, seed));
        let provider = DataProvider::new(ProviderId(0), Arc::clone(&plan) as Arc<dyn PageStore>);
        let pid = PageId(1);
        let payload = Bytes::from((0..len).map(|i| fill.wrapping_add(i as u8)).collect::<Vec<u8>>());
        provider.store_page(pid, SealedPage::seal(payload.clone())).unwrap();

        // Healthy: any range is served and costs only its blocks.
        let offset = (offset_sel % len as u64) as usize;
        let want = 1 + (len_sel % (len - offset) as u64) as usize;
        let blocks = offset / SUM_BLOCK..=(offset + want - 1) / SUM_BLOCK;
        let got = provider.fetch_page_range(pid, offset as u64, want as u64).unwrap();
        prop_assert_eq!(&got[..], &payload[offset..offset + want]);
        let covered = (blocks.end() + 1) * SUM_BLOCK;
        let hashed = covered.min(len) - blocks.start() * SUM_BLOCK;
        prop_assert_eq!(provider.stats().bytes_verified, hashed as u64);

        // One bit rots beneath the provider; find where it landed.
        prop_assert!(plan.corrupt_stored_page(pid).unwrap());
        let stored = PageStore::fetch(&*mem, pid).unwrap();
        let flipped = stored.iter().zip(payload.iter()).position(|(a, b)| a != b).unwrap();
        let hit = blocks.contains(&(flipped / SUM_BLOCK));

        let ranged = provider.fetch_page_range(pid, offset as u64, want as u64);
        if hit {
            prop_assert!(matches!(ranged, Err(BlobError::PageCorrupt { .. })), "{ranged:?}");
        } else {
            prop_assert_eq!(&ranged.unwrap()[..], &payload[offset..offset + want]);
        }
        let whole = provider.fetch_page(pid);
        prop_assert!(matches!(whole, Err(BlobError::PageCorrupt { .. })), "{whole:?}");
        prop_assert_eq!(provider.stats().corrupt_detected, 1 + u64::from(hit));
    }
}
