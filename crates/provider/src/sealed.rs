//! A page payload sealed with its block checksums.

use std::ops::Deref;
use std::sync::Arc;

use blobseer_types::page_checksum;
use bytes::Bytes;

/// Granularity of page integrity: one checksum per `SUM_BLOCK` payload
/// bytes (the last block of a page may be shorter). A sub-page read
/// re-hashes only the blocks it returns bytes from.
pub const SUM_BLOCK: usize = 4096;

/// Sums of one page. A page no longer than a block — the common case
/// for small-page deployments — keeps its single sum inline; longer
/// pages share one refcounted slice across every copy of the page.
#[derive(Clone)]
enum Sums {
    One(u64),
    Many(Arc<[u64]>),
}

/// A page payload together with the checksums the **client** took of
/// it, one per [`SUM_BLOCK`] bytes.
///
/// Sealing ([`SealedPage::seal`]) is the only place sums are computed
/// from a payload, and the engine does it once per page, before the
/// first copy leaves the client. The same refcounted value then goes to
/// every replica and failover target; stores keep it as their entry,
/// providers verify it on every fetch, and repair and drain re-place
/// the value they fetched. A stored copy therefore always carries sums
/// that came from the client's bytes — nothing downstream ever derives
/// sums from what it happens to find.
///
/// The payload is never wrapped or copied: [`SealedPage::data`] is
/// pointer-identical to the `Bytes` that was sealed. Dereferences to the
/// payload bytes.
#[derive(Clone)]
pub struct SealedPage {
    data: Bytes,
    sums: Sums,
}

/// Blocks a payload of `len` bytes is summed as (an empty payload
/// still has one).
fn block_count(len: usize) -> usize {
    len.div_ceil(SUM_BLOCK).max(1)
}

impl SealedPage {
    /// Checksum `data` block by block — the client's one hashing pass
    /// over a page.
    pub fn seal(data: Bytes) -> SealedPage {
        let sums = if data.len() <= SUM_BLOCK {
            Sums::One(page_checksum(&data))
        } else {
            Sums::Many(data.chunks(SUM_BLOCK).map(page_checksum).collect())
        };
        SealedPage { data, sums }
    }

    /// Fault injection: this page's sums over a **different** payload —
    /// what media rot leaves behind. The result fails verification
    /// wherever `data` differs from the sealed bytes.
    pub(crate) fn with_payload(&self, data: Bytes) -> SealedPage {
        SealedPage { data, sums: self.sums.clone() }
    }

    /// The payload, as handed to [`SealedPage::seal`].
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Unwrap the payload.
    pub fn into_data(self) -> Bytes {
        self.data
    }

    /// The block sums, in block order.
    pub fn sums(&self) -> &[u64] {
        match &self.sums {
            Sums::One(sum) => std::slice::from_ref(sum),
            Sums::Many(sums) => sums,
        }
    }

    /// Re-hash every block that overlaps `offset .. offset + len` and
    /// compare with the sealed sums. Returns the payload bytes hashed
    /// (whole blocks, so at least `len`), or `None` when a block does
    /// not match or the sums do not fit the payload's length. An empty
    /// range overlaps no block.
    pub fn verify_range(&self, offset: usize, len: usize) -> Option<u64> {
        let sums = self.sums();
        if sums.len() != block_count(self.data.len()) {
            return None;
        }
        if len == 0 {
            return Some(0);
        }
        let first = offset / SUM_BLOCK;
        let last = offset.saturating_add(len - 1) / SUM_BLOCK;
        let mut hashed = 0u64;
        for (block, &sum) in sums.iter().enumerate().take(last + 1).skip(first) {
            let start = block * SUM_BLOCK;
            let bytes = &self.data[start..self.data.len().min(start + SUM_BLOCK)];
            if page_checksum(bytes) != sum {
                return None;
            }
            hashed += bytes.len() as u64;
        }
        Some(hashed)
    }

    /// [`Self::verify_range`] over the whole payload (an empty payload
    /// still checks its one sum).
    pub fn verify(&self) -> Option<u64> {
        self.verify_range(0, self.data.len().max(1))
    }
}

impl Deref for SealedPage {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for SealedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedPage")
            .field("len", &self.data.len())
            .field("blocks", &self.sums().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn seal_sums_one_block_at_a_time_and_keeps_the_payload_pointer() {
        let data = payload(2 * SUM_BLOCK + 17);
        let page = SealedPage::seal(data.clone());
        assert_eq!(page.data().as_ptr(), data.as_ptr());
        assert_eq!(page.sums().len(), 3);
        assert_eq!(page.sums()[2], page_checksum(&data[2 * SUM_BLOCK..]));
        assert_eq!(page.verify(), Some(data.len() as u64));
        // Short pages (and the empty one) have exactly one sum.
        for len in [0, 1, SUM_BLOCK] {
            let page = SealedPage::seal(payload(len));
            assert_eq!(page.sums().len(), 1, "len {len}");
            assert_eq!(page.verify(), Some(len as u64));
        }
    }

    #[test]
    fn verify_range_hashes_exactly_the_overlapping_blocks() {
        let page = SealedPage::seal(payload(3 * SUM_BLOCK + 100));
        assert_eq!(page.verify_range(0, 1), Some(SUM_BLOCK as u64));
        assert_eq!(page.verify_range(SUM_BLOCK - 1, 2), Some(2 * SUM_BLOCK as u64));
        assert_eq!(page.verify_range(SUM_BLOCK, SUM_BLOCK), Some(SUM_BLOCK as u64));
        assert_eq!(page.verify_range(3 * SUM_BLOCK + 5, 10), Some(100));
        assert_eq!(page.verify_range(17, 0), Some(0));
    }

    #[test]
    fn rot_is_seen_only_by_ranges_that_overlap_it() {
        let data = payload(3 * SUM_BLOCK);
        let mut rotted = data.to_vec();
        rotted[SUM_BLOCK + 7] ^= 0x10;
        let page = SealedPage::seal(data).with_payload(Bytes::from(rotted));
        assert_eq!(page.verify(), None);
        assert_eq!(page.verify_range(SUM_BLOCK, 8), None);
        assert_eq!(page.verify_range(0, SUM_BLOCK), Some(SUM_BLOCK as u64));
        assert_eq!(page.verify_range(2 * SUM_BLOCK, 1), Some(SUM_BLOCK as u64));
    }

    #[test]
    fn sums_that_do_not_fit_the_payload_never_verify() {
        let data = payload(SUM_BLOCK + 1);
        // A truncated payload under intact sums: the block count gives
        // it away even when the surviving block still matches.
        let page = SealedPage::seal(data.clone()).with_payload(data.slice(..SUM_BLOCK));
        assert_eq!(page.verify_range(0, 1), None);
    }
}
