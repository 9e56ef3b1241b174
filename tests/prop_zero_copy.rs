//! Property tests for the zero-copy write path: `write_bytes` /
//! `append_bytes` must be observationally identical to the `&[u8]` API
//! across unaligned offsets and page sizes, with and without the
//! zero-copy carving optimization.

use blobseer::{BlobSeer, Bytes};
use proptest::prelude::*;

/// Deterministic, offset-dependent payload so misplaced bytes are
/// detected no matter where they land.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64) % 251) as u8).collect()
}

fn build(page_size: u64, zero_copy: bool) -> BlobSeer {
    BlobSeer::builder()
        .page_size(page_size)
        .data_providers(4)
        .metadata_providers(4)
        .io_threads(3)
        .zero_copy_pages(zero_copy)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// An interleaving of appends and overwrites applied through the
    /// slice API and through the zero-copy Bytes API produces blobs
    /// that read back byte-identical, at every prefix version.
    #[test]
    fn bytes_api_matches_slice_api(
        page_pow in 8u32..12, // 256 B .. 2 KiB pages
        ops in proptest::collection::vec((any::<u64>(), 1usize..6000, any::<u64>()), 1..10),
    ) {
        let psize = 1u64 << page_pow;
        let slice_store = build(psize, false); // the pre-PR baseline
        let bytes_store = build(psize, true); // the optimized path
        let a = slice_store.create().id();
        let b = bytes_store.create().id();

        let mut size = 0u64;
        for (i, (seed, len, off_sel)) in ops.into_iter().enumerate() {
            let data = pattern(seed, len);
            if i % 2 == 0 || size == 0 {
                let va = slice_store.append(a, &data).unwrap();
                let vb = bytes_store.append_bytes(b, Bytes::from(data)).unwrap();
                prop_assert_eq!(va, vb);
                size += len as u64;
            } else {
                // Unaligned overwrite somewhere inside the blob; may
                // also grow it past the end.
                let offset = off_sel % size;
                let va = slice_store.write(a, &data, offset).unwrap();
                let vb = bytes_store.write_bytes(b, Bytes::from(data), offset).unwrap();
                prop_assert_eq!(va, vb);
                size = size.max(offset + len as u64);
            }
        }

        let v = slice_store.get_recent(a).unwrap();
        prop_assert_eq!(v, bytes_store.get_recent(b).unwrap());
        slice_store.sync(a, v).unwrap();
        bytes_store.sync(b, v).unwrap();
        prop_assert_eq!(slice_store.get_size(a, v).unwrap(), size);
        prop_assert_eq!(bytes_store.get_size(b, v).unwrap(), size);
        let want = slice_store.read(a, v, 0, size).unwrap();
        let got = bytes_store.read(b, v, 0, size).unwrap();
        prop_assert_eq!(want, got);
    }

    /// Appending slices of one shared refcounted buffer (the paper's
    /// "huge upload, one wire buffer" shape) reconstructs the buffer.
    #[test]
    fn shared_buffer_slices_append_back_to_identity(
        page_pow in 8u32..11,
        total in 2000usize..20000,
        cuts in proptest::collection::vec(1usize..2000, 0..6),
    ) {
        let store = build(1u64 << page_pow, true);
        let blob = store.create().id();
        let source = Bytes::from(pattern(42, total));

        let mut at = 0usize;
        let mut last = None;
        for cut in cuts {
            let end = (at + cut).min(total);
            if end > at {
                last = Some(store.append_bytes(blob, source.slice(at..end)).unwrap());
                at = end;
            }
        }
        if at < total {
            last = Some(store.append_bytes(blob, source.slice(at..total)).unwrap());
            at = total;
        }
        let v = last.unwrap();
        store.sync(blob, v).unwrap();
        prop_assert_eq!(store.get_size(blob, v).unwrap(), at as u64);
        prop_assert_eq!(store.read(blob, v, 0, at as u64).unwrap(), source.as_ref());
    }
}
