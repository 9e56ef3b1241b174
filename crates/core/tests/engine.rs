//! End-to-end tests of the public BlobSeer API against a flat-buffer
//! model: every published snapshot must be byte-identical to replaying
//! the same updates, in version order, on a `Vec<u8>`.

use std::collections::BTreeMap;
use std::sync::Arc;

use blobseer::{BlobError, BlobSeer, ConcurrencyMode, Version};
use blobseer_types::{FANOUT, LEVEL_BITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PSIZE: u64 = 64;

fn store() -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(7)
        .metadata_providers(5)
        .io_threads(4)
        .build()
        .unwrap()
}

/// A reference model of one blob: snapshots as flat byte vectors.
#[derive(Default)]
struct Model {
    snapshots: BTreeMap<u64, Vec<u8>>,
}

impl Model {
    fn new() -> Self {
        let mut m = Model::default();
        m.snapshots.insert(0, Vec::new());
        m
    }

    fn apply_write(&mut self, v: Version, offset: u64, data: &[u8]) {
        let prev = self.snapshots[&(v.raw() - 1)].clone();
        let mut next = prev;
        let end = offset as usize + data.len();
        if next.len() < end {
            next.resize(end, 0);
        }
        next[offset as usize..end].copy_from_slice(data);
        self.snapshots.insert(v.raw(), next);
    }

    fn apply_append(&mut self, v: Version, data: &[u8]) {
        let offset = self.snapshots[&(v.raw() - 1)].len() as u64;
        self.apply_write(v, offset, data);
    }

    fn check_all(&self, store: &BlobSeer, blob: blobseer::BlobId) {
        for (&v, expected) in &self.snapshots {
            let v = Version(v);
            let size = store.get_size(blob, v).unwrap();
            assert_eq!(size, expected.len() as u64, "{v} size");
            let got = store.read(blob, v, 0, size).unwrap();
            assert_eq!(&got, expected, "{v} content");
        }
    }
}

fn patterned(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

#[test]
fn empty_blob_semantics() {
    let s = store();
    let b = s.create().id();
    assert_eq!(s.get_recent(b).unwrap(), Version(0));
    assert_eq!(s.get_size(b, Version(0)).unwrap(), 0);
    assert_eq!(s.read(b, Version(0), 0, 0).unwrap(), Vec::<u8>::new());
    assert!(matches!(s.read(b, Version(0), 0, 1), Err(BlobError::ReadBeyondEnd { .. })));
}

#[test]
fn aligned_write_read_roundtrip() {
    let s = store();
    let b = s.create().id();
    let data = patterned(PSIZE as usize * 4, 1);
    let v1 = s.append(b, &data).unwrap();
    s.sync(b, v1).unwrap();
    assert_eq!(s.read(b, v1, 0, data.len() as u64).unwrap(), data);
    // Sub-range reads, aligned and not.
    assert_eq!(s.read(b, v1, 64, 64).unwrap(), data[64..128]);
    assert_eq!(s.read(b, v1, 10, 100).unwrap(), data[10..110]);
    assert_eq!(s.read(b, v1, 255, 1).unwrap(), data[255..256]);
}

#[test]
fn versions_are_immutable_snapshots() {
    let s = store();
    let b = s.create().id();
    let mut model = Model::new();
    let d1 = patterned(PSIZE as usize * 4, 1);
    let v1 = s.append(b, &d1).unwrap();
    model.apply_append(v1, &d1);
    let d2 = patterned(PSIZE as usize * 2, 2);
    let v2 = s.write(b, &d2, PSIZE).unwrap();
    model.apply_write(v2, PSIZE, &d2);
    let d3 = patterned(PSIZE as usize, 3);
    let v3 = s.append(b, &d3).unwrap();
    model.apply_append(v3, &d3);
    s.sync(b, v3).unwrap();
    model.check_all(&s, b);
}

#[test]
fn unaligned_appends_accumulate() {
    let s = store();
    let b = s.create().id();
    let mut model = Model::new();
    // Sizes chosen to hit every boundary case: sub-page, page-crossing,
    // exact page, page+1.
    for (i, len) in [3usize, 61, 64, 65, 1, 200, 128, 7].into_iter().enumerate() {
        let data = patterned(len, i as u8);
        let v = s.append(b, &data).unwrap();
        model.apply_append(v, &data);
    }
    let recent = Version(8);
    s.sync(b, recent).unwrap();
    model.check_all(&s, b);
}

#[test]
fn unaligned_overwrites_merge_correctly() {
    let s = store();
    let b = s.create().id();
    let mut model = Model::new();
    let base = patterned(PSIZE as usize * 5, 9);
    let v1 = s.append(b, &base).unwrap();
    model.apply_append(v1, &base);
    // Overwrites at awkward offsets/lengths.
    for (i, (offset, len)) in
        [(1u64, 5usize), (63, 2), (100, 64), (0, 1), (319, 1), (30, 300)].into_iter().enumerate()
    {
        let data = patterned(len, 100 + i as u8);
        let v = s.write(b, &data, offset).unwrap();
        model.apply_write(v, offset, &data);
    }
    s.sync(b, Version(7)).unwrap();
    model.check_all(&s, b);
}

#[test]
fn write_extending_past_end_grows_blob() {
    let s = store();
    let b = s.create().id();
    let mut model = Model::new();
    let v1 = s.append(b, &patterned(100, 1)).unwrap();
    model.apply_append(v1, &patterned(100, 1));
    // Write starting inside, ending past the end (partially overwrite,
    // partially extend).
    let d = patterned(200, 2);
    let v2 = s.write(b, &d, 50).unwrap();
    model.apply_write(v2, 50, &d);
    // Write starting exactly at the end behaves like an append.
    let d2 = patterned(30, 3);
    let v3 = s.write(b, &d2, 250).unwrap();
    model.apply_write(v3, 250, &d2);
    s.sync(b, v3).unwrap();
    model.check_all(&s, b);
}

#[test]
fn write_beyond_end_rejected() {
    let s = store();
    let b = s.create().id();
    let v1 = s.append(b, b"x").unwrap();
    s.sync(b, v1).unwrap();
    assert!(matches!(s.write(b, b"y", 2), Err(BlobError::WriteBeyondEnd { .. })));
    assert!(matches!(s.append(b, b""), Err(BlobError::EmptyUpdate)));
}

#[test]
fn read_unpublished_version_fails() {
    let s = store();
    let b = s.create().id();
    assert!(matches!(s.read(b, Version(1), 0, 1), Err(BlobError::VersionNotPublished { .. })));
    assert!(matches!(s.get_size(b, Version(3)), Err(BlobError::VersionNotPublished { .. })));
}

#[test]
fn read_your_writes_via_sync() {
    let s = store();
    let b = s.create().id();
    for i in 0..20u8 {
        let data = patterned(97, i);
        let v = s.append(b, &data).unwrap();
        s.sync(b, v).unwrap();
        let size = s.get_size(b, v).unwrap();
        let got = s.read(b, v, size - 97, 97).unwrap();
        assert_eq!(got, data, "iteration {i}");
    }
}

#[test]
fn branching_diverges_and_shares() {
    let s = store();
    let b = s.create().id();
    let base = patterned(PSIZE as usize * 3, 0);
    let v1 = s.append(b, &base).unwrap();
    s.sync(b, v1).unwrap();

    let fork = s.branch(b, v1).unwrap().id();
    // Divergent evolution.
    let vb = s.write(b, &patterned(64, 1), 0).unwrap();
    let vf = s.write(fork, &patterned(64, 2), 0).unwrap();
    s.sync(b, vb).unwrap();
    s.sync(fork, vf).unwrap();
    assert_eq!(vb, Version(2));
    assert_eq!(vf, Version(2));
    assert_eq!(s.read(b, vb, 0, 64).unwrap(), patterned(64, 1));
    assert_eq!(s.read(fork, vf, 0, 64).unwrap(), patterned(64, 2));
    // The shared snapshot reads identically through both blobs.
    assert_eq!(s.read(b, v1, 0, 192).unwrap(), base);
    assert_eq!(s.read(fork, v1, 0, 192).unwrap(), base);
    // Recursive branching ("possibly recursively", paper §1).
    let fork2 = s.branch(fork, vf).unwrap().id();
    let vf2 = s.append(fork2, b"deep").unwrap();
    s.sync(fork2, vf2).unwrap();
    assert_eq!(s.read(fork2, vf2, 0, 64).unwrap(), patterned(64, 2));
    let sz = s.get_size(fork2, vf2).unwrap();
    assert_eq!(s.read(fork2, vf2, sz - 4, 4).unwrap(), b"deep");
}

#[test]
fn branch_from_unpublished_fails() {
    let s = store();
    let b = s.create().id();
    assert!(matches!(s.branch(b, Version(1)), Err(BlobError::VersionNotPublished { .. })));
}

#[test]
fn storage_is_shared_across_versions() {
    // §4.3: "new storage space is necessary for newly written pages
    // only". 10 single-page overwrites of a 64-page blob must cost 10
    // extra pages, not 640.
    let s = store();
    let b = s.create().id();
    let v1 = s.append(b, &patterned(PSIZE as usize * 64, 0)).unwrap();
    s.sync(b, v1).unwrap();
    let base_pages = s.stats().physical_pages;
    assert_eq!(base_pages, 64);
    for i in 0..10u64 {
        let v = s.write(b, &patterned(PSIZE as usize, i as u8), i * 6 * PSIZE).unwrap();
        s.sync(b, v).unwrap();
    }
    let after = s.stats();
    assert_eq!(after.physical_pages, 64 + 10);
    // All 11 versions stay readable.
    for v in 1..=11u64 {
        assert_eq!(s.get_size(b, Version(v)).unwrap(), PSIZE * 64);
    }
}

#[test]
fn metadata_is_shared_across_versions() {
    // §4.1: metadata weaving creates O(pages_touched + depth) nodes per
    // update instead of a full rebuild.
    let s = store();
    let b = s.create().id();
    let v1 = s.append(b, &patterned(PSIZE as usize * 64, 0)).unwrap();
    s.sync(b, v1).unwrap();
    // A full 64-page tree: 64 leaves, then 16, 4 and 1 inner nodes.
    let full: u64 = (0..4).map(|d| 64 / FANOUT.pow(d)).sum();
    assert_eq!(full, 85);
    assert_eq!(s.stats().metadata_nodes, full as usize, "full 64-page tree");
    let v2 = s.write(b, &patterned(PSIZE as usize, 1), 0).unwrap();
    s.sync(b, v2).unwrap();
    // One leaf + the 3 inner nodes up the spine.
    assert_eq!(s.stats().metadata_nodes, full as usize + 4);
}

#[test]
fn border_resolution_is_one_descent() {
    // §4.2: a writer reads each border's version out of its parent on
    // the paths to its first and last page, fetching each path node
    // once — not one root-to-border descent per border (84 gets for a
    // one-page write at depth 8).
    let s = store();
    let b = s.create().id();
    let pages = 1u64 << 14;
    let v = s.append(b, &patterned((PSIZE * pages) as usize, 0)).unwrap();
    s.sync(b, v).unwrap();
    let write_gets = |first: u64, count: u64| {
        let before = s.stats().metadata.total_gets;
        let v = s.write(b, &patterned((PSIZE * count) as usize, 1), first * PSIZE).unwrap();
        s.sync(b, v).unwrap();
        s.stats().metadata.total_gets - before
    };
    // One page: 21 borders, three per level below the root, hang off
    // one path whose 7 nodes above the leaf level are fetched once each.
    let inner_levels = pages.trailing_zeros() / LEVEL_BITS;
    assert_eq!(write_gets(5000, 1), u64::from(inner_levels));
    assert_eq!(inner_levels, 7);
    // Two pages either side of the middle: the paths part at the root,
    // and every distinct node on them down to the lowest inner level is
    // fetched once.
    let (first, last) = (pages / 2 - 1, pages / 2);
    let path_nodes: std::collections::HashSet<(u32, u64)> = (1..=inner_levels)
        .map(|i| i * LEVEL_BITS)
        .flat_map(|level| [(level, first >> level), (level, last >> level)])
        .collect();
    assert_eq!(path_nodes.len(), 13);
    assert_eq!(write_gets(first, 2), path_nodes.len() as u64);
}

#[test]
fn concurrent_appenders_against_model() {
    // N threads append concurrently; afterwards, replaying the updates
    // in *version* order on the model must reproduce every snapshot.
    let s = store();
    let b = s.create().id();
    let threads = 8;
    let per_thread = 25;
    let mut handles = Vec::new();
    for t in 0..threads {
        let s = s.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(t as u64);
            let mut out = Vec::new();
            for i in 0..per_thread {
                let len = rng.gen_range(1..200);
                let data = patterned(len, (t * per_thread + i) as u8);
                let v = s.append(b, &data).unwrap();
                out.push((v, data));
            }
            out
        }));
    }
    let mut by_version: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for h in handles {
        for (v, data) in h.join().unwrap() {
            assert!(by_version.insert(v.raw(), data).is_none(), "duplicate version");
        }
    }
    let last = Version((threads * per_thread) as u64);
    s.sync(b, last).unwrap();
    // Dense version space.
    assert_eq!(*by_version.keys().last().unwrap(), last.raw());

    let mut model = Model::new();
    for (&v, data) in &by_version {
        model.apply_append(Version(v), data);
    }
    model.check_all(&s, b);
}

#[test]
fn concurrent_writers_and_readers() {
    // Writers overwrite random ranges while readers continuously read
    // *published* snapshots; readers must never observe an error or a
    // torn page boundary.
    let s = store();
    let b = s.create().id();
    let blob_len = PSIZE as usize * 32;
    let v1 = s.append(b, &patterned(blob_len, 0)).unwrap();
    s.sync(b, v1).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..4 {
        let s = s.clone();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1000 + r);
            let mut reads = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let v = s.get_recent(b).unwrap();
                let size = s.get_size(b, v).unwrap();
                let offset = rng.gen_range(0..size);
                let len = rng.gen_range(0..=(size - offset).min(500));
                s.read(b, v, offset, len).unwrap();
                reads += 1;
            }
            reads
        }));
    }
    let mut writers = Vec::new();
    for w in 0..4u64 {
        let s = s.clone();
        writers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(w);
            for i in 0..30 {
                let offset = rng.gen_range(0..(blob_len as u64 - 300));
                let len = rng.gen_range(1..300);
                let data = patterned(len, (w * 31 + i) as u8);
                let v = s.write(b, &data, offset).unwrap();
                s.sync(b, v).unwrap();
            }
        }));
    }
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_reads > 0, "readers made progress");
    assert_eq!(s.get_recent(b).unwrap(), Version(1 + 4 * 30));
}

#[test]
fn serialized_metadata_mode_is_correct_too() {
    // The E5 ablation baseline must produce identical results, just
    // slower — writers serialize on publication order.
    let s = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(4)
        .concurrency_mode(ConcurrencyMode::SerializedMetadata)
        .build()
        .unwrap();
    let b = s.create().id();
    let mut handles = Vec::new();
    for t in 0..4 {
        let s = s.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                let data = patterned(100, (t * 10 + i) as u8);
                s.append(b, &data).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    s.sync(b, Version(40)).unwrap();
    assert_eq!(s.get_size(b, Version(40)).unwrap(), 4000);
}

#[test]
fn random_mixed_workload_against_model() {
    let s = store();
    let b = s.create().id();
    let mut model = Model::new();
    let mut rng = StdRng::seed_from_u64(0xb10b);
    let mut recent = Version(0);
    for step in 0..60 {
        let cur_size = model.snapshots[&recent.raw()].len() as u64;
        if cur_size == 0 || rng.gen_bool(0.4) {
            let len = rng.gen_range(1..400);
            let data = patterned(len, step as u8);
            let v = s.append(b, &data).unwrap();
            model.apply_append(v, &data);
            recent = recent.next();
        } else {
            let offset = rng.gen_range(0..=cur_size);
            let len = rng.gen_range(1..300);
            let data = patterned(len, step as u8);
            let v = s.write(b, &data, offset).unwrap();
            model.apply_write(v, offset, &data);
            recent = recent.next();
        }
    }
    s.sync(b, recent).unwrap();
    model.check_all(&s, b);
}
