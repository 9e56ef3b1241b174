//! Property test of the paper's core concurrency mechanism (§4.2):
//! for ANY set of updates assigned concurrently (all in flight at
//! once), building their metadata in ANY order — in particular with
//! later versions building *before* earlier ones, linking to
//! not-yet-stored nodes through the version manager's partial border
//! sets — must yield exactly the same snapshots as applying the updates
//! strictly one at a time.

use std::collections::BTreeMap;
use std::time::Duration;

use blobseer_meta::{build_meta, read_meta, MetaStore, TreeReader, UpdateContext};
use blobseer_types::{ByteRange, PageDescriptor, PageId, ProviderId, Version};
use blobseer_version::{AssignedUpdate, ConcurrencyMode, ReadView, UpdateKind, VersionManager};
use proptest::prelude::*;

const PSIZE: u64 = 4;

/// An abstract update: append some pages, or overwrite a page range
/// scaled into the blob's current (assigned) size.
#[derive(Clone, Debug)]
enum Upd {
    Append { pages: u64 },
    Write { start_permille: u16, pages: u64 },
}

fn upd() -> impl Strategy<Value = Upd> {
    prop_oneof![
        (1u64..6).prop_map(|pages| Upd::Append { pages }),
        (0u16..1000, 1u64..6)
            .prop_map(|(start_permille, pages)| Upd::Write { start_permille, pages }),
    ]
}

/// Model: page index → marker of the update that last wrote it.
type PageModel = BTreeMap<u64, u128>;

fn pd(page_index: u64, marker: u128) -> PageDescriptor {
    PageDescriptor {
        pid: PageId(marker),
        page_index,
        provider: ProviderId(0),
        valid_len: PSIZE as u32,
    }
}

fn apply_assigned(
    vm: &VersionManager,
    meta: &MetaStore,
    blob: blobseer_types::BlobId,
    assigned: &AssignedUpdate,
    marker_base: u128,
) {
    let lineage = vm.lineage(blob).unwrap();
    let reader = TreeReader::new(meta, &lineage);
    let ctx = UpdateContext {
        vw: assigned.vw,
        range: assigned.range,
        new_root: assigned.new_root,
        overrides: assigned.overrides.clone(),
        ref_root: assigned.ref_root,
    };
    let leaves: Vec<PageDescriptor> =
        assigned.range.iter().map(|p| pd(p, marker_base + p as u128)).collect();
    for (k, n) in build_meta(&reader, &ctx, &leaves).unwrap() {
        meta.put_new(k, n);
    }
    vm.complete(blob, assigned.vw).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn any_build_order_equals_sequential_semantics(
        updates in proptest::collection::vec(upd(), 1..10),
        build_order_seed in any::<u64>(),
    ) {
        let vm = VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5));
        let meta = MetaStore::new(4, Duration::from_millis(200));
        let blob = vm.create();

        // Base snapshot v1: 4 pages, published.
        let base = vm.assign(blob, UpdateKind::Append { size: 4 * PSIZE }).unwrap();
        apply_assigned(&vm, &meta, blob, &base, 1_000_000);

        // Assign ALL updates first — everything in flight concurrently.
        let mut model: PageModel =
            (0..4).map(|p| (p, 1_000_000 + p as u128)).collect();
        let mut assigned = Vec::new();
        let mut cur_pages = 4u64;
        for (i, u) in updates.iter().enumerate() {
            let marker_base = (i as u128 + 2) * 1_000_000;
            let kind = match *u {
                Upd::Append { pages } => UpdateKind::Append { size: pages * PSIZE },
                Upd::Write { start_permille, pages } => {
                    let start = cur_pages * u64::from(start_permille) / 1000;
                    UpdateKind::Write { offset: start * PSIZE, size: pages * PSIZE }
                }
            };
            let a = vm.assign(blob, kind).unwrap();
            prop_assert_eq!(a.vw, Version(i as u64 + 2));
            // Sequential-semantics model: apply in version order.
            for p in a.range.iter() {
                model.insert(p, marker_base + p as u128);
            }
            cur_pages = cur_pages.max(a.range.end());
            assigned.push((a, marker_base));
        }

        // Build metadata in an ADVERSARIAL order (seeded shuffle):
        // later versions may build and complete before earlier ones.
        let mut order: Vec<usize> = (0..assigned.len()).collect();
        let mut state = build_order_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for &i in &order {
            let (a, marker_base) = &assigned[i];
            apply_assigned(&vm, &meta, blob, a, *marker_base);
        }

        // Everything published; the final snapshot must match the
        // version-order model exactly, page by page.
        let newest = Version(assigned.len() as u64 + 1);
        prop_assert_eq!(vm.get_recent(blob).unwrap(), newest);
        let ReadView { size, root, .. } = vm.snapshot_view(blob, newest).unwrap();
        prop_assert_eq!(size, cur_pages * PSIZE);
        let lineage = vm.lineage(blob).unwrap();
        let reader = TreeReader::new(&meta, &lineage);
        let pds = read_meta(
            &reader,
            root.expect("non-empty"),
            ByteRange::new(0, size),
            PSIZE,
        ).unwrap();
        prop_assert_eq!(pds.len() as u64, cur_pages);
        for d in pds {
            let expected = model.get(&d.page_index).copied().expect("page modeled");
            prop_assert_eq!(
                d.pid.raw(), expected,
                "page {} owned by wrong update", d.page_index
            );
        }

        // Spot-check an intermediate snapshot too: version k must see
        // exactly updates 1..=k.
        if assigned.len() >= 2 {
            let mid = Version(assigned.len() as u64 / 2 + 1);
            let mut mid_model: PageModel =
                (0..4).map(|p| (p, 1_000_000 + p as u128)).collect();
            for (a, marker_base) in &assigned[..(mid.raw() - 1) as usize] {
                for p in a.range.iter() {
                    mid_model.insert(p, marker_base + p as u128);
                }
            }
            let ReadView { size: mid_size, root: mid_root, .. } = vm.snapshot_view(blob, mid).unwrap();
            let pds = read_meta(
                &reader,
                mid_root.expect("non-empty"),
                ByteRange::new(0, mid_size),
                PSIZE,
            ).unwrap();
            for d in pds {
                prop_assert_eq!(
                    d.pid.raw(),
                    mid_model.get(&d.page_index).copied().expect("modeled"),
                    "intermediate {} page {}", mid, d.page_index
                );
            }
        }
    }
}

/// Degenerate shapes worth pinning down outside the random sweep.
#[test]
fn all_writers_target_the_same_page() {
    let vm = VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5));
    let meta = MetaStore::new(2, Duration::from_millis(200));
    let blob = vm.create();
    let base = vm.assign(blob, UpdateKind::Append { size: 4 * PSIZE }).unwrap();
    apply_assigned(&vm, &meta, blob, &base, 0);

    let assigned: Vec<AssignedUpdate> = (0..6)
        .map(|_| vm.assign(blob, UpdateKind::Write { offset: 0, size: PSIZE }).unwrap())
        .collect();
    // Build in reverse order — maximum dependency inversion.
    for (i, a) in assigned.iter().enumerate().rev() {
        apply_assigned(&vm, &meta, blob, a, (i as u128 + 1) * 1000);
    }
    let newest = vm.get_recent(blob).unwrap();
    assert_eq!(newest, Version(7));
    let ReadView { root, .. } = vm.snapshot_view(blob, newest).unwrap();
    let lineage = vm.lineage(blob).unwrap();
    let reader = TreeReader::new(&meta, &lineage);
    let pds = read_meta(&reader, root.unwrap(), ByteRange::new(0, PSIZE), PSIZE).unwrap();
    // The LAST version's page wins (its index in `assigned` is 5).
    assert_eq!(pds[0].pid.raw(), 6000);
    // Every intermediate version sees its own writer's page.
    for (i, a) in assigned.iter().enumerate() {
        let ReadView { root, .. } = vm.snapshot_view(blob, a.vw).unwrap();
        let pds = read_meta(&reader, root.unwrap(), ByteRange::new(0, PSIZE), PSIZE).unwrap();
        assert_eq!(pds[0].pid.raw(), (i as u128 + 1) * 1000, "{}", a.vw);
    }
}

/// Concurrent appends that each grow the root by one level, built in
/// reverse: the deepest possible chain of override dependencies.
#[test]
fn cascading_root_growth_built_in_reverse() {
    let vm = VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5));
    let meta = MetaStore::new(2, Duration::from_millis(200));
    let blob = vm.create();
    let base = vm.assign(blob, UpdateKind::Append { size: PSIZE }).unwrap();
    apply_assigned(&vm, &meta, blob, &base, 0);

    // Appends of 1, 2, 4, 8, 16 pages: each crosses a power of two.
    let mut assigned = Vec::new();
    for (i, pages) in [1u64, 2, 4, 8, 16].into_iter().enumerate() {
        let a = vm.assign(blob, UpdateKind::Append { size: pages * PSIZE }).unwrap();
        assigned.push((a, (i as u128 + 1) * 100_000));
    }
    for (a, marker) in assigned.iter().rev() {
        apply_assigned(&vm, &meta, blob, a, *marker);
    }
    let newest = vm.get_recent(blob).unwrap();
    let ReadView { size, root, .. } = vm.snapshot_view(blob, newest).unwrap();
    assert_eq!(size, 32 * PSIZE);
    let lineage = vm.lineage(blob).unwrap();
    let reader = TreeReader::new(&meta, &lineage);
    let pds = read_meta(&reader, root.unwrap(), ByteRange::new(0, size), PSIZE).unwrap();
    assert_eq!(pds.len(), 32);
    // Page 0 from the base; pages of each append carry its marker.
    assert_eq!(pds[0].pid.raw(), 0);
    assert_eq!(pds[1].pid.raw(), 100_000 + 1);
    assert_eq!(pds[3].pid.raw(), 200_000 + 3);
    assert_eq!(pds[7].pid.raw(), 300_000 + 7);
    assert_eq!(pds[15].pid.raw(), 400_000 + 15);
    assert_eq!(pds[31].pid.raw(), 500_000 + 31);
}
