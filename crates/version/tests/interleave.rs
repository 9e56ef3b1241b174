//! Deterministic seqlock interleaving tests: a test-only pause hook
//! holds a publishing writer *between* its seqlock half-updates — the
//! genuinely torn intermediate — and proves the reader retry loop (a)
//! actually spins rather than returning it, and (b) returns the fully
//! published, consistent triple once the writer finishes, with at
//! least one forced retry on the counter.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use blobseer_version::{ConcurrencyMode, UpdateKind, VersionManager};

const PSIZE: u64 = 4;

fn vm() -> Arc<VersionManager> {
    Arc::new(VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5)))
}

/// Spin until `flag` is set, failing the test after a generous bound
/// instead of hanging CI forever.
fn await_flag(flag: &AtomicBool, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::Acquire) {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::hint::spin_loop();
    }
}

#[test]
fn paused_publication_is_torn_and_readers_retry_past_it() {
    let vm = vm();
    let b = vm.create();
    // Publish v1: 4 bytes → 1 page → root span 1. Hot = [1, 4, 1].
    let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
    vm.complete(b, a1.vw).unwrap();
    assert_eq!(vm.debug_hot_read(b).unwrap(), ([1, 4, 1], 2, 0));

    // Arm the pause: the next publication blocks after storing only
    // the version word.
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    {
        let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
        vm.set_publish_pause(
            b,
            Some(Box::new(move || {
                entered.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            })),
        )
        .unwrap();
    }

    // Writer: v2 (4 more bytes → size 8 → 2 pages → span 2); its
    // complete() republishes the hot triple and parks in the pause.
    let writer = {
        let vm = Arc::clone(&vm);
        std::thread::spawn(move || {
            let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
            vm.complete(b, a2.vw).unwrap();
        })
    };
    await_flag(&entered, "writer to reach the pause point");

    // The raw cell state really is torn: odd sequence, new version
    // word, stale size and span words.
    let (torn, seq) = vm.debug_peek_hot(b).unwrap();
    assert_eq!(seq, 3, "mid-publication sequence is odd");
    assert_eq!(torn, [2, 4, 1], "version updated, size/span not yet");

    // A protocol reader must NOT return that: it spins. Give it real
    // time to (wrongly) finish, then check it has not.
    let reader_done = Arc::new(AtomicBool::new(false));
    let reader = {
        let vm = Arc::clone(&vm);
        let done = Arc::clone(&reader_done);
        std::thread::spawn(move || {
            let got = vm.debug_hot_read(b).unwrap();
            done.store(true, Ordering::Release);
            got
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(!reader_done.load(Ordering::Acquire), "reader returned while the publication was torn");

    // Let the writer finish; the reader must come back with the fully
    // published triple and a non-zero retry count — the forced retry.
    release.store(true, Ordering::Release);
    writer.join().unwrap();
    let (words, seq, retries) = reader.join().unwrap();
    // Two pages: the root spans four.
    assert_eq!(words, [2, 8, 4], "only the complete new triple is returnable");
    assert_eq!(seq, 4, "publication bumped the sequence to the next even value");
    assert!(retries >= 1, "the retry loop demonstrably retried (got {retries})");

    // Hot reads served during the pause window never taint the typed
    // API either: once disarmed, everything agrees.
    vm.set_publish_pause(b, None).unwrap();
    let (v, view) = vm.latest_view(b).unwrap();
    assert_eq!(v.raw(), 2);
    assert_eq!(view.size, 8);
    assert_eq!(view.root.unwrap().version, v);
}

#[test]
fn reads_before_and_after_a_pause_window_stay_consistent() {
    let vm = vm();
    let b = vm.create();
    let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
    vm.complete(b, a1.vw).unwrap();

    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    {
        let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
        vm.set_publish_pause(
            b,
            Some(Box::new(move || {
                entered.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            })),
        )
        .unwrap();
    }
    let writer = {
        let vm = Arc::clone(&vm);
        std::thread::spawn(move || {
            let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
            vm.complete(b, a2.vw).unwrap();
        })
    };
    await_flag(&entered, "writer to reach the pause point");

    // get_recent and snapshot_view(v1) cannot use the (torn) cell —
    // the seqlock read would spin — but the locked paths still work:
    // v1 is pinned, so its view resolves under the mutex... which the
    // paused writer holds. So the only safe concurrent check here is
    // that the raw cell is odd while the protocol has not returned.
    let (_, seq) = vm.debug_peek_hot(b).unwrap();
    assert_eq!(seq % 2, 1);

    release.store(true, Ordering::Release);
    writer.join().unwrap();
    vm.set_publish_pause(b, None).unwrap();

    // After the window closes, every read path agrees on v2.
    assert_eq!(vm.get_recent(b).unwrap().raw(), 2);
    let view = vm.snapshot_view(b, blobseer_types::Version(2)).unwrap();
    assert_eq!((view.size, view.root.unwrap().pos.size), (8, 4));
}
