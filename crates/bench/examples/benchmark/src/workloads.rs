//! The five workloads. Each function runs one *round*: set-up on a
//! fresh store, closed-loop timed client phases, the maintenance cycle
//! and exact verification. Round shapes are fixed; a run repeats them
//! until `--seconds` is used up and reports one figure per metric from
//! the rounds' values.
//!
//! Every workload times both updates and reads, so every end-to-end
//! metric is defined on every workload; what differs is which layers
//! the work lands on (see the README's workload table).

use std::collections::VecDeque;
use std::slice::from_ref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use blobseer::{Blob, BlobSeer, Bytes, CrashPoint, PendingWrite, ProviderId, Version};
use blobseer_version::UpdateKind;

use crate::lcg::Lcg;
use crate::oplog::{section, Op, OpLog};
use crate::round::{build_store, Cx, Pool, Round, RoundAcc, MIB, POOL, READER, WRITER};
use crate::shadow::Replay;

const KIB: usize = 1 << 10;
const PAGE_64K: u64 = 64 << 10;
const PAGE_4K: u64 = 4 << 10;
/// In-flight window of pipelined appends.
const DEPTH: usize = 4;
/// Size of a pipelined append.
const CHUNK: usize = 256 * KIB;
const CHUNKS_PER_MIB: u64 = (MIB / CHUNK) as u64;

// Random-stream roles within a round (see `Cx::lcg`).
const ROLE_CLIENT: u64 = 1;
const ROLE_READ_CLIENT: u64 = 8;

pub fn run(cx: &Cx) -> Round {
    match cx.workload {
        0 => append_stream(cx),
        1 => read_small_hot(cx),
        2 => write_small_concurrent(cx),
        3 => mixed_rw(cx),
        4 => maintenance_cycle(cx),
        other => unreachable!("workload {other}"),
    }
}

/// Page size each workload's store uses (the shadow needs it).
pub fn page_size(workload: usize) -> u64 {
    if workload == 2 {
        PAGE_4K
    } else {
        PAGE_64K
    }
}

/// MiB a blob holds before its first timed operation. Loading it is
/// the part of a round's set-up that is long enough to time: an empty
/// store is built in a tenth of a millisecond, nearly all of it thread
/// creation, whose cost moved by 0.17 between two ten-run sweeps when
/// every other time moved by 0.02-0.07 (README, "Steadiness").
const PREFILL: u64 = 16;

/// Create `count` blobs and prefill each with the first `prefill` MiB
/// of its share of the pool (blob `b` holds pool MiB `b * each ..` in
/// order), a page an append: a single page is stored on the calling
/// thread, so set-up time has no hand-over to an I/O worker in it.
/// False if an append failed.
fn create_blobs(
    store: &BlobSeer,
    pool: &Pool,
    count: usize,
    each: u64,
    prefill: u64,
) -> (Vec<Blob>, bool) {
    const PAGE: usize = PAGE_64K as usize;
    let blobs: Vec<Blob> = (0..count).map(|_| store.create()).collect();
    let mut ok = true;
    for (first, blob) in with_first(&blobs, each) {
        for mib in first..first + prefill {
            for at in (0..MIB).step_by(PAGE) {
                ok &= blob.append_bytes(pool.buf(mib).slice(at..at + PAGE)).is_ok();
            }
        }
    }
    (blobs, ok)
}

/// Bring the shadow to the geometry `create_blobs` left a blob in.
fn replay_prefill(cx: &Cx, prefill: u64, copies: usize) {
    for _ in 0..prefill * (MIB as u64 / PAGE_64K) {
        let kind = UpdateKind::Append { size: PAGE_64K };
        cx.replay(|| Replay::Update { root: None, kind, copies });
    }
}

/// Every blob with the index of the first pool item it holds, when
/// each holds `each` of them in order.
fn with_first(blobs: &[Blob], each: u64) -> impl Iterator<Item = (u64, &Blob)> {
    (0..).step_by(each as usize).zip(blobs)
}

/// Append pool buffers `first..first + count`, one MiB each, timed,
/// replaying each on the shadow.
fn append_mib(cx: &Cx, log: &mut OpLog, blob: &Blob, pool: &Pool, first: u64, count: u64) {
    for i in first..first + count {
        let done = log.write(MIB as u64, || blob.append_bytes(pool.buf(i).clone()));
        if let Some((_, op)) = done {
            let kind = UpdateKind::Append { size: MIB as u64 };
            cx.replay(|| Replay::Update { root: Some(("core.append", op)), kind, copies: 1 });
        }
    }
}

/// Read the blob back MiB by MiB, timed, and compare every byte with
/// the pool buffer (`first` onwards) it was appended from.
fn scan_mib(cx: &Cx, log: &mut OpLog, blob: &Blob, pool: &Pool, first: u64, count: u64) {
    let Some(snapshot) = log.must(blob.latest(), "latest()") else { return };
    let mut buf = vec![0u8; MIB];
    for i in 0..count {
        let offset = i * MIB as u64;
        if let Some((_, op)) = log.read(MIB as u64, || snapshot.read_into(offset, &mut buf)) {
            log.check(buf[..] == pool.buf(first + i)[..], "scanned MiB differs from the pool");
            cx.replay(|| Replay::Read { name: "core.read", op, offset, size: MIB as u64 });
        }
    }
}

/// Fig. 2a. Each client appends 1 MiB chunks to a blob of its own
/// (64 MiB in the end, the first 16 loaded during set-up), then scans
/// it back; 64 KiB pages, replication 1.
fn append_stream(cx: &Cx) -> Round {
    const MIBS: u64 = 128;
    let pool = cx.pool;
    let each = MIBS / cx.clients as u64;
    let ((store, blobs, loaded), set_up) = cx.set_up(|| {
        let store = build_store(PAGE_64K, 1, false);
        let (blobs, loaded) = create_blobs(&store, pool, cx.clients, each, PREFILL);
        (store, blobs, loaded)
    });
    replay_prefill(cx, PREFILL, 1);
    let mut acc = RoundAcc::begin(cx, &store, PAGE_64K, set_up);
    acc.check(loaded, "prefill append");
    acc.ops(section(cx.epoch, cx.clients, |c, log| {
        append_mib(cx, log, &blobs[c], pool, c as u64 * each + PREFILL, each - PREFILL)
    }));
    acc.ops(section(cx.epoch, cx.clients, |c, log| {
        scan_mib(cx, log, &blobs[c], pool, c as u64 * each, each)
    }));
    acc.finish(&blobs, |acc| verify_mib(acc, &blobs, pool, each))
}

/// After maintenance moved pages around, the content must be
/// byte-identical: blob `b` holds pool buffers `b * each ..` onwards.
fn verify_mib(acc: &mut RoundAcc, blobs: &[Blob], pool: &Pool, each: u64) {
    let mut buf = vec![0u8; MIB];
    for (first, blob) in with_first(blobs, each) {
        let snapshot = blob.latest();
        acc.check(
            snapshot.as_ref().is_ok_and(|s| s.len() == each * MIB as u64),
            "blob length after maintenance",
        );
        let Ok(snapshot) = snapshot else { continue };
        for i in 0..each {
            let ok = snapshot.read_into(i * MIB as u64, &mut buf).is_ok()
                && buf[..] == pool.buf(first + i)[..];
            acc.check(ok, "content changed under maintenance");
        }
    }
}

/// Fig. 2b's metadata hotspot. 128 MiB (2048 pages) are appended, one
/// blob per client (the first 16 MiB of each during set-up), the latest
/// snapshots pinned once, and every client reads all of it at uniformly
/// random 4 KiB-aligned offsets.
fn read_small_hot(cx: &Cx) -> Round {
    const BUILD: u64 = 128;
    const READS: u64 = 8000;
    const READ: usize = 4 * KIB;
    let pool = cx.pool;
    let each = BUILD / cx.clients as u64;
    let ((store, blobs, loaded), set_up) = cx.set_up(|| {
        let store = build_store(PAGE_64K, 1, false);
        let (blobs, loaded) = create_blobs(&store, pool, cx.clients, each, PREFILL);
        (store, blobs, loaded)
    });
    replay_prefill(cx, PREFILL, 1);
    let mut acc = RoundAcc::begin(cx, &store, PAGE_64K, set_up);
    acc.check(loaded, "prefill append");
    acc.ops(section(cx.epoch, cx.clients, |c, log| {
        append_mib(cx, log, &blobs[c], pool, c as u64 * each + PREFILL, each - PREFILL)
    }));
    let snapshots: Vec<_> = blobs.iter().filter_map(|blob| blob.latest().ok()).collect();
    let built = snapshots.len() == blobs.len()
        && snapshots.iter().all(|snapshot| snapshot.len() == each * MIB as u64);
    acc.check(built, "latest() of the built blobs");
    if built {
        // The blobs laid end to end hold pool buffers 0..BUILD in order.
        let slots = BUILD * (MIB / READ) as u64;
        acc.ops(section(cx.epoch, cx.clients, |client, log| {
            let mut lcg = cx.lcg(ROLE_READ_CLIENT + client as u64);
            let mut buf = vec![0u8; READ];
            for _ in 0..READS / cx.clients as u64 {
                let at = lcg.below(slots) * READ as u64;
                let snapshot = &snapshots[(at / (each * MIB as u64)) as usize];
                let offset = at % (each * MIB as u64);
                if let Some((_, op)) =
                    log.read(READ as u64, || snapshot.read_into(offset, &mut buf))
                {
                    let within = (at % MIB as u64) as usize;
                    let expect = &pool.buf(at / MIB as u64)[within..within + READ];
                    log.check(buf[..] == *expect, "4 KiB read differs from the pool");
                    cx.replay(|| Replay::Read { name: "core.read", op, offset, size: READ as u64 });
                }
            }
        }));
    }
    acc.finish(&blobs, |acc| verify_mib(acc, &blobs, pool, each))
}

/// The paper's headline. 4 KiB pages; a 64 MiB blob (16 384 pages,
/// tree depth 15) is prefilled untimed, then the clients overwrite
/// random pages of it concurrently, then read random pages of the
/// final snapshot. The oracle replays the writes in the order of the
/// versions the engine returned.
fn write_small_concurrent(cx: &Cx) -> Round {
    const PREFILL: u64 = 64;
    const WRITES: u64 = 4000;
    const READS: u64 = 4000;
    const PAGE: usize = PAGE_4K as usize;
    const PAGES_PER_MIB: u64 = (MIB / PAGE) as u64;
    const PAGES: u64 = PREFILL * PAGES_PER_MIB;
    let pool = cx.pool;
    let ((store, blob, prefilled), set_up) = cx.set_up(|| {
        let store = build_store(PAGE_4K, 1, false);
        let blob = store.create();
        let prefilled = (0..PREFILL).all(|i| blob.append_bytes(pool.buf(i).clone()).is_ok());
        (store, blob, prefilled)
    });
    for _ in 0..PREFILL {
        let kind = UpdateKind::Append { size: MIB as u64 };
        cx.replay(|| Replay::Update { root: None, kind, copies: 1 });
    }
    let mut acc = RoundAcc::begin(cx, &store, PAGE_4K, set_up);
    acc.check(prefilled, "prefill append");

    // (version, page, source pool page) of every write, per client.
    let written = std::sync::Mutex::new(Vec::<(Version, u64, u64)>::new());
    acc.ops(section(cx.epoch, cx.clients, |client, log| {
        let mut lcg = cx.lcg(ROLE_CLIENT + client as u64);
        let mut mine = Vec::with_capacity(WRITES as usize);
        for _ in 0..WRITES / cx.clients as u64 {
            let page = lcg.below(PAGES);
            let source = lcg.below(POOL as u64 * PAGES_PER_MIB);
            let within = (source % PAGES_PER_MIB) as usize * PAGE;
            let payload = pool.buf(source / PAGES_PER_MIB).slice(within..within + PAGE);
            let offset = page * PAGE_4K;
            if let Some((version, op)) = log.write(PAGE_4K, || blob.write_bytes(payload, offset)) {
                mine.push((version, page, source));
                let kind = UpdateKind::Write { offset, size: PAGE_4K };
                cx.replay(|| Replay::Update { root: Some(("core.write", op)), kind, copies: 1 });
            }
        }
        written.lock().expect("oracle lock").extend(mine);
    }));

    // Oracle: page p starts as pool page p; writes apply in version
    // order, so the highest version to touch a page wins.
    let mut written = written.into_inner().expect("oracle lock");
    written.sort_unstable_by_key(|&(version, ..)| version);
    let mut expected: Vec<u64> = (0..PAGES).collect();
    for &(_, page, source) in &written {
        expected[page as usize] = source;
    }
    let expect = |page: u64| {
        let source = expected[page as usize];
        let within = (source % PAGES_PER_MIB) as usize * PAGE;
        &pool.buf(source / PAGES_PER_MIB)[within..within + PAGE]
    };
    let last = written.last().map(|&(version, ..)| version);
    let synced = last.is_some_and(|v| blob.sync(v).is_ok());
    acc.check(synced, "sync to the last written version");
    let snapshot = blob.latest();
    acc.check(
        snapshot.as_ref().is_ok_and(|s| Some(s.version()) == last),
        "latest() is the last write",
    );

    if let Ok(snapshot) = &snapshot {
        acc.ops(section(cx.epoch, cx.clients, |client, log| {
            let mut lcg = cx.lcg(ROLE_READ_CLIENT + client as u64);
            let mut buf = vec![0u8; PAGE];
            for _ in 0..READS / cx.clients as u64 {
                let page = lcg.below(PAGES);
                let offset = page * PAGE_4K;
                if let Some((_, op)) = log.read(PAGE_4K, || snapshot.read_into(offset, &mut buf)) {
                    log.check(
                        buf[..] == *expect(page),
                        "page differs from the version-ordered oracle",
                    );
                    cx.replay(|| Replay::Read { name: "core.read", op, offset, size: PAGE_4K });
                }
            }
        }));
    }
    acc.finish(from_ref(&blob), |acc| {
        // The whole final snapshot, page by page, after maintenance.
        let Ok(snapshot) = blob.latest() else {
            return acc.check(false, "latest() after maintenance");
        };
        let mut buf = vec![0u8; MIB];
        for mib in 0..PREFILL {
            let mut ok = snapshot.read_into(mib * MIB as u64, &mut buf).is_ok();
            for (i, page) in buf.chunks(PAGE).enumerate() {
                ok &= page == expect(mib * PAGES_PER_MIB + i as u64);
            }
            acc.check(ok, "final snapshot differs from the version-ordered oracle");
        }
    })
}

/// The `i`th 256 KiB chunk of the pool: what pipelined append `i`
/// carries, and what that range of the blob must read back as.
fn chunk(pool: &Pool, i: u64) -> Bytes {
    let within = (i % CHUNKS_PER_MIB) as usize * CHUNK;
    pool.buf(i / CHUNKS_PER_MIB).slice(within..within + CHUNK)
}

/// Queue the shadow replay of a settled pipelined append (replication
/// 2 in both workloads that pipeline).
fn replay_chunk_append(cx: &Cx, op: Op) {
    let kind = UpdateKind::Append { size: CHUNK as u64 };
    cx.replay(|| Replay::Update { root: Some(("core.append_pipelined", op)), kind, copies: 2 });
}

/// Sets the flag when dropped, so a reader waiting for the writer is
/// released however the writer's closure ends.
struct DoneOnDrop<'a>(&'a AtomicBool);

impl Drop for DoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Pipelined appends in flight: handle, submission time, bytes.
type Window = VecDeque<(PendingWrite, Instant, u64)>;

/// Submit one pipelined append; its latency clock starts here.
fn submit(log: &mut OpLog, window: &mut Window, blob: &Blob, payload: Bytes) {
    let bytes = payload.len() as u64;
    let submitted = Instant::now();
    match blob.append_pipelined(payload) {
        Ok(pending) => window.push_back((pending, submitted, bytes)),
        // A refused submission is a failed update.
        Err(e) => drop(log.write_done::<()>(bytes, submitted, Err(e))),
    }
}

/// Pop the oldest pipelined append, wait for it and settle its latency
/// (submission to `wait()` returning).
fn settle_oldest(log: &mut OpLog, window: &mut Window) -> Option<Op> {
    let (pending, submitted, bytes) = window.pop_front()?;
    log.write_done(bytes, submitted, pending.wait()).map(|(_, op)| op)
}

/// Readers beside a pipelined appender on one blob. 64 KiB pages,
/// replication 2, QoS admission on with unlimited quotas, writer and
/// reader as two tenants. The writer keeps 4 appends of 256 KiB in
/// flight; the reader opens `latest()` and reads a random whole MiB of
/// it, again and again until the writer is done (its `latest()` is
/// part of the read's latency). The blob grows to 96 MiB; its first 16
/// are loaded during set-up, so there is something to read from the
/// start. With one client the same calls alternate on one thread: a
/// read after every fourth append.
fn mixed_rw(cx: &Cx) -> Round {
    const APPENDS: u64 = 384;
    const MIBS: u64 = APPENDS / CHUNKS_PER_MIB;
    let pool = cx.pool;
    let ((store, blobs, loaded), set_up) = cx.set_up(|| {
        let store = build_store(PAGE_64K, 2, true);
        let (blobs, loaded) = create_blobs(&store, pool, 1, MIBS, PREFILL);
        (store, blobs, loaded)
    });
    replay_prefill(cx, PREFILL, 2);
    let (writer, reader) = (blobs[0].for_tenant(WRITER), blobs[0].for_tenant(READER));
    let mut acc = RoundAcc::begin(cx, &store, PAGE_64K, set_up);
    acc.check(loaded, "prefill append");

    // One closed-loop read: open the latest snapshot, read one random
    // whole MiB of it, verify.
    let read_one = |log: &mut OpLog, lcg: &mut Lcg, buf: &mut [u8]| {
        let started = Instant::now();
        let snapshot = reader.latest();
        let mibs = snapshot.as_ref().map_or(1, |s| s.len() / MIB as u64);
        let mib = lcg.below(mibs);
        let out = snapshot.and_then(|s| s.read_into(mib * MIB as u64, buf));
        if let Some((_, op)) = log.read_done(MIB as u64, started, out) {
            log.check(
                buf[..] == pool.buf(mib)[..],
                "MiB read beside the writer differs from the pool",
            );
            cx.replay(|| Replay::Read {
                name: "core.latest+read",
                op,
                offset: mib * MIB as u64,
                size: MIB as u64,
            });
        }
    };

    let writer_done = AtomicBool::new(false);
    acc.ops(section(cx.epoch, cx.clients, |client, log| {
        let mut lcg = cx.lcg(ROLE_READ_CLIENT);
        let mut buf = vec![0u8; MIB];
        if client == 1 {
            while !writer_done.load(Ordering::Acquire) {
                read_one(log, &mut lcg, &mut buf);
            }
            return;
        }
        let _done = DoneOnDrop(&writer_done);
        let mut window = VecDeque::with_capacity(DEPTH);
        for i in PREFILL * CHUNKS_PER_MIB..APPENDS {
            if window.len() == DEPTH {
                if let Some(op) = settle_oldest(log, &mut window) {
                    replay_chunk_append(cx, op);
                }
            }
            submit(log, &mut window, &writer, chunk(pool, i));
            // With one client, a read after every fourth append.
            if cx.clients == 1 && i % CHUNKS_PER_MIB == CHUNKS_PER_MIB - 1 {
                read_one(log, &mut lcg, &mut buf);
            }
        }
        while let Some(op) = settle_oldest(log, &mut window) {
            replay_chunk_append(cx, op);
        }
    }));
    acc.finish(&blobs, |acc| verify_mib(acc, &blobs, pool, MIBS))
}

/// Background work on fixed damage. Replication 2, 64 KiB pages, one
/// blob per client, 32 MiB in all, an eighth of it loaded healthy during
/// set-up. Provider 3 is offline for the whole client phase; the rest
/// is submitted as pipelined appends of 256 KiB and every 8th writer
/// dies at a rotating `CrashPoint`, its lease then expired and swept.
/// Surviving chunks are read back degraded. Then provider 3 recovers
/// and the timed cycle (scrub, repair, drain) has a fixed amount of
/// garbage, under-replication and victim load to deal with.
fn maintenance_cycle(cx: &Cx) -> Round {
    const APPENDS: u64 = 128;
    const CRASH_EVERY: u64 = 8;
    const DOWN: ProviderId = ProviderId(3);
    const POINTS: [CrashPoint; 4] = [
        CrashPoint::AfterPrepare,
        CrashPoint::AfterBoundaryPages,
        CrashPoint::AfterPartialMetadata,
        CrashPoint::BeforeNotify,
    ];
    let pool = cx.pool;
    // Blob `b` holds chunks `b * each ..` of the pool, in order; the
    // first `loaded` of them from set-up.
    let each = APPENDS / cx.clients as u64;
    let prefill = each / CHUNKS_PER_MIB / 8;
    let loaded = prefill * CHUNKS_PER_MIB;
    let ((store, blobs, ready), set_up) = cx.set_up(|| {
        let store = build_store(PAGE_64K, 2, false);
        let (blobs, filled) =
            create_blobs(&store, pool, cx.clients, each / CHUNKS_PER_MIB, prefill);
        let down = store.fail_provider(DOWN).is_ok();
        (store, blobs, filled && down)
    });
    replay_prefill(cx, prefill, 2);
    let mut acc = RoundAcc::begin(cx, &store, PAGE_64K, set_up);
    acc.check(ready, "prefill append and fail_provider");

    // What a blob's chunk `i` must read as: its bytes if the writer
    // survived or died with every leaf durable, zeros if it died
    // earlier. Never a blob's last append: a trailing hole is not a
    // readable version, and the blob would end one chunk short.
    let crash_point = |i: u64| {
        (i >= loaded && i % CRASH_EVERY == CRASH_EVERY / 2)
            .then(|| POINTS[(i / CRASH_EVERY) as usize % 4])
    };
    let reads_as_zeros = |i: u64| crash_point(i).is_some_and(|p| p != CrashPoint::BeforeNotify);
    let survivors: Vec<u64> = (0..each).filter(|&i| crash_point(i).is_none()).collect();

    // A failure epoch is global — the lease clock is the store's — so
    // the clients meet at it: every blob quiesces, client 0 lets one
    // writer per blob die, expires the leases and sweeps, and the
    // appends go on.
    let epoch = Barrier::new(cx.clients);
    acc.ops(section(cx.epoch, cx.clients, |client, log| {
        let first = client as u64 * each;
        let mut window = VecDeque::with_capacity(DEPTH);
        for i in loaded..each {
            if let Some(point) = crash_point(i) {
                while let Some(op) = settle_oldest(log, &mut window) {
                    replay_chunk_append(cx, op);
                }
                epoch.wait();
                if client == 0 {
                    let died: Vec<_> = with_first(&blobs, each)
                        .filter_map(|(first, blob)| {
                            let died = blob.crash_append(chunk(pool, first + i), point);
                            log.must(died, "crash_append").map(|version| (blob.id(), version))
                        })
                        .collect();
                    store.advance_lease_clock(1 << 32);
                    let swept = store.sweep_expired_leases();
                    log.check(
                        died.len() == blobs.len()
                            && died.iter().all(|writer| swept.aborted.contains(writer))
                            && swept.pending.is_empty(),
                        "sweep did not abort the dead writers",
                    );
                }
                epoch.wait();
                cx.replay(|| Replay::Update {
                    root: None,
                    kind: UpdateKind::Append { size: CHUNK as u64 },
                    copies: 2,
                });
                continue;
            }
            if window.len() == DEPTH {
                if let Some(op) = settle_oldest(log, &mut window) {
                    replay_chunk_append(cx, op);
                }
            }
            submit(log, &mut window, &blobs[client], chunk(pool, first + i));
        }
        while let Some(op) = settle_oldest(log, &mut window) {
            replay_chunk_append(cx, op);
        }
    }));

    // Degraded reads: every surviving chunk once, in random order,
    // while provider 3 is still down.
    acc.ops(section(cx.epoch, cx.clients, |client, log| {
        let Some(snapshot) = log.must(blobs[client].latest(), "latest()") else { return };
        let first = client as u64 * each;
        let mut lcg = cx.lcg(ROLE_READ_CLIENT + client as u64);
        let mut order = survivors.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, lcg.below(i as u64 + 1) as usize);
        }
        let mut buf = vec![0u8; CHUNK];
        for i in order {
            let offset = i * CHUNK as u64;
            if let Some((_, op)) = log.read(CHUNK as u64, || snapshot.read_into(offset, &mut buf)) {
                log.check(
                    buf[..] == chunk(pool, first + i)[..],
                    "degraded read differs from the pool",
                );
                cx.replay(|| Replay::Read { name: "core.read", op, offset, size: CHUNK as u64 });
            }
        }
    }));
    let recovered = store.recover_provider(DOWN).is_ok();
    acc.check(recovered, "recover_provider");

    acc.finish(&blobs, |acc| verify_maintained(acc, &store, &blobs, pool, each, &reads_as_zeros))
}

/// After the cycle: nothing leaked, nothing left to repair, twice the
/// user bytes stored, and every chunk — holes included — reads as it
/// must.
fn verify_maintained(
    acc: &mut RoundAcc,
    store: &BlobSeer,
    blobs: &[Blob],
    pool: &Pool,
    each: u64,
    reads_as_zeros: &dyn Fn(u64) -> bool,
) {
    let again = store.scrub_orphans();
    acc.check(
        again.is_ok_and(|r| r.pages_reclaimed == 0 && r.bytes_reclaimed == 0),
        "a second scrub found leaked pages",
    );
    let again = store.repair_replicas();
    acc.check(
        again.is_ok_and(|r| {
            r.copies_repaired == 0
                && r.copies_failed == 0
                && r.pages_unrepairable == 0
                && r.strays_trimmed == 0
        }),
        "a second repair was not a no-op",
    );
    let user_bytes = each * CHUNK as u64;
    acc.check(
        store.stats().physical_bytes == 2 * user_bytes * blobs.len() as u64,
        "stored bytes are not exactly twice the user bytes",
    );
    let mut buf = vec![0u8; CHUNK];
    for (first, blob) in with_first(blobs, each) {
        let Ok(snapshot) = blob.latest() else {
            acc.check(false, "latest() after maintenance");
            continue;
        };
        acc.check(snapshot.len() == user_bytes, "blob length after maintenance");
        for i in 0..each {
            let mut ok = snapshot.read_into(i * CHUNK as u64, &mut buf).is_ok();
            ok &= if reads_as_zeros(i) {
                buf.iter().all(|&b| b == 0)
            } else {
                buf[..] == chunk(pool, first + i)[..]
            };
            acc.check(ok, "content changed under maintenance");
        }
    }
}
