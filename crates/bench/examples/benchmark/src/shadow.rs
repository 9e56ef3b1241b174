//! Layer attribution from outside the engine.
//!
//! The engine has no spans of its own yet, so a traced round re-enacts
//! each operation's layer calls on *shadow* instances the benchmark
//! owns — a `VersionManager` and a `MetaStore` (over its own `Dht`)
//! kept at the engine blob's geometry by replaying every update — in
//! the order of `crates/core/src/{write,read}.rs`:
//!
//! * update: `types.page_checksum` per page copy, `version.assign`,
//!   `meta.build_meta`, `dht.put_new` per node, `version.complete`;
//! * read: `version.latest_view`, `meta.read_meta`,
//!   `types.page_checksum` per fetched page (the whole page — a
//!   provider verifies whole pages today).
//!
//! Every operation keeps the shadow tree current; one in
//! [`SAMPLE_EVERY`] is also timed call by call into child spans.
//! `meta.*` spans contain the `Dht::get`s their tree walks make — an
//! outside clock cannot split them; `dht.gets_per_op` x `dht.get_ns`
//! bounds that part from above.
//!
//! Operations are only *queued* while a timed phase runs
//! ([`Shadow::defer`]) and replayed after it ([`Shadow::drain`]), so
//! the replay neither sits inside a pipelined update's latency window
//! nor evicts the engine's working set between two operations.
//!
//! When the engine stops doing something the replay still does, the
//! layer shares exceed the operation and `core.unattributed_share`
//! goes negative. That is the signal to move the clock into the
//! engine; do not extend the replay.

use std::hint::black_box;
use std::time::{Duration, Instant};

use blobseer_dht::Dht;
use blobseer_meta::{
    build_meta, read_meta, Lineage, MetaStore, NodeKey, TreeNode, TreeReader, UpdateContext,
};
use blobseer_types::{
    page_checksum, BlobId, ByteRange, NodePos, PageDescriptor, PageId, ProviderId, Version,
};
use blobseer_version::{ConcurrencyMode, UpdateKind, VersionManager};

use crate::lcg::Lcg;
use crate::oplog::Op;
use crate::trace::{SpanBuf, SAMPLE_EVERY};

const WAIT: Duration = Duration::from_secs(10);
/// Bytes the replay checksums come from. FNV-1a's cost does not depend
/// on the data, so any bytes of the right length stand for a page.
const SCRATCH: usize = 2 << 20;
/// Span buffer preallocation: more than a 60 s traced run records.
const SPANS: usize = 1 << 18;

/// One engine call to re-enact.
pub enum Replay {
    /// `root` is the engine call's name and timing; without it (untimed
    /// set-up traffic) only the geometry advances. `copies` is the
    /// replication factor: a provider checksums every copy it stores.
    Update { root: Option<(&'static str, Op)>, kind: UpdateKind, copies: usize },
    /// A read of `size` bytes at `offset` of the latest snapshot.
    Read { name: &'static str, op: Op, offset: u64, size: u64 },
}

pub struct Shadow {
    psize: u64,
    vm: VersionManager,
    blob: BlobId,
    meta: MetaStore,
    lineage: Lineage,
    next_pid: u128,
    scratch: Vec<u8>,
    pub buf: SpanBuf,
    queue: Vec<Replay>,
    ops: u64,
    pub sampled_ops: u64,
    /// Nodes built and leaves read by sampled operations: the
    /// denominators of `meta.build_ns_per_node` and
    /// `meta.read_meta_ns_per_leaf`.
    pub sampled_nodes: u64,
    pub sampled_leaves: u64,
}

impl Shadow {
    pub fn new(psize: u64) -> Shadow {
        let mut scratch = vec![0u8; SCRATCH];
        Lcg::new(0, 0).fill(&mut scratch);
        let (vm, blob, meta, lineage) = Self::instances(psize);
        Shadow {
            psize,
            vm,
            blob,
            meta,
            lineage,
            next_pid: 1,
            scratch,
            buf: SpanBuf::with_capacity(SPANS),
            queue: Vec::new(),
            ops: 0,
            sampled_ops: 0,
            sampled_nodes: 0,
            sampled_leaves: 0,
        }
    }

    fn instances(psize: u64) -> (VersionManager, BlobId, MetaStore, Lineage) {
        let vm = VersionManager::new(psize, ConcurrencyMode::Concurrent, WAIT);
        let blob = vm.create();
        (vm, blob, MetaStore::new(16, WAIT), Lineage::root(blob))
    }

    /// Start over with an empty blob (every round has a fresh store).
    pub fn reset(&mut self) {
        (self.vm, self.blob, self.meta, self.lineage) = Self::instances(self.psize);
    }

    /// Queue an operation for [`Shadow::drain`].
    pub fn defer(&mut self, replay: Replay) {
        self.queue.push(replay);
    }

    /// Replay everything queued, in submission order.
    pub fn drain(&mut self) {
        for replay in std::mem::take(&mut self.queue) {
            match replay {
                Replay::Update { root, kind, copies } => self.update(root, kind, copies),
                Replay::Read { name, op, offset, size } => self.read(name, op, offset, size),
            }
        }
    }

    fn update(&mut self, root: Option<(&'static str, Op)>, kind: UpdateKind, copies: usize) {
        let sampled = match root {
            Some((name, op)) => self.begin(name, op),
            None => None,
        };
        let mut clock = Rebase::new(sampled);
        let size = match kind {
            UpdateKind::Write { size, .. } | UpdateKind::Append { size } => size,
        };
        if sampled.is_some() {
            for page in self.scratch[..size as usize].chunks(self.psize as usize) {
                for _ in 0..copies {
                    clock.span(&mut self.buf, "types.page_checksum", || {
                        black_box(page_checksum(page))
                    });
                }
            }
        }
        let assigned = clock
            .span(&mut self.buf, "version.assign", || self.vm.assign(self.blob, kind))
            .expect("shadow assign");
        let leaves: Vec<PageDescriptor> = assigned
            .range
            .iter()
            .map(|page_index| {
                self.next_pid += 1;
                PageDescriptor {
                    pid: PageId(self.next_pid),
                    page_index,
                    provider: ProviderId((page_index % 16) as u32),
                    valid_len: self.psize as u32,
                }
            })
            .collect();
        let ctx = UpdateContext {
            vw: assigned.vw,
            range: assigned.range,
            new_root: assigned.new_root,
            overrides: assigned.overrides.clone(),
            ref_root: assigned.ref_root,
        };
        let reader = TreeReader::new(&self.meta, &self.lineage);
        let nodes = clock
            .span(&mut self.buf, "meta.build_meta", || build_meta(&reader, &ctx, &leaves))
            .expect("shadow build_meta");
        for &(key, node) in &nodes {
            clock.span(&mut self.buf, "dht.put_new", || self.meta.put_new(key, node));
        }
        clock
            .span(&mut self.buf, "version.complete", || self.vm.complete(self.blob, assigned.vw))
            .expect("shadow complete");
        if sampled.is_some() {
            self.sampled_nodes += nodes.len() as u64;
        }
    }

    fn read(&mut self, name: &'static str, op: Op, offset: u64, size: u64) {
        let Some(parent) = self.begin(name, op) else { return };
        let mut clock = Rebase::new(Some(parent));
        let (_, view) = clock
            .span(&mut self.buf, "version.latest_view", || self.vm.latest_view(self.blob))
            .expect("shadow view");
        let Some(root) = view.root.filter(|_| view.size >= size) else { return };
        let reader = TreeReader::new(&self.meta, &view.lineage);
        // A pipelined update is replayed when its client settles it,
        // which may be after a read that already saw it published:
        // such a read is re-enacted on the last range the shadow has.
        let request = ByteRange::new(offset.min((view.size / size - 1) * size), size);
        let leaves = clock
            .span(&mut self.buf, "meta.read_meta", || read_meta(&reader, root, request, self.psize))
            .expect("shadow read_meta");
        for page in self.scratch.chunks(self.psize as usize).take(leaves.len()) {
            clock.span(&mut self.buf, "types.page_checksum", || black_box(page_checksum(page)));
        }
        self.sampled_leaves += leaves.len() as u64;
    }

    /// Record the root span of the next operation; `Some((id, op
    /// number, root start))` when its layer calls are to be timed too.
    fn begin(&mut self, name: &'static str, op: Op) -> Option<(u64, u64, u64)> {
        self.ops += 1;
        let id = self.buf.push(0, self.ops, name, op.start_ns, op.end_ns);
        (self.ops % SAMPLE_EVERY == 1).then(|| {
            self.sampled_ops += 1;
            (id, self.ops, op.start_ns)
        })
    }
}

/// Times replayed layer calls and lays their spans out from the root
/// span's start (see `crate::trace`); does nothing for operations that
/// are not sampled.
struct Rebase {
    target: Option<(u64, u64, u64)>,
    started: Instant,
}

impl Rebase {
    fn new(target: Option<(u64, u64, u64)>) -> Rebase {
        Rebase { target, started: Instant::now() }
    }

    fn span<T>(&mut self, buf: &mut SpanBuf, name: &'static str, call: impl FnOnce() -> T) -> T {
        let Some((parent, op, base_ns)) = self.target else { return call() };
        let start = self.started.elapsed().as_nanos() as u64;
        let out = call();
        let end = self.started.elapsed().as_nanos() as u64;
        buf.push(parent, op, name, base_ns + start, base_ns + end);
        out
    }
}

/// Unit costs the replay cannot see: `Dht::get` (buried inside the
/// `meta` walks), two-thread variants, and the checksum at both page
/// sizes whatever the workload's own page size is.
pub mod probes {
    use super::*;

    fn node_key(i: u64) -> NodeKey {
        NodeKey { blob: BlobId(1), version: Version(i), pos: NodePos::new(i, 1) }
    }

    /// Mean nanoseconds of `per_thread` calls of `call(thread, i)` on
    /// each of `threads` threads running together.
    fn mean_ns(threads: usize, per_thread: u64, call: impl Fn(usize, u64) + Sync) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let call = &call;
                scope.spawn(move || (0..per_thread).for_each(|i| call(t, i)));
            }
        });
        start.elapsed().as_nanos() as f64 / per_thread as f64
    }

    pub struct DhtCosts {
        pub get_ns: f64,
        pub get_ns_2thr: f64,
    }

    /// `Dht::get` on a 16-bucket table holding `nodes` tree nodes (the
    /// workload's own node count), random keys, on 1 and on 2 threads.
    pub fn dht(nodes: u64, seed: u64) -> DhtCosts {
        let table: Dht<NodeKey, TreeNode> = Dht::new(16);
        let leaf = TreeNode::Leaf { pid: PageId(1), provider: ProviderId(0), valid_len: 0 };
        for i in 0..nodes {
            table.put_new(node_key(i), leaf);
        }
        const GETS: u64 = 200_000;
        let keys: Vec<Vec<NodeKey>> = (0..2)
            .map(|t| {
                let mut lcg = Lcg::new(seed, 0xD47 + t);
                (0..GETS).map(|_| node_key(lcg.below(nodes))).collect()
            })
            .collect();
        let get = |t: usize, i: u64| {
            black_box(table.get(&keys[t][i as usize]));
        };
        DhtCosts { get_ns: mean_ns(1, GETS, get), get_ns_2thr: mean_ns(2, GETS, get) }
    }

    /// `assign` + `complete` of one-page appends by two threads on one
    /// blob: the version manager's serial section under contention.
    pub fn assign_complete_2thr() -> f64 {
        let vm = VersionManager::new(4096, ConcurrencyMode::Concurrent, WAIT);
        let blob = vm.create();
        mean_ns(2, 20_000, |_, _| {
            let assigned =
                vm.assign(blob, UpdateKind::Append { size: 4096 }).expect("probe assign");
            vm.complete(blob, assigned.vw).expect("probe complete");
        })
    }

    pub struct ChecksumCosts {
        pub gib_per_s_64k: f64,
        pub ns_4k: f64,
    }

    /// `page_checksum` over 32 MiB never touched before, as 64 KiB
    /// pages, then over its first 16 MiB as 4 KiB pages.
    pub fn checksum(seed: u64) -> ChecksumCosts {
        let mut data = vec![0u8; 32 << 20];
        Lcg::new(seed, 0xC5).fill(&mut data);
        let start = Instant::now();
        for page in data.chunks(64 << 10) {
            black_box(page_checksum(black_box(page)));
        }
        let gib_per_s_64k =
            (data.len() as f64 / (1u64 << 30) as f64) / start.elapsed().as_secs_f64();
        let small = &data[..16 << 20];
        let start = Instant::now();
        for page in small.chunks(4096) {
            black_box(page_checksum(black_box(page)));
        }
        let ns_4k = start.elapsed().as_nanos() as f64 / (small.len() / 4096) as f64;
        ChecksumCosts { gib_per_s_64k, ns_4k }
    }
}
