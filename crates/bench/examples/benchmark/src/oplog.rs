//! Client-side timing: every engine call a workload makes goes through
//! an [`OpLog`], which records when it started and ended, how many
//! user bytes it moved and whether it failed. [`section`] runs one
//! closed-loop phase on 1 or 2 client threads and returns the merged
//! logs with the phase's wall and CPU time.

use std::time::Instant;

use crate::host;

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Op {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Updates and reads are kept apart: they are different end-to-end
/// metrics, and `mixed_rw` issues both in one phase.
#[derive(Default)]
pub struct Kind {
    pub ops: Vec<Op>,
    pub bytes: u64,
}

pub struct OpLog {
    epoch: Instant,
    pub writes: Kind,
    pub reads: Kind,
    pub attempted: u64,
    pub failed: u64,
}

impl OpLog {
    fn new(epoch: Instant) -> OpLog {
        OpLog { epoch, writes: Kind::default(), reads: Kind::default(), attempted: 0, failed: 0 }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn settle<T>(
        &mut self,
        write: bool,
        bytes: u64,
        start: Instant,
        out: blobseer::Result<T>,
    ) -> Option<(T, Op)> {
        let op = Op { start_ns: self.ns(start), end_ns: self.ns(Instant::now()) };
        self.attempted += 1;
        match out {
            Ok(value) => {
                let kind = if write { &mut self.writes } else { &mut self.reads };
                kind.ops.push(op);
                kind.bytes += bytes;
                Some((value, op))
            }
            Err(e) => {
                eprintln!("operation failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// Time one blocking update of `bytes` user bytes.
    pub fn write<T>(
        &mut self,
        bytes: u64,
        f: impl FnOnce() -> blobseer::Result<T>,
    ) -> Option<(T, Op)> {
        let start = Instant::now();
        let out = f();
        self.settle(true, bytes, start, out)
    }

    /// Time one read of `bytes` user bytes.
    pub fn read<T>(
        &mut self,
        bytes: u64,
        f: impl FnOnce() -> blobseer::Result<T>,
    ) -> Option<(T, Op)> {
        let start = Instant::now();
        let out = f();
        self.settle(false, bytes, start, out)
    }

    /// Settle a pipelined update: its latency runs from submission
    /// (`submitted`) to the return of `wait()`, which the caller just
    /// made (`out`).
    pub fn write_done<T>(
        &mut self,
        bytes: u64,
        submitted: Instant,
        out: blobseer::Result<T>,
    ) -> Option<(T, Op)> {
        self.settle(true, bytes, submitted, out)
    }

    /// Settle a read the caller timed itself (one made of two calls).
    pub fn read_done<T>(
        &mut self,
        bytes: u64,
        started: Instant,
        out: blobseer::Result<T>,
    ) -> Option<(T, Op)> {
        self.settle(false, bytes, started, out)
    }

    /// Count a completed operation whose bytes failed verification.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("verification failed: {what}");
            self.failed += 1;
        }
    }

    /// An engine call that is part of the workload but not a timed
    /// client operation (an injected crash, a lease sweep): it must
    /// still succeed.
    pub fn must<T>(&mut self, out: blobseer::Result<T>, what: &str) -> Option<T> {
        self.attempted += 1;
        out.map_err(|e| {
            eprintln!("{what} failed: {e}");
            self.failed += 1;
        })
        .ok()
    }
}

/// One timed phase, all clients merged.
pub struct Section {
    pub writes: Kind,
    pub reads: Kind,
    pub wall_ns: u64,
    pub cpu_ticks: u64,
    /// Ticks the hypervisor stole during the phase, and ticks the CPUs
    /// had in all.
    pub steal: (f64, f64),
    pub attempted: u64,
    pub failed: u64,
}

/// Run `client(index, log)` on `clients` threads (inline when there is
/// one) and time the phase. The load generator never exceeds two
/// threads: the host has two CPUs and the engine needs one of them.
pub fn section<F>(epoch: Instant, clients: usize, client: F) -> Section
where
    F: Fn(usize, &mut OpLog) + Sync,
{
    assert!((1..=2).contains(&clients), "at most two client threads");
    let steal = host::StealWatch::start();
    let cpu0 = host::cpu_ticks();
    let start = Instant::now();
    let logs: Vec<OpLog> = if clients == 1 {
        let mut log = OpLog::new(epoch);
        client(0, &mut log);
        vec![log]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let client = &client;
                    scope.spawn(move || {
                        let mut log = OpLog::new(epoch);
                        client(c, &mut log);
                        log
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        })
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let cpu_ticks = host::cpu_ticks() - cpu0;
    let mut out = Section {
        writes: Kind::default(),
        reads: Kind::default(),
        wall_ns,
        cpu_ticks,
        steal: steal.ticks(),
        attempted: 0,
        failed: 0,
    };
    for log in logs {
        out.writes.ops.extend(log.writes.ops);
        out.writes.bytes += log.writes.bytes;
        out.reads.ops.extend(log.reads.ops);
        out.reads.bytes += log.reads.bytes;
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
    out
}
