//! A crash-injecting ingest driver: pipelined appends with periodic
//! writer deaths, driven through the engine's lease machinery.
//!
//! [`CrashyIngest`] streams [`crate::AppendStream`] chunks like
//! [`crate::PipelinedIngest`], but kills every `crash_every`-th append
//! at a rotating [`CrashPoint`] and then recovers the way a real
//! deployment would: the lease clock passes the TTL and a sweep aborts
//! the dead version, after which ingest resumes. Content stays fully
//! verifiable — [`CrashyIngest::verify`] checks every surviving chunk
//! against the deterministic stream and every hole against its
//! documented content (zeros, or the dead writer's bytes when it died
//! with all leaves durable).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use blobseer::{Blob, BlobSeer, Bytes, CrashPoint, PendingWrite, Result, Snapshot, Version};

use crate::stream::AppendStream;

/// One chunk of a crash-injected ingest run.
#[derive(Clone, Copy, Debug)]
pub struct ChunkRecord {
    /// Version the chunk was assigned.
    pub version: Version,
    /// Absolute byte offset (assigned offsets chain over holes).
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
    /// `None` for survivors, the injected crash point otherwise.
    pub crashed: Option<CrashPoint>,
}

/// What a crash-injected ingest run produced.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Appends issued (survivors + crashed).
    pub appends: u64,
    /// Writers killed (== versions aborted by the sweeps).
    pub crashed: u64,
    /// Payload bytes of *surviving* appends.
    pub bytes: u64,
    /// Newest published version (published after the final `sync`).
    pub last: Version,
    /// Per-chunk record, in version order.
    pub chunks: Vec<ChunkRecord>,
}

/// Leak/reclaim measurements of one [`CrashyIngest::run_then_scrub`].
#[derive(Clone, Copy, Debug)]
pub struct ScrubTrajectory {
    /// Physical bytes stored right after the ingest quiesced (live set
    /// + everything the crashed writers leaked).
    pub stored_bytes_before: u64,
    /// Leaked bytes the scrub reclaimed.
    pub leaked_bytes_before: u64,
    /// Leaked page copies the scrub reclaimed.
    pub leaked_pages_before: u64,
    /// Bytes a second scrub still found leaked (0 on a quiesced
    /// deployment — the run's own completeness check).
    pub leaked_bytes_after: u64,
    /// Physical bytes stored after the scrub (the live-set size).
    pub stored_bytes_after: u64,
    /// Distinct pages the mark phase proved live.
    pub pages_marked: usize,
    /// Page copies the sweep inspected.
    pub pages_scanned: u64,
    /// Wall time of the crash-injected ingest (context for the scrub
    /// cost).
    pub ingest_elapsed: Duration,
    /// Wall time of the scrub pass (mark + parallel sweep).
    pub scrub_elapsed: Duration,
}

/// Pipelined ingest with failure injection; see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct CrashyIngest {
    depth: usize,
    crash_every: u64,
}

impl CrashyIngest {
    /// Driver keeping up to `depth` appends in flight and killing every
    /// `crash_every`-th one (both ≥ 1; `crash_every == 1` kills every
    /// append — nothing survives but the blob still stays live).
    pub fn new(depth: usize, crash_every: u64) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        assert!(crash_every >= 1, "crash_every must be at least 1");
        CrashyIngest { depth, crash_every }
    }

    /// The rotating crash point used for the `n`-th kill.
    fn point(n: u64) -> CrashPoint {
        // Deliberately includes BeforeNotify: a writer that dies with
        // all leaves durable leaves its bytes in the hole, and verify
        // must account for that documented semantic.
        const POINTS: [CrashPoint; 4] = [
            CrashPoint::AfterPrepare,
            CrashPoint::AfterBoundaryPages,
            CrashPoint::AfterPartialMetadata,
            CrashPoint::BeforeNotify,
        ];
        POINTS[(n % POINTS.len() as u64) as usize]
    }

    /// Append `appends` chunks of `stream` to `blob`, killing every
    /// `crash_every`-th writer. Before each kill the in-flight window
    /// is drained (a failure epoch: the blob quiesces, the writer
    /// dies); recovery then runs the production path — the lease clock
    /// passes the TTL and [`BlobSeer::sweep_expired_leases`] aborts
    /// the dead version — before ingest resumes.
    pub fn run(
        &self,
        store: &BlobSeer,
        blob: &Blob,
        stream: &mut AppendStream,
        appends: u64,
    ) -> Result<CrashReport> {
        let ttl = store.config().lease_ttl_ticks;
        let mut inflight: VecDeque<PendingWrite> = VecDeque::with_capacity(self.depth);
        let mut chunks = Vec::with_capacity(appends as usize);
        let (mut bytes, mut crashed, mut offset) = (0u64, 0u64, 0u64);
        let mut last = Version(0);
        for i in 1..=appends {
            let chunk = stream.next_chunk();
            let len = chunk.len() as u64;
            if i.is_multiple_of(self.crash_every) {
                // Quiesce, then kill this writer mid-update.
                for pending in inflight.drain(..) {
                    last = last.max(pending.wait()?);
                }
                let point = Self::point(crashed);
                let version = blob.crash_append(Bytes::from(chunk), point)?;
                chunks.push(ChunkRecord { version, offset, len, crashed: Some(point) });
                crashed += 1;
                // Production recovery: lease expiry + sweep.
                store.advance_lease_clock(ttl + 1);
                let report = store.sweep_expired_leases();
                debug_assert!(report.aborted.contains(&(blob.id(), version)));
            } else {
                let pending = blob.append_pipelined(Bytes::from(chunk))?;
                chunks.push(ChunkRecord { version: pending.version(), offset, len, crashed: None });
                bytes += len;
                inflight.push_back(pending);
                if inflight.len() == self.depth {
                    last = last.max(inflight.pop_front().expect("non-empty").wait()?);
                }
            }
            offset += len;
        }
        for pending in inflight {
            last = last.max(pending.wait()?);
        }
        if last > Version(0) {
            blob.sync(last)?;
        }
        Ok(CrashReport { appends, crashed, bytes, last, chunks })
    }

    /// The crash-ingest-then-scrub trajectory: run the crash-injected
    /// ingest, measure the storage it leaked, scrub, and measure
    /// again. The returned [`ScrubTrajectory`] holds leaked bytes
    /// before and after, plus the scrub's wall-clock cost to weigh
    /// against the ingest it cleans up after. The benchmark measures
    /// the same cleanup as `maint_cycle_ms`@`maintenance_cycle`
    /// (`BENCHMARK.json`).
    ///
    /// "Leaked" is measured, not inferred: it is exactly what
    /// [`BlobSeer::scrub_orphans`] reclaims on the quiesced deployment
    /// (the run's own verification — a second scrub must find nothing).
    pub fn run_then_scrub(
        &self,
        store: &BlobSeer,
        blob: &Blob,
        stream: &mut AppendStream,
        appends: u64,
    ) -> Result<(CrashReport, ScrubTrajectory)> {
        let ingest_start = Instant::now();
        let report = self.run(store, blob, stream, appends)?;
        let ingest_elapsed = ingest_start.elapsed();

        let stored_bytes_before = store.stats().physical_bytes;
        let scrub_start = Instant::now();
        let scrub = store.scrub_orphans()?;
        let scrub_elapsed = scrub_start.elapsed();
        // Sample storage *before* the verification pass: if that pass
        // does reclaim a straggler (a background repair finishing
        // between the two), the trajectory must still satisfy
        // `before - leaked == after` for the measured scrub.
        let stored_bytes_after = store.stats().physical_bytes;
        let leak_after = store.scrub_orphans()?.bytes_reclaimed;

        Ok((
            report,
            ScrubTrajectory {
                stored_bytes_before,
                leaked_bytes_before: scrub.bytes_reclaimed,
                leaked_pages_before: scrub.pages_reclaimed,
                leaked_bytes_after: leak_after,
                stored_bytes_after,
                pages_marked: scrub.pages_marked,
                pages_scanned: scrub.pages_scanned,
                ingest_elapsed,
                scrub_elapsed,
            },
        ))
    }

    /// Verify `snapshot` against the run that produced `report`:
    /// surviving chunks must match the seed-`seed` stream exactly;
    /// holes must read as zeros — or as the dead writer's stream bytes
    /// when it died at [`CrashPoint::BeforeNotify`] (all leaves
    /// durable). Panics on mismatch.
    pub fn verify(snapshot: &Snapshot, seed: u64, report: &CrashReport) -> Result<()> {
        let upto = snapshot.len();
        for chunk in &report.chunks {
            if chunk.offset >= upto {
                break;
            }
            let n = chunk.len.min(upto - chunk.offset);
            let mut buf = vec![0u8; n as usize];
            snapshot.read_into(chunk.offset, &mut buf)?;
            match chunk.crashed {
                Some(point) if point != CrashPoint::BeforeNotify => {
                    assert!(
                        buf.iter().all(|&b| b == 0),
                        "hole at {} (crash {point:?}) must read as zeros",
                        chunk.offset
                    );
                }
                _ => {
                    let expected = AppendStream::expected(seed, chunk.offset, n);
                    assert_eq!(
                        &buf[..],
                        &expected[..],
                        "chunk at {} diverged from the stream",
                        chunk.offset
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer::BlobError;

    fn store() -> BlobSeer {
        BlobSeer::builder()
            .page_size(1024)
            .data_providers(4)
            .metadata_providers(2)
            .io_threads(2)
            .pipeline_threads(2)
            .lease_ttl_ticks(64)
            .build()
            .unwrap()
    }

    #[test]
    fn crashy_ingest_survives_and_verifies() {
        let s = store();
        let blob = s.create();
        let mut stream = AppendStream::new(42, 100, 3000);
        let report = CrashyIngest::new(4, 5).run(&s, &blob, &mut stream, 25).unwrap();
        assert_eq!(report.appends, 25);
        assert_eq!(report.crashed, 5);
        assert_eq!(s.stats().vm.aborted, 5);
        // Versions are dense: holes occupy version numbers.
        assert_eq!(report.chunks.last().unwrap().version, Version(25));
        // Every crashed version is a typed hole; every survivor reads.
        for chunk in &report.chunks {
            match chunk.crashed {
                Some(_) => assert!(matches!(
                    blob.snapshot(chunk.version),
                    Err(BlobError::VersionAborted { .. })
                )),
                None => {
                    blob.snapshot(chunk.version).unwrap();
                }
            }
        }
        let snap = blob.snapshot(report.last).unwrap();
        CrashyIngest::verify(&snap, 42, &report).unwrap();
    }

    #[test]
    fn run_then_scrub_reclaims_the_leak_and_verifies() {
        let s = store();
        let blob = s.create();
        let mut stream = AppendStream::new(11, 100, 3000);
        let (report, traj) =
            CrashyIngest::new(4, 5).run_then_scrub(&s, &blob, &mut stream, 25).unwrap();
        assert_eq!(report.crashed, 5);
        // Crashed writers leaked real storage, the scrub took it back,
        // and a second pass found the deployment leak-free.
        assert!(traj.leaked_bytes_before > 0, "crashes must leak");
        assert_eq!(traj.leaked_bytes_after, 0, "scrub must be complete");
        assert_eq!(traj.stored_bytes_after, traj.stored_bytes_before - traj.leaked_bytes_before);
        assert_eq!(s.stats().physical_bytes, traj.stored_bytes_after);
        // Surviving content is untouched.
        let snap = blob.snapshot(report.last).unwrap();
        CrashyIngest::verify(&snap, 11, &report).unwrap();
    }

    #[test]
    fn crash_every_one_keeps_the_blob_live() {
        let s = store();
        let blob = s.create();
        let mut stream = AppendStream::new(7, 50, 500);
        let report = CrashyIngest::new(2, 1).run(&s, &blob, &mut stream, 6).unwrap();
        assert_eq!(report.crashed, 6);
        assert_eq!(report.bytes, 0);
        assert_eq!(report.last, Version(0), "nothing survived");
        // The blob is not wedged: a fresh writer publishes immediately.
        let v = blob.append(&[1, 2, 3]).unwrap();
        blob.sync(v).unwrap();
        assert_eq!(v, Version(7));
    }

    #[test]
    #[should_panic]
    fn zero_crash_every_rejected() {
        CrashyIngest::new(1, 0);
    }
}
