//! Multi-tenant ingest: the PR 8 QoS workload.
//!
//! Models the shared-deployment traffic that motivates admission
//! control: `tenants` clients append to one blob each (their own —
//! see `blobseer`'s `qos` module on why pipelined traffic should tag
//! one tenant per blob), with
//!
//! * **zipfian activity skew** — tenant *i* is picked with weight
//!   `1/(i+1)^s`, so tenant 0 is the "noisy neighbour" and the tail
//!   tenants are quiet; and
//! * **bursty arrivals** — each pick issues a burst of consecutive
//!   chunks rather than one, the arrival pattern token-bucket *burst*
//!   capacity exists to absorb.
//!
//! Every tenant's content comes from its own [`AppendStream`] (seed =
//! base seed + tenant id), so the final blob contents are a pure
//! function of the seed **regardless of throttling**: a throttled
//! chunk is retried until admitted, never dropped — which is exactly
//! the oracle property `tests/prop_qos.rs` checks (a throttled run is
//! byte-identical to an unthrottled one, just slower). The report
//! still counts every [`BlobError::QuotaExceeded`] refusal, so tests
//! can assert both "content unchanged" *and* "throttling happened".

use blobseer::{Blob, BlobError, BlobSeer, Result, TenantId, Version};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stream::AppendStream;

/// One tenant's share of a [`MultiTenantIngest`] run.
#[derive(Clone, Copy, Debug)]
pub struct TenantIngestReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Appends published.
    pub appends: u64,
    /// Payload bytes published.
    pub bytes: u64,
    /// `QuotaExceeded` refusals absorbed by retrying (0 when QoS is
    /// off or the tenant stayed under quota).
    pub throttled: u64,
    /// Newest version of the tenant's blob.
    pub last: Version,
}

/// What a whole [`MultiTenantIngest`] run produced.
#[derive(Clone, Debug)]
pub struct MultiTenantReport {
    /// Per-tenant breakdown, indexed by tenant id.
    pub tenants: Vec<TenantIngestReport>,
}

impl MultiTenantReport {
    /// Total appends published across tenants.
    pub fn total_appends(&self) -> u64 {
        self.tenants.iter().map(|t| t.appends).sum()
    }

    /// Total payload bytes published across tenants.
    pub fn total_bytes(&self) -> u64 {
        self.tenants.iter().map(|t| t.bytes).sum()
    }

    /// Total `QuotaExceeded` refusals absorbed by retrying.
    pub fn total_throttled(&self) -> u64 {
        self.tenants.iter().map(|t| t.throttled).sum()
    }
}

/// A multi-tenant ingest driver: zipfian-skewed, bursty blocking
/// appends from `tenants` clients into one blob per tenant.
#[derive(Clone, Copy, Debug)]
pub struct MultiTenantIngest {
    tenants: usize,
    skew_milli: u64,
    max_burst: usize,
    min_chunk: usize,
    max_chunk: usize,
}

impl MultiTenantIngest {
    /// Driver over `tenants` clients (≥ 1) with zipf exponent `s`
    /// (activity skew; `0.0` = uniform) and bursts of up to
    /// `max_burst` consecutive chunks per pick.
    pub fn new(tenants: usize, s: f64, max_burst: usize) -> Self {
        assert!(tenants >= 1, "need at least one tenant");
        assert!(max_burst >= 1, "bursts are at least one chunk");
        assert!((0.0..=8.0).contains(&s), "zipf exponent out of range");
        MultiTenantIngest {
            tenants,
            skew_milli: (s * 1000.0) as u64,
            max_burst,
            min_chunk: 256,
            max_chunk: 4096,
        }
    }

    /// Override the chunk-length bounds (defaults 256..=4096 bytes).
    pub fn chunk_len(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max);
        self.min_chunk = min;
        self.max_chunk = max;
        self
    }

    /// The deterministic stream seed of `tenant` for base seed `seed`
    /// (what [`AppendStream::expected`] wants when verifying that
    /// tenant's blob).
    pub fn tenant_seed(seed: u64, tenant: TenantId) -> u64 {
        seed ^ (0x7e1a_9d0b_u64.wrapping_mul(1 + tenant.raw() as u64))
    }

    /// Run `total_appends` chunks against `store`, distributing them
    /// over the tenants by zipfian pick + burst. Creates one blob per
    /// tenant (tagged via [`Blob::for_tenant`]); returns the blobs in
    /// tenant order alongside the report. Blocking appends; a
    /// [`BlobError::QuotaExceeded`] refusal is counted and the *same*
    /// chunk retried until admitted, so published content is
    /// independent of throttling.
    pub fn run(
        &self,
        store: &BlobSeer,
        seed: u64,
        total_appends: u64,
    ) -> Result<(Vec<Blob>, MultiTenantReport)> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Integer zipf: weight_i ∝ 1/(i+1)^s, scaled to ~1e6 so the
        // shim's u64 sampling suffices (no f64 gen_range needed).
        let s = self.skew_milli as f64 / 1000.0;
        let weights: Vec<u64> = (0..self.tenants)
            .map(|i| ((1_000_000.0 / ((i + 1) as f64).powf(s)) as u64).max(1))
            .collect();
        let total_weight: u64 = weights.iter().sum();

        let blobs: Vec<Blob> =
            (0..self.tenants).map(|i| store.create().for_tenant(TenantId(i as u32))).collect();
        let mut streams: Vec<AppendStream> = (0..self.tenants)
            .map(|i| {
                AppendStream::new(
                    Self::tenant_seed(seed, TenantId(i as u32)),
                    self.min_chunk,
                    self.max_chunk,
                )
            })
            .collect();
        let mut reports: Vec<TenantIngestReport> = (0..self.tenants)
            .map(|i| TenantIngestReport {
                tenant: TenantId(i as u32),
                appends: 0,
                bytes: 0,
                throttled: 0,
                last: Version(0),
            })
            .collect();

        let mut remaining = total_appends;
        while remaining > 0 {
            let mut pick = rng.gen_range(0..total_weight);
            let tenant = weights
                .iter()
                .position(|&w| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("pick is within the cumulative weight");
            let burst = (rng.gen_range(1..=self.max_burst) as u64).min(remaining);
            for _ in 0..burst {
                let chunk = streams[tenant].next_chunk();
                let r = &mut reports[tenant];
                r.bytes += chunk.len() as u64;
                loop {
                    match blobs[tenant].append(&chunk) {
                        Ok(v) => {
                            r.appends += 1;
                            r.last = r.last.max(v);
                            break;
                        }
                        // Refused at the admission deadline: count it
                        // and retry the same chunk — content must not
                        // depend on throttling.
                        Err(BlobError::QuotaExceeded { .. }) => r.throttled += 1,
                        Err(e) => return Err(e),
                    }
                }
            }
            remaining -= burst;
        }

        for (blob, r) in blobs.iter().zip(&reports) {
            if r.appends > 0 {
                blob.sync(r.last)?;
            }
        }
        Ok((blobs, MultiTenantReport { tenants: reports }))
    }

    /// Verify `blob` holds exactly its tenant's stream prefix (content
    /// is a pure function of the seed). Panics on mismatch.
    pub fn verify(blob: &Blob, seed: u64, report: &TenantIngestReport) -> Result<()> {
        let snap = blob.snapshot(report.last)?;
        assert_eq!(snap.len(), report.bytes, "published size mismatch for {}", report.tenant);
        let tseed = Self::tenant_seed(seed, report.tenant);
        let len = snap.len();
        let mut buf = vec![0u8; 64 * 1024];
        let mut offset = 0;
        while offset < len {
            let n = (len - offset).min(buf.len() as u64);
            snap.read_into(offset, &mut buf[..n as usize])?;
            assert_eq!(
                &buf[..n as usize],
                &AppendStream::expected(tseed, offset, n)[..],
                "content diverged at offset {offset} for {}",
                report.tenant
            );
            offset += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer::{QosConfig, TenantQuota};

    fn store(qos: Option<QosConfig>) -> BlobSeer {
        let mut b = BlobSeer::builder()
            .page_size(1024)
            .data_providers(4)
            .metadata_providers(2)
            .io_threads(2);
        if let Some(q) = qos {
            b = b.qos(q);
        }
        b.build().unwrap()
    }

    #[test]
    fn unthrottled_run_publishes_and_verifies() {
        let store = store(None);
        let driver = MultiTenantIngest::new(4, 1.0, 3);
        let (blobs, report) = driver.run(&store, 42, 40).unwrap();
        assert_eq!(report.total_appends(), 40);
        assert_eq!(report.total_throttled(), 0);
        // Zipfian skew: tenant 0 must dominate the tail tenant.
        assert!(report.tenants[0].appends > report.tenants[3].appends);
        for (blob, r) in blobs.iter().zip(&report.tenants) {
            MultiTenantIngest::verify(blob, 42, r).unwrap();
        }
    }

    #[test]
    fn throttled_run_is_byte_identical_to_unthrottled() {
        // Same seed, same append count; one run throttles the noisy
        // tenant hard (tiny deadline so refusals actually happen).
        let driver = MultiTenantIngest::new(3, 1.2, 2).chunk_len(256, 512);
        let free = store(None);
        let (free_blobs, free_report) = driver.run(&free, 7, 24).unwrap();

        let qos = QosConfig::default()
            .with_tenant(
                0,
                TenantQuota { ops_per_sec: 4, burst_ops: 1, ..TenantQuota::unlimited() },
            )
            .with_max_wait_ms(1);
        let gated = store(Some(qos));
        let (gated_blobs, gated_report) = driver.run(&gated, 7, 24).unwrap();

        assert!(gated_report.tenants[0].throttled > 0, "the noisy tenant must hit the quota");
        for i in 0..3 {
            assert_eq!(free_report.tenants[i].bytes, gated_report.tenants[i].bytes);
            assert_eq!(free_report.tenants[i].appends, gated_report.tenants[i].appends);
            let free_snap = free_blobs[i].snapshot(free_report.tenants[i].last).unwrap();
            let gated_snap = gated_blobs[i].snapshot(gated_report.tenants[i].last).unwrap();
            assert_eq!(free_snap.len(), gated_snap.len());
            MultiTenantIngest::verify(&gated_blobs[i], 7, &gated_report.tenants[i]).unwrap();
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let driver = MultiTenantIngest::new(3, 0.8, 4);
        let (_, a) = driver.run(&store(None), 9, 30).unwrap();
        let (_, b) = driver.run(&store(None), 9, 30).unwrap();
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!((x.appends, x.bytes), (y.appends, y.bytes));
        }
    }

    #[test]
    #[should_panic]
    fn zero_tenants_rejected() {
        MultiTenantIngest::new(0, 1.0, 1);
    }
}
