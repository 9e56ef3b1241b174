//! Property tests of the QoS admission path (PR 8).
//!
//! Two statements, checked together on random multi-tenant workloads:
//!
//! * **Throttling is invisible in the data plane.** A throttled
//!   [`MultiTenantIngest`] run (tight op quota + 1 ms admission
//!   deadline on the zipf-head tenant, refusals retried) publishes
//!   byte-identical content to an unthrottled oracle run of the same
//!   seed — QoS may delay or refuse an update, never corrupt, reorder
//!   within a tenant, or drop one.
//! * **Admission conservation.** Per tenant, the engine's counters
//!   account for every attempt: `admitted` equals the appends that
//!   published (each chunk is admitted exactly once, however many
//!   refusals preceded it) and `throttled` equals the refusals the
//!   driver retried through — nothing admitted is lost, nothing
//!   refused goes uncounted.

use blobseer::{BlobSeer, QosConfig, TenantId, TenantQuota};
use blobseer_workloads::MultiTenantIngest;
use proptest::prelude::*;

fn build(qos: Option<QosConfig>) -> BlobSeer {
    let mut b =
        BlobSeer::builder().page_size(512).data_providers(4).metadata_providers(2).io_threads(2);
    if let Some(q) = qos {
        b = b.qos(q);
    }
    b.build().expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    #[test]
    fn throttled_ingest_matches_unthrottled_oracle(
        seed in any::<u64>(),
        tenants in 1usize..=3,
        skew_steps in 0u8..=2,
        max_burst in 1usize..=3,
        appends in 8u64..=16,
        ops_per_sec in 20u64..=50,
    ) {
        let driver = MultiTenantIngest::new(tenants, skew_steps as f64 * 0.6, max_burst)
            .chunk_len(64, 512);

        // Oracle: the same workload with no QoS subsystem at all.
        let free = build(None);
        let (free_blobs, free_report) = driver.run(&free, seed, appends).unwrap();

        // Measured: tenant 0 (the zipf head) on a tight op bucket with
        // burst 1 and a 1 ms admission deadline, so back-to-back
        // bursts genuinely get refused and retried.
        let qos = QosConfig::default()
            .with_tenant(
                0,
                TenantQuota { ops_per_sec, burst_ops: 1, ..TenantQuota::unlimited() },
            )
            .with_max_wait_ms(1);
        let gated = build(Some(qos));
        let (gated_blobs, gated_report) = driver.run(&gated, seed, appends).unwrap();

        for i in 0..tenants {
            // Data plane: byte-identical published state per tenant.
            prop_assert_eq!(free_report.tenants[i].appends, gated_report.tenants[i].appends);
            prop_assert_eq!(free_report.tenants[i].bytes, gated_report.tenants[i].bytes);
            prop_assert_eq!(free_report.tenants[i].last, gated_report.tenants[i].last);
            MultiTenantIngest::verify(&free_blobs[i], seed, &free_report.tenants[i]).unwrap();
            MultiTenantIngest::verify(&gated_blobs[i], seed, &gated_report.tenants[i]).unwrap();

            // Control plane: admitted + throttled == submitted.
            let stats = gated.tenant_qos_stats(TenantId(i as u32)).unwrap();
            let r = &gated_report.tenants[i];
            prop_assert_eq!(stats.admitted, r.appends, "each published chunk admitted once");
            prop_assert_eq!(stats.throttled, r.throttled, "each refusal counted once");
            let submitted = r.appends + r.throttled;
            prop_assert_eq!(stats.admitted + stats.throttled, submitted);
            if i > 0 {
                prop_assert_eq!(stats.throttled, 0, "unlimited tenants are never refused");
            }
        }
    }
}
