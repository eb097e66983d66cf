//! Per-tenant service counters and the stats snapshot the `Stats` opcode
//! returns.
//!
//! Latency is tracked in a fixed-size log₂-bucketed histogram (power-of-two
//! microsecond buckets), so recording is O(1), the registry lock is held
//! only briefly, and the quantiles survive millions of requests without
//! allocation. Quantile reads report the *upper bound* of the matching
//! bucket — at most 2× the true value, which is plenty for spotting a
//! tenant whose p99 has fallen off a cliff. (The bench harness computes
//! exact client-side percentiles from raw samples; this histogram is the
//! always-on server-side view.)

use std::sync::atomic::{AtomicU64, Ordering};

use rbt_linalg::codec::{ByteReader, ByteWriter, DecodeError};

/// Number of log₂ buckets: bucket `i` holds latencies in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 holds 0–1 µs). The last bucket
/// absorbs everything from ~2^38 µs (~3 days) up.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    fn bucket(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one service time, in microseconds.
    pub fn record(&mut self, us: u64) {
        self.counts[Self::bucket(us)] += 1;
        self.total += 1;
    }

    /// Samples recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The upper bound (in microseconds) of the bucket containing the
    /// `q`-quantile, or 0 when nothing has been recorded. `q` is clamped
    /// to `[0, 1]`.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i covers [2^(i-1), 2^i); report the upper bound.
                return if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// Counters for one tenant, kept by the registry *outside* the live
/// session so they survive capacity (LRU) eviction and reload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Transform + invert requests served.
    pub requests: u64,
    /// Rows transformed (drift is only counted on the transform path).
    pub rows: u64,
    /// Rows that fell outside the fitted normalization range.
    pub drift_rows: u64,
    /// Times this tenant's live session was evicted to make room.
    pub evictions: u64,
    /// Service-time distribution.
    pub latency: LatencyHistogram,
}

/// Server-wide resilience counters, updated lock-free by the event loop
/// and the worker pool. The `Stats` opcode reports a
/// [`RuntimeSnapshot`] of these alongside the per-tenant rows.
#[derive(Debug, Default)]
pub struct RuntimeCounters {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections refused because the server was at `max_conns`.
    pub refused: AtomicU64,
    /// Connections reaped by the idle reaper.
    pub idle_reaped: AtomicU64,
    /// Connections severed because the peer stalled mid-frame.
    pub stalled: AtomicU64,
    /// Requests shed because they waited past their per-opcode deadline.
    pub deadlines_shed: AtomicU64,
    /// Malformed frames that closed a connection.
    pub malformed: AtomicU64,
    /// Connections that ended with a peer disconnect (clean or mid-frame).
    pub disconnects: AtomicU64,
    /// Connections that completed a graceful drain (got `GoingAway`).
    pub drained: AtomicU64,
    /// Key-directory hot reloads served.
    pub reloads: AtomicU64,
}

impl RuntimeCounters {
    /// A zeroed counter block.
    pub fn new() -> RuntimeCounters {
        RuntimeCounters::default()
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed),
            deadlines_shed: self.deadlines_shed.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time values of [`RuntimeCounters`], carried in [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused (at capacity).
    pub refused: u64,
    /// Connections reaped for idleness.
    pub idle_reaped: u64,
    /// Connections severed for stalling mid-frame.
    pub stalled: u64,
    /// Requests shed past their deadline.
    pub deadlines_shed: u64,
    /// Malformed frames that closed a connection.
    pub malformed: u64,
    /// Peer disconnects.
    pub disconnects: u64,
    /// Connections drained gracefully.
    pub drained: u64,
    /// Key-directory hot reloads served.
    pub reloads: u64,
}

/// A per-tenant stats row, as returned by the `Stats` opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant identifier.
    pub tenant: String,
    /// Whether a decoded session is currently resident.
    pub live: bool,
    /// Transform + invert requests served.
    pub requests: u64,
    /// Rows transformed.
    pub rows: u64,
    /// Rows that fell outside the fitted normalization range.
    pub drift_rows: u64,
    /// Times this tenant's live session was LRU-evicted.
    pub evictions: u64,
    /// Median service time (bucket upper bound), microseconds.
    pub p50_us: u64,
    /// 99th-percentile service time (bucket upper bound), microseconds.
    pub p99_us: u64,
}

/// The full stats snapshot: server-level gauges plus one row per tenant,
/// sorted by tenant id for deterministic output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Maximum number of resident (decoded) sessions.
    pub capacity: u64,
    /// Currently resident sessions.
    pub live_sessions: u64,
    /// Registered tenants (resident or not).
    pub known_tenants: u64,
    /// LRU evictions since the server started.
    pub total_evictions: u64,
    /// Server-wide resilience counters.
    pub runtime: RuntimeSnapshot,
    /// Per-tenant rows.
    pub tenants: Vec<TenantStats>,
}

impl ServerStats {
    /// Appends the snapshot to a wire body.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.capacity);
        w.put_u64(self.live_sessions);
        w.put_u64(self.known_tenants);
        w.put_u64(self.total_evictions);
        w.put_u64(self.runtime.accepted);
        w.put_u64(self.runtime.refused);
        w.put_u64(self.runtime.idle_reaped);
        w.put_u64(self.runtime.stalled);
        w.put_u64(self.runtime.deadlines_shed);
        w.put_u64(self.runtime.malformed);
        w.put_u64(self.runtime.disconnects);
        w.put_u64(self.runtime.drained);
        w.put_u64(self.runtime.reloads);
        w.put_usize(self.tenants.len());
        for t in &self.tenants {
            w.put_str(&t.tenant);
            w.put_bool(t.live);
            w.put_u64(t.requests);
            w.put_u64(t.rows);
            w.put_u64(t.drift_rows);
            w.put_u64(t.evictions);
            w.put_u64(t.p50_us);
            w.put_u64(t.p99_us);
        }
    }

    /// Reads a snapshot written by [`ServerStats::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns the underlying [`DecodeError`] on truncated or malformed
    /// input, including a tenant count that exceeds the remaining bytes.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<ServerStats, DecodeError> {
        let capacity = r.take_u64()?;
        let live_sessions = r.take_u64()?;
        let known_tenants = r.take_u64()?;
        let total_evictions = r.take_u64()?;
        let runtime = RuntimeSnapshot {
            accepted: r.take_u64()?,
            refused: r.take_u64()?,
            idle_reaped: r.take_u64()?,
            stalled: r.take_u64()?,
            deadlines_shed: r.take_u64()?,
            malformed: r.take_u64()?,
            disconnects: r.take_u64()?,
            drained: r.take_u64()?,
            reloads: r.take_u64()?,
        };
        let n = r.take_usize()?;
        // Each row is at least 53 bytes (4-byte name prefix + flag + 6 u64s).
        r.check_count(n, 53)?;
        let mut tenants = Vec::with_capacity(n);
        for _ in 0..n {
            tenants.push(TenantStats {
                tenant: r.take_str()?.to_string(),
                live: r.take_bool()?,
                requests: r.take_u64()?,
                rows: r.take_u64()?,
                drift_rows: r.take_u64()?,
                evictions: r.take_u64()?,
                p50_us: r.take_u64()?,
                p99_us: r.take_u64()?,
            });
        }
        Ok(ServerStats {
            capacity,
            live_sessions,
            known_tenants,
            total_evictions,
            runtime,
            tenants,
        })
    }

    /// A small fixed snapshot for codec tests.
    #[cfg(test)]
    pub(crate) fn sample_for_tests() -> ServerStats {
        ServerStats {
            capacity: 4,
            live_sessions: 2,
            known_tenants: 3,
            total_evictions: 5,
            runtime: RuntimeSnapshot {
                accepted: 11,
                refused: 1,
                idle_reaped: 2,
                stalled: 1,
                deadlines_shed: 3,
                malformed: 4,
                disconnects: 5,
                drained: 6,
                reloads: 7,
            },
            tenants: vec![
                TenantStats {
                    tenant: "hospital-a".to_string(),
                    live: true,
                    requests: 10,
                    rows: 1000,
                    drift_rows: 7,
                    evictions: 2,
                    p50_us: 127,
                    p99_us: 511,
                },
                TenantStats {
                    tenant: "hospital-b".to_string(),
                    live: false,
                    requests: 1,
                    rows: 5,
                    drift_rows: 0,
                    evictions: 3,
                    p50_us: 63,
                    p99_us: 63,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_buckets_are_monotone_and_quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        for us in [0u64, 1, 2, 3, 10, 100, 1000, 10_000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.total(), 9);
        // p100 upper bound must cover the largest sample.
        assert!(h.quantile_upper_us(1.0) >= 100_000);
        // p50 of this set sits at sample 10 → bucket upper bound 15.
        assert_eq!(h.quantile_upper_us(0.5), 15);
        // Empty histogram reports 0.
        assert_eq!(LatencyHistogram::new().quantile_upper_us(0.99), 0);
    }

    #[test]
    fn quantile_upper_bound_is_within_2x() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(300);
        }
        let p99 = h.quantile_upper_us(0.99);
        assert!((300..=600).contains(&p99), "p99 {p99} not within 2x of 300");
    }

    #[test]
    fn stats_round_trip() {
        let stats = ServerStats::sample_for_tests();
        let mut w = ByteWriter::new();
        stats.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = ServerStats::decode_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn runtime_counters_snapshot_reflects_increments() {
        let c = RuntimeCounters::new();
        c.accepted.fetch_add(3, Ordering::Relaxed);
        c.refused.fetch_add(1, Ordering::Relaxed);
        c.drained.fetch_add(2, Ordering::Relaxed);
        let snap = c.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.refused, 1);
        assert_eq!(snap.drained, 2);
        assert_eq!(snap.malformed, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Bucket boundaries: below the saturation point of the last
        // bucket (2^39 µs, ~6 days), the reported quantile upper bound
        // always covers the sample and is within 2x above it (the
        // log2-bucket guarantee) for any sample >= 1 µs.
        #[test]
        fn bucket_upper_bound_brackets_every_sample(us in 0u64..1 << (BUCKETS - 1)) {
            let mut h = LatencyHistogram::new();
            h.record(us);
            let upper = h.quantile_upper_us(1.0);
            prop_assert!(upper >= us, "upper {upper} < sample {us}");
            if us >= 1 {
                prop_assert!(upper < us.saturating_mul(2),
                    "upper {upper} not within 2x of {us}");
            }
        }

        // Beyond the last bucket everything saturates into the same
        // terminal bucket — no panic, no wraparound.
        #[test]
        fn bucket_saturates_past_the_last_boundary(us in (1u64 << (BUCKETS - 1))..u64::MAX) {
            let mut h = LatencyHistogram::new();
            h.record(us);
            prop_assert_eq!(h.quantile_upper_us(1.0), (1u64 << (BUCKETS - 1)) - 1);
        }

        // Bucket assignment is monotone: a larger sample never lands in a
        // smaller bucket.
        #[test]
        fn bucket_assignment_is_monotone(a in 0u64..1 << 40, b in 0u64..1 << 40) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(LatencyHistogram::bucket(lo) <= LatencyHistogram::bucket(hi));
        }

        // The stats codec round-trips arbitrary runtime snapshots.
        #[test]
        fn stats_codec_round_trips_arbitrary_runtime_counters(
            vals in prop::collection::vec(0u64..u64::MAX, 9)
        ) {
            let mut stats = ServerStats::sample_for_tests();
            stats.runtime = RuntimeSnapshot {
                accepted: vals[0], refused: vals[1], idle_reaped: vals[2],
                stalled: vals[3], deadlines_shed: vals[4], malformed: vals[5],
                disconnects: vals[6], drained: vals[7], reloads: vals[8],
            };
            let mut w = ByteWriter::new();
            stats.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = ServerStats::decode_from(&mut r).unwrap();
            r.expect_end().unwrap();
            prop_assert_eq!(back, stats);
        }
    }

    #[test]
    fn stats_oversized_tenant_count_is_rejected() {
        let stats = ServerStats::sample_for_tests();
        let mut w = ByteWriter::new();
        stats.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        // The tenant count follows the 4 server gauges and the 9 runtime
        // counters, i.e. at offset 13 × 8 = 104; inflate it.
        bytes[104..112].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            ServerStats::decode_from(&mut r),
            Err(DecodeError::Malformed { .. })
        ));
    }
}
