//! The multi-tenant session registry: sealed key bytes as the source of
//! truth, a capacity-bounded LRU cache of decoded live sessions, and
//! per-tenant counters that survive eviction.
//!
//! Key bytes are registered per tenant (from `LoadKey` frames or a key
//! directory at startup) and validated through
//! [`rbt_api::decode_fitted`], so every method in the registry — RBT,
//! hybrid isometry, and the §5.2 baselines — is servable, not just RBT.
//! Decoded sessions are expensive relative to key bytes (matrices,
//! normalizer state), so at most `capacity` of them are resident; touching
//! a tenant whose session was evicted re-decodes it from the retained key
//! bytes, which round-trips exactly because a session's transform output
//! depends only on its persisted secrets, never on how often it has been
//! decoded.
//!
//! Counters ([`TenantMetrics`]) live *next to* the key bytes, the one
//! home of a tenant's totals: a session keeps no history, so an LRU
//! eviction cannot zero a tenant's counts.
//!
//! A resident session is the decoded `Arc<dyn FittedTransform>` itself,
//! whatever the method: its batches report their own drift (RBT's
//! out-of-range rows, 0 for the methods that keep no fitted range).
//!
//! The daemon releases an RBT batch inside its own request frame, through
//! the checked-out session's row kernels (the registry's `checkout` and
//! `note` keep the books); any other method's
//! batch is decoded and released in place
//! ([`FittedTransform::transform_batch_in_place`]), on the worker's
//! thread. [`SessionRegistry::transform`] and [`SessionRegistry::invert`]
//! are the in-place calls on a copy of a borrowed batch.
//!
//! Locking: the registry mutex (a non-poisoning `parking_lot` lock, so a
//! panicking worker thread cannot wedge every other tenant) is held
//! only to look up / decode / account. A checked-out
//! `Arc<dyn FittedTransform>` transforms through `&self` outside every
//! lock, so requests run in parallel, for one tenant as for many; each
//! adds its own rows and drift to the counters under the registry lock.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rbt_api::{decode_fitted, FittedTransform, RbtError};
use rbt_data::Dataset;

use crate::metrics::{RuntimeCounters, ServerStats, TenantMetrics, TenantStats};

/// Errors from registry operations, mapped onto the workspace error
/// taxonomy for wire `Error` responses and CLI exit codes.
#[derive(Debug)]
pub enum ServerError {
    /// No key registered under this tenant id.
    UnknownTenant {
        /// The tenant that was requested.
        tenant: String,
    },
    /// The underlying release machinery failed (codec, shape, data, …).
    Rbt(RbtError),
}

impl ServerError {
    /// The error-family code carried in wire `Error` responses, matching
    /// the CLI exit-code taxonomy (unknown tenant is a usage error).
    pub fn code(&self) -> u8 {
        match self {
            ServerError::UnknownTenant { .. } => 2,
            ServerError::Rbt(e) => e.exit_code(),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownTenant { tenant } => {
                write!(f, "no key loaded for tenant {tenant:?}")
            }
            ServerError::Rbt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<RbtError> for ServerError {
    fn from(e: RbtError) -> Self {
        ServerError::Rbt(e)
    }
}

/// Registry result alias.
pub type ServerResult<T> = std::result::Result<T, ServerError>;

struct TenantEntry {
    key_bytes: Vec<u8>,
    live: Option<Arc<dyn FittedTransform>>,
    last_used: u64,
    metrics: TenantMetrics,
}

struct Inner {
    tenants: HashMap<String, TenantEntry>,
    /// Monotone use counter driving LRU ordering.
    clock: u64,
    total_evictions: u64,
}

impl Inner {
    /// Evicts least-recently-used live sessions (never `keep`) until at
    /// most `capacity` are resident. Key bytes and counters stay.
    fn enforce_capacity(&mut self, capacity: usize, keep: &str) {
        loop {
            let live = self.tenants.values().filter(|t| t.live.is_some()).count();
            if live <= capacity {
                return;
            }
            let victim = self
                .tenants
                .iter()
                .filter(|(name, t)| t.live.is_some() && name.as_str() != keep)
                .min_by_key(|(_, t)| t.last_used)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else { return };
            if let Some(entry) = self.tenants.get_mut(&victim) {
                entry.live = None;
                entry.metrics.evictions += 1;
                self.total_evictions += 1;
            }
        }
    }
}

/// The capacity-bounded multi-tenant session registry.
pub struct SessionRegistry {
    capacity: usize,
    inner: Mutex<Inner>,
    runtime: RuntimeCounters,
}

impl SessionRegistry {
    /// A registry keeping at most `capacity` decoded sessions resident
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> SessionRegistry {
        SessionRegistry {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                clock: 0,
                total_evictions: 0,
            }),
            runtime: RuntimeCounters::new(),
        }
    }

    /// The server-wide resilience counters, shared with the event loop
    /// and the worker pool (lock-free increments).
    pub fn runtime(&self) -> &RuntimeCounters {
        &self.runtime
    }

    /// Registers (or replaces) a tenant's sealed key bytes. The key is
    /// decoded immediately — both to validate it and to make the tenant
    /// resident — and its method name and attribute count are returned.
    ///
    /// # Errors
    ///
    /// [`ServerError::Rbt`] when the bytes do not decode as a sealed key
    /// file of any registered method.
    pub fn load_key(&self, tenant: &str, key_bytes: Vec<u8>) -> ServerResult<(String, usize)> {
        let live: Arc<dyn FittedTransform> = decode_fitted(&key_bytes)?.into();
        let loaded = (live.method_name().to_string(), live.n_attributes());
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        // Re-registering a known tenant (key replacement, keystore reload)
        // carries its history forward instead of resetting it.
        let metrics = inner
            .tenants
            .remove(tenant)
            .map(|old| old.metrics)
            .unwrap_or_default();
        inner.tenants.insert(
            tenant.to_string(),
            TenantEntry {
                key_bytes,
                live: Some(live),
                last_used: clock,
                metrics,
            },
        );
        inner.enforce_capacity(self.capacity, tenant);
        Ok(loaded)
    }

    /// Checks out the tenant's live session, re-decoding from the retained
    /// key bytes after an eviction.
    pub(crate) fn checkout(&self, tenant: &str) -> ServerResult<Arc<dyn FittedTransform>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner
            .tenants
            .get_mut(tenant)
            .ok_or_else(|| ServerError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        entry.last_used = clock;
        if let Some(live) = &entry.live {
            return Ok(Arc::clone(live));
        }
        let handle: Arc<dyn FittedTransform> = decode_fitted(&entry.key_bytes)?.into();
        entry.live = Some(Arc::clone(&handle));
        inner.enforce_capacity(self.capacity, tenant);
        Ok(handle)
    }

    /// Adds one answered request, timed from `start`, to its tenant.
    pub(crate) fn note(&self, tenant: &str, rows: u64, drift_rows: u64, start: Instant) {
        let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.tenants.get_mut(tenant) {
            entry.metrics.requests += 1;
            entry.metrics.rows += rows;
            entry.metrics.drift_rows += drift_rows;
            entry.metrics.latency.record(elapsed_us);
        }
    }

    /// Transforms a batch under `tenant`'s session, returning the released
    /// batch and how many of its rows drifted out of the fitted range.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] for unregistered tenants, otherwise
    /// whatever the release machinery reports (shape mismatch, …).
    pub fn transform(&self, tenant: &str, batch: &Dataset) -> ServerResult<(Dataset, u64)> {
        let mut released = batch.clone();
        let drift_rows = self.transform_in_place(tenant, &mut released)?;
        Ok((released, drift_rows))
    }

    /// [`SessionRegistry::transform`] in place: `batch` becomes the
    /// release, and is left untouched on error.
    pub(crate) fn transform_in_place(
        &self,
        tenant: &str,
        batch: &mut Dataset,
    ) -> ServerResult<u64> {
        let live = self.checkout(tenant)?;
        let start = Instant::now();
        let rows = batch.n_rows() as u64;
        let drift_rows = live.transform_batch_in_place(batch)? as u64;
        self.note(tenant, rows, drift_rows, start);
        Ok(drift_rows)
    }

    /// Inverts a previously released batch under `tenant`'s session
    /// (owner-side recovery).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] for unregistered tenants;
    /// [`RbtError::NotInvertible`] (as [`ServerError::Rbt`]) for methods
    /// that destroy information by design.
    pub fn invert(&self, tenant: &str, batch: &Dataset) -> ServerResult<Dataset> {
        let mut recovered = batch.clone();
        self.invert_in_place(tenant, &mut recovered)?;
        Ok(recovered)
    }

    /// [`SessionRegistry::invert`] in place: `batch` becomes the recovered
    /// batch, and is left untouched on error.
    pub(crate) fn invert_in_place(&self, tenant: &str, batch: &mut Dataset) -> ServerResult<()> {
        let live = self.checkout(tenant)?;
        let start = Instant::now();
        live.invert_batch_in_place(batch)?;
        self.note(tenant, 0, 0, start);
        Ok(())
    }

    /// Drops a tenant entirely: key bytes, live session, and counters.
    /// Returns whether the tenant existed.
    pub fn evict(&self, tenant: &str) -> bool {
        self.inner.lock().tenants.remove(tenant).is_some()
    }

    /// A stats snapshot, tenants sorted by id.
    pub fn stats(&self) -> ServerStats {
        let inner = self.inner.lock();
        let mut tenants: Vec<TenantStats> = inner
            .tenants
            .iter()
            .map(|(name, t)| TenantStats {
                tenant: name.clone(),
                live: t.live.is_some(),
                requests: t.metrics.requests,
                rows: t.metrics.rows,
                drift_rows: t.metrics.drift_rows,
                evictions: t.metrics.evictions,
                p50_us: t.metrics.latency.quantile_upper_us(0.50),
                p99_us: t.metrics.latency.quantile_upper_us(0.99),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        ServerStats {
            capacity: self.capacity as u64,
            live_sessions: tenants.iter().filter(|t| t.live).count() as u64,
            known_tenants: tenants.len() as u64,
            total_evictions: inner.total_evictions,
            runtime: self.runtime.snapshot(),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rbt_api::{PrivacyTransform, RbtMethod};
    use rbt_core::{PairwiseSecurityThreshold, RbtConfig};
    use rbt_linalg::Matrix;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn fit_key(seed: u64) -> (Vec<u8>, Dataset) {
        let rows = 12;
        let cols = 3;
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| ((i * 37) % 101) as f64 - 50.0)
            .collect();
        let ds = Dataset::new(
            Matrix::from_vec(rows, cols, data).unwrap(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()],
        )
        .unwrap();
        let method = RbtMethod::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05).unwrap(),
        ));
        let fit = method.fit(&ds, &mut rng(seed)).unwrap();
        (fit.fitted.to_bytes().unwrap(), ds)
    }

    #[test]
    fn unknown_tenant_is_a_typed_usage_error() {
        let registry = SessionRegistry::new(2);
        let (_, ds) = fit_key(1);
        let err = registry.transform("ghost", &ds).unwrap_err();
        assert!(matches!(err, ServerError::UnknownTenant { .. }));
        assert_eq!(err.code(), 2);
    }

    #[test]
    fn corrupt_key_bytes_are_rejected_with_codec_code() {
        let registry = SessionRegistry::new(2);
        let (mut key, _) = fit_key(2);
        let mid = key.len() / 2;
        key[mid] ^= 0xFF;
        let err = registry.load_key("t", key).unwrap_err();
        assert_eq!(err.code(), 4, "corrupt key must map to the codec family");
    }

    #[test]
    fn lru_eviction_reload_round_trips_bitwise() {
        let registry = SessionRegistry::new(1);
        let (key_a, ds_a) = fit_key(3);
        let (key_b, ds_b) = fit_key(4);
        registry.load_key("a", key_a).unwrap();
        let (before, _) = registry.transform("a", &ds_a).unwrap();

        // Loading b evicts a (capacity 1); touching a evicts b back.
        registry.load_key("b", key_b).unwrap();
        registry.transform("b", &ds_b).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.live_sessions, 1);
        assert_eq!(stats.known_tenants, 2);
        assert!(stats.total_evictions >= 1);

        let (after, _) = registry.transform("a", &ds_a).unwrap();
        assert!(before.matrix().approx_eq(after.matrix(), 0.0));

        // Counters survived the eviction round-trip.
        let row_a = registry
            .stats()
            .tenants
            .into_iter()
            .find(|t| t.tenant == "a")
            .unwrap();
        assert_eq!(row_a.requests, 2);
        assert_eq!(row_a.evictions, 1);
    }

    #[test]
    fn reloading_a_key_keeps_the_tenant_history() {
        let registry = SessionRegistry::new(2);
        let (key, ds) = fit_key(6);
        let mut shifted = ds.clone();
        for v in shifted.matrix_mut().as_mut_slice() {
            *v += 1000.0;
        }
        registry.load_key("t", key.clone()).unwrap();
        registry.transform("t", &ds).unwrap();
        registry.transform("t", &shifted).unwrap();
        let counts = |r: &SessionRegistry| {
            let t = r.stats().tenants.into_iter().find(|t| t.tenant == "t");
            t.map(|t| (t.requests, t.rows, t.drift_rows)).unwrap()
        };
        let before = counts(&registry);
        assert_eq!(before, (2, 24, 12), "every shifted row drifts");
        registry.load_key("t", key).unwrap();
        assert_eq!(counts(&registry), before);
    }

    #[test]
    fn explicit_evict_forgets_the_tenant() {
        let registry = SessionRegistry::new(2);
        let (key, ds) = fit_key(5);
        registry.load_key("t", key).unwrap();
        assert!(registry.evict("t"));
        assert!(!registry.evict("t"));
        assert!(matches!(
            registry.transform("t", &ds),
            Err(ServerError::UnknownTenant { .. })
        ));
    }
}
