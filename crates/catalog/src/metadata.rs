//! The metadata API and its local cache.
//!
//! "The information ... \[is\] obtained by querying the AquaLogic DSP
//! application (using the remote metadata API)" and "fetched table metadata
//! is cached locally for further use" (paper §3.5). The production API is a
//! network round trip; here the server side is in-process, with an optional
//! simulated per-call latency so the caching experiment (E3) can show the
//! effect the paper's design addresses.
//!
//! Because the real API crosses the wire, two failure concerns are modelled
//! as first-class here:
//!
//! * **Transient endpoint failure** — a fetch can fail with
//!   [`MetadataError::Unavailable`]; [`MetadataError::is_transient`] tells
//!   the driver whether retrying can help. Failures are injected through an
//!   optional [`MetadataFaultHook`] installed on [`InProcessMetadataApi`]
//!   (the driver's fault-injection layer supplies the hook).
//! * **Staleness** — the server bumps a *metadata epoch* whenever its
//!   catalog or data changes ([`MetadataApi::epoch`]).
//!   [`CachedMetadataApi`] observes the epoch on every lookup and drops its
//!   entries when the epoch moved, so open connections never keep serving
//!   metadata from before a catalog change.

use crate::naming::{ResolveError, TableEntry, TableLocator};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A table locator shared between the server and any number of metadata
/// APIs, so catalog reloads are visible to every open connection.
pub type SharedLocator = Arc<RwLock<TableLocator>>;

/// Wraps a locator for sharing.
pub fn shared_locator(locator: TableLocator) -> SharedLocator {
    Arc::new(RwLock::new(locator))
}

/// Which metadata operation a fault hook is being consulted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataOp {
    /// A single-table resolution (`MetadataApi::table`).
    Table,
    /// A full enumeration (`MetadataApi::all_tables`).
    AllTables,
}

/// A hook consulted before each simulated remote call; returning an error
/// makes the call fail with it. Installed by the driver's fault-injection
/// layer.
pub type MetadataFaultHook = Arc<dyn Fn(MetadataOp) -> Result<(), MetadataError> + Send + Sync>;

/// Errors surfaced by metadata lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetadataError {
    /// Name resolution failed (permanent: the name really does not
    /// resolve against the current catalog).
    Resolve(ResolveError),
    /// The metadata endpoint failed to answer.
    Unavailable {
        /// What went wrong.
        message: String,
        /// Whether retrying the fetch can succeed.
        transient: bool,
    },
}

impl MetadataError {
    /// A transient endpoint failure (retry may succeed).
    pub fn transient(message: impl Into<String>) -> MetadataError {
        MetadataError::Unavailable {
            message: message.into(),
            transient: true,
        }
    }

    /// A permanent endpoint failure.
    pub fn permanent(message: impl Into<String>) -> MetadataError {
        MetadataError::Unavailable {
            message: message.into(),
            transient: false,
        }
    }

    /// Whether a retry of the failed operation can succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MetadataError::Unavailable {
                transient: true,
                ..
            }
        )
    }
}

impl fmt::Display for MetadataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetadataError::Resolve(e) => write!(f, "{e}"),
            MetadataError::Unavailable { message, transient } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "metadata endpoint unavailable ({class}): {message}")
            }
        }
    }
}

impl std::error::Error for MetadataError {}

impl From<ResolveError> for MetadataError {
    fn from(e: ResolveError) -> Self {
        MetadataError::Resolve(e)
    }
}

/// The driver's window onto server-side metadata.
pub trait MetadataApi: Send + Sync {
    /// Resolves a (possibly qualified) SQL table reference to its entry.
    fn table(&self, parts: &[String]) -> Result<Arc<TableEntry>, MetadataError>;

    /// Lists every presented table (DatabaseMetaData enumeration).
    fn all_tables(&self) -> Vec<Arc<TableEntry>>;

    /// Number of server round trips performed so far (for E3 reporting).
    fn round_trips(&self) -> u64;

    /// The server's metadata generation. Bumped whenever the catalog or
    /// the data behind it changes; `0` for APIs without staleness
    /// tracking.
    fn epoch(&self) -> u64 {
        0
    }
}

/// Serves metadata from an in-process [`TableLocator`], simulating the
/// remote API. Each call counts as one round trip, can sleep for a
/// configured latency, and can fail through an installed fault hook.
pub struct InProcessMetadataApi {
    locator: SharedLocator,
    epoch: Arc<AtomicU64>,
    latency: Duration,
    round_trips: AtomicU64,
    fault_hook: Option<MetadataFaultHook>,
}

impl InProcessMetadataApi {
    /// Creates an API over a private snapshot of `locator` with zero
    /// latency (no staleness tracking: the epoch is pinned at 0).
    pub fn new(locator: TableLocator) -> Self {
        Self::with_latency(locator, Duration::ZERO)
    }

    /// Creates an API whose every call stalls for `latency`, emulating the
    /// network round trip to a DSP server.
    pub fn with_latency(locator: TableLocator, latency: Duration) -> Self {
        Self::shared(
            shared_locator(locator),
            Arc::new(AtomicU64::new(0)),
            latency,
        )
    }

    /// Creates an API over a locator and epoch counter shared with the
    /// server, so catalog reloads and epoch bumps are observed live.
    pub fn shared(locator: SharedLocator, epoch: Arc<AtomicU64>, latency: Duration) -> Self {
        InProcessMetadataApi {
            locator,
            epoch,
            latency,
            round_trips: AtomicU64::new(0),
            fault_hook: None,
        }
    }

    /// Installs a fault hook consulted before every simulated remote call.
    pub fn with_fault_hook(mut self, hook: MetadataFaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    fn charge_round_trip(&self, op: MetadataOp) -> Result<(), MetadataError> {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        match &self.fault_hook {
            Some(hook) => hook(op),
            None => Ok(()),
        }
    }
}

impl MetadataApi for InProcessMetadataApi {
    fn table(&self, parts: &[String]) -> Result<Arc<TableEntry>, MetadataError> {
        self.charge_round_trip(MetadataOp::Table)?;
        let locator = self.locator.read();
        let entry = locator.resolve(parts)?;
        Ok(Arc::new(entry.clone()))
    }

    fn all_tables(&self) -> Vec<Arc<TableEntry>> {
        // Enumeration is used at tool-connect time; a failed enumeration
        // is presented as an empty catalog rather than an error.
        if self.charge_round_trip(MetadataOp::AllTables).is_err() {
            return Vec::new();
        }
        self.locator
            .read()
            .tables()
            .iter()
            .map(|e| Arc::new(e.clone()))
            .collect()
    }

    fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Cache statistics for E3 reporting and staleness diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered locally.
    pub hits: u64,
    /// Lookups that went to the server.
    pub misses: u64,
    /// Times the whole cache was dropped because the server's metadata
    /// epoch moved under it.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Wraps any [`MetadataApi`] with the paper's local metadata cache, keyed
/// by the written table reference. The cache is epoch-aware: every lookup
/// first compares the server's metadata epoch with the epoch the cache was
/// filled at and drops all entries on mismatch, so a catalog change on the
/// server is never papered over by stale local entries.
pub struct CachedMetadataApi<A> {
    inner: A,
    cache: RwLock<HashMap<Vec<String>, Arc<TableEntry>>>,
    filled_at_epoch: AtomicU64,
    /// [`CacheStats`], one counter per field.
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl<A: MetadataApi> CachedMetadataApi<A> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: A) -> Self {
        let filled_at_epoch = AtomicU64::new(inner.epoch());
        CachedMetadataApi {
            inner,
            cache: RwLock::new(HashMap::new()),
            filled_at_epoch,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Current cache statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Empties the cache and resets statistics (used by benches to
    /// measure cold paths).
    pub fn clear(&self) {
        self.cache.write().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
    }

    /// Drops all entries, keeping statistics, and records an
    /// invalidation. Called when staleness is detected (epoch moved, or
    /// the server rejected a translation as stale).
    pub fn invalidate(&self) {
        let mut cache = self.cache.write();
        cache.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.filled_at_epoch
            .store(self.inner.epoch(), Ordering::Release);
    }

    /// Drops entries if the server's metadata epoch moved since the cache
    /// was filled. Returns whether an invalidation happened.
    ///
    /// The epoch a cache was filled at only moves under the write lock,
    /// together with the clear: a thread that has seen the new epoch
    /// cannot read an entry of the old one, even while another thread is
    /// still on its way to clearing them.
    pub fn invalidate_if_stale(&self) -> bool {
        let current = self.inner.epoch();
        if self.filled_at_epoch.load(Ordering::Acquire) == current {
            return false;
        }
        let mut cache = self.cache.write();
        if self.filled_at_epoch.swap(current, Ordering::AcqRel) == current {
            return false;
        }
        cache.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The wrapped API.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: MetadataApi> MetadataApi for CachedMetadataApi<A> {
    fn table(&self, parts: &[String]) -> Result<Arc<TableEntry>, MetadataError> {
        self.invalidate_if_stale();
        if let Some(entry) = self.cache.read().get(parts) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(entry));
        }
        // Fetch and insert under the write lock. Threads sharing the
        // cache then fetch a table once per epoch between them, and an
        // invalidation cannot slip in between a fetch of the old catalog
        // and its insert (its `clear` waits for the lock, so it also
        // clears what was fetched before it) — an entry that outlived the
        // epoch it was fetched in would be served until the next change.
        let mut cache = self.cache.write();
        if let Some(entry) = cache.get(parts) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(entry));
        }
        let entry = self.inner.table(parts)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        cache.insert(parts.to_vec(), Arc::clone(&entry));
        Ok(entry)
    }

    fn all_tables(&self) -> Vec<Arc<TableEntry>> {
        // Enumeration is rare (tool connect time); always delegate.
        self.inner.all_tables()
    }

    fn round_trips(&self) -> u64 {
        self.inner.round_trips()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

impl<A: MetadataApi + ?Sized> MetadataApi for Arc<A> {
    fn table(&self, parts: &[String]) -> Result<Arc<TableEntry>, MetadataError> {
        (**self).table(parts)
    }

    fn all_tables(&self) -> Vec<Arc<TableEntry>> {
        (**self).all_tables()
    }

    fn round_trips(&self) -> u64 {
        (**self).round_trips()
    }

    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ApplicationBuilder;
    use crate::types::SqlColumnType;

    fn locator() -> TableLocator {
        let app = ApplicationBuilder::new("TESTAPP")
            .project("TestDataServices")
            .data_service("CUSTOMERS")
            .physical_table("CUSTOMERS", |t| {
                t.column("CUSTOMERID", SqlColumnType::Integer, false)
                    .column("CUSTOMERNAME", SqlColumnType::Varchar, true)
            })
            .finish_service()
            .finish_project()
            .build();
        TableLocator::for_application(&app)
    }

    #[test]
    fn in_process_api_counts_round_trips() {
        let api = InProcessMetadataApi::new(locator());
        let parts = vec!["CUSTOMERS".to_string()];
        api.table(&parts).unwrap();
        api.table(&parts).unwrap();
        assert_eq!(api.round_trips(), 2);
    }

    #[test]
    fn cache_answers_repeat_lookups_locally() {
        let api = CachedMetadataApi::new(InProcessMetadataApi::new(locator()));
        let parts = vec!["CUSTOMERS".to_string()];
        api.table(&parts).unwrap();
        api.table(&parts).unwrap();
        api.table(&parts).unwrap();
        assert_eq!(api.round_trips(), 1);
        let stats = api.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!((stats.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn clear_resets_cache() {
        let api = CachedMetadataApi::new(InProcessMetadataApi::new(locator()));
        let parts = vec!["CUSTOMERS".to_string()];
        api.table(&parts).unwrap();
        api.clear();
        api.table(&parts).unwrap();
        assert_eq!(api.round_trips(), 2);
        assert_eq!(api.stats().misses, 1);
    }

    #[test]
    fn unknown_table_error_propagates_through_cache() {
        let api = CachedMetadataApi::new(InProcessMetadataApi::new(locator()));
        let err = api.table(&["NOPE".to_string()]).unwrap_err();
        assert!(matches!(err, MetadataError::Resolve(_)));
        assert!(!err.is_transient());
        // Failures are not cached.
        assert!(api.table(&["NOPE".to_string()]).is_err());
        assert_eq!(api.round_trips(), 2);
    }

    #[test]
    fn epoch_bump_invalidates_cache() {
        let epoch = Arc::new(AtomicU64::new(0));
        let api = CachedMetadataApi::new(InProcessMetadataApi::shared(
            shared_locator(locator()),
            Arc::clone(&epoch),
            Duration::ZERO,
        ));
        let parts = vec!["CUSTOMERS".to_string()];
        api.table(&parts).unwrap();
        api.table(&parts).unwrap();
        assert_eq!(api.round_trips(), 1);

        // The server's catalog changes...
        epoch.fetch_add(1, Ordering::Release);
        // ...and the next lookup refuses the stale entry.
        api.table(&parts).unwrap();
        assert_eq!(api.round_trips(), 2);
        let stats = api.stats();
        assert_eq!(stats.invalidations, 1);
        // Steady state again afterwards.
        api.table(&parts).unwrap();
        assert_eq!(api.round_trips(), 2);
    }

    #[test]
    fn shared_locator_sees_catalog_reloads() {
        let shared = shared_locator(locator());
        let api = InProcessMetadataApi::shared(
            Arc::clone(&shared),
            Arc::new(AtomicU64::new(0)),
            Duration::ZERO,
        );
        assert_eq!(api.all_tables().len(), 1);
        let bigger = ApplicationBuilder::new("TESTAPP")
            .project("TestDataServices")
            .data_service("CUSTOMERS")
            .physical_table("CUSTOMERS", |t| {
                t.column("CUSTOMERID", SqlColumnType::Integer, false)
            })
            .finish_service()
            .data_service("ORDERS")
            .physical_table("ORDERS", |t| t.column("ID", SqlColumnType::Integer, false))
            .finish_service()
            .finish_project()
            .build();
        *shared.write() = TableLocator::for_application(&bigger);
        assert_eq!(api.all_tables().len(), 2);
    }

    #[test]
    fn fault_hook_failures_surface_and_classify() {
        let calls = Arc::new(AtomicU64::new(0));
        let hook_calls = Arc::clone(&calls);
        let api = InProcessMetadataApi::new(locator()).with_fault_hook(Arc::new(move |op| {
            let n = hook_calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(op, MetadataOp::Table);
            if n == 0 {
                Err(MetadataError::transient("endpoint dropped the call"))
            } else {
                Ok(())
            }
        }));
        let parts = vec!["CUSTOMERS".to_string()];
        let err = api.table(&parts).unwrap_err();
        assert!(err.is_transient());
        // The retry succeeds once the hook relents.
        assert!(api.table(&parts).is_ok());
        assert_eq!(api.round_trips(), 2);
    }
}
