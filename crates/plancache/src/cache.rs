//! The sharded, epoch-invalidated plan cache.
//!
//! Two levels share one store:
//!
//! * **Exact level** — original statement text → plan + the literal
//!   values extracted from *that* text. A hit here skips the whole
//!   pipeline including stage-one parsing: the generated XQuery, output
//!   columns, and bound values are ready to execute.
//! * **Plan level** — canonical (normalized) text → shared plan. A hit
//!   here pays one parse + normalize but no stage-two/stage-three work,
//!   and is how `WHERE ID = 5` warms the cache for `WHERE ID = 7`.
//!
//! The store is N-way sharded by key hash with one `RwLock` per shard, so
//! concurrent readers on different statements never contend. Recency is
//! approximate LRU: each entry carries an atomic last-used tick bumped
//! under the read lock; eviction (per shard, at capacity) removes the
//! entry with the smallest tick.
//!
//! ## Epoch invalidation
//!
//! Every plan carries the metadata epoch it was translated against
//! (PR-1's staleness protocol). Lookups compare that tag against the
//! caller's current epoch and drop mismatched entries — and because a
//! driver's epoch view can itself lag the server, the server-side
//! rejection remains authoritative: a [`DriverError::StaleMetadata`]
//! recovery calls [`PlanCache::purge_stale`] before retranslating, so a
//! stale plan is never served twice.
//!
//! [`DriverError::StaleMetadata`]: ../../aldsp_driver/enum.DriverError.html

use crate::normalize::{normalize, NormalizedStatement, ParamSlot};
use aldsp_catalog::MetadataApi;
use aldsp_core::{
    stage1, FullTranslation, OptimizeLevel, OutputColumn, PreparedQuery, QueryOptimizer,
    RewriteTrace, TranslateError, Translation, TranslationOptions, Translator,
};
use aldsp_relational::SqlValue;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cached, executable plan: the full translation product keyed by its
/// canonical text.
#[derive(Debug)]
pub struct CachedPlan {
    /// The canonical (normalized) statement text this plan was built from
    /// — for fallback plans, the original text.
    pub canonical_sql: String,
    /// The options the plan was translated under.
    pub options: TranslationOptions,
    /// Marker origins, one per `$sqlParam` of the generated XQuery.
    pub slots: Vec<ParamSlot>,
    /// Number of user-facing `?` markers in the original statement.
    pub user_param_count: usize,
    /// False for fallback plans cached under the exact key only (the
    /// normalized form failed to translate).
    pub normalized: bool,
    /// The generated translation (XQuery text, output columns, epoch tag).
    pub translation: Translation,
    /// The stage-two IR — kept so cached plans remain analyzable without
    /// re-running the pipeline.
    pub prepared: PreparedQuery,
    /// The optimizer's rewrite trace, when the plan was built through
    /// [`PlanCache::plan_with`] at an optimize level above `Off`:
    /// `translation.xquery` then holds the optimized program and the
    /// trace records each rule with the estimated fuel before and after.
    /// `None` for unoptimized plans. Because [`TranslationOptions`]
    /// (including the optimize level) is part of the cache key, optimized
    /// and naive plans for the same SQL never collide.
    pub rewrite: Option<RewriteTrace>,
}

impl CachedPlan {
    /// Result-set metadata of the plan.
    pub fn columns(&self) -> &[OutputColumn] {
        &self.translation.columns
    }

    /// Flattens user-supplied parameters and extracted literals into the
    /// `$sqlParam1..N` binding order the plan's XQuery expects.
    pub fn resolve_args(
        &self,
        literal_args: &[SqlValue],
        user: &[SqlValue],
    ) -> Result<Vec<SqlValue>, String> {
        if user.len() != self.user_param_count {
            return Err(format!(
                "statement expects {} parameter(s), {} bound",
                self.user_param_count,
                user.len()
            ));
        }
        self.slots
            .iter()
            .map(|slot| match slot {
                ParamSlot::User(j) => user
                    .get(*j)
                    .cloned()
                    .ok_or_else(|| format!("user parameter ordinal {j} out of range")),
                ParamSlot::Literal(k) => literal_args
                    .get(*k)
                    .cloned()
                    .ok_or_else(|| format!("extracted literal index {k} out of range")),
            })
            .collect()
    }
}

/// A plan together with the literal values of one concrete statement text
/// — everything needed to execute.
#[derive(Debug, Clone)]
pub struct BoundPlan {
    /// The shared plan.
    pub plan: Arc<CachedPlan>,
    /// Extracted literal values for the looked-up text, in extraction
    /// order.
    pub literal_args: Arc<[SqlValue]>,
}

impl BoundPlan {
    /// See [`CachedPlan::resolve_args`].
    pub fn resolve_args(&self, user: &[SqlValue]) -> Result<Vec<SqlValue>, String> {
        self.plan.resolve_args(&self.literal_args, user)
    }
}

/// How a [`PlanCache::plan`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Exact-text hit: no parsing, no translation.
    ExactHit,
    /// Canonical-text hit: one parse + normalize, no translation.
    NormalizedHit,
    /// Full translation of the normalized form (now cached at both
    /// levels).
    Translated,
    /// Full translation of the original text; the normalized form could
    /// not be translated, so the plan is cached under the exact key only.
    Fallback,
    /// The statement exceeded the cache's size cap: translated directly,
    /// never inserted — one pathological megastatement cannot evict a
    /// shard of warm plans.
    Bypass,
}

/// A point-in-time snapshot of cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-text hits (zero-parse path).
    pub exact_hits: u64,
    /// Canonical-text hits (parse-only path).
    pub normalized_hits: u64,
    /// Full translations (including fallbacks).
    pub misses: u64,
    /// Misses whose normalized form failed to translate.
    pub fallbacks: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries dropped because their epoch tag no longer matched the
    /// caller's metadata epoch.
    pub epoch_invalidations: u64,
    /// Statements translated without caching because they exceeded the
    /// size cap.
    pub oversize_bypasses: u64,
}

impl CacheStats {
    /// All hits, both levels.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.normalized_hits
    }

    /// Hits over total lookups, in `[0, 1]`; `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits() + self.misses;
        (total > 0).then(|| self.hits() as f64 / total as f64)
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    sql: String,
    options: TranslationOptions,
}

struct ExactEntry {
    plan: Arc<CachedPlan>,
    literal_args: Arc<[SqlValue]>,
    last_used: AtomicU64,
}

struct PlanEntry {
    plan: Arc<CachedPlan>,
    last_used: AtomicU64,
}

#[derive(Default)]
struct Shard {
    exact: HashMap<Key, ExactEntry>,
    plans: HashMap<Key, PlanEntry>,
}

/// The [`PlanCache`] statement-size cap: 1 MiB of SQL text. Longer
/// statements are translated but never cached ([`Lookup::Bypass`]).
pub const DEFAULT_STATEMENT_CAP: usize = 1 << 20;

/// The concurrent translation plan cache.
pub struct PlanCache {
    shards: Vec<RwLock<Shard>>,
    shard_capacity: usize,
    tick: AtomicU64,
    exact_hits: AtomicU64,
    normalized_hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
    evictions: AtomicU64,
    epoch_invalidations: AtomicU64,
    oversize_bypasses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(8, 128)
    }
}

impl PlanCache {
    /// A cache with `shards` lock domains, each holding up to
    /// `shard_capacity` entries per level.
    pub fn new(shards: usize, shard_capacity: usize) -> PlanCache {
        let shards = shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            shard_capacity: shard_capacity.max(1),
            tick: AtomicU64::new(0),
            exact_hits: AtomicU64::new(0),
            normalized_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            epoch_invalidations: AtomicU64::new(0),
            oversize_bypasses: AtomicU64::new(0),
        }
    }

    /// The central entry point: an executable plan for `sql`, from the
    /// cache when possible, translated (and cached) otherwise.
    ///
    /// `current_epoch` is read from the translator's metadata API; plans
    /// tagged with a different epoch are dropped rather than served. The
    /// tag check is best-effort — a lagging driver-side epoch is caught
    /// by the server-side rejection and [`PlanCache::purge_stale`].
    pub fn plan<M: MetadataApi>(
        &self,
        translator: &Translator<M>,
        sql: &str,
        options: TranslationOptions,
    ) -> Result<(BoundPlan, Lookup), TranslateError> {
        self.plan_with(translator, sql, options, None)
    }

    /// [`PlanCache::plan`] with an optional rewrite engine: every plan
    /// *built* by this call (bypass, miss, or fallback — never a cache
    /// hit, which is already optimized) runs through `optimizer` when
    /// `options.optimize` asks for it, and the cached entry holds the
    /// optimized program plus its [`RewriteTrace`]. Re-optimization after
    /// epoch invalidation happens exactly once per rebuild, on the same
    /// build path.
    pub fn plan_with<M: MetadataApi>(
        &self,
        translator: &Translator<M>,
        sql: &str,
        options: TranslationOptions,
        optimizer: Option<&dyn QueryOptimizer>,
    ) -> Result<(BoundPlan, Lookup), TranslateError> {
        if sql.len() > DEFAULT_STATEMENT_CAP {
            // Oversized statement: translate without touching the store,
            // so it can neither evict warm plans nor pin a megabyte of
            // text in a shard.
            self.oversize_bypasses.fetch_add(1, Ordering::Relaxed);
            let full = translator.translate_full(sql, options)?;
            let bound = BoundPlan {
                plan: Arc::new(Self::finish_plan(full, sql, None, options, optimizer)),
                literal_args: Vec::new().into(),
            };
            return Ok((bound, Lookup::Bypass));
        }

        let epoch = translator.metadata().epoch();
        if let Some(bound) = self.lookup_exact(sql, options, epoch) {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((bound, Lookup::ExactHit));
        }

        let parsed = stage1::parse(sql)?;
        let norm = normalize(&parsed.query, parsed.parameter_count);
        if let Some(plan) = self.lookup_plan(&norm.canonical_sql, options, epoch) {
            self.normalized_hits.fetch_add(1, Ordering::Relaxed);
            let bound = BoundPlan {
                plan,
                literal_args: norm.literal_args.into(),
            };
            self.insert_exact(sql, options, &bound);
            return Ok((bound, Lookup::NormalizedHit));
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = self.build_normalized(translator, &norm, options, optimizer) {
            let plan = Arc::new(plan);
            self.insert_plan(&plan);
            let bound = BoundPlan {
                plan,
                literal_args: norm.literal_args.into(),
            };
            self.insert_exact(sql, options, &bound);
            return Ok((bound, Lookup::Translated));
        }

        // The normalized form would not translate (or its re-parse broke
        // the marker/slot invariant): translate the original text as-is
        // and cache it under the exact key only. A failure here is the
        // statement's own error and surfaces unchanged.
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        let full = translator.translate_parsed(&parsed, options)?;
        let bound = BoundPlan {
            plan: Arc::new(Self::finish_plan(full, sql, None, options, optimizer)),
            literal_args: Vec::new().into(),
        };
        self.insert_exact(sql, options, &bound);
        Ok((bound, Lookup::Fallback))
    }

    /// Translates the canonical text, verifying the normalizer's ordinal
    /// discipline: the re-parsed marker count must equal the slot count.
    fn build_normalized<M: MetadataApi>(
        &self,
        translator: &Translator<M>,
        norm: &NormalizedStatement,
        options: TranslationOptions,
        optimizer: Option<&dyn QueryOptimizer>,
    ) -> Option<CachedPlan> {
        let reparsed = stage1::parse(&norm.canonical_sql).ok()?;
        if reparsed.parameter_count != norm.slots.len() {
            return None;
        }
        let full = translator.translate_parsed(&reparsed, options).ok()?;
        Some(Self::finish_plan(
            full,
            &norm.canonical_sql,
            Some(norm),
            options,
            optimizer,
        ))
    }

    /// The one place a [`CachedPlan`] is made: runs the rewrite engine
    /// over the fresh translation of `canonical_sql` and packages it.
    /// With `norm`, the plan binds the normalizer's slots (user markers
    /// and extracted literals); without, the text was translated as
    /// written and every `$sqlParam` is a user marker.
    fn finish_plan(
        mut full: FullTranslation,
        canonical_sql: &str,
        norm: Option<&NormalizedStatement>,
        options: TranslationOptions,
        optimizer: Option<&dyn QueryOptimizer>,
    ) -> CachedPlan {
        let rewrite = optimize_full(&mut full, options, optimizer);
        let (slots, user_param_count) = match norm {
            Some(norm) => (norm.slots.clone(), norm.user_param_count),
            None => {
                let markers = full.translation.parameter_count;
                ((0..markers).map(ParamSlot::User).collect(), markers)
            }
        };
        CachedPlan {
            canonical_sql: canonical_sql.to_string(),
            options,
            slots,
            user_param_count,
            normalized: norm.is_some(),
            translation: full.translation,
            prepared: full.prepared,
            rewrite,
        }
    }

    /// Exact-level lookup (no parsing). Drops and reports entries whose
    /// epoch tag mismatches `current_epoch`.
    pub fn lookup_exact(
        &self,
        sql: &str,
        options: TranslationOptions,
        current_epoch: u64,
    ) -> Option<BoundPlan> {
        let key = Key {
            sql: sql.to_string(),
            options,
        };
        let shard = self.shard_for(&key);
        {
            let guard = shard.read();
            let entry = guard.exact.get(&key)?;
            if entry.plan.translation.metadata_epoch == current_epoch {
                entry.last_used.store(self.next_tick(), Ordering::Relaxed);
                return Some(BoundPlan {
                    plan: Arc::clone(&entry.plan),
                    literal_args: Arc::clone(&entry.literal_args),
                });
            }
        }
        // Stale tag: upgrade to a write lock and drop the entry (and its
        // shared plan, which carries the same tag).
        let mut guard = shard.write();
        if let Some(entry) = guard.exact.get(&key) {
            if entry.plan.translation.metadata_epoch != current_epoch {
                let canonical = entry.plan.canonical_sql.clone();
                guard.exact.remove(&key);
                self.epoch_invalidations.fetch_add(1, Ordering::Relaxed);
                drop(guard);
                self.remove_plan(&canonical, options);
            }
        }
        None
    }

    /// Plan-level (canonical text) lookup, with the same epoch discipline.
    pub fn lookup_plan(
        &self,
        canonical_sql: &str,
        options: TranslationOptions,
        current_epoch: u64,
    ) -> Option<Arc<CachedPlan>> {
        let key = Key {
            sql: canonical_sql.to_string(),
            options,
        };
        let shard = self.shard_for(&key);
        {
            let guard = shard.read();
            let entry = guard.plans.get(&key)?;
            if entry.plan.translation.metadata_epoch == current_epoch {
                entry.last_used.store(self.next_tick(), Ordering::Relaxed);
                return Some(Arc::clone(&entry.plan));
            }
        }
        let mut guard = shard.write();
        if let Some(entry) = guard.plans.get(&key) {
            if entry.plan.translation.metadata_epoch != current_epoch {
                guard.plans.remove(&key);
                self.epoch_invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        None
    }

    /// Sweeps every shard, dropping all entries whose epoch tag differs
    /// from `current_epoch` (e.g. after a catalog reload).
    pub fn purge_stale(&self, current_epoch: u64) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut guard = shard.write();
            let before = guard.exact.len() + guard.plans.len();
            guard
                .exact
                .retain(|_, e| e.plan.translation.metadata_epoch == current_epoch);
            guard
                .plans
                .retain(|_, e| e.plan.translation.metadata_epoch == current_epoch);
            dropped += before - (guard.exact.len() + guard.plans.len());
        }
        self.epoch_invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Empties the cache (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.write();
            guard.exact.clear();
            guard.plans.clear();
        }
    }

    /// `(exact_entries, plan_entries)` across all shards.
    pub fn len(&self) -> (usize, usize) {
        let mut exact = 0;
        let mut plans = 0;
        for shard in &self.shards {
            let guard = shard.read();
            exact += guard.exact.len();
            plans += guard.plans.len();
        }
        (exact, plans)
    }

    /// True when both levels are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            normalized_hits: self.normalized_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epoch_invalidations: self.epoch_invalidations.load(Ordering::Relaxed),
            oversize_bypasses: self.oversize_bypasses.load(Ordering::Relaxed),
        }
    }

    fn insert_exact(&self, sql: &str, options: TranslationOptions, bound: &BoundPlan) {
        let key = Key {
            sql: sql.to_string(),
            options,
        };
        let tick = self.next_tick();
        let mut guard = self.shard_for(&key).write();
        if !guard.exact.contains_key(&key) && guard.exact.len() >= self.shard_capacity {
            if let Some(victim) = min_by_tick(guard.exact.iter().map(|(k, e)| (k, &e.last_used))) {
                guard.exact.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        guard.exact.insert(
            key,
            ExactEntry {
                plan: Arc::clone(&bound.plan),
                literal_args: Arc::clone(&bound.literal_args),
                last_used: AtomicU64::new(tick),
            },
        );
    }

    fn insert_plan(&self, plan: &Arc<CachedPlan>) {
        let key = Key {
            sql: plan.canonical_sql.clone(),
            options: plan.options,
        };
        let tick = self.next_tick();
        let mut guard = self.shard_for(&key).write();
        if !guard.plans.contains_key(&key) && guard.plans.len() >= self.shard_capacity {
            if let Some(victim) = min_by_tick(guard.plans.iter().map(|(k, e)| (k, &e.last_used))) {
                guard.plans.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        guard.plans.insert(
            key,
            PlanEntry {
                plan: Arc::clone(plan),
                last_used: AtomicU64::new(tick),
            },
        );
    }

    fn remove_plan(&self, canonical_sql: &str, options: TranslationOptions) {
        let key = Key {
            sql: canonical_sql.to_string(),
            options,
        };
        if self.shard_for(&key).write().plans.remove(&key).is_some() {
            self.epoch_invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn shard_for(&self, key: &Key) -> &RwLock<Shard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let index = (hasher.finish() as usize) % self.shards.len();
        &self.shards[index]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }
}

/// Runs the rewrite engine over a freshly built translation, replacing
/// the program text in place. `None` when no engine was supplied or the
/// options keep optimization off — the distinction the `rewrite` field
/// of [`CachedPlan`] preserves.
fn optimize_full(
    full: &mut FullTranslation,
    options: TranslationOptions,
    optimizer: Option<&dyn QueryOptimizer>,
) -> Option<RewriteTrace> {
    let optimizer = optimizer?;
    if options.optimize == OptimizeLevel::Off {
        return None;
    }
    let outcome = optimizer.optimize(&full.prepared, &full.translation.xquery, options);
    full.translation.xquery = outcome.xquery;
    Some(outcome.trace)
}

fn min_by_tick<'a>(entries: impl Iterator<Item = (&'a Key, &'a AtomicU64)>) -> Option<Key> {
    entries
        .min_by_key(|(_, tick)| tick.load(Ordering::Relaxed))
        .map(|(key, _)| key.clone())
}
