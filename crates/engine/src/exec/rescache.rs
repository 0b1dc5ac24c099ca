//! The versioned result cache: executed plan results keyed by plan
//! fingerprint, table *version* set, and planner configuration.
//!
//! The paper's central property — an ongoing query result stays valid as
//! time passes by — means a result computed against a given set of table
//! versions serves **every** later request at any reference time, until a
//! table is modified. Versions compare in O(1): a publication swaps the
//! table's `Arc`, so an entry is valid exactly when every `Weak<Table>` it
//! pinned still upgrades to the `Arc` the incoming plan embeds.
//! Invalidation is therefore free *by construction* — stale entries simply
//! stop being hit and age out under the budget.
//!
//! Eviction is GreedyDual-Size with Frequency (GDSF, the TRexRewrite
//! `gdfs_cache` style): each entry carries `H = L + freq × cost / size`
//! where `cost` is the deterministic work units the result took to compute
//! and `L` is an inflation floor raised to each victim's `H` — cheap,
//! large, rarely-hit entries go first, and long-idle entries eventually
//! fall below fresh ones no matter how expensive they were. Ties break on
//! the smallest key, so eviction order is deterministic. An ordered index
//! of `(H, key)` beside the entry map yields each victim in O(log n).
//!
//! A hit returns a shallow copy-on-write fork of the cached relation
//! *plus the stored [`ExecStats`]* — callers fold the same per-query
//! metrics whether the cache answered or the executor did, so every
//! deterministic work-unit assertion in the test suite holds with the
//! cache on or off. The budget comes from
//! [`RESULT_CACHE_BUDGET_ENV`] (bytes; `0` disables caching entirely).

use crate::catalog::Table;
use crate::exec::ExecStats;
use crate::obs::{EngineEvent, Obs};
use crate::plan::{PhysicalPlan, PlannerConfig};
use ongoing_relation::{OngoingRelation, PagerError, Tuple, Value};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, Weak};

/// Environment variable setting the per-database result-cache budget in
/// bytes (estimated). `0` disables the cache; unset uses
/// [`DEFAULT_RESULT_CACHE_BUDGET`].
pub const RESULT_CACHE_BUDGET_ENV: &str = "ONGOINGDB_RESULT_CACHE_BUDGET";

/// Default result-cache budget: 64 MiB of estimated result bytes.
pub const DEFAULT_RESULT_CACHE_BUDGET: u64 = 64 * 1024 * 1024;

/// Metric counting result-cache hits.
pub const RESULT_CACHE_HITS_METRIC: &str = "ongoingdb_result_cache_hits";
/// Metric counting result-cache misses (absent or stale-version entries).
pub const RESULT_CACHE_MISSES_METRIC: &str = "ongoingdb_result_cache_misses";
/// Metric counting GDSF evictions.
pub const RESULT_CACHE_EVICTIONS_METRIC: &str = "ongoingdb_result_cache_evictions";
/// Gauge tracking the estimated resident bytes of cached results.
pub const RESULT_CACHE_BYTES_METRIC: &str = "ongoingdb_result_cache_bytes";

/// One cached result plus everything needed to validate and rank it.
#[derive(Debug)]
struct Entry {
    /// The exact table versions the result was computed against, held
    /// weakly so the cache never keeps a superseded version alive.
    deps: Vec<Weak<Table>>,
    rel: OngoingRelation,
    stats: ExecStats,
    bytes: u64,
    /// Deterministic work units the result cost to compute.
    cost: f64,
    freq: u64,
    /// GDSF rank `L + freq × cost / bytes`.
    h: f64,
}

/// An entry's GDSF rank `H`, finite and ≥ 0, so `total_cmp` orders it.
#[derive(Debug, Clone, Copy)]
struct Rank(f64);

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<Arc<str>, Entry>,
    /// Every entry's `(H, key)`: the first is the next victim.
    ranks: BTreeSet<(Rank, Arc<str>)>,
    bytes: u64,
    /// The GDSF inflation floor: raised to each victim's `H`.
    l: f64,
}

impl Inner {
    /// Removes `key`'s entry and its rank, releasing its bytes.
    fn take(&mut self, key: &str) -> Option<(Arc<str>, Entry)> {
        let (key, e) = self.entries.remove_entry(key)?;
        self.ranks.remove(&(Rank(e.h), Arc::clone(&key)));
        self.bytes -= e.bytes;
        Some((key, e))
    }

    /// Adds `e` under `key`, ranked by its `H`.
    fn put(&mut self, key: Arc<str>, e: Entry) {
        self.ranks.insert((Rank(e.h), Arc::clone(&key)));
        self.bytes += e.bytes;
        self.entries.insert(key, e);
    }
}

/// A per-database versioned result cache — see the [module docs](self).
#[derive(Debug)]
pub struct ResultCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::from_env()
    }
}

impl ResultCache {
    /// A cache budgeted by [`RESULT_CACHE_BUDGET_ENV`] (default
    /// [`DEFAULT_RESULT_CACHE_BUDGET`]; `0` disables).
    pub fn from_env() -> Self {
        let budget = crate::env_setting(RESULT_CACHE_BUDGET_ENV);
        ResultCache::with_budget(budget.unwrap_or(DEFAULT_RESULT_CACHE_BUDGET))
    }

    /// A cache with an explicit byte budget (`0` disables).
    pub fn with_budget(budget: u64) -> Self {
        ResultCache {
            budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured byte budget (`0` = disabled).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Estimated bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Cached entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Drops every entry (the budget is kept).
    pub fn clear(&self) {
        let mut g = self.lock();
        g.entries.clear();
        g.ranks.clear();
        g.bytes = 0;
    }

    /// The resident keys, ascending.
    #[cfg(test)]
    fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.lock().entries.keys().map(|k| k.to_string()).collect();
        keys.sort();
        keys
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic mid-insert leaves at worst a consistent-but-partial
        // cache; recover rather than brick every future lookup.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `key` up and validates the entry against the table versions
    /// the incoming plan embeds (`deps`, in [`plan_tables`] order). A
    /// valid entry bumps its frequency and returns a shallow fork of the
    /// result plus the stored stats; a stale entry is dropped and counts
    /// as a miss.
    pub(crate) fn lookup(
        &self,
        key: &str,
        deps: &[Arc<Table>],
        obs: &Obs,
    ) -> Option<(OngoingRelation, ExecStats)> {
        if self.budget == 0 {
            return None;
        }
        let mut g = self.lock();
        match g.take(key) {
            Some((key, mut e)) if deps_valid(&e.deps, deps) => {
                e.freq += 1;
                e.h = g.l + (e.freq as f64) * e.cost / e.bytes.max(1) as f64;
                let hit = (e.rel.clone(), e.stats);
                g.put(key, e);
                obs.metrics.counter(RESULT_CACHE_HITS_METRIC).inc();
                return Some(hit);
            }
            Some(_) => obs.metrics.gauge(RESULT_CACHE_BYTES_METRIC).set(g.bytes),
            None => {}
        }
        obs.metrics.counter(RESULT_CACHE_MISSES_METRIC).inc();
        None
    }

    /// Inserts a freshly computed result, evicting by GDSF rank until the
    /// budget holds. Oversized results (estimated bytes above the whole
    /// budget) are not cached, nor is a result whose cold chunks fail to
    /// page in while it is measured.
    pub(crate) fn insert(
        &self,
        key: String,
        deps: Vec<Weak<Table>>,
        rel: &OngoingRelation,
        stats: ExecStats,
        obs: &Obs,
    ) {
        if self.budget == 0 {
            return;
        }
        let Ok(bytes) = estimate_relation_bytes(rel) else {
            return;
        };
        if bytes > self.budget {
            return;
        }
        let cost = stats.total_work() as f64;
        let mut g = self.lock();
        g.take(&key);
        while g.bytes + bytes > self.budget {
            // Deterministic victim: minimum H, ties on the smallest key.
            let Some((_, victim)) = g.ranks.first() else {
                break;
            };
            let victim = Arc::clone(victim);
            let (_, e) = g.take(&victim).expect("a ranked entry is present");
            g.l = g.l.max(e.h);
            obs.metrics.counter(RESULT_CACHE_EVICTIONS_METRIC).inc();
            obs.events.record(EngineEvent::ResultCacheEviction {
                bytes: e.bytes,
                cost: e.cost as u64,
            });
        }
        let h = g.l + cost / bytes.max(1) as f64;
        let e = Entry {
            deps,
            rel: rel.clone(),
            stats,
            bytes,
            cost,
            freq: 1,
            h,
        };
        g.put(key.into(), e);
        obs.metrics.gauge(RESULT_CACHE_BYTES_METRIC).set(g.bytes);
    }
}

/// Each stored weak dep must upgrade to the **same** `Arc<Table>` the
/// incoming plan embeds — `Arc::ptr_eq`, so a publication (which swaps the
/// `Arc`) invalidates in O(#tables) with no registration anywhere.
fn deps_valid(stored: &[Weak<Table>], current: &[Arc<Table>]) -> bool {
    stored.len() == current.len()
        && stored
            .iter()
            .zip(current)
            .all(|(w, c)| w.upgrade().is_some_and(|t| Arc::ptr_eq(&t, c)))
}

/// The table versions a compiled plan reads, in deterministic pre-order —
/// the dependency set a cached result is validated against.
pub(crate) fn plan_tables(plan: &PhysicalPlan) -> Vec<Arc<Table>> {
    fn walk(p: &PhysicalPlan, out: &mut Vec<Arc<Table>>) {
        match p {
            PhysicalPlan::SeqScan { table, .. } | PhysicalPlan::KeyScan { table, .. } => {
                out.push(Arc::clone(table))
            }
            _ => {}
        }
        for c in p.inputs() {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// A structural fingerprint of `(plan, cfg)` — the cache key. Renders the
/// full content of every operator (predicates, projection items, keys,
/// aggregates, schemas) so distinct plans cannot collide; table *names*
/// identify which tables are read, while the *versions* live in the entry's
/// dependency set, so a republished table reuses its key and the refreshed
/// result simply replaces the stale entry.
pub(crate) fn plan_fingerprint(plan: &PhysicalPlan, cfg: &PlannerConfig) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "cfg={cfg:?};");
    node_fingerprint(plan, &mut out);
    out
}

fn node_fingerprint(p: &PhysicalPlan, out: &mut String) {
    // `node_line` renders every operator's own content except projections
    // and aggregates, which it abbreviates for EXPLAIN readability — spell
    // those out, and add the leaf schemas (scan-level renames change the
    // result schema without changing any operator line).
    match p {
        PhysicalPlan::SeqScan { schema, .. } | PhysicalPlan::KeyScan { schema, .. } => {
            let _ = write!(out, "{} [{schema:?}]", p.node_line());
        }
        PhysicalPlan::Project { items, schema, .. } => {
            let _ = write!(out, "Project {items:?} [{schema:?}]");
        }
        PhysicalPlan::Aggregate {
            group_cols,
            aggs,
            schema,
            ..
        } => {
            let _ = write!(out, "Aggregate by {group_cols:?} {aggs:?} [{schema:?}]");
        }
        _ => out.push_str(&p.node_line()),
    }
    let children = p.inputs();
    if !children.is_empty() {
        out.push('(');
        for (i, c) in children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            node_fingerprint(c, out);
        }
        out.push(')');
    }
}

/// Deterministic estimate of a relation's resident bytes — tuple and
/// payload overheads plus per-value sizes. An estimate (interval-set
/// payloads are charged flat), but stable across runs, which is what the
/// budget accounting needs. A result that is a fork of a cold table (a
/// bare scan) is read one transient chunk pin at a time, so measuring it
/// leaves it cold.
pub(crate) fn estimate_relation_bytes(rel: &OngoingRelation) -> Result<u64, PagerError> {
    let mut total = 256u64; // relation + store + schema overhead
    for view in rel.lazy_views() {
        total += view.pin()?.iter().map(estimate_tuple_bytes).sum::<u64>();
    }
    Ok(total)
}

fn estimate_tuple_bytes(t: &Tuple) -> u64 {
    // Tuple struct + values Arc header + reference-time interval set.
    let mut total = 64u64;
    for v in t.values() {
        total += match v {
            Value::Int(_) | Value::Bool(_) | Value::Time(_) => 16,
            Value::Span(_, _) => 24,
            Value::Str(s) => 24 + s.len() as u64,
            Value::Point(_) => 32,
            Value::Interval(_) => 48,
            Value::Count(_) => 64,
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use ongoing_relation::{Schema, Value};

    fn db_with_table(rows: i64) -> Database {
        let db = Database::new();
        let mut r = OngoingRelation::new(Schema::builder().int("A").str("B").build());
        for i in 0..rows {
            r.insert(vec![Value::Int(i), Value::str("x")]).unwrap();
        }
        db.create_table("T", r).unwrap();
        db
    }

    fn plan_for(db: &Database) -> PhysicalPlan {
        PhysicalPlan::SeqScan {
            table: db.table("T").unwrap(),
            schema: db.table("T").unwrap().data().schema().clone(),
        }
    }

    #[test]
    fn hit_returns_the_cached_result_and_stats() {
        let db = db_with_table(10);
        let cache = ResultCache::with_budget(1 << 20);
        let obs = Obs::default();
        let plan = plan_for(&db);
        let key = plan_fingerprint(&plan, &PlannerConfig::default());
        let deps = plan_tables(&plan);
        assert!(cache.lookup(&key, &deps, &obs).is_none());
        let (rel, _) = plan
            .execute_with_stats(&crate::ExecContext::from_env())
            .unwrap();
        let stats = ExecStats {
            tuples_scanned: 10,
            ..ExecStats::default()
        };
        cache.insert(
            key.clone(),
            deps.iter().map(Arc::downgrade).collect(),
            &rel,
            stats,
            &obs,
        );
        let (cached, cached_stats) = cache.lookup(&key, &deps, &obs).unwrap();
        assert_eq!(cached.len(), rel.len());
        assert_eq!(cached_stats, stats);
        assert_eq!(obs.metrics.counter(RESULT_CACHE_HITS_METRIC).get(), 1);
        assert_eq!(obs.metrics.counter(RESULT_CACHE_MISSES_METRIC).get(), 1);
    }

    #[test]
    fn publication_invalidates_by_version_identity() {
        let db = db_with_table(10);
        let cache = ResultCache::with_budget(1 << 20);
        let obs = Obs::default();
        let plan = plan_for(&db);
        let key = plan_fingerprint(&plan, &PlannerConfig::default());
        let deps = plan_tables(&plan);
        let (rel, _) = plan
            .execute_with_stats(&crate::ExecContext::from_env())
            .unwrap();
        cache.insert(
            key.clone(),
            deps.iter().map(Arc::downgrade).collect(),
            &rel,
            ExecStats::default(),
            &obs,
        );
        // Publish a new version: the table Arc swaps, the entry goes stale.
        db.modify_table("T", |r| {
            r.insert(vec![Value::Int(99), Value::str("y")])?;
            Ok(())
        })
        .unwrap();
        let new_plan = plan_for(&db);
        let new_deps = plan_tables(&new_plan);
        assert!(cache.lookup(&key, &new_deps, &obs).is_none());
        // The stale entry was dropped, not just skipped.
        assert!(cache.is_empty());
    }

    #[test]
    fn gdsf_evicts_cheap_low_frequency_entries_first() {
        let db = db_with_table(100);
        let obs = Obs::default();
        let plan = plan_for(&db);
        let deps = plan_tables(&plan);
        let weak = || deps.iter().map(Arc::downgrade).collect::<Vec<_>>();
        let (rel, _) = plan
            .execute_with_stats(&crate::ExecContext::from_env())
            .unwrap();
        let one = estimate_relation_bytes(&rel).unwrap();
        // Room for two entries, not three.
        let cache = ResultCache::with_budget(one * 2 + 256);
        let stats = |work: u64| ExecStats {
            tuples_scanned: work,
            ..ExecStats::default()
        };
        cache.insert("a".into(), weak(), &rel, stats(10), &obs);
        cache.insert("b".into(), weak(), &rel, stats(10_000), &obs);
        // Hit "a" twice so frequency outranks cost-per-byte for it...
        // (freq 3 × 10 / size still < 1 × 10_000 / size, so "a" is the
        // cheaper victim despite its hits).
        cache.lookup("a", &deps, &obs);
        cache.lookup("a", &deps, &obs);
        cache.insert("c".into(), weak(), &rel, stats(5_000), &obs);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup("a", &deps, &obs).is_none(),
            "cheap entry evicted"
        );
        assert!(cache.lookup("b", &deps, &obs).is_some());
        assert!(cache.lookup("c", &deps, &obs).is_some());
        assert_eq!(obs.metrics.counter(RESULT_CACHE_EVICTIONS_METRIC).get(), 1);
        assert!(cache.resident_bytes() <= cache.budget());
    }

    /// GDSF replayed with a full scan for each victim: `(H, freq, cost)`
    /// per key, every entry `bytes` large.
    struct Reference {
        entries: std::collections::BTreeMap<String, (f64, u64, f64)>,
        l: f64,
    }

    impl Reference {
        fn lookup(&mut self, key: &str, bytes: u64) {
            if let Some((h, freq, cost)) = self.entries.get_mut(key) {
                *freq += 1;
                *h = self.l + (*freq as f64) * *cost / bytes as f64;
            }
        }

        fn insert(&mut self, key: &str, cost: f64, bytes: u64, room: usize) {
            self.entries.remove(key);
            while self.entries.len() >= room {
                let (victim, h) = self
                    .entries
                    .iter()
                    .map(|(k, &(h, _, _))| (k.clone(), h))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
                    .expect("a full cache has entries");
                self.entries.remove(&victim);
                self.l = self.l.max(h);
            }
            let h = self.l + cost / bytes as f64;
            self.entries.insert(key.to_string(), (h, 1, cost));
        }
    }

    /// Many entries tie on `H` (equal sizes, two costs): the ordered
    /// index must pick the full scan's victim every time — minimum `H`,
    /// ties to the smallest key.
    #[test]
    fn eviction_matches_a_full_scan_reference_through_ties() {
        let db = db_with_table(20);
        let obs = Obs::default();
        let plan = plan_for(&db);
        let deps = plan_tables(&plan);
        let (rel, _) = plan
            .execute_with_stats(&crate::ExecContext::from_env())
            .unwrap();
        let one = estimate_relation_bytes(&rel).unwrap();
        let room = 4;
        let cache = ResultCache::with_budget(one * room as u64 + one / 2);
        let mut reference = Reference {
            entries: Default::default(),
            l: 0.0,
        };
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for step in 0..2_000 {
            let key = format!("k{}", next(12));
            if next(3) == 0 {
                let cost = [10, 20][next(2) as usize];
                let stats = ExecStats {
                    tuples_scanned: cost,
                    ..ExecStats::default()
                };
                let weak = deps.iter().map(Arc::downgrade).collect();
                cache.insert(key.clone(), weak, &rel, stats, &obs);
                reference.insert(&key, cost as f64, one, room);
            } else {
                let hit = cache.lookup(&key, &deps, &obs).is_some();
                assert_eq!(hit, reference.entries.contains_key(&key), "step {step}");
                reference.lookup(&key, one);
            }
            let want: Vec<String> = reference.entries.keys().cloned().collect();
            assert_eq!(cache.keys(), want, "step {step}");
        }
        assert!(obs.metrics.counter(RESULT_CACHE_EVICTIONS_METRIC).get() > 100);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let db = db_with_table(5);
        let cache = ResultCache::with_budget(0);
        let obs = Obs::default();
        let plan = plan_for(&db);
        let key = plan_fingerprint(&plan, &PlannerConfig::default());
        let deps = plan_tables(&plan);
        let (rel, _) = plan
            .execute_with_stats(&crate::ExecContext::from_env())
            .unwrap();
        cache.insert(
            key.clone(),
            deps.iter().map(Arc::downgrade).collect(),
            &rel,
            ExecStats::default(),
            &obs,
        );
        assert!(cache.lookup(&key, &deps, &obs).is_none());
        assert_eq!(cache.len(), 0);
        // Disabled means *no* cache traffic is counted either.
        assert_eq!(obs.metrics.counter(RESULT_CACHE_MISSES_METRIC).get(), 0);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let db = db_with_table(5);
        let plan = plan_for(&db);
        let a = plan_fingerprint(&plan, &PlannerConfig::default());
        let b = plan_fingerprint(
            &plan,
            &PlannerConfig {
                parallelism: 2,
                ..PlannerConfig::default()
            },
        );
        assert_ne!(a, b);
    }
}
