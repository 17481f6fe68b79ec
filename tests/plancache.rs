//! Plan-cache integration tests: normalization sharing, lookup
//! classification, parameter interleaving, eviction, and misuse errors,
//! all through the real driver stack.

use aldsp_core::TranslationOptions;
use aldsp_driver::{Connection, DriverError, DspServer};
use aldsp_plancache::{Lookup, PlanCache};
use aldsp_relational::SqlValue;
use aldsp_workload::{build_application, populate_database, Scale};
use std::sync::Arc;

fn server() -> Arc<DspServer> {
    let app = build_application();
    let db = populate_database(&app, Scale::small(), 42);
    Arc::new(DspServer::new(app, db))
}

fn open(cache: &Arc<PlanCache>) -> Connection {
    Connection::open_with_cache(server(), TranslationOptions::default(), Arc::clone(cache))
}

#[test]
fn literal_variants_share_one_normalized_plan() {
    let cache = Arc::new(PlanCache::default());
    let conn = open(&cache);

    let (_, first) = cache
        .plan(
            conn.translator(),
            "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 5",
            TranslationOptions::default(),
        )
        .unwrap();
    assert_eq!(first, Lookup::Translated);

    // Same text again: exact hit, no parse.
    let (_, again) = cache
        .plan(
            conn.translator(),
            "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 5",
            TranslationOptions::default(),
        )
        .unwrap();
    assert_eq!(again, Lookup::ExactHit);

    // A literal-differing sibling: parses, then lands on the shared
    // normalized plan.
    let (bound, sibling) = cache
        .plan(
            conn.translator(),
            "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 9",
            TranslationOptions::default(),
        )
        .unwrap();
    assert_eq!(sibling, Lookup::NormalizedHit);
    assert!(bound.plan.normalized);
    assert_eq!(bound.literal_args.as_ref(), &[SqlValue::Int(9)]);

    let stats = cache.stats();
    assert_eq!(stats.exact_hits, 1);
    assert_eq!(stats.normalized_hits, 1);
    assert_eq!(stats.misses, 1);
    // One shared plan, two exact-text entries.
    let (exact, plans) = cache.len();
    assert_eq!(plans, 1);
    assert_eq!(exact, 2);
}

#[test]
fn literal_variants_return_their_own_rows() {
    let cache = Arc::new(PlanCache::default());
    let conn = open(&cache);
    let fresh = Connection::open(Arc::clone(conn.server()));

    for threshold in [2, 7, 11, 7, 2] {
        let sql =
            format!("SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID > {threshold} ORDER BY CUSTOMERID");
        let cached_rows = conn.execute_cached(&sql, &[]).unwrap();
        let fresh_rows = fresh.create_statement().execute_query(&sql).unwrap();
        assert_eq!(
            cached_rows.rows(),
            fresh_rows.rows(),
            "cached and fresh rows differ at threshold {threshold}"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "{stats:#?}");
    assert!(stats.hits() >= 4, "{stats:#?}");
}

#[test]
fn user_markers_interleave_with_extracted_literals() {
    let cache = Arc::new(PlanCache::default());
    let conn = open(&cache);
    let fresh = Connection::open(Arc::clone(conn.server()));

    // One user `?` after an extracted literal: slot order is render
    // order, so the binding must interleave them correctly.
    let sql = "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 3 AND CUSTOMERID < ? \
               ORDER BY CUSTOMERID";
    let cached = conn.execute_cached(sql, &[SqlValue::Int(9)]).unwrap();
    let oracle = fresh.execute_cached(sql, &[SqlValue::Int(9)]).unwrap();
    assert_eq!(cached.rows(), oracle.rows());
    assert!(!cached.rows().is_empty());

    // Same plan, different user argument and different literal.
    let sibling = "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 5 AND CUSTOMERID < ? \
                   ORDER BY CUSTOMERID";
    let cached = conn.execute_cached(sibling, &[SqlValue::Int(12)]).unwrap();
    let oracle = fresh.execute_cached(sibling, &[SqlValue::Int(12)]).unwrap();
    assert_eq!(cached.rows(), oracle.rows());
    assert_eq!(cache.stats().normalized_hits, 1);
}

#[test]
fn wrong_user_parameter_count_is_a_usage_error() {
    let cache = Arc::new(PlanCache::default());
    let conn = open(&cache);
    let sql = "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?";
    let err = conn.execute_cached(sql, &[]).unwrap_err();
    assert!(matches!(err, DriverError::Usage(_)), "{err}");
    let err = conn
        .execute_cached(sql, &[SqlValue::Int(1), SqlValue::Int(2)])
        .unwrap_err();
    assert!(matches!(err, DriverError::Usage(_)), "{err}");
}

#[test]
fn shard_capacity_bounds_the_cache_and_counts_evictions() {
    // One shard, two entries: the third distinct plan must evict.
    let cache = Arc::new(PlanCache::new(1, 2));
    let conn = open(&cache);
    for (i, sql) in [
        "SELECT CUSTOMERID FROM CUSTOMERS",
        "SELECT CUSTOMERNAME FROM CUSTOMERS",
        "SELECT ORDERID FROM ORDERS",
        "SELECT AMOUNT FROM ORDERS",
    ]
    .iter()
    .enumerate()
    {
        conn.execute_cached(sql, &[])
            .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
    }
    let (exact, plans) = cache.len();
    assert!(exact <= 2, "exact map exceeded capacity: {exact}");
    assert!(plans <= 2, "plan map exceeded capacity: {plans}");
    assert!(cache.stats().evictions > 0);

    // Evicted plans re-translate and still execute correctly.
    let rs = conn
        .execute_cached("SELECT CUSTOMERID FROM CUSTOMERS", &[])
        .unwrap();
    assert!(!rs.rows().is_empty());
}

#[test]
fn transports_do_not_share_cache_entries() {
    let cache = Arc::new(PlanCache::default());
    let server = server();
    let text = Connection::open_with_cache(
        Arc::clone(&server),
        TranslationOptions::with_transport(aldsp_core::Transport::DelimitedText),
        Arc::clone(&cache),
    );
    let xml = Connection::open_with_cache(
        Arc::clone(&server),
        TranslationOptions::with_transport(aldsp_core::Transport::Xml),
        Arc::clone(&cache),
    );
    let sql = "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID";
    let a = text.execute_cached(sql, &[]).unwrap();
    let b = xml.execute_cached(sql, &[]).unwrap();
    assert_eq!(a.rows(), b.rows());
    // Two distinct keys (same SQL, different transport): both were
    // misses, neither hit the other's entry.
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().hits(), 0);
}

/// The statement-size guard rejects outside input, so it is tested from
/// outside: a valid statement padded past the cap is translated and
/// answered, but never stored — it cannot evict a shard of warm plans.
#[test]
fn oversized_statement_bypasses_the_cache_and_still_answers() {
    use aldsp_plancache::DEFAULT_STATEMENT_CAP;

    let cache = Arc::new(PlanCache::default());
    let conn = open(&cache);
    conn.execute_cached("SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 5", &[])
        .unwrap();
    let warm = cache.len();
    assert_ne!(warm, (0, 0));

    let sql = format!(
        "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID > 3 ORDER BY CUSTOMERID{}",
        " ".repeat(DEFAULT_STATEMENT_CAP)
    );
    let (_, lookup) = cache
        .plan_with(conn.translator(), &sql, TranslationOptions::default(), None)
        .unwrap();
    assert_eq!(lookup, Lookup::Bypass);
    assert_eq!(cache.stats().oversize_bypasses, 1);
    assert_eq!(cache.len(), warm);

    let rows = conn.execute_cached(&sql, &[]).unwrap();
    let oracle = aldsp_relational::execute_query(
        &conn.server().database(),
        &aldsp_sql::parse_select(&sql).unwrap(),
        &[],
    )
    .unwrap();
    assert!(!oracle.rows.is_empty());
    aldsp_workload::compare_results(rows.rows(), &oracle, true).unwrap();
    assert_eq!(cache.stats().oversize_bypasses, 2);
    assert_eq!(cache.len(), warm);
}

/// The cache's reason to exist, over the paper's worked examples against
/// a warm metadata cache: a repeated text is an exact hit, and the fastest
/// of its exact hits is at least 5× faster than the fastest of its cold
/// plans (the cache cleared before each). The fastest of several, not a
/// mean, so that a busy machine does not decide the verdict.
#[test]
fn exact_hits_are_at_least_five_times_faster_than_cold_plans() {
    use std::time::{Duration, Instant};

    const RUNS: usize = 20;
    let fastest = |f: &mut dyn FnMut()| -> Duration {
        (0..RUNS)
            .map(|_| {
                let started = Instant::now();
                f();
                started.elapsed()
            })
            .min()
            .unwrap()
    };
    let cache = Arc::new(PlanCache::default());
    let conn = open(&cache);
    let options = TranslationOptions::default();
    let plan = |sql: &str| cache.plan(conn.translator(), sql, options).unwrap().1;
    for (name, sql) in aldsp_workload::paper_queries() {
        plan(sql); // warms the metadata cache
        cache.clear();
        assert_eq!(plan(sql), Lookup::Translated, "{name}");
        assert_eq!(plan(sql), Lookup::ExactHit, "{name}");
        let cold = fastest(&mut || {
            cache.clear();
            assert_eq!(plan(sql), Lookup::Translated, "{name}");
        });
        let exact = fastest(&mut || assert_eq!(plan(sql), Lookup::ExactHit, "{name}"));
        assert!(
            exact * 5 <= cold,
            "{name}: exact hit {exact:?} is not 5x faster than cold plan {cold:?}"
        );
    }
    let hit_rate = cache.stats().hit_rate().unwrap_or(0.0);
    assert!(hit_rate > 0.0, "hit rate {hit_rate}");
}
