//! The system under test: every call into the product crates is in this
//! file. Workloads, statistics, tracing and reporting see only the plain
//! types defined here, so a change to the product's entry points is a
//! change to this file alone.
//!
//! The configuration is the production one: delimited-text transport
//! (XML only where a workload asks for it), `OptimizeLevel::Full` with the
//! validation gate on, hash-join execution, a default-sized plan cache and
//! a default governor, everything through `QueryService`.

use crate::alloc;
use crate::trace::{name, SpanId, Tracer};
use crate::workloads::{Lane, Scale, Statement};
use aldsp_core::{OptimizeLevel, QueryOptimizer, TranslationOptions, Transport};
use aldsp_driver::server::sql_value_to_sequence;
use aldsp_driver::{Connection, DspServer, QueryService, ResultSet};
use aldsp_governor::{ExecStrategy, QueryBudget};
use aldsp_optimizer::Optimizer;
use aldsp_plancache::{Lookup, PlanCache};
use aldsp_relational::{Database, SqlValue};
use aldsp_workload::QueryGenerator;
use aldsp_xml::{Atomic, Item, Sequence};
use aldsp_xquery::FunctionSource;
use std::sync::{Arc, Mutex};

/// Seed of the universe's rows: the same data for every `--seed`.
const DATA_SEED: u64 = 7;

const TABLES: [&str; 3] = ["CUSTOMERS", "ORDERS", "PAYMENTS"];

/// `count` generated statements as `(class, sql)`, the same for the same
/// seed.
pub fn fuzz_statements(seed: u64, count: usize) -> Vec<(&'static str, String)> {
    let mut generator = QueryGenerator::new(seed);
    (0..count)
        .map(|_| {
            let (class, sql) = generator.generate_any();
            (class.label(), sql)
        })
        .collect()
}

/// A decoded result, kept only to be counted and checked.
pub struct Rows(ResultSet);

impl Rows {
    pub fn count(&self) -> usize {
        self.0.row_count()
    }
}

struct Loaded {
    lane: usize,
    sql: String,
    params: Vec<SqlValue>,
    /// Parsed once, for the oracle.
    query: aldsp_sql::Query,
}

struct ServiceLane {
    options: TranslationOptions,
    optimizer: Arc<Optimizer>,
    service: QueryService,
}

/// One populated server with its services, shared by the timed clients.
pub struct Sut {
    server: Arc<DspServer>,
    /// The reference copy of the data; written only by `insert_order`.
    oracle: Mutex<Database>,
    lanes: Vec<ServiceLane>,
    statements: Vec<Loaded>,
}

/// Counters of one plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub exact_hits: u64,
    pub normalized_hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub epoch_invalidations: u64,
}

impl CacheCounters {
    fn of(cache: &PlanCache) -> CacheCounters {
        let s = cache.stats();
        CacheCounters {
            exact_hits: s.exact_hits,
            normalized_hits: s.normalized_hits,
            misses: s.misses,
            evictions: s.evictions,
            epoch_invalidations: s.epoch_invalidations,
        }
    }

    pub fn minus(self, o: CacheCounters) -> CacheCounters {
        CacheCounters {
            exact_hits: self.exact_hits - o.exact_hits,
            normalized_hits: self.normalized_hits - o.normalized_hits,
            misses: self.misses - o.misses,
            evictions: self.evictions - o.evictions,
            epoch_invalidations: self.epoch_invalidations - o.epoch_invalidations,
        }
    }
}

impl Sut {
    /// Builds the application, populates it, opens the services the
    /// statements need, and loads the statements. Nothing is translated or
    /// materialized yet: the first execution of each statement does that.
    pub fn open(scale: Scale, statements: &[Statement]) -> Result<Sut, String> {
        let scale = match scale {
            Scale::Small => aldsp_workload::Scale::small(),
            Scale::Of(n) => aldsp_workload::Scale::of(n),
        };
        let application = aldsp_workload::build_application();
        let database = aldsp_workload::populate_database(&application, scale, DATA_SEED);
        let oracle = Mutex::new(database.clone());
        let server = Arc::new(DspServer::new(application, database));

        let wants_xml = statements.iter().any(|s| s.lane == Lane::Xml);
        let transports: &[Transport] = if wants_xml {
            &[Transport::DelimitedText, Transport::Xml]
        } else {
            &[Transport::DelimitedText]
        };
        let lanes = transports
            .iter()
            .map(|&transport| {
                let options = TranslationOptions::with_transport(transport)
                    .optimized(OptimizeLevel::Full)
                    .with_exec(ExecStrategy::HashJoin);
                let optimizer = Arc::new(
                    Optimizer::new(aldsp_workload::stats_for(scale)).with_validation(true),
                );
                let service = QueryService::new(Arc::clone(&server), options)
                    .with_optimizer(Arc::clone(&optimizer) as Arc<_>);
                ServiceLane {
                    options,
                    optimizer,
                    service,
                }
            })
            .collect();

        let statements = statements
            .iter()
            .map(|s| {
                Ok(Loaded {
                    lane: match s.lane {
                        Lane::Text => 0,
                        Lane::Xml => 1,
                    },
                    sql: s.sql.clone(),
                    params: s.params.iter().map(|&v| SqlValue::Int(v)).collect(),
                    query: aldsp_sql::parse_select(&s.sql)
                        .map_err(|e| format!("`{}` does not parse: {e}", s.sql))?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Sut {
            server,
            oracle,
            lanes,
            statements,
        })
    }

    /// SQL text in, decoded rows out: what a JDBC caller waits for.
    pub fn run(&self, statement: usize) -> Result<Rows, String> {
        let s = &self.statements[statement];
        self.lanes[s.lane]
            .service
            .execute(&s.sql, &s.params)
            .map(Rows)
            .map_err(|e| format!("`{}`: {e}", s.sql))
    }

    /// Compares `rows` with what the relational oracle answers for the
    /// statement — row by row when it has ORDER BY, as bags otherwise.
    pub fn check(&self, statement: usize, rows: &Rows) -> Result<(), String> {
        let s = &self.statements[statement];
        let oracle = self.oracle.lock().expect("no holder of the oracle panics");
        let expected = aldsp_relational::execute_query(&oracle, &s.query, &s.params)
            .map_err(|e| format!("`{}`: oracle failed: {e}", s.sql))?;
        aldsp_workload::compare_results(rows.0.rows(), &expected, !s.query.order_by.is_empty())
            .map_err(|e| format!("`{}`: {e}", s.sql))
    }

    /// Inserts one ORDERS row for `custid` into the server (epoch bump,
    /// materialized tables dropped) and into the oracle's copy.
    pub fn insert_order(&self, custid: i64) {
        let mut oracle = self.oracle.lock().expect("no holder of the oracle panics");
        let table = oracle.table_mut("ORDERS").expect("the universe has ORDERS");
        let row = vec![
            SqlValue::Int(table.rows.len() as i64 + 1),
            SqlValue::Int(custid),
            SqlValue::Decimal(19.5),
            SqlValue::Str("OPEN".to_string()),
        ];
        table.insert(row.clone());
        self.server.mutate_database(|db| {
            db.table_mut("ORDERS")
                .expect("the universe has ORDERS")
                .insert(row)
        });
    }

    /// `ServerStats::bytes_shipped` so far.
    pub fn bytes_shipped(&self) -> u64 {
        self.server.stats().bytes_shipped
    }

    /// `(submitted, shed)` summed over the services' governors.
    pub fn governor_counters(&self) -> (u64, u64) {
        self.lanes.iter().fold((0, 0), |(submitted, shed), l| {
            let s = l.service.governor_stats();
            (submitted + s.submitted, shed + s.shed)
        })
    }

    /// Calls every data-service function once, in a span each. Right after
    /// `open` or `insert_order` nothing is materialized, so each call
    /// builds its table's row elements.
    pub fn materialize(&self, tracer: &mut Tracer) -> Result<(), String> {
        for table in TABLES {
            let span = tracer.open(None, None, name::MATERIALIZE);
            let rows = self.server.call(None, table, &[]);
            tracer.close(span);
            rows.map_err(|e| format!("{table}(): {}", e.message))?;
        }
        Ok(())
    }
}

/// What one traced statement did, beside its spans. Every field is a
/// count that repeats exactly for a seed, except the two estimates, which
/// are deterministic floats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Observed {
    /// Which statement of the workload this was.
    pub statement: u32,
    pub sql_bytes: u64,
    pub xquery_bytes: u64,
    pub payload_bytes: u64,
    pub rows: u64,
    pub fuel: u64,
    pub hash_joins: u64,
    pub join_fallbacks: u64,
    /// Data-service function calls made by the server's whole call.
    pub function_calls: u64,
    pub retranslations: u64,
    /// Set when the lookup built a plan.
    pub built: Option<Built>,
    /// Allocations made by the service's whole call.
    pub alloc_count: u64,
    pub alloc_bytes: u64,
}

/// What the optimizer did to a freshly built plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Built {
    pub rewrites_applied: u64,
    pub rewrites_refused: u64,
    /// Estimated fuel before and after rewriting.
    pub cost_before: f64,
    pub cost_after: f64,
}

/// The traced run's stand-in for what `QueryService::execute` does inside:
/// the same public calls, one at a time, each in a span. It owns a
/// connection per lane and a plan cache (the transport is part of a plan's
/// key), so its hits and misses are its own and repeat exactly; the
/// services' caches see the whole calls.
///
/// What it cannot see: work a caller skips *because* it sits inside the
/// product — a compiled-plan table on the server, say, would make the
/// whole calls cheaper while these spans, which still parse and plan,
/// stayed as they are. `driver.server.overhead_us` would then go negative,
/// which is the signal to move the spans inside.
pub struct Reenactor<'a> {
    sut: &'a Sut,
    cache: Arc<PlanCache>,
    /// One connection per service lane.
    connections: Vec<Connection>,
    statements: u32,
}

impl<'a> Reenactor<'a> {
    pub fn new(sut: &'a Sut) -> Reenactor<'a> {
        let cache = Arc::new(PlanCache::default());
        let connections = sut
            .lanes
            .iter()
            .map(|lane| {
                let mut connection = Connection::open_with_cache(
                    Arc::clone(&sut.server),
                    lane.options,
                    Arc::clone(&cache),
                );
                connection.set_optimizer(Some(Arc::clone(&lane.optimizer) as Arc<_>));
                connection
            })
            .collect();
        Reenactor {
            sut,
            cache,
            connections,
            statements: 0,
        }
    }

    /// Counters of the re-enactment's own plan cache.
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters::of(&self.cache)
    }

    /// `(hits, misses)` of the re-enactment's metadata caches.
    pub fn metadata_counters(&self) -> (u64, u64) {
        self.connections.iter().fold((0, 0), |(hits, misses), c| {
            let s = c.translator().metadata().stats();
            (hits + s.hits, misses + s.misses)
        })
    }

    /// Runs one statement three ways under one root span: as the service's
    /// whole call, then layer by layer, then as the server's whole call.
    /// Returns the decoded rows of the service's call.
    pub fn statement(
        &mut self,
        statement: usize,
        tracer: &mut Tracer,
    ) -> Result<(Rows, Observed), String> {
        let s = &self.sut.statements[statement];
        let service_lane = &self.sut.lanes[s.lane];
        let cache = &self.cache;
        let server = &self.sut.server;
        let options = service_lane.options;
        let translator = self.connections[s.lane].translator();
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("`{}`: {what}: {e}", s.sql);
        let mut seen = Observed {
            statement: statement as u32,
            sql_bytes: s.sql.len() as u64,
            ..Observed::default()
        };

        let id = self.statements;
        self.statements += 1;
        let root = tracer.open(Some(id), None, name::STATEMENT);

        // The whole call first: it follows a different statement, as every
        // statement of a timed run does, so it is the total the layers are
        // shares of. The layer-by-layer run and the server's whole call
        // come after it and find the statement's data in the CPU's caches.
        let meter = QueryBudget::unlimited();
        let (count_before, bytes_before) = alloc::snapshot();
        let rows = tracer
            .time(root, name::SERVICE_EXECUTE, || {
                service_lane
                    .service
                    .execute_with_budget(&s.sql, &s.params, Some(&meter))
            })
            .map_err(|e| fail("service execution", &e))?;
        let (count_after, bytes_after) = alloc::snapshot();
        seen.alloc_count = count_after - count_before;
        seen.alloc_bytes = bytes_after - bytes_before;

        // Beside the path: an exact hit never parses the SQL, a miss
        // parses it inside `plan_with`.
        tracer
            .time(root, name::SQL_PARSE, || aldsp_sql::parse_select(&s.sql))
            .map_err(|e| fail("SQL parse", &e))?;

        tracer
            .time(root, name::ADMIT, || {
                service_lane.service.governor().admit(s.sql.len()).map(drop)
            })
            .map_err(|e| fail("admission", &e))?;

        // The lookup, with `Connection::execute_cached_governed`'s
        // recovery: a plan from before the last epoch bump is purged and
        // looked up again, once.
        let bound = loop {
            let span = tracer.open(Some(id), Some(root), name::PLAN_MISS);
            let planned = cache.plan_with(
                translator,
                &s.sql,
                options,
                Some(service_lane.optimizer.as_ref() as &dyn QueryOptimizer),
            );
            tracer.close(span);
            let (bound, lookup) = planned.map_err(|e| fail("translation", &e))?;
            match lookup {
                Lookup::ExactHit => tracer.rename(span, name::PLAN_EXACT),
                Lookup::NormalizedHit => tracer.rename(span, name::PLAN_NORMALIZED),
                Lookup::Translated | Lookup::Fallback | Lookup::Bypass => {
                    seen.built = Some(self.rebuild(span, statement, tracer)?);
                }
            }
            if bound.plan.translation.metadata_epoch == server.epoch() || seen.retranslations > 0 {
                break bound;
            }
            translator.metadata().invalidate();
            cache.purge_stale(server.epoch());
            seen.retranslations += 1;
        };
        let translation = &bound.plan.translation;
        seen.xquery_bytes = translation.xquery.len() as u64;

        let external: Vec<(String, Sequence)> = tracer
            .time(root, name::RESOLVE_ARGS, || {
                bound.resolve_args(&s.params).map(|values| {
                    values
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (format!("sqlParam{}", i + 1), sql_value_to_sequence(v)))
                        .collect()
                })
            })
            .map_err(|e| fail("binding", &e))?;

        let program = tracer
            .time(root, name::XQ_PARSE, || {
                aldsp_xquery::parse_program(&translation.xquery)
            })
            .map_err(|e| fail("XQuery parse", &e))?;

        let meter = QueryBudget::unlimited();
        let result = tracer
            .time(root, name::EVAL, || {
                aldsp_xquery::evaluate_program_exec(
                    &program,
                    server.as_ref(),
                    &external,
                    Some(&meter),
                    options.exec,
                )
            })
            .map_err(|e| fail("evaluation", &e.message))?;
        seen.fuel = meter.fuel_consumed();
        (seen.hash_joins, seen.join_fallbacks) = meter.take_exec_counts();

        // What `execute_to_payload_governed_with` does with the result.
        let payload = tracer.time(root, name::SERIALIZE, || match result.as_singleton() {
            Some(Item::Atomic(Atomic::String(text))) => text.clone(),
            _ => aldsp_xml::serialize_sequence(&result),
        });
        seen.payload_bytes = payload.len() as u64;
        // The server frees the program and the result sequence before it
        // returns; a large result makes that worth a span.
        tracer.time(root, name::RELEASE, || drop((result, program)));

        let decoded = tracer
            .time(root, name::DECODE, || {
                let payload = payload;
                match options.transport {
                    Transport::DelimitedText => {
                        ResultSet::from_delimited(translation.columns.clone(), &payload)
                    }
                    Transport::Xml => ResultSet::from_xml(translation.columns.clone(), &payload),
                }
            })
            .map_err(|e| fail("decode", &e))?;
        seen.rows = decoded.row_count() as u64;
        if rows.rows() != decoded.rows() {
            return Err(fail(
                "re-enactment",
                &"the layered path and the service decoded different rows",
            ));
        }
        // One result fewer in memory while the server's whole call runs.
        drop(decoded);

        let calls_before = server.stats().function_calls;
        let meter = QueryBudget::unlimited();
        tracer
            .time(root, name::SERVER_EXECUTE, || {
                server.execute_to_payload_governed_with(
                    &translation.xquery,
                    &external,
                    Some(translation.metadata_epoch),
                    Some(&meter),
                    options.exec,
                )
            })
            .map_err(|e| fail("server execution", &e))?;
        seen.function_calls = server.stats().function_calls - calls_before;

        tracer.close(root);
        Ok((Rows(rows), seen))
    }

    /// After a miss: translates and optimizes the statement once more,
    /// outside the cache, as children of the lookup's span — the only way
    /// to see, from outside, where the time inside `plan_with` went.
    fn rebuild(
        &self,
        lookup: SpanId,
        statement: usize,
        tracer: &mut Tracer,
    ) -> Result<Built, String> {
        let s = &self.sut.statements[statement];
        let service_lane = &self.sut.lanes[s.lane];
        let translator = self.connections[s.lane].translator();

        let span = tracer.open(
            tracer.spans[lookup].statement,
            Some(lookup),
            name::TRANSLATE,
        );
        let full = translator.translate_full(&s.sql, service_lane.options);
        tracer.close(span);
        let full = full.map_err(|e| format!("`{}`: translation: {e}", s.sql))?;
        let timings = full.translation.timings;
        let mut at = tracer.spans[span].start_ns;
        for (stage, took) in [
            (name::STAGE1, timings.parse),
            (name::STAGE2, timings.prepare),
            (name::STAGE3, timings.generate),
        ] {
            at = tracer.add_measured(span, stage, at, took.as_nanos() as u64);
        }

        let outcome = tracer.time(lookup, name::OPTIMIZE, || {
            service_lane.optimizer.optimize(
                &full.prepared,
                &full.translation.xquery,
                service_lane.options,
            )
        });
        Ok(Built {
            rewrites_applied: outcome.trace.applied() as u64,
            rewrites_refused: outcome.trace.rejected() as u64,
            cost_before: outcome.trace.cost_before,
            cost_after: outcome.trace.cost_after,
        })
    }
}
