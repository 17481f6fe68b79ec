//! Per-layer metrics from one traced pass: spans for the timings, the
//! re-enactment's observations for the counts.
//!
//! Timings are in µs per call unless the name carries another unit: for
//! the warm list, the median over the list of each kind of execution's
//! fastest time (its floor, see `window`); for what happens once per
//! statement — building a plan — the plain median. Counts and the ratios
//! of counts repeat exactly for a seed. A metric with no sample on a
//! workload — a miss timing where nothing missed, a class the workload
//! does not have — is 0.

use crate::stats::{geomean, percentile, ratio, sorted, weighted_quantile};
use crate::sut::{CacheCounters, Observed};
use crate::trace::{name, Tracer};
use std::collections::BTreeMap;

/// Everything a traced run gathered beside its spans.
#[derive(Default)]
pub struct Pass {
    /// Observations of the cold pass over the distinct statements.
    pub cold: Vec<Observed>,
    /// Observations of the fixed list, warm — what the fractions, the
    /// per-statement counts and the shares are taken over.
    pub warm: Vec<Observed>,
    /// Plan-cache counters over the warm list.
    pub cache: CacheCounters,
    /// `(hits, misses)` of the metadata caches, whole run.
    pub metadata: (u64, u64),
    /// `(submitted, shed)` of the governors, whole run.
    pub governor: (u64, u64),
    pub timed_p50_us: f64,
    pub timed_samples: u64,
    pub scaling_2c: f64,
    pub failed_frac: f64,
    pub class_p50_us: BTreeMap<&'static str, f64>,
}

fn p50(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Names for what a lookup's time splits into.
const LOOKUP_OWN: &str = "plancache.plan.own";
const LOOKUP_CORE: &str = "plancache.plan.core";
const LOOKUP_OPTIMIZER: &str = "plancache.plan.optimizer";

/// The warm list by *kind* of execution — a statement, and whether its
/// lookup had to build a plan — with, for every span name, the fastest
/// time seen and how many executions had the span. The machine's slow
/// moments only ever add time, and a kind that repeats meets a quiet
/// moment; its floor is what the layer costs (see `window`).
#[derive(Default)]
struct Floors {
    /// By `(statement, built)`.
    kinds: BTreeMap<(u32, bool), SpanFloors>,
}

/// Span name to `(floor in µs, executions that had the span)`.
type SpanFloors = BTreeMap<&'static str, (f64, usize)>;

impl Floors {
    /// Reads the last `warm.len()` statements of the trace: the cold pass
    /// comes first.
    fn new(tracer: &Tracer, warm: &[Observed]) -> Floors {
        let mut roots = Vec::new();
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (id, span) in tracer.spans.iter().enumerate() {
            match span.parent {
                None if span.name == name::STATEMENT => roots.push(id),
                None => {}
                Some(parent) => children.entry(parent).or_default().push(id),
            }
        }
        let children_of = |id: usize| {
            children
                .get(&id)
                .into_iter()
                .flatten()
                .map(|&child| (child, &tracer.spans[child]))
        };
        let skip = roots.len().saturating_sub(warm.len());
        let mut floors = Floors::default();
        for (&root, seen) in roots[skip..].iter().zip(warm) {
            let mut took: BTreeMap<&'static str, f64> = BTreeMap::new();
            for (id, span) in children_of(root) {
                *took.entry(span.name).or_default() += span.micros();
                if !span.name.starts_with("plancache.plan.") {
                    continue;
                }
                // A miss's children are a second run of what the lookup
                // did inside: scaled down if they took longer than the
                // lookup they explain, and the rest is the lookup's own.
                let inside = |wanted: &str| -> f64 {
                    children_of(id)
                        .filter(|(_, s)| s.name == wanted)
                        .map(|(_, s)| s.micros())
                        .sum()
                };
                let (translate, optimize) = (inside(name::TRANSLATE), inside(name::OPTIMIZE));
                let scale = (span.micros() / (translate + optimize)).min(1.0);
                let scale = if scale.is_finite() { scale } else { 1.0 };
                *took.entry(LOOKUP_CORE).or_default() += translate * scale;
                *took.entry(LOOKUP_OPTIMIZER).or_default() += optimize * scale;
                *took.entry(LOOKUP_OWN).or_default() +=
                    span.micros() - (translate + optimize) * scale;
            }
            let kind = floors
                .kinds
                .entry((seen.statement, seen.built.is_some()))
                .or_default();
            for (span, us) in took {
                let (floor, executions) = kind.entry(span).or_insert((f64::INFINITY, 0));
                *floor = floor.min(us);
                *executions += 1;
            }
        }
        floors
    }

    /// `(floor, executions)` of `span` in every kind that has it.
    fn of<'a>(&'a self, span: &'a str) -> impl Iterator<Item = (f64, usize)> + 'a {
        self.kinds
            .values()
            .filter_map(move |kind| kind.get(span).copied())
    }

    /// Median over the list of `span`'s floor.
    fn p50(&self, span: &str) -> f64 {
        weighted_quantile(self.of(span).collect(), 0.5)
    }

    /// µs the list spends in `span`, at the floor.
    fn total(&self, span: &str) -> f64 {
        self.of(span).map(|(floor, n)| floor * n as f64).sum()
    }

    /// Median over the list of `whole`'s floor less the floors of `parts`,
    /// kind by kind.
    fn residual_p50(&self, whole: &str, parts: &[&str]) -> f64 {
        let residuals = self
            .kinds
            .values()
            .filter_map(|kind| {
                let (whole, n) = *kind.get(whole)?;
                let inside: f64 = parts
                    .iter()
                    .filter_map(|part| kind.get(part))
                    .map(|&(floor, with)| floor * with as f64 / n as f64)
                    .sum();
                Some((whole - inside, n))
            })
            .collect();
        weighted_quantile(residuals, 0.5)
    }
}

/// Every per-layer metric of the pass, by name.
pub fn metrics(pass: &Pass, tracer: &Tracer) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let warm = &pass.warm;
    let n = warm.len() as f64;
    let sum = |f: fn(&Observed) -> u64| warm.iter().map(f).sum::<u64>() as f64;
    let per_stmt = |f: fn(&Observed) -> u64| ratio(sum(f), n);
    let all = || pass.cold.iter().chain(warm.iter());
    // Build-side timings come from every statement, cold pass included:
    // on a warm workload that is the only place anything is built.
    let p50_of = |span: &str| p50(tracer.micros_of(span));
    // Everything else is a property of the warm list, read at the floor.
    let floors = Floors::new(tracer, warm);
    let warm_p50 = |span: &str| floors.p50(span);
    let warm_micros = |span: &str| floors.total(span);
    // bytes / µs is MB/s.
    let mb_per_s = |bytes: f64, span: &str| ratio(bytes, floors.total(span));

    put("sql.parse_us", warm_p50(name::SQL_PARSE));
    put(
        "sql.parse_mb_per_s",
        mb_per_s(sum(|o| o.sql_bytes), name::SQL_PARSE),
    );

    put("plancache.exact_hit_us", warm_p50(name::PLAN_EXACT));
    put(
        "plancache.normalized_hit_us",
        warm_p50(name::PLAN_NORMALIZED),
    );
    put("plancache.miss_us", p50_of(name::PLAN_MISS));
    let lookups = (pass.cache.exact_hits + pass.cache.normalized_hits + pass.cache.misses) as f64;
    put(
        "plancache.exact_hit_frac",
        ratio(pass.cache.exact_hits as f64, lookups),
    );
    put(
        "plancache.normalized_hit_frac",
        ratio(pass.cache.normalized_hits as f64, lookups),
    );
    put(
        "plancache.miss_frac",
        ratio(pass.cache.misses as f64, lookups),
    );
    put("plancache.evictions", pass.cache.evictions as f64);
    put(
        "plancache.epoch_invalidations",
        pass.cache.epoch_invalidations as f64,
    );

    let (hits, misses) = pass.metadata;
    put(
        "catalog.metadata_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
    );

    put("core.stage1_us", p50_of(name::STAGE1));
    put("core.stage2_us", p50_of(name::STAGE2));
    put("core.stage3_us", p50_of(name::STAGE3));
    put("core.xquery_bytes", per_stmt(|o| o.xquery_bytes));

    let built: Vec<_> = all().filter_map(|o| o.built).collect();
    let builds = built.len() as f64;
    put("optimizer.optimize_us", p50_of(name::OPTIMIZE));
    put(
        "optimizer.rewrites_applied_per_stmt",
        ratio(
            built.iter().map(|b| b.rewrites_applied).sum::<u64>() as f64,
            builds,
        ),
    );
    put(
        "optimizer.rewrites_refused_per_stmt",
        ratio(
            built.iter().map(|b| b.rewrites_refused).sum::<u64>() as f64,
            builds,
        ),
    );
    let cost_ratios: Vec<f64> = built
        .iter()
        .map(|b| ratio(b.cost_before, b.cost_after))
        .collect();
    put("optimizer.est_cost_ratio", geomean(&cost_ratios));

    put("xquery.parser.parse_us", warm_p50(name::XQ_PARSE));
    put(
        "xquery.parser.mb_per_s",
        mb_per_s(sum(|o| o.xquery_bytes), name::XQ_PARSE),
    );

    let eval_us = warm_micros(name::EVAL);
    let fuel = sum(|o| o.fuel);
    let hash_joins = sum(|o| o.hash_joins);
    let join_fallbacks = sum(|o| o.join_fallbacks);
    put("xquery.eval.eval_us", warm_p50(name::EVAL));
    put("xquery.eval.fuel_per_stmt", ratio(fuel, n));
    put("xquery.eval.fuel_per_row", ratio(fuel, sum(|o| o.rows)));
    put("xquery.eval.ns_per_fuel", ratio(eval_us * 1e3, fuel));
    put("xquery.eval.hash_joins_per_stmt", ratio(hash_joins, n));
    put(
        "xquery.eval.join_fallbacks_per_stmt",
        ratio(join_fallbacks, n),
    );
    put(
        "xquery.eval.fast_path_frac",
        ratio(hash_joins, hash_joins + join_fallbacks),
    );

    put("xml.serialize_us", warm_p50(name::SERIALIZE));
    put(
        "xml.serialize_ns_per_byte",
        ratio(warm_micros(name::SERIALIZE) * 1e3, sum(|o| o.payload_bytes)),
    );
    put("driver.resultset.decode_us", warm_p50(name::DECODE));
    put(
        "driver.resultset.decode_ns_per_row",
        ratio(warm_micros(name::DECODE) * 1e3, sum(|o| o.rows)),
    );

    // Whole calls less the layers re-enacted under them, kind by kind.
    let server_overhead = floors.residual_p50(
        name::SERVER_EXECUTE,
        &[name::XQ_PARSE, name::EVAL, name::SERIALIZE, name::RELEASE],
    );
    let service_overhead = floors.residual_p50(
        name::SERVICE_EXECUTE,
        &[
            name::ADMIT,
            LOOKUP_OWN,
            LOOKUP_CORE,
            LOOKUP_OPTIMIZER,
            name::RESOLVE_ARGS,
            name::SERVER_EXECUTE,
            name::DECODE,
        ],
    );
    let total = warm_micros(name::SERVICE_EXECUTE);
    let shares = [
        warm_micros(LOOKUP_OWN) + warm_micros(name::RESOLVE_ARGS),
        warm_micros(LOOKUP_CORE),
        warm_micros(LOOKUP_OPTIMIZER),
        warm_micros(name::XQ_PARSE),
        warm_micros(name::EVAL) + warm_micros(name::RELEASE),
        warm_micros(name::SERIALIZE),
        warm_micros(name::DECODE),
    ];
    put("driver.server.execute_us", warm_p50(name::SERVER_EXECUTE));
    put("driver.server.overhead_us", server_overhead);
    put(
        "driver.server.function_calls_per_stmt",
        per_stmt(|o| o.function_calls),
    );
    put(
        "driver.server.payload_bytes_per_stmt",
        per_stmt(|o| o.payload_bytes),
    );
    put("driver.server.materialize_us", p50_of(name::MATERIALIZE));
    put("driver.service.overhead_us", service_overhead);
    put("driver.service.scaling_2c", pass.scaling_2c);
    put("driver.service.retranslations", sum(|o| o.retranslations));

    put("governor.admit_us", warm_p50(name::ADMIT));
    let (submitted, shed) = pass.governor;
    put("governor.shed_frac", ratio(shed as f64, submitted as f64));

    put("alloc.bytes_per_stmt", per_stmt(|o| o.alloc_bytes));
    put("alloc.count_per_stmt", per_stmt(|o| o.alloc_count));

    // Layer busy time over the service's whole calls; what no layer
    // claims is `other`.
    let share_names = [
        "share.plancache",
        "share.core",
        "share.optimizer",
        "share.xquery.parser",
        "share.xquery.eval",
        "share.xml",
        "share.driver.resultset",
    ];
    for (share, busy) in share_names.into_iter().zip(shares) {
        put(share, ratio(busy, total));
    }
    put(
        "share.other",
        if total > 0.0 {
            1.0 - shares.iter().sum::<f64>() / total
        } else {
            0.0
        },
    );

    let traced_p50 = warm_p50(name::SERVICE_EXECUTE);
    put(
        "trace.overhead_frac",
        if pass.timed_p50_us > 0.0 {
            traced_p50 / pass.timed_p50_us - 1.0
        } else {
            0.0
        },
    );
    put("trace.statements", n);
    put("timed.samples_1c", pass.timed_samples as f64);
    put("timed.failed_frac", pass.failed_frac);
    put("timed.stmt_p50_us", pass.timed_p50_us);

    for (class, us) in &pass.class_p50_us {
        put(&format!("class.{class}.p50_us"), *us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced statement whose spans take what `us` says; the service's
    /// whole call runs `slow` times longer than its floor.
    fn statement(tracer: &mut Tracer, id: u32, us: &[(&'static str, u64)], slow: u64) {
        let root = tracer.open(Some(id), None, name::STATEMENT);
        for &(span, micros) in us {
            let factor = if span == name::SERVICE_EXECUTE {
                slow
            } else {
                1
            };
            tracer.add_measured(root, span, 0, micros * factor * 1_000);
        }
        tracer.close(root);
    }

    #[test]
    fn shares_and_residuals_are_read_at_the_floor() {
        let spans = [
            (name::SERVICE_EXECUTE, 100),
            (name::PLAN_EXACT, 1),
            (name::XQ_PARSE, 20),
            (name::EVAL, 60),
            (name::RELEASE, 10),
            (name::SERIALIZE, 2),
            (name::DECODE, 5),
            (name::SERVER_EXECUTE, 93),
        ];
        let mut tracer = Tracer::new();
        // A cold statement the warm list must not see, then the same
        // statement three times: twice in a slow moment, once in a quiet one.
        statement(&mut tracer, 0, &[(name::SERVICE_EXECUTE, 900)], 1);
        for (id, slow) in [(1, 3), (2, 1), (3, 2)] {
            statement(&mut tracer, id, &spans, slow);
        }
        let seen = Observed {
            statement: 0,
            fuel: 600,
            rows: 4,
            payload_bytes: 40,
            ..Observed::default()
        };
        let pass = Pass {
            warm: vec![seen; 3],
            timed_p50_us: 80.0,
            ..Pass::default()
        };
        let m = metrics(&pass, &tracer);
        let close = |name: &str, want: f64| {
            assert!(
                (m[name] - want).abs() < 1e-9,
                "{name}: {} != {want}",
                m[name]
            );
        };
        close("share.xquery.parser", 0.20);
        close("share.xquery.eval", 0.70);
        close("share.plancache", 0.01);
        close("share.xml", 0.02);
        close("share.driver.resultset", 0.05);
        close("share.other", 0.02);
        close("share.core", 0.0);
        close("xquery.eval.eval_us", 60.0);
        close("xquery.eval.ns_per_fuel", 100.0);
        close("xml.serialize_ns_per_byte", 50.0);
        close("driver.resultset.decode_ns_per_row", 1250.0);
        // 93 - (20 + 60 + 2 + 10), and 100 - (1 + 93 + 5).
        close("driver.server.overhead_us", 1.0);
        close("driver.service.overhead_us", 1.0);
        close("trace.overhead_frac", 0.25);
        close("trace.statements", 3.0);
    }
}
