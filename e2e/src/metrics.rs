//! The metric catalogue: every name the benchmark prints, with its unit,
//! its direction, and — written down before anything was measured — which
//! end-to-end metric on which workload a layer's metric should move.
//! `BENCHMARK.json` declares the same names; a test holds the two together.

use crate::workloads::CLASSES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression. Set from what the
    /// reference box does to two sets of ten runs of the same program: on
    /// the noisiest workload (`adhoc_fuzz`, whose floors are floors of
    /// three or four executions) the sets' medians were up to 12 % apart
    /// and the spread within a set up to 17 %.
    pub bound: f64,
    /// `compare` takes differences and spreads up to this much, in the
    /// metric's unit, for none: a set-up of five milliseconds is a quarter
    /// slower when the scheduler blinks.
    pub slack: f64,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        slack: 0.05,
        meaning: "build application, populate, open services, cache-fill pass (first translation and first materialization of every distinct statement); median of the run's set-ups",
    },
    EndToEnd {
        name: "stmt_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.20,
        slack: 0.0,
        meaning: "latency, SQL text in to decoded ResultSet out, 1 client: median over the mix of each kind of execution's floor",
    },
    EndToEnd {
        name: "stmt_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.20,
        slack: 0.0,
        meaning: "95th percentile of the same",
    },
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        slack: 0.0,
        meaning: "statements per second, 1 client, closed loop: statements over the sum of their kinds' floors",
    },
    EndToEnd {
        name: "stmts_per_s_2c",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        slack: 0.0,
        meaning: "the same with 2 clients sharing one QueryService, from each kind's median",
    },
    EndToEnd {
        name: "class_geomean_us",
        unit: "us",
        better: Lower,
        bound: 0.20,
        slack: 0.0,
        meaning: "geometric mean over the workload's statement classes of each class's p50: moves when any class moves, which the mix median does not",
    },
    EndToEnd {
        name: "payload_bytes_per_row",
        unit: "B",
        better: Lower,
        bound: 0.10,
        slack: 0.0,
        meaning: "ServerStats::bytes_shipped / rows decoded over one pass of the distinct statements (the paper's section-4 quantity); an exact count for a seed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        slack: 0.0,
        meaning: "VmHWM of the workload's process at exit",
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The module the metric belongs to.
    pub layer: &'static str,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

/// `(name, unit, better, layer, should move)`, one metric a row.
#[rustfmt::skip]
const FIXED: [(&str, &str, Better, &str, &str); 57] = [
    ("sql.parse_us", "us", Lower, "sql", "stmt_p50_us on adhoc_fuzz; literal_point class on warm_point"),
    ("sql.parse_mb_per_s", "MB/s", Higher, "sql", "stmt_p50_us on adhoc_fuzz"),
    ("plancache.exact_hit_us", "us", Lower, "plancache", "stmts_per_s on warm_point"),
    ("plancache.normalized_hit_us", "us", Lower, "plancache", "stmt_p50_us on adhoc_fuzz"),
    ("plancache.miss_us", "us", Lower, "plancache", "stmt_p50_us and stmt_p95_us on adhoc_fuzz"),
    ("plancache.exact_hit_frac", "ratio", Higher, "plancache", "stmts_per_s on warm_point"),
    ("plancache.normalized_hit_frac", "ratio", Higher, "plancache", "stmt_p50_us on adhoc_fuzz"),
    ("plancache.miss_frac", "ratio", Lower, "plancache", "stmt_p50_us on adhoc_fuzz"),
    ("plancache.evictions", "count", Lower, "plancache", "stmt_p50_us on adhoc_fuzz"),
    ("plancache.epoch_invalidations", "count", Lower, "plancache", "stmt_p95_us on reload_churn; 0 elsewhere"),
    ("catalog.metadata_hit_frac", "ratio", Higher, "catalog", "stmt_p95_us on reload_churn"),
    ("core.stage1_us", "us", Lower, "core", "stmt_p50_us on adhoc_fuzz"),
    ("core.stage2_us", "us", Lower, "core", "stmt_p50_us on adhoc_fuzz"),
    ("core.stage3_us", "us", Lower, "core", "stmt_p50_us on adhoc_fuzz"),
    ("core.xquery_bytes", "B", Lower, "core", "feeds xquery.parser.parse_us on every workload"),
    ("optimizer.optimize_us", "us", Lower, "optimizer", "stmt_p95_us on adhoc_fuzz (cost)"),
    ("optimizer.rewrites_applied_per_stmt", "count", Higher, "optimizer", "class_geomean_us on join_report (benefit)"),
    ("optimizer.rewrites_refused_per_stmt", "count", Lower, "optimizer", "stmt_p95_us on adhoc_fuzz (wasted gate work)"),
    ("optimizer.est_cost_ratio", "ratio", Higher, "optimizer", "class_geomean_us on join_report (benefit)"),
    ("xquery.parser.parse_us", "us", Lower, "xquery.parser", "stmts_per_s on warm_point; ~0 share on join_report"),
    ("xquery.parser.mb_per_s", "MB/s", Higher, "xquery.parser", "stmts_per_s on warm_point"),
    ("xquery.eval.eval_us", "us", Lower, "xquery.eval", "stmts_per_s and class_geomean_us on join_report"),
    ("xquery.eval.fuel_per_stmt", "count", Lower, "xquery.eval", "class_geomean_us on join_report"),
    ("xquery.eval.fuel_per_row", "count", Lower, "xquery.eval", "customers_text vs customers_xml on bulk_export (wrapper cost)"),
    ("xquery.eval.ns_per_fuel", "ns", Lower, "xquery.eval", "stmts_per_s on join_report"),
    ("xquery.eval.hash_joins_per_stmt", "count", Higher, "xquery.eval", "class_geomean_us on join_report"),
    ("xquery.eval.join_fallbacks_per_stmt", "count", Lower, "xquery.eval", "stmts_per_s on join_report"),
    ("xquery.eval.fast_path_frac", "ratio", Higher, "xquery.eval", "stmts_per_s on join_report"),
    ("xml.serialize_us", "us", Lower, "xml", "*_xml classes on bulk_export only"),
    ("xml.serialize_ns_per_byte", "ns", Lower, "xml", "*_xml classes on bulk_export only"),
    ("driver.resultset.decode_us", "us", Lower, "driver.resultset", "stmt_p50_us on bulk_export; none elsewhere"),
    ("driver.resultset.decode_ns_per_row", "ns", Lower, "driver.resultset", "stmt_p50_us on bulk_export"),
    ("driver.server.execute_us", "us", Lower, "driver.server", "stmt_p50_us on every workload"),
    ("driver.server.overhead_us", "us", Lower, "driver.server", "stmts_per_s_2c on warm_point"),
    ("driver.server.function_calls_per_stmt", "count", Lower, "driver.server", "stmts_per_s_2c on warm_point (stats lock per call)"),
    ("driver.server.payload_bytes_per_stmt", "B", Lower, "driver.server", "stmt_p50_us on bulk_export"),
    ("driver.server.materialize_us", "us", Lower, "driver.server", "stmt_p95_us on reload_churn; setup_s on bulk_export"),
    ("driver.service.overhead_us", "us", Lower, "driver.service", "stmts_per_s_2c on warm_point"),
    ("driver.service.scaling_2c", "ratio", Higher, "driver.service", "stmts_per_s_2c on warm_point"),
    ("driver.service.retranslations", "count", Lower, "driver.service", "stmt_p95_us on reload_churn"),
    ("governor.admit_us", "us", Lower, "governor", "stmts_per_s_2c on warm_point"),
    ("governor.shed_frac", "ratio", Lower, "governor", "must stay 0 everywhere"),
    ("alloc.bytes_per_stmt", "B", Lower, "alloc", "peak_rss_mb on bulk_export"),
    ("alloc.count_per_stmt", "count", Lower, "alloc", "stmts_per_s_2c on warm_point (allocator contention)"),
    ("share.plancache", "ratio", Lower, "shares", "names the layer a saving must appear in"),
    ("share.core", "ratio", Lower, "shares", "names the layer a saving must appear in"),
    ("share.optimizer", "ratio", Lower, "shares", "names the layer a saving must appear in"),
    ("share.xquery.parser", "ratio", Lower, "shares", "names the layer a saving must appear in"),
    ("share.xquery.eval", "ratio", Lower, "shares", "names the layer a saving must appear in"),
    ("share.xml", "ratio", Lower, "shares", "names the layer a saving must appear in"),
    ("share.driver.resultset", "ratio", Lower, "shares", "names the layer a saving must appear in"),
    ("share.other", "ratio", Lower, "shares", "above 0.15 a layer is missing a span"),
    ("trace.overhead_frac", "ratio", Lower, "tracing", "none; says what the re-enactment costs"),
    ("trace.statements", "count", Higher, "tracing", "none; sample count behind every traced p50"),
    ("timed.samples_1c", "count", Higher, "tracing", "none; sample count behind the class p50s"),
    ("timed.failed_frac", "ratio", Lower, "tracing", "errors, oracle mismatches and stale reads over statements attempted; must stay 0"),
    ("timed.stmt_p50_us", "us", Lower, "tracing", "none; the untraced median trace.overhead_frac is taken against"),
];

/// Every per-layer metric, in print order: the fixed ones, then one p50
/// per statement class.
pub fn per_layer() -> Vec<PerLayer> {
    let fixed = FIXED
        .into_iter()
        .map(|(name, unit, better, layer, moves)| PerLayer {
            name: name.to_string(),
            unit,
            better,
            layer,
            moves,
        });
    let classes = CLASSES.into_iter().map(|class| PerLayer {
        name: format!("class.{class}.p50_us"),
        unit: "us",
        better: Lower,
        layer: "per class",
        moves: "one row per statement class; 0 on workloads without the class",
    });
    fixed.chain(classes).collect()
}
