//! The benchmark's self-checks: counts repeat exactly for a seed, and
//! `BENCHMARK.json` declares what the catalogue defines.

use aldsp_e2e::json::Json;
use aldsp_e2e::metrics::{per_layer, END_TO_END};
use aldsp_e2e::report::RUN_SECONDS;
use aldsp_e2e::run::{run, Config, Outcome};
use aldsp_e2e::workloads::{Size, WORKLOADS};
use std::path::PathBuf;
use std::time::Instant;

fn smoke(workload: &str, seed: u64, trace: bool, tag: &str) -> Outcome {
    let config = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.4,
        trace,
        size: Size::Smoke,
        // Tests run in parallel: a directory per run.
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}")),
        process_start: Instant::now(),
    };
    let outcome = run(&config).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.failures);
    outcome
}

/// Counts, and ratios of counts: everything that is not a timing.
fn is_count(name: &str) -> bool {
    let timing_ratios = ["trace.overhead_frac", "driver.service.scaling_2c"];
    !timing_ratios.contains(&name)
        && !name.starts_with("alloc.")
        && !name.starts_with("share.")
        && (name.ends_with("_frac")
            || name.ends_with("_per_stmt")
            || name.ends_with("_per_row") && !name.ends_with("_ns_per_row")
            || [
                "core.xquery_bytes",
                "plancache.evictions",
                "plancache.epoch_invalidations",
                "optimizer.est_cost_ratio",
                "driver.service.retranslations",
                "trace.statements",
                "payload_bytes_per_row",
            ]
            .contains(&name))
}

fn counts(outcome: &Outcome) -> Vec<(String, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|(name, _, _)| is_count(name))
        .map(|(name, value, _)| (name.clone(), *value))
        .collect()
}

fn counts_repeat(workload: &str) {
    for trace in [true, false] {
        let first = counts(&smoke(workload, 7, trace, &format!("a{trace}")));
        let second = counts(&smoke(workload, 7, trace, &format!("b{trace}")));
        assert!(!first.is_empty());
        assert_eq!(
            first, second,
            "{workload}: counts differ between same-seed runs"
        );
    }
}

#[test]
fn warm_point_counts_repeat() {
    counts_repeat("warm_point");
}

#[test]
fn join_report_counts_repeat() {
    counts_repeat("join_report");
}

#[test]
fn bulk_export_counts_repeat() {
    counts_repeat("bulk_export");
}

#[test]
fn adhoc_fuzz_counts_repeat() {
    counts_repeat("adhoc_fuzz");
}

#[test]
fn reload_churn_counts_repeat() {
    counts_repeat("reload_churn");
}

#[test]
fn layers_tell_the_workloads_apart() {
    let value = |outcome: &Outcome, name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    };
    let warm = smoke("warm_point", 7, true, "layers");
    assert!(value(&warm, "plancache.exact_hit_frac") >= 0.99);
    assert_eq!(value(&warm, "plancache.epoch_invalidations"), 0.0);
    assert_eq!(value(&warm, "governor.shed_frac"), 0.0);
    assert!(value(&warm, "class.point_customer.p50_us") > 0.0);
    assert_eq!(value(&warm, "class.inner_join.p50_us"), 0.0);

    // Larger than the cache even at smoke scale: no text is still there
    // when it comes round again. (At smoke scale the canonical forms fit,
    // so what is not an exact hit is a normalized one; at full scale about
    // half are misses.)
    let fuzz = smoke("adhoc_fuzz", 7, true, "layers");
    assert_eq!(value(&fuzz, "plancache.exact_hit_frac"), 0.0);
    assert!(value(&fuzz, "plancache.evictions") > 0.0);

    let churn = smoke("reload_churn", 7, true, "layers");
    assert!(value(&churn, "plancache.epoch_invalidations") > 0.0);
    // 200 statements, a write after every 50th, each followed by a re-read.
    assert_eq!(value(&churn, "trace.statements"), 204.0);
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let doc = Json::parse(&text).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
    assert_eq!(
        doc.get("paths").unwrap().as_array().unwrap(),
        [Json::str("e2e")]
    );

    let text_of = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let defined: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(name, why)| (name.to_string(), why.to_string()))
        .collect();
    assert_eq!(workloads, defined);
    for (name, why) in &defined {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }

    let declared: Vec<(String, String, String, Option<f64>)> = doc
        .get("end_to_end")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m.get("bound").unwrap().as_f64(),
            )
        })
        .collect();
    let defined: Vec<(String, String, String, Option<f64>)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                Some(m.bound),
            )
        })
        .collect();
    assert_eq!(declared, defined);
    assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));

    let declared: Vec<(String, String, String)> = doc
        .get("per_layer")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let defined: Vec<(String, String, String)> = per_layer()
        .into_iter()
        .map(|m| (m.name, m.unit.to_string(), m.better.as_str().to_string()))
        .collect();
    assert_eq!(declared, defined);
    assert!(defined.len() <= 128);
}
