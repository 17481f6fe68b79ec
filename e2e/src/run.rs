//! One run of one workload: set up, verify against the oracle, then either
//! the timed windows (end-to-end metrics) or the traced pass (per-layer
//! metrics).
//!
//! JDBC callers wait for their reply, so the load is a closed loop: each
//! client sends its next statement when the previous one has been decoded.

use crate::json::Json;
use crate::layers;
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::{geomean, median, ratio};
use crate::sut::{Reenactor, Rows, Sut};
use crate::trace::Tracer;
use crate::window::{Pick, Shared, Tally};
use crate::workloads::{self, Size, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the span dump goes.
    pub out_dir: PathBuf,
    /// When the process started: the first set-up is timed from here.
    pub process_start: Instant,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The first few failures, for whoever has to fix the benchmark.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Set-ups per timed run: at least three, more while they are quick, so
/// the median is of several even where one takes seconds.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

pub fn run(config: &Config) -> Result<Outcome, String> {
    let (tally, metrics) = if config.trace {
        traced(config)?
    } else {
        timed(config)?
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        failures: tally.failures,
    })
}

type Metrics = Vec<(String, f64, &'static str)>;

fn open(config: &Config) -> Result<(Workload, Sut), String> {
    let workload = workloads::build(&config.workload, config.seed, config.size)
        .ok_or_else(|| format!("unknown workload `{}`", config.workload))?;
    let sut = Sut::open(workload.scale, &workload.statements)?;
    Ok((workload, sut))
}

fn no_counts(workload: &Workload) -> Vec<AtomicUsize> {
    workload
        .statements
        .iter()
        .map(|_| AtomicUsize::new(0))
        .collect()
}

/// Set-up several times over, oracle verification, timed segments: the
/// end-to-end metrics.
fn timed(config: &Config) -> Result<(Tally, Metrics), String> {
    // The last set-up is the one measured on.
    let mut setups: Vec<f64> = Vec::new();
    let mut started = config.process_start;
    let (workload, sut, filled) = loop {
        let (workload, sut) = open(config)?;
        let filled: Vec<Result<Rows, String>> =
            (0..workload.statements.len()).map(|i| sut.run(i)).collect();
        setups.push(started.elapsed().as_secs_f64());
        let spent: f64 = setups.iter().sum();
        if setups.len() >= MAX_SETUPS
            || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET.as_secs_f64())
        {
            break (workload, sut, filled);
        }
        drop((filled, sut));
        started = Instant::now();
    };

    // Oracle verification of the fill pass, untimed. Nothing else has run
    // on this server yet, so what it has shipped is the fill pass: each
    // distinct statement once.
    let mut tally = Tally::default();
    let expected = no_counts(&workload);
    let fill_bytes = sut.bytes_shipped();
    let mut fill_rows = 0;
    for (i, rows) in filled.into_iter().enumerate() {
        tally.attempted += 1;
        match rows.and_then(|rows| sut.check(i, &rows).map(|()| rows.count())) {
            Ok(count) => {
                expected[i].store(count, Ordering::Relaxed);
                fill_rows += count;
            }
            Err(reason) => tally.fail(reason),
        }
    }

    let timed = Shared::new(&sut, &workload, &expected).timed(config.seconds, 0.1, 0.5, 0.4);
    tally.absorb(timed.tally);
    let class_p50s: Vec<f64> = timed
        .one
        .class_p50(&workload, Pick::Floor)
        .into_values()
        .collect();
    let values = [
        median(&setups),
        timed.one.quantile(0.5, Pick::Floor),
        timed.one.quantile(0.95, Pick::Floor),
        timed.one.per_second(Pick::Floor),
        timed.two.per_second(Pick::Median),
        geomean(&class_p50s),
        ratio(fill_bytes as f64, fill_rows as f64),
        peak_rss_mb()?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, value)| (metric.name.to_string(), value, metric.unit))
        .collect();
    Ok((tally, metrics))
}

/// One set-up, the cold pass and the fixed list through the re-enactment,
/// then short untraced segments to hold the traced numbers against: the
/// per-layer metrics.
fn traced(config: &Config) -> Result<(Tally, Metrics), String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let (workload, sut) = open(config)?;
    sut.materialize(&mut tracer)?;
    let expected = no_counts(&workload);
    let mut reenactor = Reenactor::new(&sut);
    let mut pass = layers::Pass::default();
    // Runs one statement through the re-enactment and checks its rows
    // against the oracle; the verified row count goes to `expected`.
    let verified = |reenactor: &mut Reenactor, i: usize, tracer: &mut Tracer| {
        let (rows, seen) = reenactor.statement(i, tracer)?;
        sut.check(i, &rows)?;
        expected[i].store(rows.count(), Ordering::Relaxed);
        Ok::<_, String>(seen)
    };

    // Cold pass over the distinct statements: every lookup builds a plan.
    for i in 0..workload.statements.len() {
        tally.attempted += 1;
        match verified(&mut reenactor, i, &mut tracer) {
            Ok(seen) => pass.cold.push(seen),
            Err(reason) => tally.fail(reason),
        }
    }

    // The fixed list, warm.
    let cache_before = reenactor.cache_counters();
    let list = &workload.schedule[..workloads::traced_len(&workload, config.size)];
    let mut since_write = 0;
    for &i in list {
        tally.attempted += 1;
        match reenactor.statement(i, &mut tracer) {
            Ok((rows, seen)) => {
                if rows.count() != expected[i].load(Ordering::Relaxed) {
                    tally.fail(format!("statement {i}: row count changed"));
                }
                pass.warm.push(seen);
            }
            Err(reason) => tally.fail(reason),
        }
        since_write += 1;
        if let Some(churn) = workload.churn.filter(|c| since_write == c.every) {
            since_write = 0;
            sut.insert_order(churn.custid);
            sut.materialize(&mut tracer)?;
            tally.attempted += 1;
            match verified(&mut reenactor, churn.touched, &mut tracer) {
                Ok(seen) => pass.warm.push(seen),
                Err(reason) => tally.fail(format!("stale read after a write: {reason}")),
            }
        }
    }
    pass.cache = reenactor.cache_counters().minus(cache_before);
    pass.metadata = reenactor.metadata_counters();
    drop(reenactor);

    let timed = Shared::new(&sut, &workload, &expected).timed(config.seconds, 0.05, 0.3, 0.25);
    tally.absorb(timed.tally);
    pass.timed_p50_us = timed.one.quantile(0.5, Pick::Floor);
    pass.timed_samples = timed.one.samples() as u64;
    // Like for like: the median of each kind in both phases.
    pass.scaling_2c = ratio(
        timed.two.per_second(Pick::Median),
        timed.one.per_second(Pick::Median),
    );
    pass.class_p50_us = timed.one.class_p50(&workload, Pick::Floor);
    pass.governor = sut.governor_counters();
    pass.failed_frac = ratio(tally.failed as f64, tally.attempted as f64);

    let values = layers::metrics(&pass, &tracer);
    let metrics = per_layer()
        .into_iter()
        .map(|metric| {
            let value = values.get(metric.name.as_str()).copied().unwrap_or(0.0);
            (metric.name, value, metric.unit)
        })
        .collect();

    std::fs::create_dir_all(&config.out_dir)
        .and_then(|()| {
            std::fs::write(
                config.out_dir.join(format!("trace-{}.json", workload.name)),
                tracer.to_json(workload.name, config.seed).to_line(),
            )
        })
        .map_err(|e| format!("writing the span dump under {:?}: {e}", config.out_dir))?;
    Ok((tally, metrics))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
