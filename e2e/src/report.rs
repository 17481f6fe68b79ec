//! `run`: every workload from one command, each run in a process of its
//! own so set-up time and peak memory are per workload. `compare`: two
//! report files, one verdict per workload and end-to-end metric.

use crate::json::Json;
use crate::metrics::{per_layer, Better, EndToEnd, END_TO_END};
use crate::stats::{quartiles, ratio, spread};
use crate::workloads::{Size, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seconds one run measures at full size; `BENCHMARK.json` says the same.
pub const RUN_SECONDS: f64 = 20.0;

pub struct RunAll {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub size: Size,
    pub out_dir: PathBuf,
}

/// One child run's result line.
struct Line {
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` as printed.
    metrics: Vec<(String, f64, String)>,
}

fn child(options: &RunAll, workload: &str, trace: bool) -> Result<Line, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.size == Size::Smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let number = |key: &str| {
        line.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: result line has no `{key}`"))
    };
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("{workload}: metric {name} is malformed")),
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(Line {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// Values of one metric over the repeats.
#[derive(Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
}

impl Series {
    /// The series with what the catalogue says about the metric.
    fn to_json(&self, about: Vec<(&'static str, Json)>) -> Json {
        let (q1, median, q3) = quartiles(&self.values);
        let mut pairs = vec![
            ("unit", Json::str(self.unit.as_str())),
            ("median", Json::Num(median)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            (
                "values",
                Json::Arr(self.values.iter().map(|v| Json::Num(*v)).collect()),
            ),
        ];
        pairs.extend(about);
        Json::obj(pairs)
    }

    fn print(&self, name: &str) {
        let (q1, median, q3) = quartiles(&self.values);
        if self.values.len() > 1 {
            println!(
                "  {name:<42} {median:>16.4} {:<6} [q1 {q1:.4}, q3 {q3:.4}, n {}]",
                self.unit,
                self.values.len()
            );
        } else {
            println!("  {name:<42} {median:>16.4} {}", self.unit);
        }
    }
}

pub fn run_all(options: &RunAll) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "e2e: seed {}, {} s per run, {} repeat(s), {} core(s){}",
        options.seed,
        options.seconds,
        options.repeat,
        nproc,
        if options.size == Size::Smoke {
            ", SMOKE scale"
        } else {
            ""
        }
    );

    let mut report = Vec::new();
    let mut any_failed = false;
    for (workload, why) in WORKLOADS {
        let mut end_to_end: BTreeMap<String, Series> = BTreeMap::new();
        let mut layers: BTreeMap<String, Series> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for _ in 0..options.repeat.max(1) {
            for (trace, into) in [(false, &mut end_to_end), (true, &mut layers)] {
                let line = child(options, workload, trace)?;
                attempted += line.attempted;
                failed += line.failed;
                for (name, value, unit) in line.metrics {
                    let series = into.entry(name).or_default();
                    series.unit = unit;
                    series.values.push(value);
                }
            }
        }
        any_failed |= failed > 0.0;

        println!("\n== {workload} — {why}");
        for metric in &END_TO_END {
            if let Some(series) = end_to_end.get(metric.name) {
                series.print(metric.name);
            }
        }
        println!(
            "  {:<42} {:>16.4} ratio  [{failed} of {attempted} statements]",
            "failed_frac",
            ratio(failed, attempted)
        );
        println!("  -- per layer (traced run)");
        for metric in per_layer() {
            // A class this workload does not have is not a row.
            match layers.get(&metric.name) {
                Some(series)
                    if !(metric.layer == "per class"
                        && series.values.iter().all(|v| *v == 0.0)) =>
                {
                    series.print(&metric.name)
                }
                _ => {}
            }
        }

        let end_to_end_section = END_TO_END
            .iter()
            .filter_map(|m| {
                let about = vec![
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                    ("meaning", Json::str(m.meaning)),
                ];
                Some((m.name.to_string(), end_to_end.get(m.name)?.to_json(about)))
            })
            .collect();
        let per_layer_section = per_layer()
            .into_iter()
            .filter_map(|m| {
                let about = vec![
                    ("better", Json::str(m.better.as_str())),
                    ("layer", Json::str(m.layer)),
                    ("should_move", Json::str(m.moves)),
                ];
                let series = layers.get(&m.name)?.to_json(about);
                Some((m.name, series))
            })
            .collect();
        report.push((
            workload.to_string(),
            Json::obj([
                ("why", Json::str(why)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::Obj(end_to_end_section)),
                ("per_layer", Json::Obj(per_layer_section)),
            ]),
        ));
    }

    // Smoke results never take the place of full ones: their own file
    // name, and marked inside.
    let smoke = options.size == Size::Smoke;
    let file = options
        .out_dir
        .join(if smoke { "e2e-smoke.json" } else { "e2e.json" });
    let document = Json::obj([
        ("smoke", Json::Bool(smoke)),
        ("seed", Json::Num(options.seed as f64)),
        ("run_seconds", Json::Num(options.seconds)),
        ("repeat", Json::Num(options.repeat as f64)),
        ("cores", Json::Num(nproc as f64)),
        ("workloads", Json::Obj(report)),
    ]);
    std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&file, document.to_pretty()))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("\nwrote {}", file.display());
    if any_failed {
        eprintln!("statements failed: on an unchanged tree that is a bug in the benchmark");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `BENCHMARK.json` as the catalogue defines it: the command, the
/// benchmark's directory, every workload with its reason, every metric
/// with unit, direction and bound.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "e2e/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["e2e"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `workload -> metric -> values` of a report file's end-to-end section.
fn end_to_end_of(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let document = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = document
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{path}: no `workloads` object"))?;
    let mut out = BTreeMap::new();
    for (workload, body) in workloads {
        let metrics = body
            .get("end_to_end")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: {workload} has no `end_to_end` object"))?;
        let mut by_metric = BTreeMap::new();
        for (metric, series) in metrics {
            let values: Vec<f64> = series
                .get("values")
                .and_then(Json::as_array)
                .map(|values| values.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            if values.is_empty() {
                return Err(format!("{path}: {workload}.{metric} has no values"));
            }
            by_metric.insert(metric.clone(), values);
        }
        out.insert(workload.clone(), by_metric);
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// A side's own runs spread wider than the bound: no verdict.
    Unresolved,
}

/// Judges `b` against `a` for one metric. Differences and spreads no
/// larger than `slack`, in the metric's own unit, are no difference at all.
pub fn judge(a: &[f64], b: &[f64], metric: &EndToEnd) -> (Verdict, f64) {
    let (better, bound) = (metric.better, metric.bound);
    let (a_q1, a_median, a_q3) = quartiles(a);
    let (b_q1, b_median, b_q3) = quartiles(b);
    let worse_by = match better {
        Better::Lower => ratio(b_median - a_median, a_median),
        Better::Higher => ratio(a_median - b_median, a_median),
    };
    let widest = (a_q3 - a_q1)
        .max(b_q3 - b_q1)
        .max((b_median - a_median).abs());
    let verdict = if widest <= metric.slack {
        Verdict::WithinBound
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let a = end_to_end_of(a_path)?;
    let b = end_to_end_of(b_path)?;
    println!("baseline {a_path}\nchange   {b_path}");
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "change", "worse by", "bound"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let series = |side: &BTreeMap<String, BTreeMap<String, Vec<f64>>>, path: &str| {
                side.get(workload)
                    .and_then(|w| w.get(metric.name))
                    .cloned()
                    .ok_or_else(|| format!("{path}: no {workload}.{}", metric.name))
            };
            let (a_values, b_values) = (series(&a, a_path)?, series(&b, b_path)?);
            let (verdict, worse_by) = judge(&a_values, &b_values, metric);
            let label = match verdict {
                Verdict::Better => "better",
                Verdict::WithinBound => "within bound",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            };
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{workload:<14} {:<22} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {label}",
                metric.name,
                quartiles(&a_values).1,
                quartiles(&b_values).1,
                worse_by * 100.0,
                metric.bound * 100.0,
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_names_all_four_outcomes() {
        let base = [100.0, 101.0, 99.0];
        let metric = |better, slack| EndToEnd {
            name: "m",
            unit: "us",
            better,
            bound: 0.10,
            slack,
            meaning: "",
        };
        let verdict = |b: &[f64], better| judge(&base, b, &metric(better, 0.0)).0;
        assert_eq!(
            verdict(&[104.0, 105.0, 103.0], Better::Lower),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&[120.0, 121.0, 119.0], Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[120.0, 121.0, 119.0], Better::Higher),
            Verdict::Better
        );
        assert_eq!(verdict(&[80.0, 81.0, 79.0], Better::Higher), Verdict::Worse);
        assert_eq!(
            verdict(&[60.0, 100.0, 140.0], Better::Lower),
            Verdict::Unresolved
        );
        // Twenty units apart is nothing when forty are slack.
        let slack = judge(&base, &[120.0, 121.0, 119.0], &metric(Better::Lower, 40.0)).0;
        assert_eq!(slack, Verdict::WithinBound);
    }
}
