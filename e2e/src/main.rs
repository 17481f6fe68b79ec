//! Command line of the end-to-end benchmark.
//!
//! ```text
//! aldsp-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! aldsp-e2e run [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke]
//! aldsp-e2e compare <a.json> <b.json>
//! aldsp-e2e manifest
//! ```

use aldsp_e2e::report;
use aldsp_e2e::run::{self, Config};
use aldsp_e2e::workloads::Size;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: aldsp_e2e::alloc::Counting = aldsp_e2e::alloc::Counting;

const USAGE: &str = "usage:
  aldsp-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
      one run of one workload; the last line of output is the result as JSON
  aldsp-e2e run [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke]
      every workload, timed and traced, each in a process of its own;
      prints every metric and writes target/bench/e2e.json
  aldsp-e2e compare <a.json> <b.json>
      one row per workload and end-to-end metric: better, within bound,
      worse or unresolved; fails on any worse row
  aldsp-e2e manifest
      prints BENCHMARK.json as the metric catalogue defines it";

/// `--name value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => parsed.flags.push(("smoke".into(), "1".into())),
                Some(name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.flags.push((name.to_string(), value));
                }
                None => parsed.words.push(arg),
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read `{v}`"))
            })
            .transpose()
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !names.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

fn size(args: &Args) -> Size {
    if args.flags.iter().any(|(n, _)| n == "smoke") {
        Size::Smoke
    } else {
        Size::Full
    }
}

fn main_inner(process_start: Instant) -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let out_dir = PathBuf::from("target/bench");
    match args.words.first().map(String::as_str) {
        None => {
            args.known(&["workload", "seed", "seconds", "trace", "smoke"])?;
            let seconds: f64 = args.get("seconds")?.ok_or("--seconds is required")?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err("--seconds must be in (0, 600]".into());
            }
            let config = Config {
                workload: args.get("workload")?.ok_or("--workload is required")?,
                seed: args.get("seed")?.ok_or("--seed is required")?,
                seconds,
                trace: match args.get::<u8>("trace")?.ok_or("--trace is required")? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                },
                size: size(&args),
                out_dir,
                process_start,
            };
            let outcome = run::run(&config)?;
            for failure in &outcome.failures {
                eprintln!("FAILED: {failure}");
            }
            println!("{}", outcome.to_json().to_line());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") if args.words.len() == 1 => {
            args.known(&["seed", "seconds", "repeat", "smoke"])?;
            let size = size(&args);
            let options = report::RunAll {
                seed: args.get("seed")?.unwrap_or(7),
                seconds: args.get("seconds")?.unwrap_or(match size {
                    Size::Full => report::RUN_SECONDS,
                    Size::Smoke => 0.4,
                }),
                repeat: args.get("repeat")?.unwrap_or(1),
                size,
                out_dir,
            };
            report::run_all(&options)
        }
        Some("compare") if args.words.len() == 3 && args.flags.is_empty() => {
            report::compare(&args.words[1], &args.words[2])
        }
        Some("manifest") if args.words.len() == 1 && args.flags.is_empty() => {
            print!("{}", report::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match main_inner(process_start) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
