//! The timed part of a run: closed-loop clients, and what is read off
//! their latencies.
//!
//! The reference box is a small shared virtual machine. Its cores run at
//! full speed for a while, then 20–30 % slower for seconds at a time,
//! whatever the benchmark does; the plain median of a ten-second window
//! follows the mix of the two states it happened to see and differs by 10 %
//! and more between runs of the same program. That noise only ever slows a
//! statement down, and it does not know which statement it hits. So
//! latencies are kept per *kind* of execution — a statement, and for
//! `reload_churn` whether it is the statement's first execution after a
//! write — and each kind is summed up by an order statistic:
//!
//! * with **one client**, its **floor**: the fastest execution seen. A
//!   kind that runs thousands of times meets a quiet moment in every run,
//!   and its floor repeats within a percent; what the statement does —
//!   hit or miss, small result or large — is in the floor, what the
//!   neighbours did is not;
//! * with **two clients**, its **median**: waiting for the other client is
//!   what that phase is there to measure, and a floor would pick the
//!   executions that did not wait.
//!
//! The end-to-end metrics are then statistics over the mix: each kind's
//! figure weighted by how often the kind ran.
//!
//! The 1-client and 2-client segments alternate through the run, so each
//! phase samples the machine at many moments.

use crate::stats::{percentile, ratio, sorted, weighted_quantile};
use crate::sut::{Rows, Sut};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Barrier, RwLock};
use std::time::{Duration, Instant};

/// Segments per phase.
pub const ROUNDS: u32 = 16;

/// Statements attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }
}

/// Which order statistic stands for a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    Floor,
    Median,
}

/// One kind of execution, summed up.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Kind {
    statement: usize,
    count: usize,
    floor_us: f64,
    median_us: f64,
}

impl Kind {
    fn pick(&self, pick: Pick) -> f64 {
        match pick {
            Pick::Floor => self.floor_us,
            Pick::Median => self.median_us,
        }
    }
}

/// Latencies in ns by kind: kind `i` is statement `i`, kind `n + i` is
/// statement `i` run for the first time after a write. Four bytes a
/// sample, so that the benchmark's own bookkeeping stays small beside the
/// memory `peak_rss_mb` is there to see.
type Latencies = Vec<Vec<u32>>;

/// A phase, summed up per kind.
#[derive(Debug, Default)]
pub struct Summary {
    clients: usize,
    kinds: Vec<Kind>,
}

impl Summary {
    fn new(clients: usize, statements: usize, latencies: &Latencies) -> Summary {
        let kinds = latencies
            .iter()
            .enumerate()
            .filter(|(_, nanos)| !nanos.is_empty())
            .map(|(kind, nanos)| {
                let us = sorted(nanos.iter().map(|&n| f64::from(n) / 1e3).collect());
                Kind {
                    statement: kind % statements,
                    count: us.len(),
                    floor_us: us[0],
                    median_us: percentile(&us, 0.5),
                }
            })
            .collect();
        Summary { clients, kinds }
    }

    /// Statements completed.
    pub fn samples(&self) -> usize {
        self.kinds.iter().map(|k| k.count).sum()
    }

    /// The `q` quantile over the mix: each kind's figure, as often as the
    /// kind ran.
    pub fn quantile(&self, q: f64, pick: Pick) -> f64 {
        weighted_quantile(
            self.kinds.iter().map(|k| (k.pick(pick), k.count)).collect(),
            q,
        )
    }

    /// Statements per second. A closed-loop client is always inside a
    /// statement, so `clients` clients complete `clients * n / (sum of
    /// latencies)` a second.
    pub fn per_second(&self, pick: Pick) -> f64 {
        let busy_us: f64 = self
            .kinds
            .iter()
            .map(|k| k.pick(pick) * k.count as f64)
            .sum();
        ratio((self.clients * self.samples()) as f64 * 1e6, busy_us)
    }

    /// The mix median within each statement class.
    pub fn class_p50(&self, workload: &Workload, pick: Pick) -> BTreeMap<&'static str, f64> {
        let mut by_class: BTreeMap<&'static str, Vec<(f64, usize)>> = BTreeMap::new();
        for kind in &self.kinds {
            by_class
                .entry(workload.statements[kind.statement].class)
                .or_default()
                .push((kind.pick(pick), kind.count));
        }
        by_class
            .into_iter()
            .map(|(class, kinds)| (class, weighted_quantile(kinds, 0.5)))
            .collect()
    }
}

/// The timed part of a run, summed up.
pub struct Timed {
    pub one: Summary,
    pub two: Summary,
    pub tally: Tally,
}

/// What the clients of a run share.
pub struct Shared<'a> {
    sut: &'a Sut,
    workload: &'a Workload,
    /// Verified row count of each statement.
    expected: &'a [AtomicUsize],
    /// Readers hold it for a statement, the writer for a write and the
    /// re-verification after it: a reader never meets a row count the
    /// oracle has not confirmed yet.
    gate: RwLock<()>,
    /// Writes so far, and for each statement the number of writes there
    /// had been when it last ran: a statement that runs with a stale
    /// number is the first to meet the new epoch.
    writes: AtomicU32,
    seen: Vec<AtomicU32>,
}

impl<'a> Shared<'a> {
    pub fn new(sut: &'a Sut, workload: &'a Workload, expected: &'a [AtomicUsize]) -> Shared<'a> {
        Shared {
            sut,
            workload,
            expected,
            gate: RwLock::new(()),
            writes: AtomicU32::new(0),
            seen: workload
                .statements
                .iter()
                .map(|_| AtomicU32::new(0))
                .collect(),
        }
    }

    /// A warm-up, then [`ROUNDS`] rounds of a 1-client and a 2-client
    /// segment; the three shares are of `seconds`. Never more client
    /// threads than cores.
    pub fn timed(&self, seconds: f64, warm_up: f64, one: f64, two: f64) -> Timed {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let clients = 2.min(cores);
        let share = |share: f64| Duration::from_secs_f64(seconds * share);
        let plan = Plan {
            clients,
            warm_up: share(warm_up),
            one: share(one) / ROUNDS,
            two: share(two) / ROUNDS,
            barrier: Barrier::new(clients),
            cursor: AtomicUsize::new(0),
        };
        // The client threads live for the whole run: a thread's allocator
        // arena is warm after its first statements, and a fresh thread per
        // segment would pay for that again each time.
        let logs: Vec<Log> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|k| {
                    let plan = &plan;
                    scope.spawn(move || self.worker(k, plan))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });

        let statements = self.workload.statements.len();
        let mut timed = Timed {
            one: Summary::default(),
            two: Summary::default(),
            tally: Tally::default(),
        };
        let mut merged = [self.no_latencies(), self.no_latencies()];
        for log in logs {
            timed.tally.absorb(log.tally);
            for (all, new) in merged.iter_mut().zip([log.one, log.two]) {
                for (all, new) in all.iter_mut().zip(new) {
                    all.extend(new);
                }
            }
        }
        let [one, two] = merged;
        timed.one = Summary::new(1, statements, &one);
        timed.two = Summary::new(clients, statements, &two);
        timed
    }

    fn no_latencies(&self) -> Latencies {
        vec![Vec::new(); 2 * self.workload.statements.len()]
    }

    /// Client `k`'s whole run. Client 0 warms up and runs the 1-client
    /// segments while the others wait at the barrier; everyone runs the
    /// 2-client segments.
    fn worker(&self, k: usize, plan: &Plan) -> Log {
        let mut log = Log {
            one: self.no_latencies(),
            two: self.no_latencies(),
            tally: Tally::default(),
        };
        // Every segment carries on where the last one stopped, so a
        // workload larger than the plan cache keeps cycling through it.
        let mut at = 0;
        if k == 0 {
            let (mut unused, mut untallied) = (self.no_latencies(), Tally::default());
            self.client(k, &mut at, plan.warm_up, &mut unused, &mut untallied);
        }
        for _ in 0..ROUNDS {
            if k == 0 {
                self.client(k, &mut at, plan.one, &mut log.one, &mut log.tally);
                plan.cursor.store(at, Ordering::Relaxed);
            }
            plan.barrier.wait();
            if k != 0 {
                // `k/n` of the schedule ahead of client 0.
                at = plan.cursor.load(Ordering::Relaxed)
                    + k * self.workload.schedule.len() / plan.clients;
            }
            self.client(k, &mut at, plan.two, &mut log.two, &mut log.tally);
            plan.barrier.wait();
        }
        log
    }

    /// One closed loop for `length`, from `at` in the schedule: the next
    /// statement goes out when the previous one has been decoded.
    fn client(
        &self,
        k: usize,
        at: &mut usize,
        length: Duration,
        latencies: &mut Latencies,
        tally: &mut Tally,
    ) {
        let schedule = &self.workload.schedule;
        let statements = self.workload.statements.len();
        // Only client 0 writes.
        let churn = self.workload.churn.filter(|_| k == 0);
        let mut since_write = 0;
        let start = Instant::now();
        // Times one statement; `verify` gets its rows once the clock has
        // stopped. The caller holds the gate.
        let mut run = |statement: usize, verify: &dyn Fn(Rows) -> Result<(), String>| {
            // Only a workload that writes has executions after a write;
            // the others keep off the shared counters.
            let after_write = self.workload.churn.is_some() && {
                let writes = self.writes.load(Ordering::Relaxed);
                self.seen[statement].swap(writes, Ordering::Relaxed) != writes
            };
            let sent = Instant::now();
            let rows = self.sut.run(statement);
            let done = Instant::now();
            let nanos = u32::try_from((done - sent).as_nanos()).unwrap_or(u32::MAX);
            latencies[statement + if after_write { statements } else { 0 }].push(nanos);
            tally.attempted += 1;
            if let Err(reason) = rows.and_then(verify) {
                tally.fail(reason);
            }
            done
        };
        loop {
            let statement = schedule[*at % schedule.len()];
            *at += 1;
            let done = {
                let _reading = self.gate.read().expect("no client panics holding the gate");
                run(statement, &|rows| {
                    let verified = self.expected[statement].load(Ordering::Relaxed);
                    if rows.count() == verified {
                        Ok(())
                    } else {
                        Err(format!(
                            "statement {statement}: {} rows, verified {verified}",
                            rows.count()
                        ))
                    }
                })
            };
            if done - start >= length {
                break;
            }
            since_write += 1;
            if let Some(churn) = churn.filter(|c| since_write == c.every) {
                since_write = 0;
                let _writing = self
                    .gate
                    .write()
                    .expect("no client panics holding the gate");
                self.sut.insert_order(churn.custid);
                self.writes.fetch_add(1, Ordering::Relaxed);
                // The first read after the write is a timed statement like
                // any other; checking it against the oracle is not.
                run(churn.touched, &|rows| {
                    self.sut
                        .check(churn.touched, &rows)
                        .map_err(|reason| format!("stale read after a write: {reason}"))?;
                    self.expected[churn.touched].store(rows.count(), Ordering::Relaxed);
                    Ok(())
                });
            }
        }
    }
}

/// What the client threads of a run agree on.
struct Plan {
    clients: usize,
    warm_up: Duration,
    /// Length of one 1-client segment, and of one 2-client segment.
    one: Duration,
    two: Duration,
    /// Met before and after every 2-client segment.
    barrier: Barrier,
    /// Where in the schedule client 0 stands.
    cursor: AtomicUsize,
}

/// What one client thread brings back.
struct Log {
    one: Latencies,
    two: Latencies,
    tally: Tally,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Lane, Scale, Statement};

    fn workload() -> Workload {
        let statement = |class| Statement {
            class,
            lane: Lane::Text,
            sql: String::new(),
            params: vec![],
        };
        Workload {
            name: "test",
            scale: Scale::Small,
            statements: vec![statement("cheap"), statement("dear")],
            schedule: vec![0, 1],
            churn: None,
        }
    }

    #[test]
    fn floors_ignore_slow_moments_and_medians_do_not() {
        // Statement 0 takes 10 us, statement 1 100 us; most executions
        // land in a slow moment. Kind 2 is statement 0 after a write:
        // always dear, and rare.
        let latencies: Latencies = vec![
            vec![10_000, 13_000, 10_000, 13_000, 13_000],
            vec![100_000, 130_000, 130_000],
            vec![500_000],
            vec![],
        ];
        let summary = Summary::new(1, 2, &latencies);
        assert_eq!(summary.samples(), 9);
        // The cheap kind holds the first five ninths of the mix.
        assert_eq!(summary.quantile(0.25, Pick::Floor), 10.0);
        assert_eq!(summary.quantile(0.25, Pick::Median), 13.0);
        assert_eq!(summary.quantile(6.5 / 9.0, Pick::Floor), 100.0);
        assert_eq!(summary.quantile(0.95, Pick::Floor), 500.0);
        // 5 x 10 + 3 x 100 + 1 x 500 us for 9 statements.
        assert!((summary.per_second(Pick::Floor) - 9.0 / 850e-6).abs() < 1e-6);
        // A class is its statement's kinds: "cheap" is five executions at
        // 10 us and the one after the write, and its median leans a sixth
        // of the way from the first's middle to the second's.
        let classes = summary.class_p50(&workload(), Pick::Floor);
        assert!((classes["cheap"] - (10.0 + 490.0 / 6.0)).abs() < 1e-9);
        assert_eq!(classes["dear"], 100.0);
    }

    #[test]
    fn two_clients_complete_twice_as_much() {
        let latencies: Latencies = vec![vec![20_000; 4], vec![]];
        let one = Summary::new(1, 1, &latencies).per_second(Pick::Median);
        let two = Summary::new(2, 1, &latencies).per_second(Pick::Median);
        assert!((one - 50_000.0).abs() < 1e-6 && (two - 100_000.0).abs() < 1e-6);
        assert_eq!(Summary::default().quantile(0.5, Pick::Floor), 0.0);
        assert_eq!(Summary::default().per_second(Pick::Floor), 0.0);
    }
}
