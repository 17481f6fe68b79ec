//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Every span carries the statement it belongs to and the span that caused
//! it. Spans stay in memory during the run and are written out once, when
//! it ends.

use crate::json::Json;
use std::time::Instant;

/// Span names, one per boundary the re-enactment crosses.
pub mod name {
    /// Root of one traced statement.
    pub const STATEMENT: &str = "statement";
    pub const SQL_PARSE: &str = "sql.parse";
    pub const ADMIT: &str = "governor.admit";
    pub const PLAN_EXACT: &str = "plancache.plan.exact_hit";
    pub const PLAN_NORMALIZED: &str = "plancache.plan.normalized_hit";
    pub const PLAN_MISS: &str = "plancache.plan.miss";
    /// Children of a miss: the translation and optimization the cache ran
    /// inside `plan_with`, run once more where they can be timed.
    pub const TRANSLATE: &str = "core.translate";
    pub const STAGE1: &str = "core.stage1";
    pub const STAGE2: &str = "core.stage2";
    pub const STAGE3: &str = "core.stage3";
    pub const OPTIMIZE: &str = "optimizer.optimize";
    pub const RESOLVE_ARGS: &str = "plancache.resolve_args";
    pub const XQ_PARSE: &str = "xquery.parser.parse";
    pub const EVAL: &str = "xquery.eval";
    pub const SERIALIZE: &str = "xml.serialize";
    /// Freeing the parsed program and the result sequence.
    pub const RELEASE: &str = "xquery.eval.release";
    pub const DECODE: &str = "driver.resultset.decode";
    /// Whole calls, for the time the layers above do not account for.
    pub const SERVER_EXECUTE: &str = "driver.server.execute";
    pub const SERVICE_EXECUTE: &str = "driver.service.execute";
    /// A data-service function call that finds nothing materialized.
    pub const MATERIALIZE: &str = "driver.server.materialize";
}

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Shared by all spans of one statement; `None` for set-up work.
    pub statement: Option<u32>,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        statement: Option<u32>,
        parent: Option<SpanId>,
        name: &'static str,
    ) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            statement,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Names a span after the fact: the plan-cache lookup learns whether it
    /// hit only when it returns.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(self.spans[parent].statement, Some(parent), name);
        let value = f();
        self.close(id);
        value
    }

    /// Records a child whose duration was measured by the callee
    /// (`StageTimings`), laid out from `start_ns`; returns where it ends.
    pub fn add_measured(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start_ns: u64,
        nanos: u64,
    ) -> u64 {
        self.spans.push(Span {
            statement: self.spans[parent].statement,
            parent: Some(parent),
            name,
            start_ns,
            end_ns: start_ns + nanos,
        });
        start_ns + nanos
    }

    /// Durations in µs of every span called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// The span dump: `[statement, parent, name, start_ns, end_ns]` rows
    /// under a header naming the columns.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let id = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "columns",
                Json::Arr(
                    ["statement", "parent", "name", "start_ns", "end_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                id(s.statement.map(|v| v as usize)),
                                id(s.parent),
                                Json::str(s.name),
                                Json::Num(s.start_ns as f64),
                                Json::Num(s.end_ns as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_statement_and_name_their_parent() {
        let mut tracer = Tracer::new();
        let root = tracer.open(Some(3), None, name::STATEMENT);
        let answer = tracer.time(root, name::EVAL, || 42);
        let end = tracer.add_measured(root, name::STAGE1, 10, 5);
        tracer.close(root);
        assert_eq!((answer, end), (42, 15));
        assert_eq!(tracer.spans[1].parent, Some(root));
        assert_eq!(tracer.spans[1].statement, Some(3));
        assert_eq!(tracer.micros_of(name::STAGE1), vec![0.005]);
        assert!(tracer.spans[root].end_ns >= tracer.spans[1].end_ns);
        let dump = tracer.to_json("w", 7).to_line();
        assert!(dump.contains("\"xquery.eval\""), "{dump}");
    }
}
