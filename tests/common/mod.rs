//! Helpers shared by integration tests (`mod common;`): the production
//! lane of the differential matrix — `aldsp-workload` cannot build the
//! optimizer (it does not depend on the crate), so the lane's engine is
//! made here — and the byte-level mutator of decoder inputs.

use aldsp::core::QueryOptimizer;
use aldsp::driver::Connection;
use aldsp::optimizer::Optimizer;
use aldsp::plancache::PlanCache;
use aldsp::workload::{stats_for, Engine, Lane, Scale, Universe};
use aldsp::xquery::ast::{Clause, Content, Expr};
use aldsp::xquery::parse_program;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// The rewrite engine production runs at `scale`: seeded with the
/// universe's statistics, validation gate on — what
/// `e2e/src/sut.rs::Sut::open` builds.
pub fn engine(scale: Scale) -> Engine {
    Arc::new(Optimizer::new(stats_for(scale)).with_validation(true))
}

/// [`Lane::production`] on both transports at `scale`.
#[allow(dead_code)] // not every test binary runs both transports
pub fn production(scale: Scale) -> Vec<Lane> {
    Lane::both(|transport| Lane::production(transport, engine(scale)))
}

/// Whether `body` is `<RECORDSET>{ FLWOR return <RECORD>… }</RECORDSET>`:
/// an attribute-less constructor around one FLWOR that returns a
/// constructor — what stage 3 emits for a statement that does not end in
/// ORDER BY, DISTINCT or a set operation, and the body the engine's XML
/// sink (and, as the wrapper's view, its fused text sink) runs. Read off
/// the AST here, not asked of the engine.
#[allow(dead_code)]
pub fn is_recordset_of_records(body: &Expr) -> bool {
    let Expr::Element(ctor) = body else {
        return false;
    };
    match ctor.content.as_slice() {
        [Content::Enclosed(Expr::Flwor(flwor))] if ctor.attributes.is_empty() => {
            matches!(&*flwor.ret, Expr::Element(_))
        }
        _ => false,
    }
}

/// Whether `body` is a sink's: [`is_recordset_of_records`], or a
/// `<RECORDSET>` around a sort or set wrapper — one FLWOR that returns its
/// row variable — that keeps every row its `SRC` yields. What stage 3 emits
/// for every statement but INTERSECT and EXCEPT without ALL, whose wrapper
/// filters its rows with a `where`. Read off the AST here too.
#[allow(dead_code)]
pub fn is_sunk_body(body: &Expr) -> bool {
    let Expr::Element(ctor) = body else {
        return false;
    };
    let wrapper = match ctor.content.as_slice() {
        [Content::Enclosed(Expr::Flwor(flwor))] if ctor.attributes.is_empty() => {
            let filters = flwor.clauses.iter().any(|c| matches!(c, Clause::Where(_)));
            matches!(&*flwor.ret, Expr::VarRef(_)) && !filters
        }
        _ => false,
    };
    wrapper || is_recordset_of_records(body)
}

/// How many statements of `corpus` are, as `lane` plans them, programs a
/// sink writes ([`is_sunk_body`]) — the executions of an XML lane under the
/// pipeline strategy that must end in the XML sink.
#[allow(dead_code)]
pub fn xml_sink_bodies(universe: &Universe, corpus: &[(String, String)], lane: &Lane) -> u64 {
    let conn = Connection::open(Arc::clone(&universe.server));
    let cache = PlanCache::default();
    let translator = conn.translator();
    let shaped = corpus.iter().filter(|(origin, sql)| {
        let planned = if lane.cache {
            let optimizer = lane.optimizer.as_deref().map(|o| o as &dyn QueryOptimizer);
            cache
                .plan_with(translator, sql, lane.options, optimizer)
                .map(|(bound, _)| bound.plan.translation.xquery.clone())
        } else {
            translator
                .translate_full(sql, lane.options)
                .map(|full| full.translation.xquery)
        };
        let xquery = planned.unwrap_or_else(|e| panic!("{origin}: `{sql}`: {e}"));
        is_sunk_body(&parse_program(&xquery).expect("plans parse").body)
    });
    shaped.count() as u64
}

/// Punctuation of all four grammars, NUL, and bytes that are not UTF-8.
const ALPHABET: &[u8] = b"()[]{}<>&;,.'\"`$@:=!*/+-|%_?#~^\\ \t\n\0\x80\xbf\xc3\xe2\xf0\xff";

/// One to four byte-level edits of `seed`: delete, insert, overwrite,
/// truncate, duplicate a slice, splice in a slice of `other`.
#[allow(dead_code)]
pub fn mutate(rng: &mut StdRng, seed: &[u8], other: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        let span = |rng: &mut StdRng, from: &[u8]| {
            let start = rng.gen_range(0..=from.len());
            let end = (start + rng.gen_range(0..=24)).min(from.len());
            from[start..end].to_vec()
        };
        match rng.gen_range(0..6) {
            0 => {
                let end = (at + rng.gen_range(1..=8)).min(bytes.len());
                bytes.drain(at..end);
            }
            1 => {
                for _ in 0..rng.gen_range(1..=4) {
                    bytes.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]);
                }
            }
            2 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                }
            }
            3 => bytes.truncate(at),
            4 => {
                let slice = span(rng, &bytes);
                bytes.splice(at..at, slice);
            }
            _ => {
                let slice = span(rng, other);
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes
}
