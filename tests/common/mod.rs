//! Helpers shared by integration tests (`mod common;`): the production
//! lane of the differential matrix. `aldsp-workload` cannot build the
//! optimizer (it does not depend on the crate), so the lane's engine is
//! made here.

use aldsp::core::QueryOptimizer;
use aldsp::driver::Connection;
use aldsp::optimizer::Optimizer;
use aldsp::plancache::PlanCache;
use aldsp::workload::{stats_for, Engine, Lane, Scale, Universe};
use aldsp::xquery::ast::{Content, Expr};
use aldsp::xquery::parse_program;
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

/// How many statements of `corpus` are, as `lane` plans them, programs of
/// that shape — the executions of an XML lane under the pipeline strategy
/// that must end in the XML sink.
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
        is_recordset_of_records(&parse_program(&xquery).expect("plans parse").body)
    });
    shaped.count() as u64
}
