//! # aldsp-bench — shared fixtures for benchmarks and the experiment
//! harness.
//!
//! One bench target per experiment in `EXPERIMENTS.md` (E1–E4), plus the
//! `harness` binary that prints every experiment's table in one run.

use aldsp_catalog::{CachedMetadataApi, InProcessMetadataApi, TableLocator};
use aldsp_core::{TranslationOptions, Transport};
use aldsp_driver::{Connection, DspServer};
use aldsp_optimizer::Optimizer;
use aldsp_workload::{build_application, stats_for, Engine, Lane, Scale, Universe};
use std::sync::Arc;
use std::time::Duration;

/// Builds a populated server at the given customer count.
pub fn server_at_scale(customers: usize, seed: u64) -> Arc<DspServer> {
    Universe::generated(Scale::of(customers), seed).server
}

/// The universe's catalog behind a fresh metadata cache, served in process
/// with no latency.
pub fn demo_metadata() -> CachedMetadataApi<InProcessMetadataApi> {
    let locator = TableLocator::for_application(&build_application());
    CachedMetadataApi::new(InProcessMetadataApi::new(locator))
}

/// The rewrite engine production runs at `scale`: seeded with the
/// universe's statistics, validation gate on — what
/// `e2e/src/sut.rs::Sut::open` builds. (`aldsp-workload` does not depend on
/// the optimizer crate, so the matrix's lanes get their engine here.)
pub fn production_engine(scale: Scale) -> Engine {
    Arc::new(Optimizer::new(stats_for(scale)).with_validation(true))
}

/// The differential matrix's production lane on both transports.
pub fn production_lanes(scale: Scale) -> Vec<Lane> {
    Lane::both(|transport| Lane::production(transport, production_engine(scale)))
}

/// Opens a connection with a given transport (no metadata latency).
pub fn connect(server: &Arc<DspServer>, transport: Transport) -> Connection {
    Connection::open_with(
        Arc::clone(server),
        TranslationOptions::with_transport(transport),
        Duration::ZERO,
    )
}

/// Produces the transport payload for a query (server side included), so
/// decode-side benchmarks can isolate driver work — the paper's §4 claim
/// is specifically about client-side materialization/parsing overhead.
pub fn payload_for(
    server: &Arc<DspServer>,
    transport: Transport,
    sql: &str,
) -> (String, Vec<aldsp_core::OutputColumn>) {
    let conn = connect(server, transport);
    let translation = conn.create_statement().explain(sql).unwrap();
    let payload = server
        .execute_to_payload_governed_with(&translation.xquery, &[], None, None, Default::default())
        .unwrap();
    (payload, translation.columns)
}

/// A projection query over CUSTOMERS with the given column count (2, 4,
/// or 5), used by the E1 sweep.
pub fn projection_query(columns: usize) -> &'static str {
    match columns {
        2 => "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS",
        4 => "SELECT CUSTOMERID, CUSTOMERNAME, REGION, CREDIT FROM CUSTOMERS",
        _ => "SELECT CUSTOMERID, CUSTOMERNAME, REGION, CREDIT, SIGNUP FROM CUSTOMERS",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_payloads() {
        let server = server_at_scale(20, 1);
        let (xml, columns) = payload_for(&server, Transport::Xml, projection_query(2));
        assert!(xml.starts_with("<RECORDSET>"));
        assert_eq!(columns.len(), 2);
        let (text, _) = payload_for(&server, Transport::DelimitedText, projection_query(2));
        assert!(text.starts_with('>'));
        assert!(text.len() < xml.len(), "text transport must be smaller");
    }
}
