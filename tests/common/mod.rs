//! Helpers shared by integration tests (`mod common;`): the production
//! lane of the differential matrix. `aldsp-workload` cannot build the
//! optimizer (it does not depend on the crate), so the lane's engine is
//! made here.

use aldsp::optimizer::Optimizer;
use aldsp::workload::{stats_for, Engine, Lane, Scale};
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
