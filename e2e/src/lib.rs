//! # aldsp-e2e — the layered end-to-end benchmark
//!
//! SQL text in, decoded rows out, through the production configuration,
//! on five workloads, every answer checked against the relational oracle.
//! See `README.md` beside this crate for the metric and workload tables.
//!
//! * [`workloads`] — statements, classes and the seeded schedule.
//! * [`sut`] — every call into the product crates, and nothing else.
//! * [`run`](mod@run) — one run of one workload: set-up, verification, timed
//!   windows or traced pass.
//! * [`window`] — the closed-loop clients of a timed window, and the
//!   selection of its quiet slices.
//! * [`trace`], [`layers`] — spans, and the per-layer metrics read off them.
//! * [`metrics`] — the catalogue of metric names, units, bounds.
//! * [`report`] — all workloads from one command, `--repeat`, `compare`.
//! * [`stats`], [`json`] — the shared helpers.

pub mod alloc;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod window;
pub mod workloads;
