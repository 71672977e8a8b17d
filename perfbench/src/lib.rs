//! End-to-end and per-layer benchmark of the dses simulation and
//! analysis stack: three closed-loop workloads (`sweep`, `replicate`,
//! `analytic`) driven through the crates' public API, a correctness pass
//! over every output, and a traced replay that splits the time by layer.
//! See `README.md` in this directory for the metric catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod alloc_count;
pub mod checks;
pub mod counting;
pub mod machine;
pub mod report;
pub mod run;
pub mod stats;
pub mod tracer;
pub mod workloads;
