//! Batch query engine over dataset partitions (paper §2.3, §3.4).
//!
//! The shape follows Hyracks' compiled jobs: per-partition pipelines of
//! operators over record batches, joined by exchanges. Everything the
//! paper's twelve evaluation queries need is here:
//!
//! * [`expr`] — expressions: column refs, constants, comparisons, path
//!   accesses, and the scalar/array functions the queries use;
//! * [`agg`] — aggregates with mergeable partial states (two-phase
//!   aggregation across partitions);
//! * [`plan`] — the query plan: a [`plan::ScanSpec`] (with the optimizer
//!   switches: access consolidation §3.4.2 and access pushdown/delay) and
//!   an operator pipeline;
//! * [`exec`] — the executor: per-partition pipelines (optionally on
//!   threads), a coordinator merging blocking operators, and the **schema
//!   broadcast** accounting for queries with non-local exchanges (§3.4.1);
//! * [`batch`] — the batched scan: one scan → filter → project loop with
//!   column buffers and a selection vector, over a batch source — decoded
//!   snapshot records, with lazy decode for survivors;
//! * [`columnar`] — the other batch source, one at-rest AMAX columnar
//!   component: typed columns straight from their pages, min/max group
//!   skipping, residual decode for survivors only;
//! * [`paper_queries`] — builders for Twitter Q1–Q4, WoS Q1–Q4, Sensors
//!   Q1–Q4, and the Fig 22 field-position probes.

pub mod agg;
pub mod batch;
pub mod columnar;
pub mod exec;
pub mod expr;
pub mod paper_queries;
pub mod plan;
pub mod sqlpp;

pub use exec::{execute, Engine, ExecOptions, ExecStats, QueryResult};
pub use expr::{CmpOp, Expr, Func};
pub use plan::{AccessStrategy, Op, Query, QueryOptions, ScanSpec};
