//! # ilt-telemetry
//!
//! Observability for the multigrid-Schwarz ILT workspace: hierarchical
//! RAII spans, counters, and log-bucketed histograms, with human-readable,
//! JSONL, and Chrome `trace_event` exporters (JSON built as `ilt_json`
//! values, the workspace's only dependency here).
//!
//! ## Model
//!
//! * **Spans** form a tree (`flow → stage → job → tile → solve`): a
//!   [`SpanGuard`] opens a span on creation and records it when dropped (or
//!   when [`SpanGuard::end`] is called). The parent is the innermost span
//!   open on the current thread; worker pools carry the
//!   caller's span to worker threads with [`parent_scope`]. Spans carry
//!   structured key/value [`FieldValue`] fields.
//! * **Counters** ([`counter_add`]) and **histograms** ([`record_value`],
//!   power-of-two buckets with p50/p95/max summaries) cover hot paths where
//!   per-event spans would be too heavy (FFT calls, litho simulations,
//!   solver iterations, pixels assembled).
//! * Everything is collected **per thread** (no locks on the hot path) and
//!   merged into a process-global sink when the thread flushes — via
//!   [`flush_thread`], automatically when a [`ParentScope`] drops, or at
//!   thread exit as a backstop; [`drain`] takes the merged [`Telemetry`]
//!   snapshot.
//! * Every span carries a **trace id** attributing it to one job, bench
//!   case, or request: install one with [`trace_scope`] (an ambient
//!   thread-local, same pattern as `ilt_fault::deadline`), carry it to
//!   workers with [`current_trace`], and spans opened with neither a
//!   parent nor an ambient trace mint their own.
//!
//! ## Gating
//!
//! Spans are **always on**: every closed span lands in the bounded
//! [`flight`] recorder (drop-oldest ring, a few thousand recent spans), so
//! live introspection — `ilt-serve`'s `/debug/jobs/{id}/trace` — works
//! without restarting with tracing enabled. The `ILT_TRACE` flag
//! ([`init_from_env`]/[`set_enabled`]) gates the *unbounded* collection:
//! whether spans also reach the drainable sink, and whether counters,
//! gauges, and histograms record at all. When disabled those entry points
//! are no-ops behind a single relaxed atomic load, and [`drain`] stays
//! empty. [`SpanGuard`]s measure wall time regardless (an `Instant` is a
//! plain value), so flows derive their stage timings from the same guards
//! unconditionally.
//!
//! ## Example
//!
//! ```
//! use ilt_telemetry as tele;
//!
//! tele::set_enabled(true);
//! {
//!     let mut flow = tele::span(tele::names::FLOW);
//!     flow.add_field("name", "demo");
//!     let _stage = tele::span(tele::names::STAGE);
//!     tele::counter_add("fft.forward", 3);
//! }
//! let t = tele::drain();
//! tele::set_enabled(false);
//! assert_eq!(t.events.len(), 2);
//! assert_eq!(t.counters["fft.forward"], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambient;
mod collect;
mod export;
pub mod flight;
pub mod live;
mod metrics;
pub mod slo;
mod span;
mod trace;

pub use ambient::{AmbientContext, AmbientGuards};
pub use collect::{drain, flush_thread, snapshot, trace_counters, SpanEvent, Telemetry};
pub use export::{span_forest_json, FlowSummary, LatencyBudget, StageSummary};
pub use live::{sample_stacks, LiveFrame};
pub use metrics::{counter_add, gauge_add, gauge_set, record_value, Histogram};
pub use span::{
    current_span, parent_scope, record_span_at, span, FieldValue, ParentScope, SpanGuard, SpanRef,
};
pub use trace::{
    current_trace, current_trace_raw, new_trace_scope, next_trace_id, trace_scope, TraceId,
    TraceScope,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Conventional span names shared by the workspace, so exporters can
/// recognise the flow/stage/tile hierarchy without string coupling.
pub mod names {
    /// A whole optimisation flow (field `name` holds the flow identifier).
    pub const FLOW: &str = "flow";
    /// One stage of a flow (field `label` holds the stage label).
    pub const STAGE: &str = "stage";
    /// One executor job (field `job` holds the index).
    pub const JOB: &str = "job";
    /// One per-tile unit of work inside a stage (field `tile`).
    pub const TILE: &str = "tile";
    /// The sequential assembly that follows a stage's tile solves.
    pub const ASSEMBLY: &str = "assembly";
    /// A single-tile solver invocation.
    pub const SOLVE: &str = "solve";
    /// One served request in `ilt-serve` (fields `method`, `path`,
    /// `status`); job execution spans nest underneath it, so traces and
    /// diagnostics work unchanged in server mode.
    pub const REQUEST: &str = "request";
    /// A convergence anomaly detected by `ilt-diag` (fields `kind`,
    /// `flow`, `stage`, `tile`, `iteration`, `value`). Recorded as a
    /// zero-length span so anomalies sit inside the span tree at the
    /// moment they were detected.
    pub const ANOMALY: &str = "anomaly";
    /// A tile falling back to its coarse-grid mask after its fine-grid
    /// solve failed every retry (fields `flow`, `stage`, `tile`, `error`).
    /// Recorded as a zero-length span by `ilt-diag`.
    pub const DEGRADED: &str = "degraded";
    /// One serve job's execution, from worker pickup to completion
    /// (fields `job`, `target`, `method`, `scale`). The root of the job's
    /// trace; `queue` and `session` spans nest underneath.
    pub const SERVE_JOB: &str = "serve.job";
    /// Time a serve job spent queued before a worker picked it up
    /// (field `job`). Backfilled with [`crate::record_span_at`].
    pub const QUEUE: &str = "queue";
    /// One `Session::run_method` invocation (field `method`): the
    /// cache-amortised solve a serve job or bench case runs.
    pub const SESSION: &str = "session";
    /// Expensive one-off construction: litho kernel-bank or
    /// inspection-system builds (field `what`).
    pub const BUILD: &str = "build";
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Returns whether telemetry collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables collection. Prefer [`init_from_env`] in binaries;
/// this entry point exists for tests and embedding.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Reads `ILT_TRACE` and enables collection when it is `1`, `true`, `on`,
/// or `yes` (case-insensitive). Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    let on = std::env::var("ILT_TRACE")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            matches!(v.as_str(), "1" | "true" | "on" | "yes")
        })
        .unwrap_or(false);
    set_enabled(on);
    on
}

/// The process-wide time origin all span timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}
