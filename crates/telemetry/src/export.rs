//! Exporters over a drained [`Telemetry`] snapshot: a human-readable tree,
//! a JSONL event log, the Chrome `trace_event` format, and per-flow
//! summaries that mirror the workspace's `StageTiming` shape.

use std::collections::HashMap;
use std::fmt::Write as _;

use ilt_json::Json;

use crate::collect::{SpanEvent, Telemetry};
use crate::metrics::Histogram;
use crate::names;
use crate::span::FieldValue;

/// Summary of one stage span, with tile/assembly attribution derived from
/// its descendant spans.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage label (the `label` field of the stage span).
    pub label: String,
    /// Wall time of the stage span in seconds.
    pub seconds: f64,
    /// Number of descendant tile spans.
    pub tile_count: usize,
    /// Total seconds across descendant tile spans.
    pub tile_seconds: f64,
    /// Total seconds across descendant assembly spans.
    pub assembly_seconds: f64,
    /// Log-bucketed histogram of the descendant tile span durations in
    /// microseconds — the source of the stage's p50/p95/p99 exports.
    pub tile_us: Histogram,
}

impl StageSummary {
    /// Interpolated percentiles `(p50, p95, p99)` of the per-tile wall
    /// time in microseconds (0.0 for stages without tile spans).
    pub fn tile_us_percentiles(&self) -> (f64, f64, f64) {
        (
            self.tile_us.quantile_interpolated(0.5),
            self.tile_us.quantile_interpolated(0.95),
            self.tile_us.quantile_interpolated(0.99),
        )
    }
}

/// Summary of one flow span and its stages.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Flow name (the `name` field of the flow span).
    pub name: String,
    /// Wall time of the flow span in seconds.
    pub seconds: f64,
    /// One entry per stage span under the flow, in start order.
    pub stages: Vec<StageSummary>,
}

/// Span-tree index: indices of root events plus a parent-id → child-indices
/// map, both in start order (events are sorted by [`crate::drain`]).
struct TreeIndex {
    roots: Vec<usize>,
    children: HashMap<u64, Vec<usize>>,
}

fn index_tree(events: &[SpanEvent]) -> TreeIndex {
    let ids: std::collections::HashSet<u64> = events.iter().map(|e| e.id).collect();
    let mut roots = Vec::new();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.parent {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(i),
            _ => roots.push(i),
        }
    }
    TreeIndex { roots, children }
}

/// A short display label: the span name plus its identifying field, e.g.
/// `flow(ours)`, `stage(refine color 1)`, `tile(3)`.
fn display_label(e: &SpanEvent) -> String {
    let tag = match e.name {
        names::FLOW => e.field("name").and_then(|v| v.as_str()).map(str::to_string),
        names::STAGE => e
            .field("label")
            .and_then(|v| v.as_str())
            .map(str::to_string),
        names::JOB => e
            .field("job")
            .and_then(|v| v.as_u64())
            .map(|v| v.to_string()),
        names::TILE => e
            .field("tile")
            .and_then(|v| v.as_u64())
            .map(|v| v.to_string()),
        names::SOLVE => e
            .field("solver")
            .and_then(|v| v.as_str())
            .map(str::to_string),
        names::ANOMALY => e.field("kind").and_then(|v| v.as_str()).map(str::to_string),
        _ => None,
    };
    match tag {
        Some(tag) => format!("{}({})", e.name, tag),
        None => e.name.to_string(),
    }
}

impl From<&FieldValue> for Json {
    fn from(v: &FieldValue) -> Json {
        match v {
            FieldValue::U64(x) => Json::from(*x),
            FieldValue::I64(x) => Json::from(*x),
            FieldValue::F64(x) => Json::from(*x),
            FieldValue::Str(s) => Json::from(s.as_str()),
        }
    }
}

fn fields_json(fields: &[(&'static str, FieldValue)]) -> Json {
    fields.iter().map(|(k, v)| (*k, Json::from(v))).collect()
}

fn event_json(e: &SpanEvent) -> Json {
    Json::from_iter([
        ("type", Json::from("span")),
        ("id", e.id.into()),
        ("parent", e.parent.into()),
        ("trace", e.trace.into()),
        ("name", e.name.into()),
        ("thread", e.thread.into()),
        ("start_us", (e.start_ns / 1_000).into()),
        ("dur_us", (e.dur_ns / 1_000).into()),
        ("fields", fields_json(&e.fields)),
    ])
}

impl Histogram {
    /// The `count`/`sum`/`min`/`max`/`p50`/`p95`/`p99` members shared by
    /// JSONL `histogram` records and the `histograms` report section.
    pub fn summary_members(&self) -> [(&'static str, Json); 7] {
        [
            ("count", self.count().into()),
            ("sum", self.sum().into()),
            ("min", self.min().into()),
            ("max", self.max().into()),
            ("p50", self.quantile(0.5).into()),
            ("p95", self.quantile(0.95).into()),
            ("p99", self.quantile(0.99).into()),
        ]
    }
}

impl Telemetry {
    /// Renders the span tree (with counters and histograms) as an indented,
    /// human-readable report.
    pub fn render_tree(&self) -> String {
        let tree = index_tree(&self.events);
        let mut out = String::new();
        out.push_str("spans:\n");
        for &root in &tree.roots {
            render_node(&mut out, &self.events, &tree, root, 1);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: count={} p50={} p95={} p99={} max={} mean={:.1}",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max(),
                    h.mean()
                );
            }
        }
        out
    }

    /// Serialises the snapshot as JSON Lines: one `span` record per span
    /// (start order), then one `counter` record per counter and one
    /// `histogram` record per histogram.
    pub fn to_jsonl(&self) -> String {
        let scalar = |kind: &str, name: &str, value: Json| {
            Json::from_iter([
                ("type", Json::from(kind)),
                ("name", name.into()),
                ("value", value),
            ])
        };
        let spans = self.events.iter().map(event_json);
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| scalar("counter", name, (*v).into()));
        let gauges = self
            .gauges
            .iter()
            .map(|(name, v)| scalar("gauge", name, (*v).into()));
        let histograms = self.histograms.iter().map(|(name, h)| {
            let head = [
                ("type", Json::from("histogram")),
                ("name", name.as_str().into()),
            ];
            Json::from_iter(head.into_iter().chain(h.summary_members()))
        });
        let mut out = String::new();
        for record in spans.chain(counters).chain(gauges).chain(histograms) {
            let _ = writeln!(out, "{record}");
        }
        out
    }

    /// Renders counters and histograms in the Prometheus text exposition
    /// format (version 0.0.4), the shape `GET /metrics` endpoints serve.
    ///
    /// Metric names are the workspace's dotted counter/histogram names with
    /// every non-alphanumeric character mapped to `_` and an `ilt_` prefix
    /// (so `fft.forward` becomes `ilt_fft_forward`). Counters get a
    /// `_total` suffix; histograms are exported as `_count`/`_sum` plus
    /// `quantile`-labelled summary samples. Spans are not exported — they
    /// belong to traces, not scrape targets.
    pub fn to_prometheus(&self) -> String {
        fn metric_name(raw: &str) -> String {
            let mut name = String::with_capacity(raw.len() + 4);
            name.push_str("ilt_");
            for c in raw.chars() {
                name.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            name
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m}_total counter");
            let _ = writeln!(out, "{m}_total {v}");
        }
        for (name, v) in &self.gauges {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m} gauge");
            let _ = writeln!(out, "{m} {v}");
        }
        for (name, h) in &self.histograms {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m} summary");
            for (q, v) in [
                (0.5, h.quantile_interpolated(0.5)),
                (0.95, h.quantile_interpolated(0.95)),
                (0.99, h.quantile_interpolated(0.99)),
            ] {
                let _ = writeln!(out, "{m}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{m}_sum {}", h.sum());
            let _ = writeln!(out, "{m}_count {}", h.count());
        }
        out
    }

    /// Serialises the spans in the Chrome `trace_event` JSON format
    /// (load the file in `chrome://tracing` or Perfetto).
    pub fn to_chrome_trace(&self) -> String {
        let events = self.events.iter().map(|e| {
            Json::from_iter([
                ("name", display_label(e).into()),
                ("cat", e.name.into()),
                ("ph", "X".into()),
                ("pid", 1u64.into()),
                ("tid", e.thread.into()),
                ("ts", (e.start_ns / 1_000).into()),
                ("dur", (e.dur_ns / 1_000).into()),
                ("args", fields_json(&e.fields)),
            ])
        });
        Json::from_iter([("traceEvents", Json::Arr(events.collect()))]).to_string()
    }

    /// The span tree as nested JSON (used inside `report.json`).
    pub fn span_tree_json(&self) -> Json {
        span_forest_json(&self.events)
    }

    /// Derives per-flow summaries from the span tree: every `flow` span
    /// becomes a [`FlowSummary`], its child `stage` spans become
    /// [`StageSummary`] entries, and tile/assembly attribution comes from
    /// descendant `tile`/`assembly` spans (tiles may sit below `job` spans
    /// introduced by the executor).
    pub fn flow_summaries(&self) -> Vec<FlowSummary> {
        let tree = index_tree(&self.events);
        let mut flows = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.name != names::FLOW {
                continue;
            }
            let name = e
                .field("name")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            let mut stages = Vec::new();
            for &s in tree.children.get(&e.id).map_or(&[][..], |v| &v[..]) {
                let se = &self.events[s];
                if se.name != names::STAGE {
                    continue;
                }
                let label = se
                    .field("label")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
                let mut acc = StageAcc::default();
                sum_descendants(&self.events, &tree, s, &mut acc);
                stages.push(StageSummary {
                    label,
                    seconds: se.seconds(),
                    tile_count: acc.tile_count,
                    tile_seconds: acc.tile_seconds,
                    assembly_seconds: acc.assembly_seconds,
                    tile_us: acc.tile_us,
                });
            }
            flows.push(FlowSummary {
                name,
                seconds: self.events[i].seconds(),
                stages,
            });
        }
        flows
    }
}

fn render_node(out: &mut String, events: &[SpanEvent], tree: &TreeIndex, i: usize, depth: usize) {
    let e = &events[i];
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = writeln!(
        out,
        "{} {:.3} ms (t{})",
        display_label(e),
        e.dur_ns as f64 / 1e6,
        e.thread
    );
    if let Some(kids) = tree.children.get(&e.id) {
        for &k in kids {
            render_node(out, events, tree, k, depth + 1);
        }
    }
}

/// Any span slice as a nested JSON forest — the same shape as
/// [`Telemetry::span_tree_json`], usable over flight-recorder snapshots
/// (the `/debug/jobs/{id}/trace` endpoint) without building a
/// [`Telemetry`]. Events whose parent is absent from `events` become
/// roots; events should be sorted by `(start_ns, id)` for stable order.
pub fn span_forest_json(events: &[SpanEvent]) -> Json {
    let tree = index_tree(events);
    subtree_json(events, &tree, &tree.roots)
}

fn subtree_json(events: &[SpanEvent], tree: &TreeIndex, nodes: &[usize]) -> Json {
    let node = |i: usize| {
        let e = &events[i];
        let children = tree.children.get(&e.id).map_or(&[][..], |kids| &kids[..]);
        Json::from_iter([
            ("name", Json::from(e.name)),
            ("id", e.id.into()),
            ("trace", e.trace.into()),
            ("thread", e.thread.into()),
            ("seconds", e.seconds().into()),
            ("fields", fields_json(&e.fields)),
            ("children", subtree_json(events, tree, children)),
        ])
    };
    Json::Arr(nodes.iter().map(|&i| node(i)).collect())
}

/// Tile/assembly attribution accumulated over a stage's descendants.
#[derive(Default)]
struct StageAcc {
    tile_count: usize,
    tile_seconds: f64,
    assembly_seconds: f64,
    tile_us: Histogram,
}

/// Per-stage latency-budget attribution over a run: where the wall time
/// went, split along the axes the serving and scale-out work tune
/// (admission, kernel setup, which grid level, stitching).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyBudget {
    /// Time jobs spent queued before a worker picked them up, from the
    /// `serve.job.queue_us` histogram (0 outside server mode).
    pub queue_wait_s: f64,
    /// Time inside `build` spans (litho kernel-bank and inspection-system
    /// construction).
    pub kernel_build_s: f64,
    /// Tile-solve seconds under stages labelled `coarse*`.
    pub coarse_tiles_s: f64,
    /// Tile-solve seconds under stages labelled `fine*`.
    pub fine_tiles_s: f64,
    /// Tile-solve seconds under stages labelled `refine*`.
    pub refine_tiles_s: f64,
    /// Tile-solve seconds under stages with any other label.
    pub other_tiles_s: f64,
    /// Sequential assembly seconds across all stages.
    pub assembly_s: f64,
    /// Flow wall seconds across all flow spans.
    pub flow_total_s: f64,
}

impl LatencyBudget {
    /// Flow wall time not attributed to tiles or assembly (per-stage
    /// orchestration, partitioning, restriction/prolongation, ...).
    pub fn unattributed_s(&self) -> f64 {
        (self.flow_total_s
            - self.coarse_tiles_s
            - self.fine_tiles_s
            - self.refine_tiles_s
            - self.other_tiles_s
            - self.assembly_s)
            .max(0.0)
    }

    /// JSON object rendering (the `latency_budget` section of
    /// `ilt-report/v2`).
    pub fn to_json(&self) -> Json {
        Json::from_iter([
            ("queue_wait_s", self.queue_wait_s.into()),
            ("kernel_build_s", self.kernel_build_s.into()),
            ("coarse_tiles_s", self.coarse_tiles_s.into()),
            ("fine_tiles_s", self.fine_tiles_s.into()),
            ("refine_tiles_s", self.refine_tiles_s.into()),
            ("other_tiles_s", self.other_tiles_s.into()),
            ("assembly_s", self.assembly_s.into()),
            ("unattributed_s", self.unattributed_s().into()),
            ("flow_total_s", self.flow_total_s.into()),
        ])
    }
}

impl Telemetry {
    /// Derives the [`LatencyBudget`] from the snapshot's spans and the
    /// `serve.job.queue_us` histogram.
    pub fn latency_budget(&self) -> LatencyBudget {
        let mut budget = LatencyBudget::default();
        if let Some(h) = self.histograms.get("serve.job.queue_us") {
            budget.queue_wait_s = h.sum() as f64 / 1e6;
        }
        for e in &self.events {
            if e.name == names::BUILD {
                budget.kernel_build_s += e.seconds();
            }
        }
        for flow in self.flow_summaries() {
            budget.flow_total_s += flow.seconds;
            for stage in &flow.stages {
                let bucket = if stage.label.starts_with("coarse") {
                    &mut budget.coarse_tiles_s
                } else if stage.label.starts_with("fine") {
                    &mut budget.fine_tiles_s
                } else if stage.label.starts_with("refine") {
                    &mut budget.refine_tiles_s
                } else {
                    &mut budget.other_tiles_s
                };
                *bucket += stage.tile_seconds;
                budget.assembly_s += stage.assembly_seconds;
            }
        }
        budget
    }
}

fn sum_descendants(events: &[SpanEvent], tree: &TreeIndex, i: usize, acc: &mut StageAcc) {
    if let Some(kids) = tree.children.get(&events[i].id) {
        for &k in kids {
            match events[k].name {
                names::TILE => {
                    acc.tile_count += 1;
                    acc.tile_seconds += events[k].seconds();
                    acc.tile_us.record(events[k].dur_ns / 1_000);
                }
                names::ASSEMBLY => acc.assembly_seconds += events[k].seconds(),
                _ => {}
            }
            sum_descendants(events, tree, k, acc);
        }
    }
}
