//! Renderers for the live `/debug` introspection endpoints.
//!
//! Everything here reads *copies* — a flight-recorder snapshot, a job-list
//! excerpt, cache counts — gathered by the route handler in one short
//! registry lock, so rendering never holds a job-path lock. The functions
//! take plain data and return JSON values, which keeps them unit-testable
//! without a running server.

use std::collections::BTreeMap;

use ilt_json::Json;
use ilt_store::{EntryView, StoreStats};
use ilt_telemetry as tele;

/// One job's debug-view row (a cheap excerpt of the tracked record).
#[derive(Debug, Clone)]
pub(crate) struct JobDebug {
    pub id: u64,
    pub trace: u64,
    pub status: &'static str,
    pub target: String,
    pub method: &'static str,
    /// Milliseconds since the job was enqueued.
    pub age_ms: u64,
}

/// `GET /debug/queue`: admission state plus the most recent jobs (newest
/// last), each with its trace id so `/debug/jobs/{id}/trace` is one hop
/// away.
pub(crate) fn render_queue(
    depth: usize,
    capacity: usize,
    draining: bool,
    jobs: &[JobDebug],
) -> Json {
    let jobs = jobs.iter().map(|job| {
        Json::from_iter([
            ("id", Json::from(job.id.to_string())),
            ("trace", job.trace.into()),
            ("status", job.status.into()),
            ("target", job.target.as_str().into()),
            ("method", job.method.into()),
            ("age_ms", job.age_ms.into()),
        ])
    });
    Json::from_iter([
        ("queue_depth", Json::from(depth)),
        ("queue_capacity", capacity.into()),
        ("draining", draining.into()),
        ("jobs", Json::Arr(jobs.collect())),
    ])
}

/// `GET /debug/caches`: entry counts and estimated resident bytes of the
/// process-wide kernel-bank and FFT-plan caches plus the per-worker
/// session caches, with their hit/miss counters and gauges pulled from
/// the telemetry snapshot.
pub(crate) fn render_caches(
    litho_banks: usize,
    litho_bank_bytes: u64,
    fft_plans: usize,
    fft_plan_bytes: u64,
    mask_store: &StoreStats,
    counters: &BTreeMap<String, u64>,
    gauges: &BTreeMap<String, f64>,
) -> Json {
    let counter = |name: &str| Json::from(counters.get(name).copied().unwrap_or(0));
    let cache = |entries: usize, bytes: u64, counter_stem: &str| {
        Json::from_iter([
            ("entries", Json::from(entries)),
            ("estimated_bytes", bytes.into()),
            ("hits", counter(&format!("{counter_stem}.hit"))),
            ("misses", counter(&format!("{counter_stem}.miss"))),
        ])
    };
    let mask_store = Json::from_iter([
        ("entries", Json::from(mask_store.entries)),
        ("bytes", mask_store.bytes.into()),
        ("hits", mask_store.hits.into()),
        ("misses", mask_store.misses.into()),
        ("evictions", mask_store.evictions.into()),
    ]);
    let session_entries = gauges.get("serve.session_cache.entries").copied();
    let session_cache = Json::from_iter([
        ("entries", Json::from(session_entries.unwrap_or(0.0))),
        ("hits", counter("serve.session_cache.hit")),
        ("misses", counter("serve.session_cache.miss")),
    ]);
    Json::from_iter([
        (
            "litho_bank_cache",
            cache(litho_banks, litho_bank_bytes, "litho.bank_cache"),
        ),
        (
            "fft_plan_cache",
            cache(fft_plans, fft_plan_bytes, "fft.plan_cache"),
        ),
        ("mask_store", mask_store),
        ("session_cache", session_cache),
    ])
}

/// `GET /debug/store`: the shared mask store's occupancy and hit/miss
/// statistics plus its most recently touched entries (newest first).
/// Digests and fingerprints render as fixed-width hex strings — they are
/// opaque 64-bit hashes, not quantities.
pub(crate) fn render_store(enabled: bool, stats: &StoreStats, entries: &[EntryView]) -> Json {
    let hex = |v: u64| Json::from(format!("{v:016x}"));
    let stats = Json::from_iter([
        ("hits", Json::from(stats.hits)),
        ("misses", stats.misses.into()),
        ("puts", stats.puts.into()),
        ("evictions", stats.evictions.into()),
        ("spills", stats.spills.into()),
        ("disk_hits", stats.disk_hits.into()),
        ("bytes", stats.bytes.into()),
        ("entries", stats.entries.into()),
        ("hit_ratio", stats.hit_ratio().into()),
    ]);
    let entries = entries.iter().map(|entry| {
        Json::from_iter([
            ("digest", hex(entry.digest)),
            ("geometry", hex(entry.geometry)),
            ("config", hex(entry.config)),
            ("method", entry.method.into()),
            ("bytes", entry.bytes.into()),
            ("version", entry.version.into()),
        ])
    });
    Json::from_iter([
        ("enabled", Json::from(enabled)),
        ("stats", stats),
        ("entries", Json::Arr(entries.collect())),
    ])
}

/// `GET /debug/jobs/{id}/trace`: the job's span forest as recorded by the
/// flight recorder, plus the counters attributed to its trace. In-flight
/// jobs show the spans that have already closed (tiles land as they
/// finish); finished jobs show the complete queue → session → tiles →
/// assembly tree.
pub(crate) fn render_job_trace(
    id: u64,
    trace: u64,
    status: &str,
    spans: &[tele::SpanEvent],
) -> Json {
    let counters = tele::trace_counters(trace)
        .into_iter()
        .map(|(name, v)| (name, Json::from(v)));
    Json::from_iter([
        ("id", Json::from(id.to_string())),
        ("trace", trace.into()),
        ("status", status.into()),
        ("span_count", spans.len().into()),
        ("counters", counters.collect()),
        ("spans_dropped_total", tele::flight::spans_dropped().into()),
        ("spans", tele::span_forest_json(spans)),
    ])
}

/// Shared footer for `/metrics`: the flight recorder's drop counter as a
/// Prometheus line, appended after the snapshot and SLO series.
pub(crate) fn obs_prometheus() -> String {
    let mut out = String::from("# TYPE ilt_obs_spans_dropped_total counter\n");
    out.push_str(&format!(
        "ilt_obs_spans_dropped_total {}\n",
        tele::flight::spans_dropped()
    ));
    out
}

/// Profiling footer for `/metrics`: process RSS gauges (when readable)
/// plus the tracking allocator's live/allocated byte counters.
pub(crate) fn prof_prometheus() -> String {
    let mut out = String::new();
    if let Some(rss) = ilt_prof::rss::read() {
        out.push_str("# TYPE ilt_process_rss_bytes gauge\n");
        out.push_str(&format!("ilt_process_rss_bytes {}\n", rss.current_bytes));
        out.push_str("# TYPE ilt_process_peak_rss_bytes gauge\n");
        out.push_str(&format!("ilt_process_peak_rss_bytes {}\n", rss.peak_bytes));
    }
    let alloc = ilt_prof::alloc::stats();
    if alloc.enabled {
        out.push_str("# TYPE ilt_alloc_live_bytes gauge\n");
        out.push_str(&format!("ilt_alloc_live_bytes {}\n", alloc.live_bytes));
        out.push_str("# TYPE ilt_alloc_allocated_bytes_total counter\n");
        out.push_str(&format!(
            "ilt_alloc_allocated_bytes_total {}\n",
            alloc.allocated_bytes
        ));
        out.push_str("# TYPE ilt_alloc_freed_bytes_total counter\n");
        out.push_str(&format!(
            "ilt_alloc_freed_bytes_total {}\n",
            alloc.freed_bytes
        ));
    }
    out
}

/// `GET /debug/profile`: the sampler's state plus the accumulated profile
/// — collapsed-stack text (flamegraph-ready, embedded as one JSON string)
/// and the top-N self-time leaves.
pub(crate) fn render_profile() -> Json {
    let (samples, ticks) = ilt_prof::cpu::sample_counts();
    let top_self = ilt_prof::cpu::top_self(10)
        .into_iter()
        .map(|(leaf, count)| {
            Json::from_iter([("frame", Json::from(leaf)), ("samples", count.into())])
        });
    let per_stage = ilt_prof::cpu::samples_per_stage()
        .into_iter()
        .map(|(stage, count)| (stage, Json::from(count)));
    Json::from_iter([
        ("sampler_running", Json::from(ilt_prof::sampler_running())),
        ("sampler_hz", ilt_prof::sampler_hz().into()),
        ("samples", samples.into()),
        ("ticks", ticks.into()),
        ("top_self", Json::Arr(top_self.collect())),
        ("samples_per_stage", per_stage.collect()),
        ("collapsed", ilt_prof::collapsed().into()),
    ])
}

/// `GET /debug/memory`: current/peak RSS, the tracking allocator's
/// global and per-stage counters, and the heaviest-allocating traces
/// (job ids are resolved by the route handler and passed in as
/// `(trace, job_id)` pairs; unresolved traces render without a job).
pub(crate) fn render_memory(trace_jobs: &[(u64, Option<u64>)]) -> Json {
    let rss = ilt_prof::rss::read().map(|rss| {
        Json::from_iter([
            ("current_bytes", Json::from(rss.current_bytes)),
            ("peak_bytes", rss.peak_bytes.into()),
            ("window_peak_bytes", ilt_prof::rss::window_peak().into()),
        ])
    });
    let alloc = ilt_prof::alloc::stats();
    let stages = alloc.stages.iter().map(|stage| {
        let usage = [
            ("bytes", Json::from(stage.bytes)),
            ("calls", stage.calls.into()),
        ];
        (stage.stage.name(), Json::from_iter(usage))
    });
    let alloc = Json::from_iter([
        ("enabled", Json::from(alloc.enabled)),
        ("allocated_bytes", alloc.allocated_bytes.into()),
        ("allocation_calls", alloc.allocation_calls.into()),
        ("freed_bytes", alloc.freed_bytes.into()),
        ("free_calls", alloc.free_calls.into()),
        ("live_bytes", alloc.live_bytes.into()),
        ("peak_live_bytes", alloc.peak_live_bytes.into()),
        ("stages", stages.collect()),
    ]);
    let top_traces = trace_jobs.iter().map(|&(trace, job)| {
        let (bytes, calls) = ilt_prof::alloc::trace_bytes(trace);
        Json::from_iter([
            ("trace", Json::from(trace)),
            ("job", job.map(|id| id.to_string()).into()),
            ("bytes", bytes.into()),
            ("calls", calls.into()),
        ])
    });
    Json::from_iter([
        ("rss", rss.into()),
        ("alloc", alloc),
        ("top_traces", Json::Arr(top_traces.collect())),
        (
            "trace_attribution_dropped",
            ilt_prof::alloc::trace_attribution_dropped().into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_render_is_well_formed() {
        let jobs = vec![JobDebug {
            id: 3,
            trace: 17,
            status: "running",
            target: "case2".to_string(),
            method: "ours",
            age_ms: 12,
        }];
        let body = render_queue(1, 8, false, &jobs).to_string();
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.path(&["queue_depth"]).and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            parsed
                .path(&["jobs"])
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(1)
        );
        assert!(body.contains("\"trace\":17"));
    }

    #[test]
    fn caches_render_is_well_formed() {
        let mut counters = BTreeMap::new();
        counters.insert("litho.bank_cache.hit".to_string(), 4u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("serve.session_cache.entries".to_string(), 2.0);
        let store = StoreStats {
            hits: 9,
            misses: 1,
            puts: 10,
            evictions: 0,
            spills: 0,
            disk_hits: 0,
            bytes: 320000,
            entries: 9,
        };
        let body = render_caches(1, 65536, 3, 4096, &store, &counters, &gauges).to_string();
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed
                .path(&["litho_bank_cache", "hits"])
                .and_then(|v| v.as_u64()),
            Some(4)
        );
        assert_eq!(
            parsed
                .path(&["litho_bank_cache", "estimated_bytes"])
                .and_then(|v| v.as_u64()),
            Some(65536)
        );
        assert_eq!(
            parsed
                .path(&["fft_plan_cache", "entries"])
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            parsed
                .path(&["fft_plan_cache", "estimated_bytes"])
                .and_then(|v| v.as_u64()),
            Some(4096)
        );
        assert_eq!(
            parsed
                .path(&["session_cache", "entries"])
                .and_then(|v| v.as_u64()),
            Some(2)
        );
        assert_eq!(
            parsed
                .path(&["mask_store", "entries"])
                .and_then(|v| v.as_u64()),
            Some(9)
        );
        assert_eq!(
            parsed
                .path(&["mask_store", "hits"])
                .and_then(|v| v.as_u64()),
            Some(9)
        );
    }

    #[test]
    fn store_render_is_well_formed() {
        let stats = StoreStats {
            hits: 3,
            misses: 1,
            puts: 4,
            evictions: 1,
            spills: 1,
            disk_hits: 1,
            bytes: 1024,
            entries: 2,
        };
        let entries = vec![EntryView {
            digest: 0xdead_beef,
            geometry: 7,
            config: 9,
            method: "ours:pixel",
            bytes: 512,
            version: 2,
        }];
        let body = render_store(true, &stats, &entries).to_string();
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.path(&["stats", "hits"]).and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            parsed
                .path(&["stats", "hit_ratio"])
                .and_then(|v| v.as_f64()),
            Some(0.75)
        );
        let listed = parsed
            .path(&["entries"])
            .and_then(|v| v.as_arr())
            .expect("entry array");
        assert_eq!(listed.len(), 1);
        assert!(body.contains("\"digest\":\"00000000deadbeef\""));
        assert!(body.contains("\"method\":\"ours:pixel\""));
        assert!(body.contains("\"version\":2"));
    }

    #[test]
    fn profile_render_is_well_formed() {
        let body = render_profile().to_string();
        let parsed = Json::parse(&body).expect("valid JSON");
        assert!(parsed.path(&["sampler_running"]).is_some());
        assert!(parsed.path(&["collapsed"]).is_some());
        assert!(parsed
            .path(&["top_self"])
            .and_then(|v| v.as_arr())
            .is_some());
    }

    #[test]
    fn memory_render_is_well_formed() {
        let body = render_memory(&[(42, Some(7)), (99, None)]).to_string();
        let parsed = Json::parse(&body).expect("valid JSON");
        // Linux always reads an RSS; elsewhere the field is null.
        assert!(body.contains("\"rss\":"));
        assert!(parsed.path(&["alloc", "stages", "fine"]).is_some());
        let traces = parsed
            .path(&["top_traces"])
            .and_then(|v| v.as_arr())
            .expect("trace array");
        assert_eq!(traces.len(), 2);
        assert!(body.contains("\"job\":\"7\""));
        assert!(body.contains("\"job\":null"));
    }

    #[test]
    fn job_trace_render_is_well_formed_when_empty() {
        let body = render_job_trace(9, 1234567, "queued", &[]).to_string();
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.path(&["trace"]).and_then(|v| v.as_u64()),
            Some(1234567)
        );
        assert_eq!(
            parsed.path(&["span_count"]).and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}
