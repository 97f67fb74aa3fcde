//! Renders drained diagnostics into the `diagnostics` section of
//! `report.json` (schema `ilt-report/v2`) and extracts anomaly events back
//! out of a telemetry snapshot.

use ilt_json::Json;
use ilt_telemetry::{names, FieldValue, Telemetry};

use crate::sink::{CaseQuality, RunDiagnostics, StageCell};

/// One anomaly event extracted from the span tree (the flattened form of
/// the `anomaly` spans emitted by [`crate::observe_solve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// Flow name.
    pub flow: String,
    /// Stage label.
    pub stage: String,
    /// Tile index.
    pub tile: u64,
    /// Anomaly kind code (`stall`, `divergence`, `oscillation`).
    pub kind: String,
    /// Iteration where detection fired.
    pub iteration: u64,
    /// Kind-specific magnitude.
    pub value: f64,
}

fn field_str(e: &ilt_telemetry::SpanEvent, key: &str) -> String {
    e.field(key)
        .and_then(FieldValue::as_str)
        .unwrap_or("?")
        .to_string()
}

fn field_f64(e: &ilt_telemetry::SpanEvent, key: &str) -> f64 {
    match e.field(key) {
        Some(FieldValue::F64(v)) => *v,
        Some(FieldValue::U64(v)) => *v as f64,
        Some(FieldValue::I64(v)) => *v as f64,
        _ => 0.0,
    }
}

/// Collects every anomaly span from a drained telemetry snapshot, in
/// record order.
pub fn anomalies_from(telemetry: &Telemetry) -> Vec<AnomalyEvent> {
    telemetry
        .events
        .iter()
        .filter(|e| e.name == names::ANOMALY)
        .map(|e| AnomalyEvent {
            flow: field_str(e, "flow"),
            stage: field_str(e, "stage"),
            tile: e.field("tile").and_then(FieldValue::as_u64).unwrap_or(0),
            kind: field_str(e, "kind"),
            iteration: e
                .field("iteration")
                .and_then(FieldValue::as_u64)
                .unwrap_or(0),
            value: field_f64(e, "value"),
        })
        .collect()
}

/// Renders the `diagnostics` JSON object embedded in `ilt-report/v2`:
/// the convergence matrix (one cell per observed tile solve), the per-case
/// quality matrices with folded summaries, and the flattened anomaly list.
pub fn render_diagnostics_json(diag: &RunDiagnostics, anomalies: &[AnomalyEvent]) -> Json {
    Json::from_iter([
        (
            "convergence",
            Json::Arr(diag.solves.iter().map(cell_json).collect()),
        ),
        (
            "quality",
            Json::Arr(diag.cases.iter().map(case_json).collect()),
        ),
        (
            "anomalies",
            Json::Arr(anomalies.iter().map(anomaly_json).collect()),
        ),
        (
            "degraded",
            Json::Arr(diag.degraded.iter().map(degraded_json).collect()),
        ),
        ("tiles_degraded", diag.degraded.len().into()),
    ])
}

fn cell_json(cell: &StageCell) -> Json {
    let anomalies = cell.anomalies.iter().map(|a| a.kind.code().into());
    Json::from_iter([
        ("flow", Json::from(cell.flow.as_str())),
        ("stage", cell.stage.as_str().into()),
        ("tile", cell.tile.into()),
        ("iterations", cell.iterations.into()),
        ("final_loss", cell.final_loss.into()),
        ("anomalies", Json::Arr(anomalies.collect())),
    ])
}

fn case_json(case: &CaseQuality) -> Json {
    let s = case.summary();
    let summary = Json::from_iter([
        ("epe_p95", Json::from(s.epe_p95)),
        ("epe_max", s.epe_max.into()),
        ("epe_violations", s.epe_violations.into()),
        ("stitch", s.stitch.into()),
        ("mrc", s.mrc.into()),
    ]);
    let tiles = case.tiles.iter().map(|t| {
        Json::from_iter([
            ("tile", Json::from(t.tile)),
            ("epe_gauges", t.epe_gauges.into()),
            ("epe_p50", t.epe_p50.into()),
            ("epe_p95", t.epe_p95.into()),
            ("epe_max", t.epe_max.into()),
            ("epe_violations", t.epe_violations.into()),
            ("stitch", t.stitch.into()),
            ("mrc", t.mrc.into()),
        ])
    });
    Json::from_iter([
        ("case", Json::from(case.case.as_str())),
        ("method", case.method.as_str().into()),
        ("summary", summary),
        ("tiles", Json::Arr(tiles.collect())),
    ])
}

fn degraded_json(d: &crate::sink::DegradedTileRecord) -> Json {
    Json::from_iter([
        ("flow", Json::from(d.flow.as_str())),
        ("stage", d.stage.as_str().into()),
        ("tile", d.tile.into()),
        ("error", d.error.as_str().into()),
    ])
}

fn anomaly_json(a: &AnomalyEvent) -> Json {
    Json::from_iter([
        ("flow", Json::from(a.flow.as_str())),
        ("stage", a.stage.as_str().into()),
        ("kind", a.kind.as_str().into()),
        ("tile", a.tile.into()),
        ("iteration", a.iteration.into()),
        ("value", a.value.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::observe_solve;
    use ilt_telemetry as tele;

    #[test]
    fn diagnostics_json_parses_and_carries_the_matrix() {
        let _guard = crate::testlock::lock();
        tele::set_enabled(true);
        let _ = tele::drain();
        let _ = crate::sink::drain();
        observe_solve("f:solver", "stage 0", 2, &[10.0, 5.0, 2.5, 1.25]);
        observe_solve("f:solver", "stage 0", 7, &[5.0; 20]);
        tele::flush_thread();
        let t = tele::drain();
        tele::set_enabled(false);
        let diag = crate::sink::drain();
        let anomalies = anomalies_from(&t);
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, "stall");
        assert_eq!(anomalies[0].tile, 7);
        assert_eq!(anomalies[0].stage, "stage 0");

        let rendered = render_diagnostics_json(&diag, &anomalies).to_string();
        let v = Json::parse(&rendered).expect("diagnostics JSON must parse");
        let cells = v.get("convergence").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("iterations").and_then(Json::as_f64), Some(4.0));
        assert_eq!(cells[1].get("final_loss").and_then(Json::as_f64), Some(5.0));
        let listed = v.get("anomalies").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].get("kind").and_then(Json::as_str), Some("stall"));
        assert_eq!(v.get("tiles_degraded").and_then(Json::as_f64), Some(0.0));
        assert!(v.get("degraded").and_then(Json::as_arr).unwrap().is_empty());
    }

    #[test]
    fn degraded_tiles_render_into_the_diagnostics_section() {
        let _guard = crate::testlock::lock();
        tele::set_enabled(true);
        let _ = tele::drain();
        let _ = crate::sink::drain();
        crate::sink::observe_degraded("ours:pgd", "fine stage 1", 4, "tile 4 failed: boom");
        tele::flush_thread();
        let t = tele::drain();
        tele::set_enabled(false);
        let diag = crate::sink::drain();
        assert_eq!(diag.degraded.len(), 1);
        // The zero-length span is visible in the trace too.
        assert!(t
            .events
            .iter()
            .any(|e| e.name == ilt_telemetry::names::DEGRADED));

        let rendered = render_diagnostics_json(&diag, &[]).to_string();
        let v = Json::parse(&rendered).expect("diagnostics JSON must parse");
        assert_eq!(v.get("tiles_degraded").and_then(Json::as_f64), Some(1.0));
        let listed = v.get("degraded").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            listed[0].get("stage").and_then(Json::as_str),
            Some("fine stage 1")
        );
        assert_eq!(listed[0].get("tile").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            listed[0].get("error").and_then(Json::as_str),
            Some("tile 4 failed: boom")
        );
    }

    #[test]
    fn observe_degraded_is_inert_when_disabled() {
        let _guard = crate::testlock::lock();
        tele::set_enabled(false);
        let _ = crate::sink::drain();
        crate::sink::observe_degraded("f", "s", 0, "boom");
        assert!(crate::sink::drain().degraded.is_empty());
    }
}
