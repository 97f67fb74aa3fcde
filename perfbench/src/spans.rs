//! Bench-side spans: one record per public call the benchmark makes into
//! the program, kept in memory and written out when the run ends. All
//! spans of a run share one trace id.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub detail: String,
    pub start_us: f64,
    pub end_us: f64,
}

/// An open span; pass it back to [`Spans::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Debug)]
pub struct Spans {
    trace: u64,
    origin: Instant,
    next: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

impl Spans {
    pub fn new(trace: u64) -> Self {
        Spans {
            trace,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    pub fn close(&self, open: Open, detail: String) {
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            detail,
            start_us: us(open.start),
            end_us: us(end),
        };
        self.records.lock().expect("span lock").push(record);
    }

    /// Runs `f` inside a span named `name` under `parent`, handing it the
    /// new span's id.
    pub fn wrap<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let open = self.open(name, parent);
        let out = f(open.id());
        self.close(open, String::new());
        out
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        let mut records = self.records.lock().expect("span lock").clone();
        records.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        records
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                self.trace, r.id, r.parent, r.name, r.detail, r.start_us, r.end_us
            );
        }
        out
    }
}
