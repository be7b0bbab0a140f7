//! Span recording from outside the program under test: the benchmark
//! wraps its own calls into each layer, keeps the spans in memory, and
//! writes them out when the run ends. End-to-end numbers always come
//! from a run with recording off.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// The module (crate) the wrapped call belongs to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, where known.
    pub parent: Option<u64>,
    /// Shared by all spans of one request, where known.
    pub request: Option<u64>,
    /// Work items the call covered (batch size, design points, …).
    pub items: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// The run's clock and, when enabled, its span store.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the run's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children recorded before their parent
    /// ends can name it.
    pub fn alloc_id(&self) -> u64 {
        // Relaxed: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans
                .lock()
                .expect("no span recorder panics while holding the store")
                .push(span);
        }
    }

    /// Times `f` and records it as one span (the timing happens either
    /// way, so a caller can use the returned duration).
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        if self.enabled {
            self.record(Span {
                id: self.alloc_id(),
                name,
                layer,
                start_ns,
                end_ns,
                parent,
                request: None,
                items,
            });
        }
        (out, end_ns - start_ns)
    }

    /// All spans recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the store")
            .clone()
    }

    /// Writes the spans as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"request\":{},\"items\":{}}}{}",
                s.id,
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request),
                s.items,
                if i + 1 == spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, ns) = t.span("x", "core", None, 1, || 7);
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_json() {
        let t = Tracer::new(true);
        let parent = t.alloc_id();
        t.span("child", "serve", Some(parent), 3, || ());
        t.record(Span {
            id: parent,
            name: "parent",
            layer: "serve",
            start_ns: 0,
            end_ns: 10,
            parent: None,
            request: Some(42),
            items: 1,
        });
        let dir = std::env::temp_dir().join(format!("condor-perf-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path).expect("temp dir is writable");
        let text = std::fs::read_to_string(&path).expect("just written");
        let doc = condor_cjson::parse::parse(&text).expect("valid JSON");
        let spans = doc.as_array().expect("array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent").and_then(|v| v.as_i64()), Some(0));
        assert_eq!(spans[1].get("request").and_then(|v| v.as_i64()), Some(42));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
