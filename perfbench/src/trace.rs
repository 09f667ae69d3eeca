//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into one of
//! the simulator's layers: its name (`<layer>.<call>`), start and end in
//! nanoseconds since the recorder was created, the span that enclosed it
//! on the same thread, and a request id (the operation index, or the
//! HTTP request id on `serve`). Spans stay in memory until the run ends
//! and are then written as JSON lines. With tracing off the recorder
//! only times the call, so untraced and traced runs execute the same
//! code apart from the bookkeeping whose cost the traced run reports.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub req: u64,
}

thread_local! {
    /// Open spans of the current thread (indices into the recorder).
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by every thread of one benchmark run.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req` and returns
    /// its result with the wall time it took, in seconds.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_secs_f64());
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span log");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans.lock().expect("span log")[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Records an already-measured interval (used where the timed region
    /// starts before the call, as for a request's scheduled send time).
    pub fn record(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.lock().expect("span log").push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent: None,
            req,
        });
    }

    /// Snapshot of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log").clone()
    }

    /// Self time of every span named `root`: its duration minus the part
    /// its direct children cover.
    pub fn self_times(&self, root: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.req
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("bench.op", 7, || {
            t.span("core.inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        let own = t.self_times("bench.op");
        assert_eq!(own.len(), 1);
        let child = (spans[1].end_ns - spans[1].start_ns) as f64 * 1e-9;
        assert!(own[0] < child, "self time excludes the child");
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.span("bench.op", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
