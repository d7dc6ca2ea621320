//! The harness's own span recorder. Spans are taken around calls into the
//! layers' public functions (spans inside the program are a later change),
//! stay in memory, and are written as Chrome trace-event JSON when the
//! workload ends. A layer's self time is its span minus the part of that
//! interval its children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Microseconds since the recorder was made.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    /// Spans of one timed operation (one execution, one request) share it.
    pub request: u64,
}

/// A call the recorder timed: its span (when tracing), start and length.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub id: Option<SpanId>,
    pub start: Instant,
    pub wall: Duration,
}

/// Collects spans from any thread; a disabled recorder drops them, which
/// is the untraced run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn span(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("a recording thread panicked");
        spans.push(Span {
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Starts a span whose children will be recorded before it ends.
    pub fn open(&self, name: &str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.span(name, parent, request, now, now)
    }

    /// Ends a span started with [`Recorder::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.origin.elapsed().as_secs_f64() * 1e6;
            self.spans.lock().expect("a recording thread panicked")[id].end_us = end;
        }
    }

    /// Times `f` and records it as one span.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Timed) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let id = self.span(name, parent, request, start, end);
        (
            value,
            Timed {
                id,
                start,
                wall: end - start,
            },
        )
    }

    /// Lays out, end to end from `start`, the durations a layer's report
    /// attributes to its parts (pass records, per-class op totals): the
    /// report gives lengths, not timestamps.
    pub fn parts<'a>(
        &self,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        parts: impl IntoIterator<Item = (&'a str, Duration)>,
    ) {
        let mut at = start;
        for (name, len) in parts {
            self.span(name, parent, request, at, at + len);
            at += len;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a recording thread panicked")
            .clone()
    }

    /// Writes `<dir>/<workload>.trace.json`, loadable in `chrome://tracing`
    /// or Perfetto (each request is a track, `tid`), and prints where the
    /// traced time went: self time by span name.
    pub fn finish(&self, dir: &Path, workload: &str) -> Result<(), String> {
        let spans = self.spans();
        for (name, self_us) in self_times(&spans) {
            println!(
                "{workload:<14} self time {name:<28} {:>14.3} ms",
                self_us / 1e3
            );
        }
        let events: Vec<Json> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("ph", "X".into()),
                    ("ts", s.start_us.into()),
                    ("dur", (s.end_us - s.start_us).into()),
                    ("pid", Json::from(1u64)),
                    ("tid", s.request.into()),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::from(id as u64)),
                            ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                        ]),
                    ),
                ])
            })
            .collect();
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    Json::obj([("traceEvents", Json::Arr(events))]).to_string(),
                )
            })
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Self time per span name (µs, summed over spans of that name): each
/// span's duration minus the union of its children's intervals clipped to
/// it, so overlapping children are not counted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for &(a, b) in kids.iter() {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        *out.entry(s.name.clone()).or_insert(0.0) += (s.end_us - s.start_us) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_intervals() {
        let spans = vec![
            span("request", 0.0, 100.0, None),
            span("compile", 10.0, 40.0, Some(0)),
            // Overlaps `compile` on [30, 40): that part counts once.
            span("execute", 30.0, 70.0, Some(0)),
            // Sticks out of its parent: only [90, 100) is inside.
            span("reply", 90.0, 120.0, Some(0)),
            span("ops", 35.0, 60.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], 100.0 - (60.0 + 10.0));
        assert_eq!(t["compile"], 30.0);
        assert_eq!(t["execute"], 40.0 - 25.0);
        assert_eq!(t["ops"], 25.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let off = Recorder::new(false);
        let (v, _) = off.time("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
        let on = Recorder::new(true);
        let t = Instant::now();
        let id = on.span("a", None, 1, t, t + Duration::from_micros(5));
        on.parts(
            id,
            1,
            t,
            [
                ("b", Duration::from_micros(2)),
                ("c", Duration::from_micros(3)),
            ],
        );
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(0));
        assert!((spans[2].start_us - spans[1].end_us).abs() < 1e-9);
        assert!(self_times(&spans)["a"].abs() < 1e-6);
    }
}
