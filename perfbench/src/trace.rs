//! In-memory span recorder for the traced run. Spans are recorded from the
//! benchmark's own code around each call into a simulator layer (setup
//! stages, `Machine::run`/`tick_profiled`, golden validation, campaign
//! jobs); nothing inside the simulator is instrumented. Spans are kept in
//! memory and written once, at exit.
//!
//! The same recorder times the untraced run: with tracing off it only
//! measures durations and records nothing.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    /// Iteration or job the span belongs to.
    id: u64,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate of the recorded spans.
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    /// Span time not covered by any child span.
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration in seconds. `f` receives the span's id, to parent
    /// the spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let me = self.enabled.then(|| {
            let start_ns = self.now_ns();
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        });
        let out = f(me);
        let secs = start.elapsed().as_secs_f64();
        if let Some(i) = me {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span recorder poisoned")[i].end_ns = end_ns;
        }
        (out, secs)
    }

    /// Self time per span name: each span's duration minus the union of
    /// the intervals its children cover, summed over spans of that name.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            let dur = s.end_ns - s.start_ns;
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let row = match out.iter_mut().find(|r| r.name == s.name) {
                Some(row) => row,
                None => {
                    out.push(SelfTime {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_s += dur as f64 * 1e-9;
            row.self_s += (dur - covered) as f64 * 1e-9;
        }
        out
    }

    /// The recorded spans and their per-name self times as one JSON
    /// document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self
            .spans
            .lock()
            .expect("span recorder poisoned")
            .iter()
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"idx\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.id,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"self_time\":[");
        for (i, r) in self.self_times().iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                if i == 0 { "" } else { "," },
                r.name,
                r.count,
                r.total_s,
                r.self_s
            );
        }
        out.push_str("]}\n");
        out
    }
}
