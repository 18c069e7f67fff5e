//! Span recording for the traced replay, layer self times, and the Chrome
//! trace-event file (opens offline in Perfetto or chrome://tracing).
//!
//! A span is opened and closed by the benchmark around a call into one
//! layer. It carries wall time and the simulated device clock of the
//! executor the call charged. Spans nest on one thread, so a span's self
//! time is its duration minus its children's.

use crate::json::{num, quote, Obj};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub tid: u64,
    pub wall_start: f64,
    pub wall_end: f64,
    pub sim_start: f64,
    pub sim_end: f64,
}

impl Span {
    pub fn wall(&self) -> f64 {
        self.wall_end - self.wall_start
    }

    /// The layer is the span name up to its first dot (a crate name).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    sim_base: f64,
}

/// In-memory span sink; written out when the run ends.
pub struct Recorder {
    t0: Instant,
    state: Mutex<State>,
}

thread_local! {
    static TID: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span recorder poisoned")
    }

    /// Offset added to executor clocks: concurrent problems each have a
    /// stream starting at 0, placed at their wave's start on the timeline.
    pub fn set_sim_base(&self, base: f64) {
        self.lock().sim_base = base;
    }

    /// Open a span; `sim` is the charged executor's clock now.
    pub fn open(&self, name: &'static str, sim: f64) -> usize {
        let wall = self.t0.elapsed().as_secs_f64();
        let tid = TID.with(|t| *t);
        let mut st = self.lock();
        let id = st.spans.len();
        let span = Span {
            name,
            parent: st.stack.last().copied(),
            tid,
            wall_start: wall,
            wall_end: wall,
            sim_start: st.sim_base + sim,
            sim_end: st.sim_base + sim,
        };
        st.spans.push(span);
        st.stack.push(id);
        id
    }

    pub fn close(&self, id: usize, sim: f64) {
        let wall = self.t0.elapsed().as_secs_f64();
        let mut st = self.lock();
        let base = st.sim_base;
        let span = &mut st.spans[id];
        span.wall_end = wall;
        span.sim_end = base + sim;
        let top = st.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Run `f` inside a span when a recorder is given. `sim` reads the clock
/// of the executor `f` charges.
pub fn span<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    sim: &dyn Fn() -> f64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        None => f(),
        Some(r) => {
            let id = r.open(name, sim());
            let out = f();
            r.close(id, sim());
            out
        }
    }
}

#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub wall_s: f64,
    pub self_s: f64,
}

/// Each span's duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::wall).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.wall();
        }
    }
    out
}

/// Count, total wall and total self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.wall_s += s.wall();
        a.self_s += self_s;
    }
    out
}

/// Total self time per layer.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += self_s;
    }
    out
}

/// Chrome trace-event JSON: process 1 is the wall clock, process 2 the
/// simulated device clock; every event carries both clocks, its span id
/// and its parent's.
pub fn chrome_json(spans: &[Span], other_data: &str) -> String {
    let mut events = vec![
        r#"{"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "wall clock"}}"#
            .to_string(),
        r#"{"ph": "M", "pid": 2, "name": "process_name", "args": {"name": "simulated device clock"}}"#
            .to_string(),
    ];
    for (i, s) in spans.iter().enumerate() {
        let args = Obj::new()
            .int("id", i as u64)
            .raw("parent", &s.parent.map_or("null".into(), |p| p.to_string()))
            .num("wall_start_s", s.wall_start)
            .num("wall_end_s", s.wall_end)
            .num("sim_start_s", s.sim_start)
            .num("sim_end_s", s.sim_end)
            .finish();
        for (pid, start, dur) in [
            (1, s.wall_start, s.wall()),
            (2, s.sim_start, s.sim_end - s.sim_start),
        ] {
            events.push(format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": {pid}, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {args}}}",
                quote(s.name),
                quote(s.layer()),
                s.tid,
                num(start * 1e6),
                num(dur * 1e6),
            ));
        }
    }
    format!(
        "{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ms\", \"otherData\": {other_data}}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |name, parent, a, b| Span {
            name,
            parent,
            tid: 1,
            wall_start: a,
            wall_end: b,
            sim_start: 0.0,
            sim_end: 0.0,
        };
        let spans = vec![
            mk("smo.solve", None, 0.0, 10.0),
            mk("kernel.fetch", Some(0), 1.0, 5.0),
            mk("backend.rows", Some(1), 2.0, 4.0),
        ];
        let l = by_layer(&spans);
        assert_eq!(l["smo"], 6.0);
        assert_eq!(l["kernel"], 2.0);
        assert_eq!(l["backend"], 2.0);
        assert!(chrome_json(&spans, "{}").contains("\"cat\": \"kernel\""));
    }
}
