//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, the span that caused it, and the solve it
//! belongs to.  Kept in a `Vec` during the run and written out as
//! Chrome-trace JSON (Perfetto / `chrome://tracing`) when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`core.ge2bnd`, `kernels.tsmqr`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one solve.
    pub solve: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Single-threaded span recorder: `begin`/`end` nest by a stack, so the
/// parent of a span is whatever span was open when it began.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    solve: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            solve: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new solve: later spans carry the next identifier.
    pub fn next_solve(&mut self) {
        self.solve += 1;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            solve: self.solve,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open one) and return
    /// its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = end_ns;
        self.spans[id].seconds()
    }

    /// Record an already-timed span under the innermost open one.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            solve: self.solve,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time per span: its duration minus the time its child spans
    /// cover.  Children of one span never overlap here (one thread), so the
    /// covered part is the sum of their durations.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                // A child lies inside its parent, so this cannot underflow.
                own_ns[p] -= s.end_ns - s.start_ns;
            }
        }
        own_ns.into_iter().map(|ns| ns as f64 / 1e9).collect()
    }

    /// Total self time per span name.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_seconds()) {
            *by_name.entry(s.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// microsecond timestamps, the solve id and parent index as arguments.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj()
                    .with("name", s.name)
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .with("pid", 1usize)
                    .with("tid", 1usize)
                    .with(
                        "args",
                        Json::obj()
                            .with("id", id)
                            .with("solve", s.solve)
                            .with("parent", s.parent.map_or(Json::Null, Json::from)),
                    )
            })
            .collect();
        Json::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", events)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans: solve [0, 100] holding ge2bnd
    /// [10, 70] (with kernels [20, 30] and [30, 55]) and bnd2bd [70, 95].
    fn sample() -> Recorder {
        let mut r = Recorder::new();
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            solve: 1,
        };
        r.spans = vec![
            mk("solve", 0, 100_000_000_000, None),
            mk("core.ge2bnd", 10_000_000_000, 70_000_000_000, Some(0)),
            mk("kernels.geqrt", 20_000_000_000, 30_000_000_000, Some(1)),
            mk("kernels.tsmqr", 30_000_000_000, 55_000_000_000, Some(1)),
            mk("core.bnd2bd", 70_000_000_000, 95_000_000_000, Some(0)),
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = sample();
        assert_eq!(r.self_seconds(), vec![15.0, 25.0, 10.0, 25.0, 25.0]);
        let by_name = r.self_seconds_by_name();
        assert_eq!(by_name["solve"], 15.0);
        assert_eq!(by_name["core.ge2bnd"], 25.0);
        // Self times add back up to the root span.
        assert_eq!(by_name.values().sum::<f64>(), 100.0);
        assert_eq!(r.durations("core.bnd2bd"), vec![25.0]);
    }

    #[test]
    fn begin_end_nest_by_the_open_stack() {
        let mut r = Recorder::new();
        r.next_solve();
        let solve = r.begin("solve");
        let stage = r.begin("core.ge2bnd");
        let t = r.now_ns();
        r.leaf("kernels.geqrt", t, t + 5);
        r.end(stage);
        let other = r.begin("core.bd2val");
        r.end(other);
        r.end(solve);
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(r
            .spans()
            .iter()
            .all(|s| s.solve == 1 && s.end_ns >= s.start_ns));
        assert!(r.self_seconds().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let doc = Json::parse(&sample().chrome_trace()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("kernels.geqrt")
        );
        assert_eq!(events[2].get("dur").and_then(Json::as_f64), Some(1.0e7));
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
