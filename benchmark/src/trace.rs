//! Outside-in tracing: the harness wraps each call into a layer's public
//! functions in a span, keeps the spans in memory, and writes them out when
//! the run ends. Nothing inside the program is instrumented.

use netsim::json::Value;
use std::time::Instant;

/// One timed call. `parent` is the span that was open when this one began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("id", Value::num(f64::from(self.id))),
            (
                "parent",
                self.parent
                    .map_or(Value::Null, |p| Value::num(f64::from(p))),
            ),
            ("name", Value::str(self.name.clone())),
            ("start_ns", Value::num(self.start_ns as f64)),
            ("end_ns", Value::num(self.end_ns as f64)),
        ])
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
pub type Open = Option<u32>;

/// Span recorder. Timed passes run with a tracer that is off, where
/// `enter`/`exit` are a branch and nothing else.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Trace one call.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append one recording to another, shifting its ids past the first's.
pub fn append_spans(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|s| Span {
        id: s.id + base,
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// Self time of every span, by span id: its duration minus the time its
/// direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations (ns) of all spans with this name, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "cell", 10, 90),
            span(2, Some(1), "sim.run", 20, 50),
            span(3, Some(1), "sim.run", 50, 85),
            span(4, Some(0), "report.render", 90, 98),
        ];
        assert_eq!(self_times_ns(&spans), vec![12, 15, 30, 35, 8]);
        // Self times partition the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        assert_eq!(durations_ns(&spans, "sim.run"), vec![30.0, 35.0]);
    }

    #[test]
    fn tracer_records_nesting_and_off_records_nothing() {
        let mut t = Tracer::on();
        let a = t.enter("a");
        let got = t.scope("b", || 7);
        t.exit(a);
        assert_eq!(got, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        let a = off.enter("a");
        assert_eq!(a, None);
        off.exit(a);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn appended_recordings_keep_ids_equal_to_positions() {
        let mut all = vec![span(0, None, "a", 0, 9), span(1, Some(0), "b", 1, 2)];
        append_spans(
            &mut all,
            vec![span(0, None, "c", 0, 5), span(1, Some(0), "d", 1, 4)],
        );
        let ids: Vec<u32> = all.iter().map(|s| s.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(self_times_ns(&all), vec![8, 1, 2, 3]);
    }

    #[test]
    fn span_json_carries_the_five_fields() {
        let v = span(3, Some(1), "sim.run", 5, 9).to_json();
        assert_eq!(v.field("id").unwrap().as_u64().unwrap(), 3);
        assert_eq!(v.field("parent").unwrap().as_u64().unwrap(), 1);
        assert_eq!(v.field("name").unwrap().as_str().unwrap(), "sim.run");
        assert_eq!(v.field("start_ns").unwrap().as_u64().unwrap(), 5);
        assert_eq!(v.field("end_ns").unwrap().as_u64().unwrap(), 9);
        assert_eq!(
            span(0, None, "pass", 0, 1).to_json().get("parent"),
            Some(&Value::Null)
        );
    }
}
