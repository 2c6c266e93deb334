//! In-memory span recorder for the traced pump.
//!
//! A span covers one call (or one loop of calls) into a layer: name,
//! start, end, the span that was open when it began, the planning round
//! it belongs to, and how many items the call processed. Spans nest by
//! a stack, are kept in memory while the pump runs and are written as
//! JSON lines when the benchmark ends.
//!
//! A layer's **self time** is its spans' duration minus the part of
//! that interval their child spans cover, so time is attributed once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`comm.route`, `brp.ingest`, ...).
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a round's root span.
    pub parent: Option<usize>,
    /// Pump rep the span belongs to (the traced run repeats the pump).
    pub rep: usize,
    /// Planning round within the rep; round 0 is the warm-up round.
    pub round: usize,
    /// Items processed (envelopes, offers, events); 1 for a single call.
    pub count: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One JSON object on one line.
    pub fn to_json_line(&self) -> String {
        let parent = self
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{},\"round\":{},\"count\":{}}}",
            self.name, self.start_ns, self.end_ns, self.rep, self.round, self.count
        )
    }
}

/// The raw text of `"key":<value>` in a flat one-line JSON object whose
/// values hold no commas or braces (true of everything this bin writes).
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tail = line.split_once(&format!("\"{key}\":"))?.1.trim_start();
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    Some(tail[..end].trim())
}

/// Records spans while enabled; every call is a no-op otherwise, so one
/// pump serves both the traced run and its untraced overhead twin.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
    round: usize,
}

impl Tracer {
    /// A tracer; `enabled: false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            round: 0,
        }
    }

    /// Pump rep stamped onto spans opened from here on.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Planning round stamped onto spans opened from here on.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
            round: self.round,
            count: 0,
        });
        self.open.push(self.spans.len() - 1);
        // Clock read last, so the bookkeeping above is not inside the span.
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.last_mut().expect("just pushed").start_ns = now;
    }

    /// Close the innermost open span, recording `count` processed items.
    pub fn end(&mut self, count: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let index = self.open.pop().expect("end() without a matching begin()");
        let span = &mut self.spans[index];
        span.end_ns = now;
        span.count = count;
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Self time: duration minus what child spans cover.
    pub self_ns: u64,
    /// Items processed.
    pub count: u64,
    /// Spans recorded.
    pub calls: u64,
}

impl LayerTotals {
    /// Self time in microseconds per processed item (0 if none).
    pub fn us_per_item(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }

    /// Self time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Self time per span: its duration minus its direct children's.
/// Children of one parent never overlap (the recorder is a stack on one
/// thread), so their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Fold self time and counts by span name, over the spans `keep` admits.
pub fn layer_totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<String, LayerTotals> {
    let own = self_times(spans);
    let mut totals: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        if keep(span) {
            let t = totals.entry(span.name.clone()).or_default();
            t.self_ns += self_ns;
            t.count += span.count;
            t.calls += 1;
        }
    }
    totals
}

/// Every span as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        writeln!(out, "{}", span.to_json_line()).expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reader for a line written by `Span::to_json_line`, as a consumer
    /// of the trace file would write it.
    fn parse(line: &str) -> Option<Span> {
        let parent = json_field(line, "parent")?;
        Some(Span {
            name: json_field(line, "name")?.trim_matches('"').to_string(),
            start_ns: json_field(line, "start_ns")?.parse().ok()?,
            end_ns: json_field(line, "end_ns")?.parse().ok()?,
            parent: match parent {
                "null" => None,
                index => Some(index.parse().ok()?),
            },
            rep: json_field(line, "rep")?.parse().ok()?,
            round: json_field(line, "round")?.parse().ok()?,
            count: json_field(line, "count")?.parse().ok()?,
        })
    }

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
            round: 1,
            count: 2,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // round [0,100) > plan [10,70) > {drain [10,20), ingest [20,60)}
        //               > commit [70,95)
        let spans = vec![
            span("round", 0, 100, None),
            span("phase.plan", 10, 70, Some(0)),
            span("comm.drain", 10, 20, Some(1)),
            span("brp.ingest", 20, 60, Some(1)),
            span("phase.commit", 70, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 10, 40, 25]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);

        let totals = layer_totals(&spans, |_| true);
        assert_eq!(totals["brp.ingest"].self_ns, 40);
        assert_eq!(totals["brp.ingest"].count, 2);
        assert_eq!(totals["brp.ingest"].us_per_item(), 0.02);
        assert!(layer_totals(&spans, |s| s.round == 0).is_empty());
    }

    #[test]
    fn spans_round_trip_through_json_lines() {
        let spans = vec![
            span("round", 0, 1_234_567_890_123, None),
            span("comm.route", 5, 17, Some(0)),
        ];
        let text = to_json_lines(&spans);
        assert_eq!(text.lines().count(), 2);
        let back: Vec<Span> = text.lines().filter_map(parse).collect();
        assert_eq!(back, spans);
        assert_eq!(parse("{\"name\":\"x\"}"), None);
    }

    #[test]
    fn tracer_nests_by_stack_and_is_inert_when_disabled() {
        let mut t = Tracer::new(true);
        t.set_rep(2);
        t.set_round(3);
        t.begin("round");
        t.begin("comm.route");
        t.end(5);
        t.begin("comm.drain");
        t.end(6);
        t.end(1);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[1].count, spans[2].count), (5, 6));
        assert_eq!((spans[2].rep, spans[2].round), (2, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        off.begin("round");
        off.end(1);
        assert!(off.spans().is_empty());
    }
}
