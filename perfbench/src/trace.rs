//! In-memory spans recorded around the calls into each layer, their
//! self times, and their NDJSON dump.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one job share `job`; `parent` is the span
/// that was open when this one started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub job: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Disabled, it runs the closures and
/// records nothing, so traced and untraced code share one path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every span id this tracer hands out, so several
    /// tracers' spans can be merged without clashes.
    id_base: u64,
    next: u64,
    open: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, tracer_no: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            id_base: tracer_no << 40,
            next: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of job `job`.
    pub fn span<T>(&mut self, job: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.id_base | self.next;
        self.next += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans.push(Span {
            job,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span timed by the caller, under the open span if any.
    pub fn record(&mut self, job: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.id_base | self.next;
        self.next += 1;
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            job,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (calls, total self ns).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

/// Writes one JSON object per span.
pub fn write_ndjson(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"job\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.job, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            job: 1,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_of_a_hand_built_tree() {
        // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
        // child [60,70) -> 10; so root self = 100 - 50 = 50.
        // a [10,30) has a grandchild [12,18) -> a self = 14.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 50),
            span(4, Some(1), "c", 60, 70),
            span(5, Some(2), "leaf", 12, 18),
            // A child sticking out of its parent only counts inside it.
            span(6, None, "other", 200, 210),
            span(7, Some(6), "late", 205, 230),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 10, 6, 5, 25]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["root"], (1, 50));
        assert_eq!(by_name["leaf"], (1, 6));
        // Without overlapping siblings, self times add up to the root's
        // duration: nothing is lost or counted twice.
        let flat = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "c", 60, 70),
            span(4, Some(2), "leaf", 12, 18),
        ];
        assert_eq!(self_times(&flat).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        let v = t.span(9, "outer", |t| t.span(9, "inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.id >> 40, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let mut off = Tracer::disabled();
        assert_eq!(off.span(1, "x", |_| 7), 7);
        assert!(off.into_spans().is_empty());
    }
}
