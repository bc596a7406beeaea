//! Spans recorded around the benchmark's calls into each crate.
//!
//! An operation span (`op.<kind>`) wraps one client operation; each call
//! the benchmark makes into a crate inside it gets a child span named after
//! the layer (`adm.parse`, `cluster.get`, `query.execute`, ...). Spans stay
//! in memory until the run ends. A disabled tracer records nothing and
//! costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), next_op: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span. A span opened with no span open starts a new operation.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, busy ns, self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += stats::self_time((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// Per layer (the span-name prefix before the first `.`): (busy ns,
    /// self ns). A layer's busy time is the union of its spans' intervals.
    pub fn by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut intervals: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            intervals.entry(layer_of(s.name)).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> =
            intervals.iter().map(|(l, iv)| (*l, (stats::union_len(iv), 0))).collect();
        for (name, (_, _, self_ns)) in self.by_name() {
            if let Some(e) = out.get_mut(layer_of(name)) {
                e.1 += self_ns;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin("op.get");
        t.span("cluster.get", || ());
        t.end(op);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_share_the_operation_id() {
        let mut t = Tracer::new(true);
        let op = t.begin("op.insert");
        t.span("adm.parse", || ());
        t.span("cluster.insert", || ());
        t.end(op);
        let op2 = t.begin("op.get");
        t.end(op2);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].op, s[1].op, s[2].op, s[3].op), (1, 1, 1, 2));
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (Some(0), Some(0), None));
        let by_name = t.by_name();
        let (_, busy, self_ns) = by_name["op.insert"];
        let kids = s[1].end_ns - s[1].start_ns + s[2].end_ns - s[2].start_ns;
        assert_eq!(self_ns, busy - kids);
        assert!(t.by_layer().contains_key("adm"));
    }
}
