//! In-memory spans around the benchmark's own calls into the system.
//!
//! The traced run (`--trace 1`) records a span at every call the generator
//! makes into `Cluster` / `Injector` / `Router` / `EngineCore`, keeps them in
//! memory, writes them to `trace-<workload>.json` when the run ends, and
//! derives each layer's self time. The untraced run goes through the same
//! calls with recording off, which costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one operation (a message, a recovery round)
/// share `op_id`; `parent` indexes the span that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle to a span being recorded; `NONE` when recording is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

/// Count, total and self time of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording; the traced run alternates it slice by slice to
    /// measure what tracing itself costs.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op_id, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Writes `{"spans": [...], "layers": {...}}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op_id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.op_id, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "], \"layers\": {{")?;
        let layers = self.layer_times();
        for (i, (name, t)) in layers.iter().enumerate() {
            let comma = if i + 1 == layers.len() { "" } else { "," };
            writeln!(
                w,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(w, "}}}}")?;
        w.flush()
    }
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover (children may overlap each other and are clipped to
/// the parent).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&i) {
            kids.sort_unstable();
            let mut frontier = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
        }
        let total = s.end_ns - s.start_ns;
        let layer = layers.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += total;
        layer.self_ns += total - covered;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", None, 0, 100),
            span("send", Some(0), 10, 30),
            // Overlaps `send`: only 30..50 is newly covered.
            span("poll", Some(0), 20, 50),
            // Sticks out of the parent: clipped to 90..100.
            span("poll", Some(0), 90, 140),
            // Grandchild: comes off `send`, not off `op`.
            span("log", Some(1), 12, 17),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["op"].self_ns, 100 - (20 + 20 + 10));
        assert_eq!(layers["send"].self_ns, 20 - 5);
        assert_eq!(layers["log"].self_ns, 5);
        assert_eq!(
            layers["poll"],
            LayerTime {
                count: 2,
                total_ns: 80,
                self_ns: 80
            }
        );
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1, SpanId::NONE);
        t.end(id);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(t.span("y", 2, id, || 5), 5);
        assert!(t.layer_times().is_empty());
        t.set_on(true);
        let root = t.begin("root", 3, SpanId::NONE);
        t.span("child", 3, root, || ());
        t.end(root);
        let layers = t.layer_times();
        assert_eq!(layers["root"].count, 1);
        assert!(layers["root"].self_ns <= layers["root"].total_ns);
        assert_eq!(t.durations_ns("child").len(), 1);
    }
}
