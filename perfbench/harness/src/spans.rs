//! An in-memory span recorder for the traced pass.
//!
//! Spans are opened and closed on the main thread, so they nest. Each span
//! records its name, optional layer, start, end and parent. Work done
//! inside a span that is timed in aggregate rather than as its own span
//! (per-step sink calls, sampled snapshots, worker-thread sink time) is
//! attached to the span as an `extra` child total. A span's self time is
//! its duration minus its children's durations and extras. Nothing is
//! written until [`Tracer::write_json`] at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    layer: Option<&'static str>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Aggregate child time by layer (not spans of their own).
    extra: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>, layer: Option<&'static str>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            extra: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span).
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        layer: Option<&'static str>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.begin(name, layer);
        let out = f(self);
        self.end(id);
        out
    }

    /// Attributes `ns` of aggregate child work in `layer` to span `id`.
    pub fn add_extra(&mut self, id: usize, layer: &'static str, ns: u64) {
        self.spans[id].extra.push((layer, ns));
    }

    /// Self time of span `id`.
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        let extra: u64 = s.extra.iter().map(|e| e.1).sum();
        (s.end_ns - s.start_ns).saturating_sub(children + extra)
    }

    /// Self time per layer over every span (spans without a layer and
    /// extras are reported under their own keys; `None` is "unattributed").
    pub fn layer_self_ns(&self) -> BTreeMap<Option<&'static str>, u64> {
        let mut out: BTreeMap<Option<&'static str>, u64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer).or_default() += self.self_ns(id);
            for &(layer, ns) in &s.extra {
                *out.entry(Some(layer)).or_default() += ns;
            }
        }
        out
    }

    /// Duration of span `id` in seconds.
    pub fn duration_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Writes every span as a JSON array: name, layer, parent, start and
    /// end in ns since the tracer was created, self ns and extras.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let layer = s.layer.map_or("null".to_string(), |l| format!("\"{l}\""));
            let extra: Vec<String> = s
                .extra
                .iter()
                .map(|(l, ns)| format!("{{\"layer\": \"{l}\", \"ns\": {ns}}}"))
                .collect();
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "  {{\"id\": {id}, \"name\": \"{}\", \"layer\": {layer}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"extra\": [{}]}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                extra.join(", ")
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}
