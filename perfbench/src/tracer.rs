//! In-memory span recorder for the traced runs.
//!
//! Spans are stamped by the benchmark around its calls into each layer's
//! public functions (the program itself never reads the clock).  Each span
//! records its name, start, end and parent; a layer's *self* time is its
//! span's duration minus the part covered by its child spans.  Spans stay in
//! memory until the run ends and are then written out in one go.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.prep`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A stack-disciplined span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span nested in the innermost open span; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, ns, in opening order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time (duration minus child-covered time) summed per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(*children);
        }
        out
    }

    /// Writes the spans as tab-separated `id parent name start_ns end_ns`
    /// rows after the given `# ` header lines.
    pub fn write_tsv(&self, path: &Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("root");
        tracer.leaf("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = tracer.self_ns_by_name();
        assert_eq!(
            self_ns["root"] + self_ns["child"],
            spans[0].duration_ns(),
            "self times partition the root span"
        );
        assert!(self_ns["child"] >= 2_000_000);
    }
}
