//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from this benchmark's own code, around each call
//! into a layer of the library (a sweep, a `ppsweep` process, one replayed
//! election, one sampler loop). They stay in memory while the run measures
//! and are written out as JSON lines once it is over.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// Records spans relative to one origin instant. A disabled recorder keeps
/// nothing, so the untraced run pays one branch per call site.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<(usize, String, f64)>,
    done: Vec<Span>,
    next_id: usize,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
            next_id: 0,
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        if self.enabled {
            let now = self.origin.elapsed().as_secs_f64();
            self.open.push((self.next_id, name.into(), now));
            self.next_id += 1;
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            let (id, name, start_s) = self.open.pop().expect("exit matches an enter");
            let parent = self.open.last().map(|o| o.0);
            self.done.push(Span {
                id,
                parent,
                name,
                start_s,
                end_s: self.origin.elapsed().as_secs_f64(),
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn wrap<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Sum of the durations of finished spans whose name starts with
    /// `prefix`.
    pub fn total(&self, prefix: &str) -> f64 {
        self.done
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    pub fn count(&self) -> usize {
        self.done.len()
    }

    /// Writes every finished span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.done {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.id, s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}
