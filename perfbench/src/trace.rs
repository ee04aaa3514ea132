//! An in-memory span recorder for the traced run. Spans are taken in the
//! benchmark around calls into each layer's public entry point; they are
//! kept in memory and written out once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// The query (root span) this span belongs to.
    pub query: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one; with none open it is a
    /// new query's root. Returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let query = parent.map_or(id, |p| self.spans[p].query);
        let now = self.origin.elapsed();
        self.spans.push(Span { name, query, parent, start: now, end: now });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Seconds spent in `root`'s direct children named `name`.
    pub fn child_secs(&self, root: usize, name: &str) -> f64 {
        self.children(root).filter(|s| s.name == name).fold(0.0, |acc, s| acc + s.secs())
    }

    /// Share of `root`'s wall time covered by its direct children.
    pub fn coverage(&self, root: usize) -> f64 {
        let covered = self.children(root).fold(0.0, |acc, s| acc + s.secs());
        covered / self.spans[root].secs()
    }

    fn children(&self, root: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(root))
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"query\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.query,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_query() {
        let mut t = Tracer::default();
        let root = t.open("query");
        t.span("a", || std::thread::sleep(Duration::from_millis(2)));
        t.span("b", || ());
        t.close(root);
        let second = t.open("query");
        t.close(second);
        assert_eq!(t.get(1).parent, Some(root));
        assert_eq!(t.get(2).query, root);
        assert_eq!(t.get(second).query, second);
        assert!(t.child_secs(root, "a") >= 0.002);
        let cov = t.coverage(root);
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
    }
}
