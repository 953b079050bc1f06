//! Spans the benchmark records around each call it makes into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request id shared by one transaction's spans. Spans stay in memory
//! (each thread keeps its own buffer) and are written out once, at the
//! end of a traced run, with each span's self time: its duration minus
//! the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// At most this many spans are kept per run; later ones are counted but
/// not stored, which bounds the memory of a long traced simulation.
const MAX_SPANS: usize = 200_000;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The layer call this span covers.
    pub name: &'static str,
    /// The request id shared by one transaction's spans (0 when none).
    pub req: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// The run's span store.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    stored: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            stored: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Move a thread's buffered spans into the store.
    pub fn absorb(&self, spans: Vec<Span>) {
        let mut stored = self.stored.lock().expect("span store lock");
        let room = MAX_SPANS.saturating_sub(stored.len());
        if spans.len() > room {
            self.dropped.fetch_add((spans.len() - room) as u64, Ordering::Relaxed);
        }
        stored.extend(spans.into_iter().take(room));
    }

    /// Spans kept and spans dropped past the cap.
    pub fn counts(&self) -> (usize, u64) {
        (self.stored.lock().expect("span store lock").len(), self.dropped.load(Ordering::Relaxed))
    }

    /// Every stored span with its self time in ns, ordered by start.
    pub fn with_self_time(&self) -> Vec<(Span, u64)> {
        let mut spans = self.stored.lock().expect("span store lock").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        self_times(&spans)
    }

    /// Per span name: (count, total ns, self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.with_self_time() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += self_ns;
        }
        out
    }

    /// Write every stored span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.with_self_time() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start, s.end, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it. Children of one parent may overlap (client
/// threads run concurrently), so the union is taken, not the sum.
fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (*s, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// A thread-local span buffer that opens and closes spans.
#[derive(Debug)]
pub struct Recorder<'a> {
    spans: Option<&'a Spans>,
    buf: Vec<Span>,
}

impl<'a> Recorder<'a> {
    /// A recorder writing to `spans`, or a no-op one when tracing is off.
    pub fn new(spans: Option<&'a Spans>) -> Self {
        Recorder { spans, buf: Vec::new() }
    }

    /// Time `f` as span `name` under `parent`, returning its result and
    /// the new span's id (0 when tracing is off).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let Some(spans) = self.spans else { return (f(), 0) };
        let id = spans.id();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(Span { id, parent, name, req, start: spans.ns(t0), end: spans.ns(t1) });
        (out, id)
    }

    /// Open a span whose children are recorded before it closes.
    pub fn open(&self) -> (u64, Instant) {
        match self.spans {
            Some(spans) => (spans.id(), Instant::now()),
            None => (0, Instant::now()),
        }
    }

    /// Close a span opened with [`open`](Self::open).
    pub fn close(&mut self, name: &'static str, parent: u64, opened: (u64, Instant)) {
        let Some(spans) = self.spans else { return };
        let (id, t0) = opened;
        let end = spans.ns(Instant::now());
        self.record(Span { id, parent, name, req: 0, start: spans.ns(t0), end });
    }

    /// Record a span timed by the caller.
    pub fn record(&mut self, span: Span) {
        if self.spans.is_some() {
            self.buf.push(span);
            if self.buf.len() >= 4096 {
                self.flush();
            }
        }
    }

    /// Move buffered spans to the store.
    pub fn flush(&mut self) {
        if let Some(spans) = self.spans {
            spans.absorb(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { id, parent, name: "s", req: 0, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps span 2: union 10..60
            span(4, 1, 90, 120), // clipped to the parent's end
            span(5, 2, 10, 20),
        ];
        let got: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(got, vec![100 - 50 - 10, 30 - 10, 30, 30, 10]);
    }

    #[test]
    fn cap_counts_dropped_spans() {
        let spans = Spans::new();
        spans.absorb(vec![span(1, 0, 0, 1); MAX_SPANS + 5]);
        assert_eq!(spans.counts(), (MAX_SPANS, 5));
    }
}
