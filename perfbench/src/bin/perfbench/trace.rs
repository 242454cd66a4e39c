//! Span recording for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing inside the program is
//! instrumented. Each span records its name, start, end, parent and
//! cell, is kept in memory, and is written out once the run ends.

use appvsweb_json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's base.
#[derive(Clone, Debug)]
pub struct Span {
    /// Allocation-order id.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `pii.detector_new`.
    pub name: &'static str,
    /// Index of the campaign cell (or job) the span belongs to.
    pub cell: Option<u32>,
    /// Recorder-local thread number.
    pub thread: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has started but not yet closed.
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    cell: Option<u32>,
    start: u64,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span store shared by the traced run's threads.
pub struct Recorder {
    base: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            base: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Start a span.
    pub fn open(&self, name: &'static str, parent: Option<u32>, cell: Option<u32>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cell,
            start: self.now(),
        }
    }

    /// Close a span and keep it.
    pub fn close(&self, open: Open) {
        let end = self.now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            cell: open.cell,
            thread: THREAD.with(|t| *t),
            start: open.start,
            end,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        cell: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, cell);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total duration per span name, ns.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.dur();
    }
    out
}

/// Self time per span name, ns: each span's duration minus the part
/// its direct children cover.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_time: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_insert(0) += s.dur();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s
            .dur()
            .saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Spans as JSON lines (one object per span), for the spans file.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u32>| v.map_or(Json::Null, |v| Json::Uint(u64::from(v)));
        let line = Json::Obj(vec![
            ("id".to_string(), Json::Uint(u64::from(s.id))),
            ("parent".to_string(), opt(s.parent)),
            ("name".to_string(), Json::Str(s.name.to_string())),
            ("cell".to_string(), opt(s.cell)),
            ("thread".to_string(), Json::Uint(u64::from(s.thread))),
            ("start_ns".to_string(), Json::Uint(s.start)),
            ("end_ns".to_string(), Json::Uint(s.end)),
        ]);
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

/// Cost of recording one empty span, ns (median of a few batches).
pub fn span_cost_ns() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..5 {
        let rec = Recorder::new();
        let t = Instant::now();
        for _ in 0..2_000 {
            rec.span("obs.probe", None, None, || ());
        }
        batches.push(t.elapsed().as_nanos() as f64 / 2_000.0);
    }
    crate::util::median(&batches)
}
