//! The benchmark's own spans: one per call into a layer, recorded from
//! the benchmark's side of the API (name, start, end, parent, and an
//! operation id shared by the spans of one operation). Spans stay in
//! memory and are written out once, when the run ends.

use crate::Args;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread: `(span id, operation id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off (off by default).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// A fresh operation id.
pub fn next_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// Opens a span that starts operation `op`; nested [`span`]s inherit it.
pub fn op_span(name: &str, op: u64) -> Guard {
    open(name, Some(op))
}

/// Opens a span under this thread's innermost open span.
pub fn span(name: &str) -> Guard {
    open(name, None)
}

fn open(name: &str, op: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let top = s.last().copied();
        let op = op.or(top.map(|t| t.1)).unwrap_or(0);
        s.push((id, op));
        (top.map(|t| t.0), op)
    });
    Guard { open: Some((id, parent, op, name.to_string(), now_ns())) }
}

/// RAII handle of an open span.
#[must_use = "dropping the guard ends the span"]
pub struct Guard {
    open: Option<(u64, Option<u64>, u64, String, u64)>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, op, name, start_ns)) = self.open.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| s.borrow_mut().retain(|&(open, _)| open != id));
        let span = Span { id, parent, op, name, start_ns, end_ns };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Every finished span so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Per span name: `(calls, total s, self s)`, where self time is a
/// span's duration minus that of its direct children.
pub fn self_times() -> BTreeMap<String, (u64, f64, f64)> {
    let spans = spans();
    let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.secs();
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for s in &spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += (s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    out
}

/// Prints the per-layer self-time table.
pub fn print_self_times() {
    println!("\nbenchmark spans by layer (self = total minus direct children)");
    println!("{:<44} {:>7} {:>12} {:>12}", "span", "calls", "total s", "self s");
    for (name, (calls, total, own)) in self_times() {
        println!("{name:<44} {calls:>7} {total:>12.6} {own:>12.6}");
    }
}

/// Writes every span as one JSON line under the build directory and
/// returns the file's path.
pub fn write_spans(args: &Args) -> std::io::Result<PathBuf> {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = PathBuf::from(root).join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}
