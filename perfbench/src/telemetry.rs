//! Reads the telemetry the program already records (phase spans and
//! counters per actor scope) through `silofuse-observe`'s public API,
//! as snapshots that can be differenced around a call.

use silofuse_core::nn::backend::KERNEL_COUNTERS;
use silofuse_observe as observe;
use std::collections::BTreeMap;

/// Turns on the program's scoped telemetry and the benchmark's spans.
pub fn start() {
    observe::init_scoped("perfbench", "bench");
    crate::trace::set_enabled(true);
}

/// Turns both off again.
pub fn stop() {
    crate::trace::set_enabled(false);
    observe::shutdown();
}

/// Span totals and counters of every actor scope at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(actor, span path)` → `(calls, seconds)`.
    spans: BTreeMap<(String, String), (u64, f64)>,
    /// `(actor, counter)` → value.
    counters: BTreeMap<(String, String), u64>,
}

/// Snapshot of the installed hub; empty when telemetry is off.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    let Some(hub) = observe::hub() else { return snap };
    for scope in hub.scopes() {
        let actor = scope.actor().to_string();
        for row in scope.span_rows() {
            snap.spans.insert(
                (actor.clone(), row.path.clone()),
                (row.stat.calls, row.stat.total.as_secs_f64()),
            );
        }
        for (name, value) in scope.metrics().counters() {
            snap.counters.insert((actor.clone(), name), value);
        }
    }
    snap
}

impl Snapshot {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let spans = self
            .spans
            .iter()
            .map(|(k, &(c, s))| {
                let (c0, s0) = earlier.spans.get(k).copied().unwrap_or((0, 0.0));
                (k.clone(), (c - c0, s - s0))
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v - earlier.counters.get(k).copied().unwrap_or(0)))
            .collect();
        Snapshot { spans, counters }
    }

    /// Actor names present, sorted.
    pub fn actors(&self) -> Vec<String> {
        let mut a: Vec<String> = self.spans.keys().map(|k| k.0.clone()).collect();
        a.extend(self.counters.keys().map(|k| k.0.clone()));
        a.sort();
        a.dedup();
        a
    }

    /// Actors whose name starts with `prefix`.
    pub fn actors_like(&self, prefix: &str) -> Vec<String> {
        self.actors().into_iter().filter(|a| a.starts_with(prefix)).collect()
    }

    /// Seconds spent in span `path` of `actor`.
    pub fn span_s(&self, actor: &str, path: &str) -> f64 {
        self.spans.get(&(actor.to_string(), path.to_string())).map_or(0.0, |v| v.1)
    }

    /// Completed calls of span `path` of `actor`.
    pub fn span_calls(&self, actor: &str, path: &str) -> u64 {
        self.spans.get(&(actor.to_string(), path.to_string())).map_or(0, |v| v.0)
    }

    /// Seconds in every span whose last path segment is `name`, summed
    /// over the actors starting with `prefix`.
    pub fn named_span_s(&self, prefix: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|((a, p), _)| {
                a.starts_with(prefix) && (p == name || p.ends_with(&format!("/{name}")))
            })
            .map(|(_, v)| v.1)
            .sum()
    }

    /// Counter `name` summed over the actors starting with `prefix`.
    pub fn counter(&self, prefix: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((a, n), _)| a.starts_with(prefix) && n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Nanoseconds inside timed backend kernels, over the actors
    /// starting with `prefix`.
    pub fn kernel_ns(&self, prefix: &str) -> u64 {
        KERNEL_COUNTERS.iter().map(|k| self.counter(prefix, k.nanos)).sum()
    }

    /// Prints every span row and kernel counter, actor by actor in
    /// sorted order.
    pub fn print(&self, title: &str) {
        println!("\nprogram telemetry: {title}");
        for actor in self.actors() {
            let rows: Vec<_> =
                self.spans.iter().filter(|((a, _), v)| *a == actor && v.0 > 0).collect();
            let kernels: Vec<(String, u64, u64)> = KERNEL_COUNTERS
                .iter()
                .map(|k| {
                    let short = k.calls.trim_start_matches("nn.kernel.").trim_end_matches(".calls");
                    (
                        short.to_string(),
                        self.counter(&actor, k.calls),
                        self.counter(&actor, k.nanos),
                    )
                })
                .filter(|k| k.1 > 0)
                .collect();
            if rows.is_empty() && kernels.is_empty() {
                continue;
            }
            println!("  [{actor}]");
            for ((_, path), (calls, s)) in rows {
                println!("    span {path:<40} {calls:>7} calls {s:>12.6} s");
            }
            for (k, calls, ns) in kernels {
                println!("    kernel {k:<38} {calls:>7} calls {:>12.6} s", ns as f64 * 1e-9);
            }
        }
    }
}
