//! Result collection and printing: the run header, the metric table,
//! the output checks, and the final JSON line.

use crate::Args;
use std::process::ExitCode;

/// `(name, unit, better)` of every end-to-end metric, in print order.
/// Every workload reports all of them with telemetry off.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("wire_bytes_per_op", "B", "lower"),
    ("resemblance", "score", "higher"),
];

/// `(name, unit, better, what it should move)` of every per-layer
/// metric. Every workload reports all of them in its traced run; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    // distributed.stacked: existing phase spans, blocking path of one op.
    ("stacked.ae_train_s", "s", "lower", "op_s @ fit-adult"),
    ("stacked.ae_train_skew", "ratio", "lower", "op_s @ fit-adult"),
    ("stacked.encode_s", "s", "lower", "op_s @ fit-adult"),
    ("stacked.upload_wait_s", "s", "lower", "op_s @ fit-adult"),
    ("stacked.latent_train_s", "s", "lower", "op_s @ fit-adult"),
    ("stacked.unattributed_s", "s", "lower", "op_s @ fit-adult"),
    ("stacked.sample_s_per_krow", "s/krow", "lower", "rows_per_s @ fit-adult, synth-churn"),
    ("stacked.decode_s_per_krow", "s/krow", "lower", "rows_per_s @ fit-adult, synth-churn"),
    // distributed.transport
    ("transport.payload_msgs", "count", "lower", "wire_bytes_per_op"),
    ("transport.overhead_bytes", "B", "lower", "wire_bytes_per_op"),
    ("transport.control_bytes", "B", "lower", "wire_bytes_per_op @ serve-adult"),
    ("transport.retransmits", "count", "lower", "op_s (0 on a perfect link)"),
    ("transport.comm_wait_s", "s", "lower", "op_s @ serve-adult"),
    ("transport.roundtrip_us", "us", "lower", "op_s @ serve-adult"),
    // distributed.message
    (
        "message.codec_us_per_mb",
        "us/MB",
        "lower",
        "rows_per_s @ fit-adult, synth-churn; op_s @ serve-adult",
    ),
    // core.serve
    ("serve.fetch_ms", "ms", "lower", "op_s, rows_per_s @ serve-adult"),
    ("serve.sample_ms", "ms", "lower", "op_s, rows_per_s @ serve-adult"),
    ("serve.gap_ms", "ms", "lower", "op_s, rows_per_s @ serve-adult"),
    ("serve.rejected", "count", "lower", "failed ops @ serve-adult"),
    ("serve.in_flight_peak", "jobs", "higher", "rows_per_s @ serve-adult"),
    // process
    ("proc.cpu_per_wall", "cores", "higher", "op_s @ fit-adult, rows_per_s @ all"),
    // diffusion
    ("diffusion.train_step_ms", "ms", "lower", "op_s @ fit-adult"),
    (
        "diffusion.sample_us_per_row_step.c8192",
        "us",
        "lower",
        "rows_per_s @ fit-adult, synth-churn",
    ),
    ("diffusion.sample_us_per_row_step.c64", "us", "lower", "op_s @ serve-adult"),
    // models
    ("models.ae_step_ms", "ms", "lower", "op_s @ fit-adult"),
    ("models.ae_encode_ms", "ms", "lower", "op_s @ fit-adult"),
    ("models.ae_decode_us_per_row", "us", "lower", "rows_per_s @ fit-adult, synth-churn"),
    // tabular
    ("tabular.minibatch_us", "us", "lower", "op_s @ fit-adult"),
    // nn.backend: existing kernel counters over the traced op
    ("nn.kernel.gemm.ms", "ms", "lower", "op_s, rows_per_s @ fit-adult, synth-churn"),
    ("nn.kernel.gemm.calls", "count", "lower", "op_s, rows_per_s @ fit-adult, synth-churn"),
    ("nn.kernel.gemm_transpose.ms", "ms", "lower", "op_s @ fit-adult"),
    ("nn.kernel.gemm_transpose.calls", "count", "lower", "op_s @ fit-adult"),
    ("nn.kernel.transpose_gemm.ms", "ms", "lower", "op_s @ fit-adult"),
    ("nn.kernel.transpose_gemm.calls", "count", "lower", "op_s @ fit-adult"),
    ("nn.kernel.gather.ms", "ms", "lower", "op_s @ fit-adult"),
    ("nn.kernel.gather.calls", "count", "lower", "op_s @ fit-adult"),
    ("nn.kernel.scatter.ms", "ms", "lower", "op_s @ fit-adult"),
    ("nn.kernel.scatter.calls", "count", "lower", "op_s @ fit-adult"),
    ("nn.kernel.axpy.ms", "ms", "lower", "op_s @ fit-adult"),
    ("nn.kernel.axpy.calls", "count", "lower", "op_s @ fit-adult"),
    ("nn.kernel.sum_rows.ms", "ms", "lower", "op_s @ fit-adult"),
    ("nn.kernel.sum_rows.calls", "count", "lower", "op_s @ fit-adult"),
    ("nn.kernel.map.ms", "ms", "lower", "op_s, rows_per_s @ fit-adult, synth-churn"),
    ("nn.kernel.map.calls", "count", "lower", "op_s, rows_per_s @ fit-adult, synth-churn"),
    ("nn.kernel.zip.ms", "ms", "lower", "op_s, rows_per_s @ fit-adult, synth-churn"),
    ("nn.kernel.zip.calls", "count", "lower", "op_s, rows_per_s @ fit-adult, synth-churn"),
    ("nn.kernel.softmax.ms", "ms", "lower", "op_s @ fit-adult"),
    ("nn.kernel.softmax.calls", "count", "lower", "op_s @ fit-adult"),
    ("nn.kernel_share.ae_train", "ratio", "higher", "op_s @ fit-adult"),
    ("nn.kernel_share.latent_train", "ratio", "higher", "op_s @ fit-adult"),
    ("nn.kernel_share.sample", "ratio", "higher", "rows_per_s @ fit-adult, synth-churn"),
    // nn layers, loss, optimiser: replays at batch 192 x hidden 128
    ("nn.linear.fwd_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.linear.bwd_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.gelu.fwd_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.gelu.bwd_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.dropout.fwd_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.loss.gaussian_nll_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.loss.grouped_ce_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.loss.mse_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.adam.step_us", "us", "lower", "op_s @ fit-adult"),
    ("nn.workspace.misses_per_step", "count", "lower", "op_s @ fit-adult"),
    // observe
    ("observe.overhead_ratio", "ratio", "lower", "none (bounds tracing cost)"),
];

/// The benchmark's manifest. It lists the catalogue's metrics again for
/// the harness, one per line; [`manifest_problems`] keeps the two equal.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Where `BENCHMARK.json` and the catalogue disagree on a metric's
/// name, unit or direction, or on how many metrics there are.
fn manifest_problems() -> Vec<String> {
    let e2e = END_TO_END.iter().map(|&(n, u, b)| (n, u, b, ", \"bound\": "));
    let layers = PER_LAYER.iter().map(|&(n, u, b, _)| (n, u, b, "}"));
    let mut problems: Vec<String> = e2e
        .chain(layers)
        .map(|(name, unit, better, end)| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"{end}")
        })
        .filter(|entry| !MANIFEST.contains(entry.as_str()))
        .map(|entry| format!("BENCHMARK.json lacks the catalogue entry {entry}"))
        .collect();
    let listed = MANIFEST.matches("\"better\": ").count();
    let catalogued = END_TO_END.len() + PER_LAYER.len();
    if listed != catalogued {
        problems.push(format!("BENCHMARK.json lists {listed} metrics, the catalogue {catalogued}"));
    }
    problems
}

/// `(unit, better, moves)` of a catalogued metric; `moves` is empty for
/// end-to-end metrics.
fn catalogue(name: &str) -> Option<(&'static str, &'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u, b)| (n, u, b, ""))
        .chain(PER_LAYER.iter().copied())
        .find(|m| m.0 == name)
        .map(|(_, u, b, moves)| (u, b, moves))
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    detail: String,
}

/// Everything one invocation reports.
pub struct Report {
    trace: bool,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    checks_run: usize,
    failures: Vec<String>,
}

impl Report {
    pub fn new(args: &Args) -> Self {
        Self {
            trace: args.trace,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            checks_run: 0,
            failures: Vec::new(),
        }
    }

    /// Records a metric; `detail` is printed beside it (sample count,
    /// tail percentile, what it moves). Units come from the catalogue.
    pub fn metric(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        let Some((unit, better, moves)) = catalogue(name) else {
            self.fail(format!("metric {name} is not in the catalogue"));
            return;
        };
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
            return;
        }
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            better,
            moves,
            detail: detail.into(),
        });
    }

    /// Whether metric `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// Counts operations: `attempted` started, `failed` errored or were
    /// rejected with a typed error.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records the outcome of one output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks_run += 1;
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// How many checks have failed so far.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check(false, what);
    }

    /// Prints the metric table, the check summary and the JSON line, and
    /// maps the outcome to the exit status.
    pub fn finish(mut self) -> ExitCode {
        for problem in manifest_problems() {
            self.fail(problem);
        }
        let expected: Vec<&str> = if self.trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        for name in &expected {
            if !self.metrics.iter().any(|m| m.name == *name) {
                self.fail(format!("metric {name} was not measured"));
            }
        }
        self.metrics.retain(|m| expected.contains(&m.name.as_str()));
        self.metrics.sort_by_key(|m| expected.iter().position(|n| *n == m.name));

        println!("\n{:<42} {:>16} {:<8} detail", "metric", "value", "unit");
        for m in &self.metrics {
            let moves =
                if m.moves.is_empty() { String::new() } else { format!("; moves {}", m.moves) };
            println!(
                "{:<42} {:>16.6} {:<8} {} is better; {}{moves}",
                m.name, m.value, m.unit, m.better, m.detail
            );
        }
        let failed_share =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "\nops attempted {} failed {} (failed_share {failed_share:.4})",
            self.attempted, self.failed
        );
        if self.attempted == 0 {
            self.fail("no operation was attempted");
        }
        println!("checks: {} run, {} failed", self.checks_run, self.failures.len());
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.failures.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Prints the run header: host CPUs, SIMD level, backend threads,
/// precision, seed and the source revision when one can be read.
pub fn print_header(args: &Args) {
    use silofuse_core::nn::{backend, simd};
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: cpus={cpus} simd={} backend={} threads={} precision={} rev={}",
        simd::level().name(),
        backend::name(),
        backend::threads(),
        backend::precision().name(),
        git_rev().unwrap_or_else(|| "unavailable".into())
    );
}

/// The checked-out commit, read from `.git` without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
