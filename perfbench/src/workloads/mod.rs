//! The three workloads and the pieces they share.

mod fit_adult;
mod serve_adult;
mod synth_churn;

use crate::report::{Report, PER_LAYER};
use crate::stats::{describe, median, secs};
use crate::telemetry::Snapshot;
use crate::{replay, stats, trace, Args};
use silofuse_core::distributed::CommStats;
use silofuse_core::metrics::{resemblance, ResemblanceConfig};
use silofuse_core::tabular::Table;
use std::time::Instant;

/// A workload: runs, checks, and fills the report.
pub type Workload = fn(&Args, &mut Report);

/// Looks a workload up by its command-line name.
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "fit-adult" => Some(fit_adult::run),
        "synth-churn" => Some(synth_churn::run),
        "serve-adult" => Some(serve_adult::run),
        _ => None,
    }
}

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Cheap set-ups repeat until they have taken this long in total, so
/// their median is not at the mercy of one scheduler tick.
pub const SETUP_MIN_S: f64 = 0.5;

/// Runs `setup` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_MIN_S`], returning the last result and every set-up's wall
/// time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(secs(t.elapsed()));
    }
    (last.expect("at least one set-up"), times)
}

/// Whether a closed loop that started at `start` should begin another
/// operation: until `seconds` have passed and at least `min_ops` ran.
pub fn keep_going(start: Instant, seconds: f64, done: usize, min_ops: usize) -> bool {
    done < min_ops || secs(start.elapsed()) < seconds
}

/// The composite resemblance score (0-100) of `synth` against `real`.
pub fn resemblance_score(real: &Table, synth: &Table) -> f64 {
    resemblance(real, synth, &ResemblanceConfig::default()).composite
}

/// `after - before` of the wire ledgers.
pub fn comm_delta(after: &CommStats, before: &CommStats) -> CommStats {
    CommStats {
        bytes_up: after.bytes_up - before.bytes_up,
        bytes_down: after.bytes_down - before.bytes_down,
        messages_up: after.messages_up - before.messages_up,
        messages_down: after.messages_down - before.messages_down,
        rounds: after.rounds - before.rounds,
        bytes_retried: after.bytes_retried - before.bytes_retried,
        retransmits: after.retransmits - before.retransmits,
        bytes_ack: after.bytes_ack - before.bytes_ack,
        duplicates_dropped: after.duplicates_dropped - before.duplicates_dropped,
        timeouts: after.timeouts - before.timeouts,
        bytes_trace: after.bytes_trace - before.bytes_trace,
        bytes_control: after.bytes_control - before.bytes_control,
        messages_control: after.messages_control - before.messages_control,
        reorder_dropped: after.reorder_dropped - before.reorder_dropped,
        reorder_buffered_peak: after.reorder_buffered_peak,
    }
}

/// Every byte one operation put on the wire, trace headers excluded:
/// payload both ways, control plane, acks and retransmissions.
pub fn wire_bytes(c: &CommStats) -> u64 {
    c.bytes_up + c.bytes_down + c.bytes_control + c.bytes_ack + c.bytes_retried
}

/// The end-to-end metrics every workload shares.
pub fn report_common(report: &mut Report, setup_s: &[f64], wire_bytes_per_op: f64) {
    report.metric("setup_s", median(setup_s), describe(setup_s, "s"));
    report.metric("peak_rss_mb", stats::peak_rss_mb(), "process VmHWM");
    report.metric(
        "wire_bytes_per_op",
        wire_bytes_per_op,
        "payload + control + ack + retransmit bytes",
    );
}

/// The transport rows of a traced run: `c` and `comm_wait_s` cover
/// `ops` operations and are reported per operation.
pub fn report_transport(report: &mut Report, c: &CommStats, comm_wait_s: f64, ops: f64) {
    let per_op = |v: u64| v as f64 / ops;
    report.metric(
        "transport.payload_msgs",
        per_op(c.messages_up + c.messages_down + c.messages_control),
        "messages per op, all ledgers",
    );
    report.metric(
        "transport.overhead_bytes",
        per_op(c.bytes_ack + c.bytes_retried),
        "ack + retransmitted bytes per op (trace headers excluded)",
    );
    report.metric(
        "transport.control_bytes",
        per_op(c.bytes_control),
        "control-ledger bytes per op",
    );
    report.metric("transport.retransmits", per_op(c.retransmits), "per op; 0 on a perfect link");
    report.metric("transport.comm_wait_s", comm_wait_s / ops, "comm-wait spans per op");
}

/// Share of a call's wall time its phase spans may leave unexplained.
const ATTRIBUTION_TOLERANCE: f64 = 0.01;

/// The stacked-protocol phase rows of one traced fit + synthesis.
/// `fit` and `synth` are the telemetry of each call, `fit_s` and
/// `synth_s` their wall times and `rows` the rows synthesized. The
/// blocking path is the coordinator's: upload wait and latent-train in
/// the fit, sample and decode in the synthesis.
pub fn report_stacked(
    report: &mut Report,
    fit: &Snapshot,
    synth: &Snapshot,
    (fit_s, synth_s): (f64, f64),
    rows: usize,
) {
    let ae = per_silo(fit, "ae-train");
    let ae_max = ae.iter().copied().fold(0.0, f64::max);
    let ae_min = ae.iter().copied().fold(f64::INFINITY, f64::min);
    let encode = per_silo(fit, "encode").into_iter().fold(0.0, f64::max);
    let upload_wait = fit.span_s("coordinator", "comm-wait");
    let latent = fit.span_s("coordinator", "latent-train");
    let sample = synth.span_s("coordinator", "sample");
    let decode = synth.span_s("coordinator", "decode");
    let fit_rest = fit_s - (upload_wait + latent);
    let synth_rest = synth_s - (sample + decode);
    let unattributed = fit_rest + synth_rest;
    let krows = rows as f64 / 1000.0;
    report.metric("stacked.ae_train_s", ae_max, format!("slowest silo; per silo {ae:.4?}"));
    report.metric("stacked.ae_train_skew", ae_max / ae_min, "slowest / fastest silo ae-train");
    report.metric(
        "stacked.encode_s",
        encode,
        "slowest silo; the span stays open through the upload and its ack",
    );
    report.metric(
        "stacked.upload_wait_s",
        upload_wait,
        "coordinator comm-wait before latent-train",
    );
    report.metric("stacked.latent_train_s", latent, "coordinator latent-train span");
    report.metric(
        "stacked.unattributed_s",
        unattributed,
        format!("fit {fit_rest:.4} s + synthesis {synth_rest:.4} s outside the blocking phases"),
    );
    report.metric(
        "stacked.sample_s_per_krow",
        sample / krows,
        format!(
            "coordinator sample span; {} calls for {} chunks (the last call is the empty one)",
            synth.span_calls("coordinator", "sample"),
            synth.span_calls("coordinator", "sample/synth.chunk")
        ),
    );
    report.metric(
        "stacked.decode_s_per_krow",
        decode / krows,
        "coordinator decode span: slice send/recv plus silo decode, charged to the coordinator",
    );
    println!(
        "\nblocking path, try_fit: upload_wait {upload_wait:.4} + latent_train {latent:.4} \
         + unattributed {fit_rest:.4} = fit_s {fit_s:.4} s ({:.3}% unattributed)",
        100.0 * fit_rest / fit_s
    );
    println!(
        "blocking path, try_synthesize: sample {sample:.4} + decode {decode:.4} \
         + unattributed {synth_rest:.4} = synth_s {synth_s:.4} s ({:.3}% unattributed)",
        100.0 * synth_rest / synth_s
    );
    for (call, rest, wall) in
        [("try_fit", fit_rest, fit_s), ("try_synthesize", synth_rest, synth_s)]
    {
        report.check(
            rest.abs() <= ATTRIBUTION_TOLERANCE * wall,
            format!(
                "{call}: the blocking-path phases leave {rest:.4} s of its {wall:.4} s \
                 unexplained, over {}%",
                100.0 * ATTRIBUTION_TOLERANCE
            ),
        );
    }
}

/// Seconds in span `path` of each silo, in silo order.
pub fn per_silo(fit: &Snapshot, path: &str) -> Vec<f64> {
    fit.actors_like("silo").iter().map(|s| fit.span_s(s, path)).collect()
}

/// Each stacked phase's share of time inside timed kernels: silo
/// ae-train plus encode, coordinator latent-train, coordinator sample.
pub fn stacked_shares(fit: &Snapshot, synth: &Snapshot) -> [(&'static str, f64); 3] {
    let silo_s: f64 = per_silo(fit, "ae-train").iter().chain(&per_silo(fit, "encode")).sum();
    let coordinator = |snap: &Snapshot, path| {
        share(snap.kernel_ns("coordinator"), snap.span_s("coordinator", path))
    };
    [
        ("ae_train", share(fit.kernel_ns("silo"), silo_s)),
        ("latent_train", coordinator(fit, "latent-train")),
        ("sample", coordinator(synth, "sample")),
    ]
}

/// Runs one operation's output checks; returns 1 when any of them
/// failed, so the operation counts as failed.
pub fn checked_op(report: &mut Report, checks: impl FnOnce(&mut Report)) -> u64 {
    let before = report.failure_count();
    checks(report);
    u64::from(report.failure_count() > before)
}

/// Both halves of a traced run, or `None` once their errors are
/// recorded as failed operations.
pub fn both_ok<T, E: std::fmt::Display>(
    report: &mut Report,
    plain: Result<T, E>,
    traced: Result<T, E>,
) -> Option<(T, T)> {
    report.ops(2, u64::from(plain.is_err()) + u64::from(traced.is_err()));
    match (plain, traced) {
        (Ok(p), Ok(t)) => Some((p, t)),
        (p, t) => {
            for e in [p.err(), t.err()].into_iter().flatten() {
                report.fail(format!("operation failed: {e}"));
            }
            None
        }
    }
}

/// Kernel counters over a traced operation, plus each phase's share of
/// time inside timed kernels.
pub fn report_kernels(report: &mut Report, op: &Snapshot, shares: [(&str, f64); 3]) {
    use silofuse_core::nn::backend::KERNEL_COUNTERS;
    for k in KERNEL_COUNTERS {
        let short = k.calls.trim_end_matches(".calls");
        let actors = ["silo", "coordinator", "tenant", "bench"];
        let split: Vec<String> = actors
            .iter()
            .map(|a| format!("{a} {:.1} ms", op.counter(a, k.nanos) as f64 * 1e-6))
            .collect();
        report.metric(
            &format!("{short}.ms"),
            op.counter("", k.nanos) as f64 * 1e-6,
            split.join(", "),
        );
        report.metric(&format!("{short}.calls"), op.counter("", k.calls) as f64, "all actors");
    }
    for (phase, share) in shares {
        report.metric(&format!("nn.kernel_share.{phase}"), share, "kernel ns / phase span ns");
    }
}

/// `kernel_ns / span_s`, 0 when the span did not run.
pub fn share(kernel_ns: u64, span_s: f64) -> f64 {
    if span_s > 0.0 {
        kernel_ns as f64 * 1e-9 / span_s
    } else {
        0.0
    }
}

/// Reports 0 for every per-layer metric the workload did not measure:
/// the layer is not on its path.
pub fn report_unexercised(report: &mut Report) {
    for &(name, ..) in PER_LAYER {
        if !report.has(name) {
            report.metric(name, 0.0, "not on this workload's path");
        }
    }
}

/// Runs the layer replays and prints predicted next to measured phase
/// time for the phases the replays model.
pub fn replays_and_predictions(report: &mut Report, predictions: &[(&str, &str, f64, f64)]) {
    let r = replay::run_all(report);
    println!("\npredicted (replay x count) vs measured phase time");
    for &(what, replay_name, count, measured) in predictions {
        let per = r.get(replay_name).copied().unwrap_or(f64::NAN);
        let predicted = per * count;
        println!(
            "  {what:<44} predicted {predicted:>10.4} s ({replay_name} x {count}) measured {measured:>10.4} s ({:.0}%)",
            100.0 * predicted / measured
        );
    }
    trace::print_self_times();
}
