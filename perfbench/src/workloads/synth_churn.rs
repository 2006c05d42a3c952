//! `synth-churn`: closed loop, one caller, pure inference. Set-up fits
//! SiloFuse on 4096 Churn rows over 2 silos (standard architecture, a
//! quarter of the standard steps); each operation is one
//! `try_synthesize(8192)`, a single default-size chunk through the
//! batched sampler, the 2956-wide decoder heads and the transport.

use super::{
    checked_op, comm_delta, keep_going, repeat_setup, report_common, resemblance_score, wire_bytes,
};
use crate::checks::{check_table, digest};
use crate::report::Report;
use crate::stats::{describe, median, process_cpu_s, secs};
use crate::telemetry::{self, Snapshot};
use crate::{trace, Args};
use rand::{rngs::StdRng, SeedableRng};
use silofuse_core::tabular::partition::PartitionStrategy;
use silofuse_core::tabular::{profiles, Table};
use silofuse_core::{ProtocolError, SiloFuse, SiloFuseConfig, TrainBudget};
use std::time::Instant;

const TRAIN_ROWS: usize = 4096;
const ROWS: usize = 8192;
const SILOS: usize = 2;
/// Operations per run, at least: one operation's wall time varies by
/// up to a fifth on a shared host, so `op_s` is a median of three.
const MIN_OPS: usize = 3;
/// Salt of the synthesis RNG, so it differs from the training RNG.
const SYNTH_SALT: u64 = 0x5e17_c4a2;

fn budget() -> TrainBudget {
    TrainBudget::standard().scaled_down(4)
}

struct Fitted {
    real: Table,
    model: SiloFuse,
    fit_s: f64,
    /// Telemetry before and after the fit (empty when untraced).
    snaps: [Snapshot; 2],
}

fn setup(seed: u64) -> Result<Fitted, ProtocolError> {
    let _s = trace::op_span("setup.synth-churn", trace::next_op());
    let real = profiles::churn().generate(TRAIN_ROWS, seed);
    let mut model = SiloFuse::new(SiloFuseConfig {
        n_clients: SILOS,
        strategy: PartitionStrategy::Default,
        model: budget().latent_config(seed),
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let s0 = telemetry::snapshot();
    let t = Instant::now();
    {
        let _s = trace::span("core.SiloFuse::try_fit");
        model.try_fit(&real, &mut rng)?;
    }
    let fit_s = secs(t.elapsed());
    Ok(Fitted { real, model, fit_s, snaps: [s0, telemetry::snapshot()] })
}

struct Outcome {
    secs: f64,
    table: Table,
    wire: u64,
    comm: silofuse_core::distributed::CommStats,
}

fn operation(model: &mut SiloFuse, seed: u64) -> Result<Outcome, ProtocolError> {
    let _op = trace::op_span("op.synth-churn", trace::next_op());
    let mut rng = StdRng::seed_from_u64(seed ^ SYNTH_SALT);
    let before = model.comm_stats();
    let t = Instant::now();
    let table = {
        let _s = trace::span("core.SiloFuse::try_synthesize");
        model.try_synthesize(ROWS, &mut rng)?
    };
    let secs = secs(t.elapsed());
    let comm = comm_delta(&model.comm_stats(), &before);
    Ok(Outcome { secs, table, wire: wire_bytes(&comm), comm })
}

pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        return traced(args, report);
    }
    let (fitted, setup_s) = repeat_setup(|| setup(args.seed));
    let mut fitted = match fitted {
        Ok(f) => f,
        Err(e) => {
            report.ops(1, 1);
            return report.fail(format!("set-up fit failed: {e}"));
        }
    };
    let start = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<Outcome> = None;
    let (mut attempted, mut failed) = (0, 0);
    while keep_going(start, args.seconds, attempted as usize, MIN_OPS) {
        attempted += 1;
        match operation(&mut fitted.model, args.seed) {
            Ok(out) => {
                times.push(out.secs);
                failed += checked_op(report, |r| {
                    check_table(r, &out.table, fitted.real.schema(), ROWS);
                    if let Some(f) = &first {
                        r.check(
                            digest(&f.table) == digest(&out.table),
                            "synthesized bytes differ between operations with the same seed",
                        );
                        r.check(f.wire == out.wire, "wire bytes differ between operations");
                    }
                });
                first.get_or_insert(out);
            }
            Err(e) => {
                failed += 1;
                report.fail(format!("operation failed: {e}"));
            }
        }
    }
    report.ops(attempted, failed);
    let Some(first) = first else { return };
    let score = resemblance_score(&fitted.real, &first.table);
    println!("digest {:016x} of the synthesized table (every op)", digest(&first.table));
    println!("synth_s: {}", describe(&times, "s"));
    println!(
        "comm_payload_bytes: {} B (bytes_up + bytes_down per op)",
        first.comm.bytes_up + first.comm.bytes_down
    );
    report_common(report, &setup_s, first.wire as f64);
    report.metric(
        "op_s",
        median(&times),
        format!("try_synthesize({ROWS}); {}", describe(&times, "s")),
    );
    report.metric(
        "rows_per_s",
        ROWS as f64 / median(&times),
        format!("{ROWS} rows / median try_synthesize; n={}", times.len()),
    );
    report.metric("resemblance", score, "composite vs the training table");
}

fn traced(args: &Args, report: &mut Report) {
    // The set-up fit is traced too: it is the only Churn fit, and it
    // shows the skew the 2932-way column puts on its silo.
    telemetry::start();
    let fitted = setup(args.seed);
    telemetry::stop();
    let mut fitted = match fitted {
        Ok(f) => f,
        Err(e) => {
            report.ops(1, 1);
            return report.fail(format!("set-up fit failed: {e}"));
        }
    };
    let cpu = process_cpu_s();
    let plain = operation(&mut fitted.model, args.seed);
    let cpu = process_cpu_s() - cpu;
    telemetry::start();
    let s0 = telemetry::snapshot();
    let traced = operation(&mut fitted.model, args.seed);
    let synth = telemetry::snapshot().since(&s0);
    telemetry::stop();
    let Some((plain, traced)) = super::both_ok(report, plain, traced) else { return };
    let schema = fitted.real.schema();
    let bad = checked_op(report, |r| check_table(r, &plain.table, schema, ROWS))
        + checked_op(report, |r| {
            check_table(r, &traced.table, schema, ROWS);
            r.check(
                digest(&plain.table) == digest(&traced.table),
                "traced and untraced runs synthesized different bytes",
            );
        });
    report.ops(0, bad);
    let [f0, f1] = &fitted.snaps;
    let fit = f1.since(f0);
    fit.print("set-up try_fit");
    synth.print("try_synthesize");
    println!("\nuntraced op {:.4} s, traced op {:.4} s", plain.secs, traced.secs);

    // Phase rows cover the traced set-up fit plus the traced synthesis.
    super::report_stacked(report, &fit, &synth, (fitted.fit_s, traced.secs), ROWS);
    super::report_transport(report, &traced.comm, synth.named_span_s("", "comm-wait"), 1.0);
    report.metric("proc.cpu_per_wall", cpu / plain.secs, "process CPU s / wall s, untraced op");
    super::report_kernels(report, &synth, super::stacked_shares(&fit, &synth));
    report.metric(
        "observe.overhead_ratio",
        traced.secs / plain.secs,
        "traced op wall / untraced op wall",
    );
    let steps = budget().inference_steps;
    super::replays_and_predictions(
        report,
        &[
            (
                "sample (coordinator)",
                "diffusion.sample.c8192",
                (ROWS * steps) as f64,
                synth.span_s("coordinator", "sample"),
            ),
            (
                "decode, wide-head silo only",
                "models.ae_decode",
                ROWS as f64,
                synth.span_s("coordinator", "decode"),
            ),
        ],
    );
    super::report_unexercised(report);
}
