//! `fit-adult`: closed loop, one caller. Each operation fits SiloFuse on
//! 4096 Adult rows over 2 silos at the standard budget, then synthesizes
//! 4096 rows. Training dominates; this is the ROADMAP headline.

use super::{checked_op, keep_going, repeat_setup, report_common, resemblance_score, wire_bytes};
use crate::checks::{check_table, digest};
use crate::report::Report;
use crate::stats::{describe, median, process_cpu_s, secs};
use crate::telemetry::{self, Snapshot};
use crate::{trace, Args};
use rand::{rngs::StdRng, SeedableRng};
use silofuse_core::distributed::CommStats;
use silofuse_core::tabular::partition::PartitionStrategy;
use silofuse_core::tabular::{profiles, Table};
use silofuse_core::{ProtocolError, SiloFuse, SiloFuseConfig, TrainBudget};
use std::time::Instant;

const ROWS: usize = 4096;
const SILOS: usize = 2;
/// Operations per run, at least: one fit's wall time varies by about
/// a tenth on a shared host, so `op_s` is a median of three.
const MIN_OPS: usize = 3;
/// Lowest acceptable composite resemblance of the synthesized table.
const RESEMBLANCE_FLOOR: f64 = 60.0;

fn budget() -> TrainBudget {
    TrainBudget::standard()
}

struct Outcome {
    fit_s: f64,
    synth_s: f64,
    table: Table,
    comm: CommStats,
    /// Telemetry before the fit, between fit and synthesis, and after
    /// (empty when telemetry is off).
    snaps: [Snapshot; 3],
}

fn operation(real: &Table, seed: u64) -> Result<Outcome, ProtocolError> {
    let _op = trace::op_span("op.fit-adult", trace::next_op());
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
        model.try_fit(real, &mut rng)?;
    }
    let fit_s = secs(t.elapsed());
    let s1 = telemetry::snapshot();
    let t = Instant::now();
    let table = {
        let _s = trace::span("core.SiloFuse::try_synthesize");
        model.try_synthesize(ROWS, &mut rng)?
    };
    let synth_s = secs(t.elapsed());
    let s2 = telemetry::snapshot();
    Ok(Outcome { fit_s, synth_s, table, comm: model.comm_stats(), snaps: [s0, s1, s2] })
}

fn setup(seed: u64) -> Table {
    profiles::adult().generate(ROWS, seed)
}

pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        return traced(args, report);
    }
    let (real, mut setup_s) = repeat_setup(|| setup(args.seed));
    let start = Instant::now();
    let (mut fit, mut synth, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Outcome> = None;
    let (mut attempted, mut failed) = (0, 0);
    while keep_going(start, args.seconds, attempted as usize, MIN_OPS) {
        attempted += 1;
        let result = operation(&real, args.seed);
        // The host's speed drifts over seconds to minutes, and a
        // set-up takes milliseconds: sampling it again after every
        // operation spreads its median over the whole run.
        setup_s.extend(repeat_setup(|| setup(args.seed)).1);
        match result {
            Ok(out) => {
                fit.push(out.fit_s);
                synth.push(out.synth_s);
                wall.push(out.fit_s + out.synth_s);
                failed += checked_op(report, |r| {
                    check_table(r, &out.table, real.schema(), ROWS);
                    if let Some(f) = &first {
                        r.check(
                            digest(&f.table) == digest(&out.table),
                            "synthesized bytes differ between operations with the same seed",
                        );
                        r.check(
                            wire_bytes(&f.comm) == wire_bytes(&out.comm),
                            "wire bytes differ between operations with the same seed",
                        );
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
    let score = resemblance_score(&real, &first.table);
    report.check(
        score >= RESEMBLANCE_FLOOR,
        format!("resemblance {score:.3} below the floor {RESEMBLANCE_FLOOR}"),
    );
    println!("digest {:016x} of the synthesized table (every op)", digest(&first.table));
    println!("fit_s: {}", describe(&fit, "s"));
    println!("synth_s: {}", describe(&synth, "s"));
    println!("synth_rows_per_s: {:.3} rows/s", ROWS as f64 / median(&synth));
    println!(
        "comm_payload_bytes: {} B (bytes_up + bytes_down per op)",
        first.comm.bytes_up + first.comm.bytes_down
    );
    report_common(report, &setup_s, wire_bytes(&first.comm) as f64);
    report.metric(
        "op_s",
        median(&wall),
        format!("try_fit + try_synthesize({ROWS}); {}", describe(&wall, "s")),
    );
    report.metric(
        "rows_per_s",
        ROWS as f64 / median(&synth),
        format!("{ROWS} rows / median try_synthesize; n={}", synth.len()),
    );
    report.metric("resemblance", score, format!("composite, floor {RESEMBLANCE_FLOOR}"));
}

fn traced(args: &Args, report: &mut Report) {
    let real = setup(args.seed);
    let cpu = process_cpu_s();
    let plain = operation(&real, args.seed);
    let cpu = process_cpu_s() - cpu;
    telemetry::start();
    let traced = operation(&real, args.seed);
    telemetry::stop();
    let Some((plain, traced)) = super::both_ok(report, plain, traced) else { return };
    let bad = checked_op(report, |r| check_table(r, &plain.table, real.schema(), ROWS))
        + checked_op(report, |r| {
            check_table(r, &traced.table, real.schema(), ROWS);
            r.check(
                digest(&plain.table) == digest(&traced.table),
                "traced and untraced runs synthesized different bytes",
            );
        });
    report.ops(0, bad);
    let plain_wall = plain.fit_s + plain.synth_s;
    let wall = traced.fit_s + traced.synth_s;
    let [s0, s1, s2] = &traced.snaps;
    let (fit, synth, op) = (s1.since(s0), s2.since(s1), s2.since(s0));
    fit.print("try_fit");
    synth.print("try_synthesize");
    println!("\nuntraced op {plain_wall:.4} s (fit {:.4} s), traced op {wall:.4} s", plain.fit_s);

    super::report_stacked(report, &fit, &synth, (traced.fit_s, traced.synth_s), ROWS);
    super::report_transport(report, &traced.comm, op.named_span_s("", "comm-wait"), 1.0);
    report.metric("proc.cpu_per_wall", cpu / plain_wall, "process CPU s / wall s, untraced op");
    super::report_kernels(report, &op, super::stacked_shares(&fit, &synth));
    report.metric("observe.overhead_ratio", wall / plain_wall, "traced op wall / untraced op wall");
    let b = budget();
    let slowest_ae = super::per_silo(&fit, "ae-train").into_iter().fold(0.0, f64::max);
    super::replays_and_predictions(
        report,
        &[
            (
                "latent-train (coordinator)",
                "diffusion.train_step",
                b.diffusion_steps as f64,
                fit.span_s("coordinator", "latent-train"),
            ),
            ("ae-train (slowest silo)", "models.ae_step+minibatch", b.ae_steps as f64, slowest_ae),
            (
                "sample (coordinator)",
                "diffusion.sample.c8192",
                (ROWS * b.inference_steps) as f64,
                synth.span_s("coordinator", "sample"),
            ),
        ],
    );
    super::report_unexercised(report);
}
