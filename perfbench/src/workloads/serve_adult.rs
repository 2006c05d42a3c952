//! `serve-adult`: closed loop with 2 tenant connections and no think
//! time. One registry model (LatentDiff on 2048 Adult rows, standard
//! architecture, a quarter of the standard steps); a job is 256 rows
//! fetched as two 128-row cursor pages, and each tenant sends its next
//! fetch only after the previous reply.

use super::{comm_delta, keep_going, repeat_setup, report_common, resemblance_score, wire_bytes};
use crate::checks::{digest, table_problem};
use crate::report::Report;
use crate::stats::{describe, median, process_cpu_s, secs, tail};
use crate::telemetry;
use crate::{trace, Args};
use silofuse_core::distributed::{NetConfig, ServeRejectCode};
use silofuse_core::tabular::{profiles, Column, Table};
use silofuse_core::{
    ModelRegistry, ModelSpec, ServeConfig, ServeError, SynthesisServer, TenantClient, TrainBudget,
};
use silofuse_observe as observe;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const MODEL: &str = "adult";
const TRAIN_ROWS: usize = 2048;
const TENANTS: u64 = 2;
const PAGE: u32 = 128;
const JOB_ROWS: u32 = 2 * PAGE;
/// Jobs per tenant, at least, in a timed run: 2 x 50 = 100 jobs give
/// the p90 ten samples beyond it.
const MIN_JOBS: usize = 50;
/// Jobs per tenant in each half of the traced run.
const TRACED_JOBS: usize = 12;
/// Jobs per tenant whose pages are checked against one whole-job sample.
const CHECKED_JOBS: usize = 2;
/// Job id of the rows the resemblance score is computed on.
const RESEMBLANCE_JOB: u64 = u64::MAX;
const RESEMBLANCE_ROWS: u32 = 2048;

fn serve_config() -> ServeConfig {
    ServeConfig { max_in_flight: 2, per_tenant_max: 1, chunk_rows: 64, net: NetConfig::default() }
}

fn setup(seed: u64) -> Result<SynthesisServer, ServeError> {
    let _s = trace::op_span("setup.serve-adult", trace::next_op());
    let budget = TrainBudget::standard().scaled_down(4);
    let specs = [ModelSpec::new(MODEL, "Adult", TRAIN_ROWS, seed, budget)];
    let registry = {
        let _s = trace::span("core.ModelRegistry::open");
        ModelRegistry::open(None, 50, &specs)?
    };
    SynthesisServer::new(registry, serve_config())
}

/// One finished job: its id and its two pages.
struct Job {
    id: u64,
    pages: [Table; 2],
}

#[derive(Default)]
struct TenantLog {
    attempted: u64,
    rejected: u64,
    errors: Vec<String>,
    /// Seconds from a job's first fetch to its last reply.
    latencies: Vec<f64>,
    /// Seconds per page fetch.
    fetches: Vec<f64>,
    jobs: Vec<Job>,
}

/// When a tenant stops sending jobs.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Instant, f64),
    Jobs(usize),
}

fn tenant_loop(client: TenantClient, model: u32, tenant: u64, until: Until) -> TenantLog {
    let mut log = TenantLog::default();
    let mut k = 0u64;
    loop {
        let more = match until {
            Until::Elapsed(start, seconds) => keep_going(start, seconds, k as usize, MIN_JOBS),
            Until::Jobs(n) => (k as usize) < n,
        };
        if !more {
            break;
        }
        let id = (tenant << 32) | k;
        k += 1;
        log.attempted += 1;
        let _op = trace::op_span("op.serve-adult.job", trace::next_op());
        let t = Instant::now();
        let fetch = |start: u64| {
            let _s = trace::span("core.TenantClient::fetch");
            let f = Instant::now();
            let page = client.fetch(model, id, start, PAGE);
            (page, secs(f.elapsed()))
        };
        let (a, fa) = fetch(0);
        let (b, fb) = match a {
            Ok(_) => fetch(u64::from(PAGE)),
            Err(_) => (Err(ServeError::Protocol("first page failed".into())), 0.0),
        };
        match (a, b) {
            (Ok(a), Ok(b)) => {
                log.latencies.push(secs(t.elapsed()));
                log.fetches.extend([fa, fb]);
                log.jobs.push(Job { id, pages: [a, b] });
            }
            (Err(ServeError::Rejected { code: ServeRejectCode::Overloaded, .. }), _)
            | (_, Err(ServeError::Rejected { code: ServeRejectCode::Overloaded, .. })) => {
                log.rejected += 1;
            }
            (Err(e), _) | (_, Err(e)) => log.errors.push(format!("job {id}: {e}")),
        }
    }
    log
}

/// Runs every tenant's loop on its own thread; returns the logs and the
/// loop's wall time.
fn closed_loop(server: &mut SynthesisServer, until: Until) -> (Vec<TenantLog>, f64) {
    let clients: Vec<TenantClient> =
        (0..TENANTS).map(|t| server.connect(&format!("tenant{t}"))).collect();
    let model = clients[0].model_id(MODEL).expect("the registry serves the model");
    let start = Instant::now();
    let until = match until {
        Until::Elapsed(_, s) => Until::Elapsed(start, s),
        jobs => jobs,
    };
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(0..)
            .map(|(c, t)| s.spawn(move || tenant_loop(c, model, t, until)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    (logs, secs(start.elapsed()))
}

/// Checks every page, and the first and last jobs of each tenant
/// against one whole-job sample straight from the registry (outside
/// timing): the two pages must concatenate to its exact bytes. A second
/// comparison, with the sample's numerics rounded to the `f32` grid a
/// `ServeChunk` carries, is printed beside it so a mismatch can be told
/// apart from a pagination fault. Returns how many jobs failed a check.
fn check_jobs(report: &mut Report, server: &SynthesisServer, logs: &[TenantLog]) -> u64 {
    let registry = server.registry();
    let model = registry.model_id(MODEL).expect("registered");
    let schema = registry.catalog()[model as usize].1.clone();
    let mut bad = Vec::new();
    let mut bad_jobs = BTreeSet::new();
    for log in logs {
        for job in &log.jobs {
            for page in &job.pages {
                if let Some(p) = table_problem(page, &schema, PAGE as usize) {
                    bad.push(format!("job {}: {p}", job.id));
                    bad_jobs.insert(job.id);
                }
            }
        }
        for e in &log.errors {
            report.fail(e.clone());
        }
    }
    report.check(bad.is_empty(), format!("invalid served pages: {bad:?}"));
    let (mut checked_jobs, mut exact, mut at_f32) = (0, 0, 0);
    for log in logs {
        let mut checked: Vec<&Job> = log.jobs.iter().take(CHECKED_JOBS).collect();
        checked.extend(log.jobs.last());
        for job in checked {
            let served = digest(&Table::concat_rows(&[&job.pages[0], &job.pages[1]]));
            let whole = match registry.sample(model, job.id, 0, JOB_ROWS) {
                Ok(whole) => whole,
                Err(e) => {
                    report.fail(format!("job {}: whole-job sample failed: {e}", job.id));
                    continue;
                }
            };
            checked_jobs += 1;
            let same = digest(&whole) == served;
            exact += usize::from(same);
            at_f32 += usize::from(digest(&at_f32_grid(&whole)) == served);
            report.check(
                same,
                format!("job {}: the two pages differ from one whole-job sample", job.id),
            );
            if !same {
                bad_jobs.insert(job.id);
            }
        }
    }
    println!(
        "pages vs one whole-job ModelRegistry::sample: {exact} of {checked_jobs} checked jobs \
         byte-identical; {at_f32} of {checked_jobs} identical once the sample's numerics are \
         rounded to f32"
    );
    bad_jobs.len() as u64
}

/// `table` with its numerics rounded to `f32`, the grid of a `ServeChunk`.
fn at_f32_grid(table: &Table) -> Table {
    let columns = table
        .columns()
        .iter()
        .map(|c| match c {
            Column::Numeric(v) => Column::Numeric(v.iter().map(|&x| f64::from(x as f32)).collect()),
            other => other.clone(),
        })
        .collect();
    Table::new(table.schema().clone(), columns).expect("same shape as a valid table")
}

fn job_digests(logs: &[TenantLog]) -> BTreeMap<u64, u64> {
    logs.iter()
        .flat_map(|l| &l.jobs)
        .map(|j| (j.id, digest(&Table::concat_rows(&[&j.pages[0], &j.pages[1]]))))
        .collect()
}

/// The set-up's server, or `None` once its failure is recorded.
fn started(
    report: &mut Report,
    server: Result<SynthesisServer, ServeError>,
) -> Option<SynthesisServer> {
    server
        .map_err(|e| {
            report.ops(1, 1);
            report.fail(format!("set-up failed: {e}"));
        })
        .ok()
}

pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        return traced(args, report);
    }
    let (server, setup_s) = repeat_setup(|| setup(args.seed));
    let Some(mut server) = started(report, server) else { return };
    let before = server.comm_stats();
    let (logs, wall) = closed_loop(&mut server, Until::Elapsed(Instant::now(), args.seconds));
    let comm = comm_delta(&server.comm_stats(), &before);
    let bad = check_jobs(report, &server, &logs);
    let model = server.registry().model_id(MODEL).expect("registered");
    let synth = server.registry().sample(model, RESEMBLANCE_JOB, 0, RESEMBLANCE_ROWS);
    server.shutdown();

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let rejected: u64 = logs.iter().map(|l| l.rejected).sum();
    let errors = logs.iter().map(|l| l.errors.len() as u64).sum::<u64>();
    let failed = rejected + errors + bad;
    report.ops(attempted, failed);
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies.iter().copied()).collect();
    let jobs = latencies.len();
    report.check(jobs > 0, "no job completed");
    if jobs == 0 {
        return;
    }
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    println!("jobs_per_s: {:.4} jobs/s ({jobs} jobs in {wall:.3} s)", jobs as f64 / wall);
    println!("job_p50_ms: {:.4} ms", median(&ms));
    match tail(&ms) {
        Some((label, v)) => println!("job_{label}_ms: {v:.4} ms (n={jobs})"),
        None => println!("job tail: fewer than 100 jobs, no percentile has 10 samples beyond it"),
    }
    println!("failed_share: {:.4}", failed as f64 / attempted.max(1) as f64);
    report_common(report, &setup_s, wire_bytes(&comm) as f64 / jobs as f64);
    report.metric("op_s", median(&latencies), format!("one 256-row job; {}", describe(&ms, "ms")));
    report.metric(
        "rows_per_s",
        (jobs as u64 * u64::from(JOB_ROWS)) as f64 / wall,
        format!("{jobs} jobs x {JOB_ROWS} rows over {wall:.3} s, {TENANTS} tenants"),
    );
    let real = profiles::adult().generate(TRAIN_ROWS, args.seed);
    match synth {
        Ok(synth) => report.metric(
            "resemblance",
            resemblance_score(&real, &synth),
            format!("composite, {RESEMBLANCE_ROWS} sampled rows vs the training table"),
        ),
        Err(e) => report.fail(format!("resemblance sample failed: {e}")),
    }
}

fn traced(args: &Args, report: &mut Report) {
    let Some(mut server) = started(report, setup(args.seed)) else { return };
    let cpu = process_cpu_s();
    let (plain, plain_wall) = closed_loop(&mut server, Until::Jobs(TRACED_JOBS));
    let cpu = process_cpu_s() - cpu;
    let model = server.registry().model_id(MODEL).expect("registered");
    let sample = {
        let chunk = serve_config().chunk_rows as u32;
        let mut samples = Vec::new();
        for job in 0..10u64 {
            let t = Instant::now();
            for start in (0..PAGE).step_by(chunk as usize) {
                let id = (1 << 40) | job;
                if let Err(e) = server.registry().sample(model, id, u64::from(start), chunk) {
                    report.fail(format!("registry sample of job {id} failed: {e}"));
                }
            }
            samples.push(secs(t.elapsed()));
        }
        median(&samples)
    };

    telemetry::start();
    let before = server.comm_stats();
    let s0 = telemetry::snapshot();
    let stop = AtomicBool::new(false);
    let ((traced, _), peak) = std::thread::scope(|s| {
        // Polls the server's in-flight gauge while the traced loop runs.
        let poller = s.spawn(|| {
            let mut peak = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                if let Some(hub) = observe::hub() {
                    peak = peak.max(
                        hub.default_scope().metrics().gauge(observe::names::SERVE_IN_FLIGHT).get(),
                    );
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            peak
        });
        let out = closed_loop(&mut server, Until::Jobs(TRACED_JOBS));
        stop.store(true, Ordering::Relaxed);
        (out, poller.join().expect("poller"))
    });
    let op = telemetry::snapshot().since(&s0);
    let comm = comm_delta(&server.comm_stats(), &before);
    telemetry::stop();

    let bad: u64 = [&plain, &traced].iter().map(|logs| check_jobs(report, &server, logs)).sum();
    server.shutdown();
    let attempted: u64 = plain.iter().chain(&traced).map(|l| l.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|l| l.rejected + l.errors.len() as u64).sum();
    report.ops(attempted, failed + bad);
    report.check(
        job_digests(&plain) == job_digests(&traced),
        "traced and untraced runs served different bytes for the same jobs",
    );
    let jobs = traced.iter().map(|l| l.jobs.len()).sum::<usize>().max(1) as f64;
    let krows = jobs * f64::from(JOB_ROWS) / 1000.0;
    let lat = |logs: &[TenantLog]| {
        median(&logs.iter().flat_map(|l| l.latencies.clone()).collect::<Vec<_>>())
    };
    let fetch = median(&plain.iter().flat_map(|l| l.fetches.clone()).collect::<Vec<_>>());
    op.print("traced serve loop");

    report.metric(
        "stacked.sample_s_per_krow",
        op.named_span_s("tenant", "sample") / krows,
        "LatentDiff sample spans under serve.job, tenant scopes",
    );
    report.metric(
        "stacked.decode_s_per_krow",
        op.named_span_s("tenant", "decode") / krows,
        "LatentDiff decode spans under serve.job, tenant scopes",
    );
    // Client-side waits only: the server's own comm-wait spans are its
    // idle time between requests.
    super::report_transport(report, &comm, op.named_span_s("bench", "comm-wait"), jobs);
    report.metric("serve.fetch_ms", fetch * 1e3, "client-observed page fetch, untraced, median");
    report.metric(
        "serve.sample_ms",
        sample * 1e3,
        "ModelRegistry::sample of one page in 64-row chunks, no server",
    );
    report.metric(
        "serve.gap_ms",
        (fetch - sample) * 1e3,
        "fetch - sample: admission, model lock, transport",
    );
    report.metric(
        "serve.rejected",
        op.counter("", observe::names::SERVE_REJECTED) as f64,
        "traced loop",
    );
    report.metric("serve.in_flight_peak", peak, "server in-flight gauge, polled every 200 us");
    report.metric("proc.cpu_per_wall", cpu / plain_wall, "process CPU s / wall s, untraced loop");
    report.metric(
        "observe.overhead_ratio",
        lat(&traced) / lat(&plain),
        "traced / untraced median job latency",
    );
    let serve_s = op.named_span_s("tenant", "serve.job");
    super::report_kernels(
        report,
        &op,
        [
            ("ae_train", 0.0),
            ("latent_train", 0.0),
            ("sample", super::share(op.kernel_ns("tenant"), serve_s)),
        ],
    );
    let steps = TrainBudget::standard().inference_steps;
    super::replays_and_predictions(
        report,
        &[(
            "sample (tenant scopes)",
            "diffusion.sample.c64",
            krows * 1000.0 * steps as f64,
            op.named_span_s("tenant", "sample"),
        )],
    );
    super::report_unexercised(report);
}
