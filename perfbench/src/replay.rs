//! Layer replays: each layer's public entry point called in isolation
//! on inputs shaped like the workloads', timed from outside with
//! telemetry off. Every replay is a median over repetitions.

use crate::report::Report;
use crate::stats::{median, secs};
use crate::trace;
use rand::{rngs::StdRng, Rng, SeedableRng};
use silofuse_core::diffusion::{
    BackboneConfig, DiffusionBackbone, GaussianDdpm, GaussianDiffusion, NoiseSchedule,
    Parameterization, ScheduleKind,
};
use silofuse_core::distributed::transport::{link_with, new_stats};
use silofuse_core::distributed::{Message, NetConfig};
use silofuse_core::models::TabularAutoencoder;
use silofuse_core::nn::init::{randn, Init};
use silofuse_core::nn::layers::{Activation, ActivationKind, Dropout, Layer, Linear, Mode};
use silofuse_core::nn::loss::{gaussian_nll, grouped_softmax_cross_entropy, mse};
use silofuse_core::nn::optim::{Adam, Optimizer};
use silofuse_core::nn::{workspace, Tensor};
use silofuse_core::tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_core::tabular::{profiles, ColumnKind, Table};
use silofuse_core::TrainBudget;
use std::collections::BTreeMap;
use std::time::Instant;

/// Minibatch rows of the standard budget.
const BATCH: usize = 192;
/// Hidden width of the standard budget.
const HIDDEN: usize = 128;
/// Coordinator latent width of both Adult and Churn over 2 silos.
const LATENT: usize = 14;
/// Diffusion timesteps of the standard budget.
const TIMESTEPS: usize = 200;
/// Fixed seed of every replay input.
const SEED: u64 = 0x5eed;

/// Median wall seconds of `reps` calls of `f`, after `warm` untimed ones.
fn time(warm: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t.elapsed())
        })
        .collect();
    median(&samples)
}

fn denoiser(rng: &mut StdRng) -> GaussianDdpm {
    let backbone = DiffusionBackbone::new(BackboneConfig::paper_latent(LATENT, HIDDEN), SEED, rng);
    let diffusion = GaussianDiffusion::new(
        NoiseSchedule::new(ScheduleKind::Linear, TIMESTEPS),
        Parameterization::PredictX0,
    );
    GaussianDdpm::new(diffusion, backbone, 1e-3)
}

/// The silo partition of `table` over 2 silos that holds the widest
/// one-hot expansion.
fn widest_partition(table: &Table) -> Table {
    let plan = PartitionPlan::new(table.n_cols(), 2, PartitionStrategy::Default);
    plan.split(table).into_iter().max_by_key(|p| p.schema().one_hot_width()).expect("two silos")
}

/// Runs every replay, reports its metric, and returns the per-unit
/// seconds the phase predictions multiply out.
pub fn run_all(report: &mut Report) -> BTreeMap<&'static str, f64> {
    trace::set_enabled(true);
    let mut per_unit = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(SEED);

    // diffusion: one denoiser training step, batch 192, latent 14.
    {
        let step_span = trace::span("replay.diffusion.GaussianDdpm::train_step");
        let mut ddpm = denoiser(&mut rng);
        let x = randn(BATCH, LATENT, &mut rng);
        let mut step_rng = StdRng::seed_from_u64(SEED);
        let s = time(5, 40, || {
            ddpm.train_step(&x, &mut step_rng);
        });
        let misses = workspace::misses();
        for _ in 0..20 {
            ddpm.train_step(&x, &mut step_rng);
        }
        let misses = (workspace::misses() - misses) as f64 / 20.0;
        report.metric("diffusion.train_step_ms", s * 1e3, "median of 40 steps");
        report.metric(
            "nn.workspace.misses_per_step",
            misses,
            "arena misses per warm denoiser step",
        );
        per_unit.insert("diffusion.train_step", s);

        drop(step_span);
        let _s = trace::span("replay.nn.Adam::step");
        let mut adam = Adam::new(1e-3);
        let net = ddpm.backbone_mut().net_mut();
        let s = time(3, 100, || adam.step(net));
        report.metric("nn.adam.step_us", s * 1e6, "denoiser parameters, median of 100");
    }

    // diffusion: the chunked sampler at each workload's chunk size.
    {
        let _s = trace::span("replay.diffusion.ChunkedSampler::next_chunk");
        let mut ddpm = denoiser(&mut rng);
        // One 8192-row chunk over 5 steps costs about a second and a
        // half, so it runs once.
        for (name, key, chunk, steps, warm, reps) in [
            ("diffusion.sample_us_per_row_step.c8192", "diffusion.sample.c8192", 8192, 5, 0, 1),
            ("diffusion.sample_us_per_row_step.c64", "diffusion.sample.c64", 64, 25, 1, 30),
        ] {
            let mut base = 0u64;
            let s = time(warm, reps, || {
                base += 1;
                let mut sampler = ddpm
                    .chunked_sampler_from_base(chunk, steps, 1.0, chunk, base)
                    .expect("valid sampler request");
                let (_, z) = sampler.next_chunk().expect("one chunk");
                workspace::recycle(z);
            });
            let per = s / (chunk * steps) as f64;
            report.metric(
                name,
                per * 1e6,
                format!("{chunk} rows x {steps} steps, median of {reps}"),
            );
            per_unit.insert(key, per);
        }
    }

    // models + tabular: Adult silo autoencoder, the minibatch path.
    let adult = profiles::adult().generate(4096, SEED);
    let part = widest_partition(&adult);
    let ae_config = TrainBudget::standard().latent_config(SEED).ae;
    {
        let _s = trace::span("replay.models.TabularAutoencoder");
        let mut ae = TabularAutoencoder::new(&part, ae_config);
        let n = part.n_rows();
        let mut batch_rng = StdRng::seed_from_u64(SEED);
        let mut draw =
            move || -> Vec<usize> { (0..BATCH).map(|_| batch_rng.gen_range(0..n)).collect() };
        let batches: Vec<Table> = (0..8).map(|_| part.select_rows(&draw())).collect();
        let mut i = 0;
        let step = time(3, 30, || {
            i += 1;
            ae.train_step(&batches[i % batches.len()]);
        });
        let encode = time(1, 5, || {
            workspace::recycle(ae.encode(&part));
        });
        let encoder = ae.table_encoder();
        let mut sparse = encoder.sparse_batch();
        let minibatch = time(5, 50, || {
            let rows = part.select_rows(&draw());
            encoder.encode_sparse_into(&rows, &mut sparse).expect("codes fit the schema");
        });
        report.metric("models.ae_step_ms", step * 1e3, "Adult silo, batch 192, median of 30");
        report.metric("models.ae_encode_ms", encode * 1e3, "Adult silo, 4096 rows, median of 5");
        report.metric(
            "tabular.minibatch_us",
            minibatch * 1e6,
            "row gather + encode_sparse_into, batch 192",
        );
        per_unit.insert("models.ae_step+minibatch", step + minibatch);
    }

    // models: decode through Churn's wide heads.
    {
        let _s = trace::span("replay.models.TabularAutoencoder::decode");
        let churn = widest_partition(&profiles::churn().generate(4096, SEED));
        let mut ae = TabularAutoencoder::new(&churn, ae_config);
        let z = randn(2048, ae.latent_dim(), &mut rng);
        let s = time(1, 3, || {
            drop(ae.decode(&z));
        });
        report.metric(
            "models.ae_decode_us_per_row",
            s / 2048.0 * 1e6,
            format!("Churn silo, {}-wide heads, 2048 rows", churn.schema().one_hot_width()),
        );
        per_unit.insert("models.ae_decode", s / 2048.0);
    }

    // nn: layers, losses and the optimiser at batch 192 x hidden 128.
    {
        let _s = trace::span("replay.nn.layers");
        let x = randn(BATCH, HIDDEN, &mut rng);
        let g = randn(BATCH, HIDDEN, &mut rng);
        let mut linear = Linear::new(HIDDEN, HIDDEN, Init::XavierUniform, &mut rng);
        let mut gelu = Activation::new(ActivationKind::Gelu);
        let mut dropout = Dropout::new(0.01, SEED);
        let lf = forward_only(&mut linear, &x);
        let lb = backward_only(&mut linear, &x, &g);
        let gf = forward_only(&mut gelu, &x);
        let gb = backward_only(&mut gelu, &x, &g);
        let df = forward_only(&mut dropout, &x);
        report.metric("nn.linear.fwd_us", lf * 1e6, "128 -> 128, median of 200");
        report.metric("nn.linear.bwd_us", lb * 1e6, "128 -> 128, median of 200");
        report.metric("nn.gelu.fwd_us", gf * 1e6, "median of 200");
        report.metric("nn.gelu.bwd_us", gb * 1e6, "median of 200");
        report.metric("nn.dropout.fwd_us", df * 1e6, "p = 0.01, median of 200");
    }
    {
        let _s = trace::span("replay.nn.loss");
        let schema = adult.schema();
        let widths: Vec<usize> = schema
            .columns()
            .iter()
            .filter_map(|c| match c.kind {
                ColumnKind::Categorical { cardinality } => Some(cardinality as usize),
                ColumnKind::Numeric => None,
            })
            .collect();
        let total: usize = widths.iter().sum();
        let logits = randn(BATCH, total, &mut rng);
        let targets: Vec<u32> =
            widths.iter().flat_map(|&w| (0..BATCH).map(move |r| ((r * 7919) % w) as u32)).collect();
        let nums = schema.numeric_count();
        let (mu, lv, tgt) = (
            randn(BATCH, nums, &mut rng),
            randn(BATCH, nums, &mut rng),
            randn(BATCH, nums, &mut rng),
        );
        let (pred, target) = (randn(BATCH, LATENT, &mut rng), randn(BATCH, LATENT, &mut rng));
        let nll = time(5, 200, || {
            let (_, a, b) = gaussian_nll(&mu, &lv, &tgt);
            workspace::recycle(a);
            workspace::recycle(b);
        });
        let ce = time(5, 200, || {
            workspace::recycle(grouped_softmax_cross_entropy(&logits, &widths, &targets).1);
        });
        let sq = time(5, 200, || workspace::recycle(mse(&pred, &target).1));
        report.metric("nn.loss.gaussian_nll_us", nll * 1e6, format!("{BATCH} x {nums} numerics"));
        report.metric("nn.loss.grouped_ce_us", ce * 1e6, format!("Adult heads, {total} logits"));
        report.metric("nn.loss.mse_us", sq * 1e6, format!("{BATCH} x {LATENT}"));
    }

    // distributed: message codec and one transport round trip.
    {
        let codec_span = trace::span("replay.distributed.message");
        let mut grid = |rows: usize, cols: usize| -> Vec<f32> {
            (0..rows * cols).map(|_| rng.gen::<f32>()).collect()
        };
        let latents =
            Message::SyntheticLatents { client: 0, rows: 8192, cols: 7, data: grid(8192, 7) };
        let chunk =
            Message::ServeChunk { job: 1, first_row: 0, rows: 64, cols: 14, data: grid(64, 14) };
        let mut total_s = 0.0;
        let mut total_mb = 0.0;
        for msg in [&latents, &chunk] {
            let bytes = msg.encode();
            total_mb += bytes.len() as f64 / 1e6;
            total_s += time(2, 20, || {
                let decoded = Message::decode(msg.encode()).expect("round trip");
                std::hint::black_box(decoded);
            });
        }
        report.metric(
            "message.codec_us_per_mb",
            total_s / total_mb * 1e6,
            "encode + decode of an 8192x7 SyntheticLatents and a 64x14 ServeChunk",
        );

        drop(codec_span);
        let _s = trace::span("replay.distributed.transport");
        let (client, coord) = link_with(new_stats(), 0, &NetConfig::default());
        let s = time(10, 200, || {
            coord.send(&chunk).expect("in-process link");
            std::hint::black_box(client.recv().expect("in-process link"));
        });
        report.metric("transport.roundtrip_us", s * 1e6, "send + recv of a 64-row ServeChunk");
    }
    trace::set_enabled(false);
    per_unit
}

/// Median time of a training-mode `layer.forward`.
fn forward_only(layer: &mut dyn Layer, x: &Tensor) -> f64 {
    time(5, 200, || workspace::recycle(layer.forward(x, Mode::Train)))
}

/// Median time of `layer.backward` alone, each after a fresh forward.
fn backward_only(layer: &mut dyn Layer, x: &Tensor, g: &Tensor) -> f64 {
    let samples: Vec<f64> = (0..205)
        .map(|_| {
            workspace::recycle(layer.forward(x, Mode::Train));
            let t = Instant::now();
            workspace::recycle(layer.backward(g));
            secs(t.elapsed())
        })
        .skip(5)
        .collect();
    median(&samples)
}
