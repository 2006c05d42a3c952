//! Behaviour lock: for fixed seeds, the synthesized bytes of every model
//! and the Fig. 10 byte counts are pinned to digests.
//!
//! Performance work and refactors must leave these values untouched. A PR
//! that changes an expected value on purpose says why in CHANGES.md.
//! The default backend uses every core of the host, so one stacked case
//! also pins the bytes at explicit 1 and 2 backend threads, and CI runs
//! the suite under `SILOFUSE_THREADS=1` and `=4` as well.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_core::{build_synthesizer, ModelKind, TrainBudget};
use silofuse_distributed::e2e_distr::E2eDistributed;
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_distributed::NetConfig;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::{profiles, Column, SparsePolicy, Table};

/// FNV-1a over the table's bytes: the row count, then every cell column
/// by column as its exact bit pattern.
fn digest(table: &Table) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    write(&(table.n_rows() as u64).to_le_bytes());
    for col in table.columns() {
        match col {
            Column::Numeric(values) => {
                values.iter().for_each(|v| write(&v.to_bits().to_le_bytes()))
            }
            Column::Categorical(codes) => codes.iter().for_each(|c| write(&c.to_le_bytes())),
        }
    }
    h
}

/// Expected digests per [`ModelKind::all`] entry: Loan, 192 training rows,
/// quick budget, 2 clients, seed 7, 128 synthesized rows.
const MODEL_DIGESTS: [(&str, u64); 7] = [
    ("GAN(conv)", 0x80dd_b472_e2b0_1eaf),
    ("GAN(linear)", 0x8b0e_706c_c8ac_4544),
    ("E2E", 0x2fbc_c9ff_0b70_1846),
    ("E2EDistr", 0xbea0_9ece_2fc8_a1b1),
    ("TabDDPM", 0xd1af_39ed_701c_cbea),
    ("LatentDiff", 0x8da4_bfe0_b4df_b8dc),
    ("SiloFuse", 0x9c24_0940_8e87_eee9),
];

#[test]
fn every_model_kind_synthesizes_the_pinned_bytes() {
    let train = profiles::loan().generate(192, 7);
    let budget = TrainBudget::quick();
    let got: Vec<(&str, u64)> = ModelKind::all()
        .into_iter()
        .map(|kind| {
            let mut model = build_synthesizer(kind, &budget, 2, PartitionStrategy::Default, 7);
            let mut rng = StdRng::seed_from_u64(7);
            model.fit(&train, &mut rng);
            (kind.name(), digest(&model.synthesize(128, &mut rng)))
        })
        .collect();
    for (name, d) in &got {
        eprintln!("{name:<12} {d:#018x}");
    }
    assert_eq!(got, MODEL_DIGESTS);
}

/// One distributed run on Adult: the synthesized table's digest and the
/// training traffic that Fig. 10 reports.
#[derive(Debug, PartialEq, Eq)]
struct ProtocolRun {
    digest: u64,
    bytes_up: u64,
    bytes_down: u64,
}

fn adult_run(stacked: bool, encoding: SparsePolicy) -> ProtocolRun {
    let train = profiles::adult().generate(256, 11);
    let plan = PartitionPlan::new(train.n_cols(), 2, PartitionStrategy::Default);
    let partitions = plan.split(&train);
    let budget = TrainBudget { encoding, ..TrainBudget::quick().scaled_down(2) };
    let config = budget.latent_config(11);
    let net = NetConfig::default();
    let mut rng = StdRng::seed_from_u64(11);
    let (parts, stats) = if stacked {
        let mut model = SiloFuseModel::try_fit(&partitions, config, &net, &mut rng)
            .expect("stacked fit on a perfect network");
        let stats = model.comm_stats();
        (model.synthesize_partitioned(96, 0, &mut rng), stats)
    } else {
        let mut model =
            E2eDistributed::try_fit_with_checkpoints(&partitions, config, &net, None, &mut rng)
                .expect("E2EDistr fit on a perfect network");
        let stats = model.comm_stats();
        (model.synthesize_partitioned(96, &mut rng), stats)
    };
    let table = plan.reassemble(&parts.iter().collect::<Vec<_>>());
    ProtocolRun { digest: digest(&table), bytes_up: stats.bytes_up, bytes_down: stats.bytes_down }
}

/// Expected Adult runs (256 rows, 2 clients, quick budget halved, seed 11,
/// 96 synthesized rows). Dense and sparse encodings train bit-identically,
/// so one value covers both.
const STACKED_ADULT: ProtocolRun =
    ProtocolRun { digest: 0x5b10_8e71_a1ea_46f9, bytes_up: 14362, bytes_down: 0 };
const E2E_DISTR_ADULT: ProtocolRun =
    ProtocolRun { digest: 0xae1c_17d8_3c3a_dfff, bytes_up: 1258950, bytes_down: 1258950 };

#[test]
fn stacked_adult_pins_bytes_and_fig10_counts() {
    for encoding in [SparsePolicy::Dense, SparsePolicy::Sparse] {
        let got = adult_run(true, encoding);
        eprintln!("stacked {encoding:?}: {got:x?}");
        assert_eq!(got, STACKED_ADULT, "SiloFuse stacked, {encoding:?} encoding");
    }
}

#[test]
fn stacked_adult_pins_bytes_at_one_and_two_backend_threads() {
    for threads in [1, 2] {
        silofuse_nn::backend::set_threads(threads);
        let got = adult_run(true, SparsePolicy::Dense);
        assert_eq!(got, STACKED_ADULT, "SiloFuse stacked at {threads} backend thread(s)");
    }
}

#[test]
fn e2e_distr_adult_pins_bytes_and_fig10_counts() {
    for encoding in [SparsePolicy::Dense, SparsePolicy::Sparse] {
        let got = adult_run(false, encoding);
        eprintln!("e2e-distr {encoding:?}: {got:x?}");
        assert_eq!(got, E2E_DISTR_ADULT, "E2EDistr, {encoding:?} encoding");
    }
}
