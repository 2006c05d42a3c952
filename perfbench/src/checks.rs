//! Output checks on synthesized tables.

use crate::report::Report;
use silofuse_core::tabular::{Column, ColumnKind, Schema, Table};

/// Why `table` is not a valid synthesis of `rows` rows under `schema`,
/// or `None` when it is: same schema, the requested row count, finite
/// numerics, and categorical codes below their cardinality.
pub fn table_problem(table: &Table, schema: &Schema, rows: usize) -> Option<String> {
    if table.schema() != schema {
        return Some("schema differs from the real table's".into());
    }
    if table.n_rows() != rows {
        return Some(format!("{} rows, {rows} requested", table.n_rows()));
    }
    for (meta, col) in schema.columns().iter().zip(table.columns()) {
        match (meta.kind, col) {
            (ColumnKind::Numeric, Column::Numeric(values)) => {
                if let Some(v) = values.iter().find(|v| !v.is_finite()) {
                    return Some(format!("column {} holds {v}", meta.name));
                }
            }
            (ColumnKind::Categorical { cardinality }, Column::Categorical(codes)) => {
                if let Some(c) = codes.iter().find(|&&c| c >= cardinality) {
                    return Some(format!("column {} holds code {c} >= {cardinality}", meta.name));
                }
            }
            _ => return Some(format!("column {} has the wrong kind", meta.name)),
        }
    }
    None
}

/// Checks that `table` is a valid synthesis of `rows` rows under
/// `schema`; see [`table_problem`].
pub fn check_table(report: &mut Report, table: &Table, schema: &Schema, rows: usize) {
    let problem = table_problem(table, schema, rows);
    report.check(problem.is_none(), format!("synthesized table: {}", problem.unwrap_or_default()));
}

/// FNV-1a digest of a table's bytes: every cell, column by column, as
/// its exact bit pattern.
pub fn digest(table: &Table) -> u64 {
    let mut h = Fnv::default();
    h.write(&(table.n_rows() as u64).to_le_bytes());
    for col in table.columns() {
        match col {
            Column::Numeric(values) => {
                values.iter().for_each(|v| h.write(&v.to_bits().to_le_bytes()))
            }
            Column::Categorical(codes) => codes.iter().for_each(|c| h.write(&c.to_le_bytes())),
        }
    }
    h.0
}

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}
