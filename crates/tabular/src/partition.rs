//! Vertical partitioning of tables across clients (silos).
//!
//! Implements the paper's partitioning rules (§V-A, §V-G): features are
//! divided equally among `M` clients with the remainder going to the last
//! client; a "permuted" variant first shuffles the column order with a seeded
//! RNG (the paper uses seed 12343) before splitting.

use crate::table::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The paper's shuffling seed for the permuted-partition experiments (§V-G).
pub const PAPER_PERMUTATION_SEED: u64 = 12343;

/// How columns are assigned to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Keep the original column order ("default" in Fig. 11).
    Default,
    /// Shuffle columns with the given seed before splitting ("permuted").
    Permuted {
        /// RNG seed for the column shuffle.
        seed: u64,
    },
}

/// Why a table cannot be split across the requested clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// Zero clients were requested.
    NoClients,
    /// Every client must own at least one column.
    TooManyClients {
        /// Clients requested.
        clients: usize,
        /// Columns the table has.
        columns: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NoClients => write!(f, "need at least one client"),
            PartitionError::TooManyClients { clients, columns } => write!(
                f,
                "cannot split {columns} columns across {clients} clients: \
                 each client needs at least one column, so use at most {columns}"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A vertical partition plan: which original column indices each client owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    assignments: Vec<Vec<usize>>,
}

impl PartitionPlan {
    /// Builds a plan splitting `n_cols` columns across `n_clients`.
    ///
    /// Columns are divided as evenly as possible; the last client receives
    /// any remainder (the paper: "The last client gets any remaining features
    /// post-division").
    ///
    /// # Panics
    /// Panics if `n_clients` is zero or exceeds `n_cols`; see
    /// [`PartitionPlan::try_new`] for the typed error.
    pub fn new(n_cols: usize, n_clients: usize, strategy: PartitionStrategy) -> Self {
        Self::try_new(n_cols, n_clients, strategy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PartitionPlan::new`] that returns a [`PartitionError`] instead of
    /// panicking when `n_clients` is zero or exceeds `n_cols`.
    pub fn try_new(
        n_cols: usize,
        n_clients: usize,
        strategy: PartitionStrategy,
    ) -> Result<Self, PartitionError> {
        if n_clients == 0 {
            return Err(PartitionError::NoClients);
        }
        if n_clients > n_cols {
            return Err(PartitionError::TooManyClients { clients: n_clients, columns: n_cols });
        }
        let mut order: Vec<usize> = (0..n_cols).collect();
        if let PartitionStrategy::Permuted { seed } = strategy {
            let mut rng = StdRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
        }
        let base = n_cols / n_clients;
        let mut assignments = Vec::with_capacity(n_clients);
        let mut cursor = 0;
        for client in 0..n_clients {
            let take = if client + 1 == n_clients { n_cols - cursor } else { base };
            assignments.push(order[cursor..cursor + take].to_vec());
            cursor += take;
        }
        Ok(Self { assignments })
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.assignments.len()
    }

    /// Column indices owned by `client`.
    pub fn columns_of(&self, client: usize) -> &[usize] {
        &self.assignments[client]
    }

    /// All assignments.
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Splits a table into per-client feature partitions
    /// (`X = X_1 || ... || X_M` in the paper's notation).
    pub fn split(&self, table: &Table) -> Vec<Table> {
        self.assignments.iter().map(|cols| table.project(cols)).collect()
    }

    /// Reassembles client partitions into a table with the *original* column
    /// order (inverse of [`PartitionPlan::split`]).
    ///
    /// # Panics
    /// Panics if the partitions do not match this plan.
    pub fn reassemble(&self, parts: &[&Table]) -> Table {
        assert_eq!(parts.len(), self.n_clients(), "partition count mismatch");
        let total: usize = self.assignments.iter().map(Vec::len).sum();
        // original index -> (client, offset within client)
        let mut location = vec![(0usize, 0usize); total];
        for (client, cols) in self.assignments.iter().enumerate() {
            assert_eq!(
                cols.len(),
                parts[client].n_cols(),
                "client {client} partition width mismatch"
            );
            for (offset, &orig) in cols.iter().enumerate() {
                location[orig] = (client, offset);
            }
        }
        // Build per-part projections back into original order.
        let joined = Table::concat_columns(parts);
        // Column j of `joined` corresponds to flattened (client, offset).
        let mut flat_index = vec![0usize; total];
        let mut cursor = 0;
        for (client, cols) in self.assignments.iter().enumerate() {
            for offset in 0..cols.len() {
                let orig = self.assignments[client][offset];
                flat_index[orig] = cursor + offset;
            }
            cursor += cols.len();
        }
        joined.project(&flat_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, Schema};
    use crate::table::Column;

    fn demo(n_cols: usize) -> Table {
        let metas = (0..n_cols).map(|i| ColumnMeta::numeric(format!("f{i}"))).collect();
        let cols = (0..n_cols).map(|i| Column::Numeric(vec![i as f64, i as f64 + 10.0])).collect();
        Table::new(Schema::new(metas), cols).unwrap()
    }

    #[test]
    fn equal_split_with_remainder_to_last() {
        let plan = PartitionPlan::new(14, 4, PartitionStrategy::Default);
        let sizes: Vec<usize> = plan.assignments().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 3, 5]);
        assert_eq!(plan.columns_of(0), &[0, 1, 2]);
        assert_eq!(plan.columns_of(3), &[9, 10, 11, 12, 13]);
    }

    #[test]
    fn permuted_split_covers_all_columns_once() {
        let plan = PartitionPlan::new(10, 3, PartitionStrategy::Permuted { seed: 12343 });
        let mut all: Vec<usize> = plan.assignments().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_is_seed_deterministic() {
        let a = PartitionPlan::new(10, 2, PartitionStrategy::Permuted { seed: 1 });
        let b = PartitionPlan::new(10, 2, PartitionStrategy::Permuted { seed: 1 });
        let c = PartitionPlan::new(10, 2, PartitionStrategy::Permuted { seed: 2 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn split_then_reassemble_round_trips() {
        let t = demo(11);
        for strategy in [
            PartitionStrategy::Default,
            PartitionStrategy::Permuted { seed: PAPER_PERMUTATION_SEED },
        ] {
            let plan = PartitionPlan::new(11, 4, strategy);
            let parts = plan.split(&t);
            let back = plan.reassemble(&parts.iter().collect::<Vec<_>>());
            assert_eq!(back, t, "{strategy:?}");
        }
    }

    #[test]
    fn single_client_owns_everything() {
        let plan = PartitionPlan::new(5, 1, PartitionStrategy::Default);
        assert_eq!(plan.columns_of(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_clients_than_columns_rejected() {
        let _ = PartitionPlan::new(2, 3, PartitionStrategy::Default);
    }

    #[test]
    fn try_new_types_the_rejections() {
        let plan =
            |cols, clients| PartitionPlan::try_new(cols, clients, PartitionStrategy::Default);
        assert_eq!(plan(2, 3), Err(PartitionError::TooManyClients { clients: 3, columns: 2 }));
        assert_eq!(plan(2, 0), Err(PartitionError::NoClients));
        assert_eq!(plan(3, 3).map(|p| p.n_clients()), Ok(3));
    }
}
