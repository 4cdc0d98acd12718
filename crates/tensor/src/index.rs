//! Graph structure as data: one [`Index`] per id list.
//!
//! Every relation a model attends over is fixed once its task is built, so
//! the id lists that drive `gather_rows`, the segment ops and
//! `edge_attention` are built once, next to the model, as `Arc<Index>` and
//! handed to every tape that replays them. An index carries its ids, the
//! row count `n` they address (checked once, at construction), and the CSR
//! inversion that the segment ops and the gather backward read, built on
//! first use and shared by every clone of the `Arc`. A gather-only index,
//! such as a serving request's pair list, never builds one.

use crate::parallel;
use std::sync::{Arc, OnceLock};

/// A CSR inversion of an id list (see [`parallel::csr_invert`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Csr {
    /// `order[offsets[t]..offsets[t + 1]]` lists the positions holding id `t`.
    pub offsets: Vec<usize>,
    /// Positions grouped by id, ascending within each id.
    pub order: Vec<usize>,
}

/// A list of ids, each `< n`: gather sources, segment (destination) ids.
#[derive(Debug)]
pub struct Index {
    ids: Vec<usize>,
    n: usize,
    csr: OnceLock<Csr>,
}

impl Index {
    /// Wrap `ids`, which address `n` rows (or segments).
    ///
    /// # Panics
    /// Panics, naming the offender, if an id is `>= n`.
    pub fn new(ids: Vec<usize>, n: usize) -> Arc<Index> {
        if let Some((i, &id)) = ids.iter().enumerate().find(|&(_, &id)| id >= n) {
            panic!("index id {id} at position {i} is out of range for n = {n}");
        }
        Arc::new(Index {
            ids,
            n,
            csr: OnceLock::new(),
        })
    }

    /// The ids, in order.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Number of rows (or segments) the ids address.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when there are no ids.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The CSR inversion over `n` targets, built on the first call.
    pub fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| {
            let (offsets, order) = parallel::csr_invert(&self.ids, self.n);
            Csr { offsets, order }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, Tensor};

    #[test]
    #[should_panic(expected = "index id 3 at position 1 is out of range for n = 3")]
    fn out_of_range_id_panics_naming_it() {
        Index::new(vec![0, 3, 1], 3);
    }

    #[test]
    #[should_panic(expected = "gather_rows: input has 4 rows, the index addresses n = 3")]
    fn gather_rows_rejects_an_input_whose_row_count_is_not_n() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::zeros(4, 2));
        g.gather_rows(a, &Index::new(vec![0, 2], 3));
    }

    #[test]
    fn gather_forward_leaves_the_csr_unbuilt() {
        let ix = Index::new(vec![0, 2, 2], 3);
        let mut g = Graph::new();
        let a = g.constant(Tensor::zeros(3, 2));
        g.gather_rows(a, &ix);
        assert!(ix.csr.get().is_none());
    }

    #[test]
    fn lazy_csr_matches_csr_invert() {
        let ids = vec![2usize, 0, 2, 1, 0, 2];
        let ix = Index::new(ids.clone(), 4);
        assert!(ix.csr.get().is_none(), "built before first use");
        let (offsets, order) = parallel::csr_invert(&ids, 4);
        assert_eq!(*ix.csr(), Csr { offsets, order });
        assert_eq!(ix.csr().offsets.len(), 5, "trailing empty segment kept");
    }

    #[test]
    fn clones_build_the_csr_once() {
        let ix = Index::new(vec![1, 0, 1], 2);
        let other = Arc::clone(&ix);
        let first: *const Csr = other.csr();
        assert!(std::ptr::eq(first, ix.csr()));
        assert!(std::ptr::eq(first, Arc::clone(&ix).csr()));
    }
}
