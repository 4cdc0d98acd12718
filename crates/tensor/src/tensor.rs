//! Dense 2-D tensor (row-major `f32` matrix).
//!
//! Every value flowing through the autodiff tape is a [`Tensor`]. Scalars are
//! `1x1` tensors, column vectors are `nx1`, and embeddings matrices are `NxD`.
//! The op set is deliberately small: exactly what the O²-SiteRec model family
//! needs, implemented simply and tested heavily.

use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies into `self`'s buffer, which is reused when it is large enough.
    fn clone_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clone_from(&src.data);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Create a tensor from raw row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// A `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A `1x1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// An `nx1` column vector.
    pub fn column(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// A `1xn` row vector.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Build a tensor from a slice of equal-length rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its raw data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1x1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1x1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar tensor");
        self.data[0]
    }

    /// Matrix transpose (allocates).
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Matrix transpose into a preallocated `cols x rows` tensor.
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into shape mismatch"
        );
        let n_rows = self.rows;
        crate::parallel::for_each_row_block_mut(&mut out.data, n_rows, n_rows, |c0, block| {
            for (bc, o_row) in block.chunks_mut(n_rows).enumerate() {
                let c = c0 + bc;
                for (r, o) in o_row.iter_mut().enumerate() {
                    *o = self.data[r * self.cols + c];
                }
            }
        });
    }

    /// Matrix product `self (n x k) * other (k x m) -> (n x m)`.
    ///
    /// Dispatches (on shape alone) between the naive `i-k-j` loop and the
    /// cache-blocked register-tiled kernel in [`crate::kernels`]; the two
    /// are bit-identical on finite inputs at every thread count.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product into a preallocated `n x m` tensor (overwritten).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into out shape mismatch"
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        crate::kernels::matmul_into(&self.data, &other.data, &mut out.data, n, k, m);
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.map_into(&mut out, f);
        out
    }

    /// Elementwise map into a preallocated same-shape tensor.
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32 + Sync) {
        assert_eq!(self.shape(), out.shape(), "map_into shape mismatch");
        crate::parallel::for_each_row_block_mut(&mut out.data, 1, 8, |off, block| {
            for (j, o) in block.iter_mut().enumerate() {
                *o = f(self.data[off + j]);
            }
        });
    }

    /// Elementwise binary zip into a new tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.zip_into(other, &mut out, f);
        out
    }

    /// Elementwise binary zip into a preallocated same-shape tensor.
    pub fn zip_into(&self, other: &Tensor, out: &mut Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_into out shape mismatch");
        crate::parallel::for_each_row_block_mut(&mut out.data, 1, 8, |off, block| {
            for (j, o) in block.iter_mut().enumerate() {
                *o = f(self.data[off + j], other.data[off + j]);
            }
        });
    }

    /// `self += other`, elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other`, elementwise (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius / L2 norm of the flattened data.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every pair of elements differs by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Select rows by index into a new `idx.len() x cols` tensor.
    ///
    /// # Panics
    /// Panics (in debug builds) if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(idx.len(), self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// Row selection into a preallocated `idx.len() x cols` tensor.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "gather_rows_into shape mismatch"
        );
        let cols = self.cols;
        crate::parallel::for_each_row_block_mut(&mut out.data, cols, cols, |o0, block| {
            for (bo, o_row) in block.chunks_mut(cols).enumerate() {
                let i = idx[o0 + bo];
                debug_assert!(i < self.rows, "gather_rows index {i} out of {}", self.rows);
                o_row.copy_from_slice(self.row_slice(i));
            }
        });
    }

    /// Horizontally concatenate tensors with equal row counts.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        Tensor::concat_cols_into(parts, &mut out);
        out
    }

    /// Horizontal concatenation into a preallocated `rows x Σcols` tensor.
    pub fn concat_cols_into(parts: &[&Tensor], out: &mut Tensor) {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols row mismatch");
        }
        assert_eq!(out.shape(), (rows, cols), "concat_cols_into shape mismatch");
        for r in 0..rows {
            let dest = out.row_slice_mut(r);
            let mut off = 0;
            for p in parts {
                dest[off..off + p.cols].copy_from_slice(p.row_slice(r));
                off += p.cols;
            }
        }
    }

    /// Vertically stack tensors with equal column counts.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows col mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(rows, cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row_slice(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.get(2, 1), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![3., -1., 2., 0.5]);
        let i = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn gather_rows_selects() {
        let t = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = Tensor::from_vec(2, 1, vec![1., 2.]);
        let b = Tensor::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1., 3., 4., 2., 5., 6.]);

        let d = Tensor::from_vec(1, 3, vec![7., 8., 9.]);
        let e = Tensor::concat_rows(&[&c, &d]);
        assert_eq!(e.shape(), (3, 3));
        assert_eq!(e.row_slice(2), &[7., 8., 9.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1., -2., 3., 4.]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 1.5);
        assert_eq!(t.max(), 4.0);
        assert!((t.norm() - (1.0f32 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_zip() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 20., 30.]);
        a.add_scaled(&b, 0.1);
        assert!(a.approx_eq(&Tensor::from_vec(1, 3, vec![2., 4., 6.]), 1e-6));
        let z = a.zip(&b, |x, y| y - x);
        assert!(z.approx_eq(&Tensor::from_vec(1, 3, vec![8., 16., 24.]), 1e-5));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(!t.has_non_finite());
        t.set(0, 1, f32::NAN);
        assert!(t.has_non_finite());
    }
}
