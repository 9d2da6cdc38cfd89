//! Flat frame-matrix storage and reusable DSP scratch buffers.
//!
//! The reference pipeline shuttles features around as `Vec<Vec<f64>>` — one
//! heap allocation per frame plus pointer-chasing on every access. The fast
//! path stores an utterance's frames in a single contiguous buffer
//! ([`FrameMatrix`]) and threads a caller-owned [`ScratchPad`] through the
//! extraction kernels so the steady state performs no per-frame heap
//! allocations at all: every buffer grows to its high-water mark on the
//! first call and is reused afterwards.
//!
//! [`FrameSource`] abstracts over both layouts so numeric consumers (the
//! GMM scorer, ISV supervectors, …) accept either without conversion.

/// A dense row-major matrix of feature frames in one contiguous buffer.
///
/// `rows` frames of `cols` values each. Row boundaries are implicit
/// (`data[r * cols..(r + 1) * cols]`), so clearing and refilling the matrix
/// reuses the existing allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameMatrix {
    data: Vec<f64>,
    cols: usize,
}

impl FrameMatrix {
    /// An empty matrix whose rows will have `cols` values.
    pub fn new(cols: usize) -> Self {
        Self {
            data: Vec::new(),
            cols,
        }
    }

    /// An empty matrix with capacity reserved for `rows` rows.
    pub fn with_capacity(cols: usize, rows: usize) -> Self {
        Self {
            data: Vec::with_capacity(cols * rows),
            cols,
        }
    }

    /// Builds a matrix by copying a ragged-capable reference layout.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut m = Self::with_capacity(cols, rows.len());
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Number of frames.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Values per frame.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix holds no frames.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops all rows and re-targets the row width, keeping the allocation.
    pub fn reset(&mut self, cols: usize) {
        self.data.clear();
        self.cols = cols;
    }

    /// Copies one frame onto the end of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Appends a zero-filled frame and returns it for in-place writing.
    pub fn alloc_row(&mut self) -> &mut [f64] {
        let start = self.data.len();
        self.data.resize(start + self.cols, 0.0);
        &mut self.data[start..]
    }

    /// Borrows frame `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows frame `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over frames as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The whole matrix as one flat slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Converts back to the reference `Vec<Vec<f64>>` layout (allocates).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }

    /// Appends every row of `other` (widths must match unless empty).
    ///
    /// # Panics
    ///
    /// Panics if both matrices are non-empty with different widths.
    pub fn extend_rows(&mut self, other: &FrameMatrix) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.cols = other.cols;
        }
        assert_eq!(self.cols, other.cols, "row width mismatch");
        self.data.extend_from_slice(&other.data);
    }
}

/// Read access to a sequence of equal-width feature frames, independent of
/// storage layout.
///
/// Implemented for [`FrameMatrix`] (flat fast path) and `[Vec<f64>]` /
/// `Vec<Vec<f64>>` (reference layout), so numeric consumers accept either.
pub trait FrameSource {
    /// Number of frames.
    fn num_frames(&self) -> usize;
    /// Borrows frame `i`.
    fn frame(&self, i: usize) -> &[f64];
    /// Values per frame (0 when empty).
    fn frame_dim(&self) -> usize {
        if self.num_frames() == 0 {
            0
        } else {
            self.frame(0).len()
        }
    }
}

/// [`FrameSource`] with mutable frame access (for in-place compensation).
pub trait FrameSourceMut: FrameSource {
    /// Mutably borrows frame `i`.
    fn frame_mut(&mut self, i: usize) -> &mut [f64];
}

impl FrameSource for FrameMatrix {
    #[inline]
    fn num_frames(&self) -> usize {
        self.rows()
    }
    #[inline]
    fn frame(&self, i: usize) -> &[f64] {
        self.row(i)
    }
    fn frame_dim(&self) -> usize {
        self.cols
    }
}

impl FrameSourceMut for FrameMatrix {
    fn frame_mut(&mut self, i: usize) -> &mut [f64] {
        self.row_mut(i)
    }
}

impl FrameSource for [Vec<f64>] {
    fn num_frames(&self) -> usize {
        self.len()
    }
    fn frame(&self, i: usize) -> &[f64] {
        &self[i]
    }
}

impl FrameSourceMut for [Vec<f64>] {
    fn frame_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self[i]
    }
}

impl FrameSource for Vec<Vec<f64>> {
    fn num_frames(&self) -> usize {
        self.len()
    }
    fn frame(&self, i: usize) -> &[f64] {
        &self[i]
    }
}

impl FrameSourceMut for Vec<Vec<f64>> {
    fn frame_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self[i]
    }
}

/// Reusable work buffers for the frame-spectral kernels.
///
/// One pad serves any number of extraction calls; each buffer grows to the
/// largest size ever needed and is then reused without reallocating. Batch
/// workers keep one pad per thread.
#[derive(Debug, Clone, Default)]
pub struct ScratchPad {
    /// Real half of the split FFT work buffer: the packed frame, then
    /// the one-sided spectrum, transformed in place.
    pub fft_re: Vec<f64>,
    /// Imaginary half of the split FFT work buffer.
    pub fft_im: Vec<f64>,
    /// One-sided power spectrum of the current frame.
    pub power: Vec<f64>,
    /// Log-mel energies of the current frame.
    pub mel: Vec<f64>,
    /// Pre-emphasized copy of the whole input signal.
    pub emphasized: Vec<f64>,
}

impl ScratchPad {
    /// A fresh pad with no reserved memory.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut m = FrameMatrix::new(3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn round_trips_reference_layout() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = FrameMatrix::from_rows(&rows);
        assert_eq!(m.to_rows(), rows);
        assert_eq!(m.num_frames(), 3);
        assert_eq!(m.frame(2), &[5.0, 6.0]);
    }

    #[test]
    fn alloc_row_is_writable() {
        let mut m = FrameMatrix::new(2);
        m.alloc_row().copy_from_slice(&[7.0, 8.0]);
        assert_eq!(m.row(0), &[7.0, 8.0]);
    }

    #[test]
    fn frame_source_over_both_layouts() {
        fn total<F: FrameSource + ?Sized>(f: &F) -> f64 {
            (0..f.num_frames())
                .map(|i| f.frame(i).iter().sum::<f64>())
                .sum()
        }
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = FrameMatrix::from_rows(&rows);
        assert_eq!(total(&rows), total(&m));
        assert_eq!(rows.frame_dim(), m.frame_dim());
    }

    #[test]
    fn extend_rows_adopts_width() {
        let mut a = FrameMatrix::default();
        let b = FrameMatrix::from_rows(&[vec![1.0, 2.0]]);
        a.extend_rows(&b);
        a.extend_rows(&b);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut m = FrameMatrix::new(2);
        m.push_row(&[1.0, 2.0, 3.0]);
    }
}
