//! Parallel dispatch policy for tensor kernels.
//!
//! Kernels fan out over the `sdc-runtime` worker pool only when the
//! operation is large enough to amortize dispatch overhead *and* the
//! ambient runtime actually has more than one thread; otherwise they
//! run their serial loop. Both paths execute the identical per-chunk
//! code over chunk boundaries derived from the problem size alone, so a
//! kernel's output is bit-identical at every thread count.

/// Minimum number of scalar operations before a kernel fans out.
///
/// Below this, pool dispatch (a queue push + wakeup) costs more than it
/// saves even on many-core machines.
pub(crate) const MIN_PAR_WORK: usize = 16 * 1024;

/// Rows per chunk for row-parallel matrix kernels. Fixed — never
/// derived from the thread count — to keep chunk boundaries, and hence
/// results, identical at any parallelism.
pub(crate) const ROW_CHUNK: usize = 8;

/// Elements per chunk for elementwise kernels.
pub(crate) const ELEM_CHUNK: usize = 4096;

/// Output columns per chunk for column-reduction kernels (`sum_cols`,
/// bias gradients). Fixed for the same reason as [`ROW_CHUNK`].
pub(crate) const COL_CHUNK: usize = 32;

/// Whether a kernel performing `work` scalar operations should use the
/// worker pool.
pub(crate) fn parallelize(work: usize) -> bool {
    work >= MIN_PAR_WORK && sdc_runtime::current_threads() > 1
}

/// The one dispatch pattern every kernel uses: run
/// `fill(chunk_index, piece)` over `buf` in fixed `chunk`-element
/// pieces on the pool when `work` is large enough, else run
/// `fill(0, buf)` serially (the fill functions iterate their piece in
/// fixed sub-units, so the serial call covers the whole buffer).
///
/// Generic over the element type so the conv backward can hand each
/// sample's chunk a pair of slices: its layout and its input gradient.
///
/// Degenerate buffers (empty, or a zero chunk from a zero-width
/// dimension) have nothing to fill and return immediately.
pub(crate) fn dispatch_chunks<T: Send>(
    buf: &mut [T],
    chunk: usize,
    work: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
) {
    if buf.is_empty() || chunk == 0 {
        return;
    }
    if parallelize(work) {
        sdc_runtime::par_chunks_mut(buf, chunk, fill);
    } else {
        fill(0, buf);
    }
}
