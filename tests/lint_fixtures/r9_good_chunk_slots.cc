// R9 fixture: the sanctioned parallel-reduce pattern — every chunk
// accumulates into its OWN slot of a pre-sized float container (the
// subscript carries the chunk index), and the caller reduces the slots
// sequentially in a fixed order. Bit-identical for any chunk plan.
namespace prodsyn {
std::vector<double> PartialGradients(ThreadPool& pool,
                                     const std::vector<double>& rows,
                                     size_t blocks, size_t block_rows,
                                     size_t dim) {
  std::vector<double> slots(blocks * dim, 0.0);
  // lint: sharded — chunk b writes only slots[b*dim .. (b+1)*dim)
  ThreadPool::ParallelFor(
      &pool, "gradients", blocks, 1, [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          for (size_t r = b * block_rows; r < (b + 1) * block_rows; ++r) {
            for (size_t j = 0; j < dim; ++j) {
              slots[b * dim + j] += rows[r * dim + j];
            }
          }
        }
      });
  std::vector<double> grad(dim, 0.0);
  for (size_t b = 0; b < blocks; ++b) {  // sequential in-order reduce
    for (size_t j = 0; j < dim; ++j) grad[j] += slots[b * dim + j];
  }
  return grad;
}
}  // namespace prodsyn
