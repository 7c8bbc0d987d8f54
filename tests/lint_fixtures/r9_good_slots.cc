// R9 fixture: per-index partial sums, reduced sequentially.
namespace prodsyn {
double SumAll(ThreadPool& pool, const std::vector<double>& values) {
  std::vector<double> partial(values.size());
  // lint: sharded — slot i is written by exactly one chunk
  ThreadPool::ParallelFor(
      &pool, "double", values.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) partial[i] = values[i] * 2.0;
      });
  double total = 0.0;
  for (double v : partial) total += v;  // sequential reduce
  return total;
}
}  // namespace prodsyn
