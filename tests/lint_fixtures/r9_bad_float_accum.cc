// R9 fixture: FP accumulator shared across chunks — the sum depends on
// chunk boundaries even if the += were synchronized.
namespace prodsyn {
double SumAll(ThreadPool& pool, const std::vector<double>& values) {
  double total = 0.0;
  // lint: sharded — (the capture opt-out does NOT silence R9)
  ThreadPool::ParallelFor(
      &pool, "sum", values.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) total += values[i];
      });
  return total;
}
}  // namespace prodsyn
