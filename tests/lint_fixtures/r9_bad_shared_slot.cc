// R9 fixture: a float container does not make an accumulator safe — a
// CONSTANT subscript is one slot every chunk races on, so the sum still
// depends on the chunk boundaries (and the writes race to boot).
namespace prodsyn {
double SumAll(ThreadPool& pool, const std::vector<double>& values) {
  std::vector<double> slots(1, 0.0);
  // lint: sharded — (the capture opt-out does NOT silence R9)
  ThreadPool::ParallelFor(
      &pool, "sum", values.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) slots[0] += values[i];
      });
  return slots[0];
}
}  // namespace prodsyn
