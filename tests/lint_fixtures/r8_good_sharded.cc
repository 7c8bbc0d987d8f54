// R8 fixture: per-index slots, annotated as such at the call.
namespace prodsyn {
void SquareAll(ThreadPool& pool, std::vector<int>* out) {
  // Each chunk writes only its own slots. // lint: sharded
  ThreadPool::ParallelFor(
      &pool, "square", out->size(), 1, [out](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          (*out)[i] = static_cast<int>(i * i);
        }
      });
}
}  // namespace prodsyn
