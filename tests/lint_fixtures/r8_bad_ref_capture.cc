// R8 fixture: by-ref shared state handed to a parallel body.
namespace prodsyn {
void CountAll(ThreadPool& pool, size_t n) {
  size_t hits = 0;
  ThreadPool::ParallelFor(
      &pool, "count", n, 1, [&](size_t begin, size_t end) {
        hits += end - begin;  // racy write to shared local
      });
}
}  // namespace prodsyn
