// Process-wide work-sharing thread pool for the vision kernels.
//
// The pool is created once (first use) and reused for every frame —
// no thread spawn per call. Work is expressed as a deterministic chunk
// grid over an index range: chunk boundaries depend only on
// (begin, end, grain), never on the number of workers, so algorithms
// that reduce per-chunk partial results in chunk order produce
// bit-identical output at any pool size (including 1). Pure
// element-wise kernels are bit-identical for free.
//
// Sizing: `MAR_THREADS` env var when set (>= 1), otherwise
// std::thread::hardware_concurrency(). Tests and benchmarks can
// override at runtime with set_parallel_threads().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mar {

class ThreadPool {
 public:
  // fn(chunk_index, chunk_begin, chunk_end) over a half-open range.
  using ChunkFn = std::function<void(std::int64_t, std::int64_t, std::int64_t)>;
  // fn(chunk_begin, chunk_end).
  using RangeFn = std::function<void(std::int64_t, std::int64_t)>;

  // `threads` is the total number of lanes including the calling
  // thread; the pool spawns threads-1 workers. Clamped to >= 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return size_; }

  // Deterministic chunk count for a range: depends only on the range
  // and grain, never on the pool size.
  [[nodiscard]] static std::int64_t num_chunks(std::int64_t begin, std::int64_t end,
                                               std::int64_t grain);

  // Run fn over every chunk of [begin, end). Blocks until all chunks
  // complete; the calling thread participates. The first exception
  // thrown by fn is rethrown here (remaining chunks are skipped).
  // Nested calls from inside a chunk run serially over the same grid.
  void for_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ChunkFn& fn);
  void for_range(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const RangeFn& fn);

 private:
  void worker_loop(int lane);
  // Claim and execute chunks of the current job until none remain.
  void run_chunks();

  const int size_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards job fields + cvs
  std::condition_variable cv_;     // wakes workers for a new job
  std::condition_variable done_cv_;  // wakes the caller on completion
  std::condition_variable idle_cv_;  // wakes a submitter once no worker is active
  std::mutex job_mu_;              // serializes external submitters
  bool stop_ = false;
  std::uint64_t job_seq_ = 0;

  // Current job (valid while done_chunks_ < total_chunks_).
  const ChunkFn* fn_ = nullptr;
  std::int64_t begin_ = 0;
  std::int64_t end_ = 0;
  std::int64_t grain_ = 1;
  std::int64_t total_chunks_ = 0;
  std::atomic<std::int64_t> next_chunk_{0};
  std::atomic<std::int64_t> done_chunks_{0};
  // Workers inside run_chunks(); incremented only under mu_.
  std::atomic<int> active_workers_{0};
  std::atomic<bool> cancelled_{false};
  std::exception_ptr error_;
};

// The shared process-wide pool (created on first use).
ThreadPool& global_pool();

// Stable small id of the calling thread within the pool: 0 for any
// thread outside the pool (including the submitting thread), 1..N-1
// for pool workers. Used to tag trace events with the recording lane.
[[nodiscard]] int parallel_lane();

// Number of lanes in the global pool.
[[nodiscard]] int parallel_threads();

// Replace the global pool with one of `n` lanes (n <= 0 restores the
// MAR_THREADS / hardware_concurrency default). Not safe to call while
// another thread is inside parallel_for.
void set_parallel_threads(int n);

// Convenience wrappers over the global pool.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ThreadPool::RangeFn& fn);
void parallel_for_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                         const ThreadPool::ChunkFn& fn);

}  // namespace mar
