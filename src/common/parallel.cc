#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace mar {
namespace {

// True on pool workers, and on any thread currently executing a chunk:
// nested parallel_for calls run serially over the same chunk grid
// instead of deadlocking on the (single-job) pool.
thread_local bool tl_in_parallel = false;

// Pool-lane id of this thread (0 = not a pool worker); see parallel_lane().
thread_local int tl_lane = 0;

int default_pool_size() {
  if (const char* env = std::getenv("MAR_THREADS")) {
    char* parse_end = nullptr;
    const long v = std::strtol(env, &parse_end, 10);
    if (parse_end != env && v >= 1) return static_cast<int>(std::min(v, 256L));
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

}  // namespace

std::int64_t ThreadPool::num_chunks(std::int64_t begin, std::int64_t end,
                                    std::int64_t grain) {
  if (end <= begin) return 0;
  grain = std::max<std::int64_t>(1, grain);
  return (end - begin + grain - 1) / grain;
}

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 0; i + 1 < size_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop(int lane) {
  tl_in_parallel = true;
  tl_lane = lane;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || job_seq_ != seen; });
      if (stop_) return;
      seen = job_seq_;
      active_workers_.fetch_add(1, std::memory_order_relaxed);
    }
    run_chunks();
    if (active_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu_);  // pairs with the submitter's quiesce wait
      idle_cv_.notify_all();
    }
  }
}

void ThreadPool::run_chunks() {
  for (;;) {
    const std::int64_t c = next_chunk_.fetch_add(1, std::memory_order_acq_rel);
    if (c >= total_chunks_) return;
    if (!cancelled_.load(std::memory_order_relaxed)) {
      try {
        (*fn_)(c, begin_ + c * grain_, std::min(end_, begin_ + (c + 1) * grain_));
      } catch (...) {
        cancelled_.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
    }
    if (done_chunks_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_chunks_) {
      std::lock_guard<std::mutex> lk(mu_);  // pairs with the caller's wait
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::for_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                            const ChunkFn& fn) {
  const std::int64_t total = num_chunks(begin, end, grain);
  if (total == 0) return;
  grain = std::max<std::int64_t>(1, grain);
  if (size_ == 1 || total == 1 || tl_in_parallel) {
    // Same chunk grid, executed in order on the calling thread.
    for (std::int64_t c = 0; c < total; ++c) {
      fn(c, begin + c * grain, std::min(end, begin + (c + 1) * grain));
    }
    return;
  }

  std::lock_guard<std::mutex> job_lk(job_mu_);
  {
    // Quiesce stragglers from the previous job before resetting state.
    // Workers register under mu_, so once none is active, none can
    // start reading the job fields until job_seq_ moves below. The wait
    // releases mu_, which the last straggler takes to notify.
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return active_workers_.load(std::memory_order_acquire) == 0; });
    fn_ = &fn;
    begin_ = begin;
    end_ = end;
    grain_ = grain;
    total_chunks_ = total;
    done_chunks_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    next_chunk_.store(0, std::memory_order_release);
    ++job_seq_;
  }
  cv_.notify_all();

  tl_in_parallel = true;  // the caller participates as a lane
  run_chunks();
  tl_in_parallel = false;

  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return done_chunks_.load(std::memory_order_acquire) == total_chunks_;
  });
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::for_range(std::int64_t begin, std::int64_t end, std::int64_t grain,
                           const RangeFn& fn) {
  for_chunks(begin, end, grain,
             [&fn](std::int64_t, std::int64_t i0, std::int64_t i1) { fn(i0, i1); });
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_pool_size());
  return *g_pool;
}

int parallel_threads() { return global_pool().size(); }

int parallel_lane() { return tl_lane; }

void set_parallel_threads(int n) {
  ThreadPool* fresh = new ThreadPool(n <= 0 ? default_pool_size() : n);
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool.reset(fresh);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ThreadPool::RangeFn& fn) {
  global_pool().for_range(begin, end, grain, fn);
}

void parallel_for_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                         const ThreadPool::ChunkFn& fn) {
  global_pool().for_chunks(begin, end, grain, fn);
}

}  // namespace mar
