// Host-side execution pool for data-parallel numeric work.
//
// Everything in bench/ reports *modeled* ZC702 time; this pool only changes
// how fast the host computes the numerics behind those numbers. The design
// invariant is therefore: runs at any thread count produce bit-identical
// results. Two properties deliver that:
//
//   1. static partitioning — parallel_for splits [begin, end) into contiguous
//      chunks whose boundaries depend only on the range and the pool width,
//      and every task writes a disjoint output range; no parallel reductions,
//      no shared accumulators, so floating-point summation order never varies;
//   2. accounting stays serial — modeled-time bookkeeping (LineFilter
//      account_*) is never issued from pool workers; callers replay it in
//      canonical order after the numeric fan-out (see dwt_fusion.cpp).
//
// A parallel_for issued from inside a worker runs inline (serial), so nested
// parallelism degrades gracefully instead of deadlocking.
//
// Building with -DVF_THREADS=N hard-caps the pool width at compile time;
// -DVF_THREADS=1 forces the serial path everywhere (CI keeps that build green
// so threading never becomes load-bearing for correctness).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vf {

// Host execution knobs threaded through backends and bench_util. threads == 0
// defers to the process-wide default (host::set_default_threads, which the
// bench harness sets from --threads).
struct HostConfig {
  int threads = 0;
};

class ThreadPool {
 public:
  explicit ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 0; i + 1 < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // Runs chunk_fn over a static contiguous partition of [begin, end): chunk k
  // of C covers q = n/C items plus one of the first n%C remainders, so the
  // partition depends only on (n, C). The calling thread participates; the
  // call returns when every chunk has finished. Reentrant calls from a worker
  // run the whole range inline.
  void parallel_for(int begin, int end, const std::function<void(int, int)>& chunk_fn) {
    const int n = end - begin;
    if (n <= 0) return;
    if (threads_ == 1 || n == 1 || in_worker()) {
      chunk_fn(begin, end);
      return;
    }
    std::lock_guard<std::mutex> submit_lock(submit_mutex_);
    auto job = std::make_shared<Job>();
    job->fn = &chunk_fn;
    job->begin = begin;
    job->size = n;
    job->chunks = threads_ < n ? threads_ : n;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_ = job;
      ++generation_;
    }
    wake_cv_.notify_all();
    run_chunks(*job);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return job->completed.load(std::memory_order_acquire) == job->chunks;
      });
      current_.reset();
    }
  }

 private:
  struct Job {
    const std::function<void(int, int)>* fn = nullptr;
    int begin = 0;
    int size = 0;
    int chunks = 0;
    std::atomic<int> next{0};
    std::atomic<int> completed{0};
  };

  static bool& in_worker() {
    thread_local bool flag = false;
    return flag;
  }

  void run_chunks(Job& job) {
    for (;;) {
      const int k = job.next.fetch_add(1, std::memory_order_relaxed);
      if (k >= job.chunks) return;
      const int q = job.size / job.chunks;
      const int r = job.size % job.chunks;
      const int b = job.begin + k * q + (k < r ? k : r);
      const int e = b + q + (k < r ? 1 : 0);
      in_worker() = true;
      (*job.fn)(b, e);
      in_worker() = false;
      if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == job.chunks) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = current_;
      }
      // A late wake after the job drained is harmless: next >= chunks.
      if (job) run_chunks(*job);
    }
  }

  const int threads_;
  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // one in-flight job at a time
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> current_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

namespace host {

#ifdef VF_THREADS
inline constexpr int kMaxThreads = VF_THREADS;
#else
inline constexpr int kMaxThreads = 0;  // 0 = no compile-time cap
#endif

inline int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc ? static_cast<int>(hc) : 1;
}

// Process-wide default width for HostConfig{threads: 0}. The library default
// is 1 (serial) so tests and embedders opt in explicitly; the bench harness
// sets it from --threads (default hardware_concurrency).
inline int& default_threads_slot() {
  static int value = 1;
  return value;
}
inline void set_default_threads(int n) { default_threads_slot() = n < 1 ? 1 : n; }
inline int default_threads() { return default_threads_slot(); }

inline int resolve_threads(const HostConfig& config) {
  int n = config.threads > 0 ? config.threads : default_threads();
  if (kMaxThreads > 0 && n > kMaxThreads) n = kMaxThreads;
  return n < 1 ? 1 : n;
}

// Shared pool for the resolved width, or nullptr when execution is serial.
// Pools are created lazily and live for the process lifetime, so backends may
// be constructed by the hundreds without respawning threads.
inline ThreadPool* pool(const HostConfig& config = {}) {
  const int n = resolve_threads(config);
  if (n <= 1) return nullptr;
  static std::mutex registry_mutex;
  static std::map<int, std::unique_ptr<ThreadPool>>& pools =
      *new std::map<int, std::unique_ptr<ThreadPool>>();  // leak: outlive exit
  std::lock_guard<std::mutex> lock(registry_mutex);
  std::unique_ptr<ThreadPool>& slot = pools[n];
  if (!slot) slot = std::make_unique<ThreadPool>(n);
  return slot.get();
}

}  // namespace host

// parallel_for that tolerates a null pool: the serial fallback calls
// chunk_fn directly, with no std::function in between.
template <typename Fn>
void parallel_chunks(ThreadPool* pool, int begin, int end, Fn&& chunk_fn) {
  if (pool) {
    pool->parallel_for(begin, end, chunk_fn);
  } else if (end > begin) {
    chunk_fn(begin, end);
  }
}

}  // namespace vf
