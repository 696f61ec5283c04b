/**
 * @file
 * A small general-purpose worker pool.
 *
 * N threads service a FIFO task queue. Tasks are plain closures; the
 * pool makes no assumptions about what they do. drain() blocks until
 * the queue is empty AND every in-flight task has returned, so a task
 * may post further tasks and drain() still waits for the whole wave.
 *
 * The SAT prover fans its candidate shards and portfolio races out
 * over a pool, and the benches fan out one task per application or
 * mutant; any embarrassingly parallel sweep can reuse it.
 *
 * Tasks must not throw: the library's error discipline is
 * panic/fatal (abort/exit), and an exception escaping a task would
 * terminate the process anyway.
 */

#ifndef BESPOKE_UTIL_WORKER_POOL_HH
#define BESPOKE_UTIL_WORKER_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bespoke
{

class WorkerPool
{
  public:
    /** Threads to use when a caller asks for "all cores" (>= 1). */
    static int defaultThreadCount();

    /** @param threads worker-thread count; 0 = defaultThreadCount(). */
    explicit WorkerPool(int threads = 0);

    /** Drains outstanding work, then joins the workers. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    int size() const { return static_cast<int>(threads_.size()); }

    /** Enqueue one task; runs on some worker thread. */
    void post(std::function<void()> task);

    /** Block until the queue is empty and no task is running. */
    void drain();

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex m_;
    std::condition_variable wake_;   ///< workers: work available / stop
    std::condition_variable idle_;   ///< drain(): queue empty + quiescent
    int running_ = 0;                ///< tasks currently executing
    bool stop_ = false;
};

} // namespace bespoke

#endif // BESPOKE_UTIL_WORKER_POOL_HH
