#include "src/util/worker_pool.hh"

#include "src/util/logging.hh"

namespace bespoke
{

int
WorkerPool::defaultThreadCount()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

WorkerPool::WorkerPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreadCount();
    threads_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; i++)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkerPool::post(std::function<void()> task)
{
    bespoke_assert(task, "posted an empty task");
    {
        std::lock_guard<std::mutex> lk(m_);
        bespoke_assert(!stop_, "post() on a stopping WorkerPool");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
WorkerPool::drain()
{
    std::unique_lock<std::mutex> lk(m_);
    idle_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        wake_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty())
            return;
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        running_++;
        lk.unlock();
        task();
        lk.lock();
        running_--;
        if (queue_.empty() && running_ == 0)
            idle_.notify_all();
    }
}

} // namespace bespoke
