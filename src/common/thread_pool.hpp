/**
 * @file
 * Fixed-size worker pool for the experiment harness. Each simulated run
 * is an independent, seed-deterministic unit, so the pool needs no work
 * stealing — a single locked FIFO queue drained by N workers keeps the
 * cores busy and the code auditable. Results and exceptions travel back
 * through std::future, so callers can harvest outcomes in any
 * deterministic order they choose regardless of completion order.
 */

#ifndef ESPNUCA_COMMON_THREAD_POOL_HPP_
#define ESPNUCA_COMMON_THREAD_POOL_HPP_

#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parse_num.hpp"

namespace espnuca {

/** Simple FIFO thread pool with future-based result delivery. */
class ThreadPool
{
  public:
    /** @param workers worker-thread count; 0 is clamped to 1 */
    explicit ThreadPool(unsigned workers = defaultJobs())
    {
        if (workers == 0)
            workers = 1;
        workers_.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            workers_.emplace_back([this]() { workerLoop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    /** Number of worker threads. */
    unsigned
    size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueue `fn` and return a future for its result. Exceptions thrown
     * by the task are captured and rethrown from future::get().
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F fn)
    {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::move(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lk(mu_);
            queue_.push([task]() { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /**
     * Worker count selected by the environment: ESPNUCA_JOBS when set
     * (clamped to >= 1), otherwise std::thread::hardware_concurrency().
     * An ESPNUCA_JOBS that is not a decimal u32 exits 2, naming it.
     */
    static unsigned
    defaultJobs()
    {
        if (const char *s = std::getenv("ESPNUCA_JOBS")) {
            const auto v = parseOrExit(
                [s] { return parseUnsigned(s, "ESPNUCA_JOBS", kMaxU32); });
            return v < 1 ? 1u : static_cast<unsigned>(v);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1u : hw;
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk,
                         [this]() { return stopping_ || !queue_.empty(); });
                if (queue_.empty())
                    return; // stopping and drained
                job = std::move(queue_.front());
                queue_.pop();
            }
            // submit() routes exceptions into the packaged_task's
            // future, but workerLoop is also the pool's last line of
            // defence: a job enqueued some other way (or a throwing
            // task destructor) must not std::terminate and take every
            // queued experiment down with it. Swallowing here is safe —
            // result delivery is the future's job, not the worker's.
            try {
                job();
            } catch (...) {
            }
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

} // namespace espnuca

#endif // ESPNUCA_COMMON_THREAD_POOL_HPP_
