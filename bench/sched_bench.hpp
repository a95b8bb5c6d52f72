// Scheduler micro-measurement behind the "scheduler" section of
// BENCH_scaling.json (bench/bench_json). Times the work-stealing
// dfamr::tasking::Runtime on two workloads:
//
//  * fan-out — one generator task per worker spawning many independent
//    children: stresses submission, queueing and stealing;
//  * chains — C independent inout-dependency chains: stresses dependency
//    release and the immediate-successor path, the shape AMR stencil
//    pipelines take;
//
// plus the raw latency of a successful WsDeque::steal under contention.
// These per-task costs calibrate CostModel::tasking_overhead_ns for the
// DES (see src/sim/cost_model.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "tasking/runtime.hpp"
#include "tasking/ws_deque.hpp"

namespace dfamr::bench {

namespace detail {

inline double elapsed_ns(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// One generator task per worker, each spawning `per_gen` empty children.
/// Returns ns per child task.
inline double fanout_ns_per_task(tasking::Runtime& rt, int gens, long long per_gen) {
    std::atomic<long long> sink{0};
    const auto t0 = std::chrono::steady_clock::now();
    for (int g = 0; g < gens; ++g) {
        rt.submit(
            [&rt, &sink, per_gen] {
                for (long long i = 0; i < per_gen; ++i) {
                    rt.submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); }, {});
                }
            },
            {});
    }
    rt.taskwait();
    return elapsed_ns(t0) / static_cast<double>(gens * per_gen);
}

/// `chains` independent inout chains of `links` tasks each, submitted up
/// front — every link depends on its predecessor through a synthetic
/// region. Returns ns per link.
inline double chain_ns_per_task(tasking::Runtime& rt, int chains, long long links) {
    std::atomic<long long> sink{0};
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < chains; ++c) {
        // Synthetic ids spread chains across registry shards.
        const std::uint64_t id = (static_cast<std::uint64_t>(c) + 1) << 20;
        for (long long l = 0; l < links; ++l) {
            rt.submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); },
                      {tasking::inout_id(id)});
        }
    }
    rt.taskwait();
    return elapsed_ns(t0) / static_cast<double>(chains * links);
}

}  // namespace detail

struct SchedMeasurement {
    int workers = 0;
    long long tasks = 0;
    double new_fanout_ns = 0;
    double new_chain_ns = 0;
    double steal_ns = 0;  // mean successful WsDeque::steal latency
    tasking::RuntimeStats fanout_stats;
    tasking::RuntimeStats chain_stats;
};

/// Spawn/complete throughput + steal latency at `workers` worker threads.
/// `tasks` is the total task count per workload.
inline SchedMeasurement measure_scheduler(int workers, long long tasks) {
    SchedMeasurement m;
    m.workers = workers;
    m.tasks = tasks;
    if (workers < 1) return m;
    const long long per_gen = tasks / workers;
    const int chains = 4 * workers;
    const long long links = tasks / chains;

    {
        tasking::Runtime rt(workers);
        m.new_fanout_ns = detail::fanout_ns_per_task(rt, workers, per_gen);
        m.fanout_stats = rt.stats();
    }
    {
        tasking::Runtime rt(workers);
        m.new_chain_ns = detail::chain_ns_per_task(rt, chains, links);
        m.chain_stats = rt.stats();
    }

    {
        // Steal latency: one pre-filled deque, `workers` thieves draining it
        // concurrently through the top end.
        const long long items = 100000;
        std::vector<long long> values(static_cast<std::size_t>(items));
        tasking::WsDeque<long long> dq(1024);
        for (long long i = 0; i < items; ++i) dq.push(&values[static_cast<std::size_t>(i)]);
        std::atomic<long long> stolen{0};
        std::vector<std::thread> thieves;
        const auto t0 = std::chrono::steady_clock::now();
        for (int t = 0; t < workers; ++t) {
            thieves.emplace_back([&dq, &stolen, items] {
                while (stolen.load(std::memory_order_relaxed) < items) {
                    if (dq.steal() != nullptr) {
                        stolen.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            });
        }
        for (auto& t : thieves) t.join();
        m.steal_ns = detail::elapsed_ns(t0) / static_cast<double>(items);
    }

    return m;
}

}  // namespace dfamr::bench
