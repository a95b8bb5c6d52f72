// perfbench: one workload per process. Runs the three variants of the
// workload interleaved for --seconds, checks every repetition, and prints
// one JSON line (end-to-end metrics with --trace 0, per-layer metrics from
// the traced twin and the layer probes with --trace 1).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "amr/trace.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "sim/run_sim.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload {sphere,advect,faces_shm} "
                 "--seed N --seconds S --trace {0,1}\n",
                 msg);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            a.trace = std::strcmp(value, "0") != 0;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0)) usage("--seconds must be positive");
    return a;
}

/// One checked repetition: wall time from outside the call, the result and,
/// for a traced repetition, the analysis of its trace.
struct Sample {
    double wall_s = 0;
    RunResult result;
    dfamr::amr::TraceAnalysis trace;
};

class Harness {
public:
    Harness(const Workload& w, const References& refs) : w_(w), refs_(refs) {}

    std::optional<Sample> run(Variant v, bool traced) {
        ++attempted_;
        Sample s;
        dfamr::amr::Tracer tracer;
        tracer.enable(traced);
        std::string why;
        try {
            const auto t0 = std::chrono::steady_clock::now();
            s.result = dfamr::core::run_variant(w_.config_for(v), v, traced ? &tracer : nullptr,
                                                nullptr, w_.opts);
            s.wall_s = seconds_since(t0);
            why = check_result(w_, v, s.result, refs_);
        } catch (const std::exception& e) {
            why = std::string("threw: ") + e.what();
        }
        if (!why.empty()) {
            ++failed_;
            std::fprintf(stderr, "perfbench: %s/%s repetition failed: %s\n", w_.name.c_str(),
                         variant_key(v), why.c_str());
            return std::nullopt;
        }
        if (traced) s.trace = tracer.analyze();
        std::fprintf(stderr, "%-9s %-8s wall %.4f s  total %.4f s%s\n", w_.name.c_str(),
                     variant_key(v), s.wall_s, s.result.times.total, traced ? "  (traced)" : "");
        return s;
    }

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }

private:
    const Workload& w_;
    const References& refs_;
    int attempted_ = 0;
    int failed_ = 0;
};

/// Per-variant samples of one loop over rotating rounds.
struct Series {
    std::map<Variant, std::vector<Sample>> by_variant;
    int rounds = 0;
    int dropped_rounds = 0;

    const std::vector<Sample>& of(Variant v) const {
        static const std::vector<Sample> none;
        const auto it = by_variant.find(v);
        return it == by_variant.end() ? none : it->second;
    }
    /// Median of `f` over the valid repetitions of `v`.
    template <class F>
    double median_of(Variant v, F f) const {
        std::vector<double> values;
        for (const Sample& s : of(v)) values.push_back(static_cast<double>(f(s)));
        return median(values);
    }
};

/// The guest's CPU time so far, in clock ticks summed over all CPUs: what
/// the hypervisor gave to other guests while this one wanted to run
/// (`steal`), and everything (`total`). Zero when /proc/stat is unreadable.
struct CpuTicks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;

    static CpuTicks now() {
        CpuTicks t;
        std::FILE* f = std::fopen("/proc/stat", "r");
        if (!f) return t;
        // user nice system idle iowait irq softirq steal
        unsigned long long v[8] = {};
        if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                        &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
            t.steal = v[7];
            for (const unsigned long long x : v) t.total += x;
        }
        std::fclose(f);
        return t;
    }
    /// Share of the CPU time since `before` that was stolen.
    double steal_share_since(const CpuTicks& before) const {
        const std::uint64_t dt = total - before.total;
        return dt > 0 ? static_cast<double>(steal - before.steal) / static_cast<double>(dt) : 0;
    }
};

/// A round during which the hypervisor stole more than this share of the
/// guest's CPU time is dropped. Rounds on a quiet host steal under
/// 1%; during the host's busy spells 10-30% was stolen and every variant ran
/// 2-5x slower, since a rank whose virtual CPU is stopped holds up the others.
constexpr double kMaxStealShare = 0.02;

/// Rounds of one repetition per variant, the start rotating each round, until
/// `seconds` of rounds were kept (and at least `min_rounds` rounds). Every
/// repetition is checked, kept or not. A round is dropped when the host
/// stole CPU time during it (see kMaxStealShare), for at most another
/// `seconds / 2` in all; after that every round is kept, so a run still ends
/// within 1.5 times its length.
Series run_rounds(Harness& h, double seconds, int min_rounds, bool traced) {
    Series s;
    const auto t0 = std::chrono::steady_clock::now();
    double dropped_s = 0;
    for (std::size_t round_no = 0; s.rounds < min_rounds || seconds_since(t0) - dropped_s < seconds;
         ++round_no) {
        const auto round_t0 = std::chrono::steady_clock::now();
        const CpuTicks ticks = CpuTicks::now();
        std::vector<std::pair<Variant, Sample>> kept;
        for (std::size_t k = 0; k < kVariants.size(); ++k) {
            const Variant v = kVariants[(k + round_no) % kVariants.size()];
            if (auto sample = h.run(v, traced)) kept.emplace_back(v, std::move(*sample));
        }
        const double stolen = CpuTicks::now().steal_share_since(ticks);
        const double round_s = seconds_since(round_t0);
        const bool drop = stolen > kMaxStealShare && dropped_s + round_s <= seconds / 2;
        std::fprintf(stderr, "perfbench: round %zu: host stole %.2f%% of the CPU time%s\n", round_no,
                     100 * stolen, drop ? ", dropped" : "");
        if (drop) {
            dropped_s += round_s;
            ++s.dropped_rounds;
            continue;
        }
        for (auto& [v, sample] : kept) s.by_variant[v].push_back(std::move(sample));
        ++s.rounds;
    }
    return s;
}

/// Peak resident set (MiB) of a fresh child process that runs one
/// repetition of `v` and exits. Call before this process starts a thread:
/// the child then inherits no threads and no allocator state from earlier
/// repetitions, whose arena reuse would otherwise make the peak depend on
/// how many repetitions came before.
double child_peak_rss_mib(const Workload& w, Variant v) {
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        int code = 1;
        try {
            const RunResult r =
                dfamr::core::run_variant(w.config_for(v), v, nullptr, nullptr, w.opts);
            code = r.validation_ok ? 0 : 1;
        } catch (...) {
        }
        std::_Exit(code);
    }
    int status = 0;
    rusage ru{};
    if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error(std::string("peak-RSS child run of ") + variant_key(v) +
                                 " failed");
    }
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The largest per-variant peak: the memory a user of the hungriest variant
/// needs for one run of the workload.
double peak_rss_mib(const Workload& w) {
    double peak = 0;
    for (const Variant v : kVariants) peak = std::max(peak, child_peak_rss_mib(w, v));
    return peak;
}

std::string key(const char* prefix, Variant v) { return std::string(prefix) + variant_key(v); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// What a user of each variant waits for, measured with tracing off.
std::vector<Metric> end_to_end(const Series& untraced, double peak_rss_mb) {
    std::vector<Metric> m;
    std::vector<double> setups;
    for (const Variant v : kVariants) {
        m.push_back({key("wall_s.", v),
                     untraced.median_of(v, [](const Sample& s) { return s.wall_s; }), "s"});
        // Outside the program's own timer: world and thread spawn, driver
        // and mesh construction, teardown.
        for (const Sample& s : untraced.of(v)) setups.push_back(s.wall_s - s.result.times.total);
    }
    m.push_back({"setup_s", median(setups), "s"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
    return m;
}

/// Core-seconds the traced twin spent in each phase group, summed over lanes.
double busy_s(const dfamr::amr::TraceAnalysis& a,
              std::initializer_list<dfamr::amr::PhaseKind> kinds) {
    std::int64_t ns = 0;
    for (const auto k : kinds) {
        const auto it = a.busy_ns_by_kind.find(k);
        if (it != a.busy_ns_by_kind.end()) ns += it->second;
    }
    return static_cast<double>(ns) * 1e-9;
}

/// Per-layer numbers: counts from the untraced repetitions, busy time from
/// the traced twin, the layer probes, and the DES held to the measured runs.
std::vector<Metric> per_layer(const Workload& w, const References& refs, const Series& untraced,
                              const Series& traced, const ProbeReport& probes) {
    using dfamr::amr::PhaseKind;
    using Sched = dfamr::core::SchedulerCounters;
    std::vector<Metric> m = probes.metrics;
    const auto add = [&m](std::string name, double value, const char* unit) {
        m.push_back({std::move(name), value, unit});
    };
    const auto result_median = [&untraced](Variant v, auto field) {
        return untraced.median_of(v, [&](const Sample& s) { return field(s.result); });
    };

    // amr structure and the scenario ledger (equal in every valid repetition).
    const auto mpi_median = [&](auto field) { return result_median(Variant::MpiOnly, field); };
    add("amr.blocks_split", mpi_median([](const RunResult& r) { return r.counters.blocks_split; }),
        "count");
    add("amr.blocks_merged",
        mpi_median([](const RunResult& r) { return r.counters.blocks_merged; }), "count");
    add("amr.final_blocks", mpi_median([](const RunResult& r) { return r.final_blocks; }), "count");
    add("scenario.reflux_corrections", static_cast<double>(refs.mpi.reflux_corrections), "count");

    for (const Variant v : {Variant::ForkJoin, Variant::TampiOss}) {
        const auto sched = [&](auto f) {
            return result_median(v, [&](const RunResult& r) { return f(r.sched); });
        };
        add(key("tasking.tasks.", v),
            sched([](const Sched& c) { return static_cast<double>(c.tasks_executed); }), "count");
        add(key("tasking.steal_success_ratio.", v), sched([](const Sched& c) {
                return ratio(static_cast<double>(c.steals),
                             static_cast<double>(c.steals + c.steal_fails));
            }),
            "ratio");
        add(key("tasking.parks_per_task.", v), sched([](const Sched& c) {
                return ratio(static_cast<double>(c.parks), static_cast<double>(c.tasks_executed));
            }),
            "ratio");
        add(key("tasking.immediate_successor_ratio.", v), sched([](const Sched& c) {
                return ratio(static_cast<double>(c.immediate_successor_hits),
                             static_cast<double>(c.tasks_executed));
            }),
            "ratio");
    }

    for (const Variant v : kVariants) {
        add(key("mpisim.messages.", v),
            result_median(v, [](const RunResult& r) { return r.messages; }), "count");
        add(key("mpisim.bytes.", v), result_median(v, [](const RunResult& r) { return r.bytes; }),
            "B");
        add(key("net.frames_sent.", v),
            result_median(v, [](const RunResult& r) { return r.net.frames_sent; }), "count");
    }

    const struct {
        const char* name;
        std::initializer_list<PhaseKind> kinds;
    } groups[] = {
        {"stencil", {PhaseKind::Stencil}},
        {"intra_copy", {PhaseKind::IntraCopy}},
        {"pack", {PhaseKind::Pack}},
        {"unpack", {PhaseKind::Unpack}},
        {"send", {PhaseKind::Send}},
        {"recv", {PhaseKind::Recv}},
        {"comm_wait", {PhaseKind::CommWait}},
        {"refine",
         {PhaseKind::RefineSplit, PhaseKind::RefineMerge, PhaseKind::RefineExchange,
          PhaseKind::LoadBalance}},
        {"checksum", {PhaseKind::ChecksumLocal, PhaseKind::ChecksumReduce}},
    };
    const auto wall = [](const Sample& s) { return s.wall_s; };
    for (const Variant v : kVariants) {
        for (const auto& g : groups) {
            const auto busy = [&](const Sample& s) { return busy_s(s.trace, g.kinds); };
            add(key((std::string("trace.busy_s.") + g.name + ".").c_str(), v),
                traced.median_of(v, busy), "s");
        }
        add(key("trace.utilization.", v),
            traced.median_of(v, [](const Sample& s) { return s.trace.utilization; }), "ratio");
        add(key("trace.progress_s.", v), traced.median_of(v, [](const Sample& s) {
                return static_cast<double>(s.trace.progress_ns) * 1e-9;
            }),
            "s");
        add(key("trace.overhead_ratio.", v),
            ratio(traced.median_of(v, wall), untraced.median_of(v, wall)), "ratio");
    }

    // The DES on this workload's problem at one node of this core count,
    // over the median measured program time.
    for (const Variant v : kVariants) {
        const Config& cfg = w.config_for(v);
        dfamr::sim::ClusterSpec cluster;
        cluster.nodes = 1;
        cluster.cores_per_node = w.cores();
        cluster.cores_per_socket = w.cores();
        cluster.ranks_per_node = cfg.num_ranks();
        const double measured = result_median(v, [](const RunResult& r) { return r.times.total; });
        const auto predicted = [&](const dfamr::sim::CostModel& model) {
            return dfamr::sim::run_simulated(cfg, v, cluster, model).total_s;
        };
        add(key("sim.pred_ratio.", v), ratio(predicted(probes.model), measured), "ratio");
        add(key("sim.pred_ratio_default.", v), ratio(predicted({}), measured), "ratio");
    }
    return m;
}

/// Makes the allocator keep the memory it frees instead of handing it back
/// to the kernel. Every repetition builds and tears down its mesh; with the
/// default settings glibc returns those pages at teardown and the next
/// repetition faults them in again. On a virtual machine those faults took
/// about a third of a `sphere` repetition and varied twofold from one
/// repetition to the next. With the memory kept, the warm-up round pages the
/// heap in once and the timed repetitions measure the program rather than
/// the kernel's page handling.
void retain_freed_memory() {
    constexpr int kNeverTrim = 1 << 30;
    constexpr int kLargestHeapAllocation = 32 << 20;  // glibc's maximum
    if (mallopt(M_TRIM_THRESHOLD, kNeverTrim) != 1 ||
        mallopt(M_MMAP_THRESHOLD, kLargestHeapAllocation) != 1) {
        throw std::runtime_error("mallopt refused the allocator settings");
    }
}

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    try {
        retain_freed_memory();
        const Workload w = make_workload(args.workload, args.seed);
        const double peak_rss_mb = args.trace ? 0 : peak_rss_mib(w);
        const References refs = make_references(w);
        Harness h(w, refs);
        // Warm-up: one discarded round pages in the allocator, the shm
        // segment names and the thread stacks.
        run_rounds(h, 0, 1, false);
        const Series untraced = run_rounds(h, args.seconds, 3, false);
        std::fprintf(stderr, "perfbench: %s seed %llu: %d untraced rounds, %d dropped\n",
                     w.name.c_str(), static_cast<unsigned long long>(args.seed), untraced.rounds,
                     untraced.dropped_rounds);

        std::vector<Metric> metrics;
        if (!args.trace) {
            metrics = end_to_end(untraced, peak_rss_mb);
        } else {
            const Series traced = run_rounds(h, args.seconds / 3, 2, true);
            const ProbeReport probes = run_probes(w);
            for (const std::string& line : probes.notes) std::printf("%s\n", line.c_str());
            metrics = per_layer(w, refs, untraced, traced, probes);
        }
        print_result(h.failed() == 0, h.attempted(), h.failed(), metrics);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
