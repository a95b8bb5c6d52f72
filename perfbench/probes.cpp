#include "probes.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <span>

#include "amr/block.hpp"
#include "amr/flux_register.hpp"
#include "mpisim/mpi.hpp"
#include "scenario/problem_generator.hpp"
#include "scenario/refinement_condition.hpp"
#include "tampi/tampi.hpp"
#include "tasking/runtime.hpp"

namespace perfbench {

namespace {

using dfamr::amr::Block;
using dfamr::amr::BlockKey;
using dfamr::amr::BlockShape;
using dfamr::amr::FaceGeom;
using dfamr::amr::FaceRel;
using Clock = std::chrono::steady_clock;

/// Keeps computed values observable so no timed call can be dropped
/// (written by the probing thread only).
volatile double g_sink = 0;
/// Counts task bodies whose result is impossible (never): keeps the METG
/// task bodies observable without a data race between workers.
std::atomic<int> g_never{0};

/// Median nanoseconds per call of `op`, over batches of at least ~2 ms run
/// for about `budget_s` (at least 7 batches).
template <class Op>
double ns_per_call(Op&& op, double budget_s = 0.08) {
    long batch = 1;
    for (;;) {
        const auto t0 = Clock::now();
        for (long i = 0; i < batch; ++i) op();
        if (seconds_since(t0) >= 2e-3 || batch >= (1L << 24)) break;
        batch *= 2;
    }
    std::vector<double> per_call;
    const auto start = Clock::now();
    while (per_call.size() < 7 || (seconds_since(start) < budget_s && per_call.size() < 400)) {
        const auto t0 = Clock::now();
        for (long i = 0; i < batch; ++i) op();
        per_call.push_back(seconds_since(t0) * 1e9 / static_cast<double>(batch));
    }
    return median(per_call);
}

class Recorder {
public:
    explicit Recorder(ProbeReport& rep) : rep_(rep) {}

    /// Records `ns_per_call / per_call` as `name` and notes the computed
    /// bytes one call touches.
    double per_unit(const std::string& name, double ns_call, double per_call, double bytes_call) {
        const double v = ns_call / per_call;
        rep_.metrics.push_back({name, v, "ns"});
        char line[200];
        std::snprintf(line, sizeof line, "probe %-36s %10.3f ns  %9.0f B/call (computed)",
                      name.c_str(), v, bytes_call);
        rep_.notes.emplace_back(line);
        return v;
    }
    double value(const std::string& name, double v, const char* unit, double bytes_call) {
        rep_.metrics.push_back({name, v, unit});
        char line[200];
        std::snprintf(line, sizeof line, "probe %-36s %10.3f %-2s  %9.0f B/call (computed)",
                      name.c_str(), v, unit, bytes_call);
        rep_.notes.emplace_back(line);
        return v;
    }

private:
    ProbeReport& rep_;
};

constexpr double kValueBytes = sizeof(double);

// --- amr kernels --------------------------------------------------------

void amr_probes(const Config& c, Recorder& rec, dfamr::sim::CostModel& model) {
    const BlockShape shape{c.nx, c.ny, c.nz, c.num_vars};
    const int vars = c.num_vars;
    const dfamr::Box box{{0, 0, 0}, {1, 1, 1}};
    Block a(BlockKey{}, shape);
    Block b(BlockKey{}, shape);
    a.init_cells(box, c.seed);
    b.init_cells(box, c.seed + 1);
    const double cell_vars = static_cast<double>(c.cells_interior()) * vars;

    const struct {
        FaceRel rel;
        const char* suffix;
    } relations[] = {{FaceRel::Same, "same"}, {FaceRel::Finer, "finer"},
                     {FaceRel::Coarser, "coarser"}};
    for (const auto& r : relations) {
        const FaceGeom g{0, +1, r.rel, 0};
        const double n = static_cast<double>(a.face_value_count(g, vars));
        rec.per_unit(std::string("amr.copy_face_ns_per_value.") + r.suffix,
                     ns_per_call([&] { a.copy_face_from(b, g, 0, vars); }), n,
                     2 * n * kValueBytes);
    }

    const FaceGeom same{0, +1, FaceRel::Same, 0};
    const auto n_face = static_cast<std::size_t>(a.face_value_count(same, vars));
    std::vector<double> buf(n_face);
    const double pack_ns = rec.per_unit(
        "amr.pack_ns_per_value",
        ns_per_call([&] { b.pack_face(same, 0, vars, std::span<double>(buf)); }),
        static_cast<double>(n_face), 2 * static_cast<double>(n_face) * kValueBytes);
    rec.per_unit("amr.unpack_ns_per_value",
                 ns_per_call([&] { a.unpack_face(same, 0, vars, std::span<const double>(buf)); }),
                 static_cast<double>(n_face), 2 * static_cast<double>(n_face) * kValueBytes);
    rec.per_unit("amr.reflect_ns_per_value", ns_per_call([&] { a.reflect_face(0, +1, 0, vars); }),
                 static_cast<double>(n_face), 2 * static_cast<double>(n_face) * kValueBytes);

    // Split writes every interior value of the child; merge reads every
    // interior value of the child.
    Block child(BlockKey{}, shape);
    rec.per_unit("amr.split_ns_per_value", ns_per_call([&] { child.fill_from_parent(a, 0); }),
                 cell_vars, 2 * cell_vars * kValueBytes);
    rec.per_unit("amr.merge_ns_per_value", ns_per_call([&] { a.absorb_child(b, 0); }), cell_vars,
                 1.125 * cell_vars * kValueBytes);

    model.stencil_ns_per_cell_var =
        rec.per_unit("amr.stencil7_ns_per_cell_var", ns_per_call([&] { a.stencil7(0, vars); }),
                     cell_vars, 2 * cell_vars * kValueBytes);
    model.checksum_ns_per_cell_var = rec.per_unit(
        "amr.checksum_ns_per_cell_var", ns_per_call([&] { g_sink = g_sink + a.checksum(0, vars); }),
        cell_vars, cell_vars * kValueBytes);
    model.copy_ns_per_byte = pack_ns / kValueBytes;
}

// --- scenario ------------------------------------------------------------

void scenario_probes(const Config& c, Recorder& rec) {
    // The generator and estimator of an advect-shaped run; synthetic
    // workloads probe the same functions on their own block shape.
    Config cfg = c;
    if (cfg.scenario == "synthetic") cfg.scenario = "gaussian";
    if (cfg.estimator == "objects") cfg.estimator = "gradient";
    const auto* gen = dfamr::scenario::find_generator(cfg.scenario);
    const auto* cond = dfamr::scenario::find_condition(cfg.estimator);
    const BlockShape shape{c.nx, c.ny, c.nz, c.num_vars};
    const int vars = c.num_vars;
    const dfamr::Box box{{0.25, 0.25, 0.25}, {0.75, 0.75, 0.75}};
    Block blk(BlockKey{}, shape);
    gen->init_block(blk, box);
    // Lift every value, ghosts included, by 1: the fixed ghosts then feed a
    // non-zero inflow and repeated steps never decay the field into
    // denormals, which would time the FPU's slow path instead of the kernel.
    for (std::size_t i = 0; i < blk.data_size(); ++i) blk.data()[i] += 1.0;
    dfamr::amr::FluxRegister reg(shape);
    const double dt = gen->stable_dt(cfg);
    const double cells = static_cast<double>(c.cells_interior());

    rec.per_unit("scenario.advance_ns_per_cell_var",
                 ns_per_call([&] { gen->advance(blk, box, 0, vars, dt, &reg); }), cells * vars,
                 (2 * cells * vars + 6 * static_cast<double>(c.nx) * c.ny * vars) * kValueBytes);
    const auto n_mixed = static_cast<std::size_t>(shape.face_values_mixed(0, vars));
    std::vector<double> out(n_mixed);
    rec.per_unit("scenario.pack_restricted_ns_per_value",
                 ns_per_call([&] { reg.pack_restricted(0, +1, 0, vars, std::span<double>(out)); }),
                 static_cast<double>(n_mixed), 5 * static_cast<double>(n_mixed) * kValueBytes);
    const dfamr::scenario::ScoreContext ctx{&cfg.objects, false};
    rec.per_unit("scenario.score_ns_per_cell",
                 ns_per_call([&] { g_sink = g_sink + cond->score(&blk, box, ctx); }), cells,
                 cells * kValueBytes);
}

// --- tasking -------------------------------------------------------------

/// Median ns per task of `tasks` tasks submitted then awaited, over `trials`.
template <class DepsFor>
double ns_per_task(dfamr::tasking::Runtime& rt, int tasks, int trials, DepsFor deps_for) {
    std::atomic<std::uint64_t> sink{0};
    std::vector<double> per_task;
    for (int t = 0; t < trials; ++t) {
        const auto t0 = Clock::now();
        for (int i = 0; i < tasks; ++i) {
            rt.submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); }, deps_for());
        }
        rt.taskwait();
        per_task.push_back(seconds_since(t0) * 1e9 / tasks);
    }
    return median(per_task);
}

/// A dependent floating-point chain: time proportional to `iters`, no
/// memory traffic.
double spin(std::uint64_t iters) {
    double x = 1.0;
    for (std::uint64_t i = 0; i < iters; ++i) x = x * 0.9999999 + 1e-7;
    return x;
}

/// Task-Bench-style minimum effective task granularity: the smallest task
/// body (in microseconds, log-interpolated between sweep points) at which
/// independent tasks keep `cores` cores at least 50% efficient.
double metg_us(dfamr::tasking::Runtime& rt, int cores) {
    std::vector<double> ns_per_iter;
    for (int t = 0; t < 5; ++t) {
        const std::uint64_t iters = 2'000'000;
        const auto t0 = Clock::now();
        g_sink = g_sink + spin(iters);
        ns_per_iter.push_back(seconds_since(t0) * 1e9 / static_cast<double>(iters));
    }
    const double iter_ns = median(ns_per_iter);

    const double work_per_core_ns = 8e6;
    double prev_grain = 0, prev_eff = 0;
    for (double grain_ns = 125; grain_ns <= 256e3; grain_ns *= 2) {
        const auto iters = static_cast<std::uint64_t>(std::max(1.0, grain_ns / iter_ns));
        const double body_ns = static_cast<double>(iters) * iter_ns;
        const int tasks =
            static_cast<int>(std::max(4.0 * cores, work_per_core_ns * cores / body_ns));
        std::vector<double> eff;
        for (int t = 0; t < 3; ++t) {
            const auto t0 = Clock::now();
            for (int i = 0; i < tasks; ++i) {
                rt.submit([iters] {
                    if (spin(iters) < 0) g_never.fetch_add(1, std::memory_order_relaxed);
                }, {});
            }
            rt.taskwait();
            eff.push_back(tasks * body_ns / (seconds_since(t0) * 1e9 * cores));
        }
        const double e = median(eff);
        if (e >= 0.5) {
            if (prev_grain == 0) return body_ns / 1e3;
            const double f = (0.5 - prev_eff) / (e - prev_eff);
            const double lo = std::log2(prev_grain);
            return std::exp2(lo + f * (std::log2(body_ns) - lo)) / 1e3;
        }
        prev_grain = body_ns;
        prev_eff = e;
    }
    return prev_grain / 1e3;
}

void tasking_probes(const Config& hybrid, Recorder& rec, dfamr::sim::CostModel& model) {
    // Same pool shape as one hybrid rank: the calling thread plus
    // workers - 1 worker threads.
    dfamr::tasking::Runtime rt(hybrid.workers - 1);
    const int tasks = 4096;
    model.tasking_overhead_ns = rec.value(
        "tasking.submit_run_ns",
        ns_per_task(rt, tasks, 21, [] { return std::vector<dfamr::tasking::Dep>{}; }), "ns", 0);
    rec.value("tasking.dep_chain_ns", ns_per_task(rt, tasks, 21, [] {
                  return std::vector<dfamr::tasking::Dep>{dfamr::tasking::inout_id(1)};
              }),
              "ns", 0);
    rec.value("tasking.metg_us", metg_us(rt, hybrid.workers), "us", 0);
}

// --- tampi / mpisim / net --------------------------------------------------

/// Median per-batch round trip (microseconds) of `iters` ping-pongs of
/// `bytes` between ranks 0 and 1, measured on rank 0. Call on every rank.
double pingpong_us(dfamr::mpi::Communicator& comm, std::size_t bytes, int iters, int batches) {
    std::vector<char> buf(bytes, 1);
    std::vector<double> per_rt;
    for (int b = 0; b < batches; ++b) {
        comm.barrier();
        const auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i) {
            if (comm.rank() == 0) {
                comm.send(buf.data(), bytes, 1, 0);
                comm.recv(buf.data(), bytes, 1, 0);
            } else {
                comm.recv(buf.data(), bytes, 0, 0);
                comm.send(buf.data(), bytes, 0, 0);
            }
        }
        per_rt.push_back(seconds_since(t0) * 1e6 / iters);
    }
    return median(per_rt);
}

constexpr std::size_t kEagerBytes = 1024;
/// Above the default 64 KiB rendezvous threshold of the wire transports.
constexpr std::size_t kRndvBytes = 256 * 1024;

struct PingPong {
    double eager_us = 0;
    double rndv_us = 0;
};

PingPong pingpong_world(const dfamr::mpi::WorldOptions& opts) {
    dfamr::mpi::World world(2, opts);
    PingPong p;
    world.run([&](dfamr::mpi::Communicator& comm) {
        pingpong_us(comm, kEagerBytes, 500, 3);  // warm-up
        const double eager = pingpong_us(comm, kEagerBytes, 1000, 9);
        const double rndv = pingpong_us(comm, kRndvBytes, 100, 9);
        if (comm.rank() == 0) p = {eager, rndv};
    });
    return p;
}

void message_probes(const Workload& w, Recorder& rec, dfamr::sim::CostModel& model) {
    dfamr::mpi::WorldOptions inproc;
    inproc.ignore_launch_env = true;
    const PingPong mp = pingpong_world(inproc);
    rec.value("mpisim.pingpong_us.eager", mp.eager_us, "us", 2 * kEagerBytes);
    rec.value("mpisim.pingpong_us.rndv", mp.rndv_us, "us", 2 * kRndvBytes);

    // Allreduce of one checksum vector (one double per variable) over the
    // workload's MPI-only rank count.
    const int ranks = w.mpi.num_ranks();
    double allreduce_us = 0;
    {
        dfamr::mpi::World world(ranks, inproc);
        world.run([&](dfamr::mpi::Communicator& comm) {
            std::vector<double> in(static_cast<std::size_t>(w.mpi.num_vars), 1.0);
            std::vector<double> out(in.size());
            std::vector<double> per_call;
            for (int b = 0; b < 9; ++b) {
                comm.barrier();
                const auto t0 = Clock::now();
                for (int i = 0; i < 500; ++i) {
                    comm.allreduce(in.data(), out.data(), in.size(), dfamr::mpi::Op::Sum);
                }
                per_call.push_back(seconds_since(t0) * 1e6 / 500);
            }
            if (comm.rank() == 0) allreduce_us = median(per_call);
        });
    }
    rec.value("mpisim.allreduce_us", allreduce_us, "us",
              static_cast<double>(ranks) * w.mpi.num_vars * kValueBytes);

    dfamr::mpi::WorldOptions shm = inproc;
    shm.transport = dfamr::mpi::TransportKind::Shm;
    const PingPong np = pingpong_world(shm);
    rec.value("net.shm_pingpong_us.eager", np.eager_us, "us", 2 * kEagerBytes);
    rec.value("net.shm_pingpong_us.rndv", np.rndv_us, "us", 2 * kRndvBytes);

    // DES messaging constants from the in-process numbers (the transport
    // the DES's intra-node path stands for): one-way latency of a small
    // message, and the bandwidth the large one adds on top of it.
    const double one_way_ns = mp.eager_us * 1e3 / 2;
    model.intra_node_alpha_ns = one_way_ns;
    model.intra_node_bytes_per_ns =
        static_cast<double>(kRndvBytes) / std::max(1.0, mp.rndv_us * 1e3 / 2 - one_way_ns);
    int rounds = 0;
    for (int p = 1; p < ranks; p *= 2) ++rounds;
    if (rounds > 0) {
        model.alpha_ns = std::max(0.0, allreduce_us * 1e3 / rounds - model.mpi_call_ns);
    }
}

void tampi_probe(const Config& hybrid, Recorder& rec) {
    // Task-bound ping-pong: every isend/irecv is issued from a task whose
    // completion TAMPI binds to the request; the buffer dependency chains
    // each receive behind the previous send.
    dfamr::mpi::WorldOptions inproc;
    inproc.ignore_launch_env = true;
    dfamr::mpi::World world(2, inproc);
    double rt_us = 0;
    world.run([&](dfamr::mpi::Communicator& comm) {
        dfamr::tasking::Runtime rt(hybrid.workers - 1);
        dfamr::tampi::Tampi tampi(rt);
        std::vector<char> buf(kEagerBytes, 1);
        const int peer = 1 - comm.rank();
        const auto dep = dfamr::tasking::inout(buf.data(), buf.size());
        std::vector<double> per_rt;
        for (int b = 0; b < 10; ++b) {
            const int iters = 300;
            comm.barrier();
            const auto t0 = Clock::now();
            for (int i = 0; i < iters; ++i) {
                const auto send = [&] { tampi.isend(comm, buf.data(), buf.size(), peer, 0); };
                const auto recv = [&] { tampi.irecv(comm, buf.data(), buf.size(), peer, 0); };
                if (comm.rank() == 0) {
                    rt.submit(send, {dep});
                    rt.submit(recv, {dep});
                } else {
                    rt.submit(recv, {dep});
                    rt.submit(send, {dep});
                }
            }
            rt.taskwait();
            per_rt.push_back(seconds_since(t0) * 1e6 / iters);
        }
        per_rt.erase(per_rt.begin());  // warm-up batch
        if (comm.rank() == 0) rt_us = median(per_rt);
    });
    rec.value("tampi.bound_roundtrip_us", rt_us, "us", 2 * kEagerBytes);
}

}  // namespace

ProbeReport run_probes(const Workload& w) {
    ProbeReport rep;
    Recorder rec(rep);
    amr_probes(w.mpi, rec, rep.model);
    scenario_probes(w.mpi, rec);
    tasking_probes(w.hybrid, rec, rep.model);
    tampi_probe(w.hybrid, rec);
    message_probes(w, rec, rep.model);
    return rep;
}

}  // namespace perfbench
