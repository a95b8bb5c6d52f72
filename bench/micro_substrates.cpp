// Microbenchmarks (google-benchmark) for every substrate: the tasking
// runtime, the dependency registry, the in-process MPI, TAMPI, the AMR
// kernels (these double as the DES calibration kernels), and the DES engine
// itself.
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "amr/block.hpp"
#include "mpisim/mpi.hpp"
#include "sim/simulator.hpp"
#include "tampi/tampi.hpp"
#include "tasking/runtime.hpp"

namespace {

using namespace dfamr;

// ---- tasking runtime -------------------------------------------------------

void BM_TaskSubmitExecute(benchmark::State& state) {
    tasking::Runtime rt(static_cast<int>(state.range(0)));
    std::atomic<std::int64_t> sink{0};
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i) {
            rt.submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); }, {});
        }
        rt.taskwait();
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TaskSubmitExecute)->Arg(1)->Arg(2);

void BM_TaskDependencyChain(benchmark::State& state) {
    tasking::Runtime rt(2);
    double slot = 0;
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i) {
            rt.submit([] {}, {tasking::inout(&slot, sizeof slot)});
        }
        rt.taskwait();
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TaskDependencyChain);

void BM_DependencyRegistryAccess(benchmark::State& state) {
    std::vector<double> arena(1024);
    for (auto _ : state) {
        tasking::DependencyRegistry reg;
        for (int i = 0; i < 512; ++i) {
            auto node = std::make_shared<tasking::DepNode>();
            node->node_id = static_cast<std::uint64_t>(i + 1);
            tasking::Dep d =
                tasking::inout(&arena[static_cast<std::size_t>(i % 64) * 16], 16 * sizeof(double));
            reg.register_accesses(node, std::span<const tasking::Dep>(&d, 1));
            node->dep_released = true;
        }
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DependencyRegistryAccess);

// ---- in-process MPI ---------------------------------------------------------

void BM_MpiPingPong(benchmark::State& state) {
    const std::size_t bytes = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        mpi::World world(2);
        world.run([bytes](mpi::Communicator& comm) {
            std::vector<char> buf(bytes);
            for (int i = 0; i < 50; ++i) {
                if (comm.rank() == 0) {
                    comm.send(buf.data(), bytes, 1, 0);
                    comm.recv(buf.data(), bytes, 1, 1);
                } else {
                    comm.recv(buf.data(), bytes, 0, 0);
                    comm.send(buf.data(), bytes, 0, 1);
                }
            }
        });
    }
    state.SetBytesProcessed(state.iterations() * 100 * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MpiPingPong)->Arg(64)->Arg(65536);

void BM_MpiAllreduce(benchmark::State& state) {
    const int ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        mpi::World world(ranks);
        world.run([](mpi::Communicator& comm) {
            double in = comm.rank(), out = 0;
            for (int i = 0; i < 20; ++i) comm.allreduce(&in, &out, 1, mpi::Op::Sum);
        });
    }
    state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_MpiAllreduce)->Arg(2)->Arg(4);

// ---- TAMPI -------------------------------------------------------------------

void BM_TampiTaskPipeline(benchmark::State& state) {
    for (auto _ : state) {
        mpi::World world(2);
        world.run([](mpi::Communicator& comm) {
            tasking::Runtime rt(2);
            tampi::Tampi tampi(rt);
            const int peer = 1 - comm.rank();
            std::vector<double> send_buf(32), recv_buf(32);
            for (int i = 0; i < 32; ++i) {
                const auto idx = static_cast<std::size_t>(i);
                rt.submit([&, i, idx] { tampi.isend(comm, &send_buf[idx], 8, peer, i); },
                          {tasking::in(&send_buf[idx], 8)});
                rt.submit([&, i, idx] { tampi.irecv(comm, &recv_buf[idx], 8, peer, i); },
                          {tasking::out(&recv_buf[idx], 8)});
            }
            rt.taskwait();
        });
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TampiTaskPipeline);

// ---- AMR kernels (the calibration kernels) -----------------------------------

void BM_Stencil7(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    amr::BlockShape shape{n, n, n, 4};
    amr::Block block(amr::BlockKey{}, shape);
    block.init_cells(Box{{0, 0, 0}, {1, 1, 1}}, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(block.stencil7(0, 4));
    }
    state.SetItemsProcessed(state.iterations() * n * n * n * 4);
}
BENCHMARK(BM_Stencil7)->Arg(10)->Arg(12)->Arg(18);

void BM_PackFaceSameLevel(benchmark::State& state) {
    amr::BlockShape shape{12, 12, 12, 40};
    amr::Block block(amr::BlockKey{}, shape);
    block.init_cells(Box{{0, 0, 0}, {1, 1, 1}}, 1);
    const amr::FaceGeom geom{0, +1, amr::FaceRel::Same, 0};
    std::vector<double> buf(static_cast<std::size_t>(block.face_value_count(geom, 40)));
    for (auto _ : state) {
        block.pack_face(geom, 0, 40, buf);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()) * 8);
}
BENCHMARK(BM_PackFaceSameLevel);

/// One copy_face_from on the sphere workload's block shape (8³, 8 vars) for
/// axis range(0) and relation range(1). Items are message values, as in the
/// perfbench probe; z-faces (axis 2) are the strided case.
void BM_CopyFace(benchmark::State& state) {
    const amr::BlockShape shape{8, 8, 8, 8};
    amr::Block src(amr::BlockKey{}, shape), dst(amr::BlockKey{}, shape);
    src.init_cells(Box{{0, 0, 0}, {1, 1, 1}}, 1);
    const auto rel = static_cast<amr::FaceRel>(state.range(1));
    const amr::FaceGeom geom{static_cast<int>(state.range(0)), +1, rel, 0};
    for (auto _ : state) {
        dst.copy_face_from(src, geom, 0, shape.num_vars);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * dst.face_value_count(geom, shape.num_vars));
    state.SetLabel(rel == amr::FaceRel::Same ? "same"
                   : rel == amr::FaceRel::Finer ? "finer" : "coarser");
}
BENCHMARK(BM_CopyFace)->ArgsProduct({{0, 1, 2}, {0, 1, 2}})->ArgNames({"axis", "rel"});

void BM_BlockSplit(benchmark::State& state) {
    amr::BlockShape shape{12, 12, 12, 40};
    amr::Block parent(amr::BlockKey{}, shape);
    parent.init_cells(Box{{0, 0, 0}, {1, 1, 1}}, 1);
    amr::Block child(amr::BlockKey{}, shape);
    for (auto _ : state) {
        for (int octant = 0; octant < 8; ++octant) child.fill_from_parent(parent, octant);
        benchmark::DoNotOptimize(child.data());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_BlockSplit);

// ---- DES engine ---------------------------------------------------------------

void BM_SimulatorEventThroughput(benchmark::State& state) {
    for (auto _ : state) {
        sim::ClusterSpec cluster;
        cluster.nodes = 4;
        cluster.cores_per_node = 4;
        cluster.ranks_per_node = 4;
        cluster.cores_per_socket = 4;
        sim::Simulator simulator(cluster, sim::CostModel{});
        for (int i = 0; i < 4096; ++i) {
            simulator.submit(simulator.new_task(i % 16, amr::PhaseKind::Stencil, 100));
        }
        simulator.run_until_drained();
        benchmark::DoNotOptimize(simulator.global_time());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace

BENCHMARK_MAIN();
