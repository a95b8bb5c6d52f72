#include "core/fork_join.hpp"

#include <atomic>
#include <cstdlib>

#include "common/timing.hpp"
#include "core/sched_telemetry.hpp"
#include "tasking/parallel_for.hpp"
#include "verify/verifier.hpp"

namespace dfamr::core {

ForkJoinDriver::ForkJoinDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer)
    : DriverBase(cfg, comm, tracer), rt_(cfg.workers - 1) {
#if defined(DFAMR_VERIFY)
    verifier_ = std::make_unique<verify::Verifier>();
    verifier_->attach(rt_);
#else
    // Opt-in race prover: see TampiOssDriver — DFAMR_DEPLINT=1 attaches
    // DepLint in default builds for the multi-process golden tests.
    if (const char* e = std::getenv("DFAMR_DEPLINT"); e != nullptr && e[0] == '1') {
        verifier_ = std::make_unique<verify::Verifier>();
        verifier_->deplint().set_check_on_shutdown(true);
        verifier_->attach(rt_);
    }
#endif
}

ForkJoinDriver::~ForkJoinDriver() = default;

void ForkJoinDriver::pfor(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
    tasking::parallel_for(rt_, 0, n, fn);
}

template <class SendStream, class RecvStream, class Pack, class Copy, class Unpack>
void ForkJoinDriver::exchange(int dir, int gb, int ge,
                              const std::vector<amr::NeighborExchange>& neighbors,
                              const std::vector<amr::IntraCopy>& copies,
                              std::span<const std::pair<BlockKey, int>> boundary,
                              SendStream send_stream, RecvStream recv_stream, Pack pack, Copy copy,
                              Unpack unpack) {
    const int gvars = ge - gb;
    const auto section = [gvars](std::span<double> stream, std::int64_t offset,
                                 std::int64_t count) {
        return stream.subspan(static_cast<std::size_t>(offset * gvars),
                              static_cast<std::size_t>(count * gvars));
    };

    // Master posts all receives.
    std::vector<mpi::Request> recv_reqs;
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = neighbors[ni];
        const std::span<double> stream = recv_stream(static_cast<int>(ni));
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            auto span = section(stream, chunk.value_offset, chunk.value_count);
            recv_reqs.push_back(hcomm_.irecv(span.data(), span.size_bytes(), ex.peer, chunk.tag));
        }
    }

    // Worksharing loop over all faces to pack (implicit barrier at the end).
    struct FaceJob {
        const amr::FaceTransfer* face;
        int neighbor_index;
    };
    std::vector<FaceJob> pack_jobs;
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        for (const amr::FaceTransfer& face : neighbors[ni].sends) {
            pack_jobs.push_back(FaceJob{&face, static_cast<int>(ni)});
        }
    }
    pfor(static_cast<std::int64_t>(pack_jobs.size()), [&](std::int64_t i) {
        const FaceJob& job = pack_jobs[static_cast<std::size_t>(i)];
        auto out = section(send_stream(job.neighbor_index), job.face->value_offset,
                           job.face->value_count);
        const std::int64_t t0 = now_ns();
        DFAMR_CHECK_WRITE(out.data(), out.size_bytes());
        pack(*job.face, out);
        trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
    });

    // Master sends every chunk (all MPI stays on the master thread).
    std::vector<mpi::Request> send_reqs;
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = neighbors[ni];
        const std::span<double> stream = send_stream(static_cast<int>(ni));
        for (const amr::MessageChunk& chunk : ex.send_chunks) {
            auto span = section(stream, chunk.value_offset, chunk.value_count);
            const std::int64_t t0 = now_ns();
            send_reqs.push_back(hcomm_.isend(span.data(), span.size_bytes(), ex.peer, chunk.tag));
            trace(0, t0, now_ns(), PhaseKind::Send);
        }
    }

    // Intra-process copies + boundary reflection, workshared.
    pfor(static_cast<std::int64_t>(copies.size()), [&](std::int64_t i) {
        const std::int64_t t0 = now_ns();
        copy(copies[static_cast<std::size_t>(i)]);
        trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
    });
    pfor(static_cast<std::int64_t>(boundary.size()), [&](std::int64_t i) {
        const auto& [key, sense] = boundary[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        mesh_.block(key).reflect_face(dir, sense, gb, ge);
        trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
    });

    // Master waits for ALL receives (fork-join cannot overlap per-message),
    // then a workshared loop unpacks everything.
    const std::int64_t t0 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(recv_reqs));
    trace(0, t0, now_ns(), PhaseKind::CommWait);

    std::vector<FaceJob> unpack_jobs;
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        for (const amr::FaceTransfer& face : neighbors[ni].recvs) {
            unpack_jobs.push_back(FaceJob{&face, static_cast<int>(ni)});
        }
    }
    pfor(static_cast<std::int64_t>(unpack_jobs.size()), [&](std::int64_t i) {
        const FaceJob& job = unpack_jobs[static_cast<std::size_t>(i)];
        auto in = section(recv_stream(job.neighbor_index), job.face->value_offset,
                          job.face->value_count);
        const std::int64_t t1 = now_ns();
        DFAMR_CHECK_READ(in.data(), in.size_bytes());
        unpack(*job.face, in);
        trace(worker_index(), t1, now_ns(), PhaseKind::Unpack);
    });

    const std::int64_t t2 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(send_reqs));
    trace(0, t2, now_ns(), PhaseKind::CommWait);
}

void ForkJoinDriver::communicate_stage(int group) {
    Stopwatch sw;
    sw.start();
    const int gb = group_begin(group), ge = group_end(group);
    for (int dir = 0; dir < 3; ++dir) {
        const amr::DirectionPlan& dp = plan_.direction(dir);
        exchange(
            dir, gb, ge, dp.neighbors, dp.copies, dp.boundary,
            [&](int ni) { return buffers_->send_stream(dir, ni); },
            [&](int ni) { return buffers_->recv_stream(dir, ni); },
            [&](const amr::FaceTransfer& face, std::span<double> out) {
                const Block& blk = mesh_.block(face.mine);
                DFAMR_CHECK_READ(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
                blk.pack_face(face.geom, gb, ge, out);
            },
            [&](const amr::IntraCopy& copy) {
                mesh_.block(copy.dst).copy_face_from(mesh_.block(copy.src), copy.geom, gb, ge);
            },
            [&](const amr::FaceTransfer& face, std::span<const double> in) {
                Block& blk = mesh_.block(face.mine);
                DFAMR_CHECK_WRITE(blk.group_span(gb, ge).data(),
                                  blk.group_span(gb, ge).size_bytes());
                blk.unpack_face(face.geom, gb, ge, in);
            });
    }
    sw.stop();
    result_.times.comm += sw.elapsed_s();
}

void ForkJoinDriver::stencil_stage(int group) {
    Stopwatch sw;
    sw.start();
    const int gb = group_begin(group), ge = group_end(group);
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    std::atomic<std::int64_t> flops{0};
    pfor(static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
        const std::int64_t t0 = now_ns();
        Block& blk = mesh_.block(keys[static_cast<std::size_t>(i)]);
        DFAMR_CHECK_READ(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
        DFAMR_CHECK_WRITE(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
        flops += update_block(blk, gb, ge);
        trace(worker_index(), t0, now_ns(), PhaseKind::Stencil);
    });
    result_.stencil_flops += flops.load();
    sw.stop();
    result_.times.stencil += sw.elapsed_s();
}

void ForkJoinDriver::reflux_stage(int group) {
    // The ghost-fill exchange over the flux plan: workers restrict and apply
    // register corrections (faces touch disjoint cells, so static
    // worksharing is race-free), the master does every MPI call and the
    // deterministic boundary tally.
    Stopwatch sw;
    sw.start();
    const int gb = group_begin(group), ge = group_end(group);
    for (int dir = 0; dir < 3; ++dir) {
        const amr::FluxPlan::Direction& fd = flux_plan_.direction(dir);
        auto& send_bufs = flux_send_[static_cast<std::size_t>(dir)];
        auto& recv_bufs = flux_recv_[static_cast<std::size_t>(dir)];
        exchange(
            dir, gb, ge, fd.neighbors, fd.copies, {},
            [&](int ni) { return std::span<double>(send_bufs[static_cast<std::size_t>(ni)]); },
            [&](int ni) { return std::span<double>(recv_bufs[static_cast<std::size_t>(ni)]); },
            [&](const amr::FaceTransfer& face, std::span<double> out) {
                flux_register(face.mine).pack_restricted(face.geom.axis, face.geom.sense, gb, ge,
                                                         out);
            },
            [&](const amr::IntraCopy& copy) { apply_intra_flux(copy, gb, ge); },
            [&](const amr::FaceTransfer& face, std::span<const double> in) {
                apply_flux_correction(face, gb, ge, in);
            });
        // Deterministic mass-budget tally on the master.
        accumulate_boundary_outflux(dir, gb, ge);
    }
    sw.stop();
    result_.times.comm += sw.elapsed_s();
}

void ForkJoinDriver::checksum_stage() {
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    std::vector<double> sums(static_cast<std::size_t>(cfg_.num_groups()), 0.0);
    for (int g = 0; g < cfg_.num_groups(); ++g) {
        const int gb = group_begin(g), ge = group_end(g);
        std::vector<double> partials(keys.size(), 0.0);
        pfor(static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
            const std::int64_t t0 = now_ns();
            const BlockKey& key = keys[static_cast<std::size_t>(i)];
            const Block& blk = mesh_.block(key);
            DFAMR_CHECK_READ(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
            // Cell-volume weight for scenario runs (mass conservation gate);
            // 1.0 — a bitwise identity — for the synthetic workload.
            partials[static_cast<std::size_t>(i)] = checksum_weight(key) * blk.checksum(gb, ge);
            trace(worker_index(), t0, now_ns(), PhaseKind::ChecksumLocal);
        });
        double sum = 0;
        for (double p : partials) sum += p;
        sums[static_cast<std::size_t>(g)] = sum;
    }
    reduce_and_validate(sums);
}

SchedulerCounters ForkJoinDriver::scheduler_counters() const {
    return to_scheduler_counters(rt_.stats());
}

int ForkJoinDriver::worker_index() {
    // Lane 0 is the master thread; runtime worker w maps to lane w + 1.
    const int w = rt_.worker_index_of_calling_thread();
    return w >= 0 ? w + 1 : 0;
}

void ForkJoinDriver::do_splits(const std::vector<BlockKey>& parents) {
    // The map surgery stays on the master; the 8 data copies per split are
    // workshared (this is the refinement parallelization the paper added to
    // the fork-join variant for fairness).
    struct Job {
        std::shared_ptr<Block> parent;
        Block* child;
        int octant;
    };
    std::vector<Job> jobs;
    for (const BlockKey& key : parents) {
        std::shared_ptr<Block> parent(mesh_.release(key).release());
        for (int octant = 0; octant < 8; ++octant) {
            auto child = mesh_.make_block(key.child(octant, mesh_.structure().max_level()));
            Block* raw = child.get();
            mesh_.adopt(std::move(child));
            jobs.push_back(Job{parent, raw, octant});
        }
    }
    pfor(static_cast<std::int64_t>(jobs.size()), [&](std::int64_t i) {
        const Job& job = jobs[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        job.child->fill_from_parent(*job.parent, job.octant);
        trace(worker_index(), t0, now_ns(), PhaseKind::RefineSplit);
    });
}

void ForkJoinDriver::do_merges(const std::vector<BlockKey>& parents) {
    struct Job {
        std::array<std::unique_ptr<Block>, 8> children;
        Block* parent;
    };
    std::vector<Job> jobs;
    for (const BlockKey& key : parents) {
        Job job;
        for (int octant = 0; octant < 8; ++octant) {
            job.children[static_cast<std::size_t>(octant)] =
                mesh_.release(key.child(octant, mesh_.structure().max_level()));
        }
        auto parent = mesh_.make_block(key);
        job.parent = parent.get();
        mesh_.adopt(std::move(parent));
        jobs.push_back(std::move(job));
    }
    pfor(static_cast<std::int64_t>(jobs.size()), [&](std::int64_t i) {
        Job& job = jobs[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        for (int octant = 0; octant < 8; ++octant) {
            job.parent->absorb_child(*job.children[static_cast<std::size_t>(octant)], octant);
        }
        trace(worker_index(), t0, now_ns(), PhaseKind::RefineMerge);
    });
}

void ForkJoinDriver::transfer_block_data(const std::vector<BlockMove>& sends,
                                         const std::vector<BlockMove>& recvs) {
    // Master-only MPI, like every other communication in this variant.
    const std::int64_t t0 = now_ns();
    for (const BlockMove& mv : sends) {
        Block& b = mesh_.block(mv.key);
        hcomm_.send(b.data(), b.data_size() * sizeof(double), mv.to, kBlockDataTagBase + mv.id);
        mesh_.release(mv.key);
    }
    for (const BlockMove& mv : recvs) {
        auto b = mesh_.make_block(mv.key);
        hcomm_.recv(b->data(), b->data_size() * sizeof(double), mv.from,
                   kBlockDataTagBase + mv.id);
        mesh_.adopt(std::move(b));
    }
    if (!sends.empty() || !recvs.empty()) {
        trace(0, t0, now_ns(), PhaseKind::RefineExchange);
    }
}

}  // namespace dfamr::core
