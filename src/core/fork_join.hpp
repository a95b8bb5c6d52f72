// MPI+OpenMP fork-join variant driver (§V "MPI+OMP fork-join"): the official
// hybrid miniAMR approach. Worksharing loops with static scheduling
// parallelize stencil, pack/unpack, intra-process copies and local
// checksums; every MPI call stays on the master thread; each parallel
// region ends with an implicit barrier. As in the paper, we additionally
// parallelize the split/coarsen copies of the refinement phase to make the
// comparison fair.
#pragma once

#include "core/driver_base.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::verify {
class Verifier;
}

namespace dfamr::core {

class ForkJoinDriver final : public DriverBase {
public:
    ForkJoinDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer);
    ~ForkJoinDriver() override;  // out-of-line: verifier_ is incomplete here

protected:
    void communicate_stage(int group) override;
    void stencil_stage(int group) override;
    void reflux_stage(int group) override;
    void checksum_stage() override;
    SchedulerCounters scheduler_counters() const override;
    void do_splits(const std::vector<BlockKey>& parents) override;
    void do_merges(const std::vector<BlockKey>& parents) override;
    void transfer_block_data(const std::vector<BlockMove>& sends,
                             const std::vector<BlockMove>& recvs) override;
    int worker_index() override;

private:
    /// One direction of the ghost fill or the reflux pass: the master posts
    /// every receive, a workshared loop packs all faces, the master sends
    /// every chunk, workshared loops run the intra-rank copies and reflect
    /// `boundary`, the master waits for all receives, a workshared loop
    /// unpacks, and the master waits on the sends. Callers supply the
    /// streams (per neighbour index) and the face operations: pack(face,
    /// out), copy(intra_copy), unpack(face, in).
    template <class SendStream, class RecvStream, class Pack, class Copy, class Unpack>
    void exchange(int dir, int gb, int ge, const std::vector<amr::NeighborExchange>& neighbors,
                  const std::vector<amr::IntraCopy>& copies,
                  std::span<const std::pair<BlockKey, int>> boundary, SendStream send_stream,
                  RecvStream recv_stream, Pack pack, Copy copy, Unpack unpack);
    /// parallel-for with the implicit barrier of an OpenMP region.
    void pfor(std::int64_t n, const std::function<void(std::int64_t)>& fn);

    /// Populated in DFAMR_VERIFY builds or under DFAMR_DEPLINT=1; declared
    /// before rt_ (shutdown hook).
    std::unique_ptr<verify::Verifier> verifier_;
    tasking::Runtime rt_;  // master (this thread) helps at the barrier
};

}  // namespace dfamr::core
