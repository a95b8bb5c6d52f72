// MPI-only reference variant driver (§II-A, §V "MPI-only").
#pragma once

#include "core/driver_base.hpp"

namespace dfamr::core {

class MpiOnlyDriver final : public DriverBase {
public:
    using DriverBase::DriverBase;

protected:
    void communicate_stage(int group) override;
    void stencil_stage(int group) override;
    void reflux_stage(int group) override;
    void checksum_stage() override;
    void do_splits(const std::vector<BlockKey>& parents) override;
    void do_merges(const std::vector<BlockKey>& parents) override;
    void transfer_block_data(const std::vector<BlockMove>& sends,
                             const std::vector<BlockMove>& recvs) override;

private:
    /// One direction of Algorithm 2 over `neighbors`/`copies`: posts every
    /// receive, packs and sends chunk by chunk, runs the intra-rank copies
    /// and reflects `boundary` while messages are in flight, unpacks in
    /// completion order, then waits on the sends. The ghost fill and the
    /// reflux pass differ only in their streams (per neighbour index) and
    /// in the face operations: pack(face, out), copy(intra_copy),
    /// unpack(face, in).
    template <class SendStream, class RecvStream, class Pack, class Copy, class Unpack>
    void exchange(int dir, int gb, int ge, const std::vector<amr::NeighborExchange>& neighbors,
                  const std::vector<amr::IntraCopy>& copies,
                  std::span<const std::pair<BlockKey, int>> boundary, SendStream send_stream,
                  RecvStream recv_stream, Pack pack, Copy copy, Unpack unpack);
};

}  // namespace dfamr::core
