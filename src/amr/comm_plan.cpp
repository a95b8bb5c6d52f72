#include "amr/comm_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dfamr::amr {

namespace {

/// Canonical (sender block, receiver block) order shared by both endpoints.
struct TransferOrder {
    bool outgoing;  // true: order by (mine, theirs); false: by (theirs, mine)
    bool operator()(const FaceTransfer& a, const FaceTransfer& b) const {
        const BlockKey& a1 = outgoing ? a.mine : a.theirs;
        const BlockKey& a2 = outgoing ? a.theirs : a.mine;
        const BlockKey& b1 = outgoing ? b.mine : b.theirs;
        const BlockKey& b2 = outgoing ? b.theirs : b.mine;
        if (a1 != b1) return a1 < b1;
        return a2 < b2;
    }
};

/// Assigns stream offsets and builds the message chunks for one list.
void layout_stream(std::vector<FaceTransfer>& faces, std::vector<MessageChunk>& chunks,
                   std::int64_t& total_values, int direction, const CommPlanOptions& options) {
    total_values = 0;
    for (FaceTransfer& f : faces) {
        f.value_offset = total_values;
        total_values += f.value_count;
    }
    chunks.clear();
    if (faces.empty()) return;

    int num_chunks = 1;
    if (options.send_faces) {
        const int n = static_cast<int>(faces.size());
        num_chunks = options.max_comm_tasks > 0 ? std::min(options.max_comm_tasks, n) : n;
    }
    const int n = static_cast<int>(faces.size());
    int face_cursor = 0;
    for (int c = 0; c < num_chunks; ++c) {
        // Balanced contiguous split: chunk c covers [c*n/k, (c+1)*n/k).
        const int first = face_cursor;
        const int last = (c + 1) * n / num_chunks;  // exclusive
        if (last <= first) continue;
        MessageChunk chunk;
        chunk.first_face = first;
        chunk.face_count = last - first;
        chunk.value_offset = faces[static_cast<std::size_t>(first)].value_offset;
        const FaceTransfer& tail = faces[static_cast<std::size_t>(last - 1)];
        chunk.value_count = tail.value_offset + tail.value_count - chunk.value_offset;
        chunk.tag = direction_tag(direction, static_cast<int>(chunks.size()));
        chunks.push_back(chunk);
        face_cursor = last;
    }
    DFAMR_ASSERT(face_cursor == n);
}

}  // namespace

CommPlan::CommPlan(const GlobalStructure& structure, const BlockShape& shape, int rank,
                   const CommPlanOptions& options)
    : CommPlan(structure, shape, rank, options, structure.blocks_of(rank)) {}

CommPlan::CommPlan(const GlobalStructure& structure, const BlockShape& shape, int rank,
                   const CommPlanOptions& options, std::span<const BlockKey> mine)
    : rank_(rank) {
    // Block by block, so each block's ghost-fill writes land contiguously in
    // the flat fill arrays; per direction, blocks are still visited in order.
    std::array<std::map<int, NeighborExchange>, 3> by_peer;
    struct FillEnd {
        BlockKey dst;
        std::size_t sources, copies, boundary;  // ends in the flat arrays
    };
    std::vector<FillEnd> fill_ends;
    // Index of `src` among the current block's sources (from `first` on),
    // appended if new.
    const auto source_index = [this](std::size_t first, const BlockKey& src) {
        const auto begin = fill_sources_.begin() + static_cast<std::ptrdiff_t>(first);
        const auto it = std::find(begin, fill_sources_.end(), src);
        const int index = static_cast<int>(it - begin);
        if (it == fill_sources_.end()) fill_sources_.push_back(src);
        return index;
    };
    for (const BlockKey& key : mine) {
        const std::size_t first_source = fill_sources_.size();
        const std::size_t first_copy = fill_copies_.size();
        const std::size_t first_face = fill_boundary_.size();
        for (int axis = 0; axis < 3; ++axis) {
            DirectionPlan& plan = directions_[static_cast<std::size_t>(axis)];
            for (int sense : {+1, -1}) {
                if (structure.at_domain_boundary(key, axis, sense)) {
                    plan.boundary.emplace_back(key, sense);
                    fill_boundary_.emplace_back(axis, sense);
                    continue;
                }
                for (const FaceNeighbor& nb : structure.face_neighbors(key, axis, sense)) {
                    FaceGeom geom{axis, sense, nb.rel, nb.quad};
                    if (nb.owner == rank) {
                        plan.copies.push_back(IntraCopy{key, nb.key, geom});
                        fill_copies_.push_back(
                            GhostFill::Copy{source_index(first_source, nb.key), geom});
                        continue;
                    }
                    NeighborExchange& ex = by_peer[static_cast<std::size_t>(axis)][nb.owner];
                    ex.peer = nb.owner;
                    const std::int64_t values = nb.rel == FaceRel::Same
                                                    ? shape.face_values_same(axis, 1)
                                                    : shape.face_values_mixed(axis, 1);
                    // I receive the neighbor's boundary into my ghost AND
                    // send my boundary for the neighbor's ghost.
                    FaceTransfer recv{key, nb.key, geom, 0, values};
                    FaceTransfer send{key, nb.key, geom, 0, values};
                    ex.recvs.push_back(recv);
                    ex.sends.push_back(send);
                }
            }
        }
        if (fill_copies_.size() > first_copy || fill_boundary_.size() > first_face) {
            fill_ends.push_back(
                FillEnd{key, fill_sources_.size(), fill_copies_.size(), fill_boundary_.size()});
        }
    }
    // Canonical per-peer streams (copies and boundary faces are already in
    // deterministic block order).
    for (int axis = 0; axis < 3; ++axis) {
        DirectionPlan& plan = directions_[static_cast<std::size_t>(axis)];
        for (auto& [peer, ex] : by_peer[static_cast<std::size_t>(axis)]) {
            std::sort(ex.sends.begin(), ex.sends.end(), TransferOrder{true});
            std::sort(ex.recvs.begin(), ex.recvs.end(), TransferOrder{false});
            layout_stream(ex.sends, ex.send_chunks, ex.send_values, axis, options);
            layout_stream(ex.recvs, ex.recv_chunks, ex.recv_values, axis, options);
            plan.neighbors.push_back(std::move(ex));
        }
    }
    // The flat arrays are complete: cut them into per-block views.
    const std::span<const BlockKey> sources(fill_sources_);
    const std::span<const GhostFill::Copy> copies(fill_copies_);
    const std::span<const std::pair<int, int>> boundary(fill_boundary_);
    ghost_fills_.reserve(fill_ends.size());
    FillEnd begin{};
    for (const FillEnd& end : fill_ends) {
        ghost_fills_.push_back(
            GhostFill{end.dst, sources.subspan(begin.sources, end.sources - begin.sources),
                      copies.subspan(begin.copies, end.copies - begin.copies),
                      boundary.subspan(begin.boundary, end.boundary - begin.boundary)});
        begin = end;
    }
}

FluxPlan build_flux_plan(const CommPlan& plan, const BlockShape& shape) {
    FluxPlan flux;
    for (int axis = 0; axis < 3; ++axis) {
        const DirectionPlan& dp = plan.direction(axis);
        FluxPlan::Direction& fd = flux.directions[static_cast<std::size_t>(axis)];
        for (const IntraCopy& copy : dp.copies) {
            if (copy.geom.rel == FaceRel::Finer) fd.copies.push_back(copy);
        }
        for (const NeighborExchange& ex : dp.neighbors) {
            NeighborExchange fex;
            fex.peer = ex.peer;
            for (const FaceTransfer& f : ex.sends) {
                if (f.geom.rel == FaceRel::Coarser) fex.sends.push_back(f);
            }
            for (const FaceTransfer& f : ex.recvs) {
                if (f.geom.rel == FaceRel::Finer) fex.recvs.push_back(f);
            }
            if (fex.sends.empty() && fex.recvs.empty()) continue;
            const auto relayout = [&](std::vector<FaceTransfer>& faces,
                                      std::vector<MessageChunk>& chunks, std::int64_t& total) {
                total = 0;
                for (FaceTransfer& f : faces) {
                    f.value_count = shape.face_values_mixed(axis, 1);
                    f.value_offset = total;
                    total += f.value_count;
                }
                chunks.clear();
                if (faces.empty()) return;
                MessageChunk chunk;
                chunk.first_face = 0;
                chunk.face_count = static_cast<int>(faces.size());
                chunk.value_offset = 0;
                chunk.value_count = total;
                chunk.tag = flux_tag(axis, 0);
                chunks.push_back(chunk);
            };
            relayout(fex.sends, fex.send_chunks, fex.send_values);
            relayout(fex.recvs, fex.recv_chunks, fex.recv_values);
            fd.neighbors.push_back(std::move(fex));
        }
    }
    return flux;
}

std::int64_t CommPlan::total_send_messages() const {
    std::int64_t n = 0;
    for (const DirectionPlan& plan : directions_) {
        for (const NeighborExchange& ex : plan.neighbors) {
            n += static_cast<std::int64_t>(ex.send_chunks.size());
        }
    }
    return n;
}

std::int64_t CommPlan::total_send_values() const {
    std::int64_t n = 0;
    for (const DirectionPlan& plan : directions_) {
        for (const NeighborExchange& ex : plan.neighbors) n += ex.send_values;
    }
    return n;
}

}  // namespace dfamr::amr
