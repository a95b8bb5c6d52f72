// Tests for the ghost-exchange communication plan: symmetry between the two
// endpoints of every exchange, chunking under the paper's options, stream
// layout, tag-space partitioning, and the per-block ghost-fill table.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "amr/comm_plan.hpp"
#include "amr/mesh.hpp"

namespace dfamr::amr {
namespace {

Config plan_config(int npx = 2, int npy = 2, int npz = 1) {
    Config cfg;
    cfg.npx = npx;
    cfg.npy = npy;
    cfg.npz = npz;
    cfg.init_x = cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_refine = 2;
    return cfg;
}

/// Builds plans for every rank of the structure.
std::vector<CommPlan> all_plans(const GlobalStructure& gs, const BlockShape& shape,
                                const CommPlanOptions& opts) {
    std::vector<CommPlan> plans;
    for (int r = 0; r < gs.num_ranks(); ++r) {
        plans.emplace_back(gs, shape, r, opts);
    }
    return plans;
}

void expect_symmetric(const std::vector<CommPlan>& plans) {
    for (const CommPlan& plan : plans) {
        for (int d = 0; d < 3; ++d) {
            for (const NeighborExchange& ex : plan.direction(d).neighbors) {
                // Find the peer's mirror exchange.
                const CommPlan& peer = plans[static_cast<std::size_t>(ex.peer)];
                const NeighborExchange* mirror = nullptr;
                for (const NeighborExchange& pex : peer.direction(d).neighbors) {
                    if (pex.peer == plan.rank()) mirror = &pex;
                }
                ASSERT_NE(mirror, nullptr);
                // My sends match the peer's recvs one-to-one in order, size
                // and chunking.
                ASSERT_EQ(ex.sends.size(), mirror->recvs.size());
                for (std::size_t i = 0; i < ex.sends.size(); ++i) {
                    EXPECT_EQ(ex.sends[i].mine, mirror->recvs[i].theirs);
                    EXPECT_EQ(ex.sends[i].theirs, mirror->recvs[i].mine);
                    EXPECT_EQ(ex.sends[i].value_count, mirror->recvs[i].value_count);
                    EXPECT_EQ(ex.sends[i].value_offset, mirror->recvs[i].value_offset);
                }
                ASSERT_EQ(ex.send_chunks.size(), mirror->recv_chunks.size());
                for (std::size_t i = 0; i < ex.send_chunks.size(); ++i) {
                    EXPECT_EQ(ex.send_chunks[i].tag, mirror->recv_chunks[i].tag);
                    EXPECT_EQ(ex.send_chunks[i].value_count, mirror->recv_chunks[i].value_count);
                    EXPECT_EQ(ex.send_chunks[i].face_count, mirror->recv_chunks[i].face_count);
                }
                EXPECT_EQ(ex.send_values, mirror->recv_values);
            }
        }
    }
}

TEST(CommPlan, SymmetricOnUniformMesh) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    expect_symmetric(all_plans(gs, BlockShape{4, 4, 4, 4}, CommPlanOptions{}));
}

/// Refines a corner region of `gs` so Coarser/Finer transfers appear.
void refine_corner(GlobalStructure& gs) {
    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {0, 0, 0};
    sphere.size = {0.4, 0.4, 0.4};
    for (int i = 0; i < 2; ++i) {
        const RefineRound round = gs.plan_refine_round({sphere}, false);
        if (round.empty()) break;
        gs.apply_refine_round(round);
    }
}

TEST(CommPlan, SymmetricWithRefinementAndAllOptions) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    refine_corner(gs);
    ASSERT_GT(gs.num_blocks(), 32u);

    for (bool send_faces : {false, true}) {
        for (int max_tasks : {0, 2, 8}) {
            CommPlanOptions opts;
            opts.send_faces = send_faces;
            opts.max_comm_tasks = max_tasks;
            expect_symmetric(all_plans(gs, BlockShape{4, 4, 4, 4}, opts));
        }
    }
}

TEST(CommPlan, DefaultAggregatesIntoOneChunk) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            EXPECT_EQ(ex.send_chunks.size(), 1u) << "one aggregated message per neighbor";
            EXPECT_EQ(ex.send_chunks[0].face_count, static_cast<int>(ex.sends.size()));
        }
    }
}

TEST(CommPlan, SendFacesMakesOneChunkPerFace) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlanOptions opts;
    opts.send_faces = true;
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, opts);
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            EXPECT_EQ(ex.send_chunks.size(), ex.sends.size());
            for (const MessageChunk& chunk : ex.send_chunks) EXPECT_EQ(chunk.face_count, 1);
        }
    }
}

TEST(CommPlan, MaxCommTasksBoundsChunks) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlanOptions opts;
    opts.send_faces = true;
    opts.max_comm_tasks = 2;
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, opts);
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            EXPECT_LE(ex.send_chunks.size(), 2u);
            int covered = 0;
            for (const MessageChunk& chunk : ex.send_chunks) covered += chunk.face_count;
            EXPECT_EQ(covered, static_cast<int>(ex.sends.size())) << "chunks cover all faces";
        }
    }
}

TEST(CommPlan, StreamOffsetsAreContiguous) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            std::int64_t expect_offset = 0;
            for (const FaceTransfer& f : ex.sends) {
                EXPECT_EQ(f.value_offset, expect_offset);
                expect_offset += f.value_count;
            }
            EXPECT_EQ(expect_offset, ex.send_values);
        }
    }
}

TEST(CommPlan, TagSpacesAreDisjointPerDirection) {
    EXPECT_LT(direction_tag(0, kTagSpacePerDirection - 1), direction_tag(1, 0));
    EXPECT_LT(direction_tag(2, kTagSpacePerDirection - 1), kExchangeTagBase);
}

TEST(CommPlan, IntraCopiesStayLocal) {
    const Config cfg = plan_config(1, 1, 1);  // one rank: everything intra
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        EXPECT_TRUE(plan.direction(d).neighbors.empty());
        EXPECT_FALSE(plan.direction(d).copies.empty());
        EXPECT_FALSE(plan.direction(d).boundary.empty());
    }
    EXPECT_EQ(plan.total_send_messages(), 0);
}

TEST(CommPlan, BoundaryFacesAreDomainBoundaries) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        for (const auto& [key, sense] : plan.direction(d).boundary) {
            EXPECT_TRUE(gs.at_domain_boundary(key, d, sense));
        }
    }
}

/// The ghost-fill table regroups the direction plans' rank-local writes by
/// destination: every copy and boundary face lands in exactly one entry,
/// the one of its destination, and entries exist only where there is work.
void expect_ghost_fills_partition(const GlobalStructure& gs, const CommPlan& plan) {
    using Copy = std::tuple<BlockKey, BlockKey, int, int, FaceRel, int>;
    using Face = std::tuple<BlockKey, int, int>;
    std::multiset<Copy> planned_copies, filled_copies;
    std::multiset<Face> planned_faces, filled_faces;
    for (int d = 0; d < 3; ++d) {
        for (const IntraCopy& c : plan.direction(d).copies) {
            planned_copies.emplace(c.dst, c.src, c.geom.axis, c.geom.sense, c.geom.rel,
                                   c.geom.quad);
        }
        for (const auto& [key, sense] : plan.direction(d).boundary) {
            planned_faces.emplace(key, d, sense);
        }
    }
    std::set<BlockKey> with_entry;
    for (const GhostFill& fill : plan.ghost_fills()) {
        EXPECT_TRUE(with_entry.insert(fill.dst).second) << "one entry per destination";
        EXPECT_EQ(gs.owner(fill.dst), plan.rank());
        EXPECT_FALSE(fill.copies.empty() && fill.boundary.empty()) << "entry without work";
        const std::set<BlockKey> distinct(fill.sources.begin(), fill.sources.end());
        EXPECT_EQ(distinct.size(), fill.sources.size()) << "sources are deduplicated";
        EXPECT_EQ(distinct.count(fill.dst), 0u) << "a block is not its own source";
        std::set<int> used;
        for (const GhostFill::Copy& c : fill.copies) {
            ASSERT_GE(c.source, 0);
            ASSERT_LT(static_cast<std::size_t>(c.source), fill.sources.size());
            used.insert(c.source);
            filled_copies.emplace(fill.dst, fill.sources[static_cast<std::size_t>(c.source)],
                                  c.geom.axis, c.geom.sense, c.geom.rel, c.geom.quad);
        }
        EXPECT_EQ(used.size(), fill.sources.size()) << "every source feeds a copy";
        for (const auto& [axis, sense] : fill.boundary) filled_faces.emplace(fill.dst, axis, sense);
    }
    EXPECT_EQ(filled_copies, planned_copies);
    EXPECT_EQ(filled_faces, planned_faces);
    // Exactly the blocks with a copy or a boundary face have an entry.
    std::set<BlockKey> with_work;
    for (const Copy& c : planned_copies) with_work.insert(std::get<0>(c));
    for (const Face& f : planned_faces) with_work.insert(std::get<0>(f));
    EXPECT_EQ(with_entry, with_work);
}

TEST(CommPlan, GhostFillsPartitionRankLocalWrites) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    refine_corner(gs);
    ASSERT_GT(gs.num_blocks(), 32u);
    bool saw_multi_source_entry = false;
    for (const CommPlan& plan : all_plans(gs, BlockShape{4, 4, 4, 4}, CommPlanOptions{})) {
        expect_ghost_fills_partition(gs, plan);
        for (const GhostFill& fill : plan.ghost_fills()) {
            saw_multi_source_entry |= fill.sources.size() > 1;
        }
    }
    EXPECT_TRUE(saw_multi_source_entry);
}

TEST(CommPlan, GhostFillsOnSingleRankCoverEveryBlock) {
    const Config cfg = plan_config(1, 1, 1);
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    expect_ghost_fills_partition(gs, plan);
    // One rank: every face is a copy or a reflection, so every block fills.
    EXPECT_EQ(plan.ghost_fills().size(), gs.blocks_of(0).size());
    for (const GhostFill& fill : plan.ghost_fills()) {
        EXPECT_EQ(fill.copies.size() + fill.boundary.size(), 6u);
    }
}

TEST(CommPlan, MessageCountsScaleWithSendFaces) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan aggregated(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    CommPlanOptions opts;
    opts.send_faces = true;
    CommPlan per_face(gs, BlockShape{4, 4, 4, 4}, 0, opts);
    EXPECT_GT(per_face.total_send_messages(), aggregated.total_send_messages());
    EXPECT_EQ(per_face.total_send_values(), aggregated.total_send_values());
}

}  // namespace
}  // namespace dfamr::amr
