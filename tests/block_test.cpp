// Tests for Block: keys, storage, face pack/unpack (incl. restriction and
// prolongation), refinement data operations, stencils, checksums.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "amr/block.hpp"
#include "amr/flux_register.hpp"

namespace dfamr::amr {
namespace {

constexpr int kMaxLevel = 4;

BlockShape small_shape() { return BlockShape{4, 4, 4, 2}; }

Block make_filled(const BlockShape& shape, double base = 0.0) {
    Block b(BlockKey{}, shape);
    for (int v = 0; v < shape.num_vars; ++v) {
        for (int x = 0; x <= shape.nx + 1; ++x) {
            for (int y = 0; y <= shape.ny + 1; ++y) {
                for (int z = 0; z <= shape.nz + 1; ++z) {
                    b.at(v, x, y, z) = base + v * 10000 + x * 100 + y * 10 + z;
                }
            }
        }
    }
    return b;
}

TEST(BlockKey, ChildParentRoundTrip) {
    BlockKey root{1, {8, 16, 24}};
    for (int octant = 0; octant < 8; ++octant) {
        const BlockKey c = root.child(octant, kMaxLevel);
        EXPECT_EQ(c.level, 2);
        EXPECT_EQ(c.parent(kMaxLevel), root) << "octant " << octant;
        EXPECT_EQ(c.octant_in_parent(kMaxLevel), octant);
    }
}

TEST(BlockKey, ChildAnchors) {
    BlockKey root{0, {0, 0, 0}};
    EXPECT_EQ(root.side(kMaxLevel), 16);
    const BlockKey c7 = root.child(7, kMaxLevel);
    EXPECT_EQ(c7.anchor, (Vec3l{8, 8, 8}));
    const BlockKey c1 = root.child(1, kMaxLevel);
    EXPECT_EQ(c1.anchor, (Vec3l{8, 0, 0}));
    const BlockKey c2 = root.child(2, kMaxLevel);
    EXPECT_EQ(c2.anchor, (Vec3l{0, 8, 0}));
    const BlockKey c4 = root.child(4, kMaxLevel);
    EXPECT_EQ(c4.anchor, (Vec3l{0, 0, 8}));
}

TEST(Block, GroupSpanCoversVariables) {
    const BlockShape shape = small_shape();
    Block b(BlockKey{}, shape);
    auto s01 = b.group_span(0, 2);
    EXPECT_EQ(static_cast<std::int64_t>(s01.size()), shape.total_cells());
    auto s1 = b.group_span(1, 2);
    EXPECT_EQ(s1.data(), b.data() + shape.stride_var());
}

TEST(Block, InitCellsDeterministicAndDecompositionInvariant) {
    const BlockShape shape = small_shape();
    const Box box{{0, 0, 0}, {0.5, 0.5, 0.5}};
    Block a(BlockKey{}, shape), b(BlockKey{}, shape);
    a.init_cells(box, 42);
    b.init_cells(box, 42);
    EXPECT_EQ(a.at(0, 1, 1, 1), b.at(0, 1, 1, 1));
    EXPECT_EQ(a.at(1, 4, 4, 4), b.at(1, 4, 4, 4));
    Block c(BlockKey{}, shape);
    c.init_cells(box, 43);
    EXPECT_NE(a.at(0, 1, 1, 1), c.at(0, 1, 1, 1));
    // Values live in [1, 2).
    for (int x = 1; x <= 4; ++x) {
        EXPECT_GE(a.at(0, x, 1, 1), 1.0);
        EXPECT_LT(a.at(0, x, 1, 1), 2.0);
    }
}

TEST(Block, PackUnpackSameLevelRoundTrip) {
    const BlockShape shape = small_shape();
    Block src = make_filled(shape);
    Block dst(BlockKey{}, shape);

    // src's +x boundary becomes dst's -x ghost (dst sits at src's +x side).
    FaceGeom pack_geom{0, +1, FaceRel::Same, 0};
    std::vector<double> buf(static_cast<std::size_t>(shape.face_values_same(0, 2)));
    src.pack_face(pack_geom, 0, 2, buf);

    FaceGeom unpack_geom{0, -1, FaceRel::Same, 0};
    dst.unpack_face(unpack_geom, 0, 2, buf);
    for (int v = 0; v < 2; ++v) {
        for (int y = 1; y <= 4; ++y) {
            for (int z = 1; z <= 4; ++z) {
                EXPECT_EQ(dst.at(v, 0, y, z), src.at(v, 4, y, z));
            }
        }
    }
}

TEST(Block, CopyFaceMatchesPackUnpack) {
    const BlockShape shape = small_shape();
    Block src = make_filled(shape, 5.0);
    Block a(BlockKey{}, shape), b(BlockKey{}, shape);

    FaceGeom geom{1, +1, FaceRel::Same, 0};  // my +y neighbor is src
    a.copy_face_from(src, geom, 0, 2);

    std::vector<double> buf(static_cast<std::size_t>(shape.face_values_same(1, 2)));
    src.pack_face(FaceGeom{1, -1, FaceRel::Same, 0}, 0, 2, buf);
    b.unpack_face(geom, 0, 2, buf);
    for (int v = 0; v < 2; ++v) {
        for (int x = 1; x <= 4; ++x) {
            for (int z = 1; z <= 4; ++z) {
                EXPECT_EQ(a.at(v, x, 5, z), b.at(v, x, 5, z));
                EXPECT_EQ(a.at(v, x, 5, z), src.at(v, x, 1, z));
            }
        }
    }
}

// --- reference face transfers ----------------------------------------------
// Cell-by-cell versions of pack/unpack/reflect written with at(): plane
// coordinate `a` along the face axis, in-plane (u, v) over the remaining
// axes in ascending order, v innermost in the message. The block kernels
// must agree with these bit for bit on every face relation.

/// A non-cubic shape with an odd variable count: an axis, stride or
/// variable mix-up in a kernel changes which cells move.
BlockShape odd_shape() { return BlockShape{4, 6, 8, 3}; }

Vec3i plane_cell(int axis, int a, int u, int v) {
    Vec3i c;
    const auto [ua, va] = odd_shape().plane_axes(axis);
    c[axis] = a;
    c[ua] = u;
    c[va] = v;
    return c;
}

double& cell(Block& b, int var, const Vec3i& c) { return b.at(var, c.x, c.y, c.z); }
double cell(const Block& b, int var, const Vec3i& c) { return b.at(var, c.x, c.y, c.z); }

std::vector<double> ref_pack(const Block& b, const FaceGeom& g, int var_begin, int var_end) {
    const auto [ua, va] = b.shape().plane_axes(g.axis);
    const int U = b.shape().dim(ua), V = b.shape().dim(va);
    const int a = g.sense > 0 ? b.shape().dim(g.axis) : 1;
    const int qu = (g.quad & 1) * (U / 2), qv = ((g.quad >> 1) & 1) * (V / 2);
    std::vector<double> out;
    for (int var = var_begin; var < var_end; ++var) {
        if (g.rel == FaceRel::Same) {
            for (int u = 1; u <= U; ++u) {
                for (int v = 1; v <= V; ++v) out.push_back(cell(b, var, plane_cell(g.axis, a, u, v)));
            }
            continue;
        }
        for (int u = 0; u < U / 2; ++u) {
            for (int v = 0; v < V / 2; ++v) {
                if (g.rel == FaceRel::Finer) {
                    out.push_back(cell(b, var, plane_cell(g.axis, a, qu + u + 1, qv + v + 1)));
                    continue;
                }
                double sum = 0;
                for (int du = 1; du <= 2; ++du) {
                    for (int dv = 1; dv <= 2; ++dv) {
                        sum += cell(b, var, plane_cell(g.axis, a, 2 * u + du, 2 * v + dv));
                    }
                }
                out.push_back(0.25 * sum);
            }
        }
    }
    return out;
}

void ref_unpack(Block& b, const FaceGeom& g, int var_begin, int var_end,
                const std::vector<double>& in) {
    const auto [ua, va] = b.shape().plane_axes(g.axis);
    const int U = b.shape().dim(ua), V = b.shape().dim(va);
    const int a = g.sense > 0 ? b.shape().dim(g.axis) + 1 : 0;
    const int qu = (g.quad & 1) * (U / 2), qv = ((g.quad >> 1) & 1) * (V / 2);
    std::size_t o = 0;
    for (int var = var_begin; var < var_end; ++var) {
        switch (g.rel) {
            case FaceRel::Same:
                for (int u = 1; u <= U; ++u) {
                    for (int v = 1; v <= V; ++v) cell(b, var, plane_cell(g.axis, a, u, v)) = in[o++];
                }
                break;
            case FaceRel::Coarser:
                for (int u = 1; u <= U; ++u) {
                    for (int v = 1; v <= V; ++v) {
                        cell(b, var, plane_cell(g.axis, a, u, v)) =
                            in[o + static_cast<std::size_t>(((u - 1) / 2) * (V / 2) + (v - 1) / 2)];
                    }
                }
                o += static_cast<std::size_t>((U / 2) * (V / 2));
                break;
            case FaceRel::Finer:
                for (int u = 0; u < U / 2; ++u) {
                    for (int v = 0; v < V / 2; ++v) {
                        cell(b, var, plane_cell(g.axis, a, qu + u + 1, qv + v + 1)) = in[o++];
                    }
                }
                break;
        }
    }
}

bool same_bits(const Block& a, const Block& b) {
    return a.data_size() == b.data_size() &&
           std::memcmp(a.data(), b.data(), a.data_size() * sizeof(double)) == 0;
}

/// The sender's view of a transfer whose receiver sees `g`.
FaceGeom sender_view(FaceGeom g) {
    g.sense = -g.sense;
    if (g.rel == FaceRel::Coarser) {
        g.rel = FaceRel::Finer;
    } else if (g.rel == FaceRel::Finer) {
        g.rel = FaceRel::Coarser;
    }
    return g;
}

/// Calls `body(g, var_begin, var_end)` for every axis × sense × relation ×
/// quad and the var ranges [0, 3) and [1, 2).
template <class Body>
void for_every_face_transfer(Body body) {
    const std::array<std::array<int, 2>, 2> var_ranges{{{0, 3}, {1, 2}}};
    for (int axis = 0; axis < 3; ++axis) {
        for (int sense : {-1, +1}) {
            for (FaceRel rel : {FaceRel::Same, FaceRel::Coarser, FaceRel::Finer}) {
                for (int quad = 0; quad < 4; ++quad) {
                    for (const auto& [vb, ve] : var_ranges) {
                        const FaceGeom g{axis, sense, rel, quad};
                        SCOPED_TRACE(::testing::Message()
                                     << "axis " << axis << " sense " << sense << " rel "
                                     << static_cast<int>(rel) << " quad " << quad << " vars ["
                                     << vb << ", " << ve << ")");
                        body(g, vb, ve);
                    }
                }
            }
        }
    }
}

TEST(Block, CopyFaceMatchesPackUnpackOnEveryRelation) {
    const BlockShape shape = odd_shape();
    const Block src = make_filled(shape, 0.5);
    for_every_face_transfer([&](const FaceGeom& g, int vb, int ve) {
        Block copied = make_filled(shape, 7.0);
        Block staged = make_filled(shape, 7.0);
        copied.copy_face_from(src, g, vb, ve);
        std::vector<double> buf(static_cast<std::size_t>(staged.face_value_count(g, ve - vb)));
        src.pack_face(sender_view(g), vb, ve, buf);
        staged.unpack_face(g, vb, ve, buf);
        EXPECT_TRUE(same_bits(copied, staged)) << "copy_face_from differs from pack + unpack";
        EXPECT_FALSE(same_bits(copied, make_filled(shape, 7.0))) << "nothing was copied";
    });
}

TEST(Block, PackAndUnpackMatchCellByCellReference) {
    const BlockShape shape = odd_shape();
    const Block src = make_filled(shape, 0.5);
    for_every_face_transfer([&](const FaceGeom& g, int vb, int ve) {
        const std::vector<double> expect = ref_pack(src, g, vb, ve);
        std::vector<double> buf(static_cast<std::size_t>(src.face_value_count(g, ve - vb)));
        ASSERT_EQ(buf.size(), expect.size());
        src.pack_face(g, vb, ve, buf);
        EXPECT_EQ(0, std::memcmp(buf.data(), expect.data(), buf.size() * sizeof(double)))
            << "pack_face order or values differ";

        Block got = make_filled(shape, 7.0);
        Block want = make_filled(shape, 7.0);
        got.unpack_face(g, vb, ve, expect);
        ref_unpack(want, g, vb, ve, expect);
        EXPECT_TRUE(same_bits(got, want)) << "unpack_face placement differs";
    });
}

TEST(Block, ReflectFaceMatchesReferenceOnAllFaces) {
    const BlockShape shape = odd_shape();
    for (int axis = 0; axis < 3; ++axis) {
        for (int sense : {-1, +1}) {
            SCOPED_TRACE(::testing::Message() << "axis " << axis << " sense " << sense);
            Block got = make_filled(shape, 0.5);
            Block want = make_filled(shape, 0.5);
            got.reflect_face(axis, sense, 1, 3);
            const auto [ua, va] = shape.plane_axes(axis);
            const int a_ghost = sense > 0 ? shape.dim(axis) + 1 : 0;
            const int a_int = sense > 0 ? shape.dim(axis) : 1;
            for (int var = 1; var < 3; ++var) {
                for (int u = 1; u <= shape.dim(ua); ++u) {
                    for (int v = 1; v <= shape.dim(va); ++v) {
                        cell(want, var, plane_cell(axis, a_ghost, u, v)) =
                            cell(want, var, plane_cell(axis, a_int, u, v));
                    }
                }
            }
            EXPECT_TRUE(same_bits(got, want));
        }
    }
}

TEST(Block, GroupTransfersComposeToWholeRangeTransfer) {
    // Variables are outermost in a face message, so packing [0, 1) then
    // [1, 3) gives the pack of [0, 3), and unpacking the group messages one
    // after another places exactly what one whole-range unpack does. The
    // exchange relies on this when --comm_vars splits a face into groups.
    const BlockShape shape = odd_shape();
    const Block src = make_filled(shape, 0.5);
    for_every_face_transfer([&](const FaceGeom& g, int vb, int ve) {
        if (ve - vb < 2) return;  // needs at least two groups
        const int mid = vb + 1;
        std::vector<double> whole(static_cast<std::size_t>(src.face_value_count(g, ve - vb)));
        std::vector<double> lo(static_cast<std::size_t>(src.face_value_count(g, mid - vb)));
        std::vector<double> hi(static_cast<std::size_t>(src.face_value_count(g, ve - mid)));
        src.pack_face(g, vb, ve, whole);
        src.pack_face(g, vb, mid, lo);
        src.pack_face(g, mid, ve, hi);
        ASSERT_EQ(lo.size() + hi.size(), whole.size());
        EXPECT_EQ(0, std::memcmp(whole.data(), lo.data(), lo.size() * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(whole.data() + lo.size(), hi.data(), hi.size() * sizeof(double)));

        Block at_once = make_filled(shape, 7.0);
        Block grouped = make_filled(shape, 7.0);
        at_once.unpack_face(g, vb, ve, whole);
        grouped.unpack_face(g, vb, mid, lo);
        grouped.unpack_face(g, mid, ve, hi);
        EXPECT_TRUE(same_bits(at_once, grouped));
    });
}

TEST(Block, RestrictionAveragesFourCells) {
    const BlockShape shape = small_shape();
    Block fine = make_filled(shape);
    // Fine sends its +x face to a coarser receiver: restricted to 2x2 values.
    FaceGeom geom{0, +1, FaceRel::Coarser, 0};
    std::vector<double> buf(static_cast<std::size_t>(shape.face_values_mixed(0, 1)));
    fine.pack_face(geom, 0, 1, buf);
    ASSERT_EQ(buf.size(), 4u);
    const double expect00 = 0.25 * (fine.at(0, 4, 1, 1) + fine.at(0, 4, 1, 2) +
                                    fine.at(0, 4, 2, 1) + fine.at(0, 4, 2, 2));
    EXPECT_DOUBLE_EQ(buf[0], expect00);
}

TEST(Block, ProlongationReplicatesCoarseCells) {
    const BlockShape shape = small_shape();
    Block fine(BlockKey{}, shape);
    // Fine receives its whole -x ghost plane from a coarser sender: the
    // message holds 2x2 coarse values, each replicated to 2x2 fine ghosts.
    std::vector<double> buf = {10, 20, 30, 40};  // (u,v) = (0,0),(0,1),(1,0),(1,1)
    FaceGeom geom{0, -1, FaceRel::Coarser, 0};
    fine.unpack_face(geom, 0, 1, buf);
    // u indexes y, v indexes z; layout is u-major (v contiguous).
    EXPECT_EQ(fine.at(0, 0, 1, 1), 10);
    EXPECT_EQ(fine.at(0, 0, 1, 2), 10);
    EXPECT_EQ(fine.at(0, 0, 2, 2), 10);
    EXPECT_EQ(fine.at(0, 0, 1, 3), 20);
    EXPECT_EQ(fine.at(0, 0, 3, 1), 30);
    EXPECT_EQ(fine.at(0, 0, 4, 4), 40);
}

TEST(Block, QuarterFacePlacementForFinerNeighbors) {
    const BlockShape shape = small_shape();
    Block coarse(BlockKey{}, shape);
    // A finer neighbor in quad 3 (u-half 1, v-half 1) sends its restricted
    // face; it lands in the (y in 3..4, z in 3..4) quarter of the ghost.
    std::vector<double> buf = {1, 2, 3, 4};
    FaceGeom geom{0, +1, FaceRel::Finer, 3};
    coarse.unpack_face(geom, 0, 1, buf);
    EXPECT_EQ(coarse.at(0, 5, 3, 3), 1);
    EXPECT_EQ(coarse.at(0, 5, 3, 4), 2);
    EXPECT_EQ(coarse.at(0, 5, 4, 3), 3);
    EXPECT_EQ(coarse.at(0, 5, 4, 4), 4);
    EXPECT_EQ(coarse.at(0, 5, 1, 1), 0) << "other quarters untouched";
}

TEST(Block, MixedLevelCopyRoundTripConservesFaceMean) {
    // fine -> coarse restriction followed by coarse -> fine prolongation
    // preserves each 2x2 group's mean.
    const BlockShape shape = small_shape();
    Block fine = make_filled(shape);
    Block coarse(BlockKey{}, shape);
    // Coarse's -x neighbor region quad 0 is the fine block.
    coarse.copy_face_from(fine, FaceGeom{0, -1, FaceRel::Finer, 0}, 0, 1);
    const double mean = 0.25 * (fine.at(0, 4, 1, 1) + fine.at(0, 4, 1, 2) +
                                fine.at(0, 4, 2, 1) + fine.at(0, 4, 2, 2));
    EXPECT_DOUBLE_EQ(coarse.at(0, 0, 1, 1), mean);
}

TEST(Block, ReflectFaceCopiesBoundaryPlane) {
    const BlockShape shape = small_shape();
    Block b = make_filled(shape);
    b.reflect_face(2, -1, 0, 2);
    for (int v = 0; v < 2; ++v) {
        for (int x = 1; x <= 4; ++x) {
            for (int y = 1; y <= 4; ++y) {
                EXPECT_EQ(b.at(v, x, y, 0), b.at(v, x, y, 1));
            }
        }
    }
}

TEST(Block, SplitMergeRoundTripConservesSum) {
    const BlockShape shape = small_shape();
    Block parent = make_filled(shape, 3.0);
    const double before = parent.checksum(0, shape.num_vars);

    std::vector<Block> children;
    for (int octant = 0; octant < 8; ++octant) {
        Block child(BlockKey{}, shape);
        child.fill_from_parent(parent, octant);
        children.push_back(std::move(child));
    }
    // Each child cell equals its covering parent cell.
    EXPECT_EQ(children[0].at(0, 1, 1, 1), parent.at(0, 1, 1, 1));
    EXPECT_EQ(children[0].at(0, 2, 2, 2), parent.at(0, 1, 1, 1));
    EXPECT_EQ(children[7].at(0, 4, 4, 4), parent.at(0, 4, 4, 4));

    Block merged(BlockKey{}, shape);
    for (int octant = 0; octant < 8; ++octant) {
        merged.absorb_child(children[static_cast<std::size_t>(octant)], octant);
    }
    EXPECT_NEAR(merged.checksum(0, shape.num_vars), before, 1e-9);
    EXPECT_DOUBLE_EQ(merged.at(0, 3, 3, 3), parent.at(0, 3, 3, 3));
}

TEST(Block, Stencil7UniformFieldIsFixpoint) {
    const BlockShape shape = small_shape();
    Block b(BlockKey{}, shape);
    for (int v = 0; v < 2; ++v) {
        for (int x = 0; x <= 5; ++x) {
            for (int y = 0; y <= 5; ++y) {
                for (int z = 0; z <= 5; ++z) {
                    b.at(v, x, y, z) = 3.5;
                }
            }
        }
    }
    const std::int64_t flops = b.stencil7(0, 2);
    EXPECT_EQ(flops, 7 * 4 * 4 * 4 * 2);
    EXPECT_DOUBLE_EQ(b.at(0, 2, 2, 2), 3.5);
    EXPECT_DOUBLE_EQ(b.at(1, 4, 4, 4), 3.5);
}

TEST(Block, Stencil7AveragesNeighbors) {
    const BlockShape shape{2, 2, 2, 1};
    Block b(BlockKey{}, shape);
    b.at(0, 1, 1, 1) = 7.0;  // all other cells zero
    b.stencil7(0, 1);
    EXPECT_DOUBLE_EQ(b.at(0, 1, 1, 1), 1.0);   // 7/7
    EXPECT_DOUBLE_EQ(b.at(0, 2, 1, 1), 1.0);   // neighbor sees the 7
    EXPECT_DOUBLE_EQ(b.at(0, 2, 2, 2), 0.0);   // diagonal: untouched by 7-pt
}

TEST(Block, Stencil27IncludesDiagonals) {
    const BlockShape shape{2, 2, 2, 1};
    Block b(BlockKey{}, shape);
    b.at(0, 1, 1, 1) = 27.0;
    const std::int64_t flops = b.stencil27(0, 1);
    EXPECT_EQ(flops, 27 * 8);
    EXPECT_DOUBLE_EQ(b.at(0, 2, 2, 2), 1.0);  // diagonal neighbor included
}

TEST(Block, ChecksumSumsInteriorOnly) {
    const BlockShape shape = small_shape();
    Block b(BlockKey{}, shape);
    for (int x = 0; x <= 5; ++x) {
        for (int y = 0; y <= 5; ++y) {
            for (int z = 0; z <= 5; ++z) {
                b.at(0, x, y, z) = 1.0;  // ghosts too
            }
        }
    }
    EXPECT_DOUBLE_EQ(b.checksum(0, 1), 64.0);  // 4^3 interior cells
    EXPECT_DOUBLE_EQ(b.checksum(1, 2), 0.0);
}

TEST(Block, FaceValueCounts) {
    const BlockShape shape{6, 4, 8, 3};
    Block b(BlockKey{}, shape);
    EXPECT_EQ(b.face_value_count(FaceGeom{0, +1, FaceRel::Same, 0}, 3), 4 * 8 * 3);
    EXPECT_EQ(b.face_value_count(FaceGeom{0, +1, FaceRel::Coarser, 0}, 3), 2 * 4 * 3);
    EXPECT_EQ(b.face_value_count(FaceGeom{1, +1, FaceRel::Finer, 2}, 1), 3 * 4);
    EXPECT_EQ(b.face_value_count(FaceGeom{2, -1, FaceRel::Same, 0}, 2), 6 * 4 * 2);
}

TEST(FluxRegister, SlotsAreDisjointAcrossFacesVariablesAndCells) {
    const BlockShape shape{6, 4, 8, 2};  // anisotropic: catches axis mixups
    FluxRegister reg(shape);
    // Stamp every slot with a unique value through at(); if any two slots
    // aliased, the read-back pass would see a later stamp.
    double stamp = 1.0;
    for (int var = 0; var < shape.num_vars; ++var) {
        for (int axis = 0; axis < 3; ++axis) {
            const auto [ua, va] = shape.plane_axes(axis);
            for (int sense : {-1, +1}) {
                for (int u = 1; u <= shape.dim(ua); ++u) {
                    for (int v = 1; v <= shape.dim(va); ++v) {
                        reg.at(axis, sense, var, u, v) = stamp++;
                    }
                }
            }
        }
    }
    double expect = 1.0;
    for (int var = 0; var < shape.num_vars; ++var) {
        for (int axis = 0; axis < 3; ++axis) {
            const auto [ua, va] = shape.plane_axes(axis);
            for (int sense : {-1, +1}) {
                for (int u = 1; u <= shape.dim(ua); ++u) {
                    for (int v = 1; v <= shape.dim(va); ++v) {
                        EXPECT_EQ(reg.at(axis, sense, var, u, v), expect)
                            << "axis " << axis << " sense " << sense << " var " << var << " ("
                            << u << "," << v << ")";
                        ++expect;
                    }
                }
            }
        }
    }
    // Var-major slices: each variable's registers are one contiguous run of
    // per_var values, so group task dependencies can be declared per slice.
    const std::size_t per_var = reg.slice(0, 1).size();
    EXPECT_EQ(per_var, 2u * (4 * 8 + 6 * 8 + 6 * 4));
    EXPECT_EQ(reg.slice(0, 2).size(), 2 * per_var);
    EXPECT_EQ(reg.slice(1, 2).data(), reg.slice(0, 2).data() + per_var);
}

TEST(FluxRegister, PackRestrictedQuarterAveragesInCoarserPackOrder) {
    const BlockShape shape{4, 4, 4, 2};
    FluxRegister reg(shape);
    const int axis = 0, sense = +1;  // +x face: u indexes y, v indexes z
    for (int var = 0; var < 2; ++var) {
        for (int u = 1; u <= 4; ++u) {
            for (int v = 1; v <= 4; ++v) {
                reg.at(axis, sense, var, u, v) = 1000 * var + 10 * u + v;
            }
        }
    }
    std::vector<double> out(static_cast<std::size_t>(shape.face_values_mixed(axis, 2)));
    reg.pack_restricted(axis, sense, 0, 2, out);
    ASSERT_EQ(out.size(), 8u);
    const auto avg = [&](int var, int u0, int v0) {
        return 0.25 * (reg.at(axis, sense, var, u0, v0) + reg.at(axis, sense, var, u0, v0 + 1) +
                       reg.at(axis, sense, var, u0 + 1, v0) +
                       reg.at(axis, sense, var, u0 + 1, v0 + 1));
    };
    // u-major, v contiguous, variables outermost — exactly the order
    // Block::pack_face uses for FaceRel::Coarser, so the flux stream pairs
    // element-wise with the ghost plan's transfer lists.
    EXPECT_DOUBLE_EQ(out[0], avg(0, 1, 1));
    EXPECT_DOUBLE_EQ(out[1], avg(0, 1, 3));
    EXPECT_DOUBLE_EQ(out[2], avg(0, 3, 1));
    EXPECT_DOUBLE_EQ(out[3], avg(0, 3, 3));
    EXPECT_DOUBLE_EQ(out[4], avg(1, 1, 1));
    EXPECT_DOUBLE_EQ(out[7], avg(1, 3, 3));
}

TEST(FluxRegister, PackRestrictedOfGroupIsSliceOfWholePack) {
    // Reflux sends one message per variable group: the group's stream must
    // be exactly its part of the whole-range stream, at every face.
    const BlockShape shape = odd_shape();
    FluxRegister reg(shape);
    for (int axis = 0; axis < 3; ++axis) {
        const auto [ua, va] = shape.plane_axes(axis);
        for (int sense : {-1, +1}) {
            for (int var = 0; var < 3; ++var) {
                for (int u = 1; u <= shape.dim(ua); ++u) {
                    for (int v = 1; v <= shape.dim(va); ++v) {
                        reg.at(axis, sense, var, u, v) = 0.5 + 1000 * var + 10 * u + v + axis;
                    }
                }
            }
            SCOPED_TRACE(::testing::Message() << "axis " << axis << " sense " << sense);
            const auto per_var = static_cast<std::size_t>(shape.face_values_mixed(axis, 1));
            std::vector<double> whole(3 * per_var), group(2 * per_var);
            reg.pack_restricted(axis, sense, 0, 3, whole);
            reg.pack_restricted(axis, sense, 1, 3, group);
            EXPECT_EQ(0, std::memcmp(whole.data() + per_var, group.data(),
                                     group.size() * sizeof(double)));
        }
    }
}

}  // namespace
}  // namespace dfamr::amr
