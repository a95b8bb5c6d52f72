#include "scenario/refinement_condition.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace dfamr::scenario {

namespace {

/// The reference miniAMR criterion as a condition instance: score 1 when an
/// object touches the block (or uniform refinement is forced), 0 otherwise.
/// With the default refine_threshold 0.5 and deref_count 1 the driver's
/// mark logic reproduces the legacy plan_refine_round marks exactly.
class ObjectCondition final : public RefinementCondition {
public:
    const char* name() const override { return "objects"; }
    bool needs_field_data() const override { return false; }
    double score(const amr::Block*, const Box& box, const ScoreContext& ctx) const override {
        if (ctx.uniform_refine) return 1.0;
        if (ctx.objects != nullptr) {
            for (const amr::ObjectSpec& obj : *ctx.objects) {
                if (obj.touches(box)) return 1.0;
            }
        }
        return 0.0;
    }
};

/// Maximum undivided first difference of variable 0 over the block interior
/// (all three axes). Undivided — not divided by the cell width — so the
/// score of a smooth feature *shrinks* as the mesh refines around it and
/// refinement converges instead of running away to the level cap.
///
/// The estimators walk raw strided rows with the per-axis range checks
/// hoisted to the row, and keep one running max per axis. A max of absolute
/// values does not depend on the order it is taken in, so the score is
/// bitwise that of a per-cell loop.
class GradientCondition final : public RefinementCondition {
public:
    const char* name() const override { return "gradient"; }
    bool needs_field_data() const override { return true; }
    double score(const amr::Block* blk, const Box&, const ScoreContext&) const override {
        DFAMR_REQUIRE(blk != nullptr, "gradient condition needs block data");
        const amr::BlockShape& s = blk->shape();
        const std::int64_t sx = s.stride_x(), sy = s.stride_y();
        double mx = 0.0, my = 0.0, mz = 0.0;
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                const double* const row = blk->data() + x * sx + y * sy;
                for (int z = 1; z < s.nz; ++z) mz = std::max(mz, std::abs(row[z + 1] - row[z]));
                if (y < s.ny) {
                    for (int z = 1; z <= s.nz; ++z) {
                        my = std::max(my, std::abs(row[z + sy] - row[z]));
                    }
                }
                if (x < s.nx) {
                    for (int z = 1; z <= s.nz; ++z) {
                        mx = std::max(mx, std::abs(row[z + sx] - row[z]));
                    }
                }
            }
        }
        return std::max({mx, my, mz});
    }
};

/// Maximum undivided second difference of variable 0 over the block
/// interior: |u[i-1] - 2 u[i] + u[i+1]| per axis. Flags curvature (fronts,
/// extrema) while staying zero on linear ramps the gradient condition would
/// refine.
class CurvatureCondition final : public RefinementCondition {
public:
    const char* name() const override { return "curvature"; }
    bool needs_field_data() const override { return true; }
    double score(const amr::Block* blk, const Box&, const ScoreContext&) const override {
        DFAMR_REQUIRE(blk != nullptr, "curvature condition needs block data");
        const amr::BlockShape& s = blk->shape();
        const std::int64_t sx = s.stride_x(), sy = s.stride_y();
        double mx = 0.0, my = 0.0, mz = 0.0;
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                const double* const row = blk->data() + x * sx + y * sy;
                for (int z = 2; z < s.nz; ++z) {
                    mz = std::max(mz, std::abs(row[z - 1] - 2.0 * row[z] + row[z + 1]));
                }
                if (y > 1 && y < s.ny) {
                    for (int z = 1; z <= s.nz; ++z) {
                        my = std::max(my, std::abs(row[z - sy] - 2.0 * row[z] + row[z + sy]));
                    }
                }
                if (x > 1 && x < s.nx) {
                    for (int z = 1; z <= s.nz; ++z) {
                        mx = std::max(mx, std::abs(row[z - sx] - 2.0 * row[z] + row[z + sx]));
                    }
                }
            }
        }
        return std::max({mx, my, mz});
    }
};

const ObjectCondition g_objects;
const GradientCondition g_gradient;
const CurvatureCondition g_curvature;
const RefinementCondition* const g_conditions[] = {&g_objects, &g_gradient, &g_curvature};

}  // namespace

const RefinementCondition* find_condition(const std::string& name) {
    for (const RefinementCondition* c : g_conditions) {
        if (name == c->name()) return c;
    }
    return nullptr;
}

std::vector<std::string> condition_names() {
    std::vector<std::string> names;
    for (const RefinementCondition* c : g_conditions) names.emplace_back(c->name());
    return names;
}

}  // namespace dfamr::scenario
