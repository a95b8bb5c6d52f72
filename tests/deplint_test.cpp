// Tests for the verification layer (src/verify/): DepLint's happens-before
// prover fed with scripted dependency histories — including seeded races
// and mis-declared dependencies no functional test could catch — the
// access-level checker, and end-to-end runs of the three variants with a
// Verifier attached.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/variants.hpp"
#include "tasking/runtime.hpp"
#include "verify/access_check.hpp"
#include "verify/deplint.hpp"
#include "verify/verifier.hpp"

namespace dfamr::verify {
namespace {

using tasking::Dep;
using tasking::in;
using tasking::inout;
using tasking::out;

// ---------------------------------------------------------------------------
// Graph-level checks: feed DepLint a scripted history, exactly as a (possibly
// buggy) runtime would through the VerifyHook interface.
// ---------------------------------------------------------------------------

class Script {
public:
    explicit Script(DepLint& lint) : lint_(lint) {}

    /// Registers a task with the given declared accesses.
    void reg(std::uint64_t id, const char* label, std::vector<Dep> deps) {
        auto& node = node_for(id);
        lint_.on_node_registered(node, label, deps);
    }
    /// Records an explicit registry edge pred -> succ.
    void edge(std::uint64_t pred, std::uint64_t succ) {
        lint_.on_edge_added(node_for(pred), node_for(succ));
    }
    /// Marks a task's dependencies released.
    void rel(std::uint64_t id) { lint_.on_node_released(node_for(id)); }

private:
    tasking::DepNode& node_for(std::uint64_t id) {
        auto& slot = nodes_[id];
        if (!slot) {
            slot = std::make_unique<tasking::DepNode>();
            slot->node_id = id;
        }
        return *slot;
    }

    DepLint& lint_;
    std::unordered_map<std::uint64_t, std::unique_ptr<tasking::DepNode>> nodes_;
};

TEST(DepLint, SeededRaceIsDetectedWithLabelsAndRegion) {
    // Two writers on the same region, no edge, neither completed before the
    // other was submitted: the classic lost-dependency bug.
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "stencil_a", {out(&x, sizeof x)});
    s.reg(2, "stencil_b", {out(&x, sizeof x)});
    s.rel(1);
    s.rel(2);

    const Report r = lint.check();
    ASSERT_EQ(r.violations.size(), 1u);
    const Violation& v = r.violations.front();
    EXPECT_EQ(v.kind, Violation::Kind::UnorderedConflict);
    EXPECT_EQ(v.task_a, 1u);
    EXPECT_EQ(v.task_b, 2u);
    // The diagnostic must name both task labels and the region.
    EXPECT_NE(v.message.find("stencil_a"), std::string::npos) << v.message;
    EXPECT_NE(v.message.find("stencil_b"), std::string::npos) << v.message;
    EXPECT_NE(v.message.find("0x"), std::string::npos) << v.message;
    EXPECT_NE(r.to_string().find("race"), std::string::npos);
}

TEST(DepLint, ExplicitEdgeOrdersConflict) {
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "writer", {out(&x, sizeof x)});
    s.reg(2, "reader", {in(&x, sizeof x)});
    s.edge(1, 2);
    s.rel(1);
    s.rel(2);
    const Report r = lint.check();
    EXPECT_TRUE(r.clean()) << r.to_string();
    EXPECT_EQ(r.conflicts_checked, 1u);
}

TEST(DepLint, CompletionOrderCoversElidedEdge) {
    // The registry elides the edge when the predecessor already released its
    // deps; DepLint must accept the completion order as happens-before.
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "writer", {out(&x, sizeof x)});
    s.rel(1);  // released before the reader was submitted
    s.reg(2, "reader", {in(&x, sizeof x)});
    s.rel(2);
    const Report r = lint.check();
    EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(DepLint, ConcurrentUnorderedConflictIsNotExcusedByLaterRelease) {
    // Release order alone is not happens-before: task 1 released only AFTER
    // task 2 was already submitted, so they overlapped in flight.
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "a", {inout(&x, sizeof x)});
    s.reg(2, "b", {inout(&x, sizeof x)});
    s.rel(1);  // too late — 2 was submitted first
    s.rel(2);
    EXPECT_FALSE(lint.check().clean());
}

TEST(DepLint, TransitiveEdgePathOrdersConflict) {
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0, y = 0;
    s.reg(1, "produce", {out(&x, sizeof x)});
    s.reg(2, "transform", {in(&x, sizeof x), out(&y, sizeof y)});
    s.reg(3, "consume", {in(&y, sizeof y), out(&x, sizeof x)});  // conflicts with 1 via x
    s.edge(1, 2);
    s.edge(2, 3);
    s.rel(1);
    s.rel(2);
    s.rel(3);
    const Report r = lint.check();
    EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(DepLint, MixedEdgeThenCompletionPathOrdersConflict) {
    // a -E-> b, b released, then c submitted: a happens-before c through the
    // collapsed E*·T form even though no edge touches c.
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0, y = 0;
    s.reg(1, "a", {out(&x, sizeof x), out(&y, sizeof y)});
    s.reg(2, "b", {in(&y, sizeof y)});
    s.edge(1, 2);
    s.rel(1);
    s.rel(2);
    s.reg(3, "c", {out(&x, sizeof x)});  // conflicts with a; ordered by b's completion
    s.rel(3);
    const Report r = lint.check();
    EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(DepLint, CycleIsDetected) {
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "ouroboros_head", {inout(&x, sizeof x)});
    s.reg(2, "ouroboros_tail", {inout(&x, sizeof x)});
    s.edge(1, 2);
    s.edge(2, 1);
    const Report r = lint.check();
    ASSERT_FALSE(r.clean());
    bool found_cycle = false;
    for (const Violation& v : r.violations) {
        if (v.kind == Violation::Kind::Cycle) {
            found_cycle = true;
            EXPECT_NE(v.message.find("cycle"), std::string::npos) << v.message;
        }
    }
    EXPECT_TRUE(found_cycle);
}

TEST(DepLint, ReadersNeverConflict) {
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "r1", {in(&x, sizeof x)});
    s.reg(2, "r2", {in(&x, sizeof x)});
    s.rel(1);
    s.rel(2);
    const Report r = lint.check();
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.conflicts_checked, 0u);
}

TEST(DepLint, EmptyRegionsAreInert) {
    // Zero-size regions at the same base overlap nothing (see
    // tasking::Region): two "writers" of an empty region are not a conflict.
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "w1", {out(&x, 0)});
    s.reg(2, "w2", {out(&x, 0)});
    const Report r = lint.check();
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.conflicts_checked, 0u);
}

TEST(DepLint, PartialOverlapStillConflicts) {
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double buf[4] = {};
    s.reg(1, "left", {out(&buf[0], 3 * sizeof(double))});
    s.reg(2, "right", {out(&buf[2], 2 * sizeof(double))});  // overlaps buf[2]
    EXPECT_FALSE(lint.check().clean());
}

TEST(DepLint, ResetDropsHistory) {
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "a", {out(&x, sizeof x)});
    s.reg(2, "b", {out(&x, sizeof x)});
    EXPECT_EQ(lint.recorded_tasks(), 2u);
    EXPECT_FALSE(lint.check().clean());
    lint.reset();
    EXPECT_EQ(lint.recorded_tasks(), 0u);
    EXPECT_TRUE(lint.check().clean());
}

TEST(DepLint, ShutdownCheckCanBeDisabled) {
    // With a dirty history and shutdown checking off, on_shutdown must not
    // abort the process.
    DepLint lint;
    lint.set_check_on_shutdown(false);
    Script s(lint);
    double x = 0;
    s.reg(1, "a", {out(&x, sizeof x)});
    s.reg(2, "b", {out(&x, sizeof x)});
    lint.on_shutdown();  // would abort if checking were enabled
    SUCCEED();
}

// ---------------------------------------------------------------------------
// DepLint attached to the real runtime.
// ---------------------------------------------------------------------------

TEST(DepLintRuntime, CleanHistoryFromRealRuntime) {
    DepLint lint;
    double x = 0, y = 0;
    {
        tasking::Runtime rt(2);
        rt.set_verify_hook(&lint);
        for (int i = 0; i < 8; ++i) {
            rt.submit([&] { x += 1; }, {inout(&x, sizeof x)}, "accumulate");
        }
        rt.submit([&] { y = x; }, {in(&x, sizeof x), out(&y, sizeof y)}, "copy");
        rt.taskwait();
        const Report r = lint.check();
        EXPECT_TRUE(r.clean()) << r.to_string();
        EXPECT_EQ(lint.recorded_tasks(), 9u);
        EXPECT_GT(r.conflicts_checked, 0u);
    }  // ~Runtime fires on_shutdown; in debug builds this re-checks and must
       // not abort.
    EXPECT_EQ(x, 8.0);
    EXPECT_EQ(y, 8.0);
}

TEST(DepLintRuntime, ElidedEdgeHistoryStillProvesOrder) {
    // With workers==0 every task runs inline at a taskwait, so a conflicting
    // task submitted after the wait finds its predecessor released: the
    // registry elides the edge and DepLint must prove the order from the
    // release/submit stamps alone.
    DepLint lint;
    double x = 0;
    tasking::Runtime rt(0);
    rt.set_verify_hook(&lint);
    rt.submit([&] { x = 1; }, {out(&x, sizeof x)}, "writer");
    rt.taskwait();
    rt.submit([&] { x += 1; }, {inout(&x, sizeof x)}, "rewriter");
    rt.taskwait();
    EXPECT_EQ(lint.recorded_edges(), 0u);  // both conflicts resolved by time
    const Report r = lint.check();
    EXPECT_TRUE(r.clean()) << r.to_string();
    EXPECT_GT(r.conflicts_checked, 0u);
    EXPECT_EQ(x, 2.0);
}

TEST(DepLintRuntime, TaskwaitOnIsRecordedAndOrdered) {
    DepLint lint;
    double x = 0;
    tasking::Runtime rt(1);
    rt.set_verify_hook(&lint);
    rt.submit([&] { x = 42; }, {out(&x, sizeof x)}, "producer");
    rt.taskwait_on({in(&x, sizeof x)});
    EXPECT_EQ(x, 42.0);
    rt.taskwait();
    // The sentinel is a recorded task and its conflict with the producer
    // must be ordered like any other.
    EXPECT_EQ(lint.recorded_tasks(), 2u);
    const Report r = lint.check();
    EXPECT_TRUE(r.clean()) << r.to_string();
}

// ---------------------------------------------------------------------------
// Access-level checker.
// ---------------------------------------------------------------------------

TEST(AccessCheck, UndeclaredWriteThrowsWithPreciseReport) {
    double declared = 0, undeclared = 0;
    const std::vector<Dep> deps{in(&declared, sizeof declared)};
    ScopedDeclaredRegions scope("bad_writer", 7, deps);
    ASSERT_TRUE(access_checking_active());
    try {
        check_write(&undeclared, sizeof undeclared);
        FAIL() << "undeclared write was not flagged";
    } catch (const AccessViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bad_writer"), std::string::npos) << msg;
        EXPECT_NE(msg.find("write"), std::string::npos) << msg;
        EXPECT_NE(msg.find("0x"), std::string::npos) << msg;
    }
}

TEST(AccessCheck, DeclaredAccessesPass) {
    double a = 0, b = 0, c = 0;
    const std::vector<Dep> deps{in(&a, sizeof a), out(&b, sizeof b), inout(&c, sizeof c)};
    ScopedDeclaredRegions scope("good_task", 1, deps);
    EXPECT_NO_THROW(check_read(&a, sizeof a));
    EXPECT_NO_THROW(check_write(&b, sizeof b));
    EXPECT_NO_THROW(check_read(&c, sizeof c));
    EXPECT_NO_THROW(check_write(&c, sizeof c));
    // in does not grant writes; out does not grant reads.
    EXPECT_THROW(check_write(&a, sizeof a), AccessViolation);
    EXPECT_THROW(check_read(&b, sizeof b), AccessViolation);
}

TEST(AccessCheck, UnconstrainedContextsPass) {
    double x = 0;
    // Outside any task body: anything goes.
    EXPECT_FALSE(access_checking_active());
    EXPECT_NO_THROW(check_write(&x, sizeof x));
    {
        // A task declaring no regions opted out of the region model.
        ScopedDeclaredRegions scope("pure_compute", 2, std::span<const Dep>{});
        EXPECT_FALSE(access_checking_active());
        EXPECT_NO_THROW(check_write(&x, sizeof x));
    }
    {
        // All-empty regions count as no declaration too.
        const std::vector<Dep> deps{in(&x, 0)};
        ScopedDeclaredRegions scope("empty_regions", 3, deps);
        EXPECT_FALSE(access_checking_active());
        EXPECT_NO_THROW(check_write(&x, sizeof x));
    }
}

TEST(AccessCheck, CoverageMergesAdjacentRegions) {
    double buf[4] = {};
    // Two adjacent declared regions must jointly cover a spanning access.
    const std::vector<Dep> deps{in(&buf[0], 2 * sizeof(double)),
                                in(&buf[2], 2 * sizeof(double))};
    ScopedDeclaredRegions scope("spanner", 4, deps);
    EXPECT_NO_THROW(check_read(buf, sizeof buf));
    // One byte past the declared union fails.
    EXPECT_THROW(check_read(buf, sizeof buf + 1), AccessViolation);
}

TEST(AccessCheck, ZeroSizeAccessAlwaysPasses) {
    double a = 0, elsewhere = 0;
    const std::vector<Dep> deps{in(&a, sizeof a)};
    ScopedDeclaredRegions scope("t", 5, deps);
    EXPECT_NO_THROW(check_read(&elsewhere, 0));
    EXPECT_NO_THROW(check_write(&elsewhere, 0));
}

TEST(AccessCheck, CheckedSpanEnforcesElementAccess) {
    std::vector<double> data(8, 1.0);
    // Only the first half is declared.
    const std::vector<Dep> deps{inout(data.data(), 4 * sizeof(double))};
    ScopedDeclaredRegions scope("half", 6, deps);
    auto cs = checked(std::span<double>(data));
    EXPECT_NO_THROW(cs.store(0, 2.0));
    EXPECT_EQ(cs.load(3), 1.0);
    EXPECT_THROW(cs.load(4), AccessViolation);
    EXPECT_THROW(cs.store(7, 0.0), AccessViolation);
    EXPECT_EQ(cs.raw()[7], 1.0);  // raw() is the unchecked escape hatch
}

TEST(AccessCheck, NestedScopesConstrainInnermost) {
    double a = 0, b = 0;
    const std::vector<Dep> outer_deps{inout(&a, sizeof a)};
    ScopedDeclaredRegions outer("outer", 10, outer_deps);
    EXPECT_NO_THROW(check_write(&a, sizeof a));
    {
        const std::vector<Dep> inner_deps{inout(&b, sizeof b)};
        ScopedDeclaredRegions inner("inner", 11, inner_deps);
        EXPECT_NO_THROW(check_write(&b, sizeof b));
        EXPECT_THROW(check_write(&a, sizeof a), AccessViolation);
    }
    EXPECT_NO_THROW(check_write(&a, sizeof a));  // outer applies again
}

TEST(AccessCheck, ViolationInTaskBodySurfacesAtTaskwait) {
    // End-to-end: a Verifier installs the declared-region table around every
    // body; a body touching undeclared bytes throws and the error reaches
    // the next taskwait like any task exception.
    Verifier verifier;
    verifier.deplint().set_check_on_shutdown(false);
    double declared = 0, undeclared = 0;
    tasking::Runtime rt(0);
    verifier.attach(rt);
    rt.submit(
        [&] {
            check_write(&declared, sizeof declared);  // fine
            declared = 1;
            check_write(&undeclared, sizeof undeclared);  // kaboom
            undeclared = 1;
        },
        {out(&declared, sizeof declared)}, "bad_writer");
    EXPECT_THROW(rt.taskwait(), AccessViolation);
    EXPECT_EQ(declared, 1.0);
    EXPECT_EQ(undeclared, 0.0);  // the write never executed
}

// ---------------------------------------------------------------------------
// Wire-region registry: the delivery-path counterpart of the per-thread
// table. These drive the always-compiled functions directly; the mpisim
// integration (register at irecv post, check before the delivery memcpy,
// unregister on match/cancel) is macro-gated and exercised live by the
// DFAMR_VERIFY CI configuration.
// ---------------------------------------------------------------------------

TEST(WireRegions, DeliveryWriteMustHitRegisteredBuffer) {
    ASSERT_EQ(wire_regions_registered(), 0u);
    std::vector<std::byte> ghost(64);
    register_wire_region(ghost.data(), ghost.size(), "ghost.recv");
    EXPECT_EQ(wire_regions_registered(), 1u);

    // In-bounds delivery writes pass: full buffer, prefix, interior slice.
    EXPECT_NO_THROW(check_wire_write(ghost.data(), ghost.size()));
    EXPECT_NO_THROW(check_wire_write(ghost.data(), 16));
    EXPECT_NO_THROW(check_wire_write(ghost.data() + 8, 32));
    // Empty payloads write nothing.
    EXPECT_NO_THROW(check_wire_write(ghost.data(), 0));

    // Overrun past the registered end: flagged with the buffer's tag.
    try {
        check_wire_write(ghost.data() + 32, 64);
        FAIL() << "overrun was not flagged";
    } catch (const AccessViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("overruns"), std::string::npos) << msg;
        EXPECT_NE(msg.find("ghost.recv"), std::string::npos) << msg;
    }

    // A write into memory nobody posted a receive for: the original blind
    // spot — an endpoint thread scribbling outside every landing zone.
    std::vector<std::byte> unrelated(64);
    EXPECT_THROW(check_wire_write(unrelated.data(), unrelated.size()), AccessViolation);

    unregister_wire_region(ghost.data());
    EXPECT_EQ(wire_regions_registered(), 0u);
    // Once the receive matched, its buffer is no longer a legal target.
    EXPECT_THROW(check_wire_write(ghost.data(), 1), AccessViolation);
}

TEST(WireRegions, OverlappingPostsAreRejected) {
    std::vector<std::byte> buf(128);
    register_wire_region(buf.data(), 64, "first");
    // Same base, straddling the start, and nested inside: all overlap.
    EXPECT_THROW(register_wire_region(buf.data(), 32, "dup"), Error);
    EXPECT_THROW(register_wire_region(buf.data() + 32, 64, "straddle"), Error);
    EXPECT_THROW(register_wire_region(buf.data() + 8, 8, "nested"), Error);
    // Adjacent (end == next base) is fine: distinct receives, distinct bytes.
    EXPECT_NO_THROW(register_wire_region(buf.data() + 64, 64, "second"));
    unregister_wire_region(buf.data());
    unregister_wire_region(buf.data() + 64);
    EXPECT_EQ(wire_regions_registered(), 0u);
}

TEST(WireRegions, UnbalancedUnregisterIsAnError) {
    std::vector<std::byte> buf(16);
    // Cancel/match bookkeeping bugs show up as unknown-base unregisters.
    EXPECT_THROW(unregister_wire_region(buf.data()), Error);
    register_wire_region(buf.data(), buf.size(), "once");
    unregister_wire_region(buf.data());
    EXPECT_THROW(unregister_wire_region(buf.data()), Error);
    // Zero-size posts have no landing zone: no registration, no unregister.
    register_wire_region(buf.data(), 0, "empty");
    EXPECT_EQ(wire_regions_registered(), 0u);
}

// ---------------------------------------------------------------------------
// Negative tests: the real variants run clean under verification. In
// DFAMR_VERIFY builds the drivers attach Verifiers and every instrumented
// hot path (pack/unpack/stencil/checksum, TAMPI buffers) is checked; in
// default builds this still pins down the baseline behavior.
// ---------------------------------------------------------------------------

core::RunResult run_tiny(amr::Variant variant,
                         const std::function<void(amr::Config&)>& adjust = {}) {
    amr::Config cfg;
    cfg.npx = 2;
    cfg.npy = cfg.npz = 1;
    cfg.init_x = cfg.init_y = cfg.init_z = 1;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.workers = 2;

    amr::ObjectSpec sphere;
    sphere.type = amr::ObjectType::SpheroidSurface;
    sphere.center = {0.1, 0.1, 0.1};
    sphere.size = {0.25, 0.25, 0.25};
    sphere.move = {0.15, 0.1, 0.05};
    sphere.bounce = true;
    cfg.objects.push_back(sphere);
    if (adjust) adjust(cfg);
    return core::run_variant(cfg, variant);
}

TEST(VerifiedVariants, MpiOnlyRunsClean) {
    EXPECT_TRUE(run_tiny(amr::Variant::MpiOnly).validation_ok);
}

TEST(VerifiedVariants, ForkJoinRunsClean) {
    EXPECT_TRUE(run_tiny(amr::Variant::ForkJoin).validation_ok);
}

TEST(VerifiedVariants, TampiOssRunsClean) {
    EXPECT_TRUE(run_tiny(amr::Variant::TampiOss).validation_ok);
}

TEST(VerifiedVariants, TampiOssGhostFillsPerGroupRunClean) {
    // One message per face and two variable groups, with the mesh changing
    // every timestep: the per-block ghost_fill tasks then share blocks with
    // unpack, pack and stencil tasks of both groups on every rebuilt plan.
    EXPECT_TRUE(run_tiny(amr::Variant::TampiOss, [](amr::Config& cfg) {
                    cfg.send_faces = true;
                    cfg.comm_vars = 2;
                }).validation_ok);
}

}  // namespace
}  // namespace dfamr::verify
