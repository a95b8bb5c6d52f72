#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/run_sim.hpp"

namespace perfbench {

const char* variant_key(Variant v) {
    switch (v) {
        case Variant::MpiOnly:
            return "mpi";
        case Variant::ForkJoin:
            return "forkjoin";
        case Variant::TampiOss:
            return "tampi";
    }
    return "?";
}

namespace {

std::string fmt_g(double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g", x);
    return buf;
}

/// Lays the same global level-0 block grid over `ranks` ranks of `workers`
/// cores each.
Config laid_out(Config cfg, dfamr::Vec3i grid, int ranks, int workers) {
    dfamr::sim::arrange(cfg, grid, ranks);
    cfg.workers = workers;
    return cfg;
}

/// The paper's first input (one sphere entering from a lower corner),
/// scaled to 8^3-cell blocks and 8 variables on a 2x2x2 level-0 grid.
Config sphere_base(std::uint64_t seed) {
    Config cfg = dfamr::amr::single_sphere_input();
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.stages_per_ts = 6;
    cfg.num_refine = 2;
    cfg.num_tsteps = 20;
    cfg.objects[0].move = {0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps};
    cfg.seed = seed;
    return cfg;
}

}  // namespace

// Why each workload exists, and its working set against the caches of the
// measuring host (2 MiB L2 per core, 105 MiB L3 shared with other tenants).
// All three run the variants on one global problem at one core count:
// MPI-only as one core per rank, the hybrids as ranks x workers.
//
// sphere: the synthetic stencil7 sweep plus the ghost exchange, few large
//   messages; intra-rank copy, pack and unpack dominate, so the amr
//   data-movement and stencil kernels do most of the work. Working set:
//   up to ~456 blocks x 62.5 KiB (10^3 cells with ghosts x 8 vars x 8 B)
//   ~ 29 MiB, over L2 and inside L3.
// advect: the same amr layer driven by data. A Gaussian pulse advected in
//   flux form with the gradient estimator rewrites the mesh every timestep
//   (split, merge, plan rebuild, estimator gather) and refluxes coarse-fine
//   faces, so it exercises scenario and FluxRegister and bypasses stencil7.
//   Working set: ~120 blocks of the sphere size ~ 7.5 MiB plus their flux
//   registers, over L2 and inside L3.
// faces_shm: 4^3-cell blocks and one message per face over the shared-memory
//   transport: tens of thousands of small eager messages on tiny tasks, so
//   net/shm, mpisim matching, TAMPI polling and per-task tasking overhead
//   dominate and the kernels do almost nothing. Working set: ~2.4k blocks x
//   6.75 KiB (6^3 cells with ghosts x 4 vars x 8 B) ~ 16 MiB plus the shm
//   rings.
Workload make_workload(const std::string& name, std::uint64_t seed) {
    const dfamr::Vec3i grid{2, 2, 2};
    Workload w;
    w.name = name;
    if (name == "sphere") {
        const Config cfg = sphere_base(seed);
        w.mpi = laid_out(cfg, grid, 4, 1);
        w.hybrid = laid_out(cfg, grid, 2, 2);
    } else if (name == "advect") {
        Config cfg = sphere_base(seed);
        cfg.objects.clear();
        cfg.scenario = "gaussian";
        cfg.estimator = "gradient";
        cfg.refine_threshold = 0.1;
        cfg.deref_count = 3;
        cfg.refine_freq = 1;
        cfg.num_tsteps = 10;
        w.mpi = laid_out(cfg, grid, 4, 1);
        w.hybrid = laid_out(cfg, grid, 2, 2);
        w.ledger_checks = true;
    } else if (name == "faces_shm") {
        Config cfg = sphere_base(seed);
        cfg.nx = cfg.ny = cfg.nz = 4;
        cfg.num_vars = 4;
        cfg.num_refine = 3;
        cfg.send_faces = true;
        w.mpi = laid_out(cfg, grid, 2, 1);
        w.hybrid = laid_out(cfg, grid, 2, 1);
        w.opts.transport = dfamr::mpi::TransportKind::Shm;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.opts.ignore_launch_env = true;
    w.mpi.validate();
    w.hybrid.validate();
    return w;
}

namespace {

/// Largest relative difference between two checksum histories (1 when
/// their lengths differ).
double max_relative_difference(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return 1.0;
    double worst = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::abs(a[i] - b[i]) / std::max(std::abs(b[i]), 1e-300));
    }
    return worst;
}

Reference reference_on(const Workload& w, const Config& grid) {
    RunOptions inproc;
    inproc.ignore_launch_env = true;
    Config cfg = grid;
    cfg.workers = 1;
    const RunResult r = dfamr::core::run_variant(cfg, Variant::MpiOnly, nullptr, nullptr, inproc);
    if (!r.validation_ok || r.checksums.empty()) {
        throw std::runtime_error("reference run failed its own validation");
    }
    if (w.ledger_checks && (r.mass_drift != 0.0 || r.counters.reflux_corrections <= 0)) {
        throw std::runtime_error("reference run broke the conservation ledger");
    }
    return {r.checksums, r.error_norm, r.counters.reflux_corrections};
}

}  // namespace

References make_references(const Workload& w) {
    References refs;
    refs.mpi = reference_on(w, w.mpi);
    const bool same_grid = w.mpi.npx == w.hybrid.npx && w.mpi.npy == w.hybrid.npy &&
                           w.mpi.npz == w.hybrid.npz;
    refs.hybrid = same_grid ? refs.mpi : reference_on(w, w.hybrid);
    // Relative rounding a reduction over a different number of ranks may
    // introduce; anything larger is a real divergence.
    constexpr double kReductionOrderTolerance = 1e-12;
    const double d = max_relative_difference(refs.hybrid.checksums, refs.mpi.checksums);
    if (d > kReductionOrderTolerance) {
        throw std::runtime_error("the two rank grids disagree on the checksums (relative " +
                                 fmt_g(d) + ")");
    }
    if (refs.hybrid.reflux_corrections != refs.mpi.reflux_corrections ||
        std::abs(refs.hybrid.error_norm - refs.mpi.error_norm) >
            kReductionOrderTolerance * std::abs(refs.mpi.error_norm)) {
        throw std::runtime_error("the two rank grids disagree on the conservation ledger");
    }
    return refs;
}

std::string check_result(const Workload& w, Variant v, const RunResult& r,
                         const References& refs) {
    const Reference& ref = refs.for_variant(v);
    if (!r.validation_ok) return "validation_ok is false";
    if (!r.completed()) return "run stopped early";
    if (r.checksums != ref.checksums) {
        return "checksum history differs from the reference (max relative difference " +
               fmt_g(max_relative_difference(r.checksums, ref.checksums)) + ")";
    }
    if (w.ledger_checks) {
        if (r.mass_drift != 0.0) return "mass_drift is not 0";
        if (r.error_norm != ref.error_norm) return "error_norm differs from the reference";
        if (r.counters.reflux_corrections != ref.reflux_corrections) {
            return "reflux_corrections differs from the reference";
        }
    }
    return {};
}

}  // namespace perfbench
