// Workload definitions of the benchmark: the three variants of one global
// problem at one core count, and the checks every repetition must pass.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "amr/config.hpp"
#include "core/result.hpp"
#include "core/variants.hpp"

namespace perfbench {

using dfamr::amr::Config;
using dfamr::amr::Variant;
using dfamr::core::RunOptions;
using dfamr::core::RunResult;

inline constexpr std::array<Variant, 3> kVariants = {Variant::MpiOnly, Variant::ForkJoin,
                                                     Variant::TampiOss};

/// Metric-name suffix of a variant: "mpi", "forkjoin" or "tampi".
const char* variant_key(Variant v);

struct Workload {
    std::string name;
    Config mpi;     // MPI-only layout: one core per rank
    Config hybrid;  // hybrid layout: ranks x workers, same global problem
    RunOptions opts;
    /// Scenario workloads check the conservation ledger on every repetition.
    bool ledger_checks = false;

    const Config& config_for(Variant v) const { return v == Variant::MpiOnly ? mpi : hybrid; }
    /// Cores the run occupies (equal for every variant).
    int cores() const { return mpi.num_ranks(); }
};

/// Builds a named workload; `seed` becomes Config::seed of every variant.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// What every repetition must reproduce exactly: an in-process MPI-only run
/// on the same rank grid. The checksums are global sums whose rounding
/// depends on the number of ranks, so the hybrids (fewer ranks, more cores
/// each) are held bit for bit to a reference on their own grid, and the two
/// grids' references are held to each other to reduction-order rounding.
struct Reference {
    std::vector<double> checksums;
    double error_norm = 0;
    std::int64_t reflux_corrections = 0;
};

struct References {
    Reference mpi;     // on the MPI-only grid
    Reference hybrid;  // on the hybrids' grid
    const Reference& for_variant(Variant v) const { return v == Variant::MpiOnly ? mpi : hybrid; }
};

/// Runs the references and checks them against the workload's invariants
/// and each other. Throws std::runtime_error when they are invalid.
References make_references(const Workload& w);

/// Empty when `r` is a valid repetition of variant `v`, else the reason.
std::string check_result(const Workload& w, Variant v, const RunResult& r,
                         const References& refs);

}  // namespace perfbench
