// Layer probes: each times one public function of one src/ module in a loop
// on inputs shaped like the workload (its block shape, variable count,
// worker and rank counts), outside the timed end-to-end loop.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "sim/cost_model.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbeReport {
    std::vector<Metric> metrics;
    /// One line per probe with the bytes a call touches, computed from the
    /// input shape (not measured memory or wire traffic).
    std::vector<std::string> notes;
    /// The DES cost model with every constant a probe measures replaced by
    /// the measured value (the rest keep their hand-set defaults).
    dfamr::sim::CostModel model;
};

ProbeReport run_probes(const Workload& w);

}  // namespace perfbench
