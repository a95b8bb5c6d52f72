// Small helpers shared by the benchmark's translation units.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

/// One reported number: a name from BENCHMARK.json, its value and unit.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
