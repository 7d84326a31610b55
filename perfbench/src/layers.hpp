// Host-time pass over each layer's public API, replaying a workload's
// recorded mix (request sizes, file count, fragment size, schemes). It runs
// apart from the end-to-end window, so it never inflates host_us_per_op.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "workload.hpp"

namespace perfbench {

/// One pass; every value is host time per operation (ns or µs) or a kernel
/// rate (GB/s). Keys are the per-layer metric names.
std::map<std::string, double> measure_layers(const Spec& spec,
                                             const RunResult& recorded,
                                             std::uint64_t seed);

}  // namespace perfbench
