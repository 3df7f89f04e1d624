// The benchmark's workloads and the driver that runs one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace pb {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  ///< Directory for journals and the span file.
};

/// Runs one workload: end-to-end metrics untraced, or per-layer metrics
/// from a traced run.
Report RunWorkload(const RunConfig& config);

}  // namespace pb
