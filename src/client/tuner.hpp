#pragma once

/// \file tuner.hpp
/// Parameter tuning sweeps: the paper tunes (a) upload batch size, (b) upload
/// concurrency, (c) query batch size, (d) query concurrency on a 1 GB subset
/// before running at scale (sections 3.2, 3.4). This module runs those sweeps
/// against the real engine and reports the optimum.

#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace vdb {

/// One sweep observation.
struct TunePoint {
  std::uint64_t parameter = 0;
  double seconds = 0.0;
};

struct TuneResult {
  std::string parameter_name;
  std::vector<TunePoint> curve;
  std::uint64_t best_parameter = 0;
  double best_seconds = 0.0;
};

/// Runs `trial` for each candidate value and keeps the fastest. Trials run
/// sequentially (tuning is measurement; parallel trials would interfere).
Result<TuneResult> SweepParameter(
    const std::string& parameter_name, const std::vector<std::uint64_t>& candidates,
    const std::function<Result<double>(std::uint64_t)>& trial);

/// True when the curve is roughly U-shaped around its minimum: every value
/// left of the argmin is >= its right neighbour and every value right of the
/// argmin is >= its left neighbour, within `slack` relative tolerance. The
/// paper's fig. 2 batch-size curve has this shape.
bool IsConvexAroundMin(const std::vector<TunePoint>& curve, double slack = 0.05);

}  // namespace vdb
