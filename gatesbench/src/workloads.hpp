// The benchmark's workloads. Each runs sub-runs of the middleware for the
// requested time, checks every output against its oracle and fills in a
// Result: the end-to-end metrics when untraced, the per-layer ledger when
// traced. NOTES.md says why each workload exists.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace gatesbench {

const std::vector<std::string>& workload_names();

/// Runs `opt.workload`; false when the name is unknown.
bool run_workload(const Options& opt, Result& result);

}  // namespace gatesbench
