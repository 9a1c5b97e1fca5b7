// Drives a two-daemon gates_node deployment over localhost TCP for the
// wire-tcp workload.
//
// grid::run_distributed does the same job, but it keeps its port files in a
// fresh directory under /tmp and leaves them there; the benchmark may read
// and write only inside its own checkout. This coordinator therefore speaks
// the daemons' control protocol itself (hello, deploy, connect, start,
// status, report, shutdown over RPC frames), with every file in the
// benchmark's work directory, and times each set-up phase on the way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gates/common/status.hpp"
#include "processors.hpp"

namespace gatesbench {

struct DistributedRun {
  std::string grid_xml;
  std::string app_xml;
  std::string node_bin;
  /// Directory for port and report files.
  std::string work_dir;
  std::uint64_t seed = 1;
};

struct DistributedOutcome {
  /// Spawn to answered hello, slowest daemon (s).
  double daemon_ready_s = 0;
  /// Spawn of the first daemon to the first generator call (s).
  double setup_s = 0;
  /// The sink-side engine's execution time (s).
  double sink_execution_s = 0;
  std::vector<SinkResult> sinks;
  /// Every daemon's RunReport JSON.
  std::vector<std::string> reports;
};

/// Runs the application across two daemon processes to completion. Every
/// daemon is reaped before this returns, on error paths too.
gates::StatusOr<DistributedOutcome> run_daemons(const DistributedRun& run);

/// `"<key>":<number>` out of a RunReport JSON string (0 when absent).
double json_number(const std::string& json, const std::string& key);

/// The daemon side: writes what this process's benchmark callbacks saw
/// (first generator call, sink results) to `path`.
bool write_node_report(const std::string& path);

}  // namespace gatesbench
