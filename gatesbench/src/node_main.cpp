// gatesbench_node — the gates_node daemon with the benchmark's generator and
// processors registered, so the wire-tcp workload runs the same benchmark
// callbacks across processes as it does in process. At exit it writes what
// those callbacks saw (first generator call, sink digests and latencies) to
// the --report-file the coordinator named.
//
//   gatesbench_node --port-file FILE --report-file FILE
#include <cstdio>
#include <string>

#include "coordinator.hpp"
#include "gates/apps/registration.hpp"
#include "gates/common/log.hpp"
#include "gates/grid/node_remote.hpp"
#include "processors.hpp"

int main(int argc, char** argv) {
  gates::grid::NodeDaemon::Options options;
  std::string report_file;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--port-file") {
      options.port_file = argv[i + 1];
    } else if (arg == "--report-file") {
      report_file = argv[i + 1];
    } else {
      std::fprintf(stderr, "usage: %s --port-file FILE --report-file FILE\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.port_file.empty() || report_file.empty()) {
    std::fprintf(stderr, "usage: %s --port-file FILE --report-file FILE\n",
                 argv[0]);
    return 2;
  }
  gates::Logger::global().set_level(gates::LogLevel::kWarn);
  gates::apps::register_all();
  gatesbench::register_bench_types();
  const auto status = gates::grid::NodeDaemon::run(options);
  if (!gatesbench::write_node_report(report_file)) {
    std::fprintf(stderr, "gatesbench_node: cannot write %s\n",
                 report_file.c_str());
    return 1;
  }
  if (!status.is_ok()) {
    std::fprintf(stderr, "gatesbench_node: %s\n", status.to_string().c_str());
    return 1;
  }
  return 0;
}
