// gatesbench — the GATES benchmark program.
//
//   gatesbench --workload chain4 --seed 1 --seconds 10 --trace 0
//
// Runs one workload for about --seconds of measurement, checks its outputs
// and prints labelled rows (configuration, extra figures, metrics) followed
// by one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// records the benchmark's spans and reports the per-layer set instead.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "gates/common/log.hpp"
#include "workloads.hpp"

namespace {

std::string sibling(const std::string& name) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return name;
  buf[n] = '\0';
  std::string path(buf);
  return path.substr(0, path.rfind('/') + 1) + name;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\nworkloads:",
               argv0);
  for (const auto& w : gatesbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  gatesbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && parse_number(value, number) && number >= 0) {
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--seconds" && parse_number(value, number) &&
               number > 0 && number <= 600) {
      opt.seconds = number;
    } else if (arg == "--trace" && (std::string(value) == "0" ||
                                    std::string(value) == "1")) {
      opt.trace = std::string(value) == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);
  opt.node_bin = sibling("gatesbench_node");
  gates::Logger::global().set_level(gates::LogLevel::kWarn);

  gatesbench::Result result;
  const gatesbench::CpuTicks before = gatesbench::host_cpu_ticks();
  if (!gatesbench::run_workload(opt, result)) return usage(argv[0]);
  const gatesbench::CpuTicks after = gatesbench::host_cpu_ticks();
  if (after.total > before.total) {
    result.extra("host.steal_pct",
                 100.0 * (after.steal - before.steal) / (after.total - before.total),
                 "%");
  }
  gatesbench::print_result(result);
  return 0;
}
