#include "coordinator.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "gates/grid/deployer.hpp"
#include "gates/grid/grid_config.hpp"
#include "gates/grid/launcher.hpp"
#include "gates/grid/node_remote.hpp"
#include "gates/grid/partition.hpp"
#include "gates/grid/registry.hpp"
#include "gates/grid/repository.hpp"
#include "gates/net/tcp_link.hpp"
#include "gates/xml/xml.hpp"

namespace gatesbench {

namespace {

using gates::Status;
using gates::StatusOr;

/// The wire-tcp split: grid node 0 runs in one daemon, node 1 in the other.
constexpr std::size_t kDaemons = 2;

struct Daemon {
  pid_t pid = -1;
  std::shared_ptr<gates::net::TcpRemoteLink> control;
  std::uint64_t next_request = 1;
  std::string port_file;
  std::string report_file;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { kill_and_reap(); }

  void kill_and_reap() {
    control.reset();
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }
};

StatusOr<std::string> rpc(Daemon& d, const std::string& method,
                          const std::string& body, double timeout_s) {
  const std::uint64_t id = d.next_request++;
  if (auto s = d.control->send_control(
          gates::net::wire::FrameType::kRpcRequest, id, method, body);
      !s.is_ok()) {
    return s;
  }
  const double deadline = now_s() + timeout_s;
  while (true) {
    const double left = deadline - now_s();
    if (left <= 0) return gates::unavailable("rpc '" + method + "' timed out");
    auto ev = d.control->recv(left > 0.25 ? 0.25 : left);
    if (!ev.ok()) return ev.status();
    if (ev->kind != gates::net::RecvEvent::Kind::kRpcResponse ||
        ev->base_seq != id) {
      continue;
    }
    std::string text(reinterpret_cast<const char*>(ev->body.data()),
                     ev->body.size());
    if (ev->method == "error") {
      return gates::internal_error("daemon: " + text);
    }
    return text;
  }
}

Status spawn(const DistributedRun& run, std::size_t index, Daemon& d) {
  d.port_file = run.work_dir + "/node-" + std::to_string(index) + ".port";
  d.report_file = run.work_dir + "/node-" + std::to_string(index) + ".report";
  ::unlink(d.port_file.c_str());
  ::unlink(d.report_file.c_str());
  const pid_t pid = ::fork();
  if (pid < 0) return gates::internal_error("fork failed");
  if (pid == 0) {
    std::vector<std::string> args = {run.node_bin, "--port-file", d.port_file,
                                     "--report-file", d.report_file};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(run.node_bin.c_str(), argv.data());
    std::fprintf(stderr, "execv %s: %s\n", run.node_bin.c_str(),
                 std::strerror(errno));
    std::_Exit(127);
  }
  d.pid = pid;

  unsigned port = 0;
  const double deadline = now_s() + 15.0;
  while (port == 0 && now_s() < deadline) {
    if (std::FILE* f = std::fopen(d.port_file.c_str(), "r")) {
      if (std::fscanf(f, "%u", &port) != 1 || port >= 65536) port = 0;
      std::fclose(f);
    }
    if (port != 0) break;
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      d.pid = -1;
      return gates::internal_error("daemon exited before publishing a port");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (port == 0) return gates::unavailable("daemon published no port");
  d.control = gates::net::TcpRemoteLink::dial(
      "127.0.0.1", static_cast<std::uint16_t>(port), 0,
      "ctl-" + std::to_string(index), 15.0);
  auto hello = rpc(d, "hello", "", 15.0);
  return hello.ok() ? Status::ok() : hello.status();
}

/// Reads the file a daemon wrote at exit (see write_node_report).
void read_node_report(const std::string& path, std::int64_t& first_generate,
                      std::vector<SinkResult>& sinks) {
  std::ifstream in(path);
  std::string tag;
  while (in >> tag) {
    if (tag == "first_generate_ns") {
      std::int64_t t = 0;
      in >> t;
      if (t != 0 && (first_generate == 0 || t < first_generate)) {
        first_generate = t;
      }
    } else if (tag == "sink") {
      SinkResult s;
      std::size_t n = 0;
      in >> s.stage >> s.packets >> s.digest >> s.bad >> n;
      s.latencies.resize(n);
      for (double& v : s.latencies) in >> v;
      sinks.push_back(std::move(s));
    } else if (tag == "error") {
      std::getline(in, tag);
      if (!sinks.empty()) sinks.back().first_error = tag;
    }
  }
}

}  // namespace

double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::atof(json.c_str() + pos + needle.size());
}

bool write_node_report(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "first_generate_ns %lld\n",
               static_cast<long long>(RunBoard::global().first_generate_ns()));
  for (const SinkResult& s : RunBoard::global().sinks()) {
    std::fprintf(f, "sink %s %llu %llu %llu %zu\n", s.stage.c_str(),
                 static_cast<unsigned long long>(s.packets),
                 static_cast<unsigned long long>(s.digest),
                 static_cast<unsigned long long>(s.bad), s.latencies.size());
    for (double v : s.latencies) std::fprintf(f, "%.9g\n", v);
    if (!s.first_error.empty()) std::fprintf(f, "error %s\n", s.first_error.c_str());
  }
  return std::fclose(f) == 0;
}

StatusOr<DistributedOutcome> run_daemons(const DistributedRun& run) {
  // The coordinator derives the same partition the daemons will, for the
  // channel topology only.
  auto grid = gates::grid::parse_grid_config(run.grid_xml);
  if (!grid.ok()) return grid.status();
  gates::grid::RepositoryRegistry repos;
  gates::grid::Deployer deployer(grid->directory, repos,
                                 gates::grid::ProcessorRegistry::global());
  gates::grid::Launcher launcher(deployer,
                                 gates::grid::GeneratorRegistry::global());
  auto app = launcher.launch_text(run.app_xml);
  if (!app.ok()) return app.status();
  auto plan = gates::grid::partition_pipeline(
      app->pipeline, app->deployment.placement, kDaemons);
  if (!plan.ok()) return plan.status();

  DistributedOutcome out;
  std::vector<std::unique_ptr<Daemon>> daemons;
  const std::int64_t t_start = now_ns();
  for (std::size_t k = 0; k < kDaemons; ++k) {
    daemons.push_back(std::make_unique<Daemon>());
    const std::int64_t t0 = now_ns();
    if (auto s = spawn(run, k, *daemons[k]); !s.is_ok()) return s;
    out.daemon_ready_s =
        std::max(out.daemon_ready_s, static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::map<std::uint32_t, std::uint16_t> ports;
  for (std::size_t k = 0; k < kDaemons; ++k) {
    gates::grid::NodeDeployRequest req;
    req.grid_text = run.grid_xml;
    req.app_text = run.app_xml;
    req.process = k;
    req.processes = kDaemons;
    req.transport = "tcp";
    req.seed = run.seed;
    req.adapt = false;
    req.max_wall = 120;
    auto deployed = rpc(*daemons[k], "deploy", req.to_xml(), 30.0);
    if (!deployed.ok()) return deployed.status();
    auto doc = gates::xml::parse(*deployed);
    if (!doc.ok()) return doc.status();
    for (const gates::xml::Element* ch : doc->root->children_named("channel")) {
      const long id = std::atol(ch->attr_or("id", "-1").c_str());
      const long port = std::atol(ch->attr_or("port", "0").c_str());
      if (id < 0 || port <= 0 || port > 65535) {
        return gates::internal_error("deploy answered a bad channel");
      }
      ports[static_cast<std::uint32_t>(id)] = static_cast<std::uint16_t>(port);
    }
  }
  std::ostringstream connect;
  connect << "<connect>\n";
  for (const auto& ch : plan->channels) {
    const auto it = ports.find(ch.id);
    connect << "  <channel id=\"" << ch.id << "\" host=\"127.0.0.1\" port=\""
            << (it != ports.end() ? it->second : 0) << "\"/>\n";
  }
  connect << "</connect>\n";
  for (auto& d : daemons) {
    if (auto r = rpc(*d, "connect", connect.str(), 60.0); !r.ok()) {
      return r.status();
    }
    if (auto r = rpc(*d, "start", "", 30.0); !r.ok()) return r.status();
  }

  const double deadline = now_s() + 150.0;
  std::vector<bool> done(kDaemons, false);
  bool failed = false;
  while (true) {
    bool all = true;
    for (std::size_t k = 0; k < kDaemons; ++k) {
      if (done[k]) continue;
      auto status = rpc(*daemons[k], "status", "", 5.0);
      if (!status.ok()) return status.status();
      auto doc = gates::xml::parse(*status);
      const std::string state =
          doc.ok() ? doc->root->attr_or("state", "running") : "running";
      if (state == "done" || state == "failed") {
        done[k] = true;
        failed |= state == "failed";
      } else {
        all = false;
      }
    }
    if (all) break;
    if (now_s() > deadline) return gates::unavailable("daemons did not finish");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (failed) return gates::internal_error("a daemon's engine failed");

  for (auto& d : daemons) {
    auto report = rpc(*d, "report", "", 30.0);
    if (!report.ok()) return report.status();
    out.reports.push_back(std::move(*report));
  }
  for (auto& d : daemons) {
    (void)rpc(*d, "shutdown", "", 5.0);
    d->control.reset();
    const double grace = now_s() + 5.0;
    while (d->pid > 0 && now_s() < grace) {
      if (::waitpid(d->pid, nullptr, WNOHANG) == d->pid) d->pid = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    d->kill_and_reap();
  }

  std::int64_t first_generate = 0;
  for (auto& d : daemons) {
    read_node_report(d->report_file, first_generate, out.sinks);
    ::unlink(d->report_file.c_str());
    ::unlink(d->port_file.c_str());
  }
  if (first_generate == 0) {
    return gates::internal_error("no daemon saw a generator call");
  }
  out.setup_s = static_cast<double>(first_generate - t_start) * 1e-9;
  // The sink's engine spans first ingress to EOS drain: the pipeline time
  // including the transport hop.
  out.sink_execution_s = json_number(out.reports.back(), "execution_time");
  return out;
}

}  // namespace gatesbench
