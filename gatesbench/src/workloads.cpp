#include "workloads.hpp"

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "coordinator.hpp"
#include "gates/apps/accuracy.hpp"
#include "gates/apps/count_samps.hpp"
#include "gates/apps/counting_samples.hpp"
#include "gates/apps/registration.hpp"
#include "gates/common/byte_buffer.hpp"
#include "gates/common/serialize.hpp"
#include "gates/core/rt_engine.hpp"
#include "gates/core/sim_engine.hpp"
#include "gates/grid/deployer.hpp"
#include "gates/grid/grid_config.hpp"
#include "gates/grid/launcher.hpp"
#include "gates/grid/registry.hpp"
#include "gates/grid/repository.hpp"
#include "probes.hpp"
#include "processors.hpp"
#include "stats.hpp"

namespace gatesbench {

namespace {

using gates::core::RtEngine;
using gates::core::RunReport;

constexpr std::size_t kMaxBatch = 32;        // RtEngine default batching
constexpr std::size_t kRetention = 256;      // failover replay depth
constexpr std::size_t kInboxCapacity = 1024;

// -- configuration documents ---------------------------------------------------

std::string grid_xml(std::size_t nodes) {
  std::string x = "<grid name=\"bench\">\n";
  for (std::size_t i = 0; i < nodes; ++i) {
    x += "  <node id=\"" + std::to_string(i) + "\" hostname=\"node" +
         std::to_string(i) + ".local\" cpu=\"1.0\" memory-mb=\"4096\"/>\n";
  }
  // Links far faster than any attainable rate: the data path, not a
  // modelled bandwidth, sets throughput.
  x += "  <default-link bandwidth=\"1e13\" latency=\"0\"/>\n</grid>\n";
  return x;
}

std::string stage_xml(const std::string& name, const std::string& code,
                      std::size_t node, const std::string& params) {
  return "    <stage name=\"" + name + "\" code=\"builtin://" + code +
         "\" capacity=\"" + std::to_string(kInboxCapacity) + "\">" + params +
         "<placement node=\"" + std::to_string(node) + "\"/></stage>\n";
}

std::string param(const std::string& name, const std::string& value) {
  return "<param name=\"" + name + "\" value=\"" + value + "\"/>";
}

/// A source rate far above any attainable throughput: the source runs as
/// fast as the first inbox accepts (a closed loop).
constexpr double kUnpaced = 1e12;

std::string number(double v) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

std::string stamp_source_xml(std::uint64_t packets, std::size_t bytes,
                             std::uint64_t salt, const std::string& target,
                             double rate) {
  return "    <source name=\"src\" stream=\"0\" rate=\"" + number(rate) +
         "\" count=\"" +
         std::to_string(packets) + "\" target=\"" + target +
         "\" node=\"0\" type=\"bench-stamp\">" +
         param("bytes", std::to_string(bytes)) + param("source", "0") +
         param("salt", std::to_string(salt)) + "</source>\n";
}

/// src -> s0 -> s1 -> s2 -> s3 (sink). In process every stage has its own
/// node; split across two daemons, s0 and s1 sit on node 0 and s2 and the
/// sink on node 1, so exactly one edge crosses the wire.
/// The bench-sink's parameters. Latency is sampled only in paced runs:
/// unpaced ones measure throughput, and need no per-packet samples.
std::string sink_params(std::size_t bytes, std::uint64_t salt, double rate) {
  return param("bytes", std::to_string(bytes)) +
         param("salt", std::to_string(salt)) +
         param("latency", rate < kUnpaced ? "1" : "0");
}

std::string chain_xml(std::uint64_t packets, std::size_t bytes,
                      std::uint64_t salt, bool two_nodes, double rate) {
  const std::string sink = sink_params(bytes, salt, rate);
  std::string x = "<application name=\"chain4\">\n  <stages>\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t node = two_nodes ? i / 2 : i;
    x += stage_xml("s" + std::to_string(i), i < 3 ? "bench-forward" : "bench-sink",
                   node, i < 3 ? "" : sink);
  }
  x += "  </stages>\n  <edges>\n";
  for (int i = 0; i < 3; ++i) {
    x += "    <edge from=\"s" + std::to_string(i) + "\" to=\"s" +
         std::to_string(i + 1) + "\"/>\n";
  }
  x += "  </edges>\n  <sources>\n" + stamp_source_xml(packets, bytes, salt, "s0", rate) +
       "  </sources>\n</application>\n";
  return x;
}

/// src -> hub, which fans every packet out to four sinks on port 0: one
/// aliased payload released by four consumers.
std::string fanout_xml(std::uint64_t packets, std::size_t bytes,
                       std::uint64_t salt, double rate) {
  const std::string sink = sink_params(bytes, salt, rate);
  std::string x = "<application name=\"fanout4\">\n  <stages>\n";
  x += stage_xml("hub", "bench-forward", 0, "");
  for (std::size_t i = 0; i < 4; ++i) {
    x += stage_xml("sink" + std::to_string(i), "bench-sink", i + 1, sink);
  }
  x += "  </stages>\n  <edges>\n";
  for (int i = 0; i < 4; ++i) {
    x += "    <edge from=\"hub\" to=\"sink" + std::to_string(i) + "\"/>\n";
  }
  x += "  </edges>\n  <sources>\n" + stamp_source_xml(packets, bytes, salt, "hub", rate) +
       "  </sources>\n</application>\n";
  return x;
}

/// The paper's count-samps: four Zipf sources at a fixed rate into four
/// summary stages and a top-10 merge. The summary size stays at its initial
/// value because adaptation is off, which makes the answer deterministic.
std::string countsamps_xml(std::uint64_t records, double rate,
                           std::uint64_t emit_every) {
  std::string x = "<application name=\"count-samps\">\n  <stages>\n";
  for (std::size_t i = 0; i < 4; ++i) {
    x += stage_xml("summary" + std::to_string(i), "count-samps-summary", i + 1,
                   param("emit-every", std::to_string(emit_every)) +
                       param("summary-initial", "100"));
  }
  x += stage_xml("merge", "count-samps-sink", 0, param("top-k", "10"));
  x += "  </stages>\n  <edges>\n";
  for (int i = 0; i < 4; ++i) {
    x += "    <edge from=\"summary" + std::to_string(i) + "\" to=\"merge\"/>\n";
  }
  x += "  </edges>\n  <sources>\n";
  for (int i = 0; i < 4; ++i) {
    x += "    <source name=\"s" + std::to_string(i) + "\" stream=\"" +
         std::to_string(i) + "\" rate=\"" + number(rate) + "\" count=\"" +
         std::to_string(records) + "\" target=\"summary" + std::to_string(i) +
         "\" node=\"" + std::to_string(i + 1) + "\" type=\"zipf-u64\">" +
         param("universe", "5000") + param("theta", "1.1") + "</source>\n";
  }
  x += "  </sources>\n</application>\n";
  return x;
}

RtEngine::Config engine_config(const Options& opt, bool failover) {
  RtEngine::Config cfg;
  cfg.seed = opt.seed;
  cfg.adaptation_enabled = false;
  cfg.max_wall_time = 120;
  cfg.batching.max_batch = kMaxBatch;
  if (failover) {
    cfg.failover.enabled = true;
    cfg.failover.replay_buffer_packets = kRetention;
  }
  return cfg;
}

// -- pipeline shape, for joining spans ------------------------------------------

struct Topo {
  std::vector<std::string> stages;
  /// (from, to); sources are -1 - index.
  std::vector<std::pair<int, int>> edges;
  /// The stages a packet crosses from the first stage to a sink, following
  /// each stage's first out-edge.
  std::vector<int> path;
};

Topo topo_of(const gates::core::PipelineSpec& spec) {
  Topo t;
  for (const auto& s : spec.stages) t.stages.push_back(s.name);
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    t.edges.push_back({-1 - static_cast<int>(i),
                       static_cast<int>(spec.sources[i].target_stage)});
  }
  for (const auto& e : spec.edges) {
    t.edges.push_back({static_cast<int>(e.from_stage), static_cast<int>(e.to_stage)});
  }
  int at = spec.sources.empty() ? -1 : static_cast<int>(spec.sources[0].target_stage);
  while (at >= 0 && t.path.size() <= spec.stages.size()) {
    t.path.push_back(at);
    int next = -1;
    for (const auto& e : spec.edges) {
      if (static_cast<int>(e.from_stage) == at) {
        next = static_cast<int>(e.to_stage);
        break;
      }
    }
    at = next;
  }
  return t;
}

// -- one in-process sub-run -------------------------------------------------------

struct SubRun {
  bool ok = false;
  bool traced = false;
  /// Ran at a fixed source rate (the latency phase).
  bool paced = false;
  /// Ran with every thread confined to one CPU (chain4's baseline phase).
  bool one_cpu = false;
  std::string error;
  double setup_s = 0;
  double parse_s = 0;
  double deploy_s = 0;
  double exec_s = 0;
  double cpu_s = 0;
  std::uint64_t offered = 0;
  double source_wait_s = 0;
  RunReport report;
  std::vector<SinkResult> sinks;
};

using Instrument = std::function<void(gates::core::PipelineSpec&)>;
using Inspect = std::function<void(RtEngine&, SubRun&)>;

SubRun run_in_process(const std::string& grid_text, const std::string& app_text,
                      const RtEngine::Config& cfg, bool traced,
                      std::uint32_t run_index, Topo* topo,
                      const Instrument& instrument = {},
                      const Inspect& inspect = {}) {
  SubRun r;
  r.traced = traced;
  SpanLog& log = SpanLog::global();
  log.set_run(run_index);
  RunBoard::global().reset();
  const double cpu0 = cpu_seconds(false);
  const std::int64_t t0 = now_ns();
  auto grid = gates::grid::parse_grid_config(grid_text);
  if (!grid.ok()) {
    r.error = grid.status().to_string();
    return r;
  }
  const std::int64_t t_grid = now_ns();
  gates::grid::RepositoryRegistry repos;
  gates::grid::Deployer deployer(grid->directory, repos,
                                 gates::grid::ProcessorRegistry::global());
  gates::grid::Launcher launcher(deployer,
                                 gates::grid::GeneratorRegistry::global());
  std::int64_t t_parsed = 0;
  auto app = launcher.launch_text(app_text, [&](gates::core::PipelineSpec&) {
    t_parsed = now_ns();
    return gates::Status::ok();
  });
  if (!app.ok()) {
    r.error = app.status().to_string();
    return r;
  }
  const std::int64_t t_deployed = now_ns();
  for (const auto& s : app->pipeline.sources) r.offered += s.total_packets;
  if (topo != nullptr) *topo = topo_of(app->pipeline);
  if (instrument) instrument(app->pipeline);
  log.set_enabled(traced);
  {
    RtEngine engine(app->pipeline, app->deployment.placement,
                    app->deployment.hosts, grid->topology, cfg);
    const std::int64_t t_engine = now_ns();
    const gates::Status s = engine.run();
    log.set_enabled(false);
    r.report = engine.report();
    if (!s.is_ok() || !r.report.completed) {
      r.error = s.is_ok() ? "run did not complete" : s.to_string();
      return r;
    }
    const std::int64_t t_first = RunBoard::global().first_generate_ns();
    r.parse_s = static_cast<double>(t_parsed - t0) * 1e-9;
    r.deploy_s = static_cast<double>(t_deployed - t_parsed) * 1e-9;
    r.setup_s = static_cast<double>(t_first - t0) * 1e-9;
    if (traced) {
      const std::uint32_t run = run_index;
      auto setup_span = [&](const char* label, std::int64_t a, std::int64_t b) {
        log.record(Span{SpanKind::kSetup, 0, 0, a, b, 0, run, log.label(label)});
      };
      setup_span("setup.grid_parse", t0, t_grid);
      setup_span("setup.app_parse", t_grid, t_parsed);
      setup_span("setup.deploy", t_parsed, t_deployed);
      setup_span("setup.engine_build", t_deployed, t_engine);
      setup_span("setup.first_generate", t_engine, t_first);
    }
    if (inspect) inspect(engine, r);
  }
  r.exec_s = r.report.execution_time;
  r.cpu_s = cpu_seconds(false) - cpu0;
  r.sinks = RunBoard::global().sinks();
  r.source_wait_s =
      static_cast<double>(RunBoard::global().source_wait_ns()) * 1e-9;
  r.ok = t_parsed != 0 && RunBoard::global().first_generate_ns() != 0;
  if (!r.ok) r.error = "no generator call observed";
  return r;
}

// -- span analysis ---------------------------------------------------------------

struct EmitKey {
  std::uint32_t run;
  std::int32_t stage;
  std::uint64_t key;
  bool operator==(const EmitKey& o) const {
    return run == o.run && stage == o.stage && key == o.key;
  }
};

struct EmitKeyHash {
  std::size_t operator()(const EmitKey& k) const {
    std::uint64_t h = k.key * 0x9E3779B97F4A7C15ull;
    h ^= (static_cast<std::uint64_t>(k.run) << 32) ^
         static_cast<std::uint32_t>(k.stage);
    return static_cast<std::size_t>(h * 0xBF58476D1CE4E5B9ull);
  }
};

struct LayerStats {
  double gen_ns = 0;
  /// Per stage: mean process() time excluding emit() (self), and including.
  std::map<int, double> self_ns;
  std::map<int, double> total_ns;
  std::vector<double> handoff_ns;
};

LayerStats analyse(const std::vector<Span>& spans, const Topo& topo,
                   const std::set<std::uint32_t>& runs) {
  LayerStats out;
  std::unordered_map<EmitKey, std::int64_t, EmitKeyHash> left;
  std::vector<double> gen;
  std::map<int, std::vector<double>> self, total;
  for (const Span& s : spans) {
    if (runs.count(s.run) == 0) continue;
    if (s.kind == SpanKind::kGenerate) {
      gen.push_back(static_cast<double>(s.end_ns - s.start_ns));
      left[{s.run, s.stage, s.key}] = s.end_ns;
    } else if (s.kind == SpanKind::kEmit) {
      left[{s.run, s.stage, s.key}] = s.start_ns;
    } else if (s.kind == SpanKind::kProcess) {
      self[s.stage].push_back(static_cast<double>(s.end_ns - s.start_ns - s.child_ns));
      total[s.stage].push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kProcess || runs.count(s.run) == 0) continue;
    for (const auto& [from, to] : topo.edges) {
      if (to != s.stage) continue;
      const auto it = left.find({s.run, from, s.key});
      if (it != left.end()) {
        out.handoff_ns.push_back(static_cast<double>(s.start_ns - it->second));
      }
    }
  }
  out.gen_ns = mean(gen);
  for (auto& [stage, v] : self) out.self_ns[stage] = mean(v);
  for (auto& [stage, v] : total) out.total_ns[stage] = mean(v);
  return out;
}

// -- shared reporting ------------------------------------------------------------

/// Per-sub-run end-to-end figures. Throughput is reported as the upper
/// quartile over sub-runs: contention from the rest of the host (CPU steal
/// reached 10% here) only ever slows a sub-run, so the upper quartile
/// follows the program where the median follows the host. The other
/// figures are medians.
struct EndToEnd {
  std::vector<double> throughput, cpu_per_mpkt, setup_s;
  std::vector<double> p50_us, p99_us;
  std::size_t latency_samples = 0;
  std::size_t p99_unsupported = 0;

  void add(double tput, double cpu_s, std::uint64_t packets, double setup) {
    throughput.push_back(tput);
    cpu_per_mpkt.push_back(cpu_s / (static_cast<double>(packets) * 1e-6));
    setup_s.push_back(setup);
  }

  /// One paced sub-run's latency samples (seconds).
  void add_latency(const std::vector<double>& latencies_s) {
    const Percentile p50 = percentile(latencies_s, 0.50);
    const Percentile p99 = percentile(latencies_s, 0.99);
    p50_us.push_back(p50.value * 1e6);
    p99_us.push_back(p99.value * 1e6);
    latency_samples += latencies_s.size();
    if (!p99.supported) ++p99_unsupported;
  }

  void report(Result& r, double rss_mb) const {
    const Quartiles q = quartiles(throughput);
    r.set("throughput_pkt_s", q.q3, "pkt/s");
    r.set("cpu_s_per_mpkt", median(cpu_per_mpkt), "s/Mpkt");
    r.set("setup_s", median(setup_s), "s");
    r.set("peak_rss_mb", rss_mb, "MiB");
    r.extra("throughput_pkt_s.q1", q.q1, "pkt/s");
    r.extra("throughput_pkt_s.median", q.q2, "pkt/s");
    r.extra("subruns.measured", static_cast<double>(throughput.size()), "count");
    // Not gated: at a light load on a shared host latency is set by OS
    // wake-ups and preemption, and it spreads from run to run beyond what a
    // bound can hold (NOTES.md).
    r.extra("latency_p50_us", median(p50_us), "us");
    r.extra("latency_p99_us", median(p99_us), "us");
    r.extra("latency.samples", static_cast<double>(latency_samples), "count");
    r.extra("latency.p99_unsupported_subruns",
            static_cast<double>(p99_unsupported), "count");
  }
};

/// Closed-loop workloads saturate every queue, so their delivery latency
/// there is queue depth over throughput. Latency is measured instead in a
/// paced phase at this fixed rate, far below every workload's saturation,
/// split into short sub-runs whose percentiles are reported by median: a
/// scheduling hiccup on a shared host then spoils one sub-run, not the
/// figure.
constexpr double kLatencyRate = 100000;  // pkt/s
constexpr double kLatencySubrunS = 0.3;
/// The latency phase takes a fifth of the measured time.
int latency_subruns(const Options& opt) {
  return std::max(3, static_cast<int>(opt.seconds * 0.2 / kLatencySubrunS + 0.5));
}
double throughput_phase_s(const Options& opt) {
  return std::max(opt.seconds - latency_subruns(opt) * kLatencySubrunS, 0.5);
}

/// Throughput figures of the traced invocation's untraced and traced
/// sub-runs, for the tracing overhead.
struct TraceSplit {
  std::vector<double> plain, traced;
  double overhead_pct() const {
    const double p = median(plain);
    return p > 0 ? 100.0 * (p - median(traced)) / p : 0;
  }
};

/// Fills the per-layer metrics common to every workload from the traced
/// sub-runs (spans), all sub-runs (run reports) and the isolated probes.
/// `period_ns` is 1 / end-to-end throughput, and `period_1cpu_ns` the same
/// for the one-CPU sub-runs (0 when there are none); `extra_threads` are
/// data-path threads only a probe sees (the wire egress and ingress of
/// wire-tcp).
void report_layers(
    Result& r, const std::vector<SubRun>& runs, const Topo& topo,
    const ProbeResults& probes, const TraceSplit& split, double period_ns,
    double period_1cpu_ns,
    const std::vector<std::pair<std::string, double>>& extra_threads) {
  std::set<std::uint32_t> traced, traced_paced, traced_1cpu;
  for (std::uint32_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].traced || !runs[i].ok) continue;
    if (runs[i].one_cpu) {
      traced_1cpu.insert(i);
      continue;
    }
    traced.insert(i);
    if (runs[i].paced) traced_paced.insert(i);
  }
  const std::vector<Span> spans = SpanLog::global().collect();
  const LayerStats ls = analyse(spans, topo, traced);
  // Handoff is a latency: take it where latency is measured, at the paced
  // rate, when the workload has such a phase.
  const std::vector<double> handoff_ns =
      traced_paced.empty() ? ls.handoff_ns
                           : analyse(spans, topo, traced_paced).handoff_ns;
  const int head = topo.path.empty() ? 0 : topo.path.front();
  const int tail = topo.path.empty() ? 0 : topo.path.back();

  double sources = 0;
  for (const auto& e : topo.edges) sources += e.first < 0 ? 1 : 0;
  sources = std::max(sources, 1.0);
  std::vector<double> allocs, hits, copies, exceptions, wait_frac;
  std::map<int, std::vector<double>> queue_mean, busy;
  for (std::uint32_t i = 0; i < runs.size(); ++i) {
    const SubRun& s = runs[i];
    if (!s.ok || s.one_cpu) continue;
    allocs.push_back(s.report.allocation.allocations_per_packet());
    hits.push_back(s.report.allocation.hit_rate());
    copies.push_back(static_cast<double>(s.report.allocation.payload_deep_copies));
    double exc = 0;
    for (const auto& st : s.report.stages) {
      exc += static_cast<double>(st.overload_exceptions_sent +
                                 st.underload_exceptions_sent);
    }
    exceptions.push_back(exc);
    for (std::size_t k = 0; k < s.report.stages.size(); ++k) {
      queue_mean[static_cast<int>(k)].push_back(s.report.stages[k].queue_length.mean());
    }
    if (traced.count(i) != 0 && s.exec_s > 0) {
      wait_frac.push_back(s.source_wait_s / (s.exec_s * sources));
      for (std::size_t k = 0; k < s.report.stages.size(); ++k) {
        const auto it = ls.total_ns.find(static_cast<int>(k));
        if (it == ls.total_ns.end()) continue;
        busy[static_cast<int>(k)].push_back(
            it->second * 1e-9 *
            static_cast<double>(s.report.stages[k].packets_processed) / s.exec_s);
      }
    }
  }
  auto stage_value = [](const std::map<int, double>& m, int k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto stage_median = [](const std::map<int, std::vector<double>>& m, int k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : median(it->second);
  };

  r.set("source.gen_ns_per_pkt", ls.gen_ns, "ns");
  r.set("common.arena.allocs_per_pkt", median(allocs), "count");
  r.set("common.arena.hit_rate", median(hits), "ratio");
  r.set("common.deep_copies", median(copies), "count");
  r.set("common.arena.alloc_release_ns", probes.arena_alloc_release_ns, "ns");
  const Percentile h50 = percentile(handoff_ns, 0.50);
  const Percentile h99 = percentile(handoff_ns, 0.99);
  r.set("core.handoff_p50_ns", h50.value, "ns");
  r.set("core.handoff_p99_ns", h99.value, "ns");
  r.extra("core.handoff.samples", static_cast<double>(h50.samples), "count");
  r.set("core.service_ns.head", stage_value(ls.self_ns, head), "ns");
  r.set("core.service_ns.tail", stage_value(ls.self_ns, tail), "ns");
  r.set("core.busy_frac.head", stage_median(busy, head), "ratio");
  r.set("core.busy_frac.tail", stage_median(busy, tail), "ratio");
  r.set("core.queue_mean.head", stage_median(queue_mean, head), "count");
  r.set("core.queue_mean.tail", stage_median(queue_mean, tail), "count");
  r.set("core.source_blocked_frac", median(wait_frac), "ratio");
  r.set("core.retention.retain_ack_ns_per_pkt", probes.retain_ack_ns_per_pkt, "ns");
  r.set("core.exceptions_sent", median(exceptions), "count");
  r.set("net.encode_ns_per_pkt", probes.encode_ns_per_pkt, "ns");
  r.set("net.decode_ns_per_pkt", probes.decode_ns_per_pkt, "ns");
  r.set("net.wire_bytes_per_pkt", probes.wire_bytes_per_pkt, "bytes");
  std::vector<double> parse_ms, deploy_ms;
  for (const SubRun& s : runs) {
    if (!s.ok || s.one_cpu) continue;
    parse_ms.push_back(s.parse_s * 1e3);
    deploy_ms.push_back(s.deploy_s * 1e3);
  }
  r.set("grid.parse_ms", median(parse_ms), "ms");
  r.set("grid.deploy_ms", median(deploy_ms), "ms");
  // Every stage by name, so the bottleneck can be read off directly.
  for (std::size_t k = 0; k < topo.stages.size(); ++k) {
    const int i = static_cast<int>(k);
    r.extra("core.service_ns." + topo.stages[k], stage_value(ls.self_ns, i), "ns");
    r.extra("core.busy_frac." + topo.stages[k], stage_median(busy, i), "ratio");
    r.extra("core.queue_mean." + topo.stages[k], stage_median(queue_mean, i), "count");
  }

  // The ledger. Each thread on the data path is charged the traced ns of
  // the layers it runs, per input packet (a stage handling k packets per
  // input packet is charged k times its service time). The blocking path is
  // the busiest thread when threads have cores of their own, and all of
  // them in series when they share one CPU. The residual is the part of the
  // end-to-end time per packet the ledger does not explain: engine plumbing
  // no outside span covers (inbox handoff, flush, wake-ups) plus waiting.
  const SubRun* ref = nullptr;
  for (std::uint32_t i : traced) {
    if (!runs[i].paced && runs[i].offered > 0) ref = &runs[i];
  }
  auto ledger = [&](const LayerStats& stats, bool serial,
                    const std::string& prefix) {
    std::vector<std::pair<std::string, double>> threads = extra_threads;
    threads.push_back({"source", stats.gen_ns / sources});
    for (std::size_t k = 0; k < topo.stages.size(); ++k) {
      double weight = 1;
      if (ref != nullptr && k < ref->report.stages.size()) {
        weight = static_cast<double>(ref->report.stages[k].packets_processed) /
                 static_cast<double>(ref->offered);
      }
      threads.push_back({topo.stages[k],
                         weight * stage_value(stats.self_ns, static_cast<int>(k))});
    }
    double path = 0;
    for (const auto& [name, ns] : threads) {
      r.extra(prefix + "thread_ns_per_pkt." + name, ns, "ns");
      path = serial ? path + ns : std::max(path, ns);
    }
    return path;
  };
  const double path = ledger(ls, false, "ledger.");
  r.set("ledger.path_ns_per_pkt", path, "ns");
  r.set("ledger.period_ns_per_pkt", period_ns, "ns");
  r.set("ledger.residual_pct",
        period_ns > 0 ? 100.0 * (period_ns - path) / period_ns : 0, "%");
  if (!traced_1cpu.empty() && period_1cpu_ns > 0) {
    const double serial_path =
        ledger(analyse(spans, topo, traced_1cpu), true, "ledger.1cpu.");
    r.extra("ledger.1cpu.path_ns_per_pkt", serial_path, "ns");
    r.extra("ledger.1cpu.period_ns_per_pkt", period_1cpu_ns, "ns");
    r.extra("ledger.1cpu.residual_pct",
            100.0 * (period_1cpu_ns - serial_path) / period_1cpu_ns, "%");
  }
  r.set("obs.bench_trace_overhead_pct", split.overhead_pct(), "%");
  r.extra("spans.dropped", static_cast<double>(SpanLog::global().dropped()),
          "count");
}

void write_spans(const Options& opt, Result& r) {
  ::mkdir(opt.out_dir.c_str(), 0755);
  // One file per workload: the latest traced run replaces the previous one.
  const std::string path = opt.out_dir + "/spans-" + opt.workload + ".jsonl";
  if (SpanLog::global().write_jsonl(path)) {
    r.conf("spans_file", path);
  } else {
    r.errors.push_back("cannot write " + path);
  }
}

void check_sinks(const SubRun& s, std::size_t sinks, std::uint64_t packets,
                 std::uint64_t digest, Result& r) {
  if (!s.ok) {
    r.fail(s.offered, "sub-run failed: " + s.error);
    return;
  }
  if (s.sinks.size() != sinks) {
    r.fail(s.offered, "expected " + std::to_string(sinks) + " sink results, got " +
                          std::to_string(s.sinks.size()));
    return;
  }
  std::uint64_t missing = 0;
  for (const SinkResult& k : s.sinks) {
    if (k.bad != 0 || k.digest != digest) {
      r.fail(s.offered, "sink " + k.stage + ": digest mismatch or bad packets (" +
                            std::to_string(k.bad) + ") " + k.first_error);
      return;
    }
    if (k.packets < packets) missing = std::max(missing, packets - k.packets);
  }
  if (missing != 0) r.fail(missing, "packets not delivered to every sink");
}

std::vector<double> sink_latencies(const SubRun& s) {
  std::vector<double> all;
  for (const SinkResult& k : s.sinks) {
    all.insert(all.end(), k.latencies.begin(), k.latencies.end());
  }
  return all;
}

/// Confines this thread, and so every engine thread it starts, to the last
/// CPU it may run on (the first one usually takes more of the host's
/// interrupts); the destructor restores the previous mask.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    ::sched_getaffinity(0, sizeof saved_, &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        cpu_ = c;
        break;
      }
    }
    ::sched_setaffinity(0, sizeof one, &one);
  }
  ~OneCpu() { ::sched_setaffinity(0, sizeof saved_, &saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

void common_config(const Options& opt, Result& r) {
  describe_host(r);
  r.conf("workload", opt.workload);
  r.conf("seed", static_cast<double>(opt.seed));
  r.conf("seconds", opt.seconds);
  r.conf("trace", opt.trace ? "1" : "0");
  r.conf("max_batch", static_cast<double>(kMaxBatch));
  r.conf("spsc", "1");
  r.conf("adaptation", "0");
}

void engine_facts(const RunReport& rep, Result& r) {
  r.conf("idle", rep.host.idle.empty() ? "?" : rep.host.idle);
  r.conf("pinned", rep.host.pinned ? "1" : "0");
  r.conf("engine_cpus", static_cast<double>(rep.host.cpus));
}

// -- closed-loop in-process workloads (chain4, fanout4-replay) ----------------------

struct ClosedLoopSpec {
  std::uint64_t packets;  // per sub-run
  std::size_t bytes;
  bool fanout;
  bool failover;
  /// Also run the workload confined to one CPU, for the single-core
  /// baseline (reported, not gated: NOTES.md).
  bool one_cpu_phase;
};

void run_closed_loop(const Options& opt, const ClosedLoopSpec& w, Result& r) {
  common_config(opt, r);
  r.conf("loop", "closed");
  r.conf("packets_per_subrun", static_cast<double>(w.packets));
  r.conf("payload_bytes", static_cast<double>(w.bytes));
  r.conf("pipeline", w.fanout ? "src->hub->4 sinks" : "src->s0->s1->s2->s3");
  r.conf("failover", w.failover ? "1" : "0");
  r.conf("retention", w.failover ? static_cast<double>(kRetention) : 0.0);
  r.conf("inbox_capacity", static_cast<double>(kInboxCapacity));
  r.conf("latency_phase_rate_pkt_s", kLatencyRate);
  r.conf("latency_phase_subruns", static_cast<double>(latency_subruns(opt)));
  r.conf("latency_phase_subrun_s", kLatencySubrunS);
  const std::size_t sinks = w.fanout ? 4 : 1;
  const std::string grid = grid_xml(w.fanout ? 5 : 4);
  const std::string app =
      w.fanout ? fanout_xml(w.packets, w.bytes, opt.seed, kUnpaced)
               : chain_xml(w.packets, w.bytes, opt.seed, false, kUnpaced);
  const std::uint64_t digest = expected_digest(w.packets, w.bytes, opt.seed);
  const RtEngine::Config cfg = engine_config(opt, w.failover);

  Topo topo;
  // Warm-up: caches, arena slabs and lazy set-up, not counted.
  SubRun warm = run_in_process(grid, app, cfg, false, 0, &topo);
  if (!warm.ok) {
    r.fail(w.packets, "warm-up failed: " + warm.error);
    return;
  }
  engine_facts(warm.report, r);

  std::vector<SubRun> runs;
  EndToEnd e2e;
  TraceSplit split;
  // Unpaced sub-runs until `seconds` elapse; traced runs alternate them
  // with traced ones. Returns the untraced throughputs.
  auto saturate = [&](double seconds, bool one_cpu) {
    std::vector<double> plain;
    const double end = now_s() + seconds;
    for (int n = 0; now_s() < end || n < 2; ++n) {
      const bool traced = opt.trace && n % 2 == 1;
      SubRun s = run_in_process(grid, app, cfg, traced,
                                static_cast<std::uint32_t>(runs.size()), nullptr);
      s.one_cpu = one_cpu;
      r.attempted += w.packets;
      check_sinks(s, sinks, w.packets, digest, r);
      if (s.ok && s.exec_s > 0) {
        const double tput = static_cast<double>(w.packets) / s.exec_s;
        if (!traced) plain.push_back(tput);
        if (!one_cpu) {
          (traced ? split.traced : split.plain).push_back(tput);
          if (!traced) e2e.add(tput, s.cpu_s, w.packets, s.setup_s);
        }
      }
      runs.push_back(std::move(s));
    }
    return plain;
  };
  const double phase = opt.seconds * 0.2;
  saturate(throughput_phase_s(opt) - (w.one_cpu_phase ? phase : 0), false);
  // Read before the confined phase, whose fuller queues hold more arena
  // blocks: the figure is the workload's own.
  const double rss_mb = peak_rss_mb(false);
  double period_1cpu_ns = 0;
  if (w.one_cpu_phase) {
    OneCpu confine;
    r.conf("one_cpu_phase_s", phase);
    r.conf("one_cpu_phase_cpu", static_cast<double>(confine.cpu()));
    // Its own warm-up: the first confined run pays thread migration.
    (void)run_in_process(grid, app, cfg, false, 0, nullptr);
    const std::vector<double> plain = saturate(phase, true);
    const double tput_1cpu = median(plain);
    r.extra("throughput_1cpu_pkt_s", tput_1cpu, "pkt/s");
    r.extra("throughput_over_1cpu", median(split.plain) / std::max(tput_1cpu, 1.0),
            "ratio");
    period_1cpu_ns = 1e9 / std::max(tput_1cpu, 1.0);
  }
  const auto paced_packets =
      static_cast<std::uint64_t>(kLatencyRate * kLatencySubrunS);
  const std::string paced =
      w.fanout ? fanout_xml(paced_packets, w.bytes, opt.seed, kLatencyRate)
               : chain_xml(paced_packets, w.bytes, opt.seed, false, kLatencyRate);
  const std::uint64_t paced_digest =
      expected_digest(paced_packets, w.bytes, opt.seed);
  set_sample_every(kSamplePaced);
  for (int i = 0; i < latency_subruns(opt); ++i) {
    SubRun s = run_in_process(grid, paced, cfg, opt.trace,
                              static_cast<std::uint32_t>(runs.size()), nullptr);
    s.paced = true;
    r.attempted += paced_packets;
    check_sinks(s, sinks, paced_packets, paced_digest, r);
    if (s.ok) e2e.add_latency(sink_latencies(s));
    runs.push_back(std::move(s));
  }
  if (!opt.trace) {
    e2e.report(r, rss_mb);
    return;
  }
  ProbeShape shape;
  shape.payload_bytes = w.bytes;
  shape.batch = kMaxBatch;
  shape.retention = kRetention;
  shape.seed = opt.seed;
  const ProbeResults probes = run_probes(shape);
  const double period = 1e9 / std::max(median(split.plain), 1.0);
  report_layers(r, runs, topo, probes, split, period, period_1cpu_ns, {});
  r.set("apps.summary_ns_per_rec", probes.summary_ns_per_rec, "ns");
  r.set("apps.merge_ns_per_summary", probes.merge_ns_per_summary, "ns");
  write_spans(opt, r);
}

// -- countsamps-paced ------------------------------------------------------------------

constexpr double kCountSampsRate = 50000;      // records/s per source
constexpr std::uint64_t kCountSampsEmitEvery = 200;
constexpr int kCountSampsSubruns = 8;
constexpr std::size_t kCountSampsMerge = 4;    // stage index of the merge

struct CountSampsReference {
  bool ok = false;
  std::string error;
  std::vector<gates::apps::ValueCount> top;
  gates::apps::ExactCounter exact;
};

/// The same application on the single-threaded discrete-event engine with
/// the same seed: the top-10 every real-time run must reproduce, plus the
/// exact counts of every record generated.
CountSampsReference countsamps_reference(const std::string& grid_text,
                                         const std::string& app_text,
                                         std::uint64_t seed) {
  CountSampsReference ref;
  auto grid = gates::grid::parse_grid_config(grid_text);
  if (!grid.ok()) {
    ref.error = grid.status().to_string();
    return ref;
  }
  gates::grid::RepositoryRegistry repos;
  gates::grid::Deployer deployer(grid->directory, repos,
                                 gates::grid::ProcessorRegistry::global());
  gates::grid::Launcher launcher(deployer,
                                 gates::grid::GeneratorRegistry::global());
  auto app = launcher.launch_text(app_text);
  if (!app.ok()) {
    ref.error = app.status().to_string();
    return ref;
  }
  for (auto& src : app->pipeline.sources) {
    auto inner = std::move(src.generator);
    src.generator = [inner = std::move(inner), &ref](std::uint64_t seq,
                                                     gates::Rng& rng) {
      gates::core::Packet p = inner(seq, rng);
      gates::Deserializer d(p.payload);
      std::uint64_t v = 0;
      if (d.read_u64(v).is_ok()) ref.exact.insert(v);
      return p;
    };
  }
  gates::core::SimEngine::Config cfg;
  cfg.seed = seed;
  cfg.adaptation_enabled = false;
  gates::core::SimEngine sim(app->pipeline, app->deployment.placement,
                             app->deployment.hosts, grid->topology, cfg);
  if (auto s = sim.run(); !s.is_ok() || !sim.report().completed) {
    ref.error = s.is_ok() ? "reference run did not complete" : s.to_string();
    return ref;
  }
  auto* merge = dynamic_cast<gates::apps::CountSampsSinkProcessor*>(
      &sim.processor(kCountSampsMerge));
  if (merge == nullptr) {
    ref.error = "reference merge is not a count-samps sink";
    return ref;
  }
  ref.top = merge->result();
  ref.ok = true;
  return ref;
}

/// Whether two top-k answers agree. The merge sums per-stream counts in the
/// order summaries first arrived, which differs between engines, so counts
/// may differ in their last bits and a tie at rank k may resolve either way.
bool tops_agree(const std::vector<gates::apps::ValueCount>& a,
                const std::vector<gates::apps::ValueCount>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  auto close = [](double x, double y) {
    return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(y));
  };
  auto agrees = [&](const std::vector<gates::apps::ValueCount>& x,
                    const std::vector<gates::apps::ValueCount>& y) {
    for (const auto& item : x) {
      const auto it = std::find_if(y.begin(), y.end(), [&](const auto& o) {
        return o.value == item.value;
      });
      const bool ok = it != y.end() ? close(item.count, it->count)
                                    : close(item.count, y.back().count);
      if (!ok) return false;
    }
    return true;
  };
  return agrees(a, b) && agrees(b, a);
}

void run_countsamps(const Options& opt, Result& r) {
  common_config(opt, r);
  // The sub-runs share the measured time; each must still carry enough
  // summaries for a supported p99 (ten beyond it).
  const double sub_seconds = std::max(opt.seconds / kCountSampsSubruns, 0.5);
  const auto records = static_cast<std::uint64_t>(kCountSampsRate * sub_seconds);
  r.conf("loop", "open");
  r.conf("sources", 4.0);
  r.conf("rate_per_source_hz", kCountSampsRate);
  r.conf("records_per_source_per_subrun", static_cast<double>(records));
  r.conf("subrun_schedule_s", sub_seconds);
  r.conf("emit_every", static_cast<double>(kCountSampsEmitEvery));
  r.conf("summary_size", 100.0);
  r.conf("zipf", "universe=5000,theta=1.1");
  r.conf("top_k", 10.0);
  r.conf("failover", "0");
  const std::string grid = grid_xml(5);
  const std::string app = countsamps_xml(records, kCountSampsRate,
                                         kCountSampsEmitEvery);
  const CountSampsReference ref = countsamps_reference(grid, app, opt.seed);
  if (!ref.ok) {
    r.attempted += 4 * records;
    r.fail(4 * records, "reference failed: " + ref.error);
    return;
  }
  const auto exact_top = ref.exact.top_k(10);
  r.extra("accuracy.reference_vs_exact",
          gates::apps::top_k_accuracy(ref.top, exact_top).score(), "score");

  const RtEngine::Config cfg = engine_config(opt, false);
  std::vector<SubRun> runs;
  EndToEnd e2e;
  TraceSplit split;
  std::vector<double> lag_p99_us, lag_p50_us, achieved, unmatched;
  std::vector<double> due_p50_us, due_p99_us;
  std::int64_t summary_ns = 0, merge_ns = 0;
  std::uint64_t summary_recs = 0, merge_calls = 0;
  Topo topo;
  // A short warm-up at the same rate.
  {
    const std::string warm_app = countsamps_xml(
        static_cast<std::uint64_t>(kCountSampsRate * 0.2), kCountSampsRate,
        kCountSampsEmitEvery);
    CountSampsBook book(4, kCountSampsRate,
                        static_cast<std::uint64_t>(kCountSampsRate * 0.2),
                        kCountSampsEmitEvery);
    SubRun warm = run_in_process(
        grid, warm_app, cfg, false, 0, &topo,
        [&](gates::core::PipelineSpec& p) {
          instrument_count_samps(p, book, kCountSampsMerge);
        });
    if (!warm.ok) {
      r.fail(4 * records, "warm-up failed: " + warm.error);
      return;
    }
    engine_facts(warm.report, r);
  }
  for (int i = 0; i < kCountSampsSubruns; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    CountSampsBook book(4, kCountSampsRate, records, kCountSampsEmitEvery);
    std::vector<gates::apps::ValueCount> top;
    SubRun s = run_in_process(
        grid, app, cfg, traced, static_cast<std::uint32_t>(i), nullptr,
        [&](gates::core::PipelineSpec& p) {
          instrument_count_samps(p, book, kCountSampsMerge);
        },
        [&](RtEngine& engine, SubRun&) {
          auto* merge = dynamic_cast<gates::apps::CountSampsSinkProcessor*>(
              &undecorated(engine.processor(kCountSampsMerge)));
          if (merge != nullptr) top = merge->result();
        });
    r.attempted += 4 * records;
    if (!s.ok) {
      r.fail(4 * records, "sub-run failed: " + s.error);
      runs.push_back(std::move(s));
      continue;
    }
    std::uint64_t folded = 0;
    for (std::size_t k = 0; k < 4 && k < s.report.stages.size(); ++k) {
      folded += s.report.stages[k].records_processed;
    }
    if (!tops_agree(top, ref.top)) {
      r.fail(4 * records, "top-10 differs from the single-threaded reference");
    } else if (folded < 4 * records) {
      r.fail(4 * records - folded, "records not folded into a summary");
    }
    const double tput = static_cast<double>(folded) / s.exec_s;
    (traced ? split.traced : split.plain).push_back(tput);
    if (!traced) {
      e2e.add(tput, s.cpu_s, 4 * records, s.setup_s);
      e2e.add_latency(book.latencies());
      due_p50_us.push_back(percentile(book.due_latencies(), 0.50).value * 1e6);
      due_p99_us.push_back(percentile(book.due_latencies(), 0.99).value * 1e6);
      const std::vector<double> lags = book.lags();
      lag_p50_us.push_back(percentile(lags, 0.50).value * 1e6);
      lag_p99_us.push_back(percentile(lags, 0.99).value * 1e6);
      // Achieved offered rate: records over the schedule the generator
      // actually kept (its final lag stretches the nominal span).
      const double nominal = static_cast<double>(records - 1) / kCountSampsRate;
      const double last_lag = lags.empty() ? 0 : lags.back();
      achieved.push_back(4.0 * static_cast<double>(records - 1) /
                         std::max(nominal + last_lag, 1e-9));
      unmatched.push_back(static_cast<double>(book.unmatched()));
    } else {
      summary_ns += book.summary_self_ns.load();
      summary_recs += book.summary_records.load();
      merge_ns += book.merge_self_ns.load();
      merge_calls += book.merge_calls.load();
    }
    if (i == 0) {
      r.extra("accuracy.run_vs_exact",
              gates::apps::top_k_accuracy(top, exact_top).score(), "score");
    }
    runs.push_back(std::move(s));
  }
  if (!opt.trace) {
    e2e.report(r, peak_rss_mb(false));
    r.extra("latency_due_p50_us", median(due_p50_us), "us");
    r.extra("latency_due_p99_us", median(due_p99_us), "us");
    r.extra("generator_lag_p50_us", median(lag_p50_us), "us");
    r.extra("generator_lag_p99_us", median(lag_p99_us), "us");
    r.extra("offered_rate.configured", 4 * kCountSampsRate, "rec/s");
    r.extra("offered_rate.achieved", median(achieved), "rec/s");
    r.extra("latency.unmatched_summaries", median(unmatched), "count");
    return;
  }
  ProbeShape shape;
  shape.payload_bytes = 8;
  shape.batch = kMaxBatch;
  shape.retention = kRetention;
  shape.emit_every = kCountSampsEmitEvery;
  shape.seed = opt.seed;
  const ProbeResults probes = run_probes(shape);
  const double period = 1e9 / std::max(median(split.plain), 1.0);
  report_layers(r, runs, topo, probes, split, period, 0, {});
  r.set("apps.summary_ns_per_rec",
        summary_recs ? static_cast<double>(summary_ns) / summary_recs : 0, "ns");
  r.set("apps.merge_ns_per_summary",
        merge_calls ? static_cast<double>(merge_ns) / merge_calls : 0, "ns");
  r.extra("apps.summary_ns_per_rec.isolated", probes.summary_ns_per_rec, "ns");
  r.extra("apps.merge_ns_per_summary.isolated", probes.merge_ns_per_summary, "ns");
  write_spans(opt, r);
}

// -- wire-tcp --------------------------------------------------------------------

constexpr std::uint64_t kWirePackets = 1000000;
constexpr std::size_t kWireBytes = 256;

void run_wire_tcp(const Options& opt, Result& r) {
  common_config(opt, r);
  r.conf("loop", "closed");
  r.conf("packets_per_subrun", static_cast<double>(kWirePackets));
  r.conf("payload_bytes", static_cast<double>(kWireBytes));
  r.conf("pipeline", "src->s0->s1 | tcp | s2->s3");
  r.conf("daemons", 2.0);
  r.conf("transport", "tcp (localhost)");
  r.conf("failover", "0");
  r.conf("latency_phase_rate_pkt_s", kLatencyRate);
  r.conf("latency_phase_subruns", static_cast<double>(latency_subruns(opt)));
  r.conf("latency_phase_subrun_s", kLatencySubrunS);
  const std::string grid = grid_xml(2);
  const std::string app =
      chain_xml(kWirePackets, kWireBytes, opt.seed, true, kUnpaced);
  const std::uint64_t digest = expected_digest(kWirePackets, kWireBytes, opt.seed);
  const RtEngine::Config cfg = engine_config(opt, false);
  ::mkdir(opt.out_dir.c_str(), 0755);

  // The in-process pass of the same pipeline: the reference digest, the
  // in-process throughput the hop is measured against, and (traced) spans.
  Topo topo;
  std::vector<SubRun> inproc;
  TraceSplit split;
  std::vector<double> inproc_tput;
  const int inproc_runs = opt.trace ? 4 : 1;
  for (int i = 0; i < inproc_runs; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    SubRun s = run_in_process(grid, app, cfg, traced, static_cast<std::uint32_t>(i),
                              i == 0 ? &topo : nullptr);
    if (!s.ok || s.sinks.size() != 1 || s.sinks[0].digest != digest ||
        s.sinks[0].bad != 0) {
      r.attempted += kWirePackets;
      r.fail(kWirePackets, "in-process reference pass failed: " +
                               (s.ok ? std::string("digest mismatch") : s.error));
      return;
    }
    const double tput = static_cast<double>(kWirePackets) / s.exec_s;
    (traced ? split.traced : split.plain).push_back(tput);
    if (!traced) inproc_tput.push_back(tput);
    if (i == 0) engine_facts(s.report, r);
    inproc.push_back(std::move(s));
  }
  const std::uint64_t inproc_digest = inproc.front().sinks[0].digest;

  DistributedRun run;
  run.grid_xml = grid;
  run.node_bin = opt.node_bin;
  run.work_dir = opt.out_dir;
  run.seed = opt.seed;
  EndToEnd e2e;
  std::vector<double> ready_ms;
  // One distributed sub-run; false when it failed or its digest is wrong.
  auto tcp_run = [&](const std::string& app_text, std::uint64_t packets,
                     std::uint64_t want, DistributedOutcome& out, double& cpu) {
    run.app_xml = app_text;
    const double cpu0 = cpu_seconds(false) + cpu_seconds(true);
    auto outcome = run_daemons(run);
    cpu = cpu_seconds(false) + cpu_seconds(true) - cpu0;
    r.attempted += packets;
    if (!outcome.ok()) {
      r.fail(packets, "distributed run failed: " + outcome.status().to_string());
      return false;
    }
    out = std::move(*outcome);
    if (out.sinks.size() != 1 || out.sinks[0].bad != 0 ||
        out.sinks[0].digest != want) {
      r.fail(packets, "tcp digest differs from the in-process digest");
      return false;
    }
    if (out.sinks[0].packets < packets) {
      r.fail(packets - out.sinks[0].packets, "packets lost over tcp");
      return false;
    }
    return out.sink_execution_s > 0;
  };
  int measured = 0;
  const double end = now_s() + throughput_phase_s(opt);
  for (int attempt = 0; (now_s() < end || measured < 2) && attempt < 50;
       ++attempt) {
    DistributedOutcome out;
    double cpu = 0;
    const bool ok = tcp_run(app, kWirePackets, inproc_digest, out, cpu);
    // The first spawn pays page-cache and loader costs: a warm-up.
    if (!ok || attempt == 0) continue;
    ++measured;
    e2e.add(static_cast<double>(kWirePackets) / out.sink_execution_s, cpu,
            kWirePackets, out.setup_s);
    ready_ms.push_back(out.daemon_ready_s * 1e3);
  }
  const auto paced_packets =
      static_cast<std::uint64_t>(kLatencyRate * kLatencySubrunS);
  const std::string paced =
      chain_xml(paced_packets, kWireBytes, opt.seed, true, kLatencyRate);
  const std::uint64_t paced_digest =
      expected_digest(paced_packets, kWireBytes, opt.seed);
  for (int i = 0; i < latency_subruns(opt); ++i) {
    DistributedOutcome out;
    double cpu = 0;
    if (tcp_run(paced, paced_packets, paced_digest, out, cpu)) {
      e2e.add_latency(out.sinks[0].latencies);
    }
  }
  const double tcp_tput = median(e2e.throughput);
  const double hop_ns = tcp_tput > 0 && !inproc_tput.empty()
                            ? 1e9 / tcp_tput - 1e9 / median(inproc_tput)
                            : 0;
  r.extra("grid.daemon_ready_ms", median(ready_ms), "ms");
  r.extra("net.hop_ns_per_pkt", hop_ns, "ns");
  r.extra("throughput_inproc_pkt_s", median(inproc_tput), "pkt/s");
  if (!opt.trace) {
    // The daemons are the system under test here: report the larger of
    // their peak resident sets.
    e2e.report(r, peak_rss_mb(true));
    return;
  }
  ProbeShape shape;
  shape.payload_bytes = kWireBytes;
  shape.batch = kMaxBatch;
  shape.retention = kRetention;
  shape.seed = opt.seed;
  const ProbeResults probes = run_probes(shape);
  const double period = 1e9 / std::max(tcp_tput, 1.0);
  report_layers(r, inproc, topo, probes, split, period, 0,
                {{"wire.egress", probes.encode_ns_per_pkt},
                 {"wire.ingress", probes.decode_ns_per_pkt}});
  r.set("apps.summary_ns_per_rec", probes.summary_ns_per_rec, "ns");
  r.set("apps.merge_ns_per_summary", probes.merge_ns_per_summary, "ns");
  write_spans(opt, r);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "chain4", "fanout4-replay", "countsamps-paced", "wire-tcp"};
  return names;
}

bool run_workload(const Options& opt, Result& r) {
  gates::apps::register_all();
  register_bench_types();
  if (opt.workload == "chain4") {
    run_closed_loop(opt, {1000000, 64, false, false, true}, r);
  } else if (opt.workload == "fanout4-replay") {
    run_closed_loop(opt, {500000, 64, true, true, false}, r);
  } else if (opt.workload == "countsamps-paced") {
    run_countsamps(opt, r);
  } else if (opt.workload == "wire-tcp") {
    run_wire_tcp(opt, r);
  } else {
    return false;
  }
  return true;
}

}  // namespace gatesbench
