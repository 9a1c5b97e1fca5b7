// Benchmark-owned code the engine calls back into: the stamping source
// generator, the forwarding stage, the checking sink, and the decorators
// that time the real count-samps processors. They are registered with the
// grid registries so every workload is launched from XML, in process and in
// the benchmark's gates_node daemon alike.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gates/core/pipeline.hpp"
#include "gates/core/processor.hpp"

namespace gatesbench {

/// Registers bench-stamp (generator), bench-forward and bench-sink
/// (processors) next to the built-in apps. Idempotent. bench-stamp takes
/// params bytes, source (index), stream and salt (mixed into the pattern,
/// from the workload seed); bench-sink takes bytes, salt and latency (0
/// turns latency sampling off).
void register_bench_types();

/// Bytes [0, 8) of a stamped payload hold the sequence number and bytes
/// [8, 16) the generation time; the rest is a position- and
/// sequence-dependent pattern, so any reorder, loss or corruption of the
/// checked bytes changes the sink's digest.
inline constexpr std::size_t kStampBytes = 16;

/// The digest a bench-sink must report after receiving packets
/// 0 .. packets-1 of `bytes` each, in order, from a bench-stamp source with
/// the same `salt`: the oracle for the closed-loop workloads.
std::uint64_t expected_digest(std::uint64_t packets, std::size_t bytes,
                              std::uint64_t salt);

/// What a bench-sink saw, published at finish().
struct SinkResult {
  std::string stage;
  std::uint64_t packets = 0;
  /// Order-sensitive FNV-1a over sequence stamps and the pattern words of
  /// each payload's first 64 bytes (the time stamp is left out: it differs
  /// from run to run).
  std::uint64_t digest = 0;
  /// Packets whose stamp was out of order or whose pattern was wrong.
  std::uint64_t bad = 0;
  std::string first_error;
  /// Generation-to-sink latencies in seconds, one per sampled packet.
  std::vector<double> latencies;
};

/// Process-wide collection point for per-run figures that callbacks on
/// engine threads produce.
class RunBoard {
 public:
  static RunBoard& global();

  /// Clears everything before a new sub-run.
  void reset();

  void publish(SinkResult result);
  std::vector<SinkResult> sinks() const;

  /// The first generator call of the sub-run (ns); set once.
  void note_generated(std::int64_t t_ns) {
    std::int64_t expected = 0;
    first_generate_ns_.compare_exchange_strong(expected, t_ns,
                                               std::memory_order_relaxed);
  }
  std::int64_t first_generate_ns() const {
    return first_generate_ns_.load(std::memory_order_relaxed);
  }

  /// Traced runs only: source time spent in gaps between generator calls
  /// longer than kBlockedGapNs (a full inbox or a pacing sleep).
  void add_source_wait(std::int64_t ns) {
    source_wait_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  std::int64_t source_wait_ns() const {
    return source_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<SinkResult> sinks_;
  std::atomic<std::int64_t> first_generate_ns_{0};
  std::atomic<std::int64_t> source_wait_ns_{0};
};

/// A generator gap longer than this is waiting, not work: the engine's own
/// per-packet source work is well under a microsecond.
inline constexpr std::int64_t kBlockedGapNs = 2000;

// -- count-samps instrumentation ---------------------------------------------

/// Open-loop bookkeeping for the count-samps workload: the schedule of each
/// source, the due time behind every summary, and the samples the metrics
/// are computed from. One instance per sub-run.
class CountSampsBook {
 public:
  CountSampsBook(std::size_t streams, double rate_hz,
                 std::uint64_t records_per_stream, std::uint64_t emit_every);

  /// Source side: record `seq` generated at t_ns (seq 0 starts the schedule).
  void on_generate(std::uint32_t stream, std::uint64_t seq, std::int64_t t_ns);
  /// Summary side: summary `epoch` of `stream` folded record `last_seq` last.
  void on_summary(std::uint32_t stream, std::uint64_t epoch,
                  std::uint64_t last_seq);
  /// Merge side: summary `epoch` of `stream` reached process() at t_ns.
  void on_merge(std::uint32_t stream, std::uint64_t epoch, std::int64_t t_ns);

  /// Latencies (s) of every merged summary, from the generation of the last
  /// record folded into it and from that record's due time; generator lags
  /// (s) of sampled records. Read after the run.
  const std::vector<double>& latencies() const { return latencies_; }
  const std::vector<double>& due_latencies() const { return due_latencies_; }
  std::vector<double> lags() const;
  std::uint64_t unmatched() const { return unmatched_; }
  /// Traced runs: process() self time of the summaries (per record) and of
  /// the merge (per summary), in ns.
  std::atomic<std::int64_t> summary_self_ns{0};
  std::atomic<std::uint64_t> summary_records{0};
  std::atomic<std::int64_t> merge_self_ns{0};
  std::atomic<std::uint64_t> merge_calls{0};

 private:
  static double seconds(std::int64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  }
  double t0_s(std::uint32_t stream) const;

  double rate_;
  std::vector<std::atomic<std::int64_t>> t0_ns_;

  /// Generation time of each stream's recent records, by sequence modulo
  /// the ring size. A record is read back by its summary stage long before
  /// the source is a ring's length ahead (inboxes hold far fewer records).
  static constexpr std::size_t kRing = std::size_t{1} << 16;
  std::vector<std::unique_ptr<std::atomic<std::int64_t>[]>> generated_ns_;
  /// Per stream and summary epoch: 1 + sequence of the last record folded
  /// into it (0 = not seen) and that record's generation time. Written by
  /// the summary thread before the summary is emitted; the engine's queue
  /// orders the write before the merge's read.
  std::vector<std::vector<std::atomic<std::uint64_t>>> last_seq_;
  std::vector<std::vector<std::atomic<std::int64_t>>> last_generated_ns_;
  /// Per-source lag samples; each written only by its source thread.
  std::vector<std::vector<double>> lags_;
  std::vector<double> latencies_;      // merge thread only
  std::vector<double> due_latencies_;  // merge thread only
  std::uint64_t unmatched_ = 0;    // merge thread only
};

/// Wraps a launched count-samps pipeline: each source generator records its
/// schedule, each summary and the merge is decorated so the book sees the
/// summary flow. Stage indices go into the spans.
void instrument_count_samps(gates::core::PipelineSpec& pipeline,
                            CountSampsBook& book, std::size_t merge_stage);

/// The real processor behind a count-samps decorator (itself otherwise).
gates::core::StreamProcessor& undecorated(gates::core::StreamProcessor& p);

}  // namespace gatesbench
