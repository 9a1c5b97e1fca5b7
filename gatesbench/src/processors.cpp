#include "processors.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "bench.hpp"
#include "stats.hpp"
#include "gates/common/byte_buffer.hpp"
#include "gates/grid/registry.hpp"

namespace gatesbench {

using gates::core::Emitter;
using gates::core::Packet;
using gates::core::ProcessorContext;
using gates::core::StreamProcessor;

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t lane_word(std::uint64_t seq, std::size_t lane,
                        std::uint64_t salt) {
  return ((seq ^ salt) * 0xD6E8FEB86659FD93ull ^ 0xA5A5A5A55A5A5A5Aull) +
         static_cast<std::uint64_t>(lane) * 0x9E3779B97F4A7C15ull;
}

std::uint64_t digest_step(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Per-thread generator bookkeeping for the traced run: the previous call,
/// so the gap between calls (engine-side emit, flush and any wait) is known.
thread_local std::int64_t t_last_generate_ns = 0;

void account_generator_gap(std::int64_t t_ns) {
  if (t_last_generate_ns != 0) {
    const std::int64_t gap = t_ns - t_last_generate_ns;
    if (gap > kBlockedGapNs) RunBoard::global().add_source_wait(gap);
  }
  t_last_generate_ns = t_ns;
}

gates::core::PacketGenerator make_stamp_generator(std::size_t bytes,
                                                  std::int32_t source,
                                                  std::uint64_t stream,
                                                  std::uint64_t salt) {
  return [bytes, source, stream, salt](std::uint64_t seq, gates::Rng&) {
    const std::int64_t t = now_ns();
    RunBoard::global().note_generated(t);
    Packet p;
    p.payload = gates::ByteBuffer::uninitialized(bytes);
    std::uint8_t* out = p.payload.data();
    std::memcpy(out, &seq, 8);
    std::memcpy(out + 8, &t, 8);
    for (std::size_t lane = 0; kStampBytes + 8 * lane < bytes; ++lane) {
      const std::uint64_t w = lane_word(seq, lane, salt);
      std::memcpy(out + kStampBytes + 8 * lane, &w, 8);
    }
    p.records = 1;
    SpanLog& log = SpanLog::global();
    if (log.enabled()) {
      account_generator_gap(t);
      if (sampled(seq)) {
        log.record(SpanKind::kGenerate, source, packet_key(stream, seq), t,
                   now_ns());
      }
    }
    return p;
  };
}

std::uint64_t stamped_seq(const Packet& packet) {
  return packet.payload.size() >= 8 ? load_u64(packet.payload.data())
                                    : packet.sequence;
}

/// Forwards every packet unchanged: pure plumbing.
class Forward final : public StreamProcessor {
 public:
  void init(ProcessorContext& ctx) override {
    stage_ = static_cast<std::int32_t>(ctx.stage_id());
  }
  void process(const Packet& packet, Emitter& emitter) override {
    SpanLog& log = SpanLog::global();
    if (!log.enabled()) {
      emitter.emit(packet);
      return;
    }
    const std::uint64_t seq = stamped_seq(packet);
    if (!sampled(seq)) {
      emitter.emit(packet);
      return;
    }
    const std::int64_t t0 = now_ns();
    const std::uint64_t key = packet_key(packet.stream, seq);
    const std::int64_t t1 = now_ns();
    emitter.emit(packet);
    const std::int64_t t2 = now_ns();
    log.record(SpanKind::kEmit, stage_, key, t1, t2);
    log.record(SpanKind::kProcess, stage_, key, t0, t2, t2 - t1);
  }
  std::string name() const override { return "bench-forward"; }

 private:
  std::int32_t stage_ = 0;
};

/// One packet in this many carries a latency sample (a prime, so samples do
/// not line up with the engine's 32-packet batches).
constexpr std::uint64_t kLatencyEvery = 17;

/// The sink checks and digests the first cache line of each payload only:
/// reading the whole of a 256 B payload that arrives from another core
/// would make the benchmark's own sink the bottleneck of wire-tcp.
constexpr std::size_t kCheckedBytes = 64;

/// Checks sequence stamps and payload patterns, digests arrival order and
/// samples generation-to-sink latency.
class CheckSink final : public StreamProcessor {
 public:
  void init(ProcessorContext& ctx) override {
    stage_ = static_cast<std::int32_t>(ctx.stage_id());
    result_.stage = ctx.stage_name();
    result_.digest = kFnvBasis;
    bytes_ = static_cast<std::size_t>(ctx.properties().get_int("bytes", 0));
    salt_ = static_cast<std::uint64_t>(ctx.properties().get_int("salt", 0));
    latency_every_ =
        ctx.properties().get_int("latency", 1) != 0 ? kLatencyEvery : 0;
  }

  void process(const Packet& packet, Emitter&) override {
    const std::size_t size = packet.payload.size();
    const std::uint8_t* d = packet.payload.data();
    if (size < kStampBytes || (bytes_ != 0 && size != bytes_)) {
      bad("payload of " + std::to_string(size) + " bytes");
      return;
    }
    const std::uint64_t seq = load_u64(d);
    const bool latency = latency_every_ != 0 && seq % latency_every_ == 0;
    const bool timed = latency || sampled(seq);
    const std::int64_t t0 = timed ? now_ns() : 0;
    std::uint64_t h = digest_step(result_.digest, seq);
    bool ok = seq == expected_;
    const std::size_t checked = std::min(size, kCheckedBytes);
    for (std::size_t lane = 0; kStampBytes + 8 * lane < checked; ++lane) {
      const std::uint64_t w = load_u64(d + kStampBytes + 8 * lane);
      ok &= w == lane_word(seq, lane, salt_);
      h = digest_step(h, w);
    }
    result_.digest = h;
    ++result_.packets;
    if (!ok) {
      bad("packet " + std::to_string(seq) + " (expected " +
          std::to_string(expected_) + ") out of order or corrupt");
    }
    expected_ = seq + 1;
    if (!timed) return;
    if (latency) {
      const auto stamped = static_cast<std::int64_t>(load_u64(d + 8));
      result_.latencies.push_back(static_cast<double>(t0 - stamped) * 1e-9);
    }
    SpanLog& log = SpanLog::global();
    if (log.enabled() && sampled(seq)) {
      log.record(SpanKind::kProcess, stage_, packet_key(packet.stream, seq),
                 t0, now_ns());
    }
  }

  void finish(Emitter&) override {
    RunBoard::global().publish(std::move(result_));
    result_ = SinkResult{};
  }
  std::string name() const override { return "bench-sink"; }

 private:
  void bad(const std::string& why) {
    if (result_.bad++ == 0) result_.first_error = result_.stage + ": " + why;
  }

  std::int32_t stage_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t salt_ = 0;
  std::uint64_t latency_every_ = kLatencyEvery;  // 0: no latency samples
  std::uint64_t expected_ = 0;
  SinkResult result_;
};

/// Decorates a count-samps summary: hands the book the last record folded
/// into every summary the real processor emits, and times it when traced.
class SummaryTimer final : public StreamProcessor, private Emitter {
 public:
  SummaryTimer(std::unique_ptr<StreamProcessor> inner, CountSampsBook& book,
               std::int32_t stage)
      : inner_(std::move(inner)), book_(book), stage_(stage) {}

  void init(ProcessorContext& ctx) override { inner_->init(ctx); }
  void process(const Packet& packet, Emitter& emitter) override {
    last_seq_ = packet.sequence;
    out_ = &emitter;
    SpanLog& log = SpanLog::global();
    if (!log.enabled()) {
      inner_->process(packet, *this);
      return;
    }
    child_ns_ = 0;
    const std::int64_t t0 = now_ns();
    inner_->process(packet, *this);
    const std::int64_t t1 = now_ns();
    book_.summary_self_ns.fetch_add(t1 - t0 - child_ns_,
                                    std::memory_order_relaxed);
    book_.summary_records.fetch_add(packet.records, std::memory_order_relaxed);
    if (sampled(packet.sequence)) {
      log.record(SpanKind::kProcess, stage_,
                 packet_key(packet.stream, packet.sequence), t0, t1,
                 child_ns_);
    }
  }
  void finish(Emitter& emitter) override {
    out_ = &emitter;
    inner_->finish(*this);
  }
  std::string name() const override { return inner_->name(); }

 private:
  void emit(Packet packet, std::size_t port) override {
    book_.on_summary(packet.stream, packet.sequence, last_seq_);
    SpanLog& log = SpanLog::global();
    if (!log.enabled()) {
      out_->emit(std::move(packet), port);
      return;
    }
    const std::uint64_t key = packet_key(packet.stream, packet.sequence);
    const std::int64_t t0 = now_ns();
    out_->emit(std::move(packet), port);
    const std::int64_t t1 = now_ns();
    child_ns_ += t1 - t0;
    log.record(SpanKind::kEmit, stage_, key, t0, t1);
  }

  std::unique_ptr<StreamProcessor> inner_;
  CountSampsBook& book_;
  std::int32_t stage_;
  Emitter* out_ = nullptr;
  std::uint64_t last_seq_ = 0;
  std::int64_t child_ns_ = 0;
};

/// Decorates the count-samps merge: stamps the arrival of every summary.
class MergeTimer final : public StreamProcessor {
 public:
  MergeTimer(std::unique_ptr<StreamProcessor> inner, CountSampsBook& book,
             std::int32_t stage)
      : inner_(std::move(inner)), book_(book), stage_(stage) {}

  void init(ProcessorContext& ctx) override { inner_->init(ctx); }
  void process(const Packet& packet, Emitter& emitter) override {
    const std::int64_t t0 = now_ns();
    if (packet.kind == gates::core::kPacketKindSummary) {
      book_.on_merge(packet.stream, packet.sequence, t0);
    }
    inner_->process(packet, emitter);
    SpanLog& log = SpanLog::global();
    if (log.enabled()) {
      const std::int64_t t1 = now_ns();
      book_.merge_self_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      book_.merge_calls.fetch_add(1, std::memory_order_relaxed);
      log.record(SpanKind::kProcess, stage_,
                 packet_key(packet.stream, packet.sequence), t0, t1);
    }
  }
  void finish(Emitter& emitter) override { inner_->finish(emitter); }
  std::string name() const override { return inner_->name(); }
  StreamProcessor& inner() { return *inner_; }

 private:
  std::unique_ptr<StreamProcessor> inner_;
  CountSampsBook& book_;
  std::int32_t stage_;
};

}  // namespace

std::uint64_t expected_digest(std::uint64_t packets, std::size_t bytes,
                              std::uint64_t salt) {
  std::uint64_t h = kFnvBasis;
  const std::size_t checked = std::min(bytes, kCheckedBytes);
  for (std::uint64_t seq = 0; seq < packets; ++seq) {
    h = digest_step(h, seq);
    for (std::size_t lane = 0; kStampBytes + 8 * lane < checked; ++lane) {
      h = digest_step(h, lane_word(seq, lane, salt));
    }
  }
  return h;
}

void register_bench_types() {
  auto& generators = gates::grid::GeneratorRegistry::global();
  if (!generators.contains("bench-stamp")) {
    (void)generators.add(
        "bench-stamp",
        [](const gates::Properties& props)
            -> gates::StatusOr<gates::core::PacketGenerator> {
          const long long bytes = props.get_int("bytes", 64);
          const long long source = props.get_int("source", 0);
          if (bytes < static_cast<long long>(kStampBytes) || bytes % 8 != 0) {
            return gates::invalid_argument(
                "bench-stamp: bytes must be a multiple of 8 and >= 16");
          }
          return make_stamp_generator(
              static_cast<std::size_t>(bytes),
              static_cast<std::int32_t>(-1 - source),
              static_cast<std::uint64_t>(props.get_int("stream", 0)),
              static_cast<std::uint64_t>(props.get_int("salt", 0)));
        });
  }
  auto& processors = gates::grid::ProcessorRegistry::global();
  if (!processors.contains("bench-forward")) {
    (void)processors.add("bench-forward",
                         [] { return std::make_unique<Forward>(); });
  }
  if (!processors.contains("bench-sink")) {
    (void)processors.add("bench-sink",
                         [] { return std::make_unique<CheckSink>(); });
  }
}

// -- RunBoard ----------------------------------------------------------------

RunBoard& RunBoard::global() {
  static RunBoard* board = new RunBoard();
  return *board;
}

void RunBoard::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.clear();
  first_generate_ns_.store(0, std::memory_order_relaxed);
  source_wait_ns_.store(0, std::memory_order_relaxed);
}

void RunBoard::publish(SinkResult result) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(result));
}

std::vector<SinkResult> RunBoard::sinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sinks_;
}

// -- CountSampsBook ----------------------------------------------------------

namespace {
/// One record in this many carries a generator-lag sample.
constexpr std::uint64_t kLagEvery = 16;
}  // namespace

CountSampsBook::CountSampsBook(std::size_t streams, double rate_hz,
                               std::uint64_t records_per_stream,
                               std::uint64_t emit_every)
    : rate_(rate_hz), t0_ns_(streams), lags_(streams) {
  const std::size_t epochs = records_per_stream / emit_every + 2;
  last_seq_.reserve(streams);
  last_generated_ns_.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    generated_ns_.push_back(std::make_unique<std::atomic<std::int64_t>[]>(kRing));
    last_seq_.emplace_back(epochs);
    last_generated_ns_.emplace_back(epochs);
    lags_[s].reserve(records_per_stream / kLagEvery + 1);
  }
  latencies_.reserve(streams * epochs);
  due_latencies_.reserve(streams * epochs);
}

void CountSampsBook::on_generate(std::uint32_t stream, std::uint64_t seq,
                                 std::int64_t t_ns) {
  if (stream >= t0_ns_.size()) return;
  if (seq == 0) t0_ns_[stream].store(t_ns, std::memory_order_relaxed);
  generated_ns_[stream][seq % kRing].store(t_ns, std::memory_order_relaxed);
  if (seq % kLagEvery == 0) {
    lags_[stream].push_back(generator_lag(seconds(t_ns), t0_s(stream), seq,
                                          rate_));
  }
}

void CountSampsBook::on_summary(std::uint32_t stream, std::uint64_t epoch,
                                std::uint64_t last_seq) {
  if (stream >= last_seq_.size() || epoch >= last_seq_[stream].size()) return;
  last_generated_ns_[stream][epoch].store(
      generated_ns_[stream][last_seq % kRing].load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  last_seq_[stream][epoch].store(last_seq + 1, std::memory_order_relaxed);
}

void CountSampsBook::on_merge(std::uint32_t stream, std::uint64_t epoch,
                              std::int64_t t_ns) {
  std::uint64_t stored = 0;
  if (stream < last_seq_.size() && epoch < last_seq_[stream].size()) {
    stored = last_seq_[stream][epoch].load(std::memory_order_relaxed);
  }
  if (stored == 0) {
    ++unmatched_;
    return;
  }
  const std::int64_t generated =
      last_generated_ns_[stream][epoch].load(std::memory_order_relaxed);
  latencies_.push_back(seconds(t_ns - generated));
  due_latencies_.push_back(
      due_latency(seconds(t_ns), t0_s(stream), stored - 1, rate_));
}

double CountSampsBook::t0_s(std::uint32_t stream) const {
  return seconds(t0_ns_[stream].load(std::memory_order_relaxed));
}

std::vector<double> CountSampsBook::lags() const {
  std::vector<double> all;
  for (const auto& v : lags_) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void instrument_count_samps(gates::core::PipelineSpec& pipeline,
                            CountSampsBook& book, std::size_t merge_stage) {
  for (std::size_t i = 0; i < pipeline.sources.size(); ++i) {
    gates::core::SourceSpec& src = pipeline.sources[i];
    auto inner = std::move(src.generator);
    const std::uint32_t stream = src.stream;
    const auto source = static_cast<std::int32_t>(-1 - static_cast<int>(i));
    src.generator = [inner = std::move(inner), &book, stream, source](
                        std::uint64_t seq, gates::Rng& rng) {
      const std::int64_t t = now_ns();
      RunBoard::global().note_generated(t);
      book.on_generate(stream, seq, t);
      SpanLog& log = SpanLog::global();
      if (!log.enabled()) return inner(seq, rng);
      account_generator_gap(t);
      Packet p = inner(seq, rng);
      if (sampled(seq)) {
        log.record(SpanKind::kGenerate, source, packet_key(stream, seq), t,
                   now_ns());
      }
      return p;
    };
  }
  for (std::size_t i = 0; i < pipeline.stages.size(); ++i) {
    gates::core::StageSpec& stage = pipeline.stages[i];
    auto inner = std::move(stage.factory);
    const bool merge = i == merge_stage;
    const auto index = static_cast<std::int32_t>(i);
    stage.factory = [inner = std::move(inner), &book, merge,
                     index]() -> std::unique_ptr<StreamProcessor> {
      if (merge) return std::make_unique<MergeTimer>(inner(), book, index);
      return std::make_unique<SummaryTimer>(inner(), book, index);
    };
  }
}

StreamProcessor& undecorated(StreamProcessor& p) {
  if (auto* m = dynamic_cast<MergeTimer*>(&p)) return m->inner();
  return p;
}

}  // namespace gatesbench
