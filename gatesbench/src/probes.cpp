#include "probes.hpp"

#include <sys/uio.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "gates/apps/registration.hpp"
#include "gates/common/byte_buffer.hpp"
#include "gates/common/rng.hpp"
#include "gates/common/serialize.hpp"
#include "gates/common/zipf.hpp"
#include "gates/core/packet.hpp"
#include "gates/core/parameter.hpp"
#include "gates/core/processor.hpp"
#include "gates/core/retention_ring.hpp"
#include "gates/grid/registry.hpp"
#include "gates/net/wire.hpp"
#include "stats.hpp"

namespace gatesbench {

namespace {

using gates::ByteBuffer;
using gates::core::Packet;

constexpr int kBatches = 15;

/// Times `batches` calls of `body` (each covering `per_batch` packets),
/// records a probe span per batch and returns the median ns per packet.
template <typename Body>
double time_batches(const char* label, std::size_t per_batch, Body&& body) {
  SpanLog& log = SpanLog::global();
  const std::uint32_t id = log.enabled() ? log.label(label) : 0;
  std::vector<double> per_packet;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    body();
    const std::int64_t t1 = now_ns();
    if (log.enabled()) log.record(SpanKind::kProbe, 0, 0, t0, t1, 0, id);
    per_packet.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(per_batch));
  }
  return median(per_packet);
}

double probe_arena(std::size_t bytes) {
  constexpr std::size_t kPerBatch = 8192;
  std::vector<ByteBuffer> buffers;
  buffers.reserve(kPerBatch);
  // Allocation on this thread and release on a second one are timed
  // separately and summed, so thread start-up is not counted.
  std::vector<double> totals;
  SpanLog& log = SpanLog::global();
  const std::uint32_t id = log.enabled() ? log.label("arena.alloc_release") : 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kPerBatch; ++i) {
      buffers.push_back(ByteBuffer::uninitialized(bytes));
      buffers.back().data()[0] = static_cast<std::uint8_t>(i);
    }
    const std::int64_t t1 = now_ns();
    std::int64_t release_ns = 0;
    std::thread consumer([&] {
      const std::int64_t r0 = now_ns();
      buffers.clear();
      release_ns = now_ns() - r0;
    });
    consumer.join();
    if (log.enabled()) log.record(SpanKind::kProbe, 0, 0, t0, t1, 0, id);
    totals.push_back(static_cast<double>(t1 - t0 + release_ns) /
                     static_cast<double>(kPerBatch));
  }
  return median(totals);
}

std::vector<Packet> make_packets(std::size_t n, std::size_t bytes) {
  std::vector<Packet> packets(n);
  for (std::size_t i = 0; i < n; ++i) {
    packets[i].sequence = i;
    packets[i].payload = ByteBuffer::uninitialized(bytes);
    std::memset(packets[i].payload.data(), static_cast<int>(i), bytes);
  }
  return packets;
}

double probe_retention(const ProbeShape& shape) {
  constexpr std::size_t kPerBatch = 16384;
  const std::vector<Packet> packets = make_packets(kPerBatch, shape.payload_bytes);
  gates::core::RetentionRing ring(shape.retention);
  std::vector<std::uint64_t> seqs(shape.batch);
  return time_batches("retention.retain_ack", kPerBatch, [&] {
    for (std::size_t i = 0; i < kPerBatch; i += shape.batch) {
      const std::size_t n = std::min(shape.batch, kPerBatch - i);
      for (std::size_t j = 0; j < n; ++j) seqs[j] = ring.retain(packets[i + j]);
      for (std::size_t j = 0; j < n; ++j) ring.ack_exact(seqs[j]);
    }
  });
}

void probe_wire(const ProbeShape& shape, ProbeResults& out) {
  namespace wire = gates::net::wire;
  constexpr std::size_t kFrames = 256;
  const std::size_t batch = shape.batch;
  std::vector<wire::WirePacket> packets(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    packets[i].seq = i;
    packets[i].records = 1;
    packets[i].payload = ByteBuffer::uninitialized(shape.payload_bytes);
    std::memset(packets[i].payload.data(), static_cast<int>(i),
                shape.payload_bytes);
  }
  wire::DataFrameEncoder encoder;
  std::size_t frame_bytes = 0;
  out.encode_ns_per_pkt = time_batches("wire.encode", kFrames * batch, [&] {
    for (std::size_t f = 0; f < kFrames; ++f) {
      encoder.begin(1);
      for (const auto& p : packets) encoder.add(p);
      int iov_count = 0;
      const iovec* iov = encoder.finish(&iov_count);
      frame_bytes = encoder.total_bytes();
      if (iov == nullptr || iov_count <= 0) frame_bytes = 0;
    }
  });
  out.wire_bytes_per_pkt =
      static_cast<double>(frame_bytes) / static_cast<double>(batch);

  // One gathered frame, flattened the way the receiving socket sees it.
  encoder.begin(1);
  for (const auto& p : packets) encoder.add(p);
  int iov_count = 0;
  const iovec* iov = encoder.finish(&iov_count);
  std::vector<std::uint8_t> frame;
  for (int i = 0; i < iov_count; ++i) {
    const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
    frame.insert(frame.end(), base, base + iov[i].iov_len);
  }
  std::vector<wire::WirePacket> decoded;
  decoded.reserve(batch);
  bool ok = true;
  out.decode_ns_per_pkt = time_batches("wire.decode", kFrames * batch, [&] {
    wire::FrameAssembler assembler;
    for (std::size_t f = 0; f < kFrames; ++f) {
      ok &= assembler.feed(frame.data(), frame.size()).is_ok();
      auto next = assembler.next();
      if (!next.ok() || !next->has_value()) {
        ok = false;
        continue;
      }
      const wire::Frame& fr = **next;
      decoded.clear();
      ok &= wire::decode_data_body(fr.body.data(), fr.body.size(),
                                   fr.header.count, &decoded)
                .is_ok();
      ok &= decoded.size() == batch;
    }
  });
  if (!ok) out.decode_ns_per_pkt = -1;
}

/// The smallest ProcessorContext that lets a processor run outside an
/// engine.
class ProbeContext final : public gates::core::ProcessorContext {
 public:
  ProbeContext(gates::Properties props, std::uint64_t seed)
      : props_(std::move(props)), rng_(seed) {}
  gates::core::AdjustmentParameter& specify_parameter(
      gates::core::AdjustmentParameter::Spec spec) override {
    params_.push_back(
        std::make_unique<gates::core::AdjustmentParameter>(std::move(spec)));
    return *params_.back();
  }
  const gates::Properties& properties() const override { return props_; }
  gates::Rng& rng() override { return rng_; }
  gates::TimePoint now() const override { return 0; }
  gates::StageId stage_id() const override { return 0; }
  const std::string& stage_name() const override { return name_; }

 private:
  gates::Properties props_;
  gates::Rng rng_;
  std::string name_ = "probe";
  std::vector<std::unique_ptr<gates::core::AdjustmentParameter>> params_;
};

class Collect final : public gates::core::Emitter {
 public:
  void emit(Packet packet, std::size_t) override {
    packets.push_back(std::move(packet));
  }
  std::vector<Packet> packets;
};

void probe_apps(const ProbeShape& shape, ProbeResults& out) {
  gates::apps::register_all();
  auto& registry = gates::grid::ProcessorRegistry::global();
  auto summary_factory = registry.lookup("count-samps-summary");
  auto merge_factory = registry.lookup("count-samps-sink");
  if (!summary_factory.ok() || !merge_factory.ok()) {
    out.summary_ns_per_rec = out.merge_ns_per_summary = -1;
    return;
  }
  constexpr std::size_t kRecords = 20000;
  gates::ZipfGenerator zipf(5000, 1.1);
  gates::Rng rng(shape.seed);
  std::vector<Packet> records(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    records[i].sequence = i;
    gates::Serializer s(records[i].payload);
    s.write_u64(zipf.next(rng));
  }
  gates::Properties summary_props;
  summary_props.set("emit-every", std::to_string(shape.emit_every));
  Collect summaries;
  std::vector<std::unique_ptr<gates::core::StreamProcessor>> keep;
  out.summary_ns_per_rec = time_batches("apps.summary", kRecords, [&] {
    ProbeContext ctx(summary_props, shape.seed);
    auto p = (*summary_factory)();
    p->init(ctx);
    for (const Packet& r : records) p->process(r, summaries);
    keep.push_back(std::move(p));
  });
  gates::Properties merge_props;
  merge_props.set("top-k", "10");
  Collect sink;
  const std::size_t n = std::max<std::size_t>(summaries.packets.size(), 1);
  out.merge_ns_per_summary = time_batches("apps.merge", n, [&] {
    ProbeContext ctx(merge_props, shape.seed);
    auto p = (*merge_factory)();
    p->init(ctx);
    for (const Packet& s : summaries.packets) p->process(s, sink);
  });
}

}  // namespace

ProbeResults run_probes(const ProbeShape& shape) {
  ProbeResults r;
  r.arena_alloc_release_ns = probe_arena(shape.payload_bytes);
  r.retain_ack_ns_per_pkt = probe_retention(shape);
  probe_wire(shape, r);
  probe_apps(shape, r);
  return r;
}

}  // namespace gatesbench
