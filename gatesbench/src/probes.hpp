// Isolated layer calls: the benchmark calls one public API in a loop, shaped
// like the workload's traffic, and reports ns per packet. These give the
// per-layer numbers that callbacks cannot see from outside the engine.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gatesbench {

struct ProbeShape {
  std::size_t payload_bytes = 64;
  /// Packets per engine batch (RtEngine::Config::batching.max_batch).
  std::size_t batch = 32;
  /// Retention depth per flow (failover replay_buffer_packets).
  std::size_t retention = 256;
  /// Count-samps summary cadence and size.
  std::uint64_t emit_every = 250;
  std::uint64_t seed = 1;
};

struct ProbeResults {
  /// ByteBuffer allocated on one thread, released on another.
  double arena_alloc_release_ns = 0;
  /// RetentionRing retain + exact ack, per packet, at the batch size.
  double retain_ack_ns_per_pkt = 0;
  /// DataFrameEncoder begin/add/finish, per packet.
  double encode_ns_per_pkt = 0;
  /// FrameAssembler feed/next + decode_data_body, per packet.
  double decode_ns_per_pkt = 0;
  /// Frame bytes on the wire per packet (header and metas included).
  double wire_bytes_per_pkt = 0;
  /// The real count-samps summary and merge processors driven directly.
  double summary_ns_per_rec = 0;
  double merge_ns_per_summary = 0;
};

/// Runs every probe; each reports the median over several timed batches.
ProbeResults run_probes(const ProbeShape& shape);

}  // namespace gatesbench
