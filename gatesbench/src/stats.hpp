// Order statistics the benchmark reports. Pure functions over samples, so
// tests/stats_test.cpp can pin each one against inputs with known answers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gatesbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty input.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};

/// First, second and third quartile by the same rule as Python's
/// statistics.quantiles(v, n=4) (method "exclusive"), which is how the
/// run-to-run spread of a metric is judged. Like Python, it extrapolates
/// past the extremes for very small samples; a single sample is returned as
/// all three quartiles.
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long long ld = static_cast<long long>(v.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const long long m = ld + 1;
  double out[3];
  for (long long i = 1; i <= 3; ++i) {
    long long j = i * m / 4;
    j = std::clamp<long long>(j, 1, ld - 1);
    const long long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

/// A percentile together with whether the sample supports it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  /// Samples strictly beyond the percentile's rank.
  std::size_t beyond = 0;
  /// At least ten samples lie beyond the percentile: below that, a tail
  /// percentile is one or two outliers, not a property of the system.
  bool supported = false;
};

/// 1-based nearest rank of percentile q in (0, 1] among n samples:
/// ceil(q * n), clamped to [1, n]. The small epsilon keeps 0.99 * 1000,
/// which is 990.0000000000001 in binary floating point, at rank 990.
inline std::size_t nearest_rank(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile `q` of `v`.
inline Percentile percentile(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const std::size_t rank = nearest_rank(q, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  p.supported = p.beyond >= 10;
  return p;
}

/// When record `seq` of an open-loop source that started at `t0` and runs
/// at `rate` records per second was due to be generated.
inline double due_time(double t0, std::uint64_t seq, double rate) {
  return t0 + static_cast<double>(seq) / rate;
}

/// Open-loop latency of a result: from the due time of the last record it
/// depends on to the moment the result was consumed. Measuring from the
/// due time (not the actual generation time) counts the delay a stalled
/// generator imposes on every record scheduled behind the stall.
inline double due_latency(double consumed_at, double t0, std::uint64_t seq,
                          double rate) {
  return consumed_at - due_time(t0, seq, rate);
}

/// How late the generator ran for record `seq`: its call time minus the
/// record's due time (negative when it ran early).
inline double generator_lag(double called_at, double t0, std::uint64_t seq,
                            double rate) {
  return called_at - due_time(t0, seq, rate);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace gatesbench
