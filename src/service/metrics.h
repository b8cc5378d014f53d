// Daemon observability: per-verb request/error counters and latency
// samples, aggregated by the server across all worker threads and served
// by the `stats` admin verb (daemon-only — the one-shot CLI has nothing
// to observe).
//
// Latencies are kept as a bounded ring of raw samples per verb (newest
// overwrite oldest beyond kMaxSamples), and percentiles are computed at
// snapshot time with util/stats.h Percentile — the same definition the
// benches print, so `stats` and BENCH_service.json numbers are
// comparable.

#ifndef RDFALIGN_SERVICE_METRICS_H_
#define RDFALIGN_SERVICE_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/verbs.h"

namespace rdfalign::service {

/// Transport-level health counters — events that happen before (or
/// instead of) verb dispatch, so the per-verb table cannot see them.
struct TransportCounters {
  uint64_t accept_retries = 0;   ///< transient accept() failures survived
  uint64_t load_shed = 0;        ///< connections rejected over --max-conns
  uint64_t io_timeouts = 0;      ///< frame I/O that hit --io-timeout-ms
  uint64_t protocol_errors = 0;  ///< malformed frames / mid-frame hangups
  uint64_t sessions_parked = 0;  ///< stream sessions kept after hangup
  uint64_t sessions_resumed = 0; ///< parked sessions reclaimed by resume
  uint64_t sessions_expired = 0; ///< parked sessions reaped at linger end
};

class ServerMetrics {
 public:
  /// Per-verb sample ring capacity; beyond it the oldest samples are
  /// overwritten (the counters keep counting).
  static constexpr size_t kMaxSamples = 16384;

  /// Records one finished request under its verb's row; names outside
  /// the verb table (FindVerb) share one "(unknown)" row, an empty
  /// request the "(empty)" row. Thread-safe.
  void Record(const std::string& verb, bool error, double latency_ms);

  /// Bumps one transport counter, e.g.
  /// `metrics.Bump(&TransportCounters::load_shed)`. Thread-safe.
  void Bump(uint64_t TransportCounters::*field);

  struct VerbSnapshot {
    std::string verb;
    uint64_t requests = 0;
    uint64_t errors = 0;
    size_t samples = 0;  ///< latencies currently resident in the ring
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;  ///< all-time, not ring-bounded
  };

  struct Snapshot {
    uint64_t total_requests = 0;
    uint64_t total_errors = 0;
    TransportCounters transport;
    std::vector<VerbSnapshot> verbs;  ///< sorted by verb name
  };

  Snapshot Take() const;

 private:
  struct VerbStats {
    uint64_t requests = 0;
    uint64_t errors = 0;
    std::vector<double> ring;
    size_t next = 0;  ///< overwrite cursor once the ring is full
    double max_ms = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, VerbStats> verbs_;
  TransportCounters transport_;
};

/// The `stats` admin verb: `stats [--json]` (tokens[0] names its
/// VerbScope::kDaemonStats row). Routed here by the server instead of
/// ExecuteVerb (it needs the daemon's metrics, which no GraphSource
/// carries); the one-shot CLI reports it as daemon-only.
VerbResult HandleStatsVerb(const std::vector<std::string>& tokens,
                           const ServerMetrics& metrics);

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_METRICS_H_
