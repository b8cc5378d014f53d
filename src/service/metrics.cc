#include "service/metrics.h"

#include "service/json.h"
#include "util/string_util.h"
#include "util/stats.h"

namespace rdfalign::service {

void ServerMetrics::Record(const std::string& verb, bool error,
                           double latency_ms) {
  // Names outside the verb table share one row, so a client sending
  // arbitrary verbs cannot grow the map (and every `stats` body).
  const std::string row = verb.empty()                ? "(empty)"
                          : FindVerb(verb) == nullptr ? "(unknown)"
                                                      : verb;
  std::lock_guard<std::mutex> lock(mu_);
  VerbStats& s = verbs_[row];
  ++s.requests;
  if (error) ++s.errors;
  if (latency_ms > s.max_ms) s.max_ms = latency_ms;
  if (s.ring.size() < kMaxSamples) {
    s.ring.push_back(latency_ms);
  } else {
    s.ring[s.next] = latency_ms;
    s.next = (s.next + 1) % kMaxSamples;
  }
}

void ServerMetrics::Bump(uint64_t TransportCounters::*field) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(transport_.*field);
}

ServerMetrics::Snapshot ServerMetrics::Take() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot out;
  out.transport = transport_;
  for (const auto& [verb, s] : verbs_) {
    VerbSnapshot v;
    v.verb = verb;
    v.requests = s.requests;
    v.errors = s.errors;
    v.samples = s.ring.size();
    v.p50_ms = Percentile(s.ring, 0.50);
    v.p95_ms = Percentile(s.ring, 0.95);
    v.p99_ms = Percentile(s.ring, 0.99);
    v.max_ms = s.max_ms;
    out.total_requests += s.requests;
    out.total_errors += s.errors;
    out.verbs.push_back(std::move(v));
  }
  return out;
}

namespace {

std::string StatsToJson(const ServerMetrics::Snapshot& s) {
  const TransportCounters& t = s.transport;
  JsonBuf b;
  b.Int("total_requests", s.total_requests)
      .Int("total_errors", s.total_errors)
      .Object("transport")
      .Int("accept_retries", t.accept_retries)
      .Int("load_shed", t.load_shed)
      .Int("io_timeouts", t.io_timeouts)
      .Int("protocol_errors", t.protocol_errors)
      .Int("sessions_parked", t.sessions_parked)
      .Int("sessions_resumed", t.sessions_resumed)
      .Int("sessions_expired", t.sessions_expired)
      .End()
      .Array("verbs");
  for (const auto& v : s.verbs) {
    b.Item()
        .Str("verb", v.verb)
        .Int("requests", v.requests)
        .Int("errors", v.errors)
        .Int("samples", v.samples)
        .Num("p50_ms", v.p50_ms, 3)
        .Num("p95_ms", v.p95_ms, 3)
        .Num("p99_ms", v.p99_ms, 3)
        .Num("max_ms", v.max_ms, 3)
        .End();
  }
  return b.Take();
}

std::string StatsToText(const ServerMetrics::Snapshot& s) {
  std::string out;
  StrAppendf(&out, "rdfalignd stats: %llu requests, %llu errors\n",
             (unsigned long long)s.total_requests,
             (unsigned long long)s.total_errors);
  const TransportCounters& t = s.transport;
  StrAppendf(&out,
             "  transport accept_retries=%llu load_shed=%llu "
             "io_timeouts=%llu protocol_errors=%llu parked=%llu "
             "resumed=%llu expired=%llu\n",
             (unsigned long long)t.accept_retries,
             (unsigned long long)t.load_shed,
             (unsigned long long)t.io_timeouts,
             (unsigned long long)t.protocol_errors,
             (unsigned long long)t.sessions_parked,
             (unsigned long long)t.sessions_resumed,
             (unsigned long long)t.sessions_expired);
  for (const auto& v : s.verbs) {
    StrAppendf(&out,
               "  %-8s requests=%-6llu errors=%-4llu p50=%.3fms p95=%.3fms "
               "p99=%.3fms max=%.3fms\n",
               v.verb.c_str(), (unsigned long long)v.requests,
               (unsigned long long)v.errors, v.p50_ms, v.p95_ms, v.p99_ms,
               v.max_ms);
  }
  return out;
}

}  // namespace

VerbResult HandleStatsVerb(const std::vector<std::string>& tokens,
                           const ServerMetrics& metrics) {
  VerbResult result;
  result.verb = tokens[0];
  const Args args(std::vector<std::string>(tokens.begin() + 1, tokens.end()));
  if (!CheckVerbArgs(*FindVerb(tokens[0]), args, &result)) return result;
  const ServerMetrics::Snapshot snapshot = metrics.Take();
  result.output =
      args.Has("json") ? StatsToJson(snapshot) : StatsToText(snapshot);
  return result;
}

}  // namespace rdfalign::service
