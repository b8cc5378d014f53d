// End-to-end bench of the rdfalignd service (ISSUE 7 acceptance): an
// in-process Server on an ephemeral port, driven over real TCP by the
// protocol Client, measuring what the resident snapshot cache buys.
//
// At each scale point two graph versions are generated and built into
// snapshots, then:
//
//   miss  : `cache clear` + `info <snap> --json` — every request pays a
//           cold load (file read, checksum verification, fingerprint);
//   hit   : the same request warm — the graph is served from residency;
//   mixed : N concurrent client connections each running a mixed verb
//           trace (info / align / diff / cache stats) against the shared
//           cache, for the requests/sec figure.
//
// Gates (exit nonzero on violation):
//   * every request succeeds with the CLI's exit code 0;
//   * a fixed serial request trace produces byte-identical response
//     bodies (timing lines scrubbed) against servers with 1, 2, 4, and 8
//     workers — the daemon must not change answers with its thread count;
//   * at the largest scale point >= 1.0, cache-hit p50 latency is at
//     least 5x faster than cache-miss p50 (at tiny smoke scales the TCP
//     round trip dominates both sides, so the ratio is only recorded).
//
// Emits BENCH_service.json; the checked-in copy at the repo root is the
// reference run, re-run at tiny scale by the service_bench_smoke ctest
// target.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "service/client.h"
#include "service/graph_source.h"
#include "service/server.h"
#include "service/verbs.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace rdfalign;

namespace {

struct PointResult {
  double scale_point = 0;
  size_t nodes = 0;
  size_t triples = 0;
  double miss_p50_ms = 0, miss_p95_ms = 0;
  double hit_p50_ms = 0, hit_p95_ms = 0;
  double hit_speedup_p50 = 0;
  double guarded_hit_p50_ms = 0, guarded_hit_p95_ms = 0;
  double guard_overhead_p50 = 0;
  size_t mixed_requests = 0;
  size_t mixed_clients = 0;
  double mixed_seconds = 0;
  double mixed_rps = 0;
  double mixed_p50_ms = 0, mixed_p95_ms = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  bool sweep_equal = false;
};

/// Drops the volatile (timing) lines from a response body so runs with
/// different worker counts compare byte-equal.
std::string ScrubTimings(const std::string& body) {
  static const std::regex volatile_line(
      "[^\n]*(_ms\"|seconds\"|loaded in |phases \\(ms\\)|parse |"
      "align time )[^\n]*\n");
  return std::regex_replace(body, volatile_line, "");
}

/// One timed request; records latency and checks exit code 0.
bool TimedCall(service::Client& client,
               const std::vector<std::string>& tokens,
               std::vector<double>* latencies_ms) {
  WallTimer timer;
  Result<service::ClientResponse> resp = client.Call(tokens);
  const double ms = timer.ElapsedMillis();
  if (!resp.ok()) {
    std::fprintf(stderr, "service_bench: %s failed: %s\n", tokens[0].c_str(),
                 resp.status().ToString().c_str());
    return false;
  }
  if (resp->exit_code != 0) {
    std::fprintf(stderr, "service_bench: %s exited %d: %s\n",
                 tokens[0].c_str(), resp->exit_code, resp->error.c_str());
    return false;
  }
  if (latencies_ms != nullptr) latencies_ms->push_back(ms);
  return true;
}

/// The fixed serial trace replayed against every worker count.
std::vector<std::vector<std::string>> SweepTrace(const std::string& v1,
                                                 const std::string& v2,
                                                 const std::string& delta) {
  return {
      {"info", v1, "--json"},
      {"info", v2, "--json"},
      {"align", v1, v2, "--method=trivial", "--json"},
      {"align", v1, v2, "--method=hybrid", "--json"},
      {"diff", v1, v2, delta, "--json"},
      {"info", delta, "--json"},
      {"align", v1, v2, "--method=hybrid"},
      {"cache", "stats", "--json"},
  };
}

/// Replays the trace serially against a fresh server with `workers`
/// worker threads; returns the scrubbed concatenation of all bodies.
bool RunSweepTrace(size_t workers, const std::string& v1,
                   const std::string& v2, const std::string& delta_prefix,
                   std::string* scrubbed) {
  service::ServerOptions options;
  options.port = 0;
  options.worker_threads = workers;
  service::Server server(options);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "service_bench: %s\n", st.ToString().c_str());
    return false;
  }
  Result<service::Client> client =
      service::Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) return false;
  const std::string delta =
      delta_prefix + "_w" + std::to_string(workers) + ".delta";
  scrubbed->clear();
  for (const std::vector<std::string>& tokens :
       SweepTrace(v1, v2, delta)) {
    Result<service::ClientResponse> resp = client->Call(tokens);
    if (!resp.ok() || resp->exit_code != 0) {
      std::fprintf(stderr, "service_bench: sweep %s failed (workers=%zu)\n",
                   tokens[0].c_str(), workers);
      return false;
    }
    // The delta path differs per worker count; normalize it away along
    // with the timings.
    std::string body = ScrubTimings(resp->body);
    size_t pos;
    while ((pos = body.find(delta)) != std::string::npos) {
      body.replace(pos, delta.size(), "<delta>");
    }
    *scrubbed += body;
  }
  std::filesystem::remove(delta);
  // Hang up before Stop(): the graceful drain waits for connected
  // clients, so an open connection here would stall the sweep.
  client->Close();
  server.Stop();
  return true;
}

bool RunPoint(double scale_point, size_t clients, size_t requests,
              size_t samples, const std::string& dir, PointResult* out) {
  PointResult r;
  r.scale_point = scale_point;

  // Build the two versioned snapshots with the verb layer itself.
  const std::string prefix = dir + "/sv";
  service::DirectGraphSource direct;
  char scale_flag[64];
  std::snprintf(scale_flag, sizeof(scale_flag), "--scale=%g", scale_point);
  if (service::ExecuteVerb({"gen", prefix, scale_flag, "--versions=2"},
                           &direct)
          .exit_code != 0) {
    return false;
  }
  const std::string v1 = prefix + "1.snap";
  const std::string v2 = prefix + "2.snap";
  for (int i = 1; i <= 2; ++i) {
    const std::string nt = prefix + std::to_string(i) + ".nt";
    const std::string snap = prefix + std::to_string(i) + ".snap";
    if (service::ExecuteVerb({"build", nt, snap}, &direct)
            .exit_code != 0) {
      return false;
    }
  }
  {
    Result<service::AcquiredGraph> g =
        direct.Acquire(v1, service::CommonOptions(), false);
    if (!g.ok()) return false;
    r.nodes = g.value().loaded->graph.NumNodes();
    r.triples = g.value().loaded->graph.NumEdges();
  }

  service::ServerOptions options;
  options.port = 0;
  options.worker_threads = std::max<size_t>(clients, 2);
  service::Server server(options);
  if (!server.Start().ok()) return false;
  Result<service::Client> client =
      service::Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) return false;

  // Cold loads: clear residency before every sample.
  std::vector<double> miss_ms, hit_ms;
  for (size_t i = 0; i < samples; ++i) {
    if (!TimedCall(*client, {"cache", "clear"}, nullptr)) return false;
    if (!TimedCall(*client, {"info", v1, "--json"}, &miss_ms)) return false;
  }
  // Warm hits: the first request re-loads, then everything is resident.
  if (!TimedCall(*client, {"info", v1, "--json"}, nullptr)) return false;
  for (size_t i = 0; i < samples; ++i) {
    if (!TimedCall(*client, {"info", v1, "--json"}, &hit_ms)) return false;
  }
  r.miss_p50_ms = Percentile(miss_ms, 0.50);
  r.miss_p95_ms = Percentile(miss_ms, 0.95);
  r.hit_p50_ms = Percentile(hit_ms, 0.50);
  r.hit_p95_ms = Percentile(hit_ms, 0.95);
  r.hit_speedup_p50 = r.hit_p50_ms > 0 ? r.miss_p50_ms / r.hit_p50_ms : 0;

  // Deadline/retry overhead on the happy path: the same warm-hit request
  // against a server with every robustness guard armed (per-frame
  // deadlines, connection cap, session linger) and a client carrying a
  // timeout plus a retry budget, sent through the idempotent-retry
  // wrapper. Nothing ever fires, so the ratio against hit_p50 is the
  // pure bookkeeping cost of the fault-tolerance layer (docs/robustness.md).
  {
    service::ServerOptions guarded_opts;
    guarded_opts.port = 0;
    guarded_opts.worker_threads = std::max<size_t>(clients, 2);
    guarded_opts.io_timeout_ms = 5000;
    guarded_opts.max_conns = 256;
    guarded_opts.session_linger_ms = 1000;
    service::Server guarded(guarded_opts);
    if (!guarded.Start().ok()) return false;
    service::ClientOptions copts;
    copts.timeout_ms = 5000;
    copts.retries = 2;
    Result<service::Client> gclient =
        service::Client::Connect("127.0.0.1", guarded.port(), copts);
    if (!gclient.ok()) return false;
    std::vector<double> guarded_ms;
    if (!TimedCall(*gclient, {"info", v1, "--json"}, nullptr)) return false;
    for (size_t i = 0; i < samples; ++i) {
      WallTimer timer;
      Result<service::ClientResponse> resp =
          gclient->CallIdempotent({"info", v1, "--json"});
      const double ms = timer.ElapsedMillis();
      if (!resp.ok() || resp->exit_code != 0) {
        std::fprintf(stderr, "service_bench: guarded info failed\n");
        return false;
      }
      guarded_ms.push_back(ms);
    }
    r.guarded_hit_p50_ms = Percentile(guarded_ms, 0.50);
    r.guarded_hit_p95_ms = Percentile(guarded_ms, 0.95);
    r.guard_overhead_p50 =
        r.hit_p50_ms > 0 ? r.guarded_hit_p50_ms / r.hit_p50_ms : 0;
    gclient->Close();
    guarded.Stop();
  }

  // Mixed concurrent traffic: every client connection interleaves cheap
  // info hits with full aligns, all against the shared cache.
  std::atomic<int> failures{0};
  std::vector<std::vector<double>> per_client_ms(clients);
  WallTimer mixed_timer;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Result<service::Client> c =
          service::Client::Connect("127.0.0.1", server.port());
      if (!c.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::vector<std::vector<std::string>> trace = {
          {"info", v1, "--json"},
          {"info", v2, "--json"},
          {"align", v1, v2, "--method=trivial", "--json"},
          {"cache", "stats", "--json"},
      };
      for (size_t i = 0; i < requests; ++i) {
        const auto& tokens = trace[(t + i) % trace.size()];
        if (!TimedCall(*c, tokens, &per_client_ms[t])) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  r.mixed_seconds = mixed_timer.ElapsedSeconds();
  if (failures.load() != 0) return false;

  std::vector<double> mixed_ms;
  for (const std::vector<double>& v : per_client_ms) {
    mixed_ms.insert(mixed_ms.end(), v.begin(), v.end());
  }
  r.mixed_requests = mixed_ms.size();
  r.mixed_clients = clients;
  r.mixed_rps =
      r.mixed_seconds > 0 ? r.mixed_requests / r.mixed_seconds : 0;
  r.mixed_p50_ms = Percentile(mixed_ms, 0.50);
  r.mixed_p95_ms = Percentile(mixed_ms, 0.95);
  const service::SnapshotCacheStats stats = server.cache()->stats();
  r.cache_hits = stats.hits;
  r.cache_misses = stats.misses;
  client->Close();
  server.Stop();

  // Worker-count sweep: the daemon's answers must not depend on its
  // thread count.
  std::string reference;
  r.sweep_equal = true;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    std::string scrubbed;
    if (!RunSweepTrace(workers, v1, v2, prefix, &scrubbed)) return false;
    if (reference.empty()) {
      reference = scrubbed;
    } else if (scrubbed != reference) {
      std::fprintf(stderr,
                   "service_bench: FAIL sweep(workers=%zu) body differs\n",
                   workers);
      r.sweep_equal = false;
    }
  }
  if (!r.sweep_equal) return false;

  for (int i = 1; i <= 2; ++i) {
    std::filesystem::remove(prefix + std::to_string(i) + ".nt");
    std::filesystem::remove(prefix + std::to_string(i) + ".snap");
  }
  *out = r;
  return true;
}

bool WriteJson(const std::string& path, const std::vector<PointResult>& points,
               double scale, size_t clients, size_t requests,
               size_t samples) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"service\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"clients\": %zu,\n", clients);
  std::fprintf(f, "  \"requests_per_client\": %zu,\n", requests);
  std::fprintf(f, "  \"latency_samples\": %zu,\n", samples);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"provenance\": \"loopback TCP wall clock, client and "
               "server on the same box; hardware_threads records the "
               "recording box — on a 1-core box concurrent clients "
               "time-slice, so mixed_rps understates a real deployment\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"scale_point\": %g,\n", r.scale_point);
    std::fprintf(f, "      \"nodes\": %zu,\n", r.nodes);
    std::fprintf(f, "      \"triples\": %zu,\n", r.triples);
    std::fprintf(f, "      \"miss_p50_ms\": %.3f,\n", r.miss_p50_ms);
    std::fprintf(f, "      \"miss_p95_ms\": %.3f,\n", r.miss_p95_ms);
    std::fprintf(f, "      \"hit_p50_ms\": %.3f,\n", r.hit_p50_ms);
    std::fprintf(f, "      \"hit_p95_ms\": %.3f,\n", r.hit_p95_ms);
    std::fprintf(f, "      \"hit_speedup_p50\": %.2f,\n", r.hit_speedup_p50);
    std::fprintf(f, "      \"guarded_hit_p50_ms\": %.3f,\n",
                 r.guarded_hit_p50_ms);
    std::fprintf(f, "      \"guarded_hit_p95_ms\": %.3f,\n",
                 r.guarded_hit_p95_ms);
    std::fprintf(f, "      \"guard_overhead_p50\": %.2f,\n",
                 r.guard_overhead_p50);
    std::fprintf(f, "      \"mixed_clients\": %zu,\n", r.mixed_clients);
    std::fprintf(f, "      \"mixed_requests\": %zu,\n", r.mixed_requests);
    std::fprintf(f, "      \"mixed_seconds\": %.3f,\n", r.mixed_seconds);
    std::fprintf(f, "      \"mixed_rps\": %.1f,\n", r.mixed_rps);
    std::fprintf(f, "      \"mixed_p50_ms\": %.3f,\n", r.mixed_p50_ms);
    std::fprintf(f, "      \"mixed_p95_ms\": %.3f,\n", r.mixed_p95_ms);
    std::fprintf(f, "      \"cache_hits\": %llu,\n",
                 (unsigned long long)r.cache_hits);
    std::fprintf(f, "      \"cache_misses\": %llu,\n",
                 (unsigned long long)r.cache_misses);
    std::fprintf(f, "      \"sweep_equal\": %s\n",
                 r.sweep_equal ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const size_t clients = flags.GetInt("clients", 4);
  const size_t requests = flags.GetInt("requests", 16);
  const size_t samples = flags.GetInt("samples", 9);
  const std::string out = flags.GetString("out", "BENCH_service.json");

  bench::Banner("service_bench",
                "rdfalignd over loopback TCP: cache miss vs hit latency, "
                "mixed concurrent verb traffic, worker-count response "
                "identity");

  const std::string dir =
      std::filesystem::temp_directory_path() / "rdfalign_service_bench";
  std::filesystem::create_directories(dir);

  // Three points up to --scale; the largest carries the speedup gate.
  std::vector<double> scale_points;
  for (double factor : {0.25, 0.5, 1.0}) {
    const double point = scale * factor;
    if (scale_points.empty() || point > scale_points.back()) {
      scale_points.push_back(point);
    }
  }

  bench::TablePrinter table({"scale", "triples", "miss_p50", "hit_p50",
                             "speedup", "guard", "rps", "sweep"});
  std::vector<PointResult> points;
  for (double point : scale_points) {
    PointResult r;
    if (!RunPoint(point, clients, requests, samples, dir, &r)) {
      std::fprintf(stderr, "service_bench: FAIL at scale %g\n", point);
      return 1;
    }
    table.Row({bench::Fmt("%.3g", r.scale_point), bench::FmtInt(r.triples),
               bench::Fmt("%.3f", r.miss_p50_ms),
               bench::Fmt("%.3f", r.hit_p50_ms),
               bench::Fmt("%.1fx", r.hit_speedup_p50),
               bench::Fmt("%.2fx", r.guard_overhead_p50),
               bench::Fmt("%.0f", r.mixed_rps),
               r.sweep_equal ? "yes" : "NO"});
    points.push_back(r);
  }

  // The acceptance gate: at a real scale the resident cache must be
  // worth at least 5x on p50 load latency. Tiny smoke scales only record
  // the ratio — the TCP round trip dominates micro-loads.
  const PointResult& largest = points.back();
  if (largest.scale_point >= 1.0 && largest.hit_speedup_p50 < 5.0) {
    std::fprintf(stderr,
                 "service_bench: FAIL hit p50 %.3f ms is only %.2fx faster "
                 "than miss p50 %.3f ms (gate: >= 5x)\n",
                 largest.hit_p50_ms, largest.hit_speedup_p50,
                 largest.miss_p50_ms);
    return 1;
  }

  if (!WriteJson(out, points, scale, clients, requests, samples)) return 1;
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
