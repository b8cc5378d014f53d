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
// Gates (exit nonzero, without writing the JSON, on violation):
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

using namespace rdfalign;

namespace {

/// Drops the volatile (timing) lines from a response body so runs with
/// different worker counts compare byte-equal.
std::string ScrubTimings(const std::string& body) {
  static const std::regex volatile_line(
      "[^\n]*(_ms\"|seconds\"|loaded in |phases \\(ms\\)|parse |"
      "align time )[^\n]*\n");
  return std::regex_replace(body, volatile_line, "");
}

/// One request through `call`; true when it succeeds with exit code 0.
template <typename Call>
bool Succeeds(const std::vector<std::string>& tokens, Call&& call) {
  Result<service::ClientResponse> resp = call(tokens);
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
  return true;
}

bool Succeeds(service::Client& client,
              const std::vector<std::string>& tokens) {
  return Succeeds(tokens, [&](const auto& t) { return client.Call(t); });
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
  // Hang up before Stop(): the graceful drain waits for connected
  // clients, so an open connection here would stall the sweep.
  client->Close();
  server.Stop();
  return true;
}

bool RunPoint(bench::Report& report, const bench::ScratchDir& scratch,
              double scale_point, bool largest, size_t clients,
              size_t requests, size_t samples) {
  // Build the two versioned snapshots with the verb layer itself.
  const std::string prefix = scratch.Path("sv");
  service::DirectGraphSource direct;
  if (service::ExecuteVerb({"gen", prefix,
                            "--scale=" + bench::Fmt("%g", scale_point),
                            "--versions=2"},
                           &direct)
          .exit_code != 0) {
    return false;
  }
  const std::string v1 = prefix + "1.snap";
  const std::string v2 = prefix + "2.snap";
  for (const char* v : {"1", "2"}) {
    const std::string stem = prefix + v;
    if (service::ExecuteVerb({"build", stem + ".nt", stem + ".snap"}, &direct)
            .exit_code != 0) {
      return false;
    }
  }
  Result<service::AcquiredGraph> g1 =
      direct.Acquire(v1, service::CommonOptions(), false);
  if (!g1.ok()) return false;
  const TripleGraph& graph = g1.value().loaded->graph;

  service::ServerOptions options;
  options.port = 0;
  options.worker_threads = std::max<size_t>(clients, 2);
  service::Server server(options);
  if (!server.Start().ok()) return false;
  Result<service::Client> client =
      service::Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) return false;
  const std::vector<std::string> info = {"info", v1, "--json"};

  // Cold loads: clear residency before every sample.
  const bench::Timing miss = bench::Time(
      samples, 0, [&] { return Succeeds(*client, info); },
      [&] { return Succeeds(*client, {"cache", "clear"}); });
  // Warm hits: the warm-up request re-loads, then everything is resident.
  const bench::Timing hit =
      bench::Time(samples, 1, [&] { return Succeeds(*client, info); });
  if (!miss.ok || !hit.ok) return false;

  // Deadline/retry overhead on the happy path: the same warm-hit request
  // against a server with every robustness guard armed (per-frame
  // deadlines, connection cap, session linger) and a client carrying a
  // timeout plus a retry budget, sent through the idempotent-retry
  // wrapper. Nothing ever fires, so the ratio against hit_p50 is the
  // pure bookkeeping cost of the fault-tolerance layer (docs/robustness.md).
  service::ServerOptions guarded_opts = options;
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
  const bench::Timing guarded_hit = bench::Time(samples, 1, [&] {
    return Succeeds(info, [&](const auto& t) {
      return gclient->CallIdempotent(t);
    });
  });
  gclient->Close();
  guarded.Stop();
  if (!guarded_hit.ok) return false;

  // Mixed concurrent traffic: every client connection interleaves cheap
  // info hits with full aligns, all against the shared cache.
  std::atomic<int> failures{0};
  std::vector<bench::Timing> per_client(clients);
  const bench::Timing mixed_wall = bench::Time(1, 0, [&] {
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
            info,
            {"info", v2, "--json"},
            {"align", v1, v2, "--method=trivial", "--json"},
            {"cache", "stats", "--json"},
        };
        size_t i = t;
        per_client[t] = bench::Time(requests, 0, [&] {
          return Succeeds(*c, trace[i++ % trace.size()]);
        });
        if (!per_client[t].ok) failures.fetch_add(1);
      });
    }
    for (std::thread& th : threads) th.join();
  });
  if (failures.load() != 0) return false;
  std::vector<double> mixed_ms;
  for (const bench::Timing& t : per_client) {
    mixed_ms.insert(mixed_ms.end(), t.samples_ms.begin(), t.samples_ms.end());
  }
  const bench::Timing mixed = bench::Summarize(std::move(mixed_ms));
  const double mixed_seconds = mixed_wall.min_ms / 1000.0;
  const service::SnapshotCacheStats cache = server.cache()->stats();
  client->Close();
  server.Stop();

  // Worker-count sweep: the daemon's answers must not depend on its
  // thread count.
  std::string reference;
  bool sweep_equal = true;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    std::string scrubbed;
    if (!RunSweepTrace(workers, v1, v2, prefix, &scrubbed)) return false;
    if (reference.empty()) {
      reference = scrubbed;
    } else if (scrubbed != reference) {
      sweep_equal = report.Gate(false, "sweep(workers=" +
                                           std::to_string(workers) +
                                           ") body differs at scale " +
                                           bench::Fmt("%g", scale_point));
    }
  }

  const double hit_speedup = bench::Ratio(miss.p50_ms, hit.p50_ms);
  report.Add(
      "points",
      bench::Row()
          .Num("scale_point", scale_point, "scale")
          .Int("nodes", graph.NumNodes())
          .Int("triples", graph.NumEdges(), "triples")
          .Num("miss_p50_ms", miss.p50_ms, 3, "miss_p50")
          .Num("miss_p95_ms", miss.p95_ms, 3)
          .Num("hit_p50_ms", hit.p50_ms, 3, "hit_p50")
          .Num("hit_p95_ms", hit.p95_ms, 3)
          .Num("hit_speedup_p50", hit_speedup, 2, "speedup")
          .Num("guarded_hit_p50_ms", guarded_hit.p50_ms, 3)
          .Num("guarded_hit_p95_ms", guarded_hit.p95_ms, 3)
          .Num("guard_overhead_p50",
               bench::Ratio(guarded_hit.p50_ms, hit.p50_ms), 2, "guard")
          .Int("mixed_clients", clients)
          .Int("mixed_requests", mixed.samples_ms.size())
          .Num("mixed_seconds", mixed_seconds, 3)
          .Num("mixed_rps",
               bench::Ratio(mixed.samples_ms.size(), mixed_seconds), 1, "rps")
          .Num("mixed_p50_ms", mixed.p50_ms, 3)
          .Num("mixed_p95_ms", mixed.p95_ms, 3)
          .Int("cache_hits", cache.hits)
          .Int("cache_misses", cache.misses)
          .Bool("sweep_equal", sweep_equal, "sweep"));
  // The acceptance gate: at a real scale the resident cache must be
  // worth at least 5x on p50 load latency at the largest point. Tiny
  // smoke scales only record the ratio — the TCP round trip dominates
  // micro-loads.
  report.Gate(!largest || scale_point < 1.0 || hit_speedup >= 5.0,
              "hit p50 " + bench::Fmt("%.3f", hit.p50_ms) + " ms is only " +
                  bench::Fmt("%.2f", hit_speedup) + "x faster than miss p50 " +
                  bench::Fmt("%.3f", miss.p50_ms) + " ms (gate: >= 5x)");
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
  bench::Report report(
      "service", {"points"},
      "loopback TCP wall clock, client and server on the same box; "
      "hardware_threads records the recording box — on a 1-core box "
      "concurrent clients time-slice, so mixed_rps understates a real "
      "deployment");
  report.params()
      .Num("scale", scale)
      .Int("clients", clients)
      .Int("requests_per_client", requests)
      .Int("latency_samples", samples);
  const bench::ScratchDir scratch("rdfalign_service_bench");

  // Three points up to --scale; the largest carries the speedup gate.
  std::vector<double> scale_points;
  for (double factor : {0.25, 0.5, 1.0}) {
    const double point = scale * factor;
    if (scale_points.empty() || point > scale_points.back()) {
      scale_points.push_back(point);
    }
  }
  for (double point : scale_points) {
    if (!RunPoint(report, scratch, point, point == scale_points.back(),
                  clients, requests, samples)) {
      std::fprintf(stderr, "service_bench: FAIL at scale %g\n", point);
      return 1;
    }
  }
  return report.Finish(out);
}
