// End-to-end service coverage: a real Server on an ephemeral port driven
// through the Client — protocol round-trips, CLI-parity of bodies and
// exit codes, persistent connections, concurrent clients sharing the
// cache, endpoint parsing, and graceful Stop() with requests in flight.

#include "service/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/graph_source.h"
#include "service/protocol.h"
#include "service/verbs.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"

namespace rdfalign::service {
namespace {

std::string ScratchPrefix() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_service_" + info->name();
}

std::string ScrubTimings(const std::string& body) {
  static const std::regex volatile_line(
      "[^\n]*(_ms\"|seconds\"|loaded in |phases \\(ms\\)|parse |"
      "align time )[^\n]*\n");
  return std::regex_replace(body, volatile_line, "");
}

/// gen + build two snapshots in-process (no server involved).
std::pair<std::string, std::string> MakeVersionPair(
    const std::string& prefix) {
  DirectGraphSource direct;
  EXPECT_EQ(ExecuteVerb({"gen", prefix, "--scale=0.02", "--versions=2"},
                        &direct)
                .exit_code,
            0);
  const std::string v1 = prefix + "1.snap";
  const std::string v2 = prefix + "2.snap";
  EXPECT_EQ(
      ExecuteVerb({"build", prefix + "1.nt", v1}, &direct).exit_code,
      0);
  EXPECT_EQ(
      ExecuteVerb({"build", prefix + "2.nt", v2}, &direct).exit_code,
      0);
  return {v1, v2};
}

void RemoveChain(const std::string& prefix) {
  for (const char* suffix : {"1.nt", "2.nt", "1.snap", "2.snap"}) {
    std::remove((prefix + suffix).c_str());
  }
}

class ServiceTest : public ::testing::Test {
 protected:
  void StartServer(size_t workers = 4, uint64_t drain_ms = 30000) {
    ServerOptions options;
    options.port = 0;
    options.worker_threads = workers;
    options.drain_ms = drain_ms;
    server_ = std::make_unique<Server>(options);
    Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  Client Connect() {
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServiceTest, RoundTripsEveryVerbWithCliParity) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  StartServer();
  Client client = Connect();
  DirectGraphSource direct;

  for (const std::vector<std::string>& tokens :
       {std::vector<std::string>{"info", v1, "--json"},
        {"info", v1},
        {"align", v1, v2, "--method=hybrid", "--json"},
        {"align", v1, v2, "--method=deblank"},
        {"diff", v1, v2, prefix + ".delta", "--json"},
        {"patch", v1, prefix + ".delta", prefix + "_r.snap", "--json"},
        {"info", prefix + ".delta"}}) {
    Result<ClientResponse> resp = client.Call(tokens);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_TRUE(resp->ok);
    EXPECT_EQ(resp->exit_code, 0) << resp->error;
    EXPECT_EQ(resp->verb, tokens[0]);

    // The daemon's body is what the CLI would have printed (modulo
    // timings) — the two front ends share one renderer.
    const VerbResult local = ExecuteVerb(tokens, &direct);
    EXPECT_EQ(ScrubTimings(resp->body), ScrubTimings(local.output))
        << tokens[0];
  }

  // The daemon reports its cache working: a second info on the same
  // snapshot is a pure hit.
  Result<ClientResponse> warm = client.Call({"info", v1, "--json"});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_hits, 1u);
  EXPECT_EQ(warm->cache_misses, 0u);

  RemoveChain(prefix);
  std::remove((prefix + ".delta").c_str());
  std::remove((prefix + "_r.snap").c_str());
}

TEST_F(ServiceTest, ErrorsKeepCliExitCodes) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  const std::string delta = prefix + ".delta";
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Call({"diff", v1, v2, delta}).ok());

  struct Case {
    std::vector<std::string> tokens;
    int want_exit;
    bool want_usage;
  };
  const Case cases[] = {
      {{"frobnicate"}, 2, true},
      {{"align", v1}, 2, true},
      {{"align", v1, v2, "--threads=zomg"}, 2, false},
      {{"align", v1, "/nonexistent"}, 1, false},
      {{"patch", v2, delta, prefix + "_bad.snap"}, 2, false},
      {{"cache", "frob"}, 2, false},
  };
  for (const Case& c : cases) {
    Result<ClientResponse> resp = client.Call(c.tokens);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->exit_code, c.want_exit) << c.tokens[0];
    EXPECT_EQ(resp->usage_error, c.want_usage) << c.tokens[0];
    // Non-usage failures always carry a message (bare usage errors show
    // only the synopsis).
    if (!c.want_usage) EXPECT_FALSE(resp->error.empty()) << c.tokens[0];
  }
  // One connection survives any number of failed requests.
  Result<ClientResponse> ok_again = client.Call({"info", v1});
  ASSERT_TRUE(ok_again.ok());
  EXPECT_EQ(ok_again->exit_code, 0);

  RemoveChain(prefix);
  std::remove(delta.c_str());
}

// The cache is shared by every client, so no request chooses how it
// loads. A mapped entry would fault the daemon once its file is truncated
// in place and a later request reaches the entry through a byte copy (the
// fingerprint lookup); the cache owns its bytes instead.
TEST_F(ServiceTest, RequestFlagsCannotChooseHowTheCacheLoads) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  const std::string copy = prefix + "_copy.snap";
  std::filesystem::copy_file(v1, copy,
                             std::filesystem::copy_options::overwrite_existing);
  StartServer();
  Client client = Connect();
  for (const std::string flag : {"--mmap", "--no-verify-checksums"}) {
    Result<ClientResponse> resp = client.Call({"align", v1, v2, flag});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->exit_code, 2) << flag;
    EXPECT_EQ(resp->error, "rdfalign: unknown flag " + flag);
  }

  Result<ClientResponse> first = client.Call({"align", v1, v2, "--json"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->exit_code, 0) << first->error;
  std::filesystem::resize_file(v1, 0);
  Result<ClientResponse> again = client.Call({"align", copy, v2, "--json"});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->exit_code, 0) << again->error;
  std::string body = again->body;
  for (size_t at; (at = body.find(copy)) != std::string::npos;) {
    body.replace(at, copy.size(), v1);
  }
  EXPECT_EQ(ScrubTimings(body), ScrubTimings(first->body));

  Result<ClientResponse> stats = client.Call({"stats"});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->exit_code, 0);

  RemoveChain(prefix);
  std::remove(copy.c_str());
}

// Section checksums are verified on every load, and no request can turn
// them off: once a client asked for an unverified load of a corrupted
// snapshot, the cache would serve it to every later client.
TEST_F(ServiceTest, CorruptSnapshotIsRefusedOnEveryRequest) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  Result<store::SnapshotInfo> info = store::ReadSnapshotInfo(v1);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const store::SnapshotSectionInfo& blob = info->sections[1];
  ASSERT_EQ(blob.id, store::SectionId::kTermBlob);
  ASSERT_GT(blob.size, 0u);
  {
    // Raise the last term's last byte, checksums left as they are: the
    // terms stay strictly ascending, so only the checksum can object.
    std::fstream file(v1, std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(blob.offset + blob.size - 1);
    char byte = 0;
    file.seekg(at);
    file.get(byte);
    file.seekp(at);
    file.put(static_cast<char>(byte + 1));
    ASSERT_TRUE(file.good());
  }
  StartServer();
  Client client = Connect();
  const std::vector<std::vector<std::string>> requests = {
      {"info", v1},
      {"info", v1, "--json"},
      {"align", v1, v2},
      {"align", v1, v2, "--no-verify-checksums"},
      {"info", v1, "--json"},
      {"align", v1, v2},
      {"updates", v1, v2, prefix + ".rdfu"},
  };
  for (const std::vector<std::string>& tokens : requests) {
    Result<ClientResponse> resp = client.Call(tokens);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (tokens.back() == "--no-verify-checksums") {
      EXPECT_EQ(resp->exit_code, 2);
      EXPECT_EQ(resp->error, "rdfalign: unknown flag --no-verify-checksums");
      continue;
    }
    EXPECT_EQ(resp->exit_code, 1) << tokens[0];
    EXPECT_NE(resp->error.find("checksum mismatch"), std::string::npos)
        << tokens[0] << ": " << resp->error;
  }

  RemoveChain(prefix);
  std::remove((prefix + ".rdfu").c_str());
}

TEST_F(ServiceTest, CacheVerbObservesAndClearsResidency) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  StartServer();
  Client client = Connect();

  ASSERT_TRUE(client.Call({"info", v1, "--json"}).ok());
  ASSERT_TRUE(client.Call({"info", v2, "--json"}).ok());

  Result<ClientResponse> stats = client.Call({"cache", "stats", "--json"});
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"entries\": 2"), std::string::npos)
      << stats->body;

  Result<ClientResponse> clear = client.Call({"cache", "clear"});
  ASSERT_TRUE(clear.ok());
  EXPECT_EQ(clear->exit_code, 0);

  Result<ClientResponse> after = client.Call({"cache", "stats", "--json"});
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->body.find("\"entries\": 0"), std::string::npos);

  RemoveChain(prefix);
}

TEST_F(ServiceTest, ConcurrentClientsShareTheCache) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  StartServer(4);

  constexpr size_t kClients = 4;
  constexpr int kRequests = 8;
  std::atomic<int> failures{0};
  std::string first_body;
  {
    // Warm the cache and capture the canonical body once.
    Client warm = Connect();
    Result<ClientResponse> resp =
        warm.Call({"align", v1, v2, "--method=hybrid", "--json"});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    first_body = ScrubTimings(resp->body);
  }

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Result<Client> client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(kRequests);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        Result<ClientResponse> resp =
            client->Call({"align", v1, v2, "--method=hybrid", "--json"});
        if (!resp.ok() || resp->exit_code != 0 ||
            ScrubTimings(resp->body) != first_body) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Everything after the warm-up ran from residency: two snapshots, two
  // misses, all other acquires hits.
  const SnapshotCacheStats stats = server_->cache()->stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u * (kClients * kRequests));

  RemoveChain(prefix);
}

TEST_F(ServiceTest, StopDeliversInFlightResponses) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  StartServer(2);

  // Fire a burst of requests, then Stop() while some are still being
  // served: every request that was written must still get its response.
  constexpr size_t kClients = 3;
  std::atomic<int> completed{0}, broken{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Result<Client> client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) return;  // stop may already have closed the door
      Result<ClientResponse> resp =
          client->Call({"align", v1, v2, "--method=hybrid"});
      if (resp.ok() && resp->exit_code == 0) {
        completed.fetch_add(1);
      } else {
        broken.fetch_add(1);
      }
    });
  }
  // Let the requests reach the server, then shut down under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_->Stop();
  for (std::thread& th : threads) th.join();

  // No half-written responses: a request either completed normally or
  // never got through (connection refused after the listener closed).
  EXPECT_EQ(broken.load(), 0);
  EXPECT_GT(completed.load(), 0);

  // Stop is idempotent and the port is released for a fresh server.
  server_->Stop();
  RemoveChain(prefix);
}

TEST_F(ServiceTest, StatsVerbReportsPerVerbCounters) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  StartServer();
  Client client = Connect();

  ASSERT_TRUE(client.Call({"info", v1, "--json"}).ok());
  ASSERT_TRUE(client.Call({"info", v1, "--json"}).ok());
  Result<ClientResponse> bad = client.Call({"align", v1, "/nonexistent"});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->exit_code, 1);

  Result<ClientResponse> stats = client.Call({"stats", "--json"});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->exit_code, 0);
  EXPECT_NE(stats->body.find("\"total_requests\": 3"), std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find("\"total_errors\": 1"), std::string::npos);
  EXPECT_NE(stats->body.find(
                "\"verb\": \"align\", \"requests\": 1, \"errors\": 1"),
            std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find(
                "\"verb\": \"info\", \"requests\": 2, \"errors\": 0"),
            std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find("\"p50_ms\""), std::string::npos);

  Result<ClientResponse> text = client.Call({"stats"});
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->body.find("rdfalignd stats:"), std::string::npos);

  Result<ClientResponse> usage = client.Call({"stats", "--frob"});
  ASSERT_TRUE(usage.ok());
  EXPECT_EQ(usage->exit_code, 2);

  // Off-daemon, the verb can only point at the daemon.
  DirectGraphSource direct;
  EXPECT_EQ(ExecuteVerb({"stats"}, &direct).exit_code, 1);

  RemoveChain(prefix);
}

// Per-verb metrics are keyed by the verb table, not by whatever a client
// sends: 50 distinct bogus verbs share one "(unknown)" row instead of
// adding 50 permanent rows to every later `stats` body.
TEST_F(ServiceTest, StatsBoundsUnknownVerbsToOneRow) {
  StartServer(1);
  Client client = Connect();
  for (int i = 0; i < 50; ++i) {
    Result<ClientResponse> resp = client.Call({"bogus" + std::to_string(i)});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->exit_code, 2);
  }
  Result<ClientResponse> stats = client.Call({"stats", "--json"});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string& body = stats->body;
  EXPECT_NE(body.find("{\"verb\": \"(unknown)\", \"requests\": 50, "
                      "\"errors\": 50,"),
            std::string::npos)
      << body;
  EXPECT_EQ(body.find("bogus"), std::string::npos) << body;
  size_t rows = 0;
  for (size_t at = body.find("\"verb\": "); at != std::string::npos;
       at = body.find("\"verb\": ", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 1u) << body;  // `stats` itself is recorded after replying
}

/// gen + build a three-version chain plus the two update fragments
/// between consecutive versions.
struct StreamChainFiles {
  std::string v1, v2, v3;
  std::string u1, u2;
};

StreamChainFiles MakeStreamChain(const std::string& prefix) {
  DirectGraphSource direct;
  EXPECT_EQ(ExecuteVerb({"gen", prefix, "--scale=0.02", "--versions=3"},
                        &direct)
                .exit_code,
            0);
  StreamChainFiles f;
  f.v1 = prefix + "1.snap";
  f.v2 = prefix + "2.snap";
  f.v3 = prefix + "3.snap";
  for (int i = 1; i <= 3; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(ExecuteVerb({"build", prefix + n + ".nt", prefix + n + ".snap"},
                          &direct)
                  .exit_code,
              0);
  }
  f.u1 = prefix + "_1.upd";
  f.u2 = prefix + "_2.upd";
  EXPECT_EQ(
      ExecuteVerb({"updates", f.v1, f.v2, f.u1, "--seq=1"}, &direct)
          .exit_code,
      0);
  EXPECT_EQ(
      ExecuteVerb({"updates", f.v2, f.v3, f.u2, "--seq=2"}, &direct)
          .exit_code,
      0);
  return f;
}

void RemoveStreamChain(const std::string& prefix,
                       const StreamChainFiles& f) {
  for (int i = 1; i <= 3; ++i) {
    const std::string n = std::to_string(i);
    std::remove((prefix + n + ".nt").c_str());
    std::remove((prefix + n + ".snap").c_str());
  }
  std::remove(f.u1.c_str());
  std::remove(f.u2.c_str());
}

TEST_F(ServiceTest, StreamSessionMaintainsAlignmentOverDaemon) {
  const std::string prefix = ScratchPrefix();
  const StreamChainFiles f = MakeStreamChain(prefix);
  StartServer();
  Client client = Connect();

  // Pushing without a session is an error, not a crash.
  Result<std::string> frag1 = store::ReadFileBytes(f.u1);
  ASSERT_TRUE(frag1.ok());
  Result<ClientResponse> stray =
      client.CallWithPayload({"stream", "push"}, *frag1);
  ASSERT_TRUE(stray.ok());
  EXPECT_EQ(stray->exit_code, 1);

  Result<ClientResponse> open =
      client.Call({"stream", "open", f.v1, f.v1, "--method=deblank"});
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_EQ(open->exit_code, 0) << open->error;
  EXPECT_NE(open->body.find("stream open"), std::string::npos);

  // Double-open on one connection is rejected; the session survives.
  Result<ClientResponse> reopen =
      client.Call({"stream", "open", f.v1, f.v1});
  ASSERT_TRUE(reopen.ok());
  EXPECT_EQ(reopen->exit_code, 1);

  for (const std::string& path : {f.u1, f.u2}) {
    Result<std::string> bytes = store::ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    Result<ClientResponse> push =
        client.CallWithPayload({"stream", "push", "--json"}, *bytes);
    ASSERT_TRUE(push.ok()) << push.status().ToString();
    ASSERT_EQ(push->exit_code, 0) << push->error;
    EXPECT_NE(push->body.find("\"applied_adds\""), std::string::npos);
    EXPECT_NE(push->body.find("\"added_pairs\""), std::string::npos);
  }

  Result<ClientResponse> check =
      client.Call({"stream", "check", f.v3, "--json"});
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_EQ(check->exit_code, 0) << check->error;
  EXPECT_NE(check->body.find("\"equivalent\": true"), std::string::npos)
      << check->body;

  Result<ClientResponse> stats = client.Call({"stream", "stats"});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->exit_code, 0);
  EXPECT_NE(stats->body.find("2 fragments"), std::string::npos)
      << stats->body;

  Result<ClientResponse> close = client.Call({"stream", "close"});
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(close->exit_code, 0);

  // After close the connection is back to a clean slate: a fresh open
  // works.
  ASSERT_TRUE(client.Call({"stream", "open", f.v1, f.v1}).ok());

  // A corrupt fragment is rejected at decode time — nothing was applied,
  // so the session stays usable.
  std::string corrupt = *frag1;
  corrupt[corrupt.size() / 2] ^= 0x7f;
  Result<ClientResponse> broken =
      client.CallWithPayload({"stream", "push"}, corrupt);
  ASSERT_TRUE(broken.ok());
  EXPECT_EQ(broken->exit_code, 1);
  Result<ClientResponse> alive = client.Call({"stream", "stats"});
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive->exit_code, 0);

  // A valid fragment applied out of order (u2 against v1 state) fails
  // mid-apply; that is fatal and closes the session.
  Result<std::string> frag2 = store::ReadFileBytes(f.u2);
  ASSERT_TRUE(frag2.ok());
  Result<ClientResponse> fatal =
      client.CallWithPayload({"stream", "push"}, *frag2);
  ASSERT_TRUE(fatal.ok());
  EXPECT_EQ(fatal->exit_code, 1);
  EXPECT_NE(fatal->error.find("session closed"), std::string::npos)
      << fatal->error;
  Result<ClientResponse> after = client.Call({"stream", "stats"});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->exit_code, 1);  // the session is gone

  RemoveStreamChain(prefix, f);
}

TEST_F(ServiceTest, StopDrainsOpenStreamSessions) {
  const std::string prefix = ScratchPrefix();
  const StreamChainFiles f = MakeStreamChain(prefix);
  StartServer(2);
  Client client = Connect();
  ASSERT_TRUE(client.Call({"stream", "open", f.v1, f.v1}).ok());

  // SIGTERM-style shutdown with the stream session still open: Stop()
  // must wait for the client, who keeps getting served meanwhile.
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server_->Stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load());  // draining, not dead

  Result<std::string> bytes = store::ReadFileBytes(f.u1);
  ASSERT_TRUE(bytes.ok());
  Result<ClientResponse> push =
      client.CallWithPayload({"stream", "push"}, *bytes);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->exit_code, 0) << push->error;
  Result<ClientResponse> close = client.Call({"stream", "close"});
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(close->exit_code, 0);

  client.Close();  // the drain completes only when the client hangs up
  stopper.join();
  EXPECT_TRUE(stopped.load());
  RemoveStreamChain(prefix, f);
}

TEST_F(ServiceTest, StopDeadlineForcesIdleConnections) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  StartServer(2, /*drain_ms=*/100);
  Client client = Connect();
  ASSERT_TRUE(client.Call({"info", v1}).ok());

  // The client never hangs up; the drain deadline must cut it loose.
  const auto start = std::chrono::steady_clock::now();
  server_->Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 90);
  EXPECT_LT(elapsed.count(), 5000);
  EXPECT_FALSE(client.Call({"info", v1}).ok());
  RemoveChain(prefix);
}

TEST(ServiceProtocolTest, ParseEndpointForms) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(ParseEndpoint("7464", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7464);
  EXPECT_TRUE(ParseEndpoint("10.1.2.3:99", &host, &port).ok());
  EXPECT_EQ(host, "10.1.2.3");
  EXPECT_EQ(port, 99);
  for (const char* bad : {"", "host:", ":", "0", "65536", "x", "1:2:x"}) {
    EXPECT_FALSE(ParseEndpoint(bad, &host, &port).ok()) << bad;
  }
}

TEST(ServiceProtocolTest, RequestTokensRoundTrip) {
  const std::vector<std::string> tokens{"align", "a.snap", "b.snap",
                                        "--json"};
  EXPECT_EQ(DecodeRequest(EncodeRequest(tokens)), tokens);
  EXPECT_TRUE(DecodeRequest(EncodeRequest({})).empty());
}

}  // namespace
}  // namespace rdfalign::service
