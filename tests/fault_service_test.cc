// Fault-injected service coverage: torn frames and mid-frame hangups on
// every verb (including `stream push`'s two-frame shape) must never crash
// a worker and must always surface in the transport counters; deadlines
// evict stalled peers; the connection cap sheds load cleanly; parked
// stream sessions resume bit-identically; the client retries idempotent
// verbs after eviction.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/graph_source.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/verbs.h"
#include "store/update_fragment.h"
#include "util/fault_injector.h"

namespace rdfalign::service {
namespace {

std::string ScratchPrefix() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_fault_" + info->name();
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// A raw TCP connection for sending deliberately broken byte sequences.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() { Close(); }

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void SendBytes(const void* data, size_t n) {
    (void)!::send(fd_, data, n, MSG_NOSIGNAL);
  }

  /// A frame header announcing `claim` bytes, followed by only `actual`
  /// payload bytes — a torn frame once the connection closes.
  void SendTornFrame(uint32_t claim, size_t actual) {
    unsigned char header[4] = {
        static_cast<unsigned char>(claim & 0xff),
        static_cast<unsigned char>((claim >> 8) & 0xff),
        static_cast<unsigned char>((claim >> 16) & 0xff),
        static_cast<unsigned char>((claim >> 24) & 0xff),
    };
    SendBytes(header, sizeof(header));
    const std::string junk(actual, 'x');
    if (actual > 0) SendBytes(junk.data(), junk.size());
  }

  void SendRequest(const std::vector<std::string>& tokens) {
    const std::string payload = EncodeRequest(tokens);
    SendTornFrame(static_cast<uint32_t>(payload.size()), 0);
    SendBytes(payload.data(), payload.size());
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

struct StreamFiles {
  std::string v1, v2, v3, u1, u2;
};

StreamFiles MakeStreamChain(const std::string& prefix) {
  DirectGraphSource direct;
  EXPECT_EQ(ExecuteVerb({"gen", prefix, "--scale=0.02", "--versions=3"},
                        &direct)
                .exit_code,
            0);
  StreamFiles f;
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

void RemoveStreamChain(const std::string& prefix, const StreamFiles& f) {
  for (int i = 1; i <= 3; ++i) {
    const std::string n = std::to_string(i);
    std::remove((prefix + n + ".nt").c_str());
    std::remove((prefix + n + ".snap").c_str());
  }
  std::remove(f.u1.c_str());
  std::remove(f.u2.c_str());
}

class FaultServiceTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<Server>(options);
    Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  Client Connect(const ClientOptions& opts = {}) {
    Result<Client> client =
        Client::Connect("127.0.0.1", server_->port(), opts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// The daemon's transport counters, via `stats --json` over a fresh
  /// connection.
  std::string StatsJson() {
    Client client = Connect();
    Result<ClientResponse> resp = client.Call({"stats", "--json"});
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? resp->body : "";
  }

  void TearDown() override {
    FaultInjector::Reset();
    server_.reset();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(FaultServiceTest, TornFramesOnEveryVerbNeverCrashAWorker) {
  const std::string prefix = ScratchPrefix();
  const StreamFiles f = MakeStreamChain(prefix);
  StartServer();

  // Every verb: a request frame announcing more bytes than ever arrive,
  // then hangup mid-frame. The worker must drop the connection, count a
  // protocol error, and serve the next client.
  const std::vector<std::vector<std::string>> verbs = {
      {"info", f.v1},          {"align", f.v1, f.v2},
      {"diff", f.v1, f.v2, prefix + ".delta"},
      {"cache", "stats"},      {"stats"},
      {"stream", "open", f.v1, f.v1},
  };
  size_t torn = 0;
  for (const auto& tokens : verbs) {
    const std::string payload = EncodeRequest(tokens);
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.ok());
    conn.SendTornFrame(static_cast<uint32_t>(payload.size() + 64),
                       payload.size());
    conn.Close();
    ++torn;
  }
  // `stream push` is the two-frame shape: a complete request frame, then
  // a torn payload frame.
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.ok());
    conn.SendRequest({"stream", "open", f.v1, f.v1});
    conn.SendRequest({"stream", "push"});
    conn.SendTornFrame(1 << 20, 100);
    conn.Close();
    ++torn;
  }
  // An oversized length prefix is rejected as malformed, not allocated.
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.ok());
    conn.SendTornFrame(kMaxFrameBytes + 1, 0);
    conn.Close();
    ++torn;
  }

  // The daemon is alive and every tear was counted. The count is polled:
  // workers observe the hangup asynchronously.
  std::string stats;
  const std::string want =
      "\"protocol_errors\": " + std::to_string(torn);
  for (int i = 0; i < 100; ++i) {
    stats = StatsJson();
    if (stats.find(want) != std::string::npos) break;
    SleepMs(20);
  }
  EXPECT_NE(stats.find(want), std::string::npos) << stats;

  // ... and real requests still round-trip.
  Client client = Connect();
  Result<ClientResponse> resp = client.Call({"info", f.v1});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->exit_code, 0);
  RemoveStreamChain(prefix, f);
  std::remove((prefix + ".delta").c_str());
}

TEST_F(FaultServiceTest, ShortSocketWritesRoundTripTransparently) {
  const std::string prefix = ScratchPrefix();
  const StreamFiles f = MakeStreamChain(prefix);
  StartServer();
  Client client = Connect();
  Result<ClientResponse> baseline = client.Call({"info", f.v1, "--json"});
  ASSERT_TRUE(baseline.ok());

  // Force 1-byte transfers at scattered positions on both sides of the
  // wire (the injector is process-wide); the frame loops must reassemble.
  ASSERT_TRUE(FaultInjector::ArmFromSpec(
                  "socket.write@1=short;socket.write@3=short;"
                  "socket.write@5=short;socket.read@2=short;"
                  "socket.read@4=short;socket.read@6=eintr3")
                  .ok());
  Result<ClientResponse> shorted = client.Call({"info", f.v1, "--json"});
  FaultInjector::Reset();
  ASSERT_TRUE(shorted.ok()) << shorted.status().ToString();
  EXPECT_EQ(shorted->exit_code, 0);
  EXPECT_EQ(shorted->body, baseline->body);
  RemoveStreamChain(prefix, f);
}

TEST_F(FaultServiceTest, DeadlineEvictsStalledPeers) {
  ServerOptions options;
  options.io_timeout_ms = 150;
  StartServer(options);

  // A peer that sends half a frame and stalls is evicted at the deadline.
  RawConn stalled(server_->port());
  ASSERT_TRUE(stalled.ok());
  stalled.SendTornFrame(64, 4);
  std::string stats;
  for (int i = 0; i < 100; ++i) {
    stats = StatsJson();
    if (stats.find("\"io_timeouts\": 0") == std::string::npos) break;
    SleepMs(20);
  }
  EXPECT_EQ(stats.find("\"io_timeouts\": 0"), std::string::npos) << stats;

  // A fast client on the same daemon is unaffected.
  Client client = Connect();
  Result<ClientResponse> resp = client.Call({"cache", "stats"});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->exit_code, 0);
}

TEST_F(FaultServiceTest, ConnectionCapShedsLoadCleanly) {
  ServerOptions options;
  options.max_conns = 1;
  options.worker_threads = 2;
  StartServer(options);

  Client first = Connect();
  ASSERT_TRUE(first.Call({"cache", "stats"}).ok());

  // The connection over the cap gets a clean error response, not a hang
  // or a reset. The daemon writes the shed envelope proactively, so read
  // it off a raw socket without sending anything first.
  RawConn second(server_->port());
  ASSERT_TRUE(second.ok());
  std::string envelope;
  Result<bool> got = ReadFrame(second.fd(), &envelope, 5000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  EXPECT_NE(envelope.find("\"exit_code\": 1"), std::string::npos)
      << envelope;
  EXPECT_NE(envelope.find("connection limit"), std::string::npos)
      << envelope;
  std::string body;
  Result<bool> got_body = ReadFrame(second.fd(), &body, 5000);
  ASSERT_TRUE(got_body.ok() && *got_body);
  EXPECT_TRUE(body.empty());
  second.Close();

  // The first connection keeps working, and the shed was counted.
  Result<ClientResponse> alive = first.Call({"stats", "--json"});
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive->exit_code, 0);
  EXPECT_NE(alive->body.find("\"load_shed\": 1"), std::string::npos)
      << alive->body;
}

TEST_F(FaultServiceTest, ParkedSessionResumesBitIdentically) {
  const std::string prefix = ScratchPrefix();
  const StreamFiles f = MakeStreamChain(prefix);
  ServerOptions options;
  options.session_linger_ms = 60000;
  StartServer(options);

  // Session A: open, push fragment 1, then vanish without closing.
  std::string token;
  std::string push1_body;
  {
    Client a = Connect();
    Result<ClientResponse> open =
        a.Call({"stream", "open", f.v1, f.v1, "--json"});
    ASSERT_TRUE(open.ok());
    ASSERT_EQ(open->exit_code, 0) << open->error;
    const size_t key = open->body.find("\"session\": \"");
    ASSERT_NE(key, std::string::npos) << open->body;
    const size_t start = key + std::strlen("\"session\": \"");
    token = open->body.substr(start, open->body.find('"', start) - start);
    ASSERT_EQ(token.rfind("st-", 0), 0u) << token;

    Result<std::string> frag1 = store::ReadFileBytes(f.u1);
    ASSERT_TRUE(frag1.ok());
    Result<ClientResponse> push =
        a.CallWithPayload({"stream", "push", "--json"}, *frag1);
    ASSERT_TRUE(push.ok());
    ASSERT_EQ(push->exit_code, 0) << push->error;
    push1_body = push->body;
  }  // connection drops here; the server parks the session

  // Session B: resume by token (polled — parking is asynchronous).
  Client b = Connect();
  Result<ClientResponse> resumed = Status::IOError("unset");
  for (int i = 0; i < 100; ++i) {
    resumed = b.Call({"stream", "resume", token, "--json"});
    if (resumed.ok() && resumed->exit_code == 0) break;
    SleepMs(20);
  }
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->exit_code, 0) << resumed->error;
  EXPECT_NE(resumed->body.find("\"last_sequence\": 1"), std::string::npos)
      << resumed->body;

  // Re-pushing the already-applied fragment 1 replays the original
  // response bit-identically — the aligner is not touched twice.
  Result<std::string> frag1 = store::ReadFileBytes(f.u1);
  ASSERT_TRUE(frag1.ok());
  Result<ClientResponse> replay =
      b.CallWithPayload({"stream", "push", "--json"}, *frag1);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->exit_code, 0) << replay->error;
  EXPECT_EQ(replay->body, push1_body);

  // The stream continues where it left off and still matches the batch
  // alignment of the final version.
  Result<std::string> frag2 = store::ReadFileBytes(f.u2);
  ASSERT_TRUE(frag2.ok());
  Result<ClientResponse> push2 =
      b.CallWithPayload({"stream", "push", "--json"}, *frag2);
  ASSERT_TRUE(push2.ok());
  ASSERT_EQ(push2->exit_code, 0) << push2->error;
  Result<ClientResponse> check =
      b.Call({"stream", "check", f.v3, "--json"});
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->exit_code, 0) << check->error;
  EXPECT_NE(check->body.find("\"equivalent\": true"), std::string::npos);

  const std::string stats = StatsJson();
  EXPECT_NE(stats.find("\"sessions_parked\": 1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"sessions_resumed\": 1"), std::string::npos)
      << stats;
  RemoveStreamChain(prefix, f);
}

TEST_F(FaultServiceTest, LingerDeadlineExpiresParkedSessions) {
  const std::string prefix = ScratchPrefix();
  const StreamFiles f = MakeStreamChain(prefix);
  ServerOptions options;
  options.session_linger_ms = 50;
  StartServer(options);

  std::string token;
  {
    Client a = Connect();
    Result<ClientResponse> open =
        a.Call({"stream", "open", f.v1, f.v1, "--json"});
    ASSERT_TRUE(open.ok());
    ASSERT_EQ(open->exit_code, 0) << open->error;
    const size_t key = open->body.find("\"session\": \"");
    ASSERT_NE(key, std::string::npos);
    const size_t start = key + std::strlen("\"session\": \"");
    token = open->body.substr(start, open->body.find('"', start) - start);
  }
  // Wait until the daemon has actually parked the session (the worker
  // observes the hangup asynchronously), then outlive the linger window.
  std::string parked_stats;
  for (int i = 0; i < 100; ++i) {
    parked_stats = StatsJson();
    if (parked_stats.find("\"sessions_parked\": 1") != std::string::npos) {
      break;
    }
    SleepMs(20);
  }
  ASSERT_NE(parked_stats.find("\"sessions_parked\": 1"), std::string::npos)
      << parked_stats;
  SleepMs(200);

  // Any request sweeps expired sessions; the resume must fail cleanly.
  Client b = Connect();
  Result<ClientResponse> resumed = b.Call({"stream", "resume", token});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->exit_code, 1);
  EXPECT_NE(resumed->error.find("no resumable session"), std::string::npos)
      << resumed->error;
  const std::string stats = StatsJson();
  EXPECT_NE(stats.find("\"sessions_expired\": 1"), std::string::npos)
      << stats;
  RemoveStreamChain(prefix, f);
}

TEST_F(FaultServiceTest, IdempotentClientRetriesAfterEviction) {
  const std::string prefix = ScratchPrefix();
  const StreamFiles f = MakeStreamChain(prefix);
  ServerOptions options;
  options.io_timeout_ms = 100;
  StartServer(options);

  ClientOptions opts;
  opts.retries = 3;
  opts.retry_backoff_ms = 10;
  Client client = Connect(opts);
  ASSERT_TRUE(client.Call({"info", f.v1}).ok());

  // Outlive the idle deadline: the daemon evicts this connection. The
  // idempotent retry path reconnects and re-sends transparently.
  SleepMs(400);
  Result<ClientResponse> resp = client.CallIdempotent({"info", f.v1});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->exit_code, 0);
  RemoveStreamChain(prefix, f);
}

TEST_F(FaultServiceTest, ConnectRetriesRespectTheBudget) {
  // The `client.connect` failpoint fails every attempt before any real
  // dialing, so no listener is involved at all.
  ClientOptions opts;
  opts.retries = 2;
  opts.retry_backoff_ms = 1;
  opts.timeout_ms = 200;
  ASSERT_TRUE(FaultInjector::ArmFromSpec(
                  "client.connect@1=error:ETIMEDOUT;"
                  "client.connect@2=error:ETIMEDOUT;"
                  "client.connect@3=error:ETIMEDOUT")
                  .ok());
  Result<Client> client = Client::Connect("127.0.0.1", 1, opts);
  const uint64_t attempts = FaultInjector::Hits("client.connect");
  FaultInjector::Reset();
  ASSERT_FALSE(client.ok());
  EXPECT_NE(client.status().message().find("cannot connect"),
            std::string::npos)
      << client.status().ToString();
  // retries=2 means exactly three dial attempts, no more.
  EXPECT_EQ(attempts, 3u);
}

TEST_F(FaultServiceTest, BackoffAndIdempotencyContracts) {
  for (int attempt = 0; attempt < 12; ++attempt) {
    const int delay = RetryBackoffMs(100, attempt);
    EXPECT_GE(delay, 1) << attempt;
    EXPECT_LE(delay, 5000) << attempt;
  }
  for (const char* verb : {"info", "align", "cache", "stats"}) {
    EXPECT_TRUE(IsIdempotentVerb(verb)) << verb;
  }
  for (const char* verb : {"build", "patch", "diff", "gen", "stream"}) {
    EXPECT_FALSE(IsIdempotentVerb(verb)) << verb;
  }
}

}  // namespace
}  // namespace rdfalign::service
