#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "service/json.h"
#include "service/protocol.h"
#include "service/stream_verbs.h"
#include "service/verbs.h"
#include "util/timer.h"

namespace rdfalign::service {

namespace {

/// Frame 1 of every response (see protocol.h). The body travels as its
/// own frame so it stays byte-identical to the CLI rendering.
std::string BuildEnvelope(const VerbResult& r) {
  JsonBuf b;
  b.Bool("ok", r.exit_code == 0)
      .Str("verb", r.verb)
      .Int("exit_code", r.exit_code)
      .Bool("usage_error", r.usage_error)
      .Int("cache_hits", r.cache_hits)
      .Int("cache_misses", r.cache_misses);
  if (!r.error.empty()) b.Str("error", r.error);
  return b.Take();
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(SnapshotCacheOptions{options.cache_bytes}) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string message = std::string("bind ") + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(message);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string message =
        std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(message);
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  running_ = true;
  draining_ = false;
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  const size_t workers =
      options_.worker_threads > 0 ? options_.worker_threads : 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  return Status::OK();
}

void Server::ReapExpiredSessions() {
  size_t reaped = sessions_.ReapExpired(SteadyNowMs());
  while (reaped-- > 0) metrics_.Bump(&TransportCounters::sessions_expired);
}

/// Over the connection cap: answers with a clean load-shed error so the
/// client fails fast with a message instead of a hang or a reset, then
/// closes. Runs on the accept thread, so the write gets a short deadline
/// of its own — a malicious peer must not stall accepting.
bool Server::ShouldShed(int fd) {
  if (options_.max_conns == 0) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (connections_.size() < options_.max_conns) return false;
  }
  metrics_.Bump(&TransportCounters::load_shed);
  VerbResult shed;
  shed.verb = "(overload)";
  shed.exit_code = 1;
  shed.error = "server is at its connection limit (--max-conns " +
               std::to_string(options_.max_conns) + "); retry later";
  (void)WriteFrame(fd, BuildEnvelope(shed), 1000);
  (void)WriteFrame(fd, "", 1000);
  ::close(fd);
  return true;
}

void Server::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // The peer aborted between SYN and accept: nothing to serve,
      // nothing wrong with the listener.
      if (errno == ECONNABORTED) continue;
      // Resource exhaustion (fd table or kernel memory) is transient:
      // back off briefly so in-flight connections can close and free
      // resources, then keep accepting. Exiting here would turn a burst
      // of load into a permanently deaf daemon.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        metrics_.Bump(&TransportCounters::accept_retries);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listener closed (Stop) or fatal error
    }
    ReapExpiredSessions();
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (ShouldShed(fd)) continue;
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      ::close(fd);
      return;
    }
    pending_.push_back(fd);
    connections_.insert(fd);
    queue_cv_.notify_one();
  }
}

void Server::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return draining_ || !pending_.empty(); });
      if (pending_.empty()) return;  // draining, queue drained
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.erase(fd);
      drain_cv_.notify_all();
    }
    ::close(fd);
  }
}

void Server::ServeConnection(int fd) {
  const int timeout = static_cast<int>(options_.io_timeout_ms);
  std::string payload;
  // The connection's streaming-alignment session, if any (stream_verbs.h).
  // Owned here so a dropped connection always releases its aligner — or,
  // with --session-linger-ms, parks it for `stream resume` (below).
  std::unique_ptr<StreamSession> stream_session;
  // A failed frame I/O never crashes the worker: it ends this connection
  // and shows up in the transport counters.
  auto transport_error = [&](const Status& st) {
    metrics_.Bump(IsTimeout(st) ? &TransportCounters::io_timeouts
                                : &TransportCounters::protocol_errors);
  };
  while (true) {
    Result<bool> more = ReadFrame(fd, &payload, timeout);
    if (!more.ok()) {
      transport_error(more.status());
      break;
    }
    if (!*more) break;  // clean EOF at a frame boundary
    const std::vector<std::string> tokens = DecodeRequest(payload);
    ReapExpiredSessions();
    WallTimer timer;
    VerbResult result;
    const VerbSpec* spec = tokens.empty() ? nullptr : FindVerb(tokens[0]);
    const VerbScope scope = spec ? spec->scope : VerbScope::kAnywhere;
    if (scope == VerbScope::kDaemonStream) {
      // `stream push` is the one request that carries a payload: ONE
      // extra frame holding the binary update fragment.
      std::string fragment;
      if (tokens.size() >= 2 && tokens[1] == "push") {
        Result<bool> have = ReadFrame(fd, &fragment, timeout);
        if (!have.ok()) {
          transport_error(have.status());
          break;
        }
        if (!*have) {
          // EOF where the protocol promised a payload frame.
          metrics_.Bump(&TransportCounters::protocol_errors);
          break;
        }
      }
      result = HandleStreamVerb(tokens, fragment, &stream_session, &cache_,
                                &sessions_);
      if (tokens.size() >= 2 && tokens[1] == "resume" &&
          result.exit_code == 0) {
        metrics_.Bump(&TransportCounters::sessions_resumed);
      }
    } else if (scope == VerbScope::kDaemonStats) {
      result = HandleStatsVerb(tokens, metrics_);
    } else {
      result = ExecuteVerb(tokens, &cache_);
    }
    metrics_.Record(tokens.empty() ? "" : tokens[0], result.exit_code != 0,
                    timer.ElapsedMillis());
    Status sent = WriteFrame(fd, BuildEnvelope(result), timeout);
    if (sent.ok()) sent = WriteFrame(fd, result.output, timeout);
    if (!sent.ok()) {
      transport_error(sent);
      break;
    }
  }
  // Park a live stream session for later resume — unless linger is off or
  // the server is draining (a parked session would never be claimable).
  if (stream_session != nullptr && options_.session_linger_ms > 0) {
    bool draining;
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining = draining_;
    }
    if (!draining &&
        sessions_.Park(std::move(stream_session),
                       SteadyNowMs() +
                           static_cast<int64_t>(options_.session_linger_ms))) {
      metrics_.Bump(&TransportCounters::sessions_parked);
    }
  }
}

void Server::Stop() {
  if (!running_) return;
  running_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  // shutdown() unblocks the accept() the listener thread is parked in;
  // the fd itself is closed only after the join, so the thread never
  // reads listen_fd_ concurrently with the teardown writes below.
  ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Drain phase: connected clients — including idle connections and open
  // stream sessions — keep being served until they hang up. Workers pull
  // any still-queued fds first (the wait predicate holds while pending_
  // is non-empty), so a connection accepted just before the listener
  // closed is served, not dropped.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(options_.drain_ms),
                       [this] { return connections_.empty(); });
    // Deadline expired (or everyone already left): force the remaining
    // connections shut at their next frame boundary. A worker busy
    // executing a request still finishes it and delivers the response.
    for (int fd : connections_) ::shutdown(fd, SHUT_RD);
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Workers exit only when pending_ is empty, so any fd left here was
  // accepted but never served (cannot happen after a full drain; kept as
  // a belt against future reorderings).
  for (int fd : pending_) ::close(fd);
  pending_.clear();
  connections_.clear();
}

}  // namespace rdfalign::service
