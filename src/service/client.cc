#include "service/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include "service/flags.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/verbs.h"
#include "store/update_fragment.h"
#include "util/fault_injector.h"

namespace rdfalign::service {

namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// One connect attempt, optionally bounded by `timeout_ms` (non-blocking
/// connect + poll). The fd comes back in blocking mode.
Result<int> ConnectOnce(const std::string& resolved, const std::string& host,
                        int port, int timeout_ms) {
  auto fail = [&](const std::string& why) {
    return Status::IOError("cannot connect to " + resolved + ":" +
                           std::to_string(port) + ": " + why);
  };
  const FaultAction fault = FaultInjector::Hit("client.connect");
  if (fault.kind == FaultAction::kError ||
      fault.kind == FaultAction::kEintr) {
    return fail(std::strerror(fault.error_errno));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (timeout_ms > 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && timeout_ms > 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      ::close(fd);
      return fail("socket timeout (connect)");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (rc < 0 || soerr != 0) {
      const std::string why = std::strerror(soerr != 0 ? soerr : errno);
      ::close(fd);
      return fail(why);
    }
    rc = 0;
  }
  if (rc != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return fail(why);
  }
  if (timeout_ms > 0) ::fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

bool IsIdempotentVerb(const std::string& verb) {
  const VerbSpec* spec = FindVerb(verb);
  return spec != nullptr && spec->idempotent;
}

int RetryBackoffMs(int base_ms, int attempt) {
  int64_t window = base_ms > 0 ? base_ms : 1;
  window <<= attempt > 10 ? 10 : attempt;
  if (window > 5000) window = 5000;
  static thread_local std::mt19937_64 rng{std::random_device{}()};
  return 1 + static_cast<int>(std::uniform_int_distribution<int64_t>(
                 0, window - 1)(rng));
}

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      options_(other.options_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = other.options_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Client> Client::Connect(const std::string& host, int port,
                               const ClientOptions& options) {
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  Result<int> fd = Status::IOError("unreachable");
  for (int attempt = 0;; ++attempt) {
    fd = ConnectOnce(resolved, host, port, options.timeout_ms);
    if (fd.ok() || fd.status().IsInvalidArgument() ||
        attempt >= options.retries) {
      break;
    }
    SleepMs(RetryBackoffMs(options.retry_backoff_ms, attempt));
  }
  RDFALIGN_RETURN_IF_ERROR(fd.status());
  Client client;
  client.fd_ = *fd;
  client.host_ = resolved;
  client.port_ = port;
  client.options_ = options;
  return client;
}

Status Client::Reconnect() {
  if (host_.empty()) return Status::InvalidArgument("client never connected");
  Close();
  RDFALIGN_ASSIGN_OR_RETURN(int fd,
                            ConnectOnce(host_, host_, port_,
                                        options_.timeout_ms));
  fd_ = fd;
  return Status::OK();
}

Result<ClientResponse> Client::Call(const std::vector<std::string>& tokens) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  RDFALIGN_RETURN_IF_ERROR(
      WriteFrame(fd_, EncodeRequest(tokens), options_.timeout_ms));
  return ReadResponse();
}

Result<ClientResponse> Client::CallWithPayload(
    const std::vector<std::string>& tokens, const std::string& payload) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  RDFALIGN_RETURN_IF_ERROR(
      WriteFrame(fd_, EncodeRequest(tokens), options_.timeout_ms));
  RDFALIGN_RETURN_IF_ERROR(WriteFrame(fd_, payload, options_.timeout_ms));
  return ReadResponse();
}

Result<ClientResponse> Client::CallIdempotent(
    const std::vector<std::string>& tokens) {
  Result<ClientResponse> resp = Call(tokens);
  for (int attempt = 0; !resp.ok() && attempt < options_.retries;
       ++attempt) {
    SleepMs(RetryBackoffMs(options_.retry_backoff_ms, attempt));
    Status re = Reconnect();
    if (!re.ok()) {
      resp = re;
      continue;
    }
    resp = Call(tokens);
  }
  return resp;
}

Result<ClientResponse> Client::ReadResponse() {
  std::string envelope;
  RDFALIGN_ASSIGN_OR_RETURN(bool have_envelope,
                            ReadFrame(fd_, &envelope, options_.timeout_ms));
  if (!have_envelope) {
    return Status::IOError("server closed the connection");
  }
  ClientResponse resp;
  resp.exit_code =
      static_cast<int>(JsonFindInt(envelope, "exit_code", 1));
  resp.ok = JsonFindBool(envelope, "ok", resp.exit_code == 0);
  resp.usage_error = JsonFindBool(envelope, "usage_error", false);
  resp.verb = JsonFindString(envelope, "verb", "");
  resp.error = JsonFindString(envelope, "error", "");
  resp.cache_hits =
      static_cast<uint64_t>(JsonFindInt(envelope, "cache_hits", 0));
  resp.cache_misses =
      static_cast<uint64_t>(JsonFindInt(envelope, "cache_misses", 0));

  RDFALIGN_ASSIGN_OR_RETURN(bool have_body,
                            ReadFrame(fd_, &resp.body, options_.timeout_ms));
  if (!have_body) {
    return Status::IOError("server closed the connection mid-response");
  }
  return resp;
}

Status ParseEndpoint(const std::string& spec, std::string* host, int* port) {
  std::string port_text = spec;
  *host = "127.0.0.1";
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    *host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(port_text.c_str(), &end, 10);
  if (port_text.empty() || *end != '\0' || errno == ERANGE || value < 1 ||
      value > 65535) {
    return Status::InvalidArgument("bad endpoint '" + spec +
                                   "' (expected host:port or port)");
  }
  *port = static_cast<int>(value);
  return Status::OK();
}

namespace {

/// Pulls `--timeout-ms=N`, `--retries=N`, `--retry-backoff-ms=N` out of a
/// token list — they configure the local transport and are never
/// forwarded to the daemon. Returns false with a message on a bad value.
bool ExtractClientOptions(std::vector<std::string>* tokens,
                          ClientOptions* opts, std::string* message) {
  auto take = [&](const std::string& token, const char* prefix,
                  int* out) -> bool {
    const size_t n = std::strlen(prefix);
    if (token.rfind(prefix, 0) != 0) return false;
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(token.c_str() + n, &end, 10);
    if (*(token.c_str() + n) == '\0' || *end != '\0' || errno == ERANGE ||
        value < 0) {
      *message = "bad value in '" + token + "' (expected an integer >= 0)";
      *out = -1;
    } else {
      *out = static_cast<int>(value);
    }
    return true;
  };
  std::vector<std::string> kept;
  kept.reserve(tokens->size());
  for (const std::string& token : *tokens) {
    int value = 0;
    if (take(token, "--timeout-ms=", &value)) {
      if (value < 0) return false;
      opts->timeout_ms = value;
    } else if (take(token, "--retries=", &value)) {
      if (value < 0) return false;
      opts->retries = value;
    } else if (take(token, "--retry-backoff-ms=", &value)) {
      if (value < 0) return false;
      opts->retry_backoff_ms = value;
    } else {
      kept.push_back(token);
    }
  }
  *tokens = std::move(kept);
  return true;
}

}  // namespace

int RunClientCommand(const std::vector<std::string>& tokens) {
  // tokens[0] == "client"; tokens[1] == endpoint; the rest is the verb
  // invocation, forwarded verbatim (minus the local transport flags).
  std::vector<std::string> remaining = tokens;
  ClientOptions opts;
  std::string message;
  if (!ExtractClientOptions(&remaining, &opts, &message)) {
    std::fprintf(stderr, "rdfalign client: %s\n", message.c_str());
    return 2;
  }
  if (remaining.size() < 3) {
    std::fprintf(stderr,
                 "rdfalign client: usage: rdfalign client "
                 "<host:port|port> <command> [args] [--timeout-ms=N] "
                 "[--retries=N] [--retry-backoff-ms=N]\n");
    return 2;
  }
  std::string host;
  int port = 0;
  Status st = ParseEndpoint(remaining[1], &host, &port);
  if (!st.ok()) {
    std::fprintf(stderr, "rdfalign client: %s\n", st.ToString().c_str());
    return 2;
  }
  Result<Client> client = Client::Connect(host, port, opts);
  if (!client.ok()) {
    std::fprintf(stderr, "rdfalign client: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> verb_tokens(remaining.begin() + 2,
                                             remaining.end());
  // Only read-only verbs are auto-retried: re-sending a build/patch after
  // a lost response could apply it twice.
  Result<ClientResponse> resp =
      !verb_tokens.empty() && IsIdempotentVerb(verb_tokens[0])
          ? client->CallIdempotent(verb_tokens)
          : client->Call(verb_tokens);
  if (!resp.ok()) {
    std::fprintf(stderr, "rdfalign client: %s\n",
                 resp.status().ToString().c_str());
    return 1;
  }
  if (!resp->body.empty()) std::fputs(resp->body.c_str(), stdout);
  if (!resp->error.empty()) {
    std::fprintf(stderr, "%s\n", resp->error.c_str());
  }
  if (resp->usage_error) std::fputs(UsageText(), stderr);
  return resp->exit_code;
}

namespace {

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Prints one daemon response like RunClientCommand does and reports
/// whether the session should continue.
int PrintStreamResponse(const Result<ClientResponse>& resp) {
  if (!resp.ok()) {
    std::fprintf(stderr, "rdfalign stream: %s\n",
                 resp.status().ToString().c_str());
    return 1;
  }
  if (!resp->body.empty()) std::fputs(resp->body.c_str(), stdout);
  if (!resp->error.empty()) {
    std::fprintf(stderr, "%s\n", resp->error.c_str());
  }
  return resp->exit_code;
}

int StreamUsage() {
  std::fprintf(stderr,
               "rdfalign stream: usage: rdfalign stream <host:port|port> "
               "<source> <target> --updates=u1[,u2,...] "
               "[--method=trivial|deblank] [--threads=N] [--check=final] "
               "[--json] [--timeout-ms=N] [--retries=N] "
               "[--retry-backoff-ms=N]\n");
  return 2;
}

/// The session token `stream open` reported, parsed out of either the
/// text body ("  session: st-...") or the JSON body ("\"session\": ...").
std::string FindSessionToken(const std::string& body) {
  const size_t key = body.find("session");
  if (key == std::string::npos) return "";
  const size_t pos = body.find("st-", key);
  if (pos == std::string::npos) return "";
  size_t end = pos + 3;
  while (end < body.size() && std::isxdigit(
             static_cast<unsigned char>(body[end]))) {
    ++end;
  }
  return body.substr(pos, end - pos);
}

}  // namespace

int RunStreamCommand(const std::vector<std::string>& tokens) {
  // tokens[0] == "stream"; the rest is endpoint, source, target + flags.
  std::vector<std::string> remaining = tokens;
  ClientOptions opts;
  std::string message;
  if (!ExtractClientOptions(&remaining, &opts, &message)) {
    std::fprintf(stderr, "rdfalign stream: %s\n", message.c_str());
    return 2;
  }
  const Args args(
      std::vector<std::string>(remaining.begin() + 1, remaining.end()));
  if (args.positional().size() != 3 ||
      !args.OnlyKnown({"updates", "method", "threads", "check", "json"},
                      &message)) {
    if (!message.empty()) std::fprintf(stderr, "%s\n", message.c_str());
    return StreamUsage();
  }
  const std::vector<std::string> updates =
      SplitCommas(args.GetString("updates", ""));
  if (updates.empty()) {
    std::fprintf(stderr,
                 "rdfalign stream: --updates expects at least one update "
                 "fragment file\n");
    return 2;
  }

  std::string host;
  int port = 0;
  Status st = ParseEndpoint(args.positional()[0], &host, &port);
  if (!st.ok()) {
    std::fprintf(stderr, "rdfalign stream: %s\n", st.ToString().c_str());
    return 2;
  }
  Result<Client> client = Client::Connect(host, port, opts);
  if (!client.ok()) {
    std::fprintf(stderr, "rdfalign stream: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  // Set after a successful open; enables transparent reconnect + resume.
  std::string session_token;

  // Runs one session request; on a transport failure, reconnects and
  // resumes the parked session (the daemon must run with
  // --session-linger-ms), then re-sends. A re-sent `stream push` whose
  // fragment already applied is replayed bit-identically from the
  // daemon's per-session response cache, so the printed transcript
  // matches an uninterrupted run.
  auto call_resilient =
      [&](const std::vector<std::string>& t,
          const std::string* payload) -> Result<ClientResponse> {
    Result<ClientResponse> r =
        payload != nullptr ? client->CallWithPayload(t, *payload)
                           : client->Call(t);
    for (int attempt = 0;
         !r.ok() && attempt < opts.retries && !session_token.empty();
         ++attempt) {
      SleepMs(RetryBackoffMs(opts.retry_backoff_ms, attempt));
      Status re = client->Reconnect();
      if (!re.ok()) {
        r = re;
        continue;
      }
      Result<ClientResponse> resumed =
          client->Call({"stream", "resume", session_token});
      if (!resumed.ok()) {
        r = resumed.status();
        continue;
      }
      if (resumed->exit_code != 0) return resumed;  // resume rejected
      r = payload != nullptr ? client->CallWithPayload(t, *payload)
                             : client->Call(t);
    }
    return r;
  };

  std::vector<std::string> open_tokens = {"stream", "open",
                                          args.positional()[1],
                                          args.positional()[2]};
  open_tokens.push_back("--method=" + args.GetString("method", "deblank"));
  if (args.Has("threads")) {
    open_tokens.push_back("--threads=" + args.GetString("threads", "1"));
  }
  if (args.Has("json")) open_tokens.push_back("--json");
  Result<ClientResponse> open = client->Call(open_tokens);
  if (open.ok() && open->exit_code == 0) {
    session_token = FindSessionToken(open->body);
  }
  int code = PrintStreamResponse(open);
  if (code != 0) return code;

  std::vector<std::string> push_tokens = {"stream", "push"};
  if (args.Has("json")) push_tokens.push_back("--json");
  for (const std::string& path : updates) {
    Result<std::string> bytes = store::ReadFileBytes(path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "rdfalign stream: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    code = PrintStreamResponse(call_resilient(push_tokens, &*bytes));
    if (code != 0) return code;
  }

  if (args.Has("check")) {
    std::vector<std::string> check_tokens = {"stream", "check",
                                             args.GetString("check", "")};
    if (args.Has("json")) check_tokens.push_back("--json");
    code = PrintStreamResponse(call_resilient(check_tokens, nullptr));
    if (code != 0) return code;
  }

  std::vector<std::string> close_tokens = {"stream", "close"};
  if (args.Has("json")) close_tokens.push_back("--json");
  return PrintStreamResponse(call_resilient(close_tokens, nullptr));
}

}  // namespace rdfalign::service
