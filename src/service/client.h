// Client side of the rdfalignd protocol, plus the `rdfalign client`
// subcommand built on it: forward a verb invocation to a running daemon
// and reproduce exactly what the in-process CLI would have printed and
// returned.

#ifndef RDFALIGN_SERVICE_CLIENT_H_
#define RDFALIGN_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace rdfalign::service {

/// Resilience knobs for a client connection. Defaults reproduce the
/// original behavior: block forever, never retry.
struct ClientOptions {
  /// Connect + per-frame I/O deadline in ms; 0 blocks forever.
  int timeout_ms = 0;
  /// Extra attempts after a failure (connect always; requests only via
  /// CallIdempotent — write verbs are never retried automatically).
  int retries = 0;
  /// Base of the jittered exponential backoff between attempts.
  int retry_backoff_ms = 100;
};

/// One decoded daemon response (envelope + body).
struct ClientResponse {
  bool ok = false;
  int exit_code = 0;
  bool usage_error = false;
  std::string verb;
  std::string error;  ///< failure message (empty on success)
  std::string body;   ///< the CLI-identical rendered output
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// A persistent connection to one rdfalignd.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port (IPv4 dotted quad or "localhost"). With
  /// options.retries > 0 a failed connect is retried with jittered
  /// exponential backoff; options.timeout_ms bounds each attempt and all
  /// later frame I/O on the connection.
  static Result<Client> Connect(const std::string& host, int port,
                                const ClientOptions& options = {});

  /// Sends one verb invocation (verb first, args as the CLI would see
  /// them) and reads the response pair.
  Result<ClientResponse> Call(const std::vector<std::string>& tokens);

  /// Like Call, but follows the request frame with one binary payload
  /// frame — the `stream push` shape (the payload is an RDFUPDT1 update
  /// fragment; see docs/stream.md).
  Result<ClientResponse> CallWithPayload(
      const std::vector<std::string>& tokens, const std::string& payload);

  /// Call for idempotent verbs only (see IsIdempotentVerb): a
  /// transport failure reconnects to the same endpoint and re-sends the
  /// request, up to options.retries times with jittered backoff. Never
  /// use for verbs with side effects — a retry could apply them twice.
  Result<ClientResponse> CallIdempotent(
      const std::vector<std::string>& tokens);

  /// Drops the current connection (if any) and dials the endpoint that
  /// Connect recorded. One attempt; the caller owns the retry policy.
  Status Reconnect();

  void Close();
  bool connected() const { return fd_ >= 0; }
  const ClientOptions& options() const { return options_; }

 private:
  Result<ClientResponse> ReadResponse();

  int fd_ = -1;
  std::string host_;
  int port_ = 0;
  ClientOptions options_;
};

/// True when `verb` (the first forwarded token) is read-only and safe to
/// auto-retry through CallIdempotent: its verb-table row says so
/// (VerbSpec::idempotent in service/verbs.h).
bool IsIdempotentVerb(const std::string& verb);

/// Jittered exponential backoff: a uniformly random delay in
/// [1, base * 2^attempt], capped at 5s. Exposed for the retry loops in
/// client.cc and the fault-injection tests.
int RetryBackoffMs(int base_ms, int attempt);

/// Splits "host:port" or bare "port" (host defaults to 127.0.0.1).
/// InvalidArgument when the port is not a number in [1, 65535].
Status ParseEndpoint(const std::string& spec, std::string* host, int* port);

/// The `rdfalign client <endpoint> <verb> [args]` subcommand: one call,
/// body to stdout, error to stderr, the daemon's exit code returned.
/// `tokens` is the full CLI token list starting at "client".
int RunClientCommand(const std::vector<std::string>& tokens);

/// The `rdfalign stream <endpoint> <source> <target>
/// --updates=u1[,u2,...] [--method=M] [--check=final] [--json]`
/// subcommand: one connection, one streaming session — open, push every
/// update fragment (printing each emitted alignment delta), optionally
/// verify batch equivalence against a final snapshot, close. Returns the
/// first failing exit code, 0 when the whole session succeeds. `tokens`
/// is the full CLI token list starting at "stream".
int RunStreamCommand(const std::vector<std::string>& tokens);

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_CLIENT_H_
