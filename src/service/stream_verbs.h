// The daemon's `stream` verb: a per-connection streaming-alignment
// session over the length-prefixed protocol (docs/stream.md).
//
//   stream open <source> <target> [--method=trivial|deblank]
//          [--threads=N] [--json]
//   stream push [--json]          (+ ONE extra binary frame: the RDFUPDT1
//                                  update fragment, store/update_fragment.h)
//   stream resume <token> [--json]
//   stream check <final-target> [--json]
//   stream stats [--json]
//   stream close [--json]
//
// The session lives as long as its connection: ServeConnection owns the
// StreamSession and drops it on disconnect, so an interrupted client can
// never leak a resident aligner. When the daemon runs with
// --session-linger-ms > 0, a disconnect parks the session in the server's
// StreamSessionRegistry instead, and `stream resume <token>` (the token
// is reported by `stream open`) reclaims it on a new connection.
// `stream push` is the one request in the protocol that carries a payload
// frame after the request frame — the server reads it before dispatch,
// the client sends it with Client::CallWithPayload.
//
// Replay after reconnect: the fragment's producer-assigned `sequence` is
// the idempotency key. A push whose sequence was already applied (a
// client re-sending after a lost response) is NOT re-applied; the
// daemon replays the original rendered response bit-identically from a
// bounded per-session cache (the most recent kReplayWindow pushes), or
// fails cleanly if the entry has aged out. Fragments with sequence 0 are
// exempt (no producer numbering — always applied).
//
// Apply errors are fatal to the session (the aligner may be partially
// updated); the session is closed and the error reported, and a new
// `stream open` starts fresh.

#ifndef RDFALIGN_SERVICE_STREAM_VERBS_H_
#define RDFALIGN_SERVICE_STREAM_VERBS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/verbs.h"
#include "stream/stream_aligner.h"

namespace rdfalign::service {

class StreamSessionRegistry;

/// One connection's live streaming session.
struct StreamSession {
  /// Rendered push responses retained for reconnect replay, per session.
  static constexpr size_t kReplayWindow = 64;

  std::string token;  ///< resume handle, minted by `stream open`
  std::string source_path;
  std::string target_path;
  AlignMethod method = AlignMethod::kDeblank;
  CommonOptions common;
  std::unique_ptr<stream::StreamAligner> aligner;
  uint64_t fragments = 0;
  uint64_t pairs_added_total = 0;
  uint64_t pairs_removed_total = 0;
  uint64_t last_seq = 0;  ///< highest producer sequence applied (0 = none)
  /// sequence -> rendered response of the original apply (both the --json
  /// and text renderings are cached under the flag set used at push time).
  std::map<uint64_t, std::string> replay;
};

/// Dispatches one `stream ...` request. `fragment` is the payload frame
/// (non-empty only for `stream push`); `session` is the connection's slot,
/// created by open (or resume) and cleared by close or a fatal apply
/// error. `registry` backs `stream resume` — nullptr disables it.
VerbResult HandleStreamVerb(const std::vector<std::string>& tokens,
                            const std::string& fragment,
                            std::unique_ptr<StreamSession>* session,
                            GraphSource* source,
                            StreamSessionRegistry* registry);

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_STREAM_VERBS_H_
