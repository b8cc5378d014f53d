#include "service/stream_verbs.h"

#include <initializer_list>
#include <utility>

#include "rdf/term.h"
#include "service/graph_source.h"
#include "service/json.h"
#include "service/session_registry.h"
#include "store/update_fragment.h"
#include "util/string_util.h"

namespace rdfalign::service {

namespace {

Result<AlignMethod> ParseStreamMethod(const std::string& name) {
  if (name == "trivial") return AlignMethod::kTrivial;
  if (name == "deblank") return AlignMethod::kDeblank;
  return Status::InvalidArgument(
      "unknown streaming method: " + name +
      " (streaming supports trivial and deblank; see docs/stream.md)");
}

VerbResult PlainFailure(int exit_code, std::string message) {
  VerbResult result;
  result.verb = "stream";
  result.exit_code = exit_code;
  result.error = std::move(message);
  return result;
}

VerbResult UsageFailure(std::string message) {
  VerbResult result;
  result.verb = "stream";
  result.exit_code = 2;
  result.usage_error = true;
  result.error = std::move(message);
  return result;
}

void PairsJson(JsonBuf& b, const char* key,
               const std::vector<stream::LabeledPair>& pairs) {
  b.Array(key);
  for (const stream::LabeledPair& p : pairs) {
    b.Item()
        .Str("src", p.src_lex)
        .Str("src_kind", TermKindToString(p.src_kind))
        .Str("tgt", p.tgt_lex)
        .Str("tgt_kind", TermKindToString(p.tgt_kind))
        .End();
  }
  b.End();
}

void PairsText(std::string* out, char sign,
               const std::vector<stream::LabeledPair>& pairs) {
  for (const stream::LabeledPair& p : pairs) {
    StrAppendf(out, "  %c %s ~ %s\n", sign, p.src_lex.c_str(),
               p.tgt_lex.c_str());
  }
}

std::string OpenToJson(const StreamSession& s) {
  const stream::StreamAligner& a = *s.aligner;
  return JsonBuf()
      .Str("stream", "open")
      .Str("session", s.token)
      .Str("source", s.source_path)
      .Str("target", s.target_path)
      .Str("method", AlignMethodToString(s.method))
      .Int("threads", a.options().threads)
      .Int("source_nodes", a.graph().n1())
      .Int("live_nodes", a.graph().NumLiveNodes())
      .Int("target_triples", a.graph().NumTargetTriples())
      .Int("iterations", a.open_stats().iterations)
      .Int("classes", a.open_stats().final_classes)
      .Int("pairs", a.NumCurrentPairs())
      .Take();
}

std::string OpenToText(const StreamSession& s) {
  const stream::StreamAligner& a = *s.aligner;
  std::string out;
  StrAppendf(&out,
             "stream open %s ~ %s (%s): %u source nodes, %zu live nodes, "
             "%zu target triples\n",
             s.source_path.c_str(), s.target_path.c_str(),
             std::string(AlignMethodToString(s.method)).c_str(),
             a.graph().n1(), a.graph().NumLiveNodes(),
             a.graph().NumTargetTriples());
  StrAppendf(&out,
             "  initial fixpoint: %zu iterations, %zu classes, %zu pairs\n",
             a.open_stats().iterations, a.open_stats().final_classes,
             a.NumCurrentPairs());
  StrAppendf(&out, "  session: %s\n", s.token.c_str());
  return out;
}

std::string ResumeToJson(const StreamSession& s) {
  return JsonBuf()
      .Str("stream", "resume")
      .Str("session", s.token)
      .Str("source", s.source_path)
      .Str("target", s.target_path)
      .Int("fragments", s.fragments)
      .Int("last_sequence", s.last_seq)
      .Take();
}

std::string ResumeToText(const StreamSession& s) {
  std::string out;
  StrAppendf(&out,
             "stream resumed %s ~ %s: %llu fragments applied, last sequence "
             "%llu\n",
             s.source_path.c_str(), s.target_path.c_str(),
             (unsigned long long)s.fragments, (unsigned long long)s.last_seq);
  return out;
}

std::string PushToJson(const stream::StreamBatchResult& r) {
  JsonBuf b;
  b.Str("stream", "push")
      .Int("sequence", r.sequence)
      .Int("applied_adds", r.applied_adds)
      .Int("ignored_adds", r.ignored_adds)
      .Int("applied_removes", r.applied_removes)
      .Int("ignored_removes", r.ignored_removes)
      .Int("new_nodes", r.new_nodes)
      .Int("removed_nodes", r.removed_nodes)
      .Bool("refined", r.refined)
      .Int("iterations", r.iterations)
      .Int("dirty_total", r.dirty_total);
  PairsJson(b, "removed_pairs", r.removed_pairs);
  PairsJson(b, "added_pairs", r.added_pairs);
  return b.Num("apply_ms", r.apply_ms, 3)
      .Num("refine_ms", r.refine_ms, 3)
      .Num("delta_ms", r.delta_ms, 3)
      .Take();
}

std::string PushToText(const stream::StreamBatchResult& r) {
  std::string out;
  StrAppendf(&out,
             "applied update #%llu: +%zu -%zu triples (%zu ignored), "
             "+%zu -%zu nodes\n",
             (unsigned long long)r.sequence, r.applied_adds,
             r.applied_removes, r.ignored_adds + r.ignored_removes,
             r.new_nodes, r.removed_nodes);
  if (r.refined) {
    StrAppendf(&out, "  refined: %zu iterations, %zu re-signings\n",
               r.iterations, r.dirty_total);
  } else {
    StrAppendf(&out, "  refined: no (no blank class affected)\n");
  }
  StrAppendf(&out, "  alignment delta: -%zu +%zu pairs\n",
             r.removed_pairs.size(), r.added_pairs.size());
  PairsText(&out, '-', r.removed_pairs);
  PairsText(&out, '+', r.added_pairs);
  return out;
}

std::string CheckToJson(const stream::StreamCheckResult& r) {
  return JsonBuf()
      .Str("stream", "check")
      .Bool("equivalent", true)
      .Int("live_nodes", r.live_nodes)
      .Int("classes", r.classes)
      .Take();
}

std::string CheckToText(const stream::StreamCheckResult& r) {
  std::string out;
  StrAppendf(&out,
             "stream check: equivalent to the batch alignment "
             "(%zu live nodes, %zu classes)\n",
             r.live_nodes, r.classes);
  return out;
}

std::string StatsToJson(const StreamSession& s) {
  const stream::StreamAligner& a = *s.aligner;
  return JsonBuf()
      .Str("stream", "stats")
      .Str("source", s.source_path)
      .Str("target", s.target_path)
      .Str("method", AlignMethodToString(s.method))
      .Int("fragments", s.fragments)
      .Int("live_nodes", a.graph().NumLiveNodes())
      .Int("target_triples", a.graph().NumTargetTriples())
      .Int("colors_allocated", a.NumColorsAllocated())
      .Int("pairs_added_total", s.pairs_added_total)
      .Int("pairs_removed_total", s.pairs_removed_total)
      .Take();
}

std::string StatsToText(const StreamSession& s) {
  const stream::StreamAligner& a = *s.aligner;
  std::string out;
  StrAppendf(&out,
             "stream session %s ~ %s (%s): %llu fragments, %zu live nodes, "
             "%zu target triples\n",
             s.source_path.c_str(), s.target_path.c_str(),
             std::string(AlignMethodToString(s.method)).c_str(),
             (unsigned long long)s.fragments, a.graph().NumLiveNodes(),
             a.graph().NumTargetTriples());
  StrAppendf(&out, "  pair deltas emitted: +%llu -%llu\n",
             (unsigned long long)s.pairs_added_total,
             (unsigned long long)s.pairs_removed_total);
  return out;
}

std::string CloseToJson(const StreamSession& s) {
  return JsonBuf()
      .Str("stream", "close")
      .Int("fragments", s.fragments)
      .Int("pairs_added_total", s.pairs_added_total)
      .Int("pairs_removed_total", s.pairs_removed_total)
      .Take();
}

std::string CloseToText(const StreamSession& s) {
  std::string out;
  StrAppendf(&out, "stream closed after %llu fragments (+%llu -%llu pairs)\n",
             (unsigned long long)s.fragments,
             (unsigned long long)s.pairs_added_total,
             (unsigned long long)s.pairs_removed_total);
  return out;
}

/// Acquires `path_a` and `path_b` (possibly cache-resident) and rebinds
/// both into one fresh dictionary — RunAlign's recipe for one label
/// space — counting each cache hit or miss into `result`.
Status AcquirePair(GraphSource* source, const std::string& path_a,
                   const std::string& path_b, const CommonOptions& common,
                   TripleGraph* a, TripleGraph* b, VerbResult* result) {
  auto dict = std::make_shared<Dictionary>();
  for (const auto& [path, out] : {std::pair{&path_a, a}, {&path_b, b}}) {
    RDFALIGN_ASSIGN_OR_RETURN(
        *out, AcquireRebound(source, *path, common, dict, &result->cache_hits,
                             &result->cache_misses));
  }
  return Status::OK();
}

/// The argument check of every subcommand: exactly `positionals`
/// positional arguments (else "rdfalign stream: " + `usage`), then only
/// the `known` flags.
bool CheckArguments(const Args& args, size_t positionals,
                    const std::string& usage,
                    std::initializer_list<const char*> known,
                    std::string* message) {
  if (args.positional().size() != positionals) {
    *message = "rdfalign stream: " + usage;
    return false;
  }
  return args.OnlyKnown(known, message);
}

}  // namespace

VerbResult HandleStreamVerb(const std::vector<std::string>& tokens,
                            const std::string& fragment,
                            std::unique_ptr<StreamSession>* session,
                            GraphSource* source,
                            StreamSessionRegistry* registry) {
  if (tokens.size() < 2) {
    return UsageFailure(
        "rdfalign stream: expected a subcommand "
        "(open|push|resume|check|stats|close)");
  }
  const std::string& sub = tokens[1];
  const Args args(std::vector<std::string>(tokens.begin() + 2, tokens.end()));
  VerbResult result;
  result.verb = "stream";
  std::string message;

  if (sub == "open") {
    if (*session != nullptr) {
      return PlainFailure(
          1, "rdfalign stream: a session is already open on this connection");
    }
    if (!CheckArguments(
            args, 2, "open expects <source> <target>",
            {"method", "threads", "mmap", "json", "no-verify-checksums"},
            &message)) {
      return UsageFailure(message);
    }
    auto sess = std::make_unique<StreamSession>();
    sess->source_path = args.positional()[0];
    sess->target_path = args.positional()[1];
    auto method = ParseStreamMethod(args.GetString("method", "deblank"));
    if (!method.ok()) {
      return PlainFailure(
          2, "rdfalign stream: " + method.status().ToString());
    }
    sess->method = *method;
    if (!ParseCommonFlags(args, "stream", &sess->common, &message)) {
      return PlainFailure(2, message);
    }

    TripleGraph src, tgt;
    const Status st = AcquirePair(source, sess->source_path,
                                  sess->target_path, sess->common, &src,
                                  &tgt, &result);
    if (!st.ok()) {
      return PlainFailure(1, "rdfalign stream: " + st.ToString());
    }

    stream::StreamOptions options;
    options.method = sess->method;
    options.threads = sess->common.threads;
    Result<std::unique_ptr<stream::StreamAligner>> aligner =
        stream::StreamAligner::Open(src, tgt, options);
    if (!aligner.ok()) {
      return PlainFailure(
          1, "rdfalign stream: " + aligner.status().ToString());
    }
    sess->aligner = std::move(*aligner);
    sess->token = GenerateSessionToken();
    result.output =
        sess->common.json ? OpenToJson(*sess) : OpenToText(*sess);
    *session = std::move(sess);
    return result;
  }

  if (sub == "resume") {
    if (*session != nullptr) {
      return PlainFailure(
          1, "rdfalign stream: a session is already open on this connection");
    }
    if (!CheckArguments(args, 1, "resume expects <token>", {"json"},
                        &message)) {
      return UsageFailure(message);
    }
    const std::string& token = args.positional()[0];
    std::unique_ptr<StreamSession> claimed =
        registry != nullptr ? registry->Claim(token) : nullptr;
    if (claimed == nullptr) {
      return PlainFailure(
          1, "rdfalign stream: no resumable session for token " + token +
                 " (expired, already resumed, or never parked)");
    }
    result.output =
        args.Has("json") ? ResumeToJson(*claimed) : ResumeToText(*claimed);
    *session = std::move(claimed);
    return result;
  }

  if (*session == nullptr) {
    return PlainFailure(1,
                        "rdfalign stream: no open session on this "
                        "connection (run `stream open` first)");
  }
  StreamSession& sess = **session;

  if (sub == "push") {
    if (!CheckArguments(args, 0, sub + " takes no arguments", {"json"},
                        &message)) {
      return UsageFailure(message);
    }
    Result<store::UpdateBatch> batch =
        store::DecodeUpdateBatch(fragment, "stream push");
    if (!batch.ok()) {
      return PlainFailure(1,
                          "rdfalign stream: " + batch.status().ToString());
    }
    // Reconnect replay: a numbered fragment the session already applied
    // (client re-pushing after a lost response) is NOT applied twice; the
    // original rendered response is replayed bit-identically.
    const uint64_t seq = batch->sequence;
    if (seq != 0 && sess.last_seq != 0 && seq <= sess.last_seq) {
      auto cached = sess.replay.find(seq);
      if (cached == sess.replay.end()) {
        return PlainFailure(
            1, "rdfalign stream: sequence " + std::to_string(seq) +
                   " was already applied and its response is no longer "
                   "cached (replay window is " +
                   std::to_string(StreamSession::kReplayWindow) +
                   " fragments)");
      }
      result.output = cached->second;
      return result;
    }
    Result<stream::StreamBatchResult> r = sess.aligner->Apply(*batch);
    if (!r.ok()) {
      // An apply error leaves the aligner partially updated; the session
      // is unusable and is closed so the client cannot keep pushing.
      const std::string detail = r.status().ToString();
      session->reset();
      return PlainFailure(
          1, "rdfalign stream: " + detail + " (session closed)");
    }
    ++sess.fragments;
    sess.pairs_added_total += r->added_pairs.size();
    sess.pairs_removed_total += r->removed_pairs.size();
    result.output = args.Has("json") ? PushToJson(*r) : PushToText(*r);
    if (seq != 0) {
      if (seq > sess.last_seq) sess.last_seq = seq;
      sess.replay[seq] = result.output;
      while (sess.replay.size() > StreamSession::kReplayWindow) {
        sess.replay.erase(sess.replay.begin());
      }
    }
    return result;
  }

  if (sub == "check") {
    if (!CheckArguments(args, 1, "check expects <final-target>",
                        {"json", "threads", "mmap", "no-verify-checksums"},
                        &message)) {
      return UsageFailure(message);
    }
    CommonOptions common = sess.common;
    if (!ParseCommonFlags(args, "stream", &common, &message)) {
      return PlainFailure(2, message);
    }
    TripleGraph src, fin;
    const Status st = AcquirePair(source, sess.source_path,
                                  args.positional()[0], common, &src, &fin,
                                  &result);
    if (!st.ok()) {
      return PlainFailure(1, "rdfalign stream: " + st.ToString());
    }
    Result<stream::StreamCheckResult> check =
        sess.aligner->CheckBatchEquivalence(src, fin);
    if (!check.ok()) {
      return PlainFailure(1,
                          "rdfalign stream: " + check.status().ToString());
    }
    result.output = common.json ? CheckToJson(*check) : CheckToText(*check);
    return result;
  }

  if (sub == "stats") {
    if (!CheckArguments(args, 0, sub + " takes no arguments", {"json"},
                        &message)) {
      return UsageFailure(message);
    }
    result.output = args.Has("json") ? StatsToJson(sess) : StatsToText(sess);
    return result;
  }

  if (sub == "close") {
    if (!CheckArguments(args, 0, sub + " takes no arguments", {"json"},
                        &message)) {
      return UsageFailure(message);
    }
    result.output = args.Has("json") ? CloseToJson(sess) : CloseToText(sess);
    session->reset();
    return result;
  }

  return UsageFailure("rdfalign stream: unknown subcommand '" + sub +
                      "' (expected open|push|resume|check|stats|close)");
}

}  // namespace rdfalign::service
