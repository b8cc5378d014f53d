// The verb layer: every rdfalign operation, shared verbatim by the
// `rdfalign` CLI and the `rdfalignd` daemon (the api redesign invariant:
// tools/*.cc hold no verb logic).
//
// Each verb is its response and two renderings here, plus a run function
// and one row in the verb table in verbs.cc:
//
//   * XToJson / XToText(const XResponse&)          — the two renderings.
//     The JSON renderer writes through the one JsonBuf writer
//     (service/json.h) and doubles as the daemon's wire format.
//   * Status RunX(const VerbCall&, XResponse*)     — the operation,
//     file-local, reading the decoded command line directly; file graphs
//     are obtained through the call's GraphSource (direct loads in the
//     CLI, the resident SnapshotCache in the daemon).
//   * its VerbSpec row: name, positional arity, accepted flags, the hook
//     that parses its own flags, whether it acquires graphs, whether a
//     retry is safe, and the function that runs and renders it.
//
// ExecuteVerb decodes one tokenized command line against that table —
// both front ends call it, so dispatch, flag checks, error prefixes, and
// exit-code policy (usage/flag errors -> 2, patch base mismatch -> 2,
// other failures -> 1) cannot drift between them. The client's retry
// rule, the daemon's routing and its per-verb metrics read the same
// table through FindVerb.

#ifndef RDFALIGN_SERVICE_VERBS_H_
#define RDFALIGN_SERVICE_VERBS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "core/aligner.h"
#include "core/archive.h"
#include "service/flags.h"
#include "service/graph_source.h"
#include "service/snapshot_cache.h"
#include "store/archive_io.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "util/result.h"

namespace rdfalign::service {

// ---------------------------------------------------------------- build

struct BuildResponse {
  std::string output;
  size_t nodes = 0;
  size_t triples = 0;
  double parse_ms = 0;
  double write_ms = 0;
  size_t threads = 0;  ///< resolved worker count
};

std::string BuildToJson(const BuildResponse& resp);
std::string BuildToText(const BuildResponse& resp);

// ----------------------------------------------------------------- info

/// Header-level summary of a streaming update fragment
/// (store/update_fragment.h), reported by `info` on .rdfu files.
struct UpdateFragmentSummary {
  uint64_t sequence = 0;
  size_t refs = 0;
  size_t new_nodes = 0;
  size_t removed_nodes = 0;
  size_t removed_triples = 0;
  size_t added_triples = 0;
  uint64_t file_bytes = 0;
};

/// A snapshot is loaded through the call's GraphSource and an archive's
/// base snapshot is read, for the text listing and the JSON report alike,
/// so both fail on the same files; the JSON report also carries the
/// content fingerprint (snapshot: GraphFingerprint of the loaded graph;
/// archive: that of the embedded base snapshot).
struct InfoResponse {
  std::string path;
  std::string kind;  ///< "snapshot" | "delta" | "archive" | "update"
  store::SnapshotInfo snapshot;  ///< valid when kind == "snapshot"
  store::DeltaInfo delta;        ///< valid when kind == "delta"
  store::ArchiveInfo archive;    ///< valid when kind == "archive"
  UpdateFragmentSummary update;  ///< valid when kind == "update"
  bool has_fingerprint = false;
  uint64_t fingerprint = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

std::string InfoToJson(const InfoResponse& resp);
std::string InfoToText(const InfoResponse& resp);

// ---------------------------------------------------------------- align

struct AlignResponse {
  AlignMethod method = AlignMethod::kHybrid;
  size_t threads = 0;
  std::string path_a, kind_a;
  std::string path_b, kind_b;
  size_t nodes_a = 0, triples_a = 0;
  size_t nodes_b = 0, triples_b = 0;
  double load_a_ms = 0, load_b_ms = 0;
  double seconds = 0;
  AlignPhaseTimings phases;
  EdgeAlignmentStats edge_stats;
  NodeAlignmentStats node_stats;
  RefinementStats refinement;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

std::string AlignToJson(const AlignResponse& resp);
std::string AlignToText(const AlignResponse& resp);

// ----------------------------------------------------------------- diff

struct DiffResponse {
  AlignMethod method = AlignMethod::kHybrid;
  size_t threads = 0;
  std::string path_base, kind_base;
  std::string path_next, kind_next;
  std::string path_out;
  size_t nodes_base = 0, triples_base = 0;
  size_t nodes_next = 0, triples_next = 0;
  store::DeltaWriteStats stats;
  double align_ms = 0;
  double write_ms = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

std::string DiffToJson(const DiffResponse& resp);
std::string DiffToText(const DiffResponse& resp);

// ---------------------------------------------------------------- patch

struct PatchResponse {
  size_t threads = 0;
  std::string path_base, kind_base;
  std::string path_delta;
  std::string path_out;
  size_t nodes_base = 0, triples_base = 0;
  size_t nodes = 0, triples = 0;  ///< the reconstructed next version
  store::DeltaApplyStats stats;
  double load_ms = 0;
  double apply_ms = 0;
  double write_ms = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

std::string PatchToJson(const PatchResponse& resp);
std::string PatchToText(const PatchResponse& resp);

// -------------------------------------------------------------- archive

struct ArchiveResponse {
  AlignMethod method = AlignMethod::kHybrid;
  size_t threads = 0;
  std::string path_out;
  ArchiveStats stats;
  store::ArchiveSaveStats save_stats;
  double append_ms = 0;
  double save_ms = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

std::string ArchiveToJson(const ArchiveResponse& resp);
std::string ArchiveToText(const ArchiveResponse& resp);

// ------------------------------------------------------------------ gen

struct GenFileInfo {
  std::string path;
  size_t nodes = 0;
  size_t triples = 0;
};

struct GenResponse {
  std::string prefix;
  /// Files written so far — on failure the response still lists the
  /// versions that were written before the error (the CLI prints them,
  /// matching the historical streaming output).
  std::vector<GenFileInfo> files;
};

std::string GenToJson(const GenResponse& resp);
std::string GenToText(const GenResponse& resp);

// ---------------------------------------------------------------- cache

struct CacheResponse {
  std::string action;        ///< "stats" | "clear"
  SnapshotCacheStats stats;  ///< after the action
  std::vector<SnapshotCacheEntryInfo> entries;  ///< "stats" only, MRU first
  uint64_t dropped_entries = 0;                 ///< "clear" only
};

std::string CacheToJson(const CacheResponse& resp);
std::string CacheToText(const CacheResponse& resp);

// -------------------------------------------------------------- updates

/// `rdfalign updates <base> <next> <out.upd>`: the stateless producer for
/// the streaming pipeline — compute the label-addressed update fragment
/// (store/update_fragment.h, docs/stream.md) turning `base` into `next`.
struct UpdatesResponse {
  std::string path_base, kind_base;
  std::string path_next, kind_next;
  std::string path_out;
  size_t nodes_base = 0, triples_base = 0;
  size_t nodes_next = 0, triples_next = 0;
  uint64_t refs = 0;             ///< node references declared
  uint64_t new_nodes = 0;        ///< nodes created by the batch
  uint64_t removed_nodes = 0;    ///< nodes retired by the batch
  uint64_t removed_triples = 0;
  uint64_t added_triples = 0;
  uint64_t sequence = 0;
  uint64_t file_bytes = 0;
  double build_ms = 0;
  double write_ms = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

std::string UpdatesToJson(const UpdatesResponse& resp);
std::string UpdatesToText(const UpdatesResponse& resp);

// ------------------------------------------------------------- dispatch

/// The outcome of one verb execution, transport-agnostic: the CLI prints
/// `output` to stdout, `error` (plus the usage synopsis when
/// `usage_error`) to stderr, and exits with `exit_code`; the daemon wraps
/// the same fields into its JSON response envelope.
struct VerbResult {
  int exit_code = 0;
  bool usage_error = false;
  std::string verb;
  std::string output;  ///< rendered response body
  std::string error;   ///< failure message (no trailing newline)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// Where a verb runs. `stats` and `stream` need state that only a running
/// rdfalignd holds (its request metrics, a per-connection streaming
/// session): the daemon routes them to HandleStatsVerb / HandleStreamVerb,
/// and the in-process dispatcher only points at the daemon.
enum class VerbScope { kAnywhere, kDaemonStats, kDaemonStream };

struct VerbCall;  ///< one decoded command line (verbs.cc)

/// One row of the verb table — the single list of verbs.
struct VerbSpec {
  const char* name;
  VerbScope scope;
  size_t min_positional;
  size_t max_positional;  ///< SIZE_MAX: unbounded (archive's versions)
  std::initializer_list<const char*> flags;  ///< every accepted --flag
  /// Parses the verb's own flags (--method, --format, ...) into the call,
  /// before the common flags unless `hook_after_common`; nullptr: none.
  bool (*hook)(const Args& args, VerbCall* call, std::string* error);
  bool hook_after_common;
  /// Reaches graphs (or the resident cache) through the GraphSource, so
  /// the result reports the request's cache hits and misses.
  bool acquires;
  /// Read-only: the client may re-send it after a transport failure.
  bool idempotent;
  /// A run failing with InvalidArgument exits 2, not 1 (patch: the delta
  /// does not fit the base).
  bool invalid_argument_is_usage;
  /// Runs the verb and renders its response into `result->output`.
  Status (*run)(const VerbCall& call, VerbResult* result);
};

/// The table row named `name`; nullptr for an unknown verb.
const VerbSpec* FindVerb(std::string_view name);

/// Checks `args` against the row's positional arity and accepted flags.
/// On failure `result` holds the usage error (exit 2, the synopsis is
/// shown; the message names the unknown flag, if that was the problem).
bool CheckVerbArgs(const VerbSpec& spec, const Args& args,
                   VerbResult* result);

/// Decodes `tokens` (verb first), runs it against `source`, renders the
/// response (JSON with --json, text otherwise).
VerbResult ExecuteVerb(const std::vector<std::string>& tokens,
                       GraphSource* source);

/// The command synopsis (the historical Usage() text).
const char* UsageText();

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_VERBS_H_
