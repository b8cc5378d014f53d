// perfbench_tool — the benchmark's helper, linked against librdfalign.
//
// Input generation (the programs under test receive only these files):
//
//   perfbench_tool gen-efo <prefix> --classes=N --versions=K --seed=S
//                  --emit=i[,j...]
//       EFO-like version chain (gen::EfoChain); writes <prefix><i>.nt for
//       each emitted version index.
//   perfbench_tool fragments <base.nt> <prefix> --seed=S
//       2 * kFragmentPairs RDFUPDT1 update fragments
//       (store::EncodeUpdateBatch) against the graph in base.nt: fragment 2j
//       replaces the literal object of kEdits triples with blank subjects,
//       fragment 2j+1 restores them. Any even prefix of the sequence
//       therefore leaves the graph equal to base, and the live blank count
//       never changes. Sequence numbers are 0, so the daemon applies every
//       push (no replay de-duplication). Prints the fragment paths in push
//       order.
//
// Traced replays (the layer breakdown of one benchmark op; each span is
// recorded by this file around calls into the library's public API):
//
//   perfbench_tool trace-build <in.nt> <out.snap>
//   perfbench_tool trace-align <a> <b> --method=M --threads=T [--cached]
//       kTraceAlignOps ops after one untraced warm-up op.
//   perfbench_tool trace-stream <base.snap> <frag>...
//       kTraceStreamOps pushes on one thread, as the daemon's default.
//
// Each prints one JSON object to stdout: the spans as
// {name, start_ms, end_ms, parent, op} (parent is an index into the list,
// -1 for an op root) plus the outcome fields run.py checks. Exit 1 on any
// library error, 2 on bad usage.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/aligner.h"
#include "core/alignment.h"
#include "core/hybrid.h"
#include "core/overlap_align.h"
#include "gen/efo_gen.h"
#include "parser/ntriples_parser.h"
#include "parser/ntriples_writer.h"
#include "rdf/merge.h"
#include "service/flags.h"
#include "service/graph_source.h"
#include "service/snapshot_cache.h"
#include "service/verbs.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "stream/stream_aligner.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace rdfalign;

namespace {

constexpr long long kFragmentPairs = 4;  // edit/restore pairs per workload
constexpr long long kEdits = 20;         // literal edits per fragment
constexpr long long kTraceAlignOps = 10;
constexpr long long kTraceStreamOps = 40;  // even: the fragments cancel out

// ------------------------------------------------------------------ spans

class Tracer {
 public:
  /// Opens a span and returns its index.
  int Begin(const char* name, int parent, int op) {
    spans_.push_back({name, Now(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[span].end_ms = Now(); }

  void AppendJson(std::string* out) const {
    *out += "\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"name\": \"%s\", \"start_ms\": %.6f, "
                    "\"end_ms\": %.6f, \"parent\": %d, \"op\": %d}",
                    i == 0 ? "" : ",", s.name, s.start_ms, s.end_ms, s.parent,
                    s.op);
      *out += buf;
    }
    *out += "]";
  }

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;
    int op;
  };
  double Now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span named `name`.
template <typename Fn>
auto Traced(Tracer& t, const char* name, int parent, int op, Fn&& fn) {
  const int span = t.Begin(name, parent, op);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    t.End(span);
  } else {
    auto r = fn();
    t.End(span);
    return r;
  }
}

int Fail(const Status& st) {
  std::fprintf(stderr, "perfbench_tool: %s\n", st.ToString().c_str());
  return 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "perfbench_tool: %s\n", msg);
  return 2;
}

/// Reads a non-negative integer flag; -1 on a malformed value.
long long IntFlag(const service::Args& args, const char* name,
                  long long fallback) {
  std::string error;
  const std::optional<long long> v = args.GetInt(name, fallback, &error);
  return v && *v >= 0 ? *v : -1;
}

// ----------------------------------------------------------------- gen-efo

int GenEfo(const service::Args& args) {
  if (args.positional().size() != 1) return Usage("gen-efo <prefix>");
  const long long classes = IntFlag(args, "classes", 8000);
  const long long versions = IntFlag(args, "versions", 9);
  const long long seed = IntFlag(args, "seed", 1);
  if (classes < 1 || versions < 1 || seed < 0) {
    return Usage("--classes and --versions must be >= 1, --seed >= 0");
  }
  gen::EfoOptions options;
  options.initial_classes = classes;
  options.versions = versions;
  options.seed = seed;
  std::vector<size_t> emit;
  const std::string emit_flag = args.GetString("emit", "0");
  for (std::string_view v : Split(emit_flag, ',')) {
    size_t index = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), index);
    if (ec != std::errc() || end != v.data() + v.size() ||
        index >= options.versions) {
      return Usage("--emit takes version indexes below --versions");
    }
    emit.push_back(index);
  }
  const gen::EfoChain chain = gen::EfoChain::Generate(options);
  std::printf("{\"files\": [");
  for (size_t i = 0; i < emit.size(); ++i) {
    const TripleGraph& g = chain.Version(emit[i]);
    const std::string path =
        args.positional()[0] + std::to_string(emit[i]) + ".nt";
    if (Status st = WriteNTriplesFile(g, path); !st.ok()) return Fail(st);
    std::printf("%s{\"path\": \"%s\", \"nodes\": %zu, \"triples\": %zu, "
                "\"blanks\": %zu}",
                i == 0 ? "" : ", ", path.c_str(), g.NumNodes(), g.NumEdges(),
                g.CountOfKind(TermKind::kBlank));
  }
  std::printf("]}\n");
  return 0;
}

// --------------------------------------------------------------- fragments

int Fragments(const service::Args& args) {
  if (args.positional().size() != 2) {
    return Usage("fragments <base.nt> <prefix>");
  }
  const long long seed = IntFlag(args, "seed", 1);
  if (seed < 0) return Usage("--seed must be >= 0");
  Result<TripleGraph> base =
      ParseNTriplesFile(args.positional()[0], nullptr);
  if (!base.ok()) return Fail(base.status());

  // Candidate edits: (blank subject, literal object) triples, one per
  // subject so the edits of one fragment touch distinct blanks.
  std::vector<size_t> candidates;
  NodeId last_subject = kInvalidNode;
  const std::span<const Triple> triples = base->triples();
  for (size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    if (base->IsBlank(t.s) && base->IsLiteral(t.o) && t.s != last_subject) {
      candidates.push_back(i);
      last_subject = t.s;
    }
  }
  if (candidates.size() < static_cast<size_t>(kEdits)) {
    return Usage("base graph has too few blank subjects with literals");
  }
  Rng rng(seed);
  for (size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.Uniform(i)]);
  }

  uint64_t bytes = 0;
  std::string files;
  size_t next = 0;
  for (long long j = 0; j < kFragmentPairs; ++j) {
    std::vector<NodeLabel> labels = base->labels();
    std::vector<Triple> edited(triples.begin(), triples.end());
    for (long long e = 0; e < kEdits; ++e) {
      Triple& t = edited[candidates[next++ % candidates.size()]];
      const std::string lex = std::string(base->Lexical(t.o)) + " [edit " +
                              std::to_string(j) + "." + std::to_string(e) +
                              "]";
      labels.push_back({TermKind::kLiteral, base->dict_ptr()->Intern(lex)});
      t.o = static_cast<NodeId>(labels.size() - 1);
    }
    Result<TripleGraph> next_graph = TripleGraph::FromParts(
        base->dict_ptr(), std::move(labels), std::move(edited), true);
    if (!next_graph.ok()) return Fail(next_graph.status());

    for (int dir = 0; dir < 2; ++dir) {
      const TripleGraph& from = dir == 0 ? *base : *next_graph;
      const TripleGraph& to = dir == 0 ? *next_graph : *base;
      Result<store::UpdateBatch> batch = store::BuildUpdateBatch(from, to, 0);
      if (!batch.ok()) return Fail(batch.status());
      char path[64];
      std::snprintf(path, sizeof(path), "%03lld.rdfu", 2 * j + dir);
      const std::string out = args.positional()[1] + path;
      if (Status st = store::WriteUpdateFile(*batch, out); !st.ok()) {
        return Fail(st);
      }
      bytes += std::filesystem::file_size(out);
      files += (files.empty() ? "\"" : ", \"") + out + "\"";
    }
  }
  std::printf("{\"files\": [%s], \"edits\": %lld, \"live_blanks\": %zu, "
              "\"nodes\": %zu, \"triples\": %zu, \"bytes\": %llu}\n",
              files.c_str(), kEdits, base->CountOfKind(TermKind::kBlank),
              base->NumNodes(), base->NumEdges(), (unsigned long long)bytes);
  return 0;
}

// ------------------------------------------------------------- trace-build

int TraceBuild(const service::Args& args) {
  if (args.positional().size() != 2) {
    return Usage("trace-build <in.nt> <out.snap>");
  }
  Tracer t;
  const int op = t.Begin("op", -1, 0);
  Result<TripleGraph> g = Traced(t, "parser.parse", op, 0, [&] {
    return ParseNTriplesFile(args.positional()[0], nullptr);
  });
  if (!g.ok()) return Fail(g.status());
  const Status st = Traced(t, "store.save", op, 0, [&] {
    return store::WriteSnapshot(*g, args.positional()[1]);
  });
  if (!st.ok()) return Fail(st);
  t.End(op);
  std::string out = "{";
  t.AppendJson(&out);
  out += ", \"nodes\": " + std::to_string(g->NumNodes()) +
         ", \"triples\": " + std::to_string(g->NumEdges()) + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// ------------------------------------------------------------- trace-align

/// Replays `align a b --method=M --json` op by op, in RunAlign's order:
/// acquire + rebind both graphs, merge, method core, statistics, render.
/// With --cached the graphs come from one warm SnapshotCache (the daemon's
/// path), otherwise each op loads them from disk (the one-shot CLI's path).
int TraceAlign(const service::Args& args) {
  if (args.positional().size() != 2) return Usage("trace-align <a> <b>");
  const std::string method = args.GetString("method", "hybrid");
  if (method != "hybrid" && method != "overlap") {
    return Usage("--method must be hybrid or overlap");
  }
  const long long threads_flag = IntFlag(args, "threads", 1);
  if (threads_flag < 0) return Usage("--threads must be >= 0");
  service::CommonOptions common;
  common.threads = threads_flag;
  const bool cached = args.Has("cached");
  const size_t threads = ResolveThreads(common.threads);
  RefinementOptions refinement;
  refinement.threads = common.threads;
  OverlapAlignOptions overlap;
  overlap.propagate.refinement = refinement;
  overlap.threads = threads;

  service::DirectGraphSource direct;
  service::SnapshotCache cache;
  service::GraphSource& source =
      cached ? static_cast<service::GraphSource&>(cache) : direct;

  Tracer t;
  std::string per_op;
  std::string render;
  // Op -1 is the untraced warm-up: it fills the cache (or the page cache).
  for (long long i = -1; i < kTraceAlignOps; ++i) {
    const int id = static_cast<int>(i);
    const int op = t.Begin("op", -1, id);
    service::AlignResponse resp;
    resp.method = method == "overlap" ? AlignMethod::kOverlap
                                      : AlignMethod::kHybrid;
    resp.threads = threads;
    resp.path_a = args.positional()[0];
    resp.path_b = args.positional()[1];
    auto dict = std::make_shared<Dictionary>();
    TripleGraph g[2];
    double load_ms = 0;
    for (int side = 0; side < 2; ++side) {
      const int span =
          t.Begin(cached ? "service.acquire" : "store.load", op, id);
      Result<service::AcquiredGraph> acquired =
          source.Acquire(args.positional()[side], common, false);
      if (!acquired.ok()) return Fail(acquired.status());
      g[side] = service::RebindGraph(acquired->loaded, dict);
      t.End(span);
      if (!acquired->cache_hit) load_ms += acquired->acquire_ms;
      (side == 0 ? resp.kind_a : resp.kind_b) = acquired->loaded->kind;
    }
    resp.nodes_a = g[0].NumNodes();
    resp.triples_a = g[0].NumEdges();
    resp.nodes_b = g[1].NumNodes();
    resp.triples_b = g[1].NumEdges();
    Result<CombinedGraph> cg = Traced(t, "rdf.merge", op, id, [&] {
      return CombinedGraph::Build(g[0], g[1], threads);
    });
    if (!cg.ok()) return Fail(cg.status());
    Partition partition = Traced(t, "core.refine", op, id, [&] {
      return HybridPartition(*cg, &resp.refinement, refinement);
    });
    const size_t iterations = resp.refinement.iterations;
    OverlapAlignResult o;
    if (resp.method == AlignMethod::kOverlap) {
      o = Traced(t, "core.overlap", op, id,
                 [&] { return OverlapAlign(*cg, overlap, &partition); });
      partition = std::move(o.xi.partition);
      // The Aligner reports no refinement aggregates for overlap.
      resp.refinement = RefinementStats{};
    }
    Traced(t, "core.stats", op, id, [&] {
      resp.edge_stats = ComputeEdgeAlignment(*cg, partition, threads);
      resp.node_stats = ComputeNodeAlignment(*cg, partition, threads);
    });
    render = Traced(t, "service.render", op, id,
                    [&] { return service::AlignToJson(resp); });
    t.End(op);
    if (i < 0) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"load_ms\": %.6f, \"enrich_ms\": %.6f, "
                  "\"overlap_index_ms\": %.6f, \"match_ms\": %.6f, "
                  "\"refine_iterations\": %zu}",
                  per_op.empty() ? "" : ", ", load_ms, o.enrich_ms, o.index_ms,
                  o.match_ms, iterations);
    per_op += buf;
  }
  std::string out = "{";
  t.AppendJson(&out);
  out += ", \"ops\": [" + per_op + "], \"render\": " + render + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// ------------------------------------------------------------ trace-stream

/// Replays `stream open base base` and then `stream push` of each fragment
/// in turn, op by op: decode the fragment image, apply it. After the ops
/// (an even number, so the fragments cancel out) the live partition must
/// match the batch alignment of (base, base).
int TraceStream(const service::Args& args) {
  if (args.positional().size() < 3) {
    return Usage("trace-stream <base.snap> <frag> <frag>...");
  }
  service::CommonOptions common;
  common.threads = 1;
  std::vector<std::string> images;
  for (size_t i = 1; i < args.positional().size(); ++i) {
    Result<std::string> image = store::ReadFileBytes(args.positional()[i]);
    if (!image.ok()) return Fail(image.status());
    images.push_back(std::move(*image));
  }
  if (images.size() % 2 != 0) return Usage("fragments come in pairs");

  Tracer t;
  service::DirectGraphSource source;
  auto dict = std::make_shared<Dictionary>();
  Result<service::AcquiredGraph> acquired =
      source.Acquire(args.positional()[0], common, false);
  if (!acquired.ok()) return Fail(acquired.status());
  const TripleGraph src = service::RebindGraph(acquired->loaded, dict);
  const TripleGraph tgt = service::RebindGraph(acquired->loaded, dict);
  stream::StreamOptions options;
  options.method = AlignMethod::kDeblank;
  options.threads = ResolveThreads(common.threads);
  Result<std::unique_ptr<stream::StreamAligner>> aligner =
      stream::StreamAligner::Open(src, tgt, options);
  if (!aligner.ok()) return Fail(aligner.status());

  std::string per_op;
  for (long long i = 0; i < kTraceStreamOps; ++i) {
    const int id = static_cast<int>(i);
    const int op = t.Begin("op", -1, id);
    Result<store::UpdateBatch> batch =
        Traced(t, "store.fragment_decode", op, id, [&] {
          return store::DecodeUpdateBatch(images[i % images.size()],
                                          "stream frame");
        });
    if (!batch.ok()) return Fail(batch.status());
    Result<stream::StreamBatchResult> r = Traced(
        t, "stream.apply", op, id, [&] { return (*aligner)->Apply(*batch); });
    if (!r.ok()) return Fail(r.status());
    t.End(op);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"dirty_total\": %zu, \"pairs_added\": %zu, "
                  "\"pairs_removed\": %zu, \"refined\": %s}",
                  per_op.empty() ? "" : ", ", r->dirty_total,
                  r->added_pairs.size(), r->removed_pairs.size(),
                  r->refined ? "true" : "false");
    per_op += buf;
  }
  Result<stream::StreamCheckResult> check =
      (*aligner)->CheckBatchEquivalence(src, tgt);
  if (!check.ok()) return Fail(check.status());
  std::string out = "{";
  t.AppendJson(&out);
  out += ", \"ops\": [" + per_op + "], \"equivalent\": true, " +
         "\"live_blanks\": " + std::to_string(tgt.CountOfKind(TermKind::kBlank)) +
         "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("usage: perfbench_tool <command> [args]");
  const std::string cmd = argv[1];
  const service::Args args(argc, argv, 2);
  if (cmd == "gen-efo") return GenEfo(args);
  if (cmd == "fragments") return Fragments(args);
  if (cmd == "trace-build") return TraceBuild(args);
  if (cmd == "trace-align") return TraceAlign(args);
  if (cmd == "trace-stream") return TraceStream(args);
  return Usage("unknown command");
}
