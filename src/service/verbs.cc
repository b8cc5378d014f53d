#include "service/verbs.h"

#include <cstdint>
#include <filesystem>
#include <utility>

#include "core/delta.h"
#include "gen/category_gen.h"
#include "parser/ntriples_parser.h"
#include "parser/ntriples_writer.h"
#include "parser/turtle_parser.h"
#include "rdf/merge.h"
#include "service/json.h"
#include "store/atomic_writer.h"
#include "store/update_fragment.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign::service {

namespace {

/// Aligner options from a parsed request: the raw thread count (0 = all
/// hardware threads is the engine's convention); the Aligner wires it into
/// every phase.
AlignerOptions MakeAlignerOptions(AlignMethod method,
                                  const CommonOptions& common) {
  AlignerOptions options;
  options.method = method;
  options.refinement.threads = common.threads;
  return options;
}

void CountAcquire(const AcquiredGraph& g, uint64_t* hits, uint64_t* misses) {
  ++*(g.cache_hit ? hits : misses);
}

/// The `"a": {"path": ..., "kind": ..., "nodes": N, "triples": N` head of
/// an input-graph object; the caller adds any further fields and End()s.
JsonBuf& GraphObject(JsonBuf& b, const char* key, const std::string& path,
                     const std::string& kind, size_t nodes, size_t triples) {
  return b.Object(key)
      .Str("path", path)
      .Str("kind", kind)
      .Int("nodes", nodes)
      .Int("triples", triples);
}

/// One `{"name": ..., "offset": ..., "bytes": ..., "checksum": ...}` line
/// per section of a store file.
template <typename Section, typename NameFn>
void SectionsJson(JsonBuf& b, const std::vector<Section>& sections,
                  NameFn name) {
  b.Array("sections");
  for (const Section& s : sections) {
    b.Item()
        .Str("name", name(s.id))
        .Int("offset", s.offset)
        .Int("bytes", s.size)
        .Hex("checksum", s.checksum)
        .End();
  }
  b.End();
}

template <typename Section, typename NameFn>
void SectionsText(std::string* out, const std::vector<Section>& sections,
                  NameFn name, int width) {
  StrAppendf(out, "  sections:\n");
  for (const Section& s : sections) {
    StrAppendf(out, "    %-*s offset=%-10llu bytes=%-10llu checksum=%016llx\n",
               width, std::string(name(s.id)).c_str(),
               (unsigned long long)s.offset, (unsigned long long)s.size,
               (unsigned long long)s.checksum);
  }
}

}  // namespace

// ---------------------------------------------------------------- build

Status RunBuild(const BuildRequest& req, BuildResponse* resp) {
  const size_t workers = ResolveThreads(req.common.threads);
  resp->output = req.output;
  resp->threads = workers;

  WallTimer parse_timer;
  Result<TripleGraph> graph = Status::Internal("unreachable");
  if (req.format == "turtle" ||
      (req.format == "auto" && EndsWith(req.input, ".ttl"))) {
    graph = ParseTurtleFile(req.input, nullptr, workers);
  } else {
    graph = ParseNTriplesFile(req.input, nullptr, nullptr, workers);
  }
  RDFALIGN_RETURN_IF_ERROR(graph.status());
  resp->parse_ms = parse_timer.ElapsedMillis();
  resp->nodes = graph->NumNodes();
  resp->triples = graph->NumEdges();

  WallTimer write_timer;
  RDFALIGN_RETURN_IF_ERROR(store::WriteSnapshot(*graph, req.output));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string BuildToJson(const BuildResponse& r) {
  return JsonBuf()
      .Str("output", r.output)
      .Int("nodes", r.nodes)
      .Int("triples", r.triples)
      .Int("threads", r.threads)
      .Num("parse_ms", r.parse_ms, 2)
      .Num("write_ms", r.write_ms, 2)
      .Take();
}

std::string BuildToText(const BuildResponse& r) {
  std::string out;
  StrAppendf(&out,
             "built %s: %zu nodes, %zu triples (parse %.1f ms, "
             "write %.1f ms, %zu threads)\n",
             r.output.c_str(), r.nodes, r.triples, r.parse_ms, r.write_ms,
             r.threads);
  return out;
}

// ----------------------------------------------------------------- info

Status RunInfo(const InfoRequest& req, InfoResponse* resp) {
  resp->path = req.path;
  if (store::LooksLikeDelta(req.path)) {
    resp->kind = "delta";
    RDFALIGN_ASSIGN_OR_RETURN(resp->delta, store::ReadDeltaInfo(req.path));
    resp->has_fingerprint = true;
    resp->fingerprint = resp->delta.base_fingerprint;
    return Status::OK();
  }
  if (store::LooksLikeArchive(req.path)) {
    resp->kind = "archive";
    RDFALIGN_ASSIGN_OR_RETURN(resp->archive,
                              store::ReadArchiveInfo(req.path));
    if (resp->archive.num_versions > 0) {
      RDFALIGN_ASSIGN_OR_RETURN(resp->fingerprint,
                                store::ArchiveBaseFingerprint(req.path));
      resp->has_fingerprint = true;
    }
    return Status::OK();
  }
  if (store::LooksLikeUpdateFile(req.path)) {
    resp->kind = "update";
    RDFALIGN_ASSIGN_OR_RETURN(const store::UpdateBatch batch,
                              store::ReadUpdateFile(req.path));
    resp->update.sequence = batch.sequence;
    resp->update.refs = batch.nodes.size();
    resp->update.new_nodes = batch.num_new;
    resp->update.removed_nodes = batch.removed_nodes.size();
    resp->update.removed_triples = batch.removed.size();
    resp->update.added_triples = batch.added.size();
    std::error_code ec;
    const auto size = std::filesystem::file_size(req.path, ec);
    resp->update.file_bytes = ec ? 0 : static_cast<uint64_t>(size);
    return Status::OK();
  }
  // Snapshot, or the error path for files that are no store format at all.
  resp->kind = "snapshot";
  RDFALIGN_ASSIGN_OR_RETURN(resp->snapshot,
                            store::ReadSnapshotInfo(req.path));
  // The fingerprint is a property of the graph content, so the graph is
  // actually loaded, checksums and structure verified, whichever report
  // is asked for: through the daemon's cache this is the resident fast
  // path, in the CLI a one-shot load.
  RDFALIGN_ASSIGN_OR_RETURN(AcquiredGraph g,
                            req.source->Acquire(req.path, req.common, true));
  CountAcquire(g, &resp->cache_hits, &resp->cache_misses);
  resp->fingerprint = g.loaded->fingerprint;
  resp->has_fingerprint = true;
  return Status::OK();
}

std::string InfoToJson(const InfoResponse& r) {
  JsonBuf b;
  b.Str("path", r.path);
  if (r.kind == "delta") {
    const store::DeltaInfo& info = r.delta;
    b.Str("kind", r.kind).Int("version", info.version);
    b.Object("base")
        .Int("nodes", info.base_nodes)
        .Int("triples", info.base_triples)
        .Int("terms", info.base_terms)
        .Hex("fingerprint", info.base_fingerprint)
        .End();
    b.Object("next")
        .Int("nodes", info.next_nodes)
        .Int("triples", info.next_triples)
        .Int("terms", info.next_terms)
        .Int("new_terms", info.num_new_terms)
        .End();
    b.Int("file_bytes", info.file_size);
    SectionsJson(b, info.sections, store::DeltaSectionName);
  } else if (r.kind == "archive") {
    const store::ArchiveInfo& info = r.archive;
    b.Str("kind", r.kind)
        .Int("version", info.version)
        .Int("versions", info.num_versions);
    if (r.has_fingerprint) b.Hex("base_fingerprint", r.fingerprint);
    b.Int("file_bytes", info.file_size);
    SectionsJson(b, info.sections, store::ArchiveSectionName);
  } else if (r.kind == "update") {
    const UpdateFragmentSummary& info = r.update;
    b.Str("kind", r.kind)
        .Int("sequence", info.sequence)
        .Int("refs", info.refs)
        .Int("new_nodes", info.new_nodes)
        .Int("removed_nodes", info.removed_nodes)
        .Int("removed_triples", info.removed_triples)
        .Int("added_triples", info.added_triples)
        .Int("file_bytes", info.file_bytes);
  } else {
    // The snapshot report predates `kind` and stays without it.
    const store::SnapshotInfo& info = r.snapshot;
    b.Int("version", info.version)
        .Int("nodes", info.num_nodes)
        .Int("triples", info.num_triples)
        .Int("terms", info.num_terms);
    if (r.has_fingerprint) b.Hex("fingerprint", r.fingerprint);
    b.Int("file_bytes", info.file_size);
    SectionsJson(b, info.sections, store::SectionName);
  }
  return b.Take();
}

std::string InfoToText(const InfoResponse& r) {
  std::string out;
  if (r.kind == "delta") {
    const store::DeltaInfo& info = r.delta;
    StrAppendf(&out, "rdfalign delta %s\n", r.path.c_str());
    StrAppendf(&out, "  format version : %u\n", info.version);
    StrAppendf(&out,
               "  base           : %llu nodes, %llu triples, %llu terms\n",
               (unsigned long long)info.base_nodes,
               (unsigned long long)info.base_triples,
               (unsigned long long)info.base_terms);
    StrAppendf(&out, "  base fingerprint: %016llx\n",
               (unsigned long long)info.base_fingerprint);
    StrAppendf(&out,
               "  next           : %llu nodes, %llu triples, %llu terms "
               "(%llu new)\n",
               (unsigned long long)info.next_nodes,
               (unsigned long long)info.next_triples,
               (unsigned long long)info.next_terms,
               (unsigned long long)info.num_new_terms);
    StrAppendf(&out, "  file size      : %llu bytes\n",
               (unsigned long long)info.file_size);
    SectionsText(&out, info.sections, store::DeltaSectionName, 16);
  } else if (r.kind == "archive") {
    const store::ArchiveInfo& info = r.archive;
    StrAppendf(&out, "rdfalign archive %s\n", r.path.c_str());
    StrAppendf(&out, "  format version : %u\n", info.version);
    StrAppendf(&out, "  versions       : %llu\n",
               (unsigned long long)info.num_versions);
    StrAppendf(&out, "  file size      : %llu bytes\n",
               (unsigned long long)info.file_size);
    SectionsText(&out, info.sections, store::ArchiveSectionName, 13);
  } else if (r.kind == "update") {
    const UpdateFragmentSummary& info = r.update;
    StrAppendf(&out, "rdfalign update fragment %s\n", r.path.c_str());
    StrAppendf(&out, "  sequence       : %llu\n",
               (unsigned long long)info.sequence);
    StrAppendf(&out, "  node refs      : %zu (%zu new)\n", info.refs,
               info.new_nodes);
    StrAppendf(&out, "  removed        : %zu triples, %zu nodes\n",
               info.removed_triples, info.removed_nodes);
    StrAppendf(&out, "  added          : %zu triples\n", info.added_triples);
    StrAppendf(&out, "  file size      : %llu bytes\n",
               (unsigned long long)info.file_bytes);
  } else {
    const store::SnapshotInfo& info = r.snapshot;
    StrAppendf(&out, "rdfalign snapshot %s\n", r.path.c_str());
    StrAppendf(&out, "  format version : %u\n", info.version);
    StrAppendf(&out, "  nodes          : %llu\n",
               (unsigned long long)info.num_nodes);
    StrAppendf(&out, "  triples        : %llu\n",
               (unsigned long long)info.num_triples);
    StrAppendf(&out, "  dictionary     : %llu terms\n",
               (unsigned long long)info.num_terms);
    StrAppendf(&out, "  file size      : %llu bytes\n",
               (unsigned long long)info.file_size);
    SectionsText(&out, info.sections, store::SectionName, 12);
  }
  return out;
}

// ---------------------------------------------------------------- align

Status RunAlign(const AlignRequest& req, AlignResponse* resp) {
  const AlignerOptions options = MakeAlignerOptions(req.method, req.common);
  const size_t workers = ResolveThreads(req.common.threads);
  resp->method = req.method;
  resp->threads = workers;
  resp->path_a = req.path_a;
  resp->path_b = req.path_b;

  // One shared dictionary puts both versions in a single label space; the
  // acquired graphs (possibly cache-resident, each with a private
  // dictionary) are rebound into it zero-copy.
  auto dict = std::make_shared<Dictionary>();
  WallTimer load_a_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph ga,
      AcquireRebound(req.source, req.path_a, req.common, dict,
                     &resp->cache_hits, &resp->cache_misses, &resp->kind_a));
  resp->load_a_ms = load_a_timer.ElapsedMillis();
  resp->nodes_a = ga.NumNodes();
  resp->triples_a = ga.NumEdges();

  WallTimer load_b_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph gb,
      AcquireRebound(req.source, req.path_b, req.common, dict,
                     &resp->cache_hits, &resp->cache_misses, &resp->kind_b));
  resp->load_b_ms = load_b_timer.ElapsedMillis();
  resp->nodes_b = gb.NumNodes();
  resp->triples_b = gb.NumEdges();

  Aligner aligner(options);
  RDFALIGN_ASSIGN_OR_RETURN(AlignmentOutcome o, aligner.Align(ga, gb));
  resp->seconds = o.seconds;
  resp->phases = o.phases;
  resp->edge_stats = o.edge_stats;
  resp->node_stats = o.node_stats;
  resp->refinement = o.refinement;
  return Status::OK();
}

std::string AlignToJson(const AlignResponse& r) {
  JsonBuf b;
  b.Str("method", AlignMethodToString(r.method)).Int("threads", r.threads);
  GraphObject(b, "a", r.path_a, r.kind_a, r.nodes_a, r.triples_a)
      .Num("load_ms", r.load_a_ms, 2)
      .End();
  GraphObject(b, "b", r.path_b, r.kind_b, r.nodes_b, r.triples_b)
      .Num("load_ms", r.load_b_ms, 2)
      .End();
  b.Num("align_seconds", r.seconds, 4);
  b.Object("phases")
      .Num("merge_ms", r.phases.merge_ms, 2)
      .Num("refine_ms", r.phases.refine_ms, 2)
      .Num("enrich_ms", r.phases.enrich_ms, 2)
      .Num("overlap_index_ms", r.phases.overlap_index_ms, 2)
      .Num("match_ms", r.phases.match_ms, 2)
      .Num("stats_ms", r.phases.stats_ms, 2)
      .End();
  return b.Num("aligned_edge_ratio", r.edge_stats.Ratio(), 6)
      .Int("aligned_edges", r.edge_stats.aligned_edges)
      .Int("total_edges", r.edge_stats.total_edges)
      .Int("aligned_classes", r.node_stats.aligned_classes)
      .Int("unaligned_source_nodes", r.node_stats.unaligned_source_nodes)
      .Int("unaligned_target_nodes", r.node_stats.unaligned_target_nodes)
      .Int("refinement_iterations", r.refinement.iterations)
      .Int("final_classes", r.refinement.final_classes)
      .Take();
}

std::string AlignToText(const AlignResponse& r) {
  std::string out;
  StrAppendf(&out, "alignment report (%s)\n",
             std::string(AlignMethodToString(r.method)).c_str());
  StrAppendf(&out, "  a: %s [%s] %zu nodes, %zu triples, loaded in %.1f ms\n",
             r.path_a.c_str(), r.kind_a.c_str(), r.nodes_a, r.triples_a,
             r.load_a_ms);
  StrAppendf(&out, "  b: %s [%s] %zu nodes, %zu triples, loaded in %.1f ms\n",
             r.path_b.c_str(), r.kind_b.c_str(), r.nodes_b, r.triples_b,
             r.load_b_ms);
  StrAppendf(&out, "  threads            : %zu\n", r.threads);
  StrAppendf(&out, "  align time         : %.3f s\n", r.seconds);
  StrAppendf(&out,
             "  phases (ms)        : merge %.1f, refine %.1f, enrich %.1f,"
             " index %.1f, match %.1f, stats %.1f\n",
             r.phases.merge_ms, r.phases.refine_ms, r.phases.enrich_ms,
             r.phases.overlap_index_ms, r.phases.match_ms, r.phases.stats_ms);
  StrAppendf(&out, "  aligned edge ratio : %.4f (%zu / %zu)\n",
             r.edge_stats.Ratio(), r.edge_stats.aligned_edges,
             r.edge_stats.total_edges);
  StrAppendf(&out, "  aligned classes    : %zu\n",
             r.node_stats.aligned_classes);
  StrAppendf(&out, "  aligned nodes      : %zu source, %zu target\n",
             r.node_stats.aligned_source_nodes,
             r.node_stats.aligned_target_nodes);
  StrAppendf(&out, "  unaligned nodes    : %zu source, %zu target\n",
             r.node_stats.unaligned_source_nodes,
             r.node_stats.unaligned_target_nodes);
  if (r.refinement.iterations > 0) {
    StrAppendf(&out, "  refinement         : %zu iterations, %zu classes\n",
               r.refinement.iterations, r.refinement.final_classes);
  }
  return out;
}

// ----------------------------------------------------------------- diff

Status RunDiff(const DiffRequest& req, DiffResponse* resp) {
  const AlignerOptions options = MakeAlignerOptions(req.method, req.common);
  const size_t workers = ResolveThreads(req.common.threads);
  resp->method = req.method;
  resp->threads = workers;
  resp->path_base = req.path_base;
  resp->path_next = req.path_next;
  resp->path_out = req.path_out;

  auto dict = std::make_shared<Dictionary>();
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph gbase,
      AcquireRebound(req.source, req.path_base, req.common, dict,
                     &resp->cache_hits, &resp->cache_misses,
                     &resp->kind_base));
  resp->nodes_base = gbase.NumNodes();
  resp->triples_base = gbase.NumEdges();

  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph gnext,
      AcquireRebound(req.source, req.path_next, req.common, dict,
                     &resp->cache_hits, &resp->cache_misses,
                     &resp->kind_next));
  resp->nodes_next = gnext.NumNodes();
  resp->triples_next = gnext.NumEdges();

  WallTimer align_timer;
  RDFALIGN_ASSIGN_OR_RETURN(CombinedGraph cg,
                            CombinedGraph::Build(gbase, gnext, workers));
  Aligner aligner(options);
  AlignmentOutcome outcome = aligner.AlignCombined(cg);
  const VersionNodeMap map = NodeMapFromPartition(cg, outcome.partition);
  resp->align_ms = align_timer.ElapsedMillis();

  WallTimer write_timer;
  RDFALIGN_RETURN_IF_ERROR(
      store::WriteDelta(gbase, gnext, map, req.path_out, &resp->stats));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string DiffToJson(const DiffResponse& r) {
  JsonBuf b;
  b.Str("method", AlignMethodToString(r.method)).Int("threads", r.threads);
  GraphObject(b, "base", r.path_base, r.kind_base, r.nodes_base,
              r.triples_base)
      .End();
  GraphObject(b, "next", r.path_next, r.kind_next, r.nodes_next,
              r.triples_next)
      .End();
  return b.Str("delta", r.path_out)
      .Int("kept_triples", r.stats.kept_triples)
      .Int("removed_triples", r.stats.removed_triples)
      .Int("added_triples", r.stats.added_triples)
      .Int("new_terms", r.stats.new_terms)
      .Int("mapped_nodes", r.stats.mapped_nodes)
      .Int("kept_runs", r.stats.kept_runs)
      .Int("delta_bytes", r.stats.file_bytes)
      .Num("align_ms", r.align_ms, 2)
      .Num("write_ms", r.write_ms, 2)
      .Take();
}

std::string DiffToText(const DiffResponse& r) {
  std::string out;
  StrAppendf(&out, "wrote delta %s (%llu bytes)\n", r.path_out.c_str(),
             (unsigned long long)r.stats.file_bytes);
  StrAppendf(&out, "  base            : %s [%s] %zu nodes, %zu triples\n",
             r.path_base.c_str(), r.kind_base.c_str(), r.nodes_base,
             r.triples_base);
  StrAppendf(&out, "  next            : %s [%s] %zu nodes, %zu triples\n",
             r.path_next.c_str(), r.kind_next.c_str(), r.nodes_next,
             r.triples_next);
  StrAppendf(&out,
             "  change          : ~%llu kept (+%llu -%llu), "
             "%llu new terms\n",
             (unsigned long long)r.stats.kept_triples,
             (unsigned long long)r.stats.added_triples,
             (unsigned long long)r.stats.removed_triples,
             (unsigned long long)r.stats.new_terms);
  StrAppendf(&out, "  mapped nodes    : %llu / %zu (%llu kept runs)\n",
             (unsigned long long)r.stats.mapped_nodes, r.nodes_next,
             (unsigned long long)r.stats.kept_runs);
  StrAppendf(&out, "  align %.1f ms, write %.1f ms\n", r.align_ms,
             r.write_ms);
  return out;
}

// ---------------------------------------------------------------- patch

Status RunPatch(const PatchRequest& req, PatchResponse* resp) {
  const size_t workers = ResolveThreads(req.common.threads);
  resp->threads = workers;
  resp->path_base = req.path_base;
  resp->path_delta = req.path_delta;
  resp->path_out = req.path_out;

  auto dict = std::make_shared<Dictionary>();
  WallTimer load_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph gbase,
      AcquireRebound(req.source, req.path_base, req.common, dict,
                     &resp->cache_hits, &resp->cache_misses,
                     &resp->kind_base));
  resp->load_ms = load_timer.ElapsedMillis();
  resp->nodes_base = gbase.NumNodes();
  resp->triples_base = gbase.NumEdges();

  WallTimer apply_timer;
  store::DeltaApplyOptions apply_options;
  apply_options.threads = workers;
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph next, store::ApplyDelta(gbase, req.path_delta, dict,
                                          apply_options, &resp->stats));
  resp->apply_ms = apply_timer.ElapsedMillis();
  resp->nodes = next.NumNodes();
  resp->triples = next.NumEdges();

  WallTimer write_timer;
  RDFALIGN_RETURN_IF_ERROR(store::WriteSnapshot(next, req.path_out));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string PatchToJson(const PatchResponse& r) {
  JsonBuf b;
  b.Int("threads", r.threads);
  GraphObject(b, "base", r.path_base, r.kind_base, r.nodes_base,
              r.triples_base)
      .End();
  return b.Str("delta", r.path_delta)
      .Str("out", r.path_out)
      .Int("nodes", r.nodes)
      .Int("triples", r.triples)
      .Int("kept_triples", r.stats.kept_triples)
      .Int("removed_triples", r.stats.removed_triples)
      .Int("added_triples", r.stats.added_triples)
      .Num("load_ms", r.load_ms, 2)
      .Num("apply_ms", r.apply_ms, 2)
      .Num("write_ms", r.write_ms, 2)
      .Take();
}

std::string PatchToText(const PatchResponse& r) {
  std::string out;
  StrAppendf(&out,
             "patched %s + %s -> %s: %zu nodes, %zu triples "
             "(~%llu kept +%llu -%llu)\n",
             r.path_base.c_str(), r.path_delta.c_str(), r.path_out.c_str(),
             r.nodes, r.triples, (unsigned long long)r.stats.kept_triples,
             (unsigned long long)r.stats.added_triples,
             (unsigned long long)r.stats.removed_triples);
  StrAppendf(&out, "  load %.1f ms, apply %.1f ms, write %.1f ms\n",
             r.load_ms, r.apply_ms, r.write_ms);
  return out;
}

// -------------------------------------------------------------- archive

Status RunArchive(const ArchiveRequest& req, ArchiveResponse* resp) {
  const AlignerOptions options = MakeAlignerOptions(req.method, req.common);
  const size_t workers = ResolveThreads(req.common.threads);
  resp->method = req.method;
  resp->threads = workers;
  resp->path_out = req.path_out;

  // One shared dictionary across the whole chain (the Append invariant).
  auto dict = std::make_shared<Dictionary>();
  VersionArchive archive(options);
  WallTimer append_timer;
  for (const std::string& path : req.versions) {
    RDFALIGN_ASSIGN_OR_RETURN(
        TripleGraph graph,
        AcquireRebound(req.source, path, req.common, dict, &resp->cache_hits,
                       &resp->cache_misses));
    RDFALIGN_RETURN_IF_ERROR(archive.Append(graph).status());
  }
  resp->append_ms = append_timer.ElapsedMillis();

  WallTimer save_timer;
  RDFALIGN_RETURN_IF_ERROR(
      store::SaveArchive(archive, req.path_out, &resp->save_stats));
  resp->save_ms = save_timer.ElapsedMillis();
  resp->stats = archive.Stats();
  return Status::OK();
}

std::string ArchiveToJson(const ArchiveResponse& r) {
  return JsonBuf()
      .Str("archive", r.path_out)
      .Str("method", AlignMethodToString(r.method))
      .Int("threads", r.threads)
      .Int("versions", r.stats.versions)
      .Int("entities", r.stats.entities)
      .Int("distinct_triples", r.stats.distinct_triples)
      .Int("interval_records", r.stats.interval_records)
      .Int("triple_version_pairs", r.stats.triple_version_pairs)
      .Num("compression_ratio", r.stats.CompressionRatio(), 4)
      .Int("file_bytes", r.save_stats.file_bytes)
      .Int("base_bytes", r.save_stats.base_bytes)
      .Int("delta_bytes", r.save_stats.delta_bytes)
      .Num("append_ms", r.append_ms, 2)
      .Num("save_ms", r.save_ms, 2)
      .Take();
}

std::string ArchiveToText(const ArchiveResponse& r) {
  std::string out;
  StrAppendf(&out, "archived %zu versions -> %s (%llu bytes)\n",
             r.stats.versions, r.path_out.c_str(),
             (unsigned long long)r.save_stats.file_bytes);
  StrAppendf(&out, "  entities            : %zu\n", r.stats.entities);
  StrAppendf(&out, "  interval records    : %zu (distinct triples %zu)\n",
             r.stats.interval_records, r.stats.distinct_triples);
  StrAppendf(&out, "  compression ratio   : %.2fx (%zu triple-version pairs)\n",
             r.stats.CompressionRatio(), r.stats.triple_version_pairs);
  StrAppendf(&out, "  base %llu bytes + deltas %llu bytes\n",
             (unsigned long long)r.save_stats.base_bytes,
             (unsigned long long)r.save_stats.delta_bytes);
  StrAppendf(&out, "  append %.1f ms, save %.1f ms\n", r.append_ms,
             r.save_ms);
  return out;
}

// ------------------------------------------------------------------ gen

Status RunGen(const GenRequest& req, GenResponse* resp) {
  resp->prefix = req.prefix;
  gen::CategoryOptions options = gen::CategoryOptions::FromScale(
      req.scale, static_cast<size_t>(req.versions),
      static_cast<uint64_t>(req.seed));
  gen::CategoryChain chain = gen::CategoryChain::Generate(options);
  for (size_t v = 0; v < chain.NumVersions(); ++v) {
    const std::string path = req.prefix + std::to_string(v + 1) + ".nt";
    RDFALIGN_RETURN_IF_ERROR(WriteNTriplesFile(chain.Version(v), path));
    resp->files.push_back(GenFileInfo{path, chain.Version(v).NumNodes(),
                                      chain.Version(v).NumEdges()});
  }
  return Status::OK();
}

std::string GenToJson(const GenResponse& r) {
  JsonBuf b;
  b.Str("prefix", r.prefix).Int("versions", r.files.size()).Array("files");
  for (const GenFileInfo& f : r.files) {
    b.Item()
        .Str("path", f.path)
        .Int("nodes", f.nodes)
        .Int("triples", f.triples)
        .End();
  }
  return b.Take();
}

std::string GenToText(const GenResponse& r) {
  std::string out;
  for (const GenFileInfo& f : r.files) {
    StrAppendf(&out, "wrote %s: %zu nodes, %zu triples\n", f.path.c_str(),
               f.nodes, f.triples);
  }
  return out;
}

// ---------------------------------------------------------------- cache

Status RunCache(const CacheRequest& req, CacheResponse* resp) {
  resp->action = req.action;
  SnapshotCache* cache = req.source ? req.source->cache() : nullptr;
  if (cache == nullptr) {
    return Status::InvalidArgument(
        "no resident snapshot cache (the cache verb needs rdfalignd)");
  }
  if (req.action == "clear") {
    resp->dropped_entries = cache->stats().entries;
    cache->Clear();
  } else {
    resp->entries = cache->entries();
  }
  resp->stats = cache->stats();
  return Status::OK();
}

std::string CacheToJson(const CacheResponse& r) {
  JsonBuf b;
  b.Str("action", r.action);
  if (r.action == "clear") b.Int("dropped_entries", r.dropped_entries);
  b.Int("capacity_bytes", r.stats.capacity_bytes)
      .Int("resident_bytes", r.stats.resident_bytes)
      .Int("entries", r.stats.entries)
      .Int("hits", r.stats.hits)
      .Int("misses", r.stats.misses)
      .Int("evictions", r.stats.evictions)
      .Int("duplicate_loads", r.stats.duplicate_loads);
  if (r.action == "stats") {
    b.Array("cached");
    for (const SnapshotCacheEntryInfo& e : r.entries) {
      b.Item()
          .Hex("fingerprint", e.fingerprint)
          .Int("bytes", e.resident_bytes)
          .Int("refs", e.external_refs)
          .Int("nodes", e.nodes)
          .Int("triples", e.triples)
          .Str("path", e.path)
          .End();
    }
  }
  return b.Take();
}

std::string CacheToText(const CacheResponse& r) {
  std::string out;
  if (r.action == "clear") {
    StrAppendf(&out, "cleared snapshot cache: dropped %llu entries\n",
               (unsigned long long)r.dropped_entries);
    return out;
  }
  StrAppendf(&out, "snapshot cache: %llu entries, %llu / %llu bytes\n",
             (unsigned long long)r.stats.entries,
             (unsigned long long)r.stats.resident_bytes,
             (unsigned long long)r.stats.capacity_bytes);
  StrAppendf(&out,
             "  hits %llu, misses %llu, evictions %llu, duplicate loads "
             "%llu\n",
             (unsigned long long)r.stats.hits,
             (unsigned long long)r.stats.misses,
             (unsigned long long)r.stats.evictions,
             (unsigned long long)r.stats.duplicate_loads);
  for (const SnapshotCacheEntryInfo& e : r.entries) {
    StrAppendf(&out,
               "  %016llx  %llu bytes  refs=%llu  %llu nodes, %llu triples  "
               "%s\n",
               (unsigned long long)e.fingerprint,
               (unsigned long long)e.resident_bytes,
               (unsigned long long)e.external_refs,
               (unsigned long long)e.nodes, (unsigned long long)e.triples,
               e.path.c_str());
  }
  return out;
}

// -------------------------------------------------------------- updates

Status RunUpdates(const UpdatesRequest& req, UpdatesResponse* resp) {
  resp->path_base = req.path_base;
  resp->path_next = req.path_next;
  resp->path_out = req.path_out;

  // No shared-dictionary rebind here: BuildUpdateBatch matches nodes by
  // (kind, lexical form) strings, so each graph's private dictionary is
  // exactly what it needs.
  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph base,
      req.source->Acquire(req.path_base, req.common, false));
  CountAcquire(base, &resp->cache_hits, &resp->cache_misses);
  resp->kind_base = base.loaded->kind;
  resp->nodes_base = base.loaded->graph.NumNodes();
  resp->triples_base = base.loaded->graph.NumEdges();

  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph next,
      req.source->Acquire(req.path_next, req.common, false));
  CountAcquire(next, &resp->cache_hits, &resp->cache_misses);
  resp->kind_next = next.loaded->kind;
  resp->nodes_next = next.loaded->graph.NumNodes();
  resp->triples_next = next.loaded->graph.NumEdges();

  WallTimer build_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      store::UpdateBatch batch,
      store::BuildUpdateBatch(base.loaded->graph, next.loaded->graph,
                              static_cast<uint64_t>(req.sequence)));
  resp->build_ms = build_timer.ElapsedMillis();
  resp->refs = batch.nodes.size();
  resp->new_nodes = batch.num_new;
  resp->removed_nodes = batch.removed_nodes.size();
  resp->removed_triples = batch.removed.size();
  resp->added_triples = batch.added.size();
  resp->sequence = batch.sequence;

  WallTimer write_timer;
  RDFALIGN_ASSIGN_OR_RETURN(std::string bytes,
                            store::EncodeUpdateBatch(batch));
  resp->file_bytes = bytes.size();
  RDFALIGN_RETURN_IF_ERROR(store::AtomicWriteFile(
      req.path_out, bytes.data(), bytes.size(), "update fragment"));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string UpdatesToJson(const UpdatesResponse& r) {
  JsonBuf b;
  GraphObject(b, "base", r.path_base, r.kind_base, r.nodes_base,
              r.triples_base)
      .End();
  GraphObject(b, "next", r.path_next, r.kind_next, r.nodes_next,
              r.triples_next)
      .End();
  return b.Str("fragment", r.path_out)
      .Int("sequence", r.sequence)
      .Int("refs", r.refs)
      .Int("new_nodes", r.new_nodes)
      .Int("removed_nodes", r.removed_nodes)
      .Int("removed_triples", r.removed_triples)
      .Int("added_triples", r.added_triples)
      .Int("fragment_bytes", r.file_bytes)
      .Num("build_ms", r.build_ms, 2)
      .Num("write_ms", r.write_ms, 2)
      .Take();
}

std::string UpdatesToText(const UpdatesResponse& r) {
  std::string out;
  StrAppendf(&out, "wrote update fragment %s (%llu bytes, seq %llu)\n",
             r.path_out.c_str(), (unsigned long long)r.file_bytes,
             (unsigned long long)r.sequence);
  StrAppendf(&out, "  base            : %s [%s] %zu nodes, %zu triples\n",
             r.path_base.c_str(), r.kind_base.c_str(), r.nodes_base,
             r.triples_base);
  StrAppendf(&out, "  next            : %s [%s] %zu nodes, %zu triples\n",
             r.path_next.c_str(), r.kind_next.c_str(), r.nodes_next,
             r.triples_next);
  StrAppendf(&out,
             "  change          : +%llu -%llu triples, +%llu -%llu nodes"
             " (%llu refs)\n",
             (unsigned long long)r.added_triples,
             (unsigned long long)r.removed_triples,
             (unsigned long long)r.new_nodes,
             (unsigned long long)r.removed_nodes,
             (unsigned long long)r.refs);
  StrAppendf(&out, "  build %.1f ms, write %.1f ms\n", r.build_ms,
             r.write_ms);
  return out;
}

// ------------------------------------------------------------- dispatch

/// One decoded command line: the positionals, the common flags, and the
/// values the row's hook parsed (each verb reads only its own).
struct VerbCall {
  const char* verb;
  const std::vector<std::string>& positional;
  CommonOptions common;
  GraphSource* source;
  AlignMethod method = AlignMethod::kHybrid;  ///< --method
  std::string format = "auto";                ///< build --format
  long long versions = 2;                     ///< gen --versions
  double scale = 1.0;                         ///< gen --scale
  long long seed = 5;                         ///< gen --seed
  long long sequence = 1;                     ///< updates --seq
};

namespace {

// ---- hooks: each verb's own flags, with the exact legacy messages.

bool MethodHook(const Args& args, VerbCall* call, std::string* error) {
  const std::string name = args.GetString("method", "hybrid");
  for (AlignMethod method :
       {AlignMethod::kTrivial, AlignMethod::kDeblank, AlignMethod::kHybrid,
        AlignMethod::kHybridContextual, AlignMethod::kOverlap}) {
    if (name == AlignMethodToString(method)) {
      call->method = method;
      return true;
    }
  }
  *error = std::string("rdfalign ") + call->verb + ": " +
           Status::InvalidArgument("unknown alignment method: " + name)
               .ToString();
  return false;
}

bool FormatHook(const Args& args, VerbCall* call, std::string* error) {
  call->format = args.GetString("format", "auto");
  if (call->format == "auto" || call->format == "ntriples" ||
      call->format == "turtle") {
    return true;
  }
  *error = "rdfalign: unknown --format=" + call->format;
  return false;
}

bool GenHook(const Args& args, VerbCall* call, std::string* error) {
  const std::optional<long long> versions = args.GetInt("versions", 2, error);
  if (!versions) return false;
  if (*versions < 1 || *versions > 1000) {
    *error = "rdfalign gen: --versions must be in [1, 1000]";
    return false;
  }
  const std::optional<double> scale = args.GetDouble("scale", 1.0, error);
  if (!scale) return false;
  if (!(*scale > 0.0) || *scale > 1e6) {
    *error = "rdfalign gen: --scale must be in (0, 1e6]";
    return false;
  }
  const std::optional<long long> seed = args.GetInt("seed", 5, error);
  if (!seed) return false;
  if (*seed < 0) {
    *error = "rdfalign gen: --seed must be >= 0";
    return false;
  }
  call->versions = *versions;
  call->scale = *scale;
  call->seed = *seed;
  return true;
}

bool CacheHook(const Args& args, VerbCall*, std::string* error) {
  const std::string& action = args.positional()[0];
  if (action == "stats" || action == "clear") return true;
  *error = "rdfalign cache: unknown action '" + action +
           "' (expected stats or clear)";
  return false;
}

bool SeqHook(const Args& args, VerbCall* call, std::string* error) {
  const std::optional<long long> seq = args.GetInt("seq", 1, error);
  if (!seq) return false;
  if (*seq < 0) {
    *error = "rdfalign updates: --seq must be >= 0";
    return false;
  }
  call->sequence = *seq;
  return true;
}

// ---- runs: build the request, run, render.

/// Renders `resp` as the call asked (only on success) and hands its cache
/// counters to the verb result.
template <typename Response>
Status Finish(const VerbCall& call, const Status& st, const Response& resp,
              std::string (*to_json)(const Response&),
              std::string (*to_text)(const Response&), VerbResult* result) {
  if constexpr (requires { resp.cache_hits; }) {
    result->cache_hits = resp.cache_hits;
    result->cache_misses = resp.cache_misses;
  }
  if (st.ok()) {
    result->output = call.common.json ? to_json(resp) : to_text(resp);
  }
  return st;
}

Status BuildVerb(const VerbCall& c, VerbResult* result) {
  BuildResponse resp;
  const Status st = RunBuild(
      {c.positional[0], c.positional[1], c.format, c.common}, &resp);
  return Finish(c, st, resp, BuildToJson, BuildToText, result);
}

Status InfoVerb(const VerbCall& c, VerbResult* result) {
  InfoResponse resp;
  const Status st = RunInfo({c.positional[0], c.common, c.source}, &resp);
  return Finish(c, st, resp, InfoToJson, InfoToText, result);
}

Status AlignVerb(const VerbCall& c, VerbResult* result) {
  AlignResponse resp;
  const Status st = RunAlign(
      {c.positional[0], c.positional[1], c.method, c.common, c.source},
      &resp);
  return Finish(c, st, resp, AlignToJson, AlignToText, result);
}

Status DiffVerb(const VerbCall& c, VerbResult* result) {
  DiffResponse resp;
  const Status st = RunDiff({c.positional[0], c.positional[1],
                             c.positional[2], c.method, c.common, c.source},
                            &resp);
  return Finish(c, st, resp, DiffToJson, DiffToText, result);
}

Status PatchVerb(const VerbCall& c, VerbResult* result) {
  PatchResponse resp;
  const Status st = RunPatch(
      {c.positional[0], c.positional[1], c.positional[2], c.common,
       c.source},
      &resp);
  return Finish(c, st, resp, PatchToJson, PatchToText, result);
}

Status ArchiveVerb(const VerbCall& c, VerbResult* result) {
  ArchiveResponse resp;
  const Status st = RunArchive(
      {c.positional[0],
       std::vector<std::string>(c.positional.begin() + 1, c.positional.end()),
       c.method, c.common, c.source},
      &resp);
  return Finish(c, st, resp, ArchiveToJson, ArchiveToText, result);
}

Status GenVerb(const VerbCall& c, VerbResult* result) {
  GenResponse resp;
  const Status st = RunGen(
      {c.positional[0], c.versions, c.scale, c.seed, c.common}, &resp);
  // Versions written before a failure are still listed (the historical
  // CLI printed them as it went).
  if (!st.ok() && !c.common.json) result->output = GenToText(resp);
  return Finish(c, st, resp, GenToJson, GenToText, result);
}

Status CacheVerb(const VerbCall& c, VerbResult* result) {
  CacheResponse resp;
  const Status st = RunCache({c.positional[0], c.common, c.source}, &resp);
  return Finish(c, st, resp, CacheToJson, CacheToText, result);
}

Status UpdatesVerb(const VerbCall& c, VerbResult* result) {
  UpdatesResponse resp;
  const Status st = RunUpdates({c.positional[0], c.positional[1],
                                c.positional[2], c.sequence, c.common,
                                c.source},
                               &resp);
  return Finish(c, st, resp, UpdatesToJson, UpdatesToText, result);
}

#define COMMON_FLAGS "threads", "json"

constexpr size_t kUnbounded = SIZE_MAX;

// The verb table. Columns: name, scope, positional arity [min, max],
// accepted flags, hook, hook after the common flags, acquires graphs,
// idempotent, InvalidArgument exits 2, run.
const VerbSpec kVerbs[] = {
    {"build", VerbScope::kAnywhere, 2, 2,
     {"format", "threads", "json"},
     FormatHook, true, false, false, false, BuildVerb},
    {"info", VerbScope::kAnywhere, 1, 1, {COMMON_FLAGS},
     nullptr, false, true, true, false, InfoVerb},
    {"align", VerbScope::kAnywhere, 2, 2, {"method", COMMON_FLAGS},
     MethodHook, false, true, true, false, AlignVerb},
    {"diff", VerbScope::kAnywhere, 3, 3, {"method", COMMON_FLAGS},
     MethodHook, false, true, false, false, DiffVerb},
    {"patch", VerbScope::kAnywhere, 3, 3, {COMMON_FLAGS},
     nullptr, false, true, false, true, PatchVerb},
    {"archive", VerbScope::kAnywhere, 2, kUnbounded, {"method", COMMON_FLAGS},
     MethodHook, false, true, false, false, ArchiveVerb},
    {"gen", VerbScope::kAnywhere, 1, 1, {"scale", "versions", "seed", "json"},
     GenHook, false, false, false, false, GenVerb},
    // cache reaches the resident cache through the source.
    {"cache", VerbScope::kAnywhere, 1, 1, {"json"},
     CacheHook, false, true, true, false, CacheVerb},
    {"updates", VerbScope::kAnywhere, 3, 3, {"seq", COMMON_FLAGS},
     SeqHook, false, true, false, false, UpdatesVerb},
    {"stats", VerbScope::kDaemonStats, 0, 0, {"json"},
     nullptr, false, false, true, false, nullptr},
    // stream checks each subcommand's arguments itself (stream_verbs.cc).
    {"stream", VerbScope::kDaemonStream, 1, kUnbounded, {},
     nullptr, false, true, false, false, nullptr},
};

#undef COMMON_FLAGS

}  // namespace

const VerbSpec* FindVerb(std::string_view name) {
  for (const VerbSpec& spec : kVerbs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

bool CheckVerbArgs(const VerbSpec& spec, const Args& args,
                   VerbResult* result) {
  const size_t n = args.positional().size();
  std::string message;
  if (n >= spec.min_positional && n <= spec.max_positional &&
      args.OnlyKnown(spec.flags, &message)) {
    return true;
  }
  result->exit_code = 2;
  result->usage_error = true;
  result->error = std::move(message);
  return false;
}

const char* UsageText() {
  return
      "usage: rdfalign <command> [args]\n"
      "\n"
      "commands:\n"
      "  build <input> <output.snap> [--format=auto|ntriples|turtle]\n"
      "       [--threads=N]\n"
      "      parse an RDF text file and write a binary snapshot\n"
      "  info <file> [--json]\n"
      "      print header, sections, and statistics of a snapshot,\n"
      "      delta, archive, or update-fragment file (sniffed by\n"
      "      magic); --json also reports the content fingerprint\n"
      "  align <a> <b> [--method=M] [--threads=N] [--json]\n"
      "      align two graphs (snapshot or RDF text each) and report\n"
      "      methods: trivial deblank hybrid hybrid-contextual overlap\n"
      "      (default hybrid; --threads=0 uses all hardware threads)\n"
      "  diff <base> <next> <out.delta> [--method=M] [--threads=N]\n"
      "       [--json]\n"
      "      align two versions and write the incremental binary delta\n"
      "  patch <base> <delta> <out.snap> [--threads=N] [--json]\n"
      "      reconstruct the next version from base + delta and write it\n"
      "      as a snapshot (exit 2 when the delta does not fit the base)\n"
      "  archive <out.archive> <v1> <v2> ... [--method=M] [--threads=N]\n"
      "       [--json]\n"
      "      append versions into an interval archive and persist it as\n"
      "      a base snapshot plus a delta chain\n"
      "  gen <out-prefix> [--scale=S] [--versions=K] [--seed=N]\n"
      "      generate a synthetic category-graph version chain as\n"
      "      <out-prefix>1.nt, <out-prefix>2.nt, ...\n"
      "  cache <stats|clear> [--json]\n"
      "      inspect or drop the resident snapshot cache (rdfalignd)\n"
      "  updates <base> <next> <out.upd> [--seq=N] [--threads=N]\n"
      "       [--json]\n"
      "      write the label-addressed update fragment turning base into\n"
      "      next, for replay against a streaming session (docs/stream.md)\n"
      "  client <host:port|port> <command> [args]\n"
      "      run any command above on a running rdfalignd instead of\n"
      "      in-process (same arguments, same output, same exit code)\n"
      "  stream <host:port|port> <source> <target> --updates=u1[,u2,...]\n"
      "       [--method=trivial|deblank] [--threads=N] [--check=final]\n"
      "       [--json]\n"
      "      open a streaming alignment session on a running rdfalignd,\n"
      "      push each update fragment (printing the alignment delta),\n"
      "      optionally check batch equivalence against a final snapshot\n"
      "  stats [--json]  (via `rdfalign client <endpoint> stats`)\n"
      "      per-verb request/error counters and latency percentiles of a\n"
      "      running rdfalignd\n";
}

VerbResult ExecuteVerb(const std::vector<std::string>& tokens,
                       GraphSource* source) {
  VerbResult result;
  result.exit_code = 2;
  if (tokens.empty()) {
    result.usage_error = true;
    return result;
  }
  result.verb = tokens[0];
  const VerbSpec* spec = FindVerb(tokens[0]);
  if (spec == nullptr) {
    result.usage_error = true;
    result.error = "rdfalign: unknown command '" + tokens[0] + "'";
    return result;
  }
  const std::string prefix = std::string("rdfalign ") + spec->name + ": ";
  if (spec->scope != VerbScope::kAnywhere) {
    result.exit_code = 1;
    result.error = prefix + "only available on a running rdfalignd (use " +
                   (spec->scope == VerbScope::kDaemonStats
                        ? "rdfalign client <endpoint> stats)"
                        : "rdfalign stream <endpoint> ...)");
    return result;
  }
  const Args args(std::vector<std::string>(tokens.begin() + 1, tokens.end()));
  if (!CheckVerbArgs(*spec, args, &result)) return result;

  VerbCall call{spec->name, args.positional(), {},
                spec->acquires ? source : nullptr};
  auto hook = [&](bool after_common) {
    return spec->hook == nullptr || spec->hook_after_common != after_common ||
           spec->hook(args, &call, &result.error);
  };
  if (!hook(false) ||
      !ParseCommonFlags(args, spec->name, &call.common, &result.error) ||
      !hook(true)) {
    return result;
  }
  const Status st = spec->run(call, &result);
  result.exit_code = 0;
  if (!st.ok()) {
    result.exit_code =
        spec->invalid_argument_is_usage && st.IsInvalidArgument() ? 2 : 1;
    result.error = prefix + st.ToString();
  }
  return result;
}

}  // namespace rdfalign::service
