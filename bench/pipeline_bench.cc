// Phase-timed bench of the alignment pipeline.
//
// At each fig16-style scale point a two-version category chain is generated,
// both versions are stored as binary snapshots and reloaded (the zero-parse
// production path), and then every non-refinement phase of the pipeline is
// timed (best of --runs):
//
//   merge     : CombinedGraph::Build (CSR concatenation)
//   partops   : label-keyed constructors, FromColors, Equivalent,
//               IsFinerOrEqual, Classes
//   overlap   : characterizing-set build + Algorithm 1 (CSR postings)
//   stats     : edge alignment + node alignment + delta (sort-based joins)
//
// The refinement fixpoint itself (see refinement_bench) is timed once for
// context. A threads sweep ({1,2,3,4,8}) re-runs the shared-pool kernels at
// every point, requiring each count to reproduce the 1-thread outputs bit
// for bit. The bench exits nonzero — without writing JSON — on any
// mismatch, so the pipeline_bench_smoke ctest target and the CI step double
// as a determinism gate. Agreement with the hash-map implementations the
// flat pipeline replaced is checked by tests/pipeline_equivalence_test.cc.
// Emits BENCH_pipeline.json; the checked-in copy at the repo root is the
// reference run.

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/alignment.h"
#include "core/delta.h"
#include "core/hybrid.h"
#include "core/overlap_align.h"
#include "gen/category_gen.h"
#include "store/snapshot.h"

using namespace rdfalign;

namespace {

bool SpansEqual(std::span<const uint64_t> a, std::span<const uint64_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool RunPoint(bench::Report& report, const bench::ScratchDir& scratch,
              double scale_point, uint64_t seed, size_t runs) {
  // ---- parse/load: generate, snapshot, reload through the store ----------
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, /*versions=*/2, seed));
  const std::string snap1 = scratch.Path("v1.snap");
  const std::string snap2 = scratch.Path("v2.snap");
  if (!store::WriteSnapshot(chain.Version(0), snap1).ok() ||
      !store::WriteSnapshot(chain.Version(1), snap2).ok()) {
    std::fprintf(stderr, "cannot write snapshots under %s\n",
                 scratch.dir().c_str());
    return false;
  }
  TripleGraph g1, g2;
  const bench::Timing load = bench::Time(1, 0, [&] {
    auto dict = std::make_shared<Dictionary>();
    return bench::Keep(store::LoadSnapshot(snap1, dict), &g1) &&
           bench::Keep(store::LoadSnapshot(snap2, dict), &g2);
  });
  if (!load.ok) {
    std::fprintf(stderr, "snapshot reload failed\n");
    return false;
  }

  // ---- merge ---------------------------------------------------------------
  CombinedGraph cg;
  const bench::Timing merge = bench::Time(
      runs, 0, [&] { return bench::Keep(CombinedGraph::Build(g1, g2), &cg); });
  if (!merge.ok) return false;

  // ---- refine (context; not part of the non-refinement total) -------------
  Partition hybrid;
  const bench::Timing refine =
      bench::Time(1, 0, [&] { hybrid = HybridPartition(cg); });

  // ---- partition ops -------------------------------------------------------
  // Each timed phase assigns its outputs to variables that outlive it, so
  // the work stays observable to the optimizer.
  Partition label, trivial, from_colors;
  PartitionClasses classes;
  bool equivalent = false, finer = false;
  const bench::Timing partops = bench::Time(runs, 0, [&] {
    label = LabelPartition(cg.graph());
    trivial = TrivialPartition(cg.graph());
    from_colors = Partition::FromColors(hybrid.colors());
    classes = hybrid.Classes();
    equivalent = Partition::Equivalent(hybrid, hybrid);
    finer = Partition::IsFinerOrEqual(hybrid, label);
  });

  // ---- overlap index + match ----------------------------------------------
  const TripleGraph& g = cg.graph();
  WeightedPartition xi = MakeZeroWeighted(hybrid);
  std::vector<NodeId> a_nodes, b_nodes;
  {
    std::vector<ClassSides> sides = ComputeClassSides(cg, hybrid);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.IsLiteral(n)) continue;
      if (sides[hybrid.ColorOf(n)] == ClassSides::kBoth) continue;
      (cg.InSource(n) ? a_nodes : b_nodes).push_back(n);
    }
  }
  auto sigma = [&](size_t x, size_t y) {
    return SigmaNonLiteral(g, xi, a_nodes[x], b_nodes[y]);
  };
  const double theta = 0.65;
  // The exact production streaming build (overlap_align.cc uses the same
  // AppendOutColorSet), so the timing cannot drift from it.
  auto overlap_match = [&](size_t threads, OverlapMatchStats* stats) {
    CharacterizingSets a_char;
    CharacterizingSets b_char;
    a_char.Reserve(a_nodes.size(), a_nodes.size());
    b_char.Reserve(b_nodes.size(), b_nodes.size());
    for (NodeId n : a_nodes) AppendOutColorSet(g, xi, n, a_char);
    for (NodeId n : b_nodes) AppendOutColorSet(g, xi, n, b_char);
    return OverlapMatch(a_nodes, b_nodes, a_char, b_char, theta, sigma, {},
                        stats, threads);
  };
  BipartiteMatching matching;
  OverlapMatchStats match_stats;
  const bench::Timing overlap = bench::Time(
      runs, 0, [&] { matching = overlap_match(1, &match_stats); });

  // ---- stats ---------------------------------------------------------------
  EdgeAlignmentStats edge_stats;
  NodeAlignmentStats node_stats;
  RdfDelta delta;
  const bench::Timing stats = bench::Time(runs, 0, [&] {
    edge_stats = ComputeEdgeAlignment(cg, hybrid);
    node_stats = ComputeNodeAlignment(cg, hybrid);
    delta = ComputeDelta(cg, hybrid);
  });

  // ---- thread sweep over the shared-pool kernels ---------------------------
  // Each thread count re-runs the parallelized bundle (merge, class sides,
  // overlap match, stats joins, delta). threads=1 runs every chunk
  // inline on the caller and is the baseline; every other count must
  // reproduce its outputs bit for bit, or the report refuses to write.
  std::vector<bench::Row> sweep;
  bool sweep_equal = true;
  {
    CombinedGraph cg_base;
    std::vector<ClassSides> sides_base;
    BipartiteMatching h_base;
    OverlapMatchStats s_base;
    EdgeAlignmentStats es_base;
    NodeAlignmentStats ns_base;
    RdfDelta d_base;
    for (size_t t : {1u, 2u, 3u, 4u, 8u}) {
      CombinedGraph cg_t;
      std::vector<ClassSides> sides_t;
      BipartiteMatching h_t;
      OverlapMatchStats s_t;
      EdgeAlignmentStats es_t;
      NodeAlignmentStats ns_t;
      RdfDelta d_t;
      const bench::Timing time = bench::Time(runs, 0, [&] {
        if (!bench::Keep(CombinedGraph::Build(g1, g2, t), &cg_t)) return false;
        sides_t = ComputeClassSides(cg, hybrid, t);
        h_t = overlap_match(t, &s_t);
        es_t = ComputeEdgeAlignment(cg, hybrid, t);
        ns_t = ComputeNodeAlignment(cg, hybrid, t);
        d_t = ComputeDelta(cg, hybrid, t);
        return true;
      });
      if (!time.ok) return false;
      sweep.push_back(
          bench::Row().Int("threads", t).Num("ms", time.min_ms, 2));
      if (t == 1) {
        cg_base = std::move(cg_t);
        sides_base = std::move(sides_t);
        h_base = std::move(h_t);
        s_base = s_t;
        es_base = es_t;
        ns_base = ns_t;
        d_base = std::move(d_t);
        continue;
      }
      bool same = LabeledGraphsEqual(cg_t.graph(), cg_base.graph()) &&
                  SpansEqual(cg_t.graph().OutOffsets(),
                             cg_base.graph().OutOffsets()) &&
                  SpansEqual(cg_t.graph().InOffsets(),
                             cg_base.graph().InOffsets()) &&
                  sides_t == sides_base &&
                  h_t.edges.size() == h_base.edges.size() &&
                  s_t.candidates_probed == s_base.candidates_probed &&
                  s_t.overlap_checked == s_base.overlap_checked &&
                  s_t.sigma_checked == s_base.sigma_checked &&
                  s_t.matched == s_base.matched &&
                  es_t.total_edges == es_base.total_edges &&
                  es_t.aligned_edges == es_base.aligned_edges &&
                  ns_t.aligned_classes == ns_base.aligned_classes &&
                  ns_t.aligned_source_nodes == ns_base.aligned_source_nodes &&
                  ns_t.aligned_target_nodes == ns_base.aligned_target_nodes &&
                  ns_t.unaligned_source_nodes ==
                      ns_base.unaligned_source_nodes &&
                  ns_t.unaligned_target_nodes ==
                      ns_base.unaligned_target_nodes &&
                  d_t.unchanged == d_base.unchanged &&
                  d_t.added == d_base.added && d_t.deleted == d_base.deleted &&
                  d_t.renamed_uris.size() == d_base.renamed_uris.size();
      for (size_t i = 0; same && i < h_t.edges.size(); ++i) {
        same = h_t.edges[i].a == h_base.edges[i].a &&
               h_t.edges[i].b == h_base.edges[i].b &&
               h_t.edges[i].distance == h_base.edges[i].distance;
      }
      for (size_t i = 0; same && i < d_t.renamed_uris.size(); ++i) {
        same = d_t.renamed_uris[i].source == d_base.renamed_uris[i].source &&
               d_t.renamed_uris[i].target == d_base.renamed_uris[i].target;
      }
      if (!same) {
        sweep_equal = report.Gate(false, "threads=" + std::to_string(t) +
                                             " diverged from the 1-thread "
                                             "kernels at scale " +
                                             bench::Fmt("%g", scale_point));
      }
    }
  }

  report.Add(
      "points",
      bench::Row()
          .Num("scale_point", scale_point)
          .Int("nodes", g1.NumNodes() + g2.NumNodes(), "nodes")
          .Int("edges", g1.NumEdges() + g2.NumEdges(), "edges")
          .Num("load_ms", load.min_ms, 2)
          .Num("refine_ms", refine.min_ms, 2, "refine(ms)")
          .Num("merge_ms", merge.min_ms, 2, "merge(ms)")
          .Num("partops_ms", partops.min_ms, 2, "partops(ms)")
          .Num("overlap_ms", overlap.min_ms, 2, "overlap(ms)")
          .Num("stats_ms", stats.min_ms, 2, "stats(ms)")
          .Num("nonrefine_ms",
               merge.min_ms + partops.min_ms + overlap.min_ms + stats.min_ms,
               2, "nonref(ms)")
          .Rows("threads_sweep", std::move(sweep))
          .Bool("sweep_equal", sweep_equal, "identical"));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t seed = flags.GetInt("seed", 5);
  const size_t runs = static_cast<size_t>(flags.GetInt("runs", 3));
  const std::string out = flags.GetString("out", "BENCH_pipeline.json");

  bench::Banner("Alignment pipeline phases",
                "per-phase wall time (merge / partition ops / overlap index / "
                "stats) + shared-pool thread sweep");
  bench::Report report("pipeline_phases", {"points"},
                       "single-process wall clock, best of runs; "
                       "hardware_threads records the recording box");
  report.params().Num("scale", scale).Int("seed", seed).Int("runs", runs);
  const bench::ScratchDir scratch("rdfalign_pipeline_bench");

  // The fig16 ladder: quarter, full, and 4x scale (the 4x point matches the
  // other two BENCH files' largest workload).
  for (double point : {0.25 * scale, 1.0 * scale, 4.0 * scale}) {
    if (!RunPoint(report, scratch, point, seed, runs)) return 1;
  }
  return report.Finish(out);
}
