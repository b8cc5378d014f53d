// Bench of the refinement fixpoint engine.
//
// Two experiments over combined two-version graphs from the category
// (Fig. 16 scalability) and EFO (Fig. 9) generators:
//
//  1. plain refinement (full bisimulation from the label partition) swept
//     over signing threads = 1, 2, 4, 8. The threads=1 run supplies the
//     workload's telemetry (iterations, re-signings, signature bytes);
//     every other count must reproduce its partition bit for bit;
//  2. contextual (mediation-aware) refinement in the predicate-aware-hybrid
//     shape.
//
// The bench refuses to write its JSON (and exits 1) unless every sweep
// point is bit-identical to threads=1, so the bench_smoke ctest target
// doubles as a determinism gate. Agreement with the paper's one-step
// definition is checked by tests/refinement_equivalence_test.cc.
// BENCH_refinement.json at the repo root holds the reference run.
//
// Default --scale=4 puts both workloads above 100k nodes.

#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/context.h"
#include "core/partition.h"
#include "core/refinement.h"
#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "rdf/merge.h"

using namespace rdfalign;

namespace {

// Full bisimulation at each signing-thread count; the first round signs
// every node, so it is where the pool bites. Bit-identical partitions
// across counts are part of the engine contract and re-checked here at
// full scale. The threads=1 run supplies the workload's telemetry.
void RunThreadsSweep(bench::Report& report, const std::string& name,
                     const TripleGraph& g) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  Partition baseline;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RefinementOptions options;
    options.threads = threads;
    RefinementStats stats;
    Partition p;
    // One untimed warm-up before threads=1, so that point does not alone
    // pay the first-touch allocation every later point skips.
    const bench::Timing t = bench::Time(1, threads == 1 ? 1 : 0, [&] {
      p = BisimRefineFixpoint(g, LabelPartition(g), all, &stats, options);
    });
    if (threads == 1) {
      report.Add("workloads",
                 bench::Row()
                     .Str("name", name, "workload")
                     .Int("nodes", g.NumNodes(), "nodes")
                     .Int("edges", g.NumEdges(), "edges")
                     .Num("fixpoint_ms", t.min_ms, 2, "fixpt(ms)")
                     .Int("iterations", stats.iterations, "iterations")
                     .Int("resignings", stats.TotalDirty(), "resignings")
                     .Int("signature_bytes", stats.signature_bytes)
                     .Int("final_classes", p.NumColors(), "classes"));
      baseline = std::move(p);
    }
    const bool identical = threads == 1 || p.colors() == baseline.colors();
    report.Gate(identical, name + ": threads=" + std::to_string(threads) +
                               " diverged from the 1-thread partition");
    report.Add("threads_sweep",
               bench::Row()
                   .Str("name", name, "workload")
                   .Int("threads", threads, "threads")
                   .Num("first_round_ms", stats.first_round_ms, 2,
                        "round1(ms)")
                   .Num("total_ms", t.min_ms, 2, "total(ms)")
                   .Bool("identical", identical, "identical"));
  }
}

// Contextual refinement in the predicate-aware-hybrid shape — the exact
// inputs PredicateAwareHybridPartition refines over.
void RunContextual(bench::Report& report, const std::string& name,
                   const CombinedGraph& cg) {
  const TripleGraph& g = cg.graph();
  ContextualHybridInputs in = BuildContextualHybridInputs(cg);
  size_t predicate_only = 0;
  for (uint8_t flag : in.predicate_only) predicate_only += flag;

  RefinementStats stats;
  Partition p;
  const bench::Timing t = bench::Time(1, 0, [&] {
    p = ContextualRefineFixpoint(g, in.blanked, in.x, in.mediation,
                                 in.predicate_only, &stats);
  });
  report.Add("contextual", bench::Row()
                               .Str("name", name, "workload")
                               .Int("nodes", g.NumNodes(), "nodes")
                               .Int("edges", g.NumEdges())
                               .Int("predicate_only", predicate_only,
                                    "pred-only")
                               .Num("fixpoint_ms", t.min_ms, 2, "fixpt(ms)")
                               .Int("resignings", stats.TotalDirty(),
                                    "resignings")
                               .Int("final_classes", p.NumColors(),
                                    "classes"));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 4.0);
  const uint64_t seed = flags.GetInt("seed", 5);
  const std::string out = flags.GetString("out", "BENCH_refinement.json");

  bench::Banner("Refinement fixpoint engine",
                "worklist fixpoint: signing-thread sweep + contextual shape");
  bench::Report report("refinement_fixpoint",
                       {"workloads", "threads_sweep", "contextual"},
                       "single-process wall clock, one run per number; "
                       "hardware_threads records the recording box");
  report.params().Num("scale", scale).Int("seed", seed);

  auto run = [&](const std::string& name, const CombinedGraph& cg) {
    RunThreadsSweep(report, name, cg.graph());
    RunContextual(report, name, cg);
  };
  {
    gen::CategoryChain chain = gen::CategoryChain::Generate(
        gen::CategoryOptions::FromScale(scale, /*versions=*/2, seed));
    run("category",
        CombinedGraph::Build(chain.Version(0), chain.Version(1)).value());
  }
  {
    gen::EfoOptions options;
    options.initial_classes =
        static_cast<size_t>(2000 * scale < 8 ? 8 : 2000 * scale);
    options.versions = 2;
    options.seed = seed;
    gen::EfoChain chain = gen::EfoChain::Generate(options);
    run("efo",
        CombinedGraph::Build(chain.Version(0), chain.Version(1)).value());
  }
  return report.Finish(out);
}
