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

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/context.h"
#include "core/partition.h"
#include "core/refinement.h"
#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "rdf/merge.h"
#include "util/timer.h"

using namespace rdfalign;

namespace {

struct RunResult {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  double fixpoint_ms = 0;
  size_t iterations = 0;
  size_t resignings = 0;
  size_t signature_bytes = 0;
  size_t final_classes = 0;
};

struct ThreadsResult {
  std::string name;
  size_t threads = 0;
  double first_round_ms = 0;
  double total_ms = 0;
  bool identical = false;  // colors equal the threads=1 run
};

struct ContextualResult {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  size_t predicate_only = 0;
  double fixpoint_ms = 0;
  size_t resignings = 0;
  size_t final_classes = 0;
};

// Full bisimulation at each signing-thread count; the first round signs
// every node, so it is where the pool bites. Bit-identical partitions
// across counts are part of the engine contract and re-checked here at
// full scale. The threads=1 run fills `*workload`.
std::vector<ThreadsResult> RunThreadsSweep(const std::string& name,
                                           const TripleGraph& g,
                                           RunResult* workload) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  std::vector<ThreadsResult> results;
  // Untimed warm-up, so the threads=1 point does not alone pay the
  // first-touch allocation every later point skips.
  BisimRefineFixpoint(g, LabelPartition(g), all);
  Partition baseline;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RefinementOptions options;
    options.threads = threads;
    RefinementStats stats;
    WallTimer timer;
    Partition p = BisimRefineFixpoint(g, LabelPartition(g), all, &stats,
                                      options);
    ThreadsResult r;
    r.name = name;
    r.threads = threads;
    r.total_ms = timer.ElapsedMillis();
    r.first_round_ms = stats.first_round_ms;
    if (threads == 1) {
      *workload = RunResult{name,
                            g.NumNodes(),
                            g.NumEdges(),
                            r.total_ms,
                            stats.iterations,
                            stats.TotalDirty(),
                            stats.signature_bytes,
                            p.NumColors()};
      baseline = std::move(p);
    }
    r.identical = threads == 1 || p.colors() == baseline.colors();
    results.push_back(r);
  }
  return results;
}

// Contextual refinement in the predicate-aware-hybrid shape — the exact
// inputs PredicateAwareHybridPartition refines over.
ContextualResult RunContextual(const std::string& name,
                               const CombinedGraph& cg) {
  const TripleGraph& g = cg.graph();
  ContextualResult r;
  r.name = name;
  r.nodes = g.NumNodes();
  r.edges = g.NumEdges();

  ContextualHybridInputs in = BuildContextualHybridInputs(cg);
  for (uint8_t flag : in.predicate_only) r.predicate_only += flag;

  RefinementStats stats;
  WallTimer timer;
  Partition p = ContextualRefineFixpoint(g, in.blanked, in.x, in.mediation,
                                         in.predicate_only, &stats);
  r.fixpoint_ms = timer.ElapsedMillis();
  r.resignings = stats.TotalDirty();
  r.final_classes = p.NumColors();
  return r;
}

bool WriteJson(const std::string& path, const std::vector<RunResult>& runs,
               const std::vector<ThreadsResult>& sweep,
               const std::vector<ContextualResult>& contextual, double scale,
               uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"refinement_fixpoint\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"seed\": %llu,\n", (unsigned long long)seed);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"provenance\": \"single-process wall clock, one run "
               "per number; hardware_threads records the recording box\",\n");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"nodes\": %zu,\n", r.nodes);
    std::fprintf(f, "      \"edges\": %zu,\n", r.edges);
    std::fprintf(f, "      \"fixpoint_ms\": %.2f,\n", r.fixpoint_ms);
    std::fprintf(f, "      \"iterations\": %zu,\n", r.iterations);
    std::fprintf(f, "      \"resignings\": %zu,\n", r.resignings);
    std::fprintf(f, "      \"signature_bytes\": %zu,\n", r.signature_bytes);
    std::fprintf(f, "      \"final_classes\": %zu\n", r.final_classes);
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"threads_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const ThreadsResult& r = sweep[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"threads\": %zu,\n", r.threads);
    std::fprintf(f, "      \"first_round_ms\": %.2f,\n", r.first_round_ms);
    std::fprintf(f, "      \"total_ms\": %.2f,\n", r.total_ms);
    std::fprintf(f, "      \"identical\": %s\n",
                 r.identical ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"contextual\": [\n");
  for (size_t i = 0; i < contextual.size(); ++i) {
    const ContextualResult& r = contextual[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"nodes\": %zu,\n", r.nodes);
    std::fprintf(f, "      \"edges\": %zu,\n", r.edges);
    std::fprintf(f, "      \"predicate_only\": %zu,\n", r.predicate_only);
    std::fprintf(f, "      \"fixpoint_ms\": %.2f,\n", r.fixpoint_ms);
    std::fprintf(f, "      \"resignings\": %zu,\n", r.resignings);
    std::fprintf(f, "      \"final_classes\": %zu\n", r.final_classes);
    std::fprintf(f, "    }%s\n", i + 1 < contextual.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 4.0);
  const uint64_t seed = flags.GetInt("seed", 5);
  const std::string out = flags.GetString("out", "BENCH_refinement.json");

  bench::Banner("Refinement fixpoint engine",
                "worklist fixpoint: signing-thread sweep + contextual shape");

  std::vector<RunResult> runs;
  std::vector<ThreadsResult> sweep;
  std::vector<ContextualResult> contextual;
  auto run = [&](const std::string& name, const CombinedGraph& cg) {
    RunResult workload;
    for (ThreadsResult& r : RunThreadsSweep(name, cg.graph(), &workload)) {
      sweep.push_back(std::move(r));
    }
    runs.push_back(workload);
    contextual.push_back(RunContextual(name, cg));
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

  {
    bench::TablePrinter table({"workload", "nodes", "edges", "fixpt(ms)",
                               "iterations", "resignings", "classes"});
    for (const RunResult& r : runs) {
      table.Row({r.name, bench::FmtInt(r.nodes), bench::FmtInt(r.edges),
                 bench::Fmt("%.1f", r.fixpoint_ms), bench::FmtInt(r.iterations),
                 bench::FmtInt(r.resignings), bench::FmtInt(r.final_classes)});
    }
  }
  bool all_identical = true;
  std::printf("\nsigning thread sweep\n");
  {
    bench::TablePrinter table(
        {"workload", "threads", "round1(ms)", "total(ms)", "identical"});
    for (const ThreadsResult& r : sweep) {
      table.Row({r.name, bench::FmtInt(r.threads),
                 bench::Fmt("%.1f", r.first_round_ms),
                 bench::Fmt("%.1f", r.total_ms),
                 r.identical ? "yes" : "NO"});
      all_identical = all_identical && r.identical;
    }
  }
  std::printf("\ncontextual refinement (predicate-aware hybrid shape)\n");
  {
    bench::TablePrinter table({"workload", "nodes", "pred-only",
                               "fixpt(ms)", "resignings", "classes"});
    for (const ContextualResult& r : contextual) {
      table.Row({r.name, bench::FmtInt(r.nodes), bench::FmtInt(r.predicate_only),
                 bench::Fmt("%.1f", r.fixpoint_ms), bench::FmtInt(r.resignings),
                 bench::FmtInt(r.final_classes)});
    }
  }
  if (!all_identical) {
    // The JSON is the perf record of a correct run; a diverging sweep must
    // not leave one behind.
    std::fprintf(stderr,
                 "FAIL: a thread count diverged from the 1-thread partition; "
                 "not writing %s\n",
                 out.c_str());
    return 1;
  }
  const bool wrote = WriteJson(out, runs, sweep, contextual, scale, seed);
  if (wrote) std::printf("\nwrote %s\n", out.c_str());
  return wrote ? 0 : 1;
}
