// Micro-benchmarks (google-benchmark) of the core primitives: string edit
// distance, Hungarian assignment, refinement steps, overlap screening.

#include <benchmark/benchmark.h>

#include "core/bisim.h"
#include "core/edit_distance.h"
#include "core/hungarian.h"
#include "core/overlap.h"
#include "core/refinement.h"
#include "core/worklist_engine.h"
#include "gen/efo_gen.h"
#include "gen/textgen.h"
#include "rdf/merge.h"
#include "util/random.h"

namespace rdfalign {
namespace {

void BM_Levenshtein(benchmark::State& state) {
  Rng rng(1);
  const size_t len = state.range(0);
  std::string a;
  std::string b;
  while (a.size() < len) a += gen::RandomWord(rng) + " ";
  b = gen::ApplyTypos(a, 3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_Levenshtein)->Arg(16)->Arg(64)->Arg(256);

void BM_LevenshteinBounded(benchmark::State& state) {
  Rng rng(1);
  const size_t len = state.range(0);
  std::string a;
  while (a.size() < len) a += gen::RandomWord(rng) + " ";
  std::string b = gen::ApplyTypos(a, 3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistanceBounded(a, b, 5));
  }
}
BENCHMARK(BM_LevenshteinBounded)->Arg(64)->Arg(256);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(2);
  const size_t n = state.range(0);
  std::vector<double> cost(n * n);
  for (double& c : cost) c = rng.UniformReal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(cost, n));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(64);

// range(0): EFO initial classes.
void BM_RefineFixpoint(benchmark::State& state) {
  gen::EfoOptions options;
  options.initial_classes = state.range(0);
  options.versions = 2;
  gen::EfoChain chain = gen::EfoChain::Generate(options);
  auto cg =
      CombinedGraph::Build(chain.Version(0), chain.Version(1)).value();
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BisimRefineFixpoint(g, LabelPartition(g), all));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_RefineFixpoint)->Arg(100)->Arg(400)->Arg(2000);

// range(0): EFO initial classes; range(1): signing threads. The first
// round signs every node of the pair, several internal::kSignGrain chunks
// at 2000 classes, so threads > 1 sign it on the pool; a pair that fits
// one chunk is reported as an error instead of timed.
void BM_RefineFixpointParallel(benchmark::State& state) {
  gen::EfoOptions options;
  options.initial_classes = state.range(0);
  options.versions = 2;
  gen::EfoChain chain = gen::EfoChain::Generate(options);
  auto cg =
      CombinedGraph::Build(chain.Version(0), chain.Version(1)).value();
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  if (all.size() <= internal::kSignGrain) {
    state.SkipWithError("first round fits one signing chunk");
    return;
  }
  RefinementOptions engine;
  engine.threads = state.range(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BisimRefineFixpoint(g, LabelPartition(g), all, nullptr, engine));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_RefineFixpointParallel)
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4})
    ->Args({2000, 8});

void BM_OverlapMeasure(benchmark::State& state) {
  Rng rng(3);
  const size_t k = state.range(0);
  std::vector<uint64_t> o1;
  std::vector<uint64_t> o2;
  for (size_t i = 0; i < k; ++i) {
    o1.push_back(rng.Uniform(k * 2));
    o2.push_back(rng.Uniform(k * 2));
  }
  std::sort(o1.begin(), o1.end());
  o1.erase(std::unique(o1.begin(), o1.end()), o1.end());
  std::sort(o2.begin(), o2.end());
  o2.erase(std::unique(o2.begin(), o2.end()), o2.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverlapMeasure(o1, o2));
  }
}
BENCHMARK(BM_OverlapMeasure)->Arg(8)->Arg(64)->Arg(512);

void BM_BisimPartition(benchmark::State& state) {
  gen::EfoOptions options;
  options.initial_classes = state.range(0);
  options.versions = 1;
  gen::EfoChain chain = gen::EfoChain::Generate(options);
  const TripleGraph& g = chain.Version(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BisimPartition(g));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_BisimPartition)->Arg(200)->Arg(800);

}  // namespace
}  // namespace rdfalign

BENCHMARK_MAIN();
