// Sustained streaming-update throughput of the StreamAligner.
//
// At each scale point two chains of versions sharing one dictionary are
// generated: a category chain (no blank nodes, so only the label path
// runs) and an EFO-like chain whose versions are about 5-15% blank nodes
// (every step re-signs the live blanks). For each, a stream session is
// opened on version 1 (source == target, the daemon's usual starting
// state), and every inter-version update batch is applied live:
//
//   open     : the initial fixpoint the session pays once;
//   apply    : BuildUpdateBatch(v, v+1) fed through StreamAligner::Apply —
//              incremental maintenance plus alignment-delta emission, the
//              number the updates/sec figure is computed from; its
//              refine and delta phases are reported per step too, with
//              the live blank count and the engine's final color count;
//   realign  : one from-scratch batch alignment of (v1, v_final) for
//              context — what every step would cost without the
//              incremental path.
//
// Gate (exit nonzero, REFUSING to write the JSON, on violation): after the
// full chain the live partition must pass CheckBatchEquivalence against a
// batch alignment of the final versions at every scale point — the stream
// path may be faster, never different.
//
// Emits BENCH_stream.json; the checked-in copy at the repo root is the
// reference run (largest point around a million triples), re-run at tiny
// scale by the stream_bench_smoke ctest target.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/aligner.h"
#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "store/atomic_writer.h"
#include "store/update_fragment.h"
#include "stream/stream_aligner.h"
#include "util/fault_injector.h"
#include "util/timer.h"

using namespace rdfalign;

namespace {

template <class Chain>
bool RunPoint(bench::Report& report, const bench::ScratchDir& scratch,
              const char* workload, double scale_point, const Chain& chain,
              size_t threads) {
  const TripleGraph& first = chain.Version(0);
  const TripleGraph& last = chain.Version(chain.NumVersions() - 1);
  const size_t batches = chain.NumVersions() - 1;

  stream::StreamOptions options;
  options.method = AlignMethod::kDeblank;
  options.threads = threads;
  WallTimer open_timer;
  Result<std::unique_ptr<stream::StreamAligner>> session =
      stream::StreamAligner::Open(first, first, options);
  const double open_ms = open_timer.ElapsedMillis();
  if (!session.ok()) {
    std::fprintf(stderr, "stream_bench: open failed: %s\n",
                 session.status().ToString().c_str());
    return false;
  }
  stream::StreamAligner& aligner = **session;

  // One timed Apply per inter-version batch; building the batch and its
  // wire image (what a daemon would receive, sized for the bytes-per-step
  // figure — the stream path never writes snapshots) is untimed setup.
  size_t v = 0, updates = 0, fragment_bytes = 0;
  size_t added_pairs = 0, removed_pairs = 0, dirty_total = 0;
  std::vector<double> refine_ms, delta_ms;
  Result<store::UpdateBatch> batch = Status::Internal("no batch");
  std::string last_image;
  const bench::Timing steps = bench::Time(
      batches, 0,
      [&] {
        Result<stream::StreamBatchResult> step = aligner.Apply(*batch);
        if (!step.ok()) {
          std::fprintf(stderr, "stream_bench: apply %zu failed: %s\n", v,
                       step.status().ToString().c_str());
          return false;
        }
        updates += step->applied_adds + step->applied_removes;
        added_pairs += step->added_pairs.size();
        removed_pairs += step->removed_pairs.size();
        dirty_total += step->dirty_total;
        refine_ms.push_back(step->refine_ms);
        delta_ms.push_back(step->delta_ms);
        return true;
      },
      [&] {
        ++v;
        batch = store::BuildUpdateBatch(chain.Version(v - 1),
                                        chain.Version(v), /*sequence=*/v);
        if (!batch.ok()) {
          std::fprintf(stderr, "stream_bench: batch %zu build failed: %s\n",
                       v, batch.status().ToString().c_str());
          return false;
        }
        if (!bench::Keep(store::EncodeUpdateBatch(*batch), &last_image)) {
          return false;
        }
        fragment_bytes += last_image.size();
        return true;
      });
  if (!steps.ok) return false;
  const double apply_seconds = steps.total_ms / 1000.0;

  // Context: what one step would cost as a full re-alignment.
  AlignerOptions batch_options;
  batch_options.method = AlignMethod::kDeblank;
  WallTimer realign_timer;
  Result<AlignmentOutcome> outcome =
      Aligner(batch_options).Align(first, last);
  const double realign_ms = realign_timer.ElapsedMillis();
  if (!outcome.ok()) {
    std::fprintf(stderr, "stream_bench: batch realign failed: %s\n",
                 outcome.status().ToString().c_str());
    return false;
  }

  // Failpoint overhead on the happy path: the durable atomic fragment
  // write (temp + fsync + rename, docs/robustness.md) timed with the
  // fault injector disarmed and then armed at an ordinal it never
  // reaches. The ratio is what a production daemon pays for keeping the
  // failpoints compiled in and armed.
  const std::string path = scratch.Path("fragment.upd");
  auto write = [&] {
    return store::AtomicWriteFile(path, last_image.data(), last_image.size(),
                                  "update fragment")
        .ok();
  };
  constexpr size_t kWriteSamples = 15;
  const bench::Timing plain_write = bench::Time(kWriteSamples, 0, write);
  if (!FaultInjector::ArmFromSpec("store.write@1000000000=error").ok()) {
    return false;
  }
  const bench::Timing armed_write = bench::Time(kWriteSamples, 0, write);
  FaultInjector::Reset();
  if (!plain_write.ok || !armed_write.ok) return false;

  // The acceptance gate: the live partition must match the batch path.
  Result<stream::StreamCheckResult> check =
      aligner.CheckBatchEquivalence(first, last);
  report.Gate(check.ok(), std::string("equivalence of ") + workload +
                              " at scale " + bench::Fmt("%g", scale_point) +
                              ": " + check.status().ToString());
  const double mean_step_ms = bench::Ratio(steps.total_ms, batches);
  report.Add(
      "points",
      bench::Row()
          .Str("workload", workload, "workload")
          .Num("scale_point", scale_point, "scale")
          .Int("nodes", last.NumNodes())
          .Int("triples", last.NumEdges(), "triples")
          .Int("live_blanks", first.CountOfKind(TermKind::kBlank) +
                                  last.CountOfKind(TermKind::kBlank),
               "blanks")
          .Int("batches", batches, "batches")
          .Num("open_ms", open_ms, 2)
          .Int("updates", updates)
          .Int("fragment_bytes", fragment_bytes)
          .Num("apply_seconds", apply_seconds, 4)
          .Num("updates_per_sec", bench::Ratio(updates, apply_seconds), 0,
               "upd/s")
          .Num("step_p50_ms", steps.p50_ms, 3, "step_p50")
          .Num("step_p95_ms", steps.p95_ms, 3)
          .Num("step_max_ms", steps.max_ms, 3)
          .Num("refine_p50_ms", Percentile(refine_ms, 0.5), 3, "refine_p50")
          .Num("delta_p50_ms", Percentile(delta_ms, 0.5), 3, "delta_p50")
          .Int("added_pairs", added_pairs)
          .Int("removed_pairs", removed_pairs)
          .Int("dirty_resignings", dirty_total, "dirty")
          .Num("realign_ms", realign_ms, 2)
          .Num("realign_speedup", bench::Ratio(realign_ms, mean_step_ms),
               1, "realign")
          .Num("fragment_write_p50_ms", plain_write.p50_ms, 3)
          .Num("fragment_write_armed_p50_ms", armed_write.p50_ms, 3)
          .Num("failpoint_overhead_p50",
               bench::Ratio(armed_write.p50_ms, plain_write.p50_ms), 2)
          .Int("live_nodes", check.ok() ? check->live_nodes : 0)
          .Int("classes", check.ok() ? check->classes : 0)
          .Int("colors_allocated", aligner.NumColorsAllocated())
          .Bool("equivalent", check.ok(), "equal"));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 6.0);
  const size_t versions = flags.GetInt("versions", 5);
  const uint64_t seed = flags.GetInt("seed", 5);
  const size_t threads = flags.GetInt("threads", 1);
  const std::string out = flags.GetString("out", "BENCH_stream.json");

  bench::Banner("stream_bench",
                "streaming continuous alignment: live update batches "
                "through StreamAligner::Apply, gated on batch-path "
                "equivalence at every point");
  bench::Report report(
      "stream", {"points"},
      "single-process wall clock; updates/sec counts applied triple "
      "adds+removes over StreamAligner::Apply time (incremental "
      "maintenance + delta emission, no snapshot IO); every point passed "
      "CheckBatchEquivalence against the batch aligner or this file would "
      "not have been written");
  report.params()
      .Num("scale", scale)
      .Int("versions", versions)
      .Int("seed", seed)
      .Int("threads", threads);
  const bench::ScratchDir scratch("rdfalign_stream_bench");

  // Three points up to 4x --scale. The default largest category point
  // lands around a million triples in the final version; an EFO point has
  // 500 classes per unit of scale (12,000 at the default largest point),
  // and at least 25.
  std::vector<double> scale_points;
  for (double factor : {0.25, 1.0, 4.0}) {
    const double point = scale * factor;
    if (scale_points.empty() || point > scale_points.back()) {
      scale_points.push_back(point);
    }
  }
  auto fail = [&out](const char* workload, double point) {
    std::fprintf(stderr,
                 "stream_bench: FAIL (%s) at scale %g — not writing %s\n",
                 workload, point, out.c_str());
    return 1;
  };
  for (double point : scale_points) {
    const gen::CategoryChain chain = gen::CategoryChain::Generate(
        gen::CategoryOptions::FromScale(point, versions, seed));
    if (!RunPoint(report, scratch, "category", point, chain, threads)) {
      return fail("category", point);
    }
  }
  size_t last_classes = 0;
  for (double point : scale_points) {
    gen::EfoOptions efo;
    efo.initial_classes = std::max<size_t>(25, point * 500);
    if (efo.initial_classes == last_classes) continue;  // tiny --scale
    last_classes = efo.initial_classes;
    efo.versions = versions;
    efo.seed = seed;
    if (!RunPoint(report, scratch, "efo", point, gen::EfoChain::Generate(efo),
                  threads)) {
      return fail("efo", point);
    }
  }
  return report.Finish(out);
}
