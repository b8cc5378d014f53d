// Sustained streaming-update throughput of the StreamAligner (ISSUE 8
// acceptance bench).
//
// At each scale point a category-chain of versions sharing one dictionary
// is generated, a stream session is opened on version 1 (source == target,
// the daemon's usual starting state), and every inter-version update batch
// is applied live:
//
//   open     : the initial fixpoint the session pays once;
//   apply    : BuildUpdateBatch(v, v+1) fed through StreamAligner::Apply —
//              incremental maintenance plus alignment-delta emission, the
//              number the updates/sec figure is computed from;
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

#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/aligner.h"
#include "gen/category_gen.h"
#include "store/atomic_writer.h"
#include "store/update_fragment.h"
#include "stream/stream_aligner.h"
#include "util/fault_injector.h"
#include "util/timer.h"

using namespace rdfalign;

namespace {

bool RunPoint(bench::Report& report, const bench::ScratchDir& scratch,
              double scale_point, size_t versions, uint64_t seed,
              size_t threads) {
  const gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, versions, seed));
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
  report.Gate(check.ok(), "equivalence at scale " +
                              bench::Fmt("%g", scale_point) + ": " +
                              check.status().ToString());
  const double mean_step_ms = bench::Ratio(steps.total_ms, batches);
  report.Add(
      "points",
      bench::Row()
          .Num("scale_point", scale_point, "scale")
          .Int("nodes", last.NumNodes())
          .Int("triples", last.NumEdges(), "triples")
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
          .Int("added_pairs", added_pairs)
          .Int("removed_pairs", removed_pairs)
          .Int("dirty_resignings", dirty_total)
          .Num("realign_ms", realign_ms, 2)
          .Num("realign_speedup", bench::Ratio(realign_ms, mean_step_ms),
               1, "realign")
          .Num("fragment_write_p50_ms", plain_write.p50_ms, 3)
          .Num("fragment_write_armed_p50_ms", armed_write.p50_ms, 3)
          .Num("failpoint_overhead_p50",
               bench::Ratio(armed_write.p50_ms, plain_write.p50_ms), 2)
          .Int("live_nodes", check.ok() ? check->live_nodes : 0)
          .Int("classes", check.ok() ? check->classes : 0)
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

  // Three points up to 4x --scale; the default largest point lands around
  // a million triples in the final version.
  std::vector<double> scale_points;
  for (double factor : {0.25, 1.0, 4.0}) {
    const double point = scale * factor;
    if (scale_points.empty() || point > scale_points.back()) {
      scale_points.push_back(point);
    }
  }
  for (double point : scale_points) {
    if (!RunPoint(report, scratch, point, versions, seed, threads)) {
      std::fprintf(stderr, "stream_bench: FAIL at scale %g — not writing %s\n",
                   point, out.c_str());
      return 1;
    }
  }
  return report.Finish(out);
}
