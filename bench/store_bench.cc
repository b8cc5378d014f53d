// Load-vs-reparse A/B of the snapshot store (the ISSUE 3 acceptance
// bench), plus the delta-chain A/B of the incremental store (ISSUE 5).
//
// Snapshot part (--mode=snapshot or all): at each fig16-style scale point
// a category graph is generated and saved twice — as N-Triples text and
// as a binary snapshot — then ingested back three ways:
//
//   reparse : ParseNTriplesFile (streaming text parse, the pre-store path)
//   load    : LoadSnapshot, buffered read (the daemon's cache)
//   mmap    : LoadSnapshot, mmap + zero-copy CSR adoption (the one-shot
//             CLI)
//
// Both snapshot loads verify every section checksum and run the full
// structural validation, so both read the whole file; mmap saves the
// copy, not the read (see store/snapshot.h).
//
// Each snapshot point also reports the bytes of the front-coded
// dictionary sections and is gated on save -> load -> resave reproducing
// the snapshot byte for byte.
//
// Delta part (--mode=delta or all): a --versions-long category chain is
// materialized three ways — reparsing every version, loading one full
// snapshot per version, and loading the base snapshot then patch-replaying
// the delta chain (store/delta.h) — and the replayed graphs must be
// bit-identical (labels, triples, both CSR indexes) to the snapshot
// loads, or the bench exits nonzero. This re-checks the ISSUE 5
// acceptance invariant on every delta_bench_smoke / CI run.
//
// Each method is timed over several runs (best-of, files warm in the page
// cache for every method alike) and the loaded graphs are checked equal to
// the reparsed one. Emits BENCH_store.json — and refuses to (exit 1, no
// file) when any equality, round-trip or sweep gate fails; the checked-in
// copy at the repo root is the reference run, and the store_bench_smoke /
// delta_bench_smoke ctest targets re-run this at a tiny scale.

#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/aligner.h"
#include "core/delta.h"
#include "gen/category_gen.h"
#include "parser/ntriples_parser.h"
#include "parser/ntriples_writer.h"
#include "store/delta.h"
#include "store/container.h"
#include "store/snapshot.h"

using namespace rdfalign;

namespace {

uint64_t FileSize(const std::string& path) {
  return std::filesystem::file_size(path);
}

std::string PointName(const char* part, double scale_point) {
  return std::string(part) + " point " + bench::Fmt("%g", scale_point);
}

/// Bytes of the dictionary sections (suffix offsets, suffix blob, prefix
/// lengths) of a snapshot.
uint64_t DictSectionBytes(const store::SnapshotInfo& info) {
  uint64_t bytes = 0;
  for (const auto& s : info.sections) {
    if (s.id == store::SectionId::kTermOffsets ||
        s.id == store::SectionId::kTermBlob ||
        s.id == store::SectionId::kTermPrefixLens) {
      bytes += s.size;
    }
  }
  return bytes;
}

bool FilesIdentical(const std::string& a, const std::string& b) {
  Result<std::string> bytes_a = store::ReadFileBytes(a);
  Result<std::string> bytes_b = store::ReadFileBytes(b);
  return bytes_a.ok() && bytes_b.ok() && *bytes_a == *bytes_b;
}

bool RunPoint(bench::Report& report, const bench::ScratchDir& scratch,
              double scale_point, uint64_t seed, size_t runs) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, /*versions=*/1, seed));
  const TripleGraph& g = chain.Version(0);

  const std::string nt_path = scratch.Path("g.nt");
  const std::string snap_path = scratch.Path("g.snap");
  if (!WriteNTriplesFile(g, nt_path).ok() ||
      !store::WriteSnapshot(g, snap_path).ok()) {
    std::fprintf(stderr, "cannot write bench inputs under %s\n",
                 scratch.dir().c_str());
    return false;
  }

  // Warm the page cache so the first-timed method is not penalized.
  { auto warm = ParseNTriplesFile(nt_path, nullptr); (void)warm; }

  TripleGraph parsed, loaded, mapped;
  store::SnapshotLoadOptions mm;
  mm.use_mmap = true;
  const bench::Timing reparse = bench::Time(runs, 0, [&] {
    return bench::Keep(ParseNTriplesFile(nt_path, nullptr), &parsed);
  });
  const bench::Timing load = bench::Time(runs, 0, [&] {
    return bench::Keep(store::LoadSnapshot(snap_path, nullptr), &loaded);
  });
  const bench::Timing mmap = bench::Time(runs, 0, [&] {
    return bench::Keep(store::LoadSnapshot(snap_path, nullptr, mm), &mapped);
  });
  if (!reparse.ok || !load.ok || !mmap.ok) return false;
  // The snapshot paths must reproduce the original graph exactly (ids
  // included). The text parser renumbers nodes in first-occurrence
  // order, so the reparse path is held to count equality only.
  const bool equal = LabeledGraphsEqual(g, loaded) &&
                     LabeledGraphsEqual(g, mapped) &&
                     parsed.NumNodes() == g.NumNodes() &&
                     parsed.NumEdges() == g.NumEdges();
  // Resaving a freshly loaded snapshot must reproduce it byte for byte.
  const std::string resave_path = scratch.Path("resave.snap");
  const bool roundtrip = store::WriteSnapshot(loaded, resave_path).ok() &&
                         FilesIdentical(snap_path, resave_path);
  auto info = store::ReadSnapshotInfo(snap_path);
  if (!info.ok()) return false;
  report.Gate(equal, PointName("snapshot", scale_point) +
                         ": a load path does not reproduce the graph");
  report.Gate(roundtrip, PointName("snapshot", scale_point) +
                             ": save -> load -> resave changed the bytes");
  report.Add(
      "points",
      bench::Row()
          .Num("scale_point", scale_point)
          .Int("nodes", g.NumNodes(), "nodes")
          .Int("edges", g.NumEdges(), "edges")
          .Int("terms", g.dict().size())
          .Int("nt_bytes", FileSize(nt_path), "nt_bytes")
          .Int("snap_bytes", FileSize(snap_path), "snap_bytes")
          .Int("dict_bytes", DictSectionBytes(*info), "dict(B)")
          .Num("reparse_ms", reparse.min_ms, 2, "parse(ms)")
          .Num("load_ms", load.min_ms, 2, "load(ms)")
          .Num("mmap_ms", mmap.min_ms, 2, "mmap(ms)")
          .Num("speedup_load", bench::Ratio(reparse.min_ms, load.min_ms), 2)
          .Num("speedup_mmap", bench::Ratio(reparse.min_ms, mmap.min_ms), 2,
               "mmap-x")
          .Bool("roundtrip", roundtrip, "roundtrip")
          .Bool("equal", equal, "equal"));
  return true;
}

// ------------------------------------------------------------ delta A/B

/// Bit-level graph equality (labels, triples, both CSR indexes) — the
/// delta acceptance invariant, shared with the test suite via
/// GraphsBitDiffer (rdf/graph.h).
bool GraphsBitIdentical(const TripleGraph& a, const TripleGraph& b) {
  return GraphsBitDiffer(a, b) == nullptr;
}

bool RunDeltaPoint(bench::Report& report, const bench::ScratchDir& scratch,
                   double scale_point, uint64_t seed, size_t runs,
                   size_t versions) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, versions, seed));
  const size_t v_count = chain.NumVersions();

  // Inputs: per-version N-Triples + snapshots, and base + delta chain.
  std::vector<std::string> nt_paths, snap_paths, delta_paths;
  uint64_t snap_total_bytes = 0;
  for (size_t v = 0; v < v_count; ++v) {
    const std::string stem = scratch.Path("d") + std::to_string(v);
    nt_paths.push_back(stem + ".nt");
    snap_paths.push_back(stem + ".snap");
    if (!WriteNTriplesFile(chain.Version(v), nt_paths[v]).ok() ||
        !store::WriteSnapshot(chain.Version(v), snap_paths[v]).ok()) {
      std::fprintf(stderr, "cannot write delta bench inputs under %s\n",
                   scratch.dir().c_str());
      return false;
    }
    snap_total_bytes += FileSize(snap_paths[v]);
  }
  uint64_t delta_total_bytes = FileSize(snap_paths[0]);
  Aligner aligner;  // hybrid, the `rdfalign diff` default
  for (size_t v = 1; v < v_count; ++v) {
    delta_paths.push_back(scratch.Path("d") + std::to_string(v) + ".delta");
    auto cg = CombinedGraph::Build(chain.Version(v - 1), chain.Version(v));
    if (!cg.ok()) {
      std::fprintf(stderr, "delta bench: merging versions %zu/%zu: %s\n",
                   v - 1, v, cg.status().ToString().c_str());
      return false;
    }
    const VersionNodeMap map =
        NodeMapFromPartition(*cg, aligner.AlignCombined(*cg).partition);
    Status st = store::WriteDelta(chain.Version(v - 1), chain.Version(v),
                                  map, delta_paths[v - 1]);
    if (!st.ok()) {
      std::fprintf(stderr, "delta bench: writing delta %zu: %s\n", v,
                   st.ToString().c_str());
      return false;
    }
    delta_total_bytes += FileSize(delta_paths[v - 1]);
  }

  // Warm the page cache.
  { auto warm = ParseNTriplesFile(nt_paths[0], nullptr); (void)warm; }

  // Loads the base snapshot and patch-replays the delta chain.
  auto replay = [&](const store::DeltaApplyOptions& opts,
                    std::vector<TripleGraph>* out) {
    out->clear();
    auto dict = std::make_shared<Dictionary>();
    auto base = store::LoadSnapshot(snap_paths[0], dict);
    if (!base.ok()) return false;
    out->push_back(std::move(base).value());
    for (const std::string& p : delta_paths) {
      auto next = store::ApplyDelta(out->back(), p, dict, opts);
      if (!next.ok()) return false;
      out->push_back(std::move(next).value());
    }
    return true;
  };
  std::vector<TripleGraph> snap_loaded, replayed;
  const bench::Timing reparse = bench::Time(runs, 0, [&] {
    for (const std::string& p : nt_paths) {
      if (!ParseNTriplesFile(p, nullptr).ok()) return false;
    }
    return true;
  });
  const bench::Timing snap_load = bench::Time(runs, 0, [&] {
    snap_loaded.clear();
    for (const std::string& p : snap_paths) {
      auto res = store::LoadSnapshot(p, nullptr);
      if (!res.ok()) return false;
      snap_loaded.push_back(std::move(res).value());
    }
    return true;
  });
  const bench::Timing replay_time =
      bench::Time(runs, 0, [&] { return replay({}, &replayed); });
  if (!reparse.ok || !snap_load.ok || !replay_time.ok) {
    std::fprintf(stderr, "delta bench: a load/replay phase failed\n");
    return false;
  }
  // The acceptance gate: every patch-replayed version bit-identical to
  // the direct snapshot load of that version.
  bool equal = snap_loaded.size() == v_count && replayed.size() == v_count;
  for (size_t v = 0; equal && v < v_count; ++v) {
    equal = GraphsBitIdentical(snap_loaded[v], replayed[v]) &&
            GraphsBitIdentical(chain.Version(v), replayed[v]);
  }
  report.Gate(equal, PointName("delta", scale_point) +
                         ": a replayed version differs from its snapshot");

  // Replay thread sweep: the checksum verify and CSR rebuild run on the
  // shared pool, and the replayed chain must not depend on the worker
  // count.
  std::vector<bench::Row> sweep;
  bool sweep_equal = true;
  for (size_t t : {1u, 2u, 4u, 8u}) {
    std::vector<TripleGraph> sweep_replayed;
    store::DeltaApplyOptions opts;
    opts.threads = t;
    const bench::Timing time =
        bench::Time(runs, 0, [&] { return replay(opts, &sweep_replayed); });
    if (!time.ok) {
      std::fprintf(stderr, "delta bench: replay sweep failed at threads=%zu\n",
                   t);
      return false;
    }
    sweep.push_back(bench::Row().Int("threads", t).Num("ms", time.min_ms, 2));
    for (size_t v = 0; v < sweep_replayed.size(); ++v) {
      if (!GraphsBitIdentical(sweep_replayed[v], replayed[v])) {
        sweep_equal = report.Gate(false, "threads=" + std::to_string(t) +
                                             " replay diverged at version " +
                                             std::to_string(v));
      }
    }
  }
  report.Add(
      "delta_points",
      bench::Row()
          .Num("scale_point", scale_point)
          .Int("versions", v_count)
          .Int("nodes", chain.Version(v_count - 1).NumNodes(), "nodes")
          .Int("edges", chain.Version(v_count - 1).NumEdges(), "edges")
          .Int("snap_total_bytes", snap_total_bytes, "snaps(B)")
          .Int("delta_total_bytes", delta_total_bytes, "deltas(B)")
          .Num("bytes_ratio",
               bench::Ratio(static_cast<double>(snap_total_bytes),
                            static_cast<double>(delta_total_bytes)),
               2, "bytes-x")
          .Num("reparse_ms", reparse.min_ms, 2, "parse(ms)")
          .Num("snap_load_ms", snap_load.min_ms, 2, "snaps(ms)")
          .Num("replay_ms", replay_time.min_ms, 2, "replay(ms)")
          .Num("speedup_replay_vs_reparse",
               bench::Ratio(reparse.min_ms, replay_time.min_ms), 2)
          .Rows("replay_threads_sweep", std::move(sweep))
          .Bool("sweep_equal", sweep_equal, "sweep_eq")
          .Bool("equal", equal, "equal"));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t seed = flags.GetInt("seed", 5);
  const size_t runs = static_cast<size_t>(flags.GetInt("runs", 3));
  const size_t versions = static_cast<size_t>(flags.GetInt("versions", 4));
  const std::string mode = flags.GetString("mode", "all");
  const std::string out = flags.GetString("out", "BENCH_store.json");
  if (mode != "all" && mode != "snapshot" && mode != "delta") {
    std::fprintf(stderr, "--mode must be all, snapshot, or delta\n");
    return 1;
  }
  // Range-checked like every rdfalign numeric flag; a negative value
  // wraps through the unsigned parse and lands above the cap.
  if (versions < 1 || versions > 1000) {
    std::fprintf(stderr, "--versions must be in [1, 1000]\n");
    return 1;
  }

  bench::Banner("Snapshot store load A/B",
                "N-Triples reparse vs buffered snapshot load vs mmap "
                "zero-copy load; delta-chain replay vs per-version "
                "snapshots vs reparse");
  bench::Report report("store_load", {"points", "delta_points"},
                       "single-process wall clock; hardware_threads records "
                       "the recording box — on a 1-core box the "
                       "replay_threads_sweep is expected to stay flat");
  report.params().Num("scale", scale).Int("seed", seed).Int("runs", runs);
  const bench::ScratchDir scratch("rdfalign_store_bench");

  // The fig16 ladder: quarter, full, and 4x scale (the 4x point matches
  // BENCH_refinement.json's workload size).
  const double ladder[] = {0.25 * scale, 1.0 * scale, 4.0 * scale};
  for (double point : ladder) {
    if ((mode == "all" || mode == "snapshot") &&
        !RunPoint(report, scratch, point, seed, runs)) {
      return 1;
    }
  }
  for (double point : ladder) {
    if ((mode == "all" || mode == "delta") &&
        !RunDeltaPoint(report, scratch, point, seed, runs, versions)) {
      return 1;
    }
  }
  return report.Finish(out);
}
