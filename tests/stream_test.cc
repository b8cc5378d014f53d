// Tests for the streaming alignment subsystem (docs/stream.md): update
// fragment encode/decode, the dirtiness edge cases of incremental
// partition maintenance, and the batch-equivalence contract — after any
// update sequence the live partition and the cumulative alignment deltas
// must match a from-scratch batch alignment of the final versions.

#include "stream/stream_aligner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/deblank.h"
#include "gen/efo_gen.h"
#include "store/update_fragment.h"
#include "test_util.h"

namespace rdfalign::stream {
namespace {

using store::BuildUpdateBatch;
using store::DecodeUpdateBatch;
using store::EncodeUpdateBatch;
using store::UpdateBatch;

std::unique_ptr<StreamAligner> OpenOrDie(const TripleGraph& source,
                                         const TripleGraph& target,
                                         const StreamOptions& options = {}) {
  Result<std::unique_ptr<StreamAligner>> a =
      StreamAligner::Open(source, target, options);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  return std::move(a).value();
}

StreamBatchResult ApplyStep(StreamAligner* aligner, const TripleGraph& prev,
                            const TripleGraph& next, uint64_t seq) {
  Result<UpdateBatch> batch = BuildUpdateBatch(prev, next, seq);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  Result<StreamBatchResult> r = aligner->Apply(*batch);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

void ExpectEquivalent(const StreamAligner& aligner, const TripleGraph& source,
                      const TripleGraph& final_target) {
  Result<StreamCheckResult> check =
      aligner.CheckBatchEquivalence(source, final_target);
  EXPECT_TRUE(check.ok()) << check.status().ToString();
}

// ------------------------------------------------------- update fragments

TEST(UpdateFragmentTest, RoundTripsThroughEncodeDecode) {
  auto [g1, g2] = testing::Fig3Graphs();
  Result<UpdateBatch> built = BuildUpdateBatch(g1, g2, 7);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  Result<std::string> bytes = EncodeUpdateBatch(*built);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_TRUE(store::LooksLikeUpdateFragment(*bytes));

  Result<UpdateBatch> decoded = DecodeUpdateBatch(*bytes, "test");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sequence, 7u);
  EXPECT_EQ(decoded->num_new, built->num_new);
  EXPECT_EQ(decoded->removed, built->removed);
  EXPECT_EQ(decoded->added, built->added);
  EXPECT_EQ(decoded->removed_nodes, built->removed_nodes);
  ASSERT_EQ(decoded->nodes.size(), built->nodes.size());
  for (size_t i = 0; i < decoded->nodes.size(); ++i) {
    EXPECT_EQ(decoded->nodes[i].kind, built->nodes[i].kind) << i;
    EXPECT_EQ(decoded->nodes[i].lex, built->nodes[i].lex) << i;
  }
}

TEST(UpdateFragmentTest, RoundTripsThroughFiles) {
  auto [g1, g2] = testing::Fig1Graphs();
  Result<UpdateBatch> built = BuildUpdateBatch(g1, g2, 1);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string path = ::testing::TempDir() + "rdfalign_stream_rt.upd";
  ASSERT_TRUE(store::WriteUpdateFile(*built, path).ok());
  Result<UpdateBatch> read = store::ReadUpdateFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->added, built->added);
  EXPECT_EQ(read->removed, built->removed);
  std::remove(path.c_str());
}

TEST(UpdateFragmentTest, RejectsCorruptionAnywhere) {
  auto [g1, g2] = testing::Fig3Graphs();
  Result<UpdateBatch> built = BuildUpdateBatch(g1, g2, 1);
  ASSERT_TRUE(built.ok());
  Result<std::string> bytes = EncodeUpdateBatch(*built);
  ASSERT_TRUE(bytes.ok());

  // Truncation at any prefix must be rejected, never crash.
  for (size_t cut : {size_t{0}, size_t{5}, size_t{95}, bytes->size() - 1}) {
    EXPECT_FALSE(
        DecodeUpdateBatch(std::string_view(*bytes).substr(0, cut), "t").ok())
        << "cut=" << cut;
  }
  // A flipped byte trips a checksum (or the magic/geometry) — except in
  // the inter-section zero padding, which carries no content; there the
  // decode must still return the identical batch.
  for (size_t pos = 0; pos < bytes->size(); pos += 13) {
    std::string corrupt = *bytes;
    corrupt[pos] ^= 0x40;
    Result<UpdateBatch> d = DecodeUpdateBatch(corrupt, "t");
    if (!d.ok()) continue;
    EXPECT_EQ(d->added, built->added) << "pos=" << pos;
    EXPECT_EQ(d->removed, built->removed) << "pos=" << pos;
    EXPECT_EQ(d->removed_nodes, built->removed_nodes) << "pos=" << pos;
    EXPECT_EQ(d->num_new, built->num_new) << "pos=" << pos;
    ASSERT_EQ(d->nodes.size(), built->nodes.size()) << "pos=" << pos;
    for (size_t i = 0; i < d->nodes.size(); ++i) {
      EXPECT_EQ(d->nodes[i].lex, built->nodes[i].lex) << "pos=" << pos;
    }
  }
}

// Crafted fragments (checksums resealed, so only structural validation
// can object): a node referencing a term past the dictionary, and a
// retired node outside the existing-reference range.
TEST(UpdateFragmentTest, RejectsCraftedReferences) {
  auto [g1, g2] = testing::Fig3Graphs();
  Result<UpdateBatch> built = BuildUpdateBatch(g1, g2, 1);
  ASSERT_TRUE(built.ok());
  ASSERT_FALSE(built->removed_nodes.empty());
  Result<std::string> bytes = EncodeUpdateBatch(*built);
  ASSERT_TRUE(bytes.ok());
  const auto header = [&bytes] {
    store::UpdateHeader h;
    std::memcpy(&h, bytes->data(), sizeof(h));
    return h;
  }();
  // Section 3 = node_lex: node 0's term index set to num_terms.
  std::string crafted = *bytes;
  testing::PatchSectionWithValidChecksums(
      crafted, 3, 0, static_cast<uint32_t>(header.num_terms));
  Result<UpdateBatch> d = DecodeUpdateBatch(crafted, "t");
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsCorruption()) << d.status();
  EXPECT_NE(d.status().message().find("missing term"), std::string::npos)
      << d.status();
  // Section 4 = removed_nodes: the first retired reference set past the
  // reference table.
  crafted = *bytes;
  testing::PatchSectionWithValidChecksums(
      crafted, 4, 0, static_cast<uint32_t>(header.num_refs));
  d = DecodeUpdateBatch(crafted, "t");
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsCorruption()) << d.status();
  EXPECT_NE(d.status().message().find("existing-reference range"),
            std::string::npos)
      << d.status();
}

TEST(UpdateFragmentTest, ApplyRejectsUnresolvableReference) {
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g = testing::Fig2Graph(dict);
  std::unique_ptr<StreamAligner> aligner = OpenOrDie(g, g);

  UpdateBatch batch;
  batch.nodes.push_back({TermKind::kUri, "ex:never-seen"});
  batch.nodes.push_back({TermKind::kUri, "ex:p"});
  batch.num_new = 0;  // claims ex:never-seen already exists — it does not
  batch.added.push_back(Triple{0, 1, 1});
  EXPECT_FALSE(aligner->Apply(batch).ok());
}

// A fragment may name one live node under two references; the decoder
// accepts it (it checks only that the retired indexes ascend), so Apply
// must refuse to retire that node twice.
TEST(StreamTest, ApplyRejectsOneNodeRetiredTwice) {
  for (TermKind kind : {TermKind::kUri, TermKind::kBlank}) {
    auto dict = std::make_shared<Dictionary>();
    TripleGraph g = testing::Fig2Graph(dict);
    std::unique_ptr<StreamAligner> aligner = OpenOrDie(g, g);

    UpdateBatch create;
    create.nodes.push_back({kind, "ex:lonely"});
    create.num_new = 1;
    ASSERT_TRUE(aligner->Apply(create).ok());

    UpdateBatch retire;
    retire.nodes.push_back({kind, "ex:lonely"});
    retire.nodes.push_back({kind, "ex:lonely"});
    retire.num_new = 0;
    retire.removed_nodes = {0, 1};
    Result<std::string> bytes = EncodeUpdateBatch(retire);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    Result<UpdateBatch> decoded = DecodeUpdateBatch(*bytes, "t");
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    Result<StreamBatchResult> r = aligner->Apply(*decoded);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
    EXPECT_NE(r.status().message().find("two references"), std::string::npos)
        << r.status();
  }
}

// --------------------------------------------- dirtiness edge cases

// Adding an isolated node whose label the source knows extends the
// alignment without waking the refinement engine at all.
TEST(StreamTest, IsolatedUriNodeAddSkipsRefinement) {
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g = testing::Fig2Graph(dict);

  // Target = Fig2 minus every triple touching ex:u, minus ex:u itself;
  // the update re-creates ex:u as an isolated node.
  GraphBuilder without(dict);
  NodeId w = without.AddUri("ex:w");
  NodeId p = without.AddUri("ex:p");
  NodeId q = without.AddUri("ex:q");
  NodeId b1 = without.AddBlank("b1");
  NodeId b2 = without.AddBlank("b2");
  NodeId b3 = without.AddBlank("b3");
  NodeId la = without.AddLiteral("a");
  NodeId lb = without.AddLiteral("b");
  without.AddTriple(w, p, b1);
  without.AddTriple(w, p, lb);
  without.AddTriple(b1, q, b2);
  without.AddTriple(b2, q, la);
  without.AddTriple(b3, q, la);
  TripleGraph target = std::move(without.Build(true)).value();

  GraphBuilder with(dict);
  w = with.AddUri("ex:w");
  p = with.AddUri("ex:p");
  q = with.AddUri("ex:q");
  b1 = with.AddBlank("b1");
  b2 = with.AddBlank("b2");
  b3 = with.AddBlank("b3");
  la = with.AddLiteral("a");
  lb = with.AddLiteral("b");
  with.AddUri("ex:u");  // isolated: no triples touch it
  with.AddTriple(w, p, b1);
  with.AddTriple(w, p, lb);
  with.AddTriple(b1, q, b2);
  with.AddTriple(b2, q, la);
  with.AddTriple(b3, q, la);
  TripleGraph next = std::move(with.Build(true)).value();

  std::unique_ptr<StreamAligner> aligner = OpenOrDie(g, target);
  StreamBatchResult r = ApplyStep(aligner.get(), target, next, 1);
  EXPECT_EQ(r.new_nodes, 1u);
  EXPECT_FALSE(r.refined);  // no blank was created or re-signed
  ASSERT_EQ(r.added_pairs.size(), 1u);
  EXPECT_EQ(r.added_pairs[0].src_lex, "ex:u");
  EXPECT_EQ(r.added_pairs[0].tgt_lex, "ex:u");
  EXPECT_TRUE(r.removed_pairs.empty());
  ExpectEquivalent(*aligner, g, next);
}

// An isolated *blank* node add must refine: the fresh blank joins the
// blank reset region and can merge with (or split from) existing classes.
TEST(StreamTest, IsolatedBlankNodeAddRefines) {
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g = testing::Fig2Graph(dict);

  GraphBuilder nb(dict);
  NodeId w = nb.AddUri("ex:w");
  NodeId u = nb.AddUri("ex:u");
  NodeId p = nb.AddUri("ex:p");
  NodeId q = nb.AddUri("ex:q");
  NodeId r = nb.AddUri("ex:r");
  NodeId b1 = nb.AddBlank("b1");
  NodeId b2 = nb.AddBlank("b2");
  NodeId b3 = nb.AddBlank("b3");
  NodeId la = nb.AddLiteral("a");
  NodeId lb = nb.AddLiteral("b");
  nb.AddBlank("b9");  // new isolated blank
  nb.AddTriple(w, p, b1);
  nb.AddTriple(w, p, u);
  nb.AddTriple(w, p, lb);
  nb.AddTriple(b1, q, b2);
  nb.AddTriple(b1, r, u);
  nb.AddTriple(b2, q, la);
  nb.AddTriple(b3, q, la);
  nb.AddTriple(u, q, la);
  nb.AddTriple(u, q, lb);
  nb.AddTriple(u, r, w);
  TripleGraph next = std::move(nb.Build(true)).value();

  std::unique_ptr<StreamAligner> aligner = OpenOrDie(g, g);
  StreamBatchResult r1 = ApplyStep(aligner.get(), g, next, 1);
  EXPECT_EQ(r1.new_nodes, 1u);
  EXPECT_TRUE(r1.refined);
  ExpectEquivalent(*aligner, g, next);
}

// A blank self-loop add then remove: both directions refine, and after
// the remove the partition (and pair set) is back to the original.
TEST(StreamTest, BlankSelfLoopAddAndRemove) {
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g = testing::Fig2Graph(dict);
  std::unique_ptr<StreamAligner> aligner = OpenOrDie(g, g);
  const std::vector<LabeledPair> original = aligner->CurrentPairs();

  UpdateBatch loop;
  loop.nodes.push_back({TermKind::kBlank, "b2"});
  loop.nodes.push_back({TermKind::kUri, "ex:r"});
  loop.added.push_back(Triple{0, 1, 0});  // (_:b2, ex:r, _:b2)
  loop.sequence = 1;
  Result<StreamBatchResult> add = aligner->Apply(loop);
  ASSERT_TRUE(add.ok()) << add.status().ToString();
  EXPECT_TRUE(add->refined);
  // b2 leaves the {b2, b3} class: pairs involving it change.
  EXPECT_FALSE(add->removed_pairs.empty());

  // Equivalence against Fig2 + the loop.
  GraphBuilder wb(dict);
  NodeId w = wb.AddUri("ex:w");
  NodeId u = wb.AddUri("ex:u");
  NodeId p = wb.AddUri("ex:p");
  NodeId q = wb.AddUri("ex:q");
  NodeId r = wb.AddUri("ex:r");
  NodeId b1 = wb.AddBlank("b1");
  NodeId b2 = wb.AddBlank("b2");
  NodeId b3 = wb.AddBlank("b3");
  NodeId la = wb.AddLiteral("a");
  NodeId lb = wb.AddLiteral("b");
  wb.AddTriple(w, p, b1);
  wb.AddTriple(w, p, u);
  wb.AddTriple(w, p, lb);
  wb.AddTriple(b1, q, b2);
  wb.AddTriple(b1, r, u);
  wb.AddTriple(b2, q, la);
  wb.AddTriple(b2, r, b2);
  wb.AddTriple(b3, q, la);
  wb.AddTriple(u, q, la);
  wb.AddTriple(u, q, lb);
  wb.AddTriple(u, r, w);
  TripleGraph looped = std::move(wb.Build(true)).value();
  ExpectEquivalent(*aligner, g, looped);

  UpdateBatch unloop;
  unloop.nodes = loop.nodes;
  unloop.removed.push_back(Triple{0, 1, 0});
  unloop.sequence = 2;
  Result<StreamBatchResult> rm = aligner->Apply(unloop);
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();
  EXPECT_TRUE(rm->refined);
  EXPECT_EQ(aligner->CurrentPairs(), original);
  ExpectEquivalent(*aligner, g, g);
}

// Removing a blank node's last out-edge leaves it live and edge-free; it
// must still re-sign (its signature changed) and the partition must match
// the batch alignment of the shrunken graph.
TEST(StreamTest, LastEdgeRemovalKeepsNodeLiveAndEquivalent) {
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g = testing::Fig2Graph(dict);
  std::unique_ptr<StreamAligner> aligner = OpenOrDie(g, g);

  UpdateBatch batch;
  batch.nodes.push_back({TermKind::kBlank, "b3"});
  batch.nodes.push_back({TermKind::kUri, "ex:q"});
  batch.nodes.push_back({TermKind::kLiteral, "a"});
  batch.removed.push_back(Triple{0, 1, 2});  // b3's only triple
  batch.sequence = 1;
  Result<StreamBatchResult> r = aligner->Apply(batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->refined);
  EXPECT_EQ(r->removed_nodes, 0u);  // edge-free is not dead

  GraphBuilder wb(dict);
  NodeId w = wb.AddUri("ex:w");
  NodeId u = wb.AddUri("ex:u");
  NodeId p = wb.AddUri("ex:p");
  NodeId q = wb.AddUri("ex:q");
  NodeId rr = wb.AddUri("ex:r");
  NodeId b1 = wb.AddBlank("b1");
  NodeId b2 = wb.AddBlank("b2");
  wb.AddBlank("b3");  // still present, now isolated
  NodeId la = wb.AddLiteral("a");
  NodeId lb = wb.AddLiteral("b");
  wb.AddTriple(w, p, b1);
  wb.AddTriple(w, p, u);
  wb.AddTriple(w, p, lb);
  wb.AddTriple(b1, q, b2);
  wb.AddTriple(b1, rr, u);
  wb.AddTriple(b2, q, la);
  wb.AddTriple(u, q, la);
  wb.AddTriple(u, q, lb);
  wb.AddTriple(u, rr, w);
  TripleGraph shrunk = std::move(wb.Build(true)).value();
  ExpectEquivalent(*aligner, g, shrunk);
}

// A batch that changes nothing — adds already present, removes already
// absent, and the empty batch — must not refine and must emit no delta.
TEST(StreamTest, NoOpUpdateEmitsNoDelta) {
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g = testing::Fig2Graph(dict);
  std::unique_ptr<StreamAligner> aligner = OpenOrDie(g, g);
  const std::vector<LabeledPair> original = aligner->CurrentPairs();

  Result<UpdateBatch> empty = BuildUpdateBatch(g, g, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->added.empty());
  EXPECT_TRUE(empty->removed.empty());
  Result<StreamBatchResult> r0 = aligner->Apply(*empty);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_FALSE(r0->refined);
  EXPECT_TRUE(r0->added_pairs.empty());
  EXPECT_TRUE(r0->removed_pairs.empty());

  UpdateBatch noop;
  noop.nodes.push_back({TermKind::kBlank, "b2"});
  noop.nodes.push_back({TermKind::kUri, "ex:q"});
  noop.nodes.push_back({TermKind::kUri, "ex:r"});
  noop.nodes.push_back({TermKind::kLiteral, "a"});
  noop.added.push_back(Triple{0, 1, 3});    // (_:b2, ex:q, "a") — present
  noop.removed.push_back(Triple{0, 2, 3});  // (_:b2, ex:r, "a") — absent
  noop.sequence = 2;
  Result<StreamBatchResult> r = aligner->Apply(noop);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ignored_adds, 1u);
  EXPECT_EQ(r->applied_adds, 0u);
  EXPECT_EQ(r->ignored_removes, 1u);
  EXPECT_EQ(r->applied_removes, 0u);
  EXPECT_FALSE(r->refined);
  EXPECT_TRUE(r->added_pairs.empty());
  EXPECT_TRUE(r->removed_pairs.empty());
  EXPECT_EQ(aligner->CurrentPairs(), original);
  ExpectEquivalent(*aligner, g, g);
}

// --------------------------------------------- batch equivalence property

// The acceptance gate: over ≥20 random evolving chains, the stream session
// must stay bit-identical (after dense renumbering) to the batch aligner
// at EVERY intermediate version, and the cumulative delta stream must
// reproduce CurrentPairs exactly.
TEST(StreamTest, RandomEvolvingChainsMatchBatchAlignment) {
  constexpr int kChains = 24;
  constexpr size_t kVersions = 4;
  for (int seed = 0; seed < kChains; ++seed) {
    std::vector<TripleGraph> chain =
        testing::RandomEvolvingChain(static_cast<uint64_t>(seed), kVersions);
    ASSERT_EQ(chain.size(), kVersions);

    std::unique_ptr<StreamAligner> aligner = OpenOrDie(chain[0], chain[0]);
    std::set<LabeledPair> pairs;
    for (const LabeledPair& p : aligner->CurrentPairs()) pairs.insert(p);

    for (size_t v = 1; v < chain.size(); ++v) {
      StreamBatchResult r =
          ApplyStep(aligner.get(), chain[v - 1], chain[v], v);
      for (const LabeledPair& p : r.removed_pairs) {
        EXPECT_EQ(pairs.erase(p), 1u) << "seed " << seed << " v " << v;
      }
      for (const LabeledPair& p : r.added_pairs) {
        EXPECT_TRUE(pairs.insert(p).second) << "seed " << seed << " v " << v;
      }
      const std::vector<LabeledPair> current = aligner->CurrentPairs();
      EXPECT_TRUE(std::equal(pairs.begin(), pairs.end(), current.begin(),
                             current.end()))
          << "cumulative deltas diverged (seed " << seed << ", v " << v
          << ")";
      Result<StreamCheckResult> check =
          aligner->CheckBatchEquivalence(chain[0], chain[v]);
      EXPECT_TRUE(check.ok())
          << "seed " << seed << " v " << v << ": "
          << check.status().ToString();
    }
  }
}

TEST(StreamTest, TrivialMethodChainsMatchBatchAlignment) {
  StreamOptions options;
  options.method = AlignMethod::kTrivial;
  for (uint64_t seed = 100; seed < 106; ++seed) {
    std::vector<TripleGraph> chain = testing::RandomEvolvingChain(seed, 3);
    std::unique_ptr<StreamAligner> aligner =
        OpenOrDie(chain[0], chain[0], options);
    for (size_t v = 1; v < chain.size(); ++v) {
      ApplyStep(aligner.get(), chain[v - 1], chain[v], v);
      Result<StreamCheckResult> check =
          aligner->CheckBatchEquivalence(chain[0], chain[v]);
      EXPECT_TRUE(check.ok())
          << "seed " << seed << " v " << v << ": "
          << check.status().ToString();
    }
  }
}

// Opening a session reports the class count of its initial fixpoint, the
// same count the batch check finds before any push.
TEST(StreamTest, OpenReportsTheBatchClassCount) {
  std::vector<std::pair<TripleGraph, TripleGraph>> pairs;
  pairs.push_back(testing::Fig3Graphs());
  for (uint64_t seed = 60; seed < 63; ++seed) {
    pairs.push_back(testing::RandomEvolvingPair(seed));
  }
  for (AlignMethod method : {AlignMethod::kTrivial, AlignMethod::kDeblank}) {
    StreamOptions options;
    options.method = method;
    for (const auto& [source, target] : pairs) {
      ASSERT_GT(source.NodesOfKind(TermKind::kBlank).size(), 0u);
      std::unique_ptr<StreamAligner> a = OpenOrDie(source, target, options);
      Result<StreamCheckResult> check =
          a->CheckBatchEquivalence(source, target);
      ASSERT_TRUE(check.ok()) << check.status().ToString();
      EXPECT_GT(a->open_stats().final_classes, 0u);
      EXPECT_EQ(a->open_stats().final_classes, check->classes)
          << AlignMethodToString(method);
    }
  }
}

// Replaces the literal object of `count` (blank subject, literal object)
// triples of `g`, starting at the `first`-th such triple (one per subject),
// with a fresh literal tagged `tag` and the edit's index.
TripleGraph EditBlankLiterals(const TripleGraph& g, size_t first,
                              size_t count, const std::string& tag) {
  std::vector<NodeLabel> labels = g.labels();
  std::vector<Triple> triples(g.triples().begin(), g.triples().end());
  NodeId last_subject = kInvalidNode;
  size_t seen = 0;
  for (Triple& t : triples) {
    if (!g.IsBlank(t.s) || !g.IsLiteral(t.o) || t.s == last_subject) continue;
    last_subject = t.s;
    if (seen++ < first) continue;
    if (seen > first + count) break;
    const std::string lex = std::string(g.Lexical(t.o)) + " [" + tag + "." +
                            std::to_string(seen) + "]";
    labels.push_back({TermKind::kLiteral, g.dict_ptr()->Intern(lex)});
    t.o = static_cast<NodeId>(labels.size() - 1);
  }
  return std::move(TripleGraph::FromParts(g.dict_ptr(), std::move(labels),
                                          std::move(triples), true))
      .value();
}

// Thread count must not change anything the session reports — same pairs,
// same deltas, same class count at every step — on an EFO-like version
// whose live blanks, the reset region of every push below, span several
// signing chunks (internal::kSignGrain), so threads = 4 re-signs them on
// the pool. (Also the TSan target: the sanitizer job runs *Stream*.)
TEST(StreamTest, ThreadCountIsBitIdentical) {
  gen::EfoOptions options;
  options.initial_classes = 5000;
  options.versions = 1;
  options.seed = 3;
  const gen::EfoChain chain = gen::EfoChain::Generate(options);
  const TripleGraph& v0 = chain.Version(0);
  const size_t live_blanks = 2 * v0.CountOfKind(TermKind::kBlank);
  ASSERT_GT(live_blanks, 3 * internal::kSignGrain);

  StreamOptions serial;
  serial.threads = 1;
  StreamOptions parallel;
  parallel.threads = 4;
  std::unique_ptr<StreamAligner> a = OpenOrDie(v0, v0, serial);
  std::unique_ptr<StreamAligner> b = OpenOrDie(v0, v0, parallel);
  EXPECT_EQ(a->CurrentPairs(), b->CurrentPairs());
  EXPECT_EQ(a->NumColorsAllocated(), b->NumColorsAllocated());

  // Edit 20 blank literals, edit 20 more on top, then restore all 40.
  std::vector<TripleGraph> versions;
  versions.push_back(EditBlankLiterals(v0, 0, 20, "edit 1"));
  versions.push_back(EditBlankLiterals(versions[0], 20, 20, "edit 2"));
  const TripleGraph* prev = &v0;
  for (size_t v = 0; v <= versions.size(); ++v) {
    const TripleGraph& next = v < versions.size() ? versions[v] : v0;
    StreamBatchResult ra = ApplyStep(a.get(), *prev, next, v + 1);
    StreamBatchResult rb = ApplyStep(b.get(), *prev, next, v + 1);
    ASSERT_TRUE(ra.refined) << "push " << v;
    EXPECT_GE(ra.dirty_total, live_blanks) << "push " << v;
    EXPECT_EQ(ra.dirty_total, rb.dirty_total) << "push " << v;
    EXPECT_EQ(ra.iterations, rb.iterations) << "push " << v;
    EXPECT_EQ(ra.added_pairs, rb.added_pairs) << "push " << v;
    EXPECT_EQ(ra.removed_pairs, rb.removed_pairs) << "push " << v;
    EXPECT_EQ(a->CurrentPairs(), b->CurrentPairs()) << "push " << v;
    EXPECT_EQ(a->NumColorsAllocated(), b->NumColorsAllocated())
        << "push " << v;
    ExpectEquivalent(*a, v0, next);
    ExpectEquivalent(*b, v0, next);
    prev = &next;
  }
}

// The oracle for alignment deltas, independent of the stream aligner: the
// same-colour (source, target) pairs of the batch λ_Deblank partition of
// (source, target), by label, sorted.
std::vector<LabeledPair> BatchPairs(const TripleGraph& source,
                                    const TripleGraph& target) {
  const CombinedGraph cg = testing::Combine(source, target);
  const Partition p = DeblankPartition(cg);
  const TripleGraph& g = cg.graph();
  std::vector<std::vector<NodeId>> src_of(p.NumColors());
  std::vector<std::vector<NodeId>> tgt_of(p.NumColors());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    (cg.InSource(n) ? src_of : tgt_of)[p.ColorOf(n)].push_back(n);
  }
  std::vector<LabeledPair> pairs;
  for (size_t c = 0; c < src_of.size(); ++c) {
    for (NodeId s : src_of[c]) {
      for (NodeId t : tgt_of[c]) {
        pairs.push_back(LabeledPair{g.KindOf(s), g.KindOf(t),
                                    std::string(g.Lexical(s)),
                                    std::string(g.Lexical(t))});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<LabeledPair> Minus(const std::vector<LabeledPair>& a,
                               const std::vector<LabeledPair>& b) {
  std::vector<LabeledPair> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// Pushes `versions` in order onto a session opened on (source, source) and
// checks every push against the batch oracle: CurrentPairs() equals the
// batch pairs of (source, version), and the push's removed/added pairs are
// exactly the set differences of the batch pairs before and after it.
// `expected[0]` holds the batch pairs at open, `expected[v + 1]` those
// after `versions[v]`.
void ExpectDeltasMatchBatchPairs(
    const TripleGraph& source, const std::vector<const TripleGraph*>& versions,
    const std::vector<std::vector<LabeledPair>>& expected,
    const StreamOptions& options, const std::string& what) {
  std::unique_ptr<StreamAligner> aligner =
      OpenOrDie(source, source, options);
  ASSERT_EQ(aligner->CurrentPairs(), expected[0]) << what << " at open";
  const TripleGraph* prev = &source;
  for (size_t v = 0; v < versions.size(); ++v) {
    const TripleGraph& next = *versions[v];
    const StreamBatchResult r = ApplyStep(aligner.get(), *prev, next, v + 1);
    const std::vector<LabeledPair>& before = expected[v];
    const std::vector<LabeledPair>& after = expected[v + 1];
    EXPECT_EQ(aligner->CurrentPairs(), after) << what << " push " << v;
    EXPECT_EQ(r.removed_pairs, Minus(before, after)) << what << " push " << v;
    EXPECT_EQ(r.added_pairs, Minus(after, before)) << what << " push " << v;
    prev = &next;
  }
}

std::vector<std::vector<LabeledPair>> ExpectedPairs(
    const TripleGraph& source,
    const std::vector<const TripleGraph*>& versions) {
  std::vector<std::vector<LabeledPair>> expected;
  expected.push_back(BatchPairs(source, source));
  for (const TripleGraph* v : versions) {
    expected.push_back(BatchPairs(source, *v));
  }
  return expected;
}

// Every push's delta against the batch oracle. The random chains rename
// every blank at each step, so blanks are created and retired; the EFO
// session's live blanks span several signing chunks and run at threads 1
// and 4.
TEST(StreamTest, PushDeltasMatchBatchPairs) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    const std::vector<TripleGraph> chain =
        testing::RandomEvolvingChain(seed, 4);
    std::vector<const TripleGraph*> versions;
    for (size_t v = 1; v < chain.size(); ++v) versions.push_back(&chain[v]);
    ExpectDeltasMatchBatchPairs(chain[0], versions,
                                ExpectedPairs(chain[0], versions), {},
                                "seed " + std::to_string(seed));
  }

  gen::EfoOptions options;
  options.initial_classes = 5000;
  options.versions = 1;
  options.seed = 3;
  const gen::EfoChain efo = gen::EfoChain::Generate(options);
  const TripleGraph& v0 = efo.Version(0);
  ASSERT_GT(2 * v0.CountOfKind(TermKind::kBlank), 3 * internal::kSignGrain);
  const TripleGraph edit1 = EditBlankLiterals(v0, 0, 20, "edit 1");
  const TripleGraph edit2 = EditBlankLiterals(edit1, 20, 20, "edit 2");
  const std::vector<const TripleGraph*> versions = {&edit1, &edit2, &v0};
  const std::vector<std::vector<LabeledPair>> expected =
      ExpectedPairs(v0, versions);
  for (size_t threads : {1, 4}) {
    StreamOptions stream_options;
    stream_options.threads = threads;
    ExpectDeltasMatchBatchPairs(v0, versions, expected, stream_options,
                                "efo threads " + std::to_string(threads));
  }
}

// A long edit/restore session stays equivalent to the batch aligner, and
// its color space is compacted along the way instead of growing with every
// push.
TEST(StreamTest, LongSessionStaysEquivalent) {
  gen::EfoOptions options;
  options.initial_classes = 300;
  options.versions = 1;
  options.seed = 5;
  const gen::EfoChain efo = gen::EfoChain::Generate(options);
  const TripleGraph& v0 = efo.Version(0);
  std::unique_ptr<StreamAligner> aligner = OpenOrDie(v0, v0);
  constexpr size_t kPushes = 40;
  size_t drops = 0;
  size_t most_added = 0;  // the largest one-push allocation
  size_t colors = aligner->NumColorsAllocated();
  auto count_drop = [&] {
    const size_t now = aligner->NumColorsAllocated();
    drops += now < colors;
    if (now > colors) most_added = std::max(most_added, now - colors);
    colors = now;
  };
  for (size_t k = 0; k < kPushes; k += 2) {
    const TripleGraph edited =
        EditBlankLiterals(v0, 3 * k, 5, "edit " + std::to_string(k));
    ASSERT_TRUE(ApplyStep(aligner.get(), v0, edited, k + 1).refined);
    count_drop();
    ASSERT_TRUE(ApplyStep(aligner.get(), edited, v0, k + 2).refined);
    count_drop();
    if ((k + 2) % 8 == 0) ExpectEquivalent(*aligner, v0, v0);
  }
  EXPECT_GE(drops, 2u);
  // Dead colors never outnumber live ones by more than one push's worth.
  Result<StreamCheckResult> check = aligner->CheckBatchEquivalence(v0, v0);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_LE(aligner->NumColorsAllocated(), 2 * check->classes + most_added);
  EXPECT_EQ(aligner->NumCurrentPairs(), aligner->CurrentPairs().size());
}

}  // namespace
}  // namespace rdfalign::stream
