#include "rdf/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"

namespace rdfalign {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  LexId a = d.Intern("http://x");
  LexId b = d.Intern("http://x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.Get(a), "http://x");
}

TEST(DictionaryTest, FindWithoutIntern) {
  Dictionary d;
  EXPECT_EQ(d.Find("missing"), kInvalidLex);
  LexId a = d.Intern("present");
  EXPECT_EQ(d.Find("present"), a);
}

TEST(DictionaryTest, ManyStringsStayStable) {
  Dictionary d;
  std::vector<LexId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(d.Intern("s" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.Get(ids[i]), "s" + std::to_string(i));
  }
}

// Terms whose hashes agree in their low 16 bits: they share a home slot
// at every index capacity up to 65536, so each probes past the others.
std::vector<std::string> SlotCollidingTerms(size_t count) {
  std::vector<std::string> out;
  const uint64_t home = Dictionary::Hash("") & 0xffff;
  for (uint64_t i = 0; out.size() < count; ++i) {
    std::string s = "collide-" + std::to_string(i);
    if ((Dictionary::Hash(s) & 0xffff) == home) out.push_back(std::move(s));
  }
  return out;
}

// A seeded random mix of Intern, InternPinned (with and without a hash),
// Find and Reserve against a std::unordered_map reference model, over a
// term pool that holds the empty string and a group of slot-colliding
// terms, large enough to cross many index growths.
TEST(DictionaryTest, MatchesReferenceModelAcrossRehashes) {
  std::mt19937_64 rng(20261017);
  // The pool backs the pinned views, so it is built once and never
  // touched again, and it outlives the dictionary.
  std::vector<std::string> pool = SlotCollidingTerms(8);
  pool.push_back("");
  const size_t num_special = pool.size();  // drawn a quarter of the time
  for (int i = 0; i < 4000; ++i) {
    std::string s = (rng() % 2 == 0) ? "http://example.org/" : "";
    const size_t len = rng() % 24;
    for (size_t k = 0; k < len; ++k) {
      s.push_back(static_cast<char>('a' + rng() % 6));
    }
    pool.push_back(std::move(s));
  }

  Dictionary dict;
  std::unordered_map<std::string_view, LexId> model;
  std::vector<std::string_view> first_view;  // reference id -> view at intern
  size_t reserves = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::string& term =
        pool[rng() % (rng() % 4 == 0 ? num_special : pool.size())];
    LexId got = kInvalidLex;
    switch (rng() % 5) {
      case 0:
        got = dict.Intern(term);
        break;
      case 1:
        got = dict.InternPinned(term);
        break;
      case 2:
        got = dict.InternPinned(term, Dictionary::Hash(term));
        break;
      case 3: {
        auto it = model.find(term);
        ASSERT_EQ(dict.Find(term), it == model.end() ? kInvalidLex : it->second)
            << "step " << step;
        continue;
      }
      default:
        if (rng() % 64 == 0) {
          dict.Reserve(dict.size() + rng() % 512);
          ++reserves;
        }
        continue;
    }
    auto [it, inserted] =
        model.emplace(term, static_cast<LexId>(first_view.size()));
    if (inserted) first_view.push_back(dict.Get(got));
    ASSERT_EQ(got, it->second) << "step " << step << " term '" << term << "'";
  }

  // Ids are dense and first-come; bytes and views survive every growth;
  // each cached hash is the hash of the stored bytes.
  ASSERT_EQ(dict.size(), first_view.size());
  ASSERT_GT(dict.size(), 2048u);  // crossed the 16 .. 4096-slot growths
  EXPECT_GT(reserves, 0u);
  for (const auto& [term, id] : model) {
    EXPECT_EQ(dict.Get(id), term);
    EXPECT_EQ(dict.Get(id).data(), first_view[id].data()) << "id " << id;
    EXPECT_EQ(dict.HashOf(id), Dictionary::Hash(dict.Get(id)));
    EXPECT_EQ(dict.Find(term), id);
  }
  EXPECT_NE(model.find(""), model.end());
  for (const std::string& term : SlotCollidingTerms(8)) {
    EXPECT_NE(dict.Find(term), kInvalidLex) << term;
  }
}

// A full 64-bit hash match never stands in for byte equality. Real term
// hashes do not collide in any practical pool, so this forges one by
// handing a second term the first term's hash.
TEST(DictionaryTest, EqualHashesStillCompareBytes) {
  const std::string a = "http://example.org/a";
  const std::string b = "http://example.org/b";
  const uint64_t h = Dictionary::Hash(a);
  Dictionary dict;
  const LexId ia = dict.InternPinned(a, h);
  const LexId ib = dict.InternPinned(b, h);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(dict.InternPinned(a, h), ia);
  EXPECT_EQ(dict.InternPinned(b, h), ib);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Get(ib), b);
}

TEST(GraphBuilderTest, DeduplicatesUrisAndLiterals) {
  GraphBuilder b;
  NodeId u1 = b.AddUri("ex:a");
  NodeId u2 = b.AddUri("ex:a");
  EXPECT_EQ(u1, u2);
  NodeId l1 = b.AddLiteral("x");
  NodeId l2 = b.AddLiteral("x");
  EXPECT_EQ(l1, l2);
  // A URI and a literal with the same lexical form are distinct nodes.
  NodeId u3 = b.AddUri("x");
  EXPECT_NE(u3, l1);
}

TEST(GraphBuilderTest, NamedBlanksDedupAnonymousDoNot) {
  GraphBuilder b;
  EXPECT_EQ(b.AddBlank("b1"), b.AddBlank("b1"));
  EXPECT_NE(b.AddBlank(), b.AddBlank());
}

TEST(GraphBuilderTest, BuildsValidGraph) {
  GraphBuilder b;
  b.AddLiteralTriple("ex:s", "ex:p", "value");
  b.AddUriTriple("ex:s", "ex:q", "ex:o");
  auto g = b.Build(true);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumNodes(), 5u);  // s, p, q, o, "value"
  EXPECT_EQ(g->NumEdges(), 2u);
}

TEST(GraphBuilderTest, DuplicateTriplesCollapse) {
  GraphBuilder b;
  b.AddUriTriple("ex:s", "ex:p", "ex:o");
  b.AddUriTriple("ex:s", "ex:p", "ex:o");
  auto g = b.Build(true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
}

TEST(GraphValidationTest, RejectsLiteralSubject) {
  GraphBuilder b;
  NodeId lit = b.AddLiteral("x");
  NodeId p = b.AddUri("ex:p");
  NodeId o = b.AddUri("ex:o");
  b.AddTriple(lit, p, o);
  auto g = b.Build(true);
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphValidationTest, RejectsLiteralAndBlankPredicates) {
  {
    GraphBuilder b;
    NodeId s = b.AddUri("ex:s");
    NodeId lit = b.AddLiteral("p");
    b.AddTriple(s, lit, s);
    EXPECT_FALSE(b.Build(true).ok());
  }
  {
    GraphBuilder b;
    NodeId s = b.AddUri("ex:s");
    NodeId blank = b.AddBlank("b");
    b.AddTriple(s, blank, s);
    EXPECT_FALSE(b.Build(true).ok());
  }
}

TEST(GraphValidationTest, BlankSubjectAndObjectAreFine) {
  GraphBuilder b;
  NodeId s = b.AddBlank("b1");
  NodeId p = b.AddUri("ex:p");
  NodeId o = b.AddBlank("b2");
  b.AddTriple(s, p, o);
  EXPECT_TRUE(b.Build(true).ok());
}

TEST(TripleGraphTest, OutNeighborhoodsAreSortedSlices) {
  GraphBuilder b;
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId q = b.AddUri("ex:q");
  NodeId o1 = b.AddLiteral("1");
  NodeId o2 = b.AddLiteral("2");
  b.AddTriple(s, q, o2);
  b.AddTriple(s, p, o1);
  b.AddTriple(s, p, o2);
  auto g = std::move(b.Build(true)).value();
  auto out = g.Out(s);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0] < out[1] && out[1] < out[2]);
  EXPECT_EQ(g.OutDegree(s), 3u);
  EXPECT_EQ(g.OutDegree(o1), 0u);
}

TEST(TripleGraphTest, FindByLabel) {
  GraphBuilder b;
  b.AddLiteralTriple("ex:s", "ex:p", "hello");
  NodeId blank = b.AddBlank("bn");
  NodeId p = b.AddUri("ex:p");
  NodeId lit = b.AddLiteral("hello");
  b.AddTriple(blank, p, lit);
  auto g = std::move(b.Build(true)).value();
  EXPECT_NE(g.FindUri("ex:s"), kInvalidNode);
  EXPECT_EQ(g.FindUri("ex:zzz"), kInvalidNode);
  EXPECT_NE(g.FindLiteral("hello"), kInvalidNode);
  EXPECT_NE(g.FindBlank("bn"), kInvalidNode);
  EXPECT_EQ(g.FindBlank("zz"), kInvalidNode);
}

TEST(TripleGraphTest, NodesOfKindAndCounts) {
  GraphBuilder b;
  b.AddLiteralTriple("ex:s", "ex:p", "v");
  NodeId blank = b.AddBlank();
  NodeId p = b.AddUri("ex:p");
  b.AddTriple(blank, p, b.AddLiteral("w"));
  auto g = std::move(b.Build(true)).value();
  EXPECT_EQ(g.CountOfKind(TermKind::kUri), 2u);
  EXPECT_EQ(g.CountOfKind(TermKind::kLiteral), 2u);
  EXPECT_EQ(g.CountOfKind(TermKind::kBlank), 1u);
  EXPECT_EQ(g.NodesOfKind(TermKind::kBlank).size(), 1u);
}

TEST(TripleGraphInIndexTest, EmptyNeighborhoodAndBasicEdges) {
  GraphBuilder b;
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId o = b.AddUri("ex:o");
  NodeId isolated = b.AddUri("ex:island");
  b.AddTriple(s, p, o);
  auto g = std::move(b.Build(true)).value();
  // A subject-only node and an isolated node have empty in-neighborhoods.
  EXPECT_EQ(g.InDegree(s), 0u);
  EXPECT_TRUE(g.In(s).empty());
  EXPECT_EQ(g.InDegree(isolated), 0u);
  EXPECT_TRUE(g.In(isolated).empty());
  // Predicate and object both see the subject.
  ASSERT_EQ(g.InDegree(p), 1u);
  EXPECT_EQ(g.In(p)[0], s);
  ASSERT_EQ(g.InDegree(o), 1u);
  EXPECT_EQ(g.In(o)[0], s);
}

TEST(TripleGraphInIndexTest, DeduplicatesAcrossRolesAndPredicates) {
  GraphBuilder b;
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId q = b.AddUri("ex:q");
  NodeId o = b.AddUri("ex:o");
  // s reaches o through two predicates: one in-index entry.
  b.AddTriple(s, p, o);
  b.AddTriple(s, q, o);
  // s also uses p both as predicate (above) and as object.
  b.AddTriple(s, q, p);
  auto g = std::move(b.Build(true)).value();
  ASSERT_EQ(g.InDegree(o), 1u);
  EXPECT_EQ(g.In(o)[0], s);
  ASSERT_EQ(g.InDegree(p), 1u);
  EXPECT_EQ(g.In(p)[0], s);
}

TEST(TripleGraphInIndexTest, HighFanoutNodeListsAllSubjectsSorted) {
  // A hub referenced by many subjects through one predicate: the in-index
  // must list every subject exactly once, ascending.
  GraphBuilder b;
  NodeId hub = b.AddUri("ex:hub");
  NodeId p = b.AddUri("ex:p");
  constexpr int kFanout = 500;
  std::vector<NodeId> subjects;
  for (int i = 0; i < kFanout; ++i) {
    NodeId s = b.AddUri("ex:s" + std::to_string(i));
    b.AddTriple(s, p, hub);
    b.AddTriple(s, p, s);  // self-loop: s is its own in-neighbor
    subjects.push_back(s);
  }
  auto g = std::move(b.Build(true)).value();
  ASSERT_EQ(g.InDegree(hub), static_cast<size_t>(kFanout));
  auto in = g.In(hub);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
  std::sort(subjects.begin(), subjects.end());
  EXPECT_TRUE(std::equal(in.begin(), in.end(), subjects.begin()));
  // The predicate sees all subjects too (fanout distinct subjects).
  EXPECT_EQ(g.InDegree(p), static_cast<size_t>(kFanout));
  // Self-loop: each subject occurs in its own in-neighborhood exactly once.
  for (NodeId s : subjects) {
    ASSERT_EQ(g.InDegree(s), 1u);
    EXPECT_EQ(g.In(s)[0], s);
  }
}

TEST(TripleGraphInIndexTest, ConsistentWithTriples) {
  // Cross-check In() against a reference recomputation from the triples.
  GraphBuilder b;
  for (int i = 0; i < 40; ++i) {
    b.AddUriTriple("ex:s" + std::to_string(i % 7),
                   "ex:p" + std::to_string(i % 3),
                   "ex:o" + std::to_string(i % 11));
  }
  auto g = std::move(b.Build(true)).value();
  std::vector<std::set<NodeId>> expected(g.NumNodes());
  for (const Triple& t : g.triples()) {
    expected[t.p].insert(t.s);
    expected[t.o].insert(t.s);
  }
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    auto in = g.In(n);
    ASSERT_EQ(g.InDegree(n), expected[n].size()) << "node " << n;
    EXPECT_TRUE(std::equal(in.begin(), in.end(), expected[n].begin()))
        << "node " << n;
  }
}

TEST(TripleGraphTest, FromPartsRejectsOutOfRangeIds) {
  auto dict = std::make_shared<Dictionary>();
  std::vector<NodeLabel> labels{{TermKind::kUri, dict->Intern("ex:a")}};
  std::vector<Triple> triples{{0, 0, 5}};
  auto g = TripleGraph::FromParts(dict, labels, triples, false);
  EXPECT_FALSE(g.ok());
}

}  // namespace
}  // namespace rdfalign
