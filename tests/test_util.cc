#include "test_util.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "gen/textgen.h"
#include "store/format.h"
#include "store/update_fragment.h"

namespace rdfalign::testing {

TripleGraph Fig2Graph(std::shared_ptr<Dictionary> dict) {
  // Reconstructed from Figs. 2-5: 10 edges (3×p, 5×q, 2×r); b2 and b3 are
  // bisimilar (contents (q,"a")); b1 reaches u; u and w form a cycle.
  GraphBuilder b(std::move(dict));
  NodeId w = b.AddUri("ex:w");
  NodeId u = b.AddUri("ex:u");
  NodeId p = b.AddUri("ex:p");
  NodeId q = b.AddUri("ex:q");
  NodeId r = b.AddUri("ex:r");
  NodeId b1 = b.AddBlank("b1");
  NodeId b2 = b.AddBlank("b2");
  NodeId b3 = b.AddBlank("b3");
  NodeId la = b.AddLiteral("a");
  NodeId lb = b.AddLiteral("b");
  b.AddTriple(w, p, b1);
  b.AddTriple(w, p, u);
  b.AddTriple(w, p, lb);
  b.AddTriple(b1, q, b2);
  b.AddTriple(b1, r, u);
  b.AddTriple(b2, q, la);
  b.AddTriple(b3, q, la);
  b.AddTriple(u, q, la);
  b.AddTriple(u, q, lb);
  b.AddTriple(u, r, w);
  return std::move(b.Build(true)).value();
}

std::pair<TripleGraph, TripleGraph> Fig3Graphs() {
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g1 = Fig2Graph(dict);
  // G2: b2/b3 merged into b4, u renamed to v, b1 reappears as b5.
  GraphBuilder b(dict);
  NodeId w = b.AddUri("ex:w");
  NodeId v = b.AddUri("ex:v");
  NodeId p = b.AddUri("ex:p");
  NodeId q = b.AddUri("ex:q");
  NodeId r = b.AddUri("ex:r");
  NodeId b5 = b.AddBlank("b5");
  NodeId b4 = b.AddBlank("b4");
  NodeId la = b.AddLiteral("a");
  NodeId lb = b.AddLiteral("b");
  b.AddTriple(w, p, b5);
  b.AddTriple(w, p, v);
  b.AddTriple(w, p, lb);
  b.AddTriple(b5, q, b4);
  b.AddTriple(b5, r, v);
  b.AddTriple(b4, q, la);
  b.AddTriple(v, q, la);
  b.AddTriple(v, q, lb);
  b.AddTriple(v, r, w);
  return {std::move(g1), std::move(b.Build(true)).value()};
}

std::pair<TripleGraph, TripleGraph> Fig1Graphs() {
  auto dict = std::make_shared<Dictionary>();
  GraphBuilder v1(dict);
  {
    NodeId ss = v1.AddUri("ex:ss");
    NodeId eduni = v1.AddUri("ex:ed-uni");
    NodeId address = v1.AddUri("ex:address");
    NodeId employer = v1.AddUri("ex:employer");
    NodeId name = v1.AddUri("ex:name");
    NodeId zip = v1.AddUri("ex:zip");
    NodeId city = v1.AddUri("ex:city");
    NodeId first = v1.AddUri("ex:first");
    NodeId middle = v1.AddUri("ex:middle");
    NodeId last = v1.AddUri("ex:last");
    NodeId b1 = v1.AddBlank("b1");
    NodeId b2 = v1.AddBlank("b2");
    v1.AddTriple(ss, address, b1);
    v1.AddTriple(ss, employer, eduni);
    v1.AddTriple(ss, name, b2);
    v1.AddTriple(b1, zip, v1.AddLiteral("EH8"));
    v1.AddTriple(b1, city, v1.AddLiteral("Edinburgh"));
    v1.AddTriple(eduni, name, v1.AddLiteral("University of Edinburgh"));
    v1.AddTriple(eduni, city, v1.AddLiteral("Edinburgh"));
    v1.AddTriple(b2, first, v1.AddLiteral("Slawek"));
    v1.AddTriple(b2, middle, v1.AddLiteral("Pawel"));
    v1.AddTriple(b2, last, v1.AddLiteral("Staworko"));
  }
  GraphBuilder v2(dict);
  {
    NodeId ss = v2.AddUri("ex:ss");
    NodeId uoe = v2.AddUri("ex:uoe");
    NodeId address = v2.AddUri("ex:address");
    NodeId employer = v2.AddUri("ex:employer");
    NodeId name = v2.AddUri("ex:name");
    NodeId zip = v2.AddUri("ex:zip");
    NodeId city = v2.AddUri("ex:city");
    NodeId first = v2.AddUri("ex:first");
    NodeId last = v2.AddUri("ex:last");
    NodeId b3 = v2.AddBlank("b3");
    NodeId b4 = v2.AddBlank("b4");
    v2.AddTriple(ss, address, b3);
    v2.AddTriple(ss, employer, uoe);
    v2.AddTriple(ss, name, b4);
    v2.AddTriple(b3, zip, v2.AddLiteral("EH8"));
    v2.AddTriple(b3, city, v2.AddLiteral("Edinburgh"));
    v2.AddTriple(uoe, name, v2.AddLiteral("University of Edinburgh"));
    v2.AddTriple(uoe, city, v2.AddLiteral("Edinburgh"));
    v2.AddTriple(b4, first, v2.AddLiteral("Slawomir"));
    v2.AddTriple(b4, last, v2.AddLiteral("Staworko"));
  }
  return {std::move(v1.Build(true)).value(),
          std::move(v2.Build(true)).value()};
}

std::pair<TripleGraph, TripleGraph> Fig7Graphs() {
  auto dict = std::make_shared<Dictionary>();
  GraphBuilder g1(dict);
  {
    NodeId w = g1.AddUri("ex:w");
    NodeId u = g1.AddUri("ex:u");
    NodeId v = g1.AddUri("ex:v");
    NodeId p = g1.AddUri("ex:p");
    NodeId q = g1.AddUri("ex:q");
    NodeId r = g1.AddUri("ex:r");
    g1.AddTriple(w, r, u);
    g1.AddTriple(w, q, v);
    g1.AddTriple(u, p, g1.AddLiteral("a"));
    g1.AddTriple(u, p, g1.AddLiteral("c"));
    g1.AddTriple(u, p, g1.AddLiteral("b"));
    g1.AddTriple(v, p, g1.AddLiteral("abc"));
    g1.AddTriple(v, q, g1.AddLiteral("c"));
  }
  GraphBuilder g2(dict);
  {
    NodeId w = g2.AddUri("ex:w2");
    NodeId u = g2.AddUri("ex:u2");
    NodeId v = g2.AddUri("ex:v2");
    NodeId p = g2.AddUri("ex:p");
    NodeId q = g2.AddUri("ex:q");
    NodeId r = g2.AddUri("ex:r");
    g2.AddTriple(w, r, u);
    g2.AddTriple(w, q, v);
    g2.AddTriple(u, p, g2.AddLiteral("a"));
    g2.AddTriple(u, p, g2.AddLiteral("c"));
    g2.AddTriple(v, p, g2.AddLiteral("ac"));
    g2.AddTriple(v, q, g2.AddLiteral("c"));
  }
  return {std::move(g1.Build(true)).value(),
          std::move(g2.Build(true)).value()};
}

TripleGraph RandomGraph(const RandomGraphOptions& options,
                        std::shared_ptr<Dictionary> dict) {
  Rng rng(options.seed);
  GraphBuilder b(std::move(dict));
  std::vector<NodeId> uris;
  std::vector<NodeId> literals;
  std::vector<NodeId> blanks;
  for (size_t i = 0; i < options.uris; ++i) {
    uris.push_back(b.AddUri("urn:n" + std::to_string(options.seed) + "-" +
                            std::to_string(i)));
  }
  for (size_t i = 0; i < options.literals; ++i) {
    literals.push_back(b.AddLiteral(gen::RandomSentence(rng, 1, 4)));
  }
  for (size_t i = 0; i < options.blanks; ++i) {
    blanks.push_back(b.AddBlank("rb" + std::to_string(i)));
  }
  const size_t num_predicates =
      std::min(options.predicates, uris.size() ? uris.size() : 1);
  auto subject = [&]() -> NodeId {
    uint64_t k = rng.Uniform(uris.size() + blanks.size());
    return k < uris.size() ? uris[k] : blanks[k - uris.size()];
  };
  auto object = [&]() -> NodeId {
    uint64_t k = rng.Uniform(uris.size() + blanks.size() + literals.size());
    if (k < uris.size()) return uris[k];
    k -= uris.size();
    if (k < blanks.size()) return blanks[k];
    return literals[k - blanks.size()];
  };
  for (size_t i = 0; i < options.edges; ++i) {
    b.AddTriple(subject(), uris[rng.Uniform(num_predicates)], object());
  }
  return std::move(b.Build(true)).value();
}

namespace {

/// One evolution step shared by RandomEvolvingPair and
/// RandomEvolvingChain: random triple deletions, URI renames, literal
/// typos, fresh blank names, and a few insertions tagged with
/// `insert_tag` so labels stay unique across chain steps.
TripleGraph EvolveVersion(const TripleGraph& g1,
                          const std::shared_ptr<Dictionary>& dict, Rng& rng,
                          uint64_t insert_tag, size_t edges_hint) {
  // Label maps: some URIs renamed, some literals edited; blanks always get
  // fresh local names.
  std::unordered_map<LexId, std::string> label_map;
  auto mapped = [&](const TripleGraph& g, NodeId n,
                    GraphBuilder& b) -> NodeId {
    switch (g.KindOf(n)) {
      case TermKind::kBlank:
        return b.AddBlank("v2-" + std::string(g.Lexical(n)));
      case TermKind::kUri: {
        auto it = label_map.find(g.LexicalId(n));
        if (it == label_map.end()) {
          std::string next =
              rng.Bernoulli(0.15)
                  ? std::string(g.Lexical(n)) + "-renamed"
                  : std::string(g.Lexical(n));
          it = label_map.emplace(g.LexicalId(n), std::move(next)).first;
        }
        return b.AddUri(it->second);
      }
      case TermKind::kLiteral: {
        auto it = label_map.find(g.LexicalId(n));
        if (it == label_map.end()) {
          std::string next = std::string(g.Lexical(n));
          if (rng.Bernoulli(0.2)) next = gen::ApplyTypo(next, rng);
          it = label_map.emplace(g.LexicalId(n), std::move(next)).first;
        }
        return b.AddLiteral(it->second);
      }
    }
    return kInvalidNode;
  };

  GraphBuilder b(dict);
  for (const Triple& t : g1.triples()) {
    if (rng.Bernoulli(0.06)) continue;  // deletion
    NodeId s = mapped(g1, t.s, b);
    NodeId p = mapped(g1, t.p, b);
    NodeId o = mapped(g1, t.o, b);
    b.AddTriple(s, p, o);
  }
  // A few insertions.
  const size_t inserts = 1 + edges_hint / 20;
  for (size_t i = 0; i < inserts; ++i) {
    NodeId s = b.AddUri("urn:new" + std::to_string(insert_tag) + "-" +
                        std::to_string(i));
    NodeId p = b.AddUri("urn:np" + std::to_string(i % 3));
    NodeId o = b.AddLiteral(gen::RandomSentence(rng, 1, 3));
    b.AddTriple(s, p, o);
  }
  return std::move(b.Build(true)).value();
}

}  // namespace

std::pair<TripleGraph, TripleGraph> RandomEvolvingPair(
    uint64_t seed, const RandomGraphOptions& base_options) {
  RandomGraphOptions options = base_options;
  options.seed = seed;
  auto dict = std::make_shared<Dictionary>();
  TripleGraph g1 = RandomGraph(options, dict);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  TripleGraph g2 = EvolveVersion(g1, dict, rng, seed, options.edges);
  return {std::move(g1), std::move(g2)};
}

std::vector<TripleGraph> RandomEvolvingChain(
    uint64_t seed, size_t versions, const RandomGraphOptions& base_options) {
  RandomGraphOptions options = base_options;
  options.seed = seed;
  auto dict = std::make_shared<Dictionary>();
  std::vector<TripleGraph> chain;
  chain.reserve(versions);
  if (versions == 0) return chain;
  chain.push_back(RandomGraph(options, dict));
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  for (size_t v = 1; v < versions; ++v) {
    chain.push_back(EvolveVersion(chain.back(), dict, rng,
                                  seed * 1000 + v, options.edges));
  }
  return chain;
}

CombinedGraph Combine(const TripleGraph& g1, const TripleGraph& g2) {
  auto result = CombinedGraph::Build(g1, g2);
  if (!result.ok()) {
    std::fprintf(stderr, "Combine failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

namespace {

/// Header size of the container format named by the image's magic.
size_t HeaderSize(const char* image) {
  const auto is = [image](const std::array<char, 8>& magic) {
    return std::memcmp(image, magic.data(), magic.size()) == 0;
  };
  if (is(store::kMagic)) return sizeof(store::SnapshotHeader);
  if (is(store::kDeltaMagic)) return sizeof(store::DeltaHeader);
  if (is(store::kUpdateMagic)) return sizeof(store::UpdateHeader);
  if (is(store::kArchiveMagic)) return sizeof(store::ArchiveHeader);
  std::fprintf(stderr, "not a store container image\n");
  std::abort();
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

size_t SectionEntryOffset(const char* image, size_t section) {
  return HeaderSize(image) + section * sizeof(store::SectionEntry);
}

uint64_t SectionPayloadOffset(const char* image, size_t section) {
  return LoadU64(image + SectionEntryOffset(image, section) +
                 offsetof(store::SectionEntry, offset));
}

void ResealContainer(char* image, size_t size) {
  const size_t header = HeaderSize(image);
  // Every header ends with {num_sections, file_size, header_checksum}.
  const uint64_t count = LoadU64(image + header - 24);
  for (uint64_t s = 0; s < count; ++s) {
    const size_t entry = SectionEntryOffset(image, s);
    const uint64_t offset =
        LoadU64(image + entry + offsetof(store::SectionEntry, offset));
    const uint64_t len =
        LoadU64(image + entry + offsetof(store::SectionEntry, size));
    if (offset > size || len > size - offset) continue;  // crafted geometry
    const uint64_t sum = store::Checksum64(image + offset, len);
    std::memcpy(image + entry + offsetof(store::SectionEntry, checksum), &sum,
                sizeof(sum));
  }
  std::memset(image + header - 8, 0, 8);
  const uint64_t hc = store::Checksum64(
      image, header + count * sizeof(store::SectionEntry));
  std::memcpy(image + header - 8, &hc, sizeof(hc));
}

}  // namespace rdfalign::testing
