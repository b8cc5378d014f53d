#include "core/partition.h"

#include <algorithm>
#include <unordered_map>

#include "util/hash.h"

namespace rdfalign {

namespace {

// Flat remap tables are only worth allocating when the incoming color ids
// are not adversarially sparse. Every internal producer (refinement rounds,
// enrichment, blanking) emits ids below 2n, so the fallback is effectively
// test-only.
bool RemapFitsFlatTable(ColorId max_color, size_t n) {
  return static_cast<uint64_t>(max_color) < 2 * static_cast<uint64_t>(n) + 1024;
}

}  // namespace

Partition Partition::FromColors(std::vector<ColorId> colors) {
  Partition p;
  p.colors_ = std::move(colors);
  const size_t n = p.colors_.size();
  if (n == 0) {
    p.num_colors_ = 0;
    return p;
  }
  ColorId max_color = 0;
  for (ColorId c : p.colors_) max_color = std::max(max_color, c);
  if (RemapFitsFlatTable(max_color, n)) {
    // One flat pass over a first-occurrence remap table.
    std::vector<ColorId> remap(static_cast<size_t>(max_color) + 1,
                               kInvalidColor);
    ColorId next = 0;
    for (ColorId& c : p.colors_) {
      ColorId& slot = remap[c];
      if (slot == kInvalidColor) slot = next++;
      c = slot;
    }
    p.num_colors_ = next;
  } else {
    // Sparse ids (e.g. hand-crafted adversarial partitions): hash remap.
    std::unordered_map<ColorId, ColorId> renumber;
    renumber.reserve(n / 4 + 8);
    for (ColorId& c : p.colors_) {
      auto [it, inserted] =
          renumber.emplace(c, static_cast<ColorId>(renumber.size()));
      c = it->second;
    }
    p.num_colors_ = renumber.size();
  }
  return p;
}

bool Partition::Equivalent(const Partition& a, const Partition& b) {
  if (a.NumNodes() != b.NumNodes()) return false;
  if (a.NumColors() != b.NumColors()) return false;
  // Check that the color-to-color correspondence is a bijection. Both color
  // vectors are dense, so the two direction maps are flat arrays.
  std::vector<ColorId> a_to_b(a.NumColors(), kInvalidColor);
  std::vector<ColorId> b_to_a(b.NumColors(), kInvalidColor);
  for (size_t i = 0; i < a.NumNodes(); ++i) {
    const ColorId ca = a.colors_[i];
    const ColorId cb = b.colors_[i];
    if (a_to_b[ca] == kInvalidColor) a_to_b[ca] = cb;
    else if (a_to_b[ca] != cb) return false;
    if (b_to_a[cb] == kInvalidColor) b_to_a[cb] = ca;
    else if (b_to_a[cb] != ca) return false;
  }
  return true;
}

bool Partition::IsFinerOrEqual(const Partition& fine,
                               const Partition& coarse) {
  if (fine.NumNodes() != coarse.NumNodes()) return false;
  // Each fine class must map into exactly one coarse class.
  std::vector<ColorId> fine_to_coarse(fine.NumColors(), kInvalidColor);
  for (size_t i = 0; i < fine.NumNodes(); ++i) {
    ColorId& slot = fine_to_coarse[fine.colors_[i]];
    if (slot == kInvalidColor) slot = coarse.colors_[i];
    else if (slot != coarse.colors_[i]) return false;
  }
  return true;
}

PartitionClasses Partition::Classes() const {
  PartitionClasses out;
  out.offsets.assign(num_colors_ + 1, 0);
  for (ColorId c : colors_) ++out.offsets[c + 1];
  for (size_t c = 0; c < num_colors_; ++c) {
    out.offsets[c + 1] += out.offsets[c];
  }
  out.members.resize(colors_.size());
  std::vector<uint64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (NodeId i = 0; i < colors_.size(); ++i) {
    out.members[cursor[colors_[i]]++] = i;
  }
  return out;
}

namespace {

// The flat (kind, lex) -> color tables below are sized by the dictionary,
// which in shared-dictionary archive workloads holds the terms of *every*
// version — much larger than one pair's node set. Only pay the O(terms)
// table clear when the dictionary is commensurate with the graph.
bool LabelTableFitsFlat(const TripleGraph& g) {
  return g.dict().size() <= 4 * g.NumNodes() + 1024;
}

/// First-occurrence coloring by (kind, lex) label: `slot_of(i)` is the
/// color slot of node i's label, kInvalidColor until the label is first
/// seen. All blanks share one color, or each gets its own when
/// `blanks_singleton`.
template <typename SlotFn>
Partition ColorByLabel(const TripleGraph& g, bool blanks_singleton,
                       SlotFn slot_of) {
  std::vector<ColorId> colors(g.NumNodes());
  ColorId next = 0;
  ColorId blank_color = kInvalidColor;
  for (NodeId i = 0; i < g.NumNodes(); ++i) {
    if (g.IsBlank(i)) {
      if (blanks_singleton) {
        colors[i] = next++;
      } else {
        if (blank_color == kInvalidColor) blank_color = next++;
        colors[i] = blank_color;
      }
      continue;
    }
    ColorId& slot = slot_of(i);
    if (slot == kInvalidColor) slot = next++;
    colors[i] = slot;
  }
  return Partition::FromColors(std::move(colors));
}

Partition LabelColors(const TripleGraph& g, bool blanks_singleton) {
  if (LabelTableFitsFlat(g)) {
    // Lexical ids are dense, so the (kind, lex) -> color map is a flat
    // table with one stripe per non-blank term kind.
    const size_t terms = g.dict().size();
    std::vector<ColorId> by_label(2 * terms, kInvalidColor);
    return ColorByLabel(g, blanks_singleton, [&](NodeId i) -> ColorId& {
      return by_label[static_cast<size_t>(g.KindOf(i)) * terms +
                      g.LexicalId(i)];
    });
  }
  std::unordered_map<uint64_t, ColorId> by_label;
  by_label.reserve(g.NumNodes());
  return ColorByLabel(g, blanks_singleton, [&](NodeId i) -> ColorId& {
    const uint64_t key =
        (static_cast<uint64_t>(g.KindOf(i)) << 33) | g.LexicalId(i);
    return by_label.try_emplace(key, kInvalidColor).first->second;
  });
}

}  // namespace

Partition LabelPartition(const TripleGraph& g) {
  return LabelColors(g, /*blanks_singleton=*/false);
}

Partition TrivialPartition(const TripleGraph& g) {
  return LabelColors(g, /*blanks_singleton=*/true);
}

}  // namespace rdfalign
