// Turtle parser (pragmatic subset).
//
// Supported: `@prefix` / `PREFIX`, `@base` / `BASE`, prefixed names,
// the `a` keyword, predicate-object lists (`;`), object lists (`,`),
// labeled blank nodes (`_:x`), anonymous blank nodes (`[ ... ]`), string
// literals with escapes / language tags / datatypes, and numeric & boolean
// abbreviations (kept as their lexical form in the literal label, datatype
// folded as in the N-Triples parser).
//
// Not supported (rejected with ParseError/NotSupported): collections
// `( ... )`, triple-quoted long strings, and relative IRI resolution beyond
// simple base concatenation.

#ifndef RDFALIGN_PARSER_TURTLE_PARSER_H_
#define RDFALIGN_PARSER_TURTLE_PARSER_H_

#include <memory>
#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/result.h"

namespace rdfalign {

/// Parses Turtle text into an RDF graph; see header comment for the
/// supported subset. Shares `dict` across versions like the N-Triples
/// parser. `threads` parallelizes the final edge sort, bit-identical to
/// the serial result; parsing and the CSR index build stay serial.
Result<TripleGraph> ParseTurtleString(std::string_view text,
                                      std::shared_ptr<Dictionary> dict,
                                      size_t threads = 1);

/// Reads and parses a file.
Result<TripleGraph> ParseTurtleFile(const std::string& path,
                                    std::shared_ptr<Dictionary> dict,
                                    size_t threads = 1);

}  // namespace rdfalign

#endif  // RDFALIGN_PARSER_TURTLE_PARSER_H_
