// N-Triples parser (W3C N-Triples, one triple per line).
//
// This replaces the external RDF parsing library the paper's pipeline relied
// on (Serd); see DESIGN.md S3. Supported: IRIREF, blank node labels,
// literals with language tags and datatypes, \-escapes (including \uXXXX /
// \UXXXXXXXX), comments, blank lines.
//
// Datatype/language information is folded into the literal label string
// (e.g. `"5"^^<.../integer>` becomes the label `5^^<.../integer>`), because
// the paper's data model (§2.1) has plain string literal labels. Folding
// keeps distinct typed literals distinct under label equality, which is all
// the alignment algorithms require.

#ifndef RDFALIGN_PARSER_NTRIPLES_PARSER_H_
#define RDFALIGN_PARSER_NTRIPLES_PARSER_H_

#include <istream>
#include <memory>
#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/result.h"

namespace rdfalign {

/// Counters filled during parsing (for diagnostics and tests).
struct NTriplesParseStats {
  size_t lines = 0;
  size_t triples = 0;
  size_t comments = 0;
};

/// Parses N-Triples text into an RDF graph. A shared `dict` lets two files
/// destined for alignment live in one label space; pass nullptr for a fresh
/// dictionary. On error, the Status message includes the 1-based line.
/// `threads` > 1 parallelizes the final edge sort (bit-identical to the
/// serial result); parsing and the CSR index build stay serial.
Result<TripleGraph> ParseNTriplesString(std::string_view text,
                                        std::shared_ptr<Dictionary> dict,
                                        NTriplesParseStats* stats = nullptr,
                                        size_t threads = 1);

/// Streaming entry point: parses N-Triples line by line from `in` without
/// materializing the document — `rdfalign build` ingests multi-million-
/// triple files through this with memory proportional to the graph, not to
/// the text. Reads until EOF; a stream error mid-file is an IOError.
Result<TripleGraph> ParseNTriplesStream(std::istream& in,
                                        std::shared_ptr<Dictionary> dict,
                                        NTriplesParseStats* stats = nullptr,
                                        size_t threads = 1);

/// Reads and parses a file (streaming; the text is never fully resident).
Result<TripleGraph> ParseNTriplesFile(const std::string& path,
                                      std::shared_ptr<Dictionary> dict,
                                      NTriplesParseStats* stats = nullptr,
                                      size_t threads = 1);

}  // namespace rdfalign

#endif  // RDFALIGN_PARSER_NTRIPLES_PARSER_H_
