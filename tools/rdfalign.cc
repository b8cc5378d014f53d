// rdfalign — the command-line front end of the snapshot store + aligner.
//
//   rdfalign build <input> <output.snap>    text RDF -> binary snapshot
//   rdfalign info <file>                    snapshot/delta/archive/update dump
//   rdfalign align <a> <b>                  align two graphs, print report
//   rdfalign diff <base> <next> <out>       align and write a binary delta
//   rdfalign patch <base> <delta> <out>     replay a delta onto a base
//   rdfalign archive <out> <v1> <v2> ...    build + save a version archive
//   rdfalign gen <out-prefix>               synthetic version chain (CI/demo)
//   rdfalign updates <base> <next> <out>    write a streaming update fragment
//   rdfalign client <endpoint> <command>    run a command on rdfalignd
//   rdfalign stream <endpoint> ...          streaming session on rdfalignd
//
// This file is a transport adapter only: every verb is implemented in
// src/service/verbs.{h,cc} as request/response functions shared with the
// rdfalignd daemon, and `rdfalign client` forwards the identical argv to
// a running daemon (same output, same exit code — but loads hit the
// daemon's resident snapshot cache). See docs/service.md.

#include <cstdio>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/graph_source.h"
#include "service/verbs.h"

int main(int argc, char** argv) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);

  if (!tokens.empty() && tokens[0] == "client") {
    return rdfalign::service::RunClientCommand(tokens);
  }
  if (!tokens.empty() && tokens[0] == "stream") {
    return rdfalign::service::RunStreamCommand(tokens);
  }

  rdfalign::service::DirectGraphSource source;
  rdfalign::service::VerbResult result =
      rdfalign::service::ExecuteVerb(tokens, &source);
  if (!result.output.empty()) std::fputs(result.output.c_str(), stdout);
  if (!result.error.empty()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
  }
  if (result.usage_error) {
    std::fputs(rdfalign::service::UsageText(), stderr);
  }
  return result.exit_code;
}
