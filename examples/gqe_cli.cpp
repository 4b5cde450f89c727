// gqe_cli: load a .gqe program from a file (or stdin) and answer its
// queries under both semantics. The "downstream user" entry point.
//
//   ./build/examples/gqe_cli program.gqe [--closed-world] [--analyze]
//
// Modes:
//   default         open-world certain answers for every query
//   --closed-world  plain evaluation under the constraint promise
//   --analyze       per-query semantic treewidth report

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "approx/meta.h"
#include "chase/chase.h"
#include "cqs/cqs.h"
#include "cqs/evaluation.h"
#include "omq/evaluation.h"
#include "omq/omq.h"
#include "parser/parser.h"

namespace {

void PrintAnswers(const std::string& name,
                  const std::vector<std::vector<gqe::Term>>& answers) {
  std::printf("%s: %zu answer(s)\n", name.c_str(), answers.size());
  for (const auto& tuple : answers) {
    std::printf("  %s(", name.c_str());
    for (size_t i = 0; i < tuple.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", tuple[i].ToString().c_str());
    }
    std::printf(")\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool closed_world = false;
  bool analyze = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--closed-world") == 0) {
      closed_world = true;
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      analyze = true;
    } else {
      path = argv[i];
    }
  }
  std::string text;
  if (path.empty() || path == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "gqe_cli: cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  gqe::ParseResult parsed = gqe::ParseProgram(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "parse error (line %d, column %d): %s\n",
                 parsed.error_line, parsed.error_column, parsed.error.c_str());
    return 1;
  }
  const gqe::Program& program = parsed.program;
  std::printf("loaded: %zu facts, %zu TGDs (%s), %zu queries\n",
              program.database.size(), program.tgds.size(),
              gqe::IsGuardedSet(program.tgds)       ? "guarded"
              : gqe::IsFrontierGuardedSet(program.tgds) ? "frontier-guarded"
                                                        : "general",
              program.queries.size());

  if (analyze) {
    for (const auto& [name, query] : program.queries) {
      gqe::Cqs cqs{program.tgds, query};
      int syntactic = query.TreewidthOfExistentialPart();
      int semantic = gqe::SemanticTreewidthCqs(cqs, 4);
      std::printf("%s: syntactic treewidth %d, semantic treewidth %s\n",
                  name.c_str(), syntactic,
                  semantic < 0 ? ">4" : std::to_string(semantic).c_str());
    }
    return 0;
  }

  if (closed_world) {
    if (!gqe::Satisfies(program.database, program.tgds)) {
      std::printf("warning: database violates the constraints; the "
                  "closed-world promise does not hold\n");
    }
    for (const auto& [name, query] : program.queries) {
      gqe::Cqs cqs{program.tgds, query};
      PrintAnswers(name, gqe::EvaluateCqs(cqs, program.database).answers);
    }
    return 0;
  }

  for (const auto& [name, query] : program.queries) {
    gqe::Omq omq = gqe::Omq::WithFullDataSchema(program.tgds, query);
    gqe::OmqEvalResult result = gqe::EvaluateOmq(omq, program.database);
    if (result.partial) {
      std::printf("(%s: %s, partial: %s)\n", name.c_str(),
                  result.method.c_str(), gqe::StatusName(result.status));
    } else if (!result.exact) {
      std::printf("(%s: %s approximation)\n", name.c_str(),
                  result.method.c_str());
    }
    PrintAnswers(name, result.answers);
  }
  return 0;
}
