// gqe_perfbench: runs one benchmark workload against the gqe library and
// prints one JSON record as its last line of output (see
// perfbench/README.md). perfbench/run.py builds this binary and wraps its
// record in the benchmark's result format.
//
//   gqe_perfbench --workload open-world --seed 7 --seconds 10 --trace 0
//       --out-dir DIR [--serve-binary PATH] [--inject-wrong-digest]

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--inject-wrong-digest") {
      options.inject_wrong_digest = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "gqe_perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--serve-binary") {
      options.serve_binary = value;
    } else {
      std::fprintf(stderr, "gqe_perfbench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  perfbench::Report report;
  if (options.workload == "open-world") {
    report = perfbench::RunOpenWorld(options);
  } else if (options.workload == "closed-world") {
    report = perfbench::RunClosedWorld(options);
  } else if (options.workload == "chase-sharded") {
    report = perfbench::RunChaseSharded(options);
  } else if (options.workload == "serve-mixed") {
    report = perfbench::RunServeMixed(options);
  } else {
    std::fprintf(stderr, "gqe_perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson(options).c_str());
  return 0;
}
