// powerlog_perfbench — the measuring half of the repository benchmark.
//
//   powerlog_perfbench --workload rank|reach|serve --seed N --seconds S
//                      [--trace 0|1] --out raw.json [--trace-out spans.json]
//
// Writes raw samples and counters to --out; perfbench/run.py builds this
// binary, runs it and turns the raw file into the printed metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.out.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr, "usage: %s --workload W --seed N --seconds S "
                 "[--trace 0|1] --out FILE [--trace-out FILE]\n", argv[0]);
    return 2;
  }
  if (args.workload == "rank") return perfbench::RunJobs(args, false);
  if (args.workload == "reach") return perfbench::RunJobs(args, true);
  if (args.workload == "serve") return perfbench::RunServe(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
