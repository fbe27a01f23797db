// EvoBench command line: runs one workload from a seed and prints its
// metrics as the last line of standard output.
//
//   evobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--corrupt-result <n>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced run. The process exits non-zero when any result, checkpoint
// or recovery check fails.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

void PrintReport(const evobench::RunReport& report) {
  std::printf("evobench-info %s\n", report.info_json.c_str());
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const evobench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "evobench: %s\nusage: evobench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  evobench::RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--corrupt-result") {
      options.corrupt_result = std::strtoull(value, nullptr, 10);
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty()) return Usage("--workload is required");
  const evobench::WorkloadSpec* spec = evobench::FindWorkload(workload);
  if (spec == nullptr) return Usage(("unknown workload " + workload).c_str());
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  const evobench::RunReport report = evobench::RunWorkload(*spec, options);
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "evobench: %s\n", problem.c_str());
  }
  PrintReport(report);
  return report.correct ? 0 : 1;
}
