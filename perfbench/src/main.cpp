// perfbench: runs one benchmark workload and prints its report as one JSON
// line. perfbench/run.py builds this program and drives it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//   perfbench --self-test
#include <cstdio>
#include <cstdlib>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  pb::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const auto failures = pb::SelfTest();
      for (const auto& f : failures) std::fprintf(stderr, "self-test failed: %s\n", f.c_str());
      std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
      return failures.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--scratch") {
      config.scratch = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.workload.empty() || config.scratch.empty() || !(config.seconds > 0.0)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                         "--trace <0|1> --scratch <dir>\n");
    return 2;
  }
  const pb::Report report = pb::RunWorkload(config);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
