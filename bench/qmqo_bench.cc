// qmqo_bench: the one bench executable. Every bench of the reproduction is a
// named target in the registry below:
//
//   qmqo_bench --list            name every target
//   qmqo_bench <target>...       run the named targets in order
//
// An unknown name exits nonzero before anything runs; a failing target is
// reported and makes the exit code nonzero. Targets read the
// QMQO_BENCH_FULL, QMQO_BENCH_THREADS and QMQO_BENCH_OUT_DIR knobs
// (bench_common.h).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"

namespace {

using namespace qmqo;

struct Target {
  const char* name;
  Status (*run)();
};

constexpr Target kTargets[] = {
    {"annealer", bench::RunAnnealer},
    {"embedding", bench::RunEmbedding},
    {"service", bench::RunService},
    {"workloads", bench::RunWorkloads},
    {"table1", bench::RunTable1},
    {"fig4", bench::RunFig4},
    {"fig5", bench::RunFig5},
    {"fig6", bench::RunFig6},
    {"fig7", bench::RunFig7},
    {"mapping", bench::RunMapping},
    {"ablation_chain_strength", bench::RunAblationChainStrength},
    {"ablation_embedding", bench::RunAblationEmbedding},
    {"ablation_sampler", bench::RunAblationSampler},
};

const Target* Find(const char* name) {
  for (const Target& target : kTargets) {
    if (std::strcmp(target.name, name) == 0) return &target;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const Target& target : kTargets) std::printf("%s\n", target.name);
    return 0;
  }
  std::vector<const Target*> selected;
  for (int i = 1; i < argc; ++i) {
    selected.push_back(Find(argv[i]));
    if (selected.back() == nullptr) {
      std::fprintf(stderr, "qmqo_bench: unknown target '%s'\n", argv[i]);
    }
  }
  if (selected.empty() ||
      std::count(selected.begin(), selected.end(), nullptr) > 0) {
    std::fprintf(stderr, "usage: qmqo_bench --list | <target>...\n");
    return 2;
  }
  int exit_code = 0;
  for (const Target* target : selected) {
    Status status = target->run();
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL: qmqo_bench %s: %s\n", target->name,
                   status.ToString().c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}
