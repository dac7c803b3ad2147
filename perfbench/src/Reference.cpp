//===- perfbench/src/Reference.cpp - Host-speed reference -----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//   postr_perf_ref SAMPLES
//
// Times a fixed piece of STL container work -- hash-map and ordered-map
// inserts and lookups, and a sort: the solver's allocation-heavy,
// pointer-chasing profile but none of its code -- SAMPLES times in this
// process and prints {"ref_cpu_ms": [...]}, process CPU time per sample.
//
// The binary does not link the PosTr library, so no change to the
// solver, its heap or its link dependencies can move the reading. run.py
// starts it in a fresh process before every pass and after the last,
// and scales the run's CPU times by the best level it read (README.md,
// "Host drift").
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

namespace {

double processCpuMs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

volatile uint64_t Sink;

/// One sample of the reference work, in ms of process CPU time.
double sample() {
  double C0 = processCpuMs();
  std::mt19937_64 Rng(42);
  std::unordered_map<uint64_t, uint64_t> H;
  std::map<uint64_t, uint32_t> M;
  std::vector<uint64_t> V;
  uint64_t Acc = 0;
  for (uint32_t I = 0; I < 10000; ++I) {
    uint64_t Key = Rng() % 100000;
    H[Key] += I;
    M[Key ^ 0x55] = I;
    V.push_back(Key * 7);
  }
  std::sort(V.begin(), V.end());
  for (uint32_t I = 0; I < 10000; ++I) {
    if (auto It = H.find(Rng() % 100000); It != H.end())
      Acc += It->second;
    if (auto It = M.lower_bound(Rng() % 100000); It != M.end())
      Acc += It->second;
  }
  Sink = Acc + V[V.size() / 2];
  return processCpuMs() - C0;
}

} // namespace

int main(int Argc, char **Argv) {
  int Samples = Argc == 2 ? std::atoi(Argv[1]) : 0;
  if (Samples < 1) {
    std::fprintf(stderr, "usage: postr_perf_ref SAMPLES\n");
    return 2;
  }
  std::printf("{\"ref_cpu_ms\":[");
  for (int K = 0; K < Samples; ++K)
    std::printf("%s%.6f", K ? "," : "", sample());
  std::printf("]}\n");
  return 0;
}
