//===- bench/bench_ablation_ptime.cpp - Thm. 7.1 fast-path ablation --------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Theorem 7.1: a single ≠ / ¬prefixof / ¬suffixof over regular
// constraints is decidable in PTime by reduction to 0-reachability in a
// one-counter automaton, versus the general NP tag-automaton/LIA route.
// This bench compares the two decision paths on the same single
// disequalities as the variable automata grow.
//
//===----------------------------------------------------------------------===//

#include "counter/OneCounter.h"
#include "regex/Regex.h"
#include "tagaut/MpSolver.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace postr;
using namespace postr::tagaut;

namespace {

struct Instance {
  Alphabet Sigma;
  std::map<VarId, automata::Nfa> Langs;
  std::vector<PosPredicate> Preds;
};

/// Single disequality x ≠ y with random same-length-ish languages whose
/// NFAs have ~`Size` states each.
Instance makeInstance(uint32_t Size, uint32_t Seed) {
  Instance S;
  std::mt19937 Rng(Seed);
  S.Sigma.intern('a');
  S.Sigma.intern('b');
  for (VarId X = 0; X < 2; ++X) {
    automata::Nfa A(2);
    uint32_t N = Size;
    A.addStates(N);
    A.markInitial(0);
    A.markFinal(N - 1);
    for (uint32_t Q = 0; Q + 1 < N; ++Q)
      A.addTransition(Q, Rng() % 2, Q + 1);
    for (uint32_t E = 0; E < N; ++E)
      A.addTransition(Rng() % N, Rng() % 2, Rng() % N);
    S.Langs[X] = A.trim().removeEpsilon();
  }
  S.Preds.push_back({PredKind::Diseq, {0}, {1}, {}});
  return S;
}

void BM_OcaPath(benchmark::State &State) {
  Instance S = makeInstance(static_cast<uint32_t>(State.range(0)), 7);
  for (auto _ : State) {
    Verdict V = counter::decideSinglePredicate(S.Langs, S.Preds[0],
                                               S.Sigma.size())
                    .V;
    benchmark::DoNotOptimize(V);
  }
}

void BM_LiaPath(benchmark::State &State) {
  Instance S = makeInstance(static_cast<uint32_t>(State.range(0)), 7);
  for (auto _ : State) {
    lia::Arena A;
    MpResult R = solveMP(A, S.Langs, S.Preds, S.Sigma.size());
    benchmark::DoNotOptimize(R.V);
  }
}

} // namespace

BENCHMARK(BM_OcaPath)->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_LiaPath)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

BENCHMARK_MAIN();
