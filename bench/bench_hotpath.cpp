//===- bench/bench_hotpath.cpp - Automata→Parikh→LIA hot-path bench --------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Micro-benchmark of the pipeline stages every query pays for: NFA
// product, determinization, the tag-automaton Parikh/system encoding,
// the DPLL(T) LIA solve, and the end-to-end solver on the Workloads
// generators. Emits machine-readable JSON (BENCH_hotpath.json and
// stdout) so successive perf PRs leave a comparable trajectory.
//
// POSTR_BENCH_N scales repetition counts (not instance shapes, so
// per-rep times stay comparable across runs).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "automata/Nfa.h"
#include "base/Budget.h"
#include "lia/Solver.h"
#include "tagaut/Encoder.h"
#include "tagaut/Parikh.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

using namespace postr;
using namespace postr::automata;
using Clock = std::chrono::steady_clock;

namespace {

/// Random ε-free NFA with a guaranteed non-empty language: a spine
/// 0 → 1 → ... → N-1 plus random extra edges.
Nfa randomNfa(uint32_t NumStates, uint32_t Sigma, uint32_t ExtraEdges,
              uint32_t Seed) {
  std::mt19937 Rng(Seed);
  Nfa A(Sigma);
  A.addStates(NumStates);
  A.markInitial(0);
  A.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q)
    A.addTransition(Q, Rng() % Sigma, Q + 1);
  for (uint32_t E = 0; E < ExtraEdges; ++E)
    A.addTransition(Rng() % NumStates, Rng() % Sigma, Rng() % NumStates);
  return A;
}

struct StageResult {
  std::string Name;
  uint32_t Reps;
  double WallMs;
  uint64_t Checksum;
};

template <typename Fn>
StageResult runStage(const std::string &Name, uint32_t Reps, Fn &&Body) {
  // One warm-up rep keeps first-touch page faults out of the numbers.
  uint64_t Checksum = Body(0);
  Clock::time_point T0 = Clock::now();
  for (uint32_t R = 0; R < Reps; ++R)
    Checksum += Body(R + 1);
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
  std::fprintf(stderr, "[hotpath] %-13s reps=%-3u %9.2f ms  (%.3f ms/rep)\n",
               Name.c_str(), Reps, Ms, Ms / Reps);
  return {Name, Reps, Ms, Checksum};
}

uint64_t productRep(uint32_t Rep) {
  Nfa A = randomNfa(160, 6, 3 * 160, 1000 + Rep);
  Nfa B = randomNfa(160, 6, 3 * 160, 2000 + Rep);
  Nfa P = intersect(A, B);
  return P.numStates() + P.numTransitions();
}

uint64_t determinizeRep(uint32_t Rep) {
  Nfa A = randomNfa(56, 4, 2 * 56, 3000 + Rep);
  Nfa D = determinize(A);
  return D.numStates() + D.numTransitions();
}

uint64_t parikhEncodeRep(uint32_t Rep) {
  std::map<VarId, Nfa> Langs;
  Langs[0] = randomNfa(10, 4, 12, 4000 + Rep).trim();
  Langs[1] = randomNfa(10, 4, 12, 5000 + Rep).trim();
  Langs[2] = randomNfa(10, 4, 12, 6000 + Rep).trim();
  std::vector<tagaut::PosPredicate> Preds;
  Preds.push_back({tagaut::PredKind::Diseq, {0, 1}, {1, 2}, {}});
  Preds.push_back({tagaut::PredKind::NotPrefix, {0}, {2, 1}, {}});
  lia::Arena A;
  tagaut::SystemEncoding Enc = tagaut::encodeSystem(A, Langs, Preds, 4);
  return A.numNodes() + Enc.Ta.transitions().size();
}

/// Search-core counters accumulated across the solve stage (emitted into
/// the JSON so perf PRs can see *why* a stage moved, not only how much).
lia::QfSearchStats SolveCounters;

uint64_t solveRep(uint32_t Rep) {
  // PF(A) satisfiability on a random tag automaton, eager φ_Span: the
  // pure DPLL(T)+Simplex load with no encoder in the way.
  std::mt19937 Rng(7000 + Rep);
  tagaut::TagTable Tags;
  tagaut::TagAutomaton Ta;
  uint32_t NumStates = 28;
  Ta.addStates(NumStates);
  Ta.markInitial(0);
  Ta.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q)
    Ta.addTransition({Q, Q + 1, 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  for (uint32_t E = 0; E < 2 * NumStates; ++E) {
    uint32_t From = static_cast<uint32_t>(Rng() % NumStates);
    uint32_t To = static_cast<uint32_t>(Rng() % NumStates);
    Ta.addTransition({From, To, 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  }
  lia::Arena A;
  tagaut::ParikhFormula Pf =
      buildParikhFormula(Ta, A, "b.", tagaut::SpanMode::Eager);
  Budget Bud(Budget::Limits{20000});
  lia::QfOptions Opts;
  Opts.Budget = &Bud;
  lia::QfResult R = lia::solveQF(A, Pf.Formula, Opts);
  SolveCounters += R.Stats;
  return static_cast<uint64_t>(R.V == Verdict::Sat ? 1 : 0);
}

/// Self-check counters accumulated across the end-to-end stages (the
/// Sat-model validation layer is always on; its activity is emitted as
/// `selfcheck_counters` so the JSON shows the cost is bounded and no
/// model ever failed).
struct {
  uint64_t ModelsValidated = 0, ValidationFailures = 0, ParanoidChecks = 0;
  uint64_t UnsatsCertified = 0, CertificationFailures = 0;
  void operator+=(const solver::SolveStats &S) {
    ModelsValidated += S.ModelsValidated;
    ValidationFailures += S.ValidationFailures;
    ParanoidChecks += S.ParanoidChecks;
    UnsatsCertified += S.UnsatsCertified;
    CertificationFailures += S.CertificationFailures;
  }
} SelfCheckCounters;

uint64_t pipelineRep(uint32_t Rep) {
  // End-to-end solver over the Workloads generators (one instance per
  // family per rep, fixed seeds).
  uint64_t Acc = 0;
  for (bench::Family F : {bench::Family::Django, bench::Family::Thefuck,
                          bench::Family::PositionHard}) {
    strings::Problem P = bench::generate(F, 97, Rep % 8);
    solver::SolveOptions O;
    O.TimeoutMs = 5000;
    solver::SolveResult R = solver::solveProblem(P, O);
    SelfCheckCounters += R.Stats;
    Acc += static_cast<uint64_t>(R.V);
  }
  return Acc;
}

/// MBQI counters accumulated across the mbqi stage (emitted as
/// `mbqi_counters` so the incrementality trajectory — context reuses,
/// lemma pushes — is visible next to the times).
lia::MbqiStats MbqiCounters;

uint64_t mbqiRep(uint32_t) {
  // The two biopython instances whose time is dominated by the MBQI
  // loop itself (a Sat one needing inner-query sweeps and an Unsat one
  // needing outer re-solves) — the flat ¬contains path with real
  // candidate traffic, where PR 4's persistent contexts pay off (the
  // scratch path runs 3.5–4× longer on both). Generous timeout so the
  // verdicts — and therefore the checksum — are host-independent.
  uint64_t Acc = 0;
  for (uint32_t I : {1u, 7u}) {
    strings::Problem P = bench::generate(bench::Family::Biopython, 97, I);
    solver::SolveOptions O;
    O.TimeoutMs = 30000;
    O.Mp.Mbqi.Stats = &MbqiCounters;
    solver::SolveResult R = solver::solveProblem(P, O);
    SelfCheckCounters += R.Stats;
    Acc += static_cast<uint64_t>(R.V);
  }
  return Acc;
}

/// One-counter counters accumulated across the onecounter stage (emitted
/// as `onecounter_counters`: the disjuncts the fast path decided and the
/// (state, counter) pairs its walk searches expanded).
struct {
  uint64_t FastPathDecisions = 0, Expanded = 0;
  void operator+=(const solver::SolveStats &S) {
    FastPathDecisions += S.FastPathDecisions;
    Expanded += S.OneCounterExpanded;
  }
} OneCounterCounters;

uint64_t oneCounterRep(uint32_t Rep) {
  // Footnote-10 instances through the whole solver (8 per rep, 32
  // distinct); the lone ≠ / ¬suffixof ones without a length atom are
  // decided by the Thm. 7.1 walk searches, which carry the stage's time.
  uint64_t Acc = 0;
  for (uint32_t I = 0; I < 8; ++I) {
    strings::Problem P =
        bench::generate(bench::Family::PositionHard, 1, 8 * (Rep % 4) + I);
    solver::SolveOptions O;
    O.TimeoutMs = 30000;
    solver::SolveResult R = solver::solveProblem(P, O);
    OneCounterCounters += R.Stats;
    Acc = 4 * Acc + static_cast<uint64_t>(R.V);
  }
  return Acc;
}

} // namespace

int main() {
  // Clamp: POSTR_BENCH_N=0 (or garbage, which envU32 parses as 0) would
  // make every per-rep figure meaningless.
  uint32_t N = std::max(1u, bench::envU32("POSTR_BENCH_N", 12));
  std::vector<StageResult> Stages;
  Stages.push_back(runStage("product", N, productRep));
  Stages.push_back(runStage("determinize", N, determinizeRep));
  Stages.push_back(runStage("parikh-encode", N, parikhEncodeRep));
  Stages.push_back(runStage("solve", std::max(1u, N / 4), solveRep));
  Stages.push_back(runStage("pipeline", std::max(1u, N / 4), pipelineRep));
  Stages.push_back(runStage("mbqi", std::max(1u, N / 4), mbqiRep));
  Stages.push_back(runStage("onecounter", N, oneCounterRep));

  std::string Json = "{\n  \"bench\": \"hotpath\",\n  \"scale\": " +
                     std::to_string(N) + ",\n  \"stages\": [\n";
  for (size_t I = 0; I < Stages.size(); ++I) {
    const StageResult &S = Stages[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"name\": \"%s\", \"reps\": %u, \"wall_ms\": %.3f, "
                  "\"ms_per_rep\": %.4f, \"checksum\": %llu}%s\n",
                  S.Name.c_str(), S.Reps, S.WallMs, S.WallMs / S.Reps,
                  static_cast<unsigned long long>(S.Checksum),
                  I + 1 < Stages.size() ? "," : "");
    Json += Buf;
  }
  char Counters[2048];
  std::snprintf(
      Counters, sizeof(Counters),
      "  ],\n  \"solve_counters\": {\"conflicts\": %llu, "
      "\"propagations\": %llu, \"decisions\": %llu, \"restarts\": %llu, "
      "\"reductions\": %llu, \"clauses_deleted\": %llu, \"pivots\": %llu, "
      "\"checks\": %llu, \"theory_conflicts\": %llu, "
      "\"budget_trips\": %llu, \"degraded_retries\": %llu},\n"
      "  \"simplex_counters\": {\"pivots\": %llu, \"checks\": %llu, "
      "\"row_fill_in\": %llu, \"max_row_nnz\": %llu, "
      "\"den_normalizations\": %llu, \"rule_switches\": %llu, "
      "\"pivots_bland\": %llu, \"pivots_sparsest\": %llu, "
      "\"fence_recoveries\": %llu},\n"
      "  \"mbqi_counters\": {\"candidates\": %llu, \"outer_solves\": %llu, "
      "\"inner_queries\": %llu, \"inst_lemmas\": %llu, \"blockers\": %llu, "
      "\"context_reuses\": %llu},\n"
      "  \"selfcheck_counters\": {\"models_validated\": %llu, "
      "\"validation_failures\": %llu, \"paranoid_checks\": %llu},\n"
      "  \"proof_counters\": {\"unsats_certified\": %llu, "
      "\"certification_failures\": %llu},\n"
      "  \"onecounter_counters\": {\"fastpath_decisions\": %llu, "
      "\"expanded\": %llu}\n}\n",
      (unsigned long long)SolveCounters.Conflicts,
      (unsigned long long)SolveCounters.Propagations,
      (unsigned long long)SolveCounters.Decisions,
      (unsigned long long)SolveCounters.Restarts,
      (unsigned long long)SolveCounters.Reductions,
      (unsigned long long)SolveCounters.ClausesDeleted,
      (unsigned long long)SolveCounters.Pivots,
      (unsigned long long)SolveCounters.Checks,
      (unsigned long long)SolveCounters.TheoryConflicts,
      (unsigned long long)SolveCounters.BudgetTrips,
      (unsigned long long)SolveCounters.DegradedRetries,
      (unsigned long long)SolveCounters.Pivots,
      (unsigned long long)SolveCounters.Checks,
      (unsigned long long)SolveCounters.RowFillIn,
      (unsigned long long)SolveCounters.MaxRowNnz,
      (unsigned long long)SolveCounters.DenNormalizations,
      (unsigned long long)SolveCounters.RuleSwitches,
      (unsigned long long)SolveCounters
          .PivotsByRule[static_cast<size_t>(lia::PivotRule::Bland)],
      (unsigned long long)SolveCounters
          .PivotsByRule[static_cast<size_t>(lia::PivotRule::SparsestRow)],
      (unsigned long long)SolveCounters.FenceRecoveries,
      (unsigned long long)MbqiCounters.Candidates,
      (unsigned long long)MbqiCounters.OuterSolves,
      (unsigned long long)MbqiCounters.InnerQueries,
      (unsigned long long)MbqiCounters.InstLemmas,
      (unsigned long long)MbqiCounters.Blockers,
      (unsigned long long)MbqiCounters.ContextReuses,
      (unsigned long long)SelfCheckCounters.ModelsValidated,
      (unsigned long long)SelfCheckCounters.ValidationFailures,
      (unsigned long long)SelfCheckCounters.ParanoidChecks,
      (unsigned long long)SelfCheckCounters.UnsatsCertified,
      (unsigned long long)SelfCheckCounters.CertificationFailures,
      (unsigned long long)OneCounterCounters.FastPathDecisions,
      (unsigned long long)OneCounterCounters.Expanded);
  Json += Counters;

  std::fputs(Json.c_str(), stdout);
  if (FILE *F = std::fopen("BENCH_hotpath.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  }
  return 0;
}
