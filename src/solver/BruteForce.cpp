//===- solver/BruteForce.cpp - Enumeration reference solver ----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "solver/BruteForce.h"

#include "base/Budget.h"

using namespace postr;
using namespace postr::solver;

BruteForceResult postr::solver::solveBruteForce(
    const std::map<VarId, automata::Nfa> &Langs,
    const std::vector<tagaut::PosPredicate> &Preds,
    const BruteForceOptions &Opts) {
  Budget *Bud = Opts.Budget;
  auto Stopped = [Bud] {
    return Bud && !Bud->checkpoint("solver.bruteforce");
  };
  BruteForceResult Out;

  std::vector<VarId> Vars;
  std::vector<std::vector<Word>> Choices;
  for (const auto &[X, Nfa] : Langs) {
    Vars.push_back(X);
    Choices.push_back(Nfa.enumerateWords(Opts.MaxWordLen));
    if (Bud)
      Bud->chargeMem(Choices.back().size() * (sizeof(Word) + 8));
    if (Choices.back().empty()) {
      // The language has no word of length <= bound. If it is empty
      // outright the system is Unsat; otherwise the bound is too small
      // to say anything.
      Out.V = Nfa.isEmpty() ? Verdict::Unsat : Verdict::Unknown;
      if (Out.V == Verdict::Unknown)
        Out.Stop = StopReason::StepBudget;
      return Out;
    }
    if (Stopped()) {
      Out.V = Verdict::Unknown;
      Out.Stop = Bud->reason();
      return Out;
    }
  }

  std::vector<size_t> Idx(Vars.size(), 0);
  uint64_t Evaluated = 0;
  for (;;) {
    if (++Evaluated > Opts.MaxAssignments) {
      Out.V = Verdict::Unknown;
      Out.Stop = StopReason::StepBudget;
      return Out;
    }
    // Budget probe (deadline, cancel, memory, steps) every 64
    // evaluations.
    if ((Evaluated & 63) == 0 && Stopped()) {
      Out.V = Verdict::Unknown;
      Out.Stop = Bud->reason();
      return Out;
    }

    std::map<VarId, Word> Assignment;
    for (size_t I = 0; I < Vars.size(); ++I)
      Assignment[Vars[I]] = Choices[I][Idx[I]];
    if (evalSystem(Preds, Assignment)) {
      Out.V = Verdict::Sat;
      Out.Assignment = std::move(Assignment);
      return Out;
    }

    // Odometer step.
    size_t Pos = 0;
    while (Pos < Idx.size() && ++Idx[Pos] == Choices[Pos].size()) {
      Idx[Pos] = 0;
      ++Pos;
    }
    if (Pos == Idx.size())
      break;
  }
  Out.V = Verdict::Unsat;
  return Out;
}
