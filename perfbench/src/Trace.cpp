//===- perfbench/src/Trace.cpp - In-memory spans for the traced run -------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

using namespace postr;
using namespace postr::perfbench;

namespace {

double msBetween(Tracer::Clock::time_point A, Tracer::Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

const char *opName(automata::NfaOp O) {
  return O == automata::NfaOp::Intersect ? "automata.intersect"
                                         : "automata.determinize";
}

} // namespace

int32_t Tracer::open(const std::string &Name) {
  Span S;
  S.Query = Query;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Start = Clock::now();
  Spans.push_back(std::move(S));
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int32_t Id) {
  if (Id < 0 || Spans[Id].Closed)
    return;
  Clock::time_point Now = Clock::now();
  // Close everything opened inside Id that is still open (spans of
  // operations abandoned mid-way end with their parent).
  while (!Stack.empty()) {
    int32_t Top = Stack.back();
    Stack.pop_back();
    Spans[Top].End = Now;
    Spans[Top].Closed = true;
    if (Top == Id)
      break;
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Closed && S.Parent >= 0)
      ChildMs[S.Parent] += msBetween(S.Start, S.End);
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (!S.Closed)
      continue;
    Totals &T = Out[S.Name];
    double Ms = msBetween(S.Start, S.End);
    ++T.Count;
    T.Ms += Ms;
    T.SelfMs += Ms - ChildMs[I];
  }
  return Out;
}

NfaOpObserver::~NfaOpObserver() {
  if (!Open.empty())
    T.close(Open.front().second);
}

std::optional<automata::Nfa> NfaOpObserver::lookup(automata::NfaOp O,
                                                   const automata::Nfa &,
                                                   const automata::Nfa *) {
  Open.emplace_back(O, T.open(opName(O)));
  return std::nullopt;
}

void NfaOpObserver::stage(automata::NfaOp O, const automata::Nfa &,
                          const automata::Nfa *, const automata::Nfa &) {
  // Pop to the innermost open span of this operation; any deeper one
  // belongs to an operation that stopped early and is closed with it.
  while (!Open.empty()) {
    auto [Op, Id] = Open.back();
    Open.pop_back();
    if (Op == O) {
      T.close(Id);
      return;
    }
  }
}
