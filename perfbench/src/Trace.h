//===- perfbench/src/Trace.h - Spans for the traced run ---------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded from the benchmark's own files around the calls it
/// makes into each module's public functions (smtlib, strings, eq,
/// solver, serve), plus automata intersect/determinize spans observed
/// through a pass-through `automata::NfaOpHook`. Spans of one query share
/// its id and stay in memory until the pass ends; a span's self time is
/// its duration minus the time its direct children cover.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_PERFBENCH_TRACE_H
#define POSTR_PERFBENCH_TRACE_H

#include "automata/Nfa.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace postr {
namespace perfbench {

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    uint32_t Query = 0;
    std::string Name;
    int32_t Parent = -1;
    Clock::time_point Start, End;
    bool Closed = false;
  };

  struct Totals {
    uint64_t Count = 0;
    double Ms = 0;
    double SelfMs = 0;
  };

  /// Opens a span of the current query under the innermost open span.
  int32_t open(const std::string &Name);
  void close(int32_t Id);
  void setQuery(uint32_t Q) { Query = Q; }

  /// Per-name count, total and self time over all closed spans.
  std::map<std::string, Totals> totals() const;
  size_t size() const { return Spans.size(); }

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  uint32_t Query = 0;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Tracer *T, const std::string &Name)
      : T(T), Id(T ? T->open(Name) : -1) {}
  ~SpanScope() {
    if (T)
      T->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
  int32_t Id;
};

/// A no-op automata memo: lookup() never hits and stage() keeps
/// nothing, so the solver computes exactly what it would untraced. The
/// span of one operation runs from its lookup() to its stage(); an
/// operation stopped by its budget never stages, and its span is closed
/// when the enclosing operation stages or the observer is destroyed.
class NfaOpObserver final : public automata::NfaOpHook {
public:
  explicit NfaOpObserver(Tracer &T) : T(T), Scope(this) {}
  ~NfaOpObserver() override;
  NfaOpObserver(const NfaOpObserver &) = delete;
  NfaOpObserver &operator=(const NfaOpObserver &) = delete;

  std::optional<automata::Nfa> lookup(automata::NfaOp O,
                                      const automata::Nfa &A,
                                      const automata::Nfa *B) override;
  void stage(automata::NfaOp O, const automata::Nfa &A,
             const automata::Nfa *B, const automata::Nfa &Out) override;

private:
  Tracer &T;
  std::vector<std::pair<automata::NfaOp, int32_t>> Open;
  automata::NfaOpHookScope Scope;
};

} // namespace perfbench
} // namespace postr

#endif // POSTR_PERFBENCH_TRACE_H
