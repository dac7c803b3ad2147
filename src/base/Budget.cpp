//===- base/Budget.cpp - Cooperative resource governance -------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "base/Budget.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace postr {

const char *stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::None:
    return "none";
  case StopReason::Timeout:
    return "timeout";
  case StopReason::Cancelled:
    return "cancelled";
  case StopReason::MemOut:
    return "memout";
  case StopReason::StepBudget:
    return "stepbudget";
  }
  assert(false && "invalid stop reason");
  return "?";
}

namespace {

std::atomic<FaultInjector *> ArmedInjector{nullptr};
std::once_flag EnvInjectorOnce;
std::unique_ptr<FaultInjector> EnvInjector;

} // namespace

Budget::Budget(const Limits &L) : Lim(L) {
  if (Lim.TimeoutMs)
    Deadline = Clock::now() + std::chrono::milliseconds(Lim.TimeoutMs);
  // Budgets are created per solve, never on a hot path, so this is the
  // cheapest place to make the env-configured injector available before
  // the first probe (checkpoint itself stays a relaxed load).
  std::call_once(EnvInjectorOnce, [] { faultInjectorFromEnv(); });
}

bool Budget::checkpoint(const char *Site) {
  if (FaultInjector *I = ArmedInjector.load(std::memory_order_relaxed)) {
    StopReason R = I->onProbe(Site);
    if (R != StopReason::None)
      trip(R);
  }
  if (exceeded())
    return false;
  if (Lim.Cancel && Lim.Cancel->load(std::memory_order_relaxed)) {
    trip(StopReason::Cancelled);
    return false;
  }
  // Walk the whole ancestor chain: a budget two levels down still stops
  // when the root trips, even if the intermediate budget never probes.
  for (const Budget *P = Lim.Parent; P; P = P->Lim.Parent)
    if (P->exceeded()) {
      trip(P->reason());
      return false;
    }
  if (Lim.StepLimit && !chargeSteps(1))
    return false;
  if (Lim.TimeoutMs) {
    // Amortize the clock read: callers already probe at loop heads (often
    // themselves strided), so one deadline check per ~64 probes keeps the
    // syscall entirely off the hot path.
    uint32_t P = ProbeCount.fetch_add(1, std::memory_order_relaxed);
    if ((P & 63u) == 63u && !checkDeadline())
      return false;
  }
  return true;
}

bool Budget::checkDeadline() {
  if (Clock::now() >= Deadline) {
    trip(StopReason::Timeout);
    return false;
  }
  return true;
}

bool Budget::chargeMem(uint64_t Bytes) {
  if (!Lim.MemLimitBytes)
    return !exceeded();
  uint64_t Used =
      MemUsed.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  if (Used > Lim.MemLimitBytes) {
    trip(StopReason::MemOut);
    return false;
  }
  return !exceeded();
}

bool Budget::chargeSteps(uint64_t N) {
  if (!Lim.StepLimit)
    return !exceeded();
  uint64_t Used = StepsUsed.fetch_add(N, std::memory_order_relaxed) + N;
  if (Used > Lim.StepLimit) {
    trip(StopReason::StepBudget);
    return false;
  }
  return !exceeded();
}

StopReason Budget::trip(StopReason R) {
  StopReason Expected = StopReason::None;
  Reason.compare_exchange_strong(Expected, R, std::memory_order_relaxed);
  return Reason.load(std::memory_order_relaxed);
}

Budget::Limits Budget::childLimits(uint64_t CapMs, uint64_t MemBytes,
                                   uint64_t Steps) const {
  Limits L;
  uint64_t Left = remainingMs();
  if (Left == ~0ull)
    L.TimeoutMs = CapMs;
  else {
    // Clamp to >= 1 so a nearly-expired parent still yields a deadline
    // (TimeoutMs == 0 would mean "none" and unbound the child).
    Left = Left > 1 ? Left : 1;
    L.TimeoutMs = CapMs ? std::min(CapMs, Left) : Left;
  }
  uint64_t PMem = Lim.MemLimitBytes, PSteps = Lim.StepLimit;
  L.MemLimitBytes =
      MemBytes && PMem ? std::min(MemBytes, PMem) : (MemBytes ? MemBytes : PMem);
  L.StepLimit =
      Steps && PSteps ? std::min(Steps, PSteps) : (Steps ? Steps : PSteps);
  // The flag is read directly: an ancestor trips on its cancel flag only
  // when it probes itself, which the parent of a running child may not do
  // until the child returns.
  L.Cancel = Lim.Cancel;
  L.Parent = this;
  return L;
}

uint64_t Budget::remainingMs() const {
  if (!Lim.TimeoutMs)
    return ~0ull;
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  return Left > 0 ? static_cast<uint64_t>(Left) : 0;
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

const std::vector<const char *> &faultSiteNames() {
  static const std::vector<const char *> Sites = {
      "nfa.intersect",  "nfa.determinize",  "nfa.epsilon",
      "eq.stabilize",   "tagaut.encode",    "tagaut.parikh",
      "lia.sat",        "lia.simplex",      "lia.mbqi",
      "solver.disjunct", "solver.enum",     "solver.bruteforce",
      "counter.walk",
  };
  return Sites;
}

FaultInjector::FaultInjector(const char *Site, uint64_t Nth, uint64_t Seed)
    : Site(Site), Nth(Nth ? Nth : 1) {
  // Deterministic reason choice: hash the site name into the seed so the
  // same seed exercises different reasons across sites.
  uint64_t H = Seed;
  for (const char *C = Site; *C; ++C)
    H = hashCombine(H, static_cast<uint64_t>(*C));
  static const StopReason Reasons[] = {StopReason::Timeout,
                                       StopReason::Cancelled,
                                       StopReason::MemOut,
                                       StopReason::StepBudget};
  Inject = Reasons[H % 4];
}

void FaultInjector::arm(FaultInjector *I) {
  ArmedInjector.store(I, std::memory_order_relaxed);
}

FaultInjector *FaultInjector::armed() {
  return ArmedInjector.load(std::memory_order_relaxed);
}

StopReason FaultInjector::onProbe(const char *ProbeSite) {
  if (std::strcmp(ProbeSite, Site) != 0)
    return StopReason::None;
  uint64_t H = Hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (H != Nth)
    return StopReason::None;
  Fired.fetch_add(1, std::memory_order_relaxed);
  return Inject;
}

FaultInjector *faultInjectorFromEnv() {
  const char *Spec = std::getenv("POSTR_FAULT_INJECT");
  if (!Spec || !*Spec)
    return nullptr;
  // Format: <site>:<n>[:seed]
  std::string S(Spec);
  size_t C1 = S.find(':');
  if (C1 == std::string::npos) {
    std::fprintf(stderr,
                 "POSTR_FAULT_INJECT: expected <site>:<n>[:seed], got %s\n",
                 Spec);
    return nullptr;
  }
  std::string SiteName = S.substr(0, C1);
  size_t C2 = S.find(':', C1 + 1);
  uint64_t Nth = std::strtoull(S.c_str() + C1 + 1, nullptr, 10);
  uint64_t Seed = 0;
  if (C2 != std::string::npos)
    Seed = std::strtoull(S.c_str() + C2 + 1, nullptr, 10);
  const char *Canonical = nullptr;
  for (const char *Known : faultSiteNames())
    if (SiteName == Known) {
      Canonical = Known;
      break;
    }
  if (!Canonical) {
    std::fprintf(stderr, "POSTR_FAULT_INJECT: unknown site %s\n",
                 SiteName.c_str());
    return nullptr;
  }
  EnvInjector = std::make_unique<FaultInjector>(Canonical, Nth, Seed);
  FaultInjector::arm(EnvInjector.get());
  return EnvInjector.get();
}

} // namespace postr
