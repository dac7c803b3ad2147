//===- serve/Worker.cpp - One serve worker session --------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "serve/Worker.h"

#include "base/Budget.h"
#include "serve/Cache.h"
#include "smtlib/Reader.h"
#include "solver/PositionSolver.h"

#include <algorithm>
#include <csignal>
#include <memory>
#include <unistd.h>

namespace postr {
namespace serve {

namespace {

/// smtlib_cli-compatible exit code for a solve result (examples/
/// smtlib_cli.cpp documents the taxonomy); served and one-shot replies
/// must agree byte for byte, codes included.
int exitCodeFor(const solver::SolveResult &R) {
  if (R.Validation.Failed)
    return 7;
  if (R.V != Verdict::Unknown)
    return 0;
  switch (R.Stop) {
  case StopReason::None:
    return 2;
  case StopReason::Timeout:
    return 3;
  case StopReason::Cancelled:
    return 4;
  case StopReason::MemOut:
    return 5;
  case StopReason::StepBudget:
    return 6;
  }
  return 2;
}

/// The degraded post-quarantine profile, mirroring the solver's own
/// internal degraded retry (solver/PositionSolver.cpp): Bland pivoting
/// (slow but convergence-guaranteed) and tightened MBQI bounds.
void applyDegraded(solver::SolveOptions &O) {
  O.Mp.Qf.Pivot = lia::PivotRule::Bland;
  O.Mp.Mbqi.Qf.Pivot = lia::PivotRule::Bland;
  O.Mp.Mbqi.MaxCandidates = std::min<uint32_t>(O.Mp.Mbqi.MaxCandidates, 16);
  O.Mp.Mbqi.MaxOffsets = std::min<int64_t>(O.Mp.Mbqi.MaxOffsets, 512);
}

} // namespace

uint64_t effectiveTimeoutMs(uint64_t HeaderMs, uint64_t ScriptMs,
                            const ServeOptions &Opts) {
  // The server cap always applies (a 0 cap falls back to the smtlib_cli
  // default so one-shot and served behavior stay comparable).
  uint64_t Eff = Opts.MaxTimeoutMs ? Opts.MaxTimeoutMs : 60000;
  if (HeaderMs)
    Eff = std::min(Eff, HeaderMs);
  if (ScriptMs)
    Eff = std::min(Eff, ScriptMs);
  return Eff;
}

Response solveRequest(const Request &Req, const ServeOptions &Opts,
                      NfaOpCache *OpCache,
                      const std::atomic<bool> *Cancel) {
  Response Resp;
  Resp.Id = Req.Id;
  Result<strings::Problem> P = smtlib::parseString(Req.Smt2);
  if (!P) {
    Resp.S = Response::Error;
    Resp.Message = "parse error: " + P.error();
    Resp.ExitCode = 1;
    return Resp;
  }

  // One cooperative budget governs the whole solve: the deadline is the
  // tightest client/server bound, and Cancel lets the daemon (SIGTERM in
  // forked mode, shutdown in-process) interrupt Simplex pivots and MBQI
  // rounds mid-flight.
  Budget::Limits Lim;
  Lim.TimeoutMs = effectiveTimeoutMs(Req.TimeoutMs, P->timeoutMs(), Opts);
  Lim.MemLimitBytes = Opts.MemLimitBytes;
  Lim.Cancel = Cancel;
  Budget Bud(Lim);

  solver::SolveOptions SOpts;
  SOpts.Budget = &Bud;
  if (Req.Degraded)
    applyDegraded(SOpts);
  if (Opts.MutateSolveOptions)
    Opts.MutateSolveOptions(SOpts);

  uint64_t FiredBefore =
      FaultInjector::armed() ? FaultInjector::armed()->fired() : 0;
  solver::SolveResult R;
  {
    // The op cache sees only this solve's automata work; staged entries
    // are published below iff the whole query validates.
    NfaCacheScope Scope(OpCache);
    R = solver::solveProblem(*P, SOpts);
  }
  // The injector may have been armed lazily (env parse at first probe),
  // so re-query after the solve.
  FaultInjector *FI = FaultInjector::armed();
  bool FaultFired = FI && FI->fired() > FiredBefore;

  Resp.S = Response::Ok;
  Resp.ExitCode = exitCodeFor(R);
  switch (R.V) {
  case Verdict::Sat: {
    Resp.Verdict = "sat";
    std::string Body;
    for (const auto &[X, W] : R.Words)
      if (X < P->numStrVars())
        Body += "; " + P->strVarName(X) + " has length " +
                std::to_string(W.size()) + "\n";
    Resp.Body = std::move(Body);
    break;
  }
  case Verdict::Unsat:
    Resp.Verdict = "unsat";
    break;
  case Verdict::Unknown:
    Resp.Verdict = "unknown";
    if (R.Validation.Failed)
      Resp.Reason = "self-check failed";
    else if (R.Stop != StopReason::None)
      Resp.Reason = stopReasonName(R.Stop);
    else
      Resp.Reason = "incomplete";
    break;
  }

  Resp.SelfCheckFailed = R.Validation.Failed;
  Resp.BudgetTrips = R.Stats.BudgetTrips;
  Resp.DegradedRetries = R.Stats.DegradedRetries;
  Resp.FaultFired = FaultFired;
  Resp.Publishable =
      R.V != Verdict::Unknown && !R.Validation.Failed && !FaultFired;
  if (OpCache) {
    if (Resp.Publishable)
      OpCache->publishStaged();
    else
      OpCache->dropStaged();
  }
  return Resp;
}

//===----------------------------------------------------------------------===//
// Forked worker child
//===----------------------------------------------------------------------===//

namespace {

/// SIGTERM → cooperative cancel of the in-flight solve. The handler only
/// stores an atomic (async-signal-safe); the budget's next checkpoint
/// observes it and the reply still reaches the daemon, as
/// `unknown (cancelled)`.
std::atomic<bool> ChildCancel{false};

void onSigterm(int) { ChildCancel.store(true, std::memory_order_relaxed); }

} // namespace

int workerChildMain(int FdIn, int FdOut, const ServeOptions &Opts) {
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction SA = {};
  SA.sa_handler = onSigterm; // no SA_RESTART: an idle child still exits
                             // promptly via EOF when the daemon closes
                             // the pipe
  ::sigaction(SIGTERM, &SA, nullptr);

  std::unique_ptr<NfaOpCache> OpCache;
  if (Opts.OpCacheBytes)
    OpCache = std::make_unique<NfaOpCache>(Opts.OpCacheBytes);

  for (;;) {
    Result<std::string> Frame = readFrame(FdIn, Opts.MaxRequestBytes);
    if (!Frame)
      return Frame.error() == "eof" ? 0 : 1;
    Result<Request> Req = decodeRequest(*Frame);
    Response Resp;
    if (!Req) {
      Resp.S = Response::Error;
      Resp.Message = Req.error();
      Resp.ExitCode = 1;
    } else if (Req->K == Request::Shutdown) {
      Resp.S = Response::Ok;
      Resp.Id = Req->Id;
      writeFrame(FdOut, encodeResponse(Resp));
      return 0;
    } else if (Req->K != Request::Solve) {
      Resp.S = Response::Ok;
      Resp.Id = Req->Id;
    } else {
      if (Req->TestAbort && Opts.AllowTestAbort)
        _exit(86); // simulated crash mid-query: no reply; the daemon
                   // observes EOF and runs the containment ladder
      ChildCancel.store(false, std::memory_order_relaxed);
      Resp = solveRequest(*Req, Opts, OpCache.get(), &ChildCancel);
    }
    if (!writeFrame(FdOut, encodeResponse(Resp)))
      return 1;
  }
}

} // namespace serve
} // namespace postr
