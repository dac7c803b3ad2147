//===- perfbench/src/Main.cpp - One benchmark pass ------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The measuring half of perfbench (run.py drives it; see README.md):
//
//   postr_perf pass   --workload W --seed S --data DIR [--trace | --light]
//                     [--setups K] [--timeout-ms T] [--recheck]
//       One pass in a fresh process: K timed set-ups, the timed draw,
//       then the untimed verdict gate. Prints one JSON object. A light
//       pass leaves out the draw's heavy queries (their readings are -1).
//   postr_perf corpus --workload W --seed S --data DIR
//       The draw's fingerprint and expected verdicts (no solving).
//   postr_perf record FAMILY GENSEED FROM TO CAP_MS EQ_CAP_MS
//       Solves generator instances to (re)build data/symex_pool.tsv.
//
// Every query goes through the real entry path: SMT-LIB text to
// smtlib::parseString, then solver::solveProblem (or
// serve::Server::submit). Solving is single-threaded except for
// serve-replay's two client threads against two in-process workers.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Trace.h"

#include "eq/Stabilize.h"
#include "serve/Server.h"
#include "smtlib/Printer.h"
#include "smtlib/Reader.h"
#include "solver/Baselines.h"
#include "solver/PositionSolver.h"
#include "strings/Eval.h"
#include "strings/Normalize.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace postr;
using namespace postr::perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Clocks and small helpers
//===----------------------------------------------------------------------===//

double nowMs(clockid_t Id) {
  timespec T;
  clock_gettime(Id, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}
double wallMs() { return nowMs(CLOCK_MONOTONIC); }
double threadCpuMs() { return nowMs(CLOCK_THREAD_CPUTIME_ID); }
double processCpuMs() { return nowMs(CLOCK_PROCESS_CPUTIME_ID); }

const char *stopName(StopReason S) {
  switch (S) {
  case StopReason::None:
    return "none";
  case StopReason::Timeout:
    return "timeout";
  case StopReason::Cancelled:
    return "cancelled";
  case StopReason::MemOut:
    return "memout";
  case StopReason::StepBudget:
    return "step-budget";
  }
  return "?";
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "postr_perf: %s\n", Msg.c_str());
  std::exit(2);
}

strings::Problem parseOrDie(const std::string &Text) {
  Result<strings::Problem> P = smtlib::parseString(Text);
  if (!P)
    die("generated query failed to parse: " + P.error());
  return std::move(*P);
}

bool modelHolds(const strings::Problem &P, const solver::SolveResult &R) {
  strings::NormalForm NF = strings::normalize(P);
  strings::ConcreteEvaluator Eval(P, NF.Sigma);
  return Eval.evalAll(R.Words, R.Ints);
}

/// Minimal JSON object writer (keys and strings are plain ASCII).
class Json {
public:
  Json &key(const std::string &K) {
    sep();
    Out += "\"" + K + "\":";
    Fresh = true;
    return *this;
  }
  Json &str(const std::string &S) {
    sep();
    Out += "\"";
    for (char C : S)
      Out += (C == '"' || C == '\\') ? '_' : C;
    Out += "\"";
    return *this;
  }
  Json &num(double V) {
    sep();
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.6f", V);
    Out += Buf;
    return *this;
  }
  Json &open(char C) {
    sep();
    Out += C;
    Fresh = true;
    return *this;
  }
  Json &close(char C) {
    Out += C;
    Fresh = false;
    return *this;
  }
  const std::string &text() const { return Out; }

private:
  void sep() {
    if (!Fresh && !Out.empty())
      Out += ',';
    Fresh = false;
  }
  std::string Out;
  bool Fresh = true;
};

//===----------------------------------------------------------------------===//
// Per-pass state
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload, DataDir = "perfbench/data";
  uint32_t Seed = 1;
  bool Trace = false;
  bool Light = false;
  bool Recheck = false;
  uint32_t Setups = 5;
  uint64_t TimeoutMs = 5000;
};

struct QueryRecord {
  double WallMs = 0, CpuMs = 0;
  Verdict V = Verdict::Unknown;
  StopReason Stop = StopReason::None;
  std::string Cache;
  bool Ok = false, Wrong = false;
};

/// What one solved query leaves for the untimed verdict gate.
struct Solved {
  strings::Problem P;
  solver::SolveResult R;
};

struct Counters {
  std::map<std::string, double> C;
  void add(const std::string &K, double V) { C[K] += V; }
  void max(const std::string &K, double V) { C[K] = std::max(C[K], V); }
};

using SpanTotals = std::map<std::string, Tracer::Totals>;

void addTotals(SpanTotals &Dst, const SpanTotals &Src) {
  for (const auto &[Name, Tot] : Src) {
    Tracer::Totals &D = Dst[Name];
    D.Count += Tot.Count;
    D.Ms += Tot.Ms;
    D.SelfMs += Tot.SelfMs;
  }
}

struct Pass {
  Args A;
  Draw D;
  std::vector<QueryRecord> Recs;
  std::vector<double> SetupCpuS;
  Tracer T;
  Counters Layers;
  /// Spans of serve-replay's client threads (each keeps its own Tracer).
  SpanTotals ExtraSpans;
  Counters Checks;
};

solver::SolveOptions solveOptions(const Args &A) {
  solver::SolveOptions O;
  O.TimeoutMs = A.TimeoutMs;
  // One-shot latencies are process CPU time; pinning one solver thread
  // keeps them comparable if the default ever changes.
  O.Threads = 1;
  return O;
}

//===----------------------------------------------------------------------===//
// One-shot workloads (symex, position-hard)
//===----------------------------------------------------------------------===//

/// Untraced query: parse, then solve.
Solved solveOneShot(const Query &Q, const Args &A, QueryRecord &Rec) {
  double W0 = wallMs(), C0 = processCpuMs();
  Solved S{parseOrDie(Q.Text), {}};
  S.R = solver::solveProblem(S.P, solveOptions(A));
  Rec.CpuMs = processCpuMs() - C0;
  Rec.WallMs = wallMs() - W0;
  Rec.V = S.R.V;
  Rec.Stop = S.R.Stop;
  return S;
}

/// Traced query: the same entry path, with each layer called through its
/// public function inside its own span. normalize and stabilize run once
/// more here than untraced (solveProblem repeats them internally); that
/// is the tracing overhead, and solver.rest is what solveProblem spends
/// beyond them.
Solved solveTraced(const Query &Q, const Args &A, Tracer &T, Counters &L,
                   QueryRecord &Rec) {
  double W0 = wallMs(), C0 = processCpuMs();
  SpanScope Whole(&T, "query");
  std::optional<strings::Problem> P;
  {
    SpanScope S(&T, "smtlib.parse");
    P.emplace(parseOrDie(Q.Text));
  }
  {
    SpanScope S(&T, "smtlib.print");
    smtlib::printProblem(*P);
  }
  strings::NormalForm NF;
  {
    SpanScope S(&T, "strings.normalize");
    NF = strings::normalize(*P);
  }
  {
    SpanScope S(&T, "eq.stabilize");
    eq::StabilizeOptions SO;
    SO.TimeoutMs = A.TimeoutMs;
    VarId Fresh = NF.NextFresh;
    eq::StabilizeResult SR = eq::stabilize(NF.Langs, NF.Equations, Fresh, SO);
    L.add("eq.disjuncts", static_cast<double>(SR.Disjuncts.size()));
  }
  lia::MbqiStats MS;
  Solved Out{std::move(*P), {}};
  {
    SpanScope S(&T, "solver.solve");
    NfaOpObserver Obs(T);
    solver::SolveOptions O = solveOptions(A);
    O.Mp.Mbqi.Stats = &MS;
    Out.R = solver::solveProblem(Out.P, O);
  }
  Rec.CpuMs = processCpuMs() - C0;
  Rec.WallMs = wallMs() - W0;
  Rec.V = Out.R.V;
  Rec.Stop = Out.R.Stop;
  const solver::SolveStats &St = Out.R.Stats;
  L.add("solver.mp_calls", St.MpCalls);
  L.add("solver.fastpath", St.FastPathDecisions);
  L.add("solver.budget_trips", St.BudgetTrips);
  L.add("solver.degraded_retries", St.DegradedRetries);
  L.add("lia.mbqi.candidates", static_cast<double>(MS.Candidates));
  L.add("lia.mbqi.outer_solves", static_cast<double>(MS.OuterSolves));
  L.add("lia.mbqi.inner_queries", static_cast<double>(MS.InnerQueries));
  L.add("lia.mbqi.context_reuses", static_cast<double>(MS.ContextReuses));
  return Out;
}

/// Re-solves the slowest queries under a cap of a quarter of their own
/// time and records how far past the cap each returns, with or without a
/// verdict: the deadline overrun, seen from outside the solver.
void deadlineProbes(Pass &Ps, const std::vector<const Query *> &Qs,
                    const std::vector<double> &CpuMs) {
  std::vector<size_t> Order(Qs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](size_t X, size_t Y) { return CpuMs[X] > CpuMs[Y]; });
  for (size_t K = 0; K < Order.size() && K < 4; ++K) {
    strings::Problem P = parseOrDie(Qs[Order[K]]->Text);
    solver::SolveOptions O = solveOptions(Ps.A);
    O.TimeoutMs = std::max<uint64_t>(2, static_cast<uint64_t>(
                                            CpuMs[Order[K]] / 4));
    double W0 = wallMs();
    solver::solveProblem(P, O);
    double Over = wallMs() - W0 - static_cast<double>(O.TimeoutMs);
    Ps.Layers.add("solver.deadline_probes", 1);
    Ps.Layers.add("solver.overrun_ms", std::max(0.0, Over));
    Ps.Layers.max("solver.overrun_max_ms", std::max(0.0, Over));
  }
}

serve::ServeOptions serveOptions(const Args &A) {
  serve::ServeOptions O;
  O.Workers = 2;
  O.MaxTimeoutMs = A.TimeoutMs;
  O.ForkWorkers = false;
  return O;
}

/// Submits until admitted, backing off as a shed request is told to.
serve::Response submit(serve::Server &S, const std::string &Text) {
  serve::Request Q;
  Q.K = serve::Request::Solve;
  Q.Smt2 = Text;
  for (;;) {
    serve::Response R = S.submit(Q);
    if (R.S != serve::Response::Busy)
      return R;
    std::this_thread::sleep_for(std::chrono::milliseconds(R.RetryAfterMs));
  }
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The serve.* layer figures of one server and its request latencies.
void recordServe(Pass &Ps, const serve::Server &S,
                 const std::vector<double> &Hit,
                 const std::vector<double> &Miss) {
  Counters &L = Ps.Layers;
  L.add("serve.requests", static_cast<double>(Hit.size() + Miss.size()));
  L.add("serve.hits", static_cast<double>(Hit.size()));
  L.add("serve.hit_p50_ms", median(Hit));
  L.add("serve.miss_p50_ms", median(Miss));
  L.add("serve.evictions", static_cast<double>(S.cacheStats().Evictions));
  L.add("serve.shed", static_cast<double>(S.stats().Shed));
  L.add("serve.quarantines", static_cast<double>(S.stats().Quarantines));
}

/// Serve-layer figures for a one-shot workload's traced pass: its
/// lightest queries through a fresh in-process server, once cold and
/// once warm.
void serveProbe(Pass &Ps, const std::vector<const Query *> &Qs,
                const std::vector<double> &CpuMs) {
  serve::Server S(serveOptions(Ps.A));
  std::vector<const Query *> Light;
  for (size_t I = 0; I < Qs.size() && Light.size() < 12; ++I)
    if (CpuMs[I] < 50)
      Light.push_back(Qs[I]);
  std::vector<double> Miss, Hit;
  for (int Round = 0; Round < 2; ++Round)
    for (const Query *Q : Light) {
      double W0 = wallMs();
      serve::Response R = submit(S, Q->Text);
      (R.Cache == "hit" ? Hit : Miss).push_back(wallMs() - W0);
    }
  recordServe(Ps, S, Hit, Miss);
}

/// Untimed verdict gate for one one-shot query.
void gate(Pass &Ps, const Query &Q, const Solved &S, QueryRecord &Rec) {
  bool Determinate = Rec.V != Verdict::Unknown;
  bool ModelOk = true;
  if (Rec.V == Verdict::Sat) {
    ModelOk = modelHolds(S.P, S.R);
    Ps.Checks.add("models_checked", 1);
  }
  if (Rec.V == Verdict::Unsat && Ps.A.Recheck &&
      Ps.A.Workload == "symex") {
    // Independent Unsat evidence for a seed with no recorded verdicts.
    solver::EqReductionOptions EO;
    EO.TimeoutMs = Ps.A.TimeoutMs;
    Verdict E = solver::solveEqReduction(S.P, EO).V;
    Ps.Checks.add(E == Verdict::Unsat ? "unsat_eqred_agree"
                  : E == Verdict::Sat ? "unsat_eqred_disagree"
                                      : "unsat_eqred_unknown",
                  1);
    if (E == Verdict::Sat)
      ModelOk = false;
  }
  Rec.Ok = Determinate && Rec.V == Q.Expected && ModelOk;
  Rec.Wrong = Determinate && !Rec.Ok;
  if (Rec.Wrong)
    std::fprintf(stderr,
                 "postr_perf: WRONG verdict %s (expected %s%s) on %s\n",
                 verdictName(Rec.V), verdictName(Q.Expected),
                 ModelOk ? "" : ", model or evidence rejected",
                 Q.Origin.c_str());
}

void runOneShot(Pass &Ps) {
  const Args &A = Ps.A;
  // Set-up: warm-up solves on the disjoint draw, repeated.
  for (uint32_t K = 0; K < A.Setups; ++K) {
    double C0 = processCpuMs();
    for (const Query &Q : Ps.D.Warmup) {
      QueryRecord Scratch;
      solveOneShot(Q, A, Scratch);
    }
    Ps.SetupCpuS.push_back((processCpuMs() - C0) / 1e3);
  }

  std::vector<Solved> Results;
  Ps.Recs.resize(Ps.D.Timed.size());
  for (size_t I = 0; I < Ps.D.Timed.size(); ++I) {
    if (A.Light && Ps.D.Timed[I].Heavy) {
      Ps.Recs[I].WallMs = Ps.Recs[I].CpuMs = -1;
      Results.emplace_back();
      continue;
    }
    Ps.T.setQuery(static_cast<uint32_t>(I));
    Results.push_back(
        A.Trace ? solveTraced(Ps.D.Timed[I], A, Ps.T, Ps.Layers, Ps.Recs[I])
                : solveOneShot(Ps.D.Timed[I], A, Ps.Recs[I]));
  }

  for (size_t I = 0; I < Ps.D.Timed.size(); ++I)
    if (Ps.Recs[I].CpuMs >= 0)
      gate(Ps, Ps.D.Timed[I], Results[I], Ps.Recs[I]);

  if (A.Trace) {
    std::vector<const Query *> Qs;
    std::vector<double> Cpu;
    for (size_t I = 0; I < Ps.D.Timed.size(); ++I) {
      Qs.push_back(&Ps.D.Timed[I]);
      Cpu.push_back(Ps.Recs[I].CpuMs);
    }
    deadlineProbes(Ps, Qs, Cpu);
    serveProbe(Ps, Qs, Cpu);
  }
}

//===----------------------------------------------------------------------===//
// serve-replay
//===----------------------------------------------------------------------===//

void runServe(Pass &Ps) {
  const Args &A = Ps.A;
  std::optional<serve::Server> Srv;
  for (uint32_t K = 0; K < A.Setups; ++K) {
    Srv.reset();
    double C0 = processCpuMs();
    Srv.emplace(serveOptions(A));
    for (const Query &Q : Ps.D.Warmup)
      submit(*Srv, Q.Text);
    Ps.SetupCpuS.push_back((processCpuMs() - C0) / 1e3);
  }

  const std::vector<Query> &Corpus = Ps.D.Timed;
  size_t ColdLen = 0;
  std::vector<uint32_t> Log =
      serveLog(static_cast<uint32_t>(Corpus.size()), A.Seed, ColdLen);
  Ps.Recs.resize(Log.size());
  std::vector<Tracer> ClientTrace(2);

  // Closed loop: each client sends its next request when the previous
  // reply arrives. The cold pass finishes before the revisits start, so
  // which requests hit the cache does not depend on thread timing.
  auto Phase = [&](size_t Begin, size_t End) {
    std::atomic<size_t> Next{Begin};
    auto Client = [&](int C) {
      for (size_t I; (I = Next.fetch_add(1)) < End;) {
        const Query &Q = Corpus[Log[I]];
        QueryRecord &Rec = Ps.Recs[I];
        double W0 = wallMs(), C0 = threadCpuMs();
        if (A.Trace) {
          // The request path's front end, from the client side.
          Tracer &T = ClientTrace[C];
          T.setQuery(static_cast<uint32_t>(I));
          strings::Problem P = [&] {
            SpanScope S(&T, "smtlib.parse");
            return parseOrDie(Q.Text);
          }();
          {
            SpanScope S(&T, "smtlib.print");
            smtlib::printProblem(P);
          }
          SpanScope S(&T, "strings.normalize");
          strings::normalize(P);
        }
        serve::Response R = submit(*Srv, Q.Text);
        Rec.WallMs = wallMs() - W0;
        // In-process workers solve on the calling thread, so the client
        // thread's CPU time is the request's whole service time.
        Rec.CpuMs = threadCpuMs() - C0;
        Rec.V = R.Verdict == "sat"     ? Verdict::Sat
                : R.Verdict == "unsat" ? Verdict::Unsat
                                       : Verdict::Unknown;
        Rec.Cache = R.Cache;
        if (R.Reason == "timeout")
          Rec.Stop = StopReason::Timeout;
        if (R.S == serve::Response::Error)
          std::fprintf(stderr, "postr_perf: serve error: %s\n",
                       R.Message.c_str());
      }
    };
    std::thread Other(Client, 1);
    Client(0);
    Other.join();
  };
  Phase(0, ColdLen);
  Phase(ColdLen, Log.size());

  for (size_t I = 0; I < Log.size(); ++I) {
    QueryRecord &Rec = Ps.Recs[I];
    const Query &Q = Corpus[Log[I]];
    bool Determinate = Rec.V != Verdict::Unknown;
    Rec.Ok = Determinate && Rec.V == Q.Expected;
    Rec.Wrong = Determinate && !Rec.Ok;
    if (Rec.Wrong)
      std::fprintf(stderr, "postr_perf: WRONG served verdict %s on %s\n",
                   verdictName(Rec.V), Q.Origin.c_str());
  }

  std::vector<double> Hit, Miss;
  for (const QueryRecord &Rec : Ps.Recs)
    (Rec.Cache == "hit" ? Hit : Miss).push_back(Rec.WallMs);
  recordServe(Ps, *Srv, Hit, Miss);

  if (A.Trace) {
    for (const Tracer &T : ClientTrace)
      addTotals(Ps.ExtraSpans, T.totals());
    // The solver layers of the misses: each distinct query once more,
    // one-shot and traced, after the replay (untimed).
    std::vector<const Query *> Qs;
    std::vector<double> Cpu;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      QueryRecord Scratch;
      Ps.T.setQuery(static_cast<uint32_t>(Log.size() + I));
      solveTraced(Corpus[I], A, Ps.T, Ps.Layers, Scratch);
      Qs.push_back(&Corpus[I]);
      Cpu.push_back(Scratch.CpuMs);
    }
    deadlineProbes(Ps, Qs, Cpu);
  }
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printPass(Pass &Ps, const std::string &Fingerprint) {
  Json J;
  J.open('{');
  J.key("workload").str(Ps.A.Workload);
  J.key("seed").num(Ps.A.Seed);
  J.key("trace").num(Ps.A.Trace);
  J.key("light").num(Ps.A.Light);
  J.key("fingerprint").str(Fingerprint);
  J.key("timeout_ms").num(static_cast<double>(Ps.A.TimeoutMs));
  J.key("setup_cpu_s").open('[');
  for (double V : Ps.SetupCpuS)
    J.num(V);
  J.close(']');
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  J.key("peak_rss_mb").num(static_cast<double>(RU.ru_maxrss) / 1024.0);
  J.key("queries").open('[');
  for (const QueryRecord &R : Ps.Recs) {
    J.open('[');
    J.num(R.WallMs).num(R.CpuMs).str(verdictName(R.V)).num(R.Ok).num(R.Wrong);
    J.str(stopName(R.Stop)).str(R.Cache);
    J.close(']');
  }
  J.close(']');
  SpanTotals Spans = Ps.T.totals();
  addTotals(Spans, Ps.ExtraSpans);
  J.key("expected").open('[');
  for (const Query &Q : Ps.D.Timed)
    J.str(verdictName(Q.Expected));
  J.close(']');
  J.key("spans").open('{');
  for (const auto &[Name, Tot] : Spans) {
    J.key(Name).open('[');
    J.num(static_cast<double>(Tot.Count)).num(Tot.Ms).num(Tot.SelfMs);
    J.close(']');
  }
  J.close('}');
  J.key("span_records").num(static_cast<double>(Ps.T.size()));
  J.key("layers").open('{');
  for (const auto &[K, V] : Ps.Layers.C)
    J.key(K).num(V);
  J.close('}');
  J.key("checks").open('{');
  for (const auto &[K, V] : Ps.Checks.C)
    J.key(K).num(V);
  J.close('}');
  J.close('}');
  std::printf("%s\n", J.text().c_str());
}

Draw drawFor(const Args &A) {
  if (A.Workload == "position-hard")
    return drawPositionHard(A.Seed);
  Result<std::vector<PoolEntry>> Pool =
      loadPool(A.DataDir + "/symex_pool.tsv");
  if (!Pool)
    die(Pool.error());
  Result<Draw> D = A.Workload == "symex" ? drawSymex(*Pool, A.Seed)
                                         : drawServe(*Pool, A.Seed);
  if (!D)
    die(D.error());
  return std::move(*D);
}

/// Verifies the pool's recorded text hashes against the generator: a
/// changed generator or printer fails loudly instead of benchmarking
/// different inputs under the old expected verdicts.
void checkPoolHashes(const Args &A) {
  if (A.Workload == "position-hard")
    return;
  Result<std::vector<PoolEntry>> Pool =
      loadPool(A.DataDir + "/symex_pool.tsv");
  if (!Pool)
    die(Pool.error());
  for (const PoolEntry &E : *Pool)
    if (fnv1a(printPoolEntry(E)) != E.TextHash)
      die("FINGERPRINT MISMATCH: pool entry " + E.Family + "/" +
          std::to_string(E.GenSeed) + "/" + std::to_string(E.Index) +
          " no longer prints the recorded text");
}

int runCorpus(const Args &A) {
  checkPoolHashes(A);
  Draw D = drawFor(A);
  Json J;
  J.open('{');
  J.key("workload").str(A.Workload);
  J.key("seed").num(A.Seed);
  J.key("fingerprint").str(fingerprint(D.Timed));
  J.key("queries").num(static_cast<double>(D.Timed.size()));
  J.key("warmup").num(static_cast<double>(D.Warmup.size()));
  J.key("verdicts").open('[');
  for (const Query &Q : D.Timed)
    J.str(verdictName(Q.Expected));
  J.close(']');
  J.key("origins").open('[');
  for (const Query &Q : D.Timed)
    J.str(Q.Origin);
  J.close(']');
  J.close('}');
  std::printf("%s\n", J.text().c_str());
  return 0;
}

int runPass(const Args &A) {
  checkPoolHashes(A);
  Pass Ps;
  Ps.A = A;
  Ps.D = drawFor(A);
  std::string Fp = fingerprint(Ps.D.Timed);
  if (A.Workload == "serve-replay")
    runServe(Ps);
  else
    runOneShot(Ps);
  printPass(Ps, Fp);
  return 0;
}

//===----------------------------------------------------------------------===//
// Pool recording
//===----------------------------------------------------------------------===//

int runRecord(int Argc, char **Argv) {
  if (Argc != 8)
    die("usage: record FAMILY GENSEED FROM TO CAP_MS EQ_CAP_MS");
  std::string Fam = Argv[2];
  bench::Family F = Fam == "biopython" ? bench::Family::Biopython
                    : Fam == "django"  ? bench::Family::Django
                                       : bench::Family::Thefuck;
  uint32_t GenSeed = std::atoi(Argv[3]), From = std::atoi(Argv[4]),
           To = std::atoi(Argv[5]);
  uint64_t Cap = std::atoll(Argv[6]), EqCap = std::atoll(Argv[7]);
  for (uint32_t I = From; I < To; ++I) {
    std::string Text = smtlib::printProblem(bench::generate(F, GenSeed, I));
    strings::Problem P = parseOrDie(Text);
    solver::SolveOptions O;
    O.TimeoutMs = Cap;
    double C0 = threadCpuMs();
    solver::SolveResult R = solver::solveProblem(P, O);
    double Cpu = threadCpuMs() - C0;
    const char *Status = "undecided";
    if (R.V == Verdict::Sat) {
      Status = modelHolds(P, R) ? "ok" : "model-rejected";
    } else if (R.V == Verdict::Unsat) {
      solver::EqReductionOptions EO;
      EO.TimeoutMs = EqCap;
      Verdict E = solver::solveEqReduction(P, EO).V;
      Status = E == Verdict::Unsat ? "ok"
               : E == Verdict::Sat ? "conflict"
                                   : "unconfirmed";
    }
    std::printf("%s\t%u\t%u\t%s\t%.3f\t%016llx\t%s\t%s\n", Fam.c_str(),
                GenSeed, I, verdictName(R.V), Cpu,
                static_cast<unsigned long long>(fnv1a(Text)), Status,
                stopName(R.Stop));
    std::fflush(stdout);
  }
  return 0;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + K);
      return Argv[++I];
    };
    if (K == "--workload")
      A.Workload = Val();
    else if (K == "--seed")
      A.Seed = static_cast<uint32_t>(std::stoul(Val()));
    else if (K == "--data")
      A.DataDir = Val();
    else if (K == "--setups")
      A.Setups = static_cast<uint32_t>(std::stoul(Val()));
    else if (K == "--timeout-ms")
      A.TimeoutMs = std::stoull(Val());
    else if (K == "--trace")
      A.Trace = true;
    else if (K == "--light")
      A.Light = true;
    else if (K == "--recheck")
      A.Recheck = true;
    else
      die("unknown argument " + K);
  }
  if (A.Workload != "symex" && A.Workload != "position-hard" &&
      A.Workload != "serve-replay")
    die("unknown workload '" + A.Workload + "'");
  if (A.Setups == 0)
    die("--setups must be at least 1");
  if (A.Light && (A.Trace || A.Workload == "serve-replay"))
    die("--light is for untraced one-shot passes");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: postr_perf pass|corpus|record ...");
  std::string Mode = Argv[1];
  if (Mode == "record")
    return runRecord(Argc, Argv);
  Args A = parseArgs(Argc, Argv);
  if (Mode == "corpus")
    return runCorpus(A);
  if (Mode == "pass")
    return runPass(A);
  die("unknown mode " + Mode);
}
