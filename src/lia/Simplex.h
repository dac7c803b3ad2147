//===- lia/Simplex.h - General simplex with branch-and-bound -----*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The theory back-end of the DPLL(T) LIA solver: a Dutertre–de Moura
/// style general simplex over exact rationals, extended with
/// branch-and-bound to obtain integer models. This plays the role of Z3's
/// "Simplex method extended with a branch-and-cut strategy" that the
/// paper's implementation delegates to (Sec. 8).
///
/// The tableau maintains one row per registered linear term (a slack
/// variable); asserted literals become bounds on original or slack
/// variables. Bounds are snapshot/restorable, which both the DPLL(T)
/// conflict-minimization loop and the branch-and-bound recursion use.
///
/// Rows are sparse: sorted column indices with integer numerators over
/// one common denominator per row. The Parikh/position encoders emit
/// length- and span-sum terms 1000+ monomials wide, so pivots are bound
/// by actual support, the per-entry rational normalization of a dense
/// `vector<Rational>` tableau collapses into a single gcd pass per row,
/// and registering a variable no longer extends every existing row.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_LIA_SIMPLEX_H
#define POSTR_LIA_SIMPLEX_H

#include "base/Hash.h"
#include "lia/Lia.h"
#include "lia/Rational.h"

#include <atomic>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

namespace postr {

class Budget;

namespace lia {

/// Tri-state outcome of an integer feasibility check. `Unknown` is
/// produced only when the branch-and-bound node budget is exhausted.
enum class TheoryResult { Sat, Unsat, Unknown };

/// Leaving-variable selection rule for the feasibility loop. A context
/// starts on the rule its `QfOptions::Pivot` names. A SparsestRow
/// context falls back to Bland's when its restorations run long (the
/// degrade fence) and earns SparsestRow back after a long run of cheap
/// checks; a Bland context stays on Bland. Either rule hands every
/// selection to Bland's order once a single check loops past its pivot
/// threshold, which terminates unconditionally.
enum class PivotRule : uint8_t {
  Bland,       ///< smallest violated basic index
  SparsestRow, ///< violated basic with the fewest row nonzeros
};

/// Number of PivotRule values, for per-rule counter arrays.
constexpr size_t NumPivotRules = 2;

/// Cumulative tableau counters (perf triage; emitted by bench_hotpath as
/// `simplex_counters`).
struct SimplexStats {
  uint64_t Pivots = 0;   ///< basis changes
  uint64_t Checks = 0;   ///< feasibility scans (checkRational calls)
  uint64_t RowFillIn = 0; ///< entries created by pivot elimination
  uint64_t MaxRowNnz = 0; ///< widest row ever produced
  uint64_t DenNormalizations = 0; ///< row gcd passes that actually reduced
  uint64_t RuleSwitches = 0; ///< degrade-fence fallbacks to Bland taken
  uint64_t FenceRecoveries = 0; ///< fenced contexts re-earning SparsestRow
  /// Pivots attributed to the rule whose selection chose them (indexed
  /// by PivotRule; sums to Pivots). The Bland share includes the
  /// in-check long-restoration fallback of a SparsestRow context.
  uint64_t PivotsByRule[NumPivotRules] = {0, 0};
};

class Simplex {
public:
  /// \p NumProblemVars original integer variables; indices [0,
  /// NumProblemVars) coincide with `Arena` variables. \p Start is the
  /// rule the first checkRational() runs on.
  explicit Simplex(uint32_t NumProblemVars,
                   PivotRule Start = PivotRule::SparsestRow);

  uint32_t numProblemVars() const { return NumProblemVars; }

  /// Sets an intrinsic bound on an original variable (e.g. Parikh
  /// counters are >= 0). INT64_MIN / INT64_MAX mean unbounded.
  void setIntrinsicBounds(Var V, int64_t Lo, int64_t Hi);

  /// Appends a fresh *problem* (integral, branch-and-bound-relevant)
  /// variable after construction and returns its extended index. This is
  /// how incremental contexts grow the tableau when the arena mints
  /// variables between solves: the new variable starts nonbasic at 0 with
  /// the given intrinsic bounds, no existing row is touched, and the
  /// current basis stays valid. Note the returned index is in the
  /// *extended* numbering (it lands after any slack already registered),
  /// so callers maintain their own arena-var → extended-var map.
  uint32_t addProblemVar(int64_t Lo = INT64_MIN, int64_t Hi = INT64_MAX);

  /// Registers the linear part of \p T (its constant is ignored) and
  /// returns the index of the extended variable carrying its value.
  /// Duplicate terms share one slack variable.
  uint32_t rowFor(const LinTerm &T);
  /// Same, over an explicit (sorted, zero-free) coefficient vector in
  /// *extended*-variable space — the incremental context uses this after
  /// translating arena variables through its own map.
  uint32_t rowFor(const std::vector<std::pair<Var, int64_t>> &Coeffs);

  /// Opaque token attached to an asserted bound; conflict explanations
  /// report the tokens of the bounds involved. NoReason-tagged bounds
  /// (intrinsic bounds, branch-and-bound splits) are omitted from
  /// explanations.
  static constexpr uint32_t NoReason = ~0u;

  /// Reserved reason-code range for branch-and-bound split bounds when
  /// certificate recording is on: `SplitBase + depth` identifies the
  /// split at that depth of the current branch path. Codes at or above
  /// SplitBase never appear in `conflictReasons()` (they resolve away in
  /// the certificate tree, exactly like NoReason); they only occur in
  /// `conflictCert()` terms. With recording off, splits carry NoReason
  /// as before and behavior is bit-identical.
  static constexpr uint32_t SplitBase = 0x80000000u;

  /// One term of a recorded Farkas combination: `Mult` (strictly
  /// positive) times the `Upper` or lower bound of extended variable
  /// `ExtVar`, where `Reason` identifies the bound's origin — the
  /// asserting literal code, NoReason for an intrinsic bound, or
  /// `SplitBase + depth` for a branch split on the current path.
  struct FarkasTerm {
    uint32_t Reason = NoReason;
    uint32_t ExtVar = 0;
    bool Upper = false;
    Rational Mult;
  };
  struct FarkasLeafRec {
    std::vector<FarkasTerm> Terms;
  };
  /// Certificate tree node: terminal Farkas leaf (Leaf >= 0) or an
  /// integer split `ExtVar <= Floor | ExtVar >= Floor + 1`.
  struct CertNodeRec {
    int32_t Leaf = -1;
    uint32_t ExtVar = 0;
    int64_t Floor = 0;
    int32_t Down = -1, Up = -1;
  };
  /// Certificate of the most recent conflict: a single-leaf tree for a
  /// rational conflict (immediate bound clash or infeasible row), a
  /// proper split tree for an integrality conflict.
  struct ConflictCert {
    std::vector<FarkasLeafRec> Leaves;
    std::vector<CertNodeRec> Nodes;
    int32_t Root = -1;
  };

  /// Enables Farkas-certificate recording: every subsequent conflict
  /// (failed assert, failed checkRational, Unsat checkInteger) leaves
  /// its justification in `conflictCert()`. Off by default — recording
  /// never changes search decisions, but allocation is not free.
  void setCertRecording(bool On) { CertOn = On; }
  /// Certificate of the most recent conflict; valid immediately after a
  /// false assertUpper/assertLower, a false checkRational, or an Unsat
  /// checkInteger, while recording is on (Root == -1 otherwise).
  const ConflictCert &conflictCert() const { return Cert; }

  /// Asserts value(X) <= U / >= L. Returns false on an immediate bound
  /// conflict, with `conflictReasons()` filled (the caller then reports
  /// a theory conflict). Tightened bounds are recorded on an assertion
  /// trail for `rollback`.
  bool assertUpper(uint32_t X, const Rational &U, uint32_t Reason = NoReason);
  bool assertLower(uint32_t X, const Rational &L, uint32_t Reason = NoReason);

  /// Assertion-trail position, for backtracking with `rollback`.
  size_t mark() const { return AssertTrail.size(); }
  /// Undoes every bound asserted after \p Mark. The tableau and the
  /// current assignment stay as they are (both remain valid; feasibility
  /// can only improve when bounds get looser).
  void rollback(size_t Mark);

  /// Declares the current bound set the *baseline* (typically right after
  /// the intrinsic bounds). `resetToBaseline` then restores it wholesale
  /// — O(vars) instead of walking a long assertion trail one bound at a
  /// time — while keeping the tableau basis and the current assignment,
  /// which warm-starts the next CEGAR episode from the last vertex.
  void markBaseline();
  /// Restores the baseline bounds. Variables registered after
  /// markBaseline() become unbounded. The assertion trail is cleared
  /// (mark() == 0 afterwards).
  void resetToBaseline();

  /// Rational feasibility of the current bounds. On infeasibility,
  /// `conflictReasons()` holds the reasons of an inconsistent bound set
  /// (the violated basic bound plus the blocking nonbasic bounds — the
  /// standard Dutertre–de Moura explanation).
  bool checkRational();

  /// Reasons explaining the most recent assertUpper/assertLower/
  /// checkRational failure, deduplicated, NoReason entries dropped.
  const std::vector<uint32_t> &conflictReasons() const { return Conflict; }

  /// Integer feasibility via branch-and-bound on the problem variables
  /// (constructor-time originals plus addProblemVar additions, in
  /// registration order — which is how ModelOut is indexed). On
  /// Unsat, `conflictReasons()` holds the union of the leaf explanations
  /// of the refutation tree — a valid integer-infeasibility core over the
  /// asserted bounds (the branch splits x ≤ f ∨ x ≥ f+1 are integer-valid
  /// and resolve away).
  TheoryResult checkInteger(std::vector<int64_t> &ModelOut,
                            uint64_t NodeBudget = 20000);

  /// Bound snapshot for backtracking (assignment included).
  struct Snapshot {
    std::vector<std::optional<Rational>> Lo, Hi;
    std::vector<Rational> Beta;
  };
  Snapshot save() const;
  void restore(const Snapshot &S);

  /// Current assignment of extended variable \p X (valid after a
  /// successful checkRational()).
  const Rational &value(uint32_t X) const { return Beta[X]; }

  /// Cumulative tableau counters (perf triage).
  const SimplexStats &stats() const { return Stats; }
  uint64_t numPivots() const { return Stats.Pivots; }
  uint64_t numChecks() const { return Stats.Checks; }

  /// The rule the next checkRational() starts on: Bland while the degrade
  /// fence holds, the start rule otherwise.
  PivotRule activeRule() const {
    return Degraded ? PivotRule::Bland : Start;
  }
  /// True while a SparsestRow context is fenced onto Bland.
  bool degraded() const { return Degraded; }

  /// Cooperative interruption: when the callback returns true,
  /// checkInteger() gives up at the next branch node (returning Unknown,
  /// the same resource-out its budget produces). The QF engine installs
  /// its budget probe here, so neither a timeout nor an external cancel
  /// has to sit out a full branch-and-bound tree (nodes cost whole
  /// Simplex re-checks; budgets alone overran deadlines by many seconds).
  void setInterrupt(std::function<bool()> F) { Interrupt = std::move(F); }

  /// Attaches a shared resource budget: tableau-row growth (rowFor) is
  /// charged against its memory cap. Interruption on trip still flows
  /// through the interrupt callback, which the owning context points at
  /// the same budget's checkpoint.
  void setBudget(Budget *B) { Bud = B; }

private:
  using Int = Rational::Int;

  /// One tableau row: value(BasicVar) = Σ (Nums[i]/Den)·Cols[i]. Cols is
  /// sorted ascending and zero-free — it doubles as the row's exact
  /// support list — and Den > 0 with gcd(Den, Nums...) == 1 (one
  /// normalization pass per mutation, not one per entry).
  struct SparseRow {
    std::vector<uint32_t> Cols;
    std::vector<Int> Nums;
    Int Den = 1;

    size_t size() const { return Cols.size(); }
    /// Index of column \p X, or SIZE_MAX when absent (binary search).
    size_t find(uint32_t X) const;
    bool contains(uint32_t X) const { return find(X) != SIZE_MAX; }
  };

  bool isBasic(uint32_t X) const { return RowOf[X] != ~0u; }
  /// Best entering column for leaving variable \p B (violated on its
  /// lower bound when \p NeedIncrease): fewest tableau nonzeros, smaller
  /// index on ties; plain smallest index under \p Bland. ~0u when no
  /// column is eligible — B's row then certifies infeasibility.
  uint32_t selectEntering(uint32_t B, bool NeedIncrease, bool Bland) const;
  void pivot(uint32_t B, uint32_t N);
  void updateNonbasic(uint32_t N, const Rational &V);
  bool pivotAndUpdate(uint32_t B, uint32_t N, const Rational &V);

  /// Divides the row's numerators and denominator by their common gcd
  /// and records the row's width in the fill statistics.
  void normalizeRow(SparseRow &Row);
  /// Entry (R, X) as a normalized rational (zero when absent).
  Rational rowCoeff(uint32_t R, uint32_t X) const;

  TheoryResult branch(std::vector<int64_t> &ModelOut, uint64_t &Budget,
                      uint32_t Depth, int32_t &NodeOut);

  /// True when \p R should appear in a conflict explanation (lemma):
  /// NoReason and split codes resolve away.
  static bool isLemmaReason(uint32_t R) {
    return R != NoReason && R < SplitBase;
  }
  /// Appends a Farkas leaf for the immediate clash of a new bound
  /// (\p NewReason, \p NewUpper) on \p X against the existing opposite
  /// bound; returns the new node index. Resets the cert first unless a
  /// branch-and-bound tree is being built.
  int32_t recordClashLeaf(uint32_t X, uint32_t NewReason, bool NewUpper);
  /// Appends a Farkas leaf read off the infeasible row of basic \p B.
  int32_t recordRowLeaf(uint32_t B, bool NeedIncrease);

  struct BoundUndo {
    uint32_t X;
    bool Upper;
    std::optional<Rational> Old;
    uint32_t OldReason;
  };

  uint32_t NumProblemVars;
  uint32_t NumVars; ///< original + slack
  /// Extended indices of the problem (integral) variables, in
  /// registration order: [0, NumProblemVars) then every addProblemVar.
  /// branch() searches these for fractional values and writes ModelOut
  /// in this order.
  std::vector<uint32_t> Integral;

  /// Rows: for each basic variable B, Beta[B] == value of row RowOf[B]
  /// under the nonbasic assignment. Sparse — see SparseRow.
  std::vector<SparseRow> Tableau;

  /// Transposed support: for each column X, the rows where X may be
  /// nonzero — stale-tolerant (rows whose entry cancelled to zero linger
  /// until the next walk compacts them), kept duplicate-free via InColNz
  /// — so updateNonbasic/pivotAndUpdate/pivot touch O(col nnz) rows
  /// instead of scanning the whole tableau per column. The per-row
  /// support needs no such scheme: a SparseRow's Cols is exact.
  void noteColNonzero(uint32_t R, uint32_t X) {
    std::vector<uint8_t> &In = InColNz[X];
    if (In.size() <= R)
      In.resize(Tableau.size() + 1, 0);
    if (!In[R]) {
      In[R] = 1;
      ColNz[X].push_back(R);
    }
  }
  /// Compacts ColNz[X] (drops rows whose entry went back to zero) and
  /// returns a reference.
  const std::vector<uint32_t> &compactCol(uint32_t X);
  std::vector<std::vector<uint32_t>> ColNz;  ///< per extended variable
  std::vector<std::vector<uint8_t>> InColNz; ///< per extended variable
  std::vector<uint32_t> RowOf;     ///< var -> row index or ~0u
  std::vector<uint32_t> BasicVar;  ///< row index -> var
  std::vector<Rational> Beta;      ///< current assignment
  std::vector<std::optional<Rational>> Lo, Hi;
  std::vector<uint32_t> LoReason, HiReason; ///< per extended variable

  std::function<bool()> Interrupt;
  std::vector<BoundUndo> AssertTrail;
  /// Baseline bound set captured by markBaseline() (sized to the
  /// variable count at capture time; later variables reset to unbounded).
  std::vector<std::optional<Rational>> BaseLo, BaseHi;
  std::vector<uint32_t> BaseLoReason, BaseHiReason;
  std::vector<uint32_t> Conflict;
  std::vector<uint32_t> IntegerCore; ///< accumulator for branch()
  bool CertOn = false;
  /// When true, conflict leaves append into the cert under construction
  /// (checkInteger's tree) instead of resetting it.
  bool InBranch = false;
  ConflictCert Cert;
  SimplexStats Stats;
  PivotRule Start;
  /// Degrade-fence state: fallback flag plus the rolling pivots-per-check
  /// window. The fence does not reopen freely — a context whose
  /// SparsestRow wandered once (the django shape) would pay the same
  /// degradation again every CEGAR/MBQI episode — but a fenced context
  /// re-earns SparsestRow after a long window of near-idle checks; see
  /// noteCheckDone.
  bool Degraded = false;
  uint64_t WindowChecks = 0;
  uint64_t WindowPivots = 0;
  uint64_t RecoveryChecks = 0;
  uint64_t RecoveryPivots = 0;
  Budget *Bud = nullptr;
  /// Folds one finished restoration into the fence signal; may flip
  /// Degraded (a check-boundary switch — the restoration that tripped it
  /// already ran to completion under the in-check Bland fallback).
  void noteCheckDone(uint64_t PivotsThisCheck);

  /// Lazily maintained superset of the basic variables whose β may be
  /// outside their bounds. Every code path that moves a basic β or
  /// tightens a basic bound enqueues the variable; checkRational verifies
  /// entries lazily, making the (dominant) all-feasible check O(queue)
  /// instead of O(rows).
  void touchBasic(uint32_t X) {
    if (!InViolQueue[X]) {
      InViolQueue[X] = true;
      ViolQueue.push_back(X);
    }
  }
  std::vector<uint32_t> ViolQueue;
  std::vector<uint8_t> InViolQueue;

  /// Per-column nonzero count across the tableau, maintained by pivot()
  /// and rowFor(). The entering-variable heuristic prefers sparse
  /// columns, which is the main defence against fill-in.
  std::vector<uint32_t> ColCount;

  /// Reused scratch: dense rational accumulator for rowFor's basic-row
  /// substitution (with its touched-marks), and the merge target of
  /// pivot elimination.
  std::vector<Rational> DenseScratch;
  std::vector<uint8_t> DenseMark;
  std::vector<uint32_t> DenseTouched;
  SparseRow MergeScratch;

  /// Slack interning: canonical (sorted, zero-free) coefficient vector →
  /// extended variable. Hashed — term registration is on the DPLL(T)
  /// setup hot path, one lookup per distinct atom.
  std::unordered_map<std::vector<std::pair<Var, int64_t>>, uint32_t,
                     TermKeyHash>
      TermToVar;
};

} // namespace lia
} // namespace postr

#endif // POSTR_LIA_SIMPLEX_H
