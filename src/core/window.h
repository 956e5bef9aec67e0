#ifndef DATACELL_CORE_WINDOW_H_
#define DATACELL_CORE_WINDOW_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "algebra/specialize.h"
#include "common/clock.h"
#include "sql/planner.h"

namespace datacell {

/// How a windowed continuous query is evaluated (§3.1).
enum class WindowMode {
  /// Incremental when the plan shape allows it, else re-evaluation.
  kAuto,
  /// Process each complete window from scratch — always applicable.
  kReEvaluation,
  /// Basic-window model (Zhu & Shasha): the window is split into
  /// slide-sized sub-windows whose per-group aggregate summaries are
  /// maintained once and merged per emission. Only aggregate-shaped plans
  /// over one input with slide dividing size qualify.
  kIncremental,
};

/// Executes the windowed portion of a continuous query. The owning factory
/// drains new tuples from its input basket and hands them to `Advance()`,
/// which evaluates every window that completes and returns the concatenated
/// results (empty table when no window completed).
///
/// Windows are realised purely by scheduling and plan re-binding over the
/// unchanged relational kernel — the paper's constraint of not adding
/// special window operators. Each window sub-plan runs through a PlanRunner,
/// like any continuous plan.
class WindowExecutor {
 public:
  virtual ~WindowExecutor() = default;

  /// Runs the sub-plans under `ctx`, the firing's execution context.
  virtual Result<TablePtr> Advance(const Table& new_tuples,
                                   const ExecContext& ctx) = 0;

  /// Tuples currently buffered awaiting window completion.
  virtual size_t buffered() const = 0;

  /// Tuples dropped because they arrived older than every live window.
  /// Safe to read while another thread advances the executor.
  virtual int64_t late_dropped() const { return 0; }

  /// "reeval" or "incremental" (for introspection and EXPERIMENTS.md).
  virtual const char* mode_name() const = 0;

  /// The runner every buffered tuple passes through: the whole plan
  /// (re-evaluation) or the chain below the aggregate (incremental).
  virtual const PlanRunner& runner() const = 0;
  /// \explain text: how each sub-plan runs.
  virtual std::string Describe() const = 0;
  /// Registers the sub-plans' profile steps; call once.
  virtual void RegisterProfileSteps(PipelineProfile* profile) = 0;

  /// Builds an executor for `query` (which must be windowed and have exactly
  /// one stream input). `static_bindings` supplies non-stream relations the
  /// plan joins against. kAuto picks incremental when the plan qualifies.
  static Result<std::unique_ptr<WindowExecutor>> Create(
      const sql::CompiledQuery& query, WindowMode mode,
      PlanBindings static_bindings, bool specialize);
};

namespace internal_window {

/// Decomposition of an aggregate-shaped plan used by the incremental
/// executor:   root --(Project/Filter)*--> Aggregate --(...)*--> Scan.
struct AggregateDecomposition {
  PlanPtr below_aggregate;  // Aggregate's child subtree (runs per chunk)
  const PlanNode* aggregate = nullptr;
  PlanPtr above_aggregate;  // rebuilt chain with Scan("__aggout") at leaf
  std::vector<size_t> group_columns;
  std::vector<AggSpec> aggregates;
  Schema aggregate_schema;
};

/// Attempts the decomposition; NotSupported-style error when the plan does
/// not match the incremental pattern.
Result<AggregateDecomposition> DecomposeAggregatePlan(const PlanPtr& root);

/// Name the rebuilt above-aggregate chain binds its input to.
inline constexpr const char* kAggOutBinding = "__aggout";

}  // namespace internal_window

}  // namespace datacell

#endif  // DATACELL_CORE_WINDOW_H_
