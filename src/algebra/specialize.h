#ifndef DATACELL_ALGEBRA_SPECIALIZE_H_
#define DATACELL_ALGEBRA_SPECIALIZE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algebra/kernels.h"
#include "algebra/lowering.h"
#include "algebra/plan.h"
#include "algebra/profile.h"

namespace datacell {

class BatchPool;

/// Registration-time plan specialization.
///
/// A continuous query's plan is fixed for the query's whole lifetime, so the
/// per-firing work of the tree interpreter — walking PlanNode children,
/// re-matching predicates against the lowering rules, type-switching inside
/// every operator, copying the binding map — is pure overhead on the hot
/// path. PlanRunner does all of that once at SubmitContinuousQuery
/// time and emits a SpecializedPipeline: a flat chain of pre-bound,
/// type-resolved steps the factory drives directly with each drained batch.
///
/// The supported shape is the canonical continuous-query chain the SQL
/// planner emits (each stage optional):
///
///   [scalar Aggregate] -> [Project] -> [Filter...] ->
///       (Scan(stream) | HashJoin(Scan(stream), Scan(static table)))
///
/// plus these per-stage forms:
///   - filters: kernel-lowerable comparisons (lowering.h), <>, LIKE,
///     IS [NOT] NULL, and AND/OR/NOT combinations thereof; any other
///     predicate term (bool columns, computed operands, column-column
///     comparisons, ...) is a generic leaf the expression evaluator turns
///     into a selection vector, so every filter compiles; constant
///     predicates are folded away (always-true) or pinned to an empty
///     selection (always-false — the analyzer warns separately);
///   - projections: column references and column-op-literal arithmetic;
///   - aggregates: count(*)/count/sum/min/max/avg without GROUP BY;
///   - join: stream on the probe side, integer-backed keys; the hash index
///     over the static side is built once and probed per firing.
///
/// Window sub-plans (core/window.h) compile the same way. Anything else
/// (group-by, stream-stream joins, sort/distinct/limit/union, computed
/// projections, ...) falls back to the interpreter with a human-readable
/// reason, surfaced per query via the shell's \explain and counted by the
/// engine's metrics. Results are
/// identical to the interpreter's, with one documented exception: fused
/// filter+aggregate sums associate in four lanes, so floating-point sums
/// over values not exactly representable in double can differ in the last
/// ulp (the same caveat morsel-parallel aggregation carries, operators.h).
class SpecializedPipeline {
 public:
  /// Executes the compiled chain over one drained input batch. `pool`, when
  /// non-null, supplies recycled buffers for the result (and is given back
  /// intermediate join tables). Not thread-safe: the factory's exactly-once
  /// Fire() discipline serialises calls.
  Result<TablePtr> Run(const Table& input, const ExecContext& ctx,
                       BatchPool* pool);

  /// Human-readable step list for \explain.
  std::string Describe() const { return description_; }

  /// Pass-4 state accounting: bytes held by the registration-built join
  /// state (build-side table estimated at `string_bytes` per string value,
  /// plus the hash index arrays). The only cross-firing state the pipeline
  /// owns; 0 for join-free pipelines.
  size_t JoinStateBytes(int64_t string_bytes) const;

  /// Registers this pipeline's stages as profile steps at tree depth
  /// `depth` (one per present stage, in execution order); Run() then
  /// accumulates per-stage rows and time whenever the ExecContext carries
  /// that profile. A fused kernel pass records its whole span on one step —
  /// fused filter→project on the filter step, fused filter→aggregate on the
  /// aggregate step — so stage times sum to the measured work.
  void RegisterProfileSteps(PipelineProfile* profile, int depth);

 private:
  friend class PipelineBuilder;

  /// Compiled filter predicate: a tree over position-set leaves. Constant
  /// subtrees are folded at compile time, so kTrue/kFalse only ever appear
  /// as the root (tracked by always_false_ / absence of the filter).
  struct Pred {
    enum class Kind {
      kLowered,    // range / string-eq via the shared lowering rules
      kNotEqual,   // <> over a lowerable equality: complement minus nulls
      kIsNull,
      kIsNotNull,
      kLike,       // string column LIKE literal pattern
      kNot,        // plain complement (null operand evaluates true)
      kAnd,
      kOr,
      kGeneric,    // any other term: EvaluatePredicate over `expr`
    };
    Kind kind = Kind::kLowered;
    LoweredSelect lowered;    // kLowered / kNotEqual
    size_t column = 0;        // kIsNull / kIsNotNull / kLike
    std::string pattern;      // kLike
    ExprPtr expr;             // kGeneric
    std::vector<Pred> children;
  };

  /// Compiled projection: a column gather or column-op-literal arithmetic
  /// with the operand order and output type pre-resolved.
  struct Proj {
    enum class Kind { kColumn, kArith };
    Kind kind = Kind::kColumn;
    size_t column = 0;
    BinaryOp op = BinaryOp::kAdd;
    bool literal_on_left = false;
    Value literal;
    DataType out_type = DataType::kInt64;
  };

  /// Compiled scalar aggregate.
  struct Agg {
    AggFunc func = AggFunc::kCount;
    bool count_star = false;
    size_t column = 0;
    DataType col_type = DataType::kInt64;
  };

  /// Stream ⋈ static-table step. The hash index is (re)built lazily when
  /// the static table's row count moves — catalog tables are append-only,
  /// so a count check detects staleness.
  struct Join {
    size_t probe_key = 0;
    size_t build_key = 0;
    TablePtr build_table;
    Schema mid_schema;
    kernel::Int64HashIndex index;
    size_t built_rows = static_cast<size_t>(-1);
  };

  Status EvalPred(const Pred& p, const Table& in, const ExecContext& ctx,
                  std::vector<size_t>* out) const;
  Result<TablePtr> RunStages(const Table& in, const ExecContext& ctx,
                             BatchPool* pool);
  Result<TablePtr> RunAggregate(const Table& in, const ExecContext& ctx,
                                BatchPool* pool);
  Status RunProjection(const Proj& p, const Table& in,
                       const std::vector<size_t>* positions, Bat* out) const;
  TablePtr AcquireOutput(BatchPool* pool) const;

  size_t input_arity_ = 0;
  std::optional<Join> join_;
  std::optional<Pred> filter_;
  bool always_false_ = false;  // filter folded to constant false
  std::optional<std::vector<Proj>> project_;
  std::optional<std::vector<Agg>> aggregates_;
  // Projection applied to the one-row aggregate output (the planner places
  // a Project above every Aggregate to reorder/derive the final columns).
  std::optional<std::vector<Proj>> post_project_;
  Schema agg_schema_;  // aggregate output schema, the post-projection input
  Schema output_schema_;
  std::string description_;
  // Profile step indices (kNoStep when the stage is absent or no profile was
  // registered). The pipeline holds indices only; the profile itself arrives
  // per-run through the ExecContext, keeping the disabled path at one null
  // check.
  size_t join_step_ = PipelineProfile::kNoStep;
  size_t filter_step_ = PipelineProfile::kNoStep;
  size_t project_step_ = PipelineProfile::kNoStep;
  size_t agg_step_ = PipelineProfile::kNoStep;
  size_t post_step_ = PipelineProfile::kNoStep;
  // Reused per-firing scratch (exclusive to the owning factory's Fire()).
  std::vector<size_t> sel_, probe_pos_, build_pos_;
};

/// A plan compiled once at registration and run per firing over fresh stream
/// slices: the specialized pipeline when the plan compiles, else the
/// interpreter over the static bindings plus the slices. Factories and
/// window executors drive every continuous plan through this one class.
class PlanRunner {
 public:
  /// Run()'s inputs align with the `streams` bind names; `static_bindings`
  /// resolves catalog-table scans. The plan is specialized when `specialize`
  /// is set and there is exactly one stream.
  PlanRunner(PlanPtr plan, std::vector<std::string> streams,
             PlanBindings static_bindings, bool specialize);

  /// Runs the plan over one slice per stream; `pool` (may be null) supplies
  /// result buffers. Not thread-safe: callers serialise runs.
  Result<TablePtr> Run(std::span<const TablePtr> inputs,
                       const ExecContext& ctx, BatchPool* pool);

  bool specialized() const { return pipeline_ != nullptr; }
  /// Why specialization was not applied (empty when it was).
  const std::string& fallback_reason() const { return fallback_reason_; }
  /// \explain: the specialized step list, or interpreter + fallback reason.
  std::string Describe() const;
  /// Pipeline stages, or one step per plan node, at tree depth `depth`.
  void RegisterProfileSteps(PipelineProfile* profile, int depth);
  /// SpecializedPipeline::JoinStateBytes; 0 on the interpreter.
  size_t JoinStateBytes(int64_t string_bytes) const;

 private:
  PlanPtr plan_;
  std::vector<std::string> streams_;
  PlanBindings static_bindings_;
  std::unique_ptr<SpecializedPipeline> pipeline_;
  std::string fallback_reason_;
};

}  // namespace datacell

#endif  // DATACELL_ALGEBRA_SPECIALIZE_H_
