#include "core/window.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "common/check.h"

namespace datacell {

namespace internal_window {

Result<AggregateDecomposition> DecomposeAggregatePlan(const PlanPtr& root) {
  // Walk down through rebuildable unary nodes to the Aggregate.
  auto rebuildable = [](PlanKind k) {
    return k == PlanKind::kProject || k == PlanKind::kFilter ||
           k == PlanKind::kSort || k == PlanKind::kLimit ||
           k == PlanKind::kDistinct;
  };
  std::vector<const PlanNode*> above;  // root-first
  const PlanNode* node = root.get();
  while (rebuildable(node->kind())) {
    above.push_back(node);
    node = node->child().get();
  }
  if (node->kind() != PlanKind::kAggregate) {
    return Status::Unimplemented(
        "incremental windows require an aggregate-shaped plan");
  }
  AggregateDecomposition out;
  out.aggregate = node;
  out.group_columns = node->group_columns();
  out.aggregates = node->aggregates();
  out.aggregate_schema = node->output_schema();
  out.below_aggregate = node->child();

  // Below the aggregate only Project/Filter/Scan may appear (a join below
  // the aggregate would need cross-chunk state we do not maintain).
  const PlanNode* below = out.below_aggregate.get();
  while (below->kind() == PlanKind::kProject ||
         below->kind() == PlanKind::kFilter) {
    below = below->child().get();
  }
  if (below->kind() != PlanKind::kScan) {
    return Status::Unimplemented(
        "incremental windows require a single-scan pipeline below the "
        "aggregate");
  }

  // Rebuild the above-aggregate chain on a Scan of the aggregate output.
  DC_ASSIGN_OR_RETURN(PlanPtr rebuilt,
                      MakeScan(kAggOutBinding, out.aggregate_schema));
  for (auto it = above.rbegin(); it != above.rend(); ++it) {
    DC_ASSIGN_OR_RETURN(rebuilt, WithChild(**it, rebuilt));
  }
  out.above_aggregate = std::move(rebuilt);
  return out;
}

}  // namespace internal_window

namespace {

using internal_window::AggregateDecomposition;
using internal_window::kAggOutBinding;

/// Full re-evaluation: buffer tuples; when a window is complete, bind the
/// window slice to the plan's scan and run the whole plan from scratch.
class ReEvalWindowExecutor final : public WindowExecutor {
 public:
  ReEvalWindowExecutor(const sql::CompiledQuery& query,
                       PlanBindings static_bindings, bool specialize)
      : runner_(query.plan, {query.inputs[0].bind_name},
                std::move(static_bindings), specialize),
        window_(query.window),
        output_schema_(query.output_schema),
        buffer_(std::make_shared<Table>("__window_buffer",
                                        query.inputs[0].basket_schema)) {
    ts_column_ = buffer_->num_columns() - 1;
  }

  Result<TablePtr> Advance(const Table& new_tuples,
                           const ExecContext& ctx) override {
    DC_RETURN_NOT_OK(buffer_->AppendTable(new_tuples));
    auto out = std::make_shared<Table>("", output_schema_);
    if (window_.kind == sql::WindowSpec::Kind::kCount) {
      DC_RETURN_NOT_OK(AdvanceCount(ctx, out.get()));
    } else {
      DC_RETURN_NOT_OK(AdvanceTime(ctx, out.get()));
    }
    return out;
  }

  size_t buffered() const override { return buffer_->num_rows(); }
  const char* mode_name() const override { return "reeval"; }
  const PlanRunner& runner() const override { return runner_; }
  std::string Describe() const override { return runner_.Describe(); }
  void RegisterProfileSteps(PipelineProfile* profile) override {
    runner_.RegisterProfileSteps(profile, 0);
  }

 private:
  Status RunWindow(const TablePtr& window, const ExecContext& ctx,
                   Table* out) {
    DC_ASSIGN_OR_RETURN(TablePtr result,
                        runner_.Run(std::span(&window, 1), ctx, nullptr));
    return out->AppendTable(*result);
  }

  Status AdvanceCount(const ExecContext& ctx, Table* out) {
    size_t size = static_cast<size_t>(window_.size);
    size_t slide = static_cast<size_t>(window_.slide);
    while (buffer_->num_rows() >= size) {
      DC_RETURN_NOT_OK(RunWindow(TablePtr(buffer_->Slice(0, size)), ctx, out));
      buffer_->RemovePrefix(slide);
    }
    return Status::OK();
  }

  Status AdvanceTime(const ExecContext& ctx, Table* out) {
    const Bat& ts = *buffer_->column(ts_column_);
    if (ts.size() == 0) return Status::OK();
    Timestamp min_ts = ts.Int64At(0);
    Timestamp max_ts = min_ts;
    for (size_t i = 1; i < ts.size(); ++i) {
      min_ts = std::min(min_ts, ts.Int64At(i));
      max_ts = std::max(max_ts, ts.Int64At(i));
    }
    // Anchor the first window at the earliest tuple seen.
    if (!started_) {
      window_start_ = min_ts;
      started_ = true;
    }
    // A window closes once a tuple at/after its end has been observed —
    // the scheduler monitors incoming timestamps (§3.1). Expiry removes
    // only tuples before the next window's start, so the buffer's maximum
    // stands until the buffer empties.
    while (buffer_->num_rows() > 0 && max_ts >= window_start_ + window_.size) {
      Timestamp window_end = window_start_ + window_.size;
      std::vector<size_t> in_window = SelectRangeInt64(
          *buffer_->column(ts_column_), window_start_, window_end - 1);
      DC_RETURN_NOT_OK(
          RunWindow(TablePtr(buffer_->Take(in_window)), ctx, out));
      window_start_ += window_.slide;
      // Expire tuples that can no longer fall into any future window.
      std::vector<size_t> expired =
          SelectRangeInt64(*buffer_->column(ts_column_), std::nullopt,
                           window_start_ - 1);
      buffer_->RemovePositions(expired);
    }
    return Status::OK();
  }

  PlanRunner runner_;
  sql::WindowSpec window_;
  Schema output_schema_;
  std::shared_ptr<Table> buffer_;
  size_t ts_column_ = 0;
  bool started_ = false;
  Timestamp window_start_ = 0;
};

/// Shared machinery of the basic-window executors: per-chunk group
/// summaries, merging, and re-entry into the above-aggregate plan. Neither
/// sub-plan reads a static table.
class IncrementalCore : public WindowExecutor {
 public:
  struct GroupEntry {
    Row group_values;                  // one value per group column
    std::vector<AggPartial> partials;  // one per AggSpec
  };
  using ChunkSummary = std::map<std::string, GroupEntry>;

  IncrementalCore(AggregateDecomposition decomposition,
                  const std::string& bind_name, bool specialize)
      : decomposition_(std::move(decomposition)),
        below_(decomposition_.below_aggregate, {bind_name}, {}, specialize),
        above_(decomposition_.above_aggregate, {kAggOutBinding}, {},
               specialize) {}

  const char* mode_name() const override { return "incremental"; }
  const PlanRunner& runner() const override { return below_; }

  std::string Describe() const override {
    return "below the aggregate, per chunk: " + below_.Describe() +
           "\nabove the aggregate, per window: " + above_.Describe();
  }

  /// A header step per phase over its sub-plan's steps: the chunk summary
  /// (below-aggregate run + grouping) and the window emission (merge +
  /// above-aggregate run).
  void RegisterProfileSteps(PipelineProfile* profile) override {
    summarise_step_ = profile->AddStep("window chunk summary", 0);
    below_.RegisterProfileSteps(profile, 1);
    emit_step_ = profile->AddStep("window emit", 0);
    above_.RegisterProfileSteps(profile, 1);
  }

 protected:
  /// Runs the below-aggregate pipeline on `chunk` and summarises it into
  /// per-group partial aggregates.
  Result<ChunkSummary> Summarise(const TablePtr& chunk,
                                 const ExecContext& ctx) {
    int64_t t0 = ctx.profile != nullptr ? ProfileNowNs() : 0;
    DC_ASSIGN_OR_RETURN(TablePtr pre,
                        below_.Run(std::span(&chunk, 1), ctx, nullptr));
    DC_ASSIGN_OR_RETURN(Grouping grouping,
                        GroupBy(*pre, decomposition_.group_columns));
    std::vector<std::vector<AggPartial>> per_spec;
    per_spec.reserve(decomposition_.aggregates.size());
    for (const AggSpec& spec : decomposition_.aggregates) {
      if (spec.count_star) {
        std::vector<AggPartial> counts(grouping.num_groups);
        for (size_t g : grouping.group_ids) ++counts[g].count;
        per_spec.push_back(std::move(counts));
      } else {
        DC_ASSIGN_OR_RETURN(
            std::vector<AggPartial> partials,
            AggregateByGroup(*pre->column(spec.input_column), grouping, ctx));
        per_spec.push_back(std::move(partials));
      }
    }
    ChunkSummary summary;
    for (size_t g = 0; g < grouping.num_groups; ++g) {
      size_t rep = grouping.representatives[g];
      std::string key = EncodeRowKey(*pre, decomposition_.group_columns, rep);
      GroupEntry entry;
      for (size_t c : decomposition_.group_columns) {
        entry.group_values.push_back(pre->column(c)->GetValue(rep));
      }
      for (const auto& partials : per_spec) {
        entry.partials.push_back(partials[g]);
      }
      summary.emplace(std::move(key), std::move(entry));
    }
    if (ctx.profile != nullptr) {
      ctx.profile->RecordStep(summarise_step_,
                              static_cast<int64_t>(chunk->num_rows()),
                              static_cast<int64_t>(summary.size()),
                              ProfileNowNs() - t0);
    }
    return summary;
  }
  /// Merges `src` into `dst` group-wise (late tuples joining an existing
  /// basic window take this path too).
  static void MergeInto(ChunkSummary* dst, const ChunkSummary& src) {
    for (const auto& [key, entry] : src) {
      auto [it, inserted] = dst->emplace(key, entry);
      if (!inserted) {
        for (size_t i = 0; i < entry.partials.size(); ++i) {
          it->second.partials[i].Merge(entry.partials[i]);
        }
      }
    }
  }

  /// Combines the summaries of one window's chunks, materialises the
  /// aggregate output and runs the rest of the plan; appends to `out`.
  template <typename ChunkIt>
  Status EmitWindow(ChunkIt first, ChunkIt last, const ExecContext& ctx,
                    Table* out) {
    int64_t t0 = ctx.profile != nullptr ? ProfileNowNs() : 0;
    ChunkSummary merged;
    for (ChunkIt it = first; it != last; ++it) {
      MergeInto(&merged, *it);
    }
    TablePtr agg_table =
        std::make_shared<Table>("", decomposition_.aggregate_schema);
    if (decomposition_.group_columns.empty()) {
      // Scalar aggregation: exactly one row, even for an empty window.
      GroupEntry whole;
      whole.partials.resize(decomposition_.aggregates.size());
      for (const auto& [key, entry] : merged) {
        for (size_t i = 0; i < entry.partials.size(); ++i) {
          whole.partials[i].Merge(entry.partials[i]);
        }
      }
      Row row;
      for (size_t i = 0; i < decomposition_.aggregates.size(); ++i) {
        row.push_back(
            whole.partials[i].Finalize(decomposition_.aggregates[i].func));
      }
      DC_RETURN_NOT_OK(agg_table->AppendRow(row));
    } else {
      for (const auto& [key, entry] : merged) {
        Row row = entry.group_values;
        for (size_t i = 0; i < decomposition_.aggregates.size(); ++i) {
          row.push_back(
              entry.partials[i].Finalize(decomposition_.aggregates[i].func));
        }
        DC_RETURN_NOT_OK(agg_table->AppendRow(row));
      }
    }
    DC_ASSIGN_OR_RETURN(TablePtr result,
                        above_.Run(std::span(&agg_table, 1), ctx, nullptr));
    if (ctx.profile != nullptr) {
      ctx.profile->RecordStep(emit_step_, static_cast<int64_t>(merged.size()),
                              static_cast<int64_t>(result->num_rows()),
                              ProfileNowNs() - t0);
    }
    return out->AppendTable(*result);
  }

 private:
  AggregateDecomposition decomposition_;
  PlanRunner below_;
  PlanRunner above_;
  size_t summarise_step_ = PipelineProfile::kNoStep;
  size_t emit_step_ = PipelineProfile::kNoStep;
};

/// Basic-window model for count windows: the stream is cut into slide-sized
/// chunks; each chunk is aggregated once into per-group summaries; a window
/// emission merges the summaries of the size/slide most recent chunks.
/// Expiry = dropping the oldest chunk — no subtraction, so min/max stay
/// exact.
class IncrementalWindowExecutor final : public IncrementalCore {
 public:
  IncrementalWindowExecutor(const sql::CompiledQuery& query,
                            AggregateDecomposition decomposition,
                            bool specialize)
      : IncrementalCore(std::move(decomposition), query.inputs[0].bind_name,
                        specialize),
        output_schema_(query.output_schema),
        chunk_size_(static_cast<size_t>(query.window.slide)),
        chunks_per_window_(
            static_cast<size_t>(query.window.size / query.window.slide)),
        pending_(std::make_shared<Table>("__window_pending",
                                         query.inputs[0].basket_schema)) {}

  Result<TablePtr> Advance(const Table& new_tuples,
                           const ExecContext& ctx) override {
    DC_RETURN_NOT_OK(pending_->AppendTable(new_tuples));
    auto out = std::make_shared<Table>("", output_schema_);
    while (pending_->num_rows() >= chunk_size_) {
      TablePtr chunk = TablePtr(pending_->Slice(0, chunk_size_));
      pending_->RemovePrefix(chunk_size_);
      DC_ASSIGN_OR_RETURN(ChunkSummary summary, Summarise(chunk, ctx));
      chunks_.push_back(std::move(summary));
      if (chunks_.size() == chunks_per_window_) {
        DC_RETURN_NOT_OK(
            EmitWindow(chunks_.begin(), chunks_.end(), ctx, out.get()));
        chunks_.pop_front();  // slide: expire the oldest basic window
      }
    }
    return out;
  }

  size_t buffered() const override {
    return pending_->num_rows() + chunks_.size() * chunk_size_;
  }

 private:
  Schema output_schema_;
  size_t chunk_size_;
  size_t chunks_per_window_;
  std::shared_ptr<Table> pending_;
  std::deque<ChunkSummary> chunks_;
};

/// Basic-window model for time windows: chunks are slide-length time
/// intervals anchored at the earliest tuple seen; windows cover size/slide
/// consecutive chunks and close when a tuple at/after the window end is
/// observed. Late tuples merge into their (not yet expired) chunk summary;
/// tuples older than the oldest live window are dropped and counted.
class TimeIncrementalWindowExecutor final : public IncrementalCore {
 public:
  TimeIncrementalWindowExecutor(const sql::CompiledQuery& query,
                                AggregateDecomposition decomposition,
                                bool specialize)
      : IncrementalCore(std::move(decomposition), query.inputs[0].bind_name,
                        specialize),
        output_schema_(query.output_schema),
        input_schema_(query.inputs[0].basket_schema),
        slide_us_(query.window.slide),
        chunks_per_window_(
            static_cast<size_t>(query.window.size / query.window.slide)) {
    ts_column_ = input_schema_.num_fields() - 1;
  }

  Result<TablePtr> Advance(const Table& new_tuples,
                           const ExecContext& ctx) override {
    auto out = std::make_shared<Table>("", output_schema_);
    if (new_tuples.num_rows() == 0) return out;
    const Bat& ts = *new_tuples.column(ts_column_);
    if (!started_) {
      Timestamp min_ts = ts.Int64At(0);
      for (size_t i = 1; i < ts.size(); ++i) {
        min_ts = std::min(min_ts, ts.Int64At(i));
      }
      anchor_ = min_ts;
      started_ = true;
    }
    // Route each tuple to its chunk (grid of slide-length intervals).
    std::map<int64_t, std::vector<size_t>> by_chunk;
    for (size_t i = 0; i < ts.size(); ++i) {
      Timestamp t = ts.Int64At(i);
      max_seen_ = std::max(max_seen_, t);
      if (t < anchor_ + next_window_ * slide_us_) {
        // Older than every live window.
        late_dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      by_chunk[(t - anchor_) / slide_us_].push_back(i);
    }
    for (const auto& [chunk_index, positions] : by_chunk) {
      DC_ASSIGN_OR_RETURN(
          ChunkSummary summary,
          Summarise(TablePtr(new_tuples.Take(positions)), ctx));
      auto it = chunks_.find(chunk_index);
      if (it == chunks_.end()) {
        chunks_.emplace(chunk_index, std::move(summary));
      } else {
        // Late tuples for a still-live basic window: merge the summaries.
        MergeInto(&it->second, summary);
      }
    }
    // Close every window whose end the stream has passed.
    while (max_seen_ >=
           anchor_ + next_window_ * slide_us_ +
               static_cast<int64_t>(chunks_per_window_) * slide_us_) {
      std::vector<ChunkSummary> window_chunks;
      for (size_t k = 0; k < chunks_per_window_; ++k) {
        auto it = chunks_.find(next_window_ + static_cast<int64_t>(k));
        if (it != chunks_.end()) window_chunks.push_back(it->second);
      }
      DC_RETURN_NOT_OK(EmitWindow(window_chunks.begin(), window_chunks.end(),
                                  ctx, out.get()));
      chunks_.erase(next_window_);
      ++next_window_;
    }
    return out;
  }

  size_t buffered() const override { return chunks_.size(); }
  int64_t late_dropped() const override {
    return late_dropped_.load(std::memory_order_relaxed);
  }

 private:
  Schema output_schema_;
  Schema input_schema_;
  size_t ts_column_;
  int64_t slide_us_;
  size_t chunks_per_window_;
  bool started_ = false;
  Timestamp anchor_ = 0;
  Timestamp max_seen_ = 0;
  int64_t next_window_ = 0;  // index of the oldest unemitted window
  std::map<int64_t, ChunkSummary> chunks_;
  std::atomic<int64_t> late_dropped_{0};
};

}  // namespace

Result<std::unique_ptr<WindowExecutor>> WindowExecutor::Create(
    const sql::CompiledQuery& query, WindowMode mode,
    PlanBindings static_bindings, bool specialize) {
  if (query.window.kind == sql::WindowSpec::Kind::kNone) {
    return Status::InvalidArgument("query has no window clause");
  }
  if (query.inputs.size() != 1) {
    return Status::Unimplemented(
        "windowed queries support exactly one stream input");
  }
  auto try_incremental =
      [&]() -> Result<std::unique_ptr<WindowExecutor>> {
    if (query.window.slide <= 0 || query.window.size % query.window.slide != 0) {
      return Status::Unimplemented(
          "incremental evaluation requires slide to divide the window size");
    }
    DC_ASSIGN_OR_RETURN(
        AggregateDecomposition decomposition,
        internal_window::DecomposeAggregatePlan(query.plan));
    if (query.window.kind == sql::WindowSpec::Kind::kTime) {
      return std::unique_ptr<WindowExecutor>(new TimeIncrementalWindowExecutor(
          query, std::move(decomposition), specialize));
    }
    return std::unique_ptr<WindowExecutor>(new IncrementalWindowExecutor(
        query, std::move(decomposition), specialize));
  };
  switch (mode) {
    case WindowMode::kReEvaluation:
      return std::unique_ptr<WindowExecutor>(
          new ReEvalWindowExecutor(query, std::move(static_bindings),
                                   specialize));
    case WindowMode::kIncremental:
      return try_incremental();
    case WindowMode::kAuto: {
      auto inc = try_incremental();
      if (inc.ok()) return inc;
      return std::unique_ptr<WindowExecutor>(
          new ReEvalWindowExecutor(query, std::move(static_bindings),
                                   specialize));
    }
  }
  return Status::Internal("bad window mode");
}

}  // namespace datacell
