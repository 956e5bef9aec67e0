#include "sql/planner.h"

#include <map>

#include "common/string_util.h"
#include "sql/binder.h"

namespace datacell {
namespace sql {

namespace {

/// One FROM source after resolution: its plan fragment and exposed schema.
struct Source {
  std::string qualifier;
  Schema schema;
  PlanPtr plan;
};

Result<AggFunc> AggFuncFromName(const std::string& name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  if (name == "avg") return AggFunc::kAvg;
  return Status::InvalidArgument("unknown aggregate function '" + name + "'");
}

/// Structural signature of an aggregate call, used to match HAVING /
/// ORDER BY aggregates against the ones computed for the select list.
std::string AggSignature(const AstExpr& call) {
  std::string s = call.func_name + "(";
  s += call.star ? "*" : ToLower(call.children[0]->ToString());
  return s + ")";
}

/// Output column name for a select item without an alias.
std::string DefaultItemName(const AstExpr& e) {
  if (e.kind == AstExprKind::kColumnRef) return e.column;
  return ToLower(e.ToString());
}

/// Planner implementation for a single SELECT. Builds, in order:
///   sources -> joins -> WHERE filter -> [aggregate] -> HAVING -> projection
///   -> DISTINCT -> ORDER BY -> LIMIT.
class SelectCompiler {
 public:
  SelectCompiler(const Catalog* catalog, const SelectStmt& stmt)
      : catalog_(catalog), stmt_(stmt) {}

  Result<CompiledQuery> Compile() {
    DC_RETURN_NOT_OK(BuildSources());
    DC_RETURN_NOT_OK(BuildJoins());
    DC_RETURN_NOT_OK(ApplyWhere());
    bool has_agg = HasAggregates();
    if (has_agg) {
      DC_RETURN_NOT_OK(BuildAggregate());
    } else {
      if (stmt_.having != nullptr) {
        return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
      }
      DC_RETURN_NOT_OK(BuildProjection());
    }
    if (stmt_.distinct) {
      DC_ASSIGN_OR_RETURN(plan_, MakeDistinct(plan_));
    }
    DC_RETURN_NOT_OK(ApplyOrderBy());
    DC_RETURN_NOT_OK(ApplyLimit());

    CompiledQuery out;
    out.plan = plan_;
    out.output_schema = plan_->output_schema();
    out.continuous = !inputs_.empty();
    out.inputs = std::move(inputs_);
    switch (stmt_.window.kind) {
      case WindowClause::Kind::kNone:
        out.window.kind = WindowSpec::Kind::kNone;
        break;
      case WindowClause::Kind::kCount:
        out.window.kind = WindowSpec::Kind::kCount;
        break;
      case WindowClause::Kind::kTime:
        out.window.kind = WindowSpec::Kind::kTime;
        break;
    }
    out.window.size = stmt_.window.size;
    out.window.slide = stmt_.window.slide;
    out.threshold = stmt_.threshold;
    if (out.window.kind != WindowSpec::Kind::kNone) {
      if (!out.continuous) {
        return Status::InvalidArgument(
            "WINDOW is only valid on continuous queries (use a basket "
            "expression in FROM)");
      }
      if (out.window.size <= 0 || out.window.slide <= 0) {
        return Status::InvalidArgument("window size/slide must be positive");
      }
      if (out.window.slide > out.window.size) {
        return Status::InvalidArgument(
            "window slide larger than size would drop tuples; not supported");
      }
    }
    return out;
  }

 private:
  // --- FROM -------------------------------------------------------------
  Result<Source> CompileTableRef(const TableRef& ref) {
    if (!ref.is_basket_expr()) {
      DC_ASSIGN_OR_RETURN(TablePtr table, catalog_->Get(ref.name));
      DC_ASSIGN_OR_RETURN(PlanPtr scan,
                          MakeScan(ToLower(ref.name), table->schema()));
      return Source{ref.alias.empty() ? ref.name : ref.alias, table->schema(),
                    std::move(scan)};
    }
    // Basket expression: [select items from B where pred] as S
    const SelectStmt& inner = *ref.basket_expr;
    if (inner.from.size() != 1 || inner.from[0].is_basket_expr()) {
      return Status::InvalidArgument(
          "a basket expression must read exactly one named basket");
    }
    if (!inner.group_by.empty() || inner.having != nullptr ||
        !inner.order_by.empty() || inner.limit.has_value() ||
        inner.distinct || inner.window.kind != WindowClause::Kind::kNone) {
      return Status::InvalidArgument(
          "basket expressions support only SELECT items, FROM and WHERE");
    }
    const std::string& basket_name = inner.from[0].name;
    DC_ASSIGN_OR_RETURN(TablePtr basket, catalog_->Get(basket_name));
    DC_ASSIGN_OR_RETURN(RelationKind kind, catalog_->KindOf(basket_name));
    if (kind != RelationKind::kBasket) {
      return Status::InvalidArgument("'" + basket_name +
                                     "' is not a basket; basket expressions "
                                     "require a basket input");
    }

    ContinuousInput input;
    input.basket = ToLower(basket_name);
    input.bind_name = "__cq_in" + std::to_string(inputs_.size()) + "_" +
                      ToLower(basket_name);
    input.basket_schema = basket->schema();

    // Bind the consume predicate over the basket's own schema.
    Scope basket_scope;
    const std::string& inner_alias = inner.from[0].alias.empty()
                                         ? basket_name
                                         : inner.from[0].alias;
    basket_scope.AddSource(inner_alias, basket->schema());
    if (inner.where != nullptr) {
      DC_ASSIGN_OR_RETURN(input.consume_predicate,
                          BindScalarExpr(*inner.where, basket_scope));
      if (input.consume_predicate->type() != DataType::kBool) {
        return Status::TypeError("basket expression predicate must be boolean");
      }
    }

    // The factory drains the qualifying tuples into a table bound under
    // bind_name; the plan sees the drained slice, so no Filter here.
    DC_ASSIGN_OR_RETURN(PlanPtr plan,
                        MakeScan(input.bind_name, basket->schema()));
    Schema exposed = basket->schema();
    // Inner projection (if not plain '*').
    bool star_only = inner.items.size() == 1 && inner.items[0].star;
    if (!star_only) {
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (const SelectItem& item : inner.items) {
        if (item.star) {
          for (ExprPtr& c : basket_scope.AllColumns()) {
            names.push_back(c->column_name());
            exprs.push_back(std::move(c));
          }
          continue;
        }
        DC_ASSIGN_OR_RETURN(ExprPtr e, BindScalarExpr(*item.expr, basket_scope));
        names.push_back(item.alias.empty() ? DefaultItemName(*item.expr)
                                           : item.alias);
        exprs.push_back(std::move(e));
      }
      DC_ASSIGN_OR_RETURN(plan, MakeProject(plan, std::move(exprs), names));
      exposed = plan->output_schema();
    }
    inputs_.push_back(std::move(input));
    return Source{ref.alias, std::move(exposed), std::move(plan)};
  }

  Status BuildSources() {
    if (stmt_.from.empty()) {
      return Status::InvalidArgument("FROM clause is required");
    }
    for (const TableRef& ref : stmt_.from) {
      DC_ASSIGN_OR_RETURN(Source src, CompileTableRef(ref));
      sources_.push_back(std::move(src));
    }
    return Status::OK();
  }

  // --- JOIN -------------------------------------------------------------
  Status BuildJoins() {
    plan_ = sources_[0].plan;
    scope_.AddSource(sources_[0].qualifier, sources_[0].schema);
    for (size_t i = 1; i < sources_.size(); ++i) {
      const TableRef& ref = stmt_.from[i];
      if (!ref.is_join || ref.join_on == nullptr) {
        return Status::Internal("non-join FROM item after the first");
      }
      // The ON expression must be <colA> = <colB> with one side in the
      // accumulated scope and the other in the new source.
      const AstExpr& on = *ref.join_on;
      if (on.kind != AstExprKind::kBinary || on.binary_op != AstBinaryOp::kEq ||
          on.children[0]->kind != AstExprKind::kColumnRef ||
          on.children[1]->kind != AstExprKind::kColumnRef) {
        return Status::InvalidArgument(
            "JOIN ON must be an equality of two columns, got: " +
            on.ToString());
      }
      Scope new_scope;
      new_scope.AddSource(sources_[i].qualifier, sources_[i].schema);
      // Try left-in-old/right-in-new first, then the swap.
      ExprPtr left_key, right_key;
      auto l_old = BindScalarExpr(*on.children[0], scope_);
      auto r_new = BindScalarExpr(*on.children[1], new_scope);
      if (l_old.ok() && r_new.ok()) {
        left_key = *l_old;
        right_key = *r_new;
      } else {
        auto l_new = BindScalarExpr(*on.children[0], new_scope);
        auto r_old = BindScalarExpr(*on.children[1], scope_);
        if (!l_new.ok() || !r_old.ok()) {
          return Status::InvalidArgument(
              "JOIN ON columns must reference both join sides: " +
              on.ToString());
        }
        left_key = *r_old;
        right_key = *l_new;
      }
      DC_ASSIGN_OR_RETURN(
          plan_, MakeHashJoin(plan_, sources_[i].plan, left_key->column_index(),
                              right_key->column_index()));
      scope_.AddSource(sources_[i].qualifier, sources_[i].schema);
    }
    return Status::OK();
  }

  Status ApplyWhere() {
    if (stmt_.where == nullptr) return Status::OK();
    if (ContainsAggregate(*stmt_.where)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    DC_ASSIGN_OR_RETURN(ExprPtr pred, BindScalarExpr(*stmt_.where, scope_));
    DC_ASSIGN_OR_RETURN(plan_, MakeFilter(plan_, std::move(pred)));
    return Status::OK();
  }

  // --- aggregation --------------------------------------------------------
  bool HasAggregates() const {
    if (!stmt_.group_by.empty() || stmt_.having != nullptr) return true;
    for (const SelectItem& item : stmt_.items) {
      if (!item.star && ContainsAggregate(*item.expr)) return true;
    }
    return false;
  }

  /// Builds: pre-projection (group keys + agg inputs) -> Aggregate ->
  /// HAVING filter -> post-projection in select-list order.
  Status BuildAggregate() {
    // 1. Bind group keys (column refs or scalar expressions). Their textual
    //    signature lets select items / HAVING reference a grouping
    //    expression structurally, e.g. "select a % 2 ... group by a % 2".
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::map<std::string, size_t> group_index;  // signature -> position
    for (const AstExprPtr& g : stmt_.group_by) {
      if (ContainsAggregate(*g)) {
        return Status::InvalidArgument("aggregates not allowed in GROUP BY");
      }
      DC_ASSIGN_OR_RETURN(ExprPtr e, BindScalarExpr(*g, scope_));
      group_index.emplace(ToLower(g->ToString()), group_exprs.size());
      group_names.push_back(DefaultItemName(*g));
      group_exprs.push_back(std::move(e));
    }

    // 2. Collect aggregate calls from the select list and HAVING, deduped
    //    by structural signature.
    std::vector<const AstExpr*> agg_calls;
    std::map<std::string, size_t> agg_index;  // signature -> position
    auto collect = [&](const AstExpr& e, auto&& self) -> Status {
      if (e.kind == AstExprKind::kFuncCall &&
          IsAggregateFuncName(e.func_name)) {
        for (const AstExprPtr& c : e.children) {
          if (ContainsAggregate(*c)) {
            return Status::InvalidArgument("nested aggregates are not allowed");
          }
        }
        std::string sig = AggSignature(e);
        if (agg_index.emplace(sig, agg_calls.size()).second) {
          agg_calls.push_back(&e);
        }
        return Status::OK();
      }
      for (const AstExprPtr& c : e.children) {
        if (c != nullptr) DC_RETURN_NOT_OK(self(*c, self));
      }
      return Status::OK();
    };
    for (const SelectItem& item : stmt_.items) {
      if (item.star) {
        return Status::InvalidArgument(
            "SELECT * cannot be combined with aggregation");
      }
      DC_RETURN_NOT_OK(collect(*item.expr, collect));
    }
    if (stmt_.having != nullptr) {
      DC_RETURN_NOT_OK(collect(*stmt_.having, collect));
    }
    if (agg_calls.empty()) {
      return Status::InvalidArgument(
          "GROUP BY/HAVING without any aggregate function");
    }

    // 3. Pre-projection: group keys first, then aggregate arguments.
    std::vector<ExprPtr> pre_exprs = group_exprs;
    std::vector<std::string> pre_names = group_names;
    std::vector<AggSpec> specs;
    for (const AstExpr* call : agg_calls) {
      AggSpec spec;
      DC_ASSIGN_OR_RETURN(spec.func, AggFuncFromName(call->func_name));
      spec.output_name = AggSignature(*call);
      if (call->star) {
        if (spec.func != AggFunc::kCount) {
          return Status::InvalidArgument("'*' argument is only valid in count");
        }
        spec.count_star = true;
        spec.input_column = 0;
      } else {
        DC_ASSIGN_OR_RETURN(ExprPtr arg,
                            BindScalarExpr(*call->children[0], scope_));
        // The aggregate kernels only accept numeric/bool inputs — including
        // count(col), which the runtime rejects over strings — so the same
        // rule applies to every aggregate here.
        if (!IsNumeric(arg->type()) && arg->type() != DataType::kBool) {
          return Status::TypeError("cannot aggregate non-numeric expression " +
                                   arg->ToString());
        }
        spec.input_column = pre_exprs.size();
        pre_names.push_back("__agg_arg" + std::to_string(specs.size()));
        pre_exprs.push_back(std::move(arg));
      }
      specs.push_back(std::move(spec));
    }
    if (pre_exprs.empty()) {
      // count(*)-only aggregate over the raw input: project a dummy column
      // so the aggregate node has a child schema to work with.
      pre_exprs.push_back(Expr::Int(0));
      pre_names.push_back("__dummy");
    }
    DC_ASSIGN_OR_RETURN(plan_, MakeProject(plan_, pre_exprs, pre_names));

    std::vector<size_t> group_cols(group_exprs.size());
    for (size_t i = 0; i < group_cols.size(); ++i) group_cols[i] = i;
    DC_ASSIGN_OR_RETURN(plan_, MakeAggregate(plan_, group_cols, specs));

    // 4. Scope over the aggregate output: group columns keep their names,
    //    aggregate columns are addressable by signature.
    Scope agg_scope;
    agg_scope.AddSource("", plan_->output_schema());

    // Rewrites an AST expression over the aggregate output: aggregate calls
    // become column refs to their output column.
    auto bind_post = [&](const AstExpr& e,
                         auto&& self) -> Result<ExprPtr> {
      // A whole expression that textually equals a GROUP BY key maps to the
      // corresponding group column of the aggregate output.
      if (e.kind != AstExprKind::kLiteral) {
        auto g = group_index.find(ToLower(e.ToString()));
        if (g != group_index.end()) {
          const Field& f = plan_->output_schema().field(g->second);
          return Expr::Column(g->second, f.name, f.type,
                              SourceLoc{e.line, e.col});
        }
      }
      if (e.kind == AstExprKind::kFuncCall) {
        if (IsAggregateFuncName(e.func_name)) {
          auto it = agg_index.find(AggSignature(e));
          if (it == agg_index.end()) {
            return Status::Internal("aggregate not collected: " + e.ToString());
          }
          size_t col = group_exprs.size() + it->second;
          const Field& f = plan_->output_schema().field(col);
          return Expr::Column(col, f.name, f.type, SourceLoc{e.line, e.col});
        }
        // Scalar function over aggregate/group results, e.g. round(avg(v)).
        DC_ASSIGN_OR_RETURN(ScalarFunc func, ScalarFuncFromName(e.func_name));
        if (e.children.size() != 1) {
          return Status::InvalidArgument("function '" + e.func_name +
                                         "' takes exactly one argument");
        }
        DC_ASSIGN_OR_RETURN(ExprPtr arg, self(*e.children[0], self));
        DC_RETURN_NOT_OK(CheckScalarFuncArg(func, e.func_name, arg));
        return Expr::Function(func, std::move(arg), SourceLoc{e.line, e.col});
      }
      if (e.kind == AstExprKind::kColumnRef) {
        // Must be a group key (by its pre-projection name).
        auto r = agg_scope.ResolveColumn("", e.column, SourceLoc{e.line, e.col});
        if (!r.ok()) {
          return Status::InvalidArgument(
              "column '" + e.column +
              "' must appear in GROUP BY or inside an aggregate");
        }
        return r;
      }
      if (e.kind == AstExprKind::kLiteral) {
        return Expr::Literal(e.literal, SourceLoc{e.line, e.col});
      }
      if (e.kind == AstExprKind::kBinary) {
        DC_ASSIGN_OR_RETURN(ExprPtr l, self(*e.children[0], self));
        DC_ASSIGN_OR_RETURN(ExprPtr r, self(*e.children[1], self));
        // The collection pass walks the raw AST and never sees the rewritten
        // operand types (aggregate calls become columns here), so the operand
        // check must run on the rewritten children.
        DC_RETURN_NOT_OK(CheckBinaryOperandTypes(e.binary_op, l, r));
        return Expr::Binary(ToAlgebraBinary(e.binary_op), std::move(l),
                            std::move(r), SourceLoc{e.line, e.col});
      }
      if (e.kind == AstExprKind::kCase) {
        std::vector<ExprPtr> when_then;
        size_t branches = (e.children.size() - 1) / 2;
        for (size_t i = 0; i < branches; ++i) {
          DC_ASSIGN_OR_RETURN(ExprPtr cond, self(*e.children[2 * i], self));
          DC_ASSIGN_OR_RETURN(ExprPtr val, self(*e.children[2 * i + 1], self));
          when_then.push_back(std::move(cond));
          when_then.push_back(std::move(val));
        }
        DC_ASSIGN_OR_RETURN(ExprPtr other, self(*e.children.back(), self));
        return Expr::Case(std::move(when_then), std::move(other));
      }
      if (e.kind == AstExprKind::kUnary) {
        DC_ASSIGN_OR_RETURN(ExprPtr c, self(*e.children[0], self));
        const SourceLoc uloc{e.line, e.col};
        switch (e.unary_op) {
          case AstUnaryOp::kNot:
            if (c->type() != DataType::kBool) {
              return Status::TypeError(
                  "NOT requires a boolean operand" +
                  (uloc.valid() ? " at " + uloc.ToString() : std::string()));
            }
            return Expr::Unary(UnaryOp::kNot, std::move(c), uloc);
          case AstUnaryOp::kNeg:
            if (!IsNumeric(c->type())) {
              return Status::TypeError(
                  "unary minus requires a numeric operand" +
                  (uloc.valid() ? " at " + uloc.ToString() : std::string()));
            }
            return Expr::Unary(UnaryOp::kNeg, std::move(c), uloc);
          case AstUnaryOp::kIsNull:
            return Expr::Unary(UnaryOp::kIsNull, std::move(c), uloc);
          case AstUnaryOp::kIsNotNull:
            return Expr::Unary(UnaryOp::kIsNotNull, std::move(c), uloc);
        }
      }
      return Status::Internal("bad post-aggregate expression");
    };

    // 5. HAVING filter over the aggregate output.
    if (stmt_.having != nullptr) {
      DC_ASSIGN_OR_RETURN(ExprPtr pred, bind_post(*stmt_.having, bind_post));
      if (pred->type() != DataType::kBool) {
        return Status::TypeError("HAVING predicate must be boolean");
      }
      DC_ASSIGN_OR_RETURN(plan_, MakeFilter(plan_, std::move(pred)));
    }

    // 6. Post-projection in select-list order.
    std::vector<ExprPtr> out_exprs;
    std::vector<std::string> out_names;
    for (const SelectItem& item : stmt_.items) {
      DC_ASSIGN_OR_RETURN(ExprPtr e, bind_post(*item.expr, bind_post));
      out_names.push_back(item.alias.empty() ? DefaultItemName(*item.expr)
                                             : item.alias);
      out_exprs.push_back(std::move(e));
    }
    DC_ASSIGN_OR_RETURN(plan_,
                        MakeProject(plan_, std::move(out_exprs), out_names));
    return Status::OK();
  }

  static BinaryOp ToAlgebraBinary(AstBinaryOp op) {
    switch (op) {
      case AstBinaryOp::kAdd:
        return BinaryOp::kAdd;
      case AstBinaryOp::kSub:
        return BinaryOp::kSub;
      case AstBinaryOp::kMul:
        return BinaryOp::kMul;
      case AstBinaryOp::kDiv:
        return BinaryOp::kDiv;
      case AstBinaryOp::kMod:
        return BinaryOp::kMod;
      case AstBinaryOp::kEq:
        return BinaryOp::kEq;
      case AstBinaryOp::kNe:
        return BinaryOp::kNe;
      case AstBinaryOp::kLt:
        return BinaryOp::kLt;
      case AstBinaryOp::kLe:
        return BinaryOp::kLe;
      case AstBinaryOp::kGt:
        return BinaryOp::kGt;
      case AstBinaryOp::kGe:
        return BinaryOp::kGe;
      case AstBinaryOp::kAnd:
        return BinaryOp::kAnd;
      case AstBinaryOp::kOr:
        return BinaryOp::kOr;
      case AstBinaryOp::kLike:
        return BinaryOp::kLike;
    }
    return BinaryOp::kAdd;
  }

  // --- plain projection -----------------------------------------------
  Status BuildProjection() {
    bool star_only = stmt_.items.size() == 1 && stmt_.items[0].star;
    if (star_only) return Status::OK();  // pass-through
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt_.items) {
      if (item.star) {
        for (ExprPtr& c : scope_.AllColumns()) {
          names.push_back(c->column_name());
          exprs.push_back(std::move(c));
        }
        continue;
      }
      DC_ASSIGN_OR_RETURN(ExprPtr e, BindScalarExpr(*item.expr, scope_));
      names.push_back(item.alias.empty() ? DefaultItemName(*item.expr)
                                         : item.alias);
      exprs.push_back(std::move(e));
    }
    DC_ASSIGN_OR_RETURN(plan_, MakeProject(plan_, std::move(exprs), names));
    return Status::OK();
  }

  // --- ORDER BY / LIMIT -------------------------------------------------
  Status ApplyOrderBy() {
    if (stmt_.order_by.empty()) return Status::OK();
    Scope out_scope;
    out_scope.AddSource("", plan_->output_schema());
    std::vector<SortKey> keys;
    for (const OrderItem& item : stmt_.order_by) {
      SortKey key;
      key.ascending = item.ascending;
      if (item.expr->kind == AstExprKind::kLiteral &&
          item.expr->literal.is_int64()) {
        int64_t pos = item.expr->literal.int64_value();
        if (pos < 1 ||
            pos > static_cast<int64_t>(plan_->output_schema().num_fields())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        key.column = static_cast<size_t>(pos - 1);
      } else if (item.expr->kind == AstExprKind::kColumnRef) {
        DC_ASSIGN_OR_RETURN(
            ExprPtr col,
            out_scope.ResolveColumn(item.expr->qualifier, item.expr->column));
        key.column = col->column_index();
      } else {
        return Status::InvalidArgument(
            "ORDER BY supports output columns and positions only");
      }
      keys.push_back(key);
    }
    DC_ASSIGN_OR_RETURN(plan_, MakeSort(plan_, std::move(keys)));
    return Status::OK();
  }

  Status ApplyLimit() {
    if (!stmt_.limit.has_value() && !stmt_.offset.has_value()) {
      return Status::OK();
    }
    int64_t limit = stmt_.limit.value_or(-1);
    int64_t offset = stmt_.offset.value_or(0);
    if (limit < 0 && stmt_.limit.has_value()) {
      return Status::InvalidArgument("LIMIT must be non-negative");
    }
    if (offset < 0) return Status::InvalidArgument("OFFSET must be non-negative");
    size_t lim = stmt_.limit.has_value() ? static_cast<size_t>(limit)
                                         : std::numeric_limits<size_t>::max();
    DC_ASSIGN_OR_RETURN(plan_,
                        MakeLimit(plan_, static_cast<size_t>(offset), lim));
    return Status::OK();
  }

  const Catalog* catalog_;
  const SelectStmt& stmt_;
  std::vector<Source> sources_;
  std::vector<ContinuousInput> inputs_;
  Scope scope_;
  PlanPtr plan_;
};

}  // namespace

Result<CompiledQuery> Planner::CompileSelect(const SelectStmt& stmt) const {
  SelectCompiler compiler(catalog_, stmt);
  return compiler.Compile();
}

namespace {

Result<Value> EvalConstInsert(const AstExpr& e) {
  if (e.kind == AstExprKind::kLiteral) return e.literal;
  if (e.kind == AstExprKind::kUnary && e.unary_op == AstUnaryOp::kNeg) {
    DC_ASSIGN_OR_RETURN(Value v, EvalConstInsert(*e.children[0]));
    if (v.is_int64()) return Value::Int64(-v.int64_value());
    if (v.is_double()) return Value::Double(-v.double_value());
    return Status::TypeError("cannot negate non-numeric literal");
  }
  return Status::InvalidArgument(
      "INSERT values must be literals: " + e.ToString());
}

}  // namespace

Result<std::vector<Row>> InsertRows(const InsertStmt& stmt,
                                    const Schema& columns) {
  std::vector<size_t> positions;
  for (const std::string& col : stmt.columns) {
    auto idx = columns.IndexOf(col);
    if (!idx.has_value()) {
      return Status::NotFound("unknown column '" + col + "' in INSERT");
    }
    positions.push_back(*idx);
  }
  const size_t expected =
      stmt.columns.empty() ? columns.num_fields() : stmt.columns.size();
  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  for (const auto& ast_row : stmt.rows) {
    if (ast_row.size() != expected) {
      return Status::InvalidArgument("INSERT row arity mismatch");
    }
    Row row(columns.num_fields(), Value::Null());
    for (size_t i = 0; i < ast_row.size(); ++i) {
      DC_ASSIGN_OR_RETURN(row[positions.empty() ? i : positions[i]],
                          EvalConstInsert(*ast_row[i]));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace sql
}  // namespace datacell
