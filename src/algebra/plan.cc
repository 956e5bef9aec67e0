#include "algebra/plan.h"

#include <algorithm>

#include "common/check.h"

namespace datacell {

// Make* factories are friends of PlanNode, so they can reach the private
// constructor directly; `new` instead of make_shared keeps that access legal.
#define DC_NEW_PLAN_NODE() std::shared_ptr<PlanNode>(new PlanNode())

Result<PlanPtr> MakeScan(std::string relation, Schema schema) {
  if (relation.empty()) {
    return Status::InvalidArgument("scan relation name must not be empty");
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kScan;
  n->scan_relation_ = std::move(relation);
  n->output_schema_ = std::move(schema);
  return PlanPtr(n);
}

Result<PlanPtr> MakeFilter(PlanPtr child, ExprPtr predicate) {
  if (child == nullptr || predicate == nullptr) {
    return Status::InvalidArgument("filter requires child and predicate");
  }
  if (predicate->type() != DataType::kBool) {
    return Status::TypeError("filter predicate must be boolean: " +
                             predicate->ToString());
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kFilter;
  n->output_schema_ = child->output_schema();
  n->predicate_ = std::move(predicate);
  n->children_ = {std::move(child)};
  return PlanPtr(n);
}

Result<PlanPtr> MakeProject(PlanPtr child, std::vector<ExprPtr> projections,
                            std::vector<std::string> names) {
  if (child == nullptr || projections.empty() ||
      projections.size() != names.size()) {
    return Status::InvalidArgument(
        "project requires a child and matching expression/name lists");
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kProject;
  Schema schema;
  for (size_t i = 0; i < projections.size(); ++i) {
    if (projections[i] == nullptr) {
      return Status::InvalidArgument("null projection expression");
    }
    schema.AddField(Field{names[i], projections[i]->type()});
  }
  n->output_schema_ = std::move(schema);
  n->projections_ = std::move(projections);
  n->children_ = {std::move(child)};
  return PlanPtr(n);
}

Result<PlanPtr> MakeHashJoin(PlanPtr left, PlanPtr right, size_t left_key,
                             size_t right_key) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("join requires two children");
  }
  if (left_key >= left->output_schema().num_fields() ||
      right_key >= right->output_schema().num_fields()) {
    return Status::InvalidArgument("join key column out of range");
  }
  DataType lt = left->output_schema().field(left_key).type;
  DataType rt = right->output_schema().field(right_key).type;
  if (lt != rt && !(IsIntegerBacked(lt) && IsIntegerBacked(rt))) {
    return Status::TypeError("join key type mismatch");
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kHashJoin;
  Schema schema;
  for (const Field& f : left->output_schema().fields()) schema.AddField(f);
  for (const Field& f : right->output_schema().fields()) schema.AddField(f);
  n->output_schema_ = std::move(schema);
  n->left_key_ = left_key;
  n->right_key_ = right_key;
  n->children_ = {std::move(left), std::move(right)};
  return PlanPtr(n);
}

Result<PlanPtr> MakeAggregate(PlanPtr child, std::vector<size_t> group_columns,
                              std::vector<AggSpec> aggregates) {
  if (child == nullptr) return Status::InvalidArgument("aggregate needs child");
  if (aggregates.empty()) {
    return Status::InvalidArgument("aggregate needs at least one function");
  }
  const Schema& in = child->output_schema();
  Schema schema;
  for (size_t c : group_columns) {
    if (c >= in.num_fields()) {
      return Status::InvalidArgument("group column out of range");
    }
    schema.AddField(in.field(c));
  }
  for (AggSpec& a : aggregates) {
    if (!a.count_star && a.input_column >= in.num_fields()) {
      return Status::InvalidArgument("aggregate input column out of range");
    }
    if (a.output_name.empty()) {
      a.output_name = std::string(AggFuncToString(a.func)) + "_" +
                      (a.count_star ? "star" : in.field(a.input_column).name);
    }
    DataType t = a.func == AggFunc::kCount ? DataType::kInt64 : DataType::kDouble;
    schema.AddField(Field{a.output_name, t});
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kAggregate;
  n->output_schema_ = std::move(schema);
  n->group_columns_ = std::move(group_columns);
  n->aggregates_ = std::move(aggregates);
  n->children_ = {std::move(child)};
  return PlanPtr(n);
}

Result<PlanPtr> MakeSort(PlanPtr child, std::vector<SortKey> keys) {
  if (child == nullptr || keys.empty()) {
    return Status::InvalidArgument("sort requires a child and keys");
  }
  for (const SortKey& k : keys) {
    if (k.column >= child->output_schema().num_fields()) {
      return Status::InvalidArgument("sort key column out of range");
    }
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kSort;
  n->output_schema_ = child->output_schema();
  n->sort_keys_ = std::move(keys);
  n->children_ = {std::move(child)};
  return PlanPtr(n);
}

Result<PlanPtr> MakeDistinct(PlanPtr child) {
  if (child == nullptr) return Status::InvalidArgument("distinct needs child");
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kDistinct;
  n->output_schema_ = child->output_schema();
  n->children_ = {std::move(child)};
  return PlanPtr(n);
}

Result<PlanPtr> MakeLimit(PlanPtr child, size_t offset, size_t limit) {
  if (child == nullptr) return Status::InvalidArgument("limit needs child");
  if (limit == 0 && offset == 0) {
    return Status::InvalidArgument("limit 0 offset 0 is a no-op");
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kLimit;
  n->output_schema_ = child->output_schema();
  n->offset_ = offset;
  n->limit_ = limit;
  n->children_ = {std::move(child)};
  return PlanPtr(n);
}

Result<PlanPtr> MakeUnion(PlanPtr left, PlanPtr right) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("union requires two children");
  }
  const Schema& ls = left->output_schema();
  const Schema& rs = right->output_schema();
  if (ls.num_fields() != rs.num_fields()) {
    return Status::TypeError("union arity mismatch");
  }
  for (size_t i = 0; i < ls.num_fields(); ++i) {
    if (ls.field(i).type != rs.field(i).type) {
      return Status::TypeError("union column type mismatch at position " +
                               std::to_string(i));
    }
  }
  auto n = DC_NEW_PLAN_NODE();
  n->kind_ = PlanKind::kUnion;
  n->output_schema_ = ls;
  n->children_ = {std::move(left), std::move(right)};
  return PlanPtr(n);
}

Result<PlanPtr> WithChild(const PlanNode& node, PlanPtr child) {
  if (node.children_.size() != 1 || child == nullptr) {
    return Status::InvalidArgument("WithChild needs a single-child node");
  }
  if (!(child->output_schema() == node.children_[0]->output_schema())) {
    return Status::TypeError("WithChild: replacement child schema differs");
  }
  auto n = DC_NEW_PLAN_NODE();
  *n = node;
  n->children_ = {std::move(child)};
  return PlanPtr(n);
}

std::vector<std::string> PlanNode::InputRelations() const {
  std::vector<std::string> out;
  if (kind_ == PlanKind::kScan) out.push_back(scan_relation_);
  for (const PlanPtr& c : children_) {
    std::vector<std::string> sub = c->InputRelations();
    out.insert(out.end(), std::make_move_iterator(sub.begin()),
               std::make_move_iterator(sub.end()));
  }
  return out;
}

std::string PlanNode::Describe() const {
  switch (kind_) {
    case PlanKind::kScan:
      return "Scan(" + scan_relation_ + ")";
    case PlanKind::kFilter:
      return "Filter(" + predicate_->ToString() + ")";
    case PlanKind::kProject: {
      std::string s = "Project(";
      for (size_t i = 0; i < projections_.size(); ++i) {
        if (i > 0) s += ", ";
        s += projections_[i]->ToString() + " as " + output_schema_.field(i).name;
      }
      return s + ")";
    }
    case PlanKind::kHashJoin:
      return "HashJoin(left." +
             children_[0]->output_schema().field(left_key_).name + " = right." +
             children_[1]->output_schema().field(right_key_).name + ")";
    case PlanKind::kAggregate: {
      std::string s = "Aggregate(groups=[";
      for (size_t i = 0; i < group_columns_.size(); ++i) {
        if (i > 0) s += ", ";
        s += children_[0]->output_schema().field(group_columns_[i]).name;
      }
      s += "], aggs=[";
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (i > 0) s += ", ";
        s += AggFuncToString(aggregates_[i].func);
        s += "(";
        s += aggregates_[i].count_star
                 ? "*"
                 : children_[0]->output_schema().field(aggregates_[i].input_column).name;
        s += ")";
      }
      return s + "])";
    }
    case PlanKind::kSort: {
      std::string s = "Sort(";
      for (size_t i = 0; i < sort_keys_.size(); ++i) {
        if (i > 0) s += ", ";
        s += children_[0]->output_schema().field(sort_keys_[i].column).name;
        s += sort_keys_[i].ascending ? " asc" : " desc";
      }
      return s + ")";
    }
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kLimit:
      return "Limit(offset=" + std::to_string(offset_) +
             ", limit=" + std::to_string(limit_) + ")";
    case PlanKind::kUnion:
      return "Union";
  }
  return "?";
}

namespace {
void ToStringRec(const PlanNode& n, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(n.Describe());
  out->push_back('\n');
  for (const PlanPtr& c : n.children()) ToStringRec(*c, depth + 1, out);
}
}  // namespace

std::string PlanNode::ToString() const {
  std::string out;
  ToStringRec(*this, 0, &out);
  return out;
}

}  // namespace datacell
