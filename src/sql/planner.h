#ifndef DATACELL_SQL_PLANNER_H_
#define DATACELL_SQL_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "sql/ast.h"
#include "storage/catalog.h"

namespace datacell {
namespace sql {

/// Resolved window specification, handed to the DataCell core which realises
/// it by scheduling + plan re-binding (no new kernel operators, §3.1).
struct WindowSpec {
  enum class Kind { kNone, kCount, kTime } kind = Kind::kNone;
  int64_t size = 0;   // tuples (kCount) or microseconds (kTime)
  int64_t slide = 0;  // same unit; slide == size => tumbling
};

/// One stream input of a continuous query: which basket feeds the plan,
/// under which name the plan's Scan expects the drained slice, and which
/// tuples the basket expression consumes.
struct ContinuousInput {
  std::string basket;        // catalog name of the basket
  std::string bind_name;     // Scan relation name inside the plan
  Schema basket_schema;      // full basket schema (incl. timestamp column)
  ExprPtr consume_predicate; // over basket_schema; nullptr = all tuples
};

/// A compiled query: an executable plan plus, for continuous queries, the
/// basket plumbing the factory needs.
struct CompiledQuery {
  PlanPtr plan;
  Schema output_schema;
  bool continuous = false;
  std::vector<ContinuousInput> inputs;  // continuous only
  WindowSpec window;
  std::optional<int64_t> threshold;     // min tuples before firing (§2.4)
  std::string sql_text;                 // original text, for diagnostics
};

/// Compiles parsed SELECT statements against a catalog. Stateless apart
/// from the catalog pointer; safe to use from multiple threads as long as
/// the catalog outlives it.
class Planner {
 public:
  explicit Planner(const Catalog* catalog) : catalog_(catalog) {}

  /// Compiles `stmt`. Queries whose FROM contains a basket expression
  /// compile as continuous; plain queries compile as one-time plans whose
  /// Scan nodes bind catalog relations by name.
  Result<CompiledQuery> CompileSelect(const SelectStmt& stmt) const;

 private:
  const Catalog* catalog_;
};

/// Materialises an INSERT's literal rows (optionally negated numbers) over
/// `columns`, the relation's user columns: a column list permutes the
/// values and leaves unlisted columns NULL. Types are checked on append.
Result<std::vector<Row>> InsertRows(const InsertStmt& stmt,
                                    const Schema& columns);

}  // namespace sql
}  // namespace datacell

#endif  // DATACELL_SQL_PLANNER_H_
