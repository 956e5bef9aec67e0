#ifndef DATACELL_STORAGE_SCHEMA_H_
#define DATACELL_STORAGE_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/types.h"

namespace datacell {

/// One attribute of a relation: a name and a type.
struct Field {
  std::string name;
  DataType type;

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// Ordered attribute list of a relation. Field names are stored as given;
/// lookups are case-insensitive, matching SQL identifier semantics.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  void AddField(Field f) { fields_.push_back(std::move(f)); }

  /// Position of the field named `name`, or nullopt.
  std::optional<size_t> IndexOf(std::string_view name) const;

  /// "name type, name type, ..." rendering.
  std::string ToString() const;

  /// The row validator: OK when `row` has this schema's arity and every
  /// value is storable in its column (CheckValueType coercions: int64
  /// widens to double and timestamp; nulls fit anywhere). Row appends to
  /// column batches and tables both check through here.
  Status CheckRow(const Row& row) const;

  /// Estimated in-memory bytes of one row of this schema: fixed-width types
  /// by their value size (bool 1, int64/double/timestamp 8), strings by the
  /// caller-supplied per-value estimate (Values carry std::string payloads
  /// whose true length is data-dependent). The static state-bound analyzer
  /// and the runtime state-accounting hooks share this so static bounds and
  /// measured occupancy are expressed in the same unit.
  int64_t EstimatedRowBytes(int64_t string_bytes) const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
};

}  // namespace datacell

#endif  // DATACELL_STORAGE_SCHEMA_H_
