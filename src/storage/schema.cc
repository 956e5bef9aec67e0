#include "storage/schema.h"

#include "common/string_util.h"

namespace datacell {

std::optional<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (EqualsIgnoreCase(fields_[i].name, name)) return i;
  }
  return std::nullopt;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += " ";
    out += DataTypeToString(fields_[i].type);
  }
  return out;
}

Status Schema::CheckRow(const Row& row) const {
  if (row.size() != fields_.size()) {
    return Status::InvalidArgument("tuple arity " + std::to_string(row.size()) +
                                   " does not match schema arity " +
                                   std::to_string(fields_.size()));
  }
  for (size_t c = 0; c < fields_.size(); ++c) {
    // The boolean test keeps Status construction off the success path.
    if (!ValueMatchesType(row[c], fields_[c].type)) {
      Status detail = CheckValueType(row[c], fields_[c].type);
      return Status::TypeError("column '" + fields_[c].name +
                               "': " + detail.message());
    }
  }
  return Status::OK();
}

int64_t Schema::EstimatedRowBytes(int64_t string_bytes) const {
  int64_t bytes = 0;
  for (const Field& f : fields_) {
    switch (f.type) {
      case DataType::kBool:
        bytes += 1;
        break;
      case DataType::kInt64:
      case DataType::kDouble:
      case DataType::kTimestamp:
        bytes += 8;
        break;
      case DataType::kString:
        bytes += string_bytes;
        break;
    }
  }
  return bytes;
}

}  // namespace datacell
