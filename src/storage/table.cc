#include "storage/table.h"

#include "common/check.h"

namespace datacell {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.push_back(std::make_shared<Bat>(f.type));
  }
}

size_t Table::num_rows() const {
  return columns_.empty() ? 0 : columns_[0]->size();
}

Oid Table::hseqbase() const {
  return columns_.empty() ? 0 : columns_[0]->hseqbase();
}

Result<BatPtr> Table::ColumnByName(std::string_view column_name) const {
  auto idx = schema_.IndexOf(column_name);
  if (!idx.has_value()) {
    return Status::NotFound("no column '" + std::string(column_name) +
                            "' in table '" + name_ + "'");
  }
  return columns_[*idx];
}

Status Table::AppendRow(const Row& row) {
  // Validate the whole tuple before mutating any column so a bad tuple
  // cannot leave the columns misaligned.
  DC_RETURN_NOT_OK(schema_.CheckRow(row));
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i]->AppendValueUnchecked(row[i]);
  }
  return Status::OK();
}

Status Table::AppendTable(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument("appending table with different arity");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->type() != other.columns_[i]->type()) {
      return Status::TypeError("column type mismatch in AppendTable");
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i]->AppendBat(*other.columns_[i]);
  }
  return Status::OK();
}

Row Table::GetRow(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const auto& col : columns_) row.push_back(col->GetValue(i));
  return row;
}

std::vector<Row> Table::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows());
  for (size_t i = 0; i < num_rows(); ++i) rows.push_back(GetRow(i));
  return rows;
}

std::shared_ptr<Table> Table::SharePrefix(std::string name,
                                          size_t num_columns) const {
  DC_CHECK_LE(num_columns, columns_.size());
  Schema prefix;
  for (size_t i = 0; i < num_columns; ++i) prefix.AddField(schema_.field(i));
  auto out = std::make_shared<Table>(std::move(name), std::move(prefix));
  for (size_t i = 0; i < num_columns; ++i) out->columns_[i] = columns_[i];
  return out;
}

std::unique_ptr<Table> Table::Slice(size_t offset, size_t length) const {
  auto out = std::make_unique<Table>(name_, schema_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    out->columns_[i] = BatPtr(columns_[i]->Slice(offset, length));
  }
  return out;
}

std::unique_ptr<Table> Table::Take(const std::vector<size_t>& positions) const {
  auto out = std::make_unique<Table>(name_, schema_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    out->columns_[i] = BatPtr(columns_[i]->Take(positions));
  }
  return out;
}

std::unique_ptr<Table> Table::Clone() const { return Slice(0, num_rows()); }

void Table::MoveContentInto(Table& dst) {
  DC_CHECK_EQ(dst.num_columns(), num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i]->MoveContentInto(*dst.columns_[i]);
  }
}

void Table::RemovePrefix(size_t n) {
  for (auto& col : columns_) col->RemovePrefix(n);
}

void Table::RemovePositions(const std::vector<size_t>& sorted_positions) {
  for (auto& col : columns_) col->RemovePositions(sorted_positions);
}

void Table::Clear() {
  for (auto& col : columns_) col->Clear();
}

size_t Table::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col->MemoryUsage();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = name_ + "(" + schema_.ToString() + ") " +
                    std::to_string(num_rows()) + " rows\n";
  size_t n = std::min(num_rows(), max_rows);
  for (size_t i = 0; i < n; ++i) {
    Row row = GetRow(i);
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += " | ";
      out += row[c].ToString();
    }
    out += "\n";
  }
  if (num_rows() > n) out += "...\n";
  return out;
}

}  // namespace datacell
