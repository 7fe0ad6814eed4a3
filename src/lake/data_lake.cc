#include "lake/data_lake.h"

#include <algorithm>
#include <filesystem>

#include "common/string_util.h"
#include "lake/lake_tokens.h"
#include "table/csv.h"

namespace dialite {

namespace fs = std::filesystem;

DataLake::DataLake() : tokens_slot_(std::make_unique<TokensSlot>()) {}

Status DataLake::AddTable(Table table) {
  if (table.name().empty()) {
    return Status::InvalidArgument("lake tables must be named");
  }
  if (ids_.count(table.name())) {
    return Status::AlreadyExists("table '" + table.name() + "'");
  }
  if (tables_.size() >= kNoTable) {
    return Status::InvalidArgument("lake table ids exhausted");
  }
  std::string name = table.name();
  {
    // The next tokens() call covers the new table too.
    MutexLock lock(tokens_slot_->mu);
    tokens_slot_->tokens.reset();
  }
  ids_.emplace(name, static_cast<TableId>(tables_.size()));
  tables_.push_back(std::make_unique<Table>(std::move(table)));
  names_.push_back(std::move(name));
  return Status::OK();
}

const Table* DataLake::Get(const std::string& name) const {
  const TableId id = IdOf(name);
  return id == kNoTable ? nullptr : tables_[id].get();
}

bool DataLake::Contains(const std::string& name) const {
  return ids_.count(name) > 0;
}

TableId DataLake::IdOf(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoTable : it->second;
}

std::shared_ptr<const LakeTokens> DataLake::tokens(size_t num_threads) const {
  // Held across the build, so concurrent first callers wait for it.
  MutexLock lock(tokens_slot_->mu);
  if (tokens_slot_->tokens == nullptr) {
    tokens_slot_->tokens = LakeTokens::Build(*this, num_threads);
  }
  return tokens_slot_->tokens;
}

bool DataLake::tokens_built() const {
  MutexLock lock(tokens_slot_->mu);
  return tokens_slot_->tokens != nullptr;
}

void DataLake::InstallTokens(std::shared_ptr<const LakeTokens> tokens) {
  MutexLock lock(tokens_slot_->mu);
  tokens_slot_->tokens = std::move(tokens);
}

std::vector<const Table*> DataLake::tables() const {
  std::vector<const Table*> out;
  out.reserve(tables_.size());
  for (const std::unique_ptr<Table>& t : tables_) out.push_back(t.get());
  return out;
}

LakeStats DataLake::Stats() const {
  LakeStats s;
  s.num_tables = tables_.size();
  double null_sum = 0.0;
  for (const auto& [name, id] : ids_) {
    const Table& t = *tables_[id];
    s.total_rows += t.num_rows();
    s.total_columns += t.num_columns();
    null_sum += t.NullFraction();
  }
  if (s.num_tables > 0) {
    s.avg_null_fraction = null_sum / static_cast<double>(s.num_tables);
  }
  return s;
}

Result<size_t> DataLake::LoadDirectory(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::IoError("not a directory: " + dir);
  }
  // Sort paths for deterministic load order.
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  size_t loaded = 0;
  for (const std::string& p : paths) {
    Result<Table> t = CsvReader::ReadFile(p);
    if (!t.ok()) return t.status();
    DIALITE_RETURN_IF_ERROR(AddTable(std::move(t).value()));
    ++loaded;
  }
  return loaded;
}

Status DataLake::SaveDirectory(const std::string& dir) const {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  for (const std::string& n : names_) {
    DIALITE_RETURN_IF_ERROR(CsvWriter::WriteFile(*Get(n), dir + "/" + n + ".csv"));
  }
  return Status::OK();
}

}  // namespace dialite
