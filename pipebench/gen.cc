#include "gen.h"

#include <filesystem>

#include "common/strings.h"
#include "engine/catalog.h"
#include "storage/dialects.h"

namespace pipebench {

using namespace dbfa;

namespace {

const char* const kOwners[] = {"Christine", "Christopher", "Thomas", "Jane",
                               "Joe",       "Maria",       "Ahmed",  "Wei",
                               "Olga",      "Carlos"};
const char* const kCities[] = {"Chicago", "Seattle", "Austin", "Boston",
                               "Denver",  "Miami",   "Phoenix"};

// Rows per INSERT statement; bounds the statement text for wide rows.
constexpr int kBulkBatch = 200;

const char* RandomOwner(Rng* rng) {
  return kOwners[rng->NextU64() % (sizeof(kOwners) / sizeof(kOwners[0]))];
}

const char* RandomCity(Rng* rng) {
  return kCities[rng->NextU64() % (sizeof(kCities) / sizeof(kCities[0]))];
}

}  // namespace

Status BulkInsert(Database* db, const std::string& table, int64_t first_id,
                  int count, size_t note_len, Rng* rng,
                  const std::string& owner) {
  for (int done = 0; done < count;) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int j = 0; j < kBulkBatch && done < count; ++j, ++done) {
      if (j > 0) sql += ", ";
      sql += StrFormat("(%lld, '%s', '%s', %lld.%02d",
                       static_cast<long long>(first_id + done),
                       owner.empty() ? RandomOwner(rng) : owner.c_str(),
                       RandomCity(rng),
                       static_cast<long long>(rng->Uniform(0, 9999)),
                       static_cast<int>(rng->Uniform(0, 99)));
      if (note_len > 0) sql += ", '" + rng->Word(note_len) + "'";
      sql += ")";
    }
    DBFA_RETURN_IF_ERROR(db->ExecuteSql(sql).status());
  }
  return Status::Ok();
}

Result<RowPointer> FindRow(Database* db, const std::string& table,
                           int64_t id, Record* values) {
  TableHeap* heap = db->heap(table);
  if (heap == nullptr) return Status::NotFound("no table " + table);
  RowPointer out{};
  bool found = false;
  DBFA_RETURN_IF_ERROR(heap->Scan([&](RowPointer ptr, const Record& rec) {
    if (!found && IdOf(rec) == id) {
      out = ptr;
      found = true;
      if (values != nullptr) *values = rec;
    }
    return Status::Ok();
  }));
  if (!found) {
    return Status::NotFound(StrFormat("no live row %lld in %s",
                                      static_cast<long long>(id),
                                      table.c_str()));
  }
  return out;
}

Result<size_t> CountActive(Database* db, const std::string& table) {
  TableHeap* heap = db->heap(table);
  if (heap == nullptr) return Status::NotFound("no table " + table);
  size_t n = 0;
  DBFA_RETURN_IF_ERROR(heap->Scan([&](RowPointer, const Record&) {
    ++n;
    return Status::Ok();
  }));
  return n;
}

CarverConfig ConfigFor(const std::string& dialect) {
  CarverConfig config;
  config.params = GetDialect(dialect).value();
  config.catalog_object_id = kCatalogObjectId;
  return config;
}

std::string DiffArtifacts(const CarveResult& expected,
                          const CarveResult& actual) {
  auto diff = [](const char* what, const auto& a, const auto& b) {
    if (a.size() != b.size()) {
      return StrFormat("%s: %zu vs %zu", what, a.size(), b.size());
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return StrFormat("%s: element %zu differs", what, i);
    }
    return std::string();
  };
  if (expected.image_size != actual.image_size) return "image size differs";
  for (std::string d :
       {diff("pages", expected.pages, actual.pages),
        diff("records", expected.records, actual.records),
        diff("index entries", expected.index_entries, actual.index_entries),
        diff("catalog entries", expected.catalog_entries,
             actual.catalog_entries)}) {
    if (!d.empty()) return d;
  }
  if (expected.schemas != actual.schemas) return "schemas differ";
  if (expected.indexes != actual.indexes) return "indexes differ";
  if (expected.dropped_objects != actual.dropped_objects) {
    return "dropped objects differ";
  }
  return "";
}

size_t DirBytes(const std::string& dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

int64_t IdOf(const Record& values) {
  if (values.empty() || values[0].type() != ValueType::kInt) return -1;
  return values[0].as_int();
}

}  // namespace pipebench
