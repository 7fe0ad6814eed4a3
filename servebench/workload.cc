#include "workload.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "table/column_view.h"
#include "table/csv.h"

namespace servebench {

namespace {

/// Generator seed of the reference lake. It is fixed so that every workload
/// seed measures the same tables and held-out fragments: p99 follows the
/// heaviest operations, which depend on the lake, and with the lake drawn
/// from the workload seed integrate's p99 spread 0.165 over five seeds
/// (0.30 on another host) against 0.040 with this lake.
constexpr uint64_t kLakeSeed = 1;
constexpr size_t kFragmentsPerDomain = 100;
constexpr size_t kHeldOutPerDomain = 4;
constexpr double kHeaderNoise = 0.5;
constexpr size_t kTopK = 10;
constexpr size_t kMaxIntegrateLakeTables = 5;

/// SplitMix64 finalizer: decorrelates the seeds of derived streams.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ',';
    out += n;
  }
  return out;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "discover") {
    *out = Workload::kDiscover;
  } else if (name == "integrate") {
    *out = Workload::kIntegrate;
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& Algorithms() {
  static const std::vector<std::string> kAlgorithms = {
      "cocoa", "josie", "keyword", "lsh_ensemble", "santos", "starmie", "tus"};
  return kAlgorithms;
}

bool IsJoinAlgorithm(const std::string& algorithm) {
  return algorithm == "lsh_ensemble" || algorithm == "josie" ||
         algorithm == "cocoa";
}

const std::vector<std::string>& SetAlgorithms() {
  static const std::vector<std::string> kSet = {"santos", "lsh_ensemble",
                                                "josie"};
  return kSet;
}

bool IntegrableDomain(const std::string& domain) {
  return domain != "world_cities" && domain != "country_facts";
}

GeneratedLake GenerateLake() {
  dialite::LakeGeneratorParams params;
  params.fragments_per_domain = kFragmentsPerDomain;
  params.header_noise = kHeaderNoise;
  params.neutral_names = true;
  params.seed = kLakeSeed;
  GeneratedLake out;
  out.gen = dialite::SyntheticLakeGenerator(params).Generate();
  const dialite::DataLake& lake = out.gen.lake;
  const dialite::GroundTruth& truth = out.gen.truth;

  dialite::Rng rng(Mix(kLakeSeed ^ 0x686f6c64ULL));
  std::unordered_set<std::string> held;
  std::vector<std::string> domains =
      dialite::SyntheticLakeGenerator::AvailableDomains();
  for (const std::string& domain : domains) {
    std::vector<std::string> eligible;
    for (const std::string& name : truth.TablesOfDomain(domain)) {
      const dialite::Table* t = lake.Get(name);
      for (size_t c = 0; c < t->num_columns(); ++c) {
        if (t->schema().column(c).type == dialite::ValueType::kString) {
          eligible.push_back(name);
          break;
        }
      }
    }
    rng.Shuffle(&eligible);
    eligible.resize(std::min(eligible.size(), kHeldOutPerDomain));
    std::sort(eligible.begin(), eligible.end());
    held.insert(eligible.begin(), eligible.end());
  }

  std::unordered_map<std::string, std::vector<std::string>> served_by_domain;
  for (const std::string& name : lake.table_names()) {
    if (held.count(name)) continue;
    out.served.push_back(name);
    served_by_domain[truth.DomainOf(name)].push_back(name);
  }
  for (const std::string& name : lake.table_names()) {
    if (!held.count(name)) continue;
    QuerySource q;
    q.table = lake.Get(name);
    q.csv = dialite::CsvWriter::ToString(*q.table);
    for (size_t c = 0; c < q.table->num_columns(); ++c) {
      if (q.table->schema().column(c).type == dialite::ValueType::kString) {
        q.string_columns.push_back(c);
      }
    }
    // The column an analyst marks (the paper's Example 1 marks City): the
    // string column with the most distinct values.
    size_t best_distinct = 0;
    for (size_t c : q.string_columns) {
      const size_t distinct = dialite::ColumnTokens(q.table->column(c)).size();
      if (distinct > best_distinct) {
        best_distinct = distinct;
        q.intent_column = c;
      }
    }
    q.domain_tables = served_by_domain[truth.DomainOf(name)];
    if (IntegrableDomain(truth.DomainOf(name))) {
      out.integrable.push_back(out.queries.size());
    }
    out.queries.push_back(std::move(q));
  }
  return out;
}

OpStream::OpStream(const GeneratedLake& lake, Workload workload, uint64_t seed,
                   uint64_t stream)
    : lake_(lake), workload_(workload), rng_(Mix(Mix(seed) ^ stream)) {}

Operation OpStream::Next() {
  return workload_ == Workload::kDiscover ? NextDiscover() : NextIntegrate();
}

Operation OpStream::NextDiscover() {
  Operation op;
  op.query = rng_.NextBounded(lake_.queries.size());
  const QuerySource& q = lake_.queries[op.query];
  const dialite::Table& t = *q.table;

  // A fresh row and column sample, so no body repeats. The intent column
  // is one of the fragment's string columns and always kept.
  const size_t intent = q.string_columns[rng_.NextBounded(q.string_columns.size())];
  std::vector<size_t> cols;
  size_t intent_pos = 0;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c == intent) intent_pos = cols.size();
    if (c == intent || rng_.NextBool(0.5)) cols.push_back(c);
  }
  const size_t min_rows = (t.num_rows() + 1) / 2;
  const size_t keep = static_cast<size_t>(rng_.NextInt(
      static_cast<int64_t>(min_rows), static_cast<int64_t>(t.num_rows())));
  std::vector<size_t> rows = rng_.SampleIndices(t.num_rows(), keep);
  std::sort(rows.begin(), rows.end());

  std::vector<dialite::ColumnDef> defs;
  for (size_t c : cols) defs.push_back(t.schema().column(c));
  dialite::Table sample("query", dialite::Schema(std::move(defs)));
  for (size_t r : rows) {
    dialite::Row row;
    row.reserve(cols.size());
    for (size_t c : cols) row.push_back(t.at(r, c));
    (void)sample.AddRow(std::move(row));
  }

  OpRequest& req = op.request;
  req.kind = OpRequest::kDiscover;
  req.algorithm = Algorithms()[rng_.NextBounded(Algorithms().size())];
  req.request.target = "/discover?algorithm=" + req.algorithm +
                       "&k=" + std::to_string(kTopK) +
                       "&column=" + std::to_string(intent_pos);
  req.request.body = dialite::CsvWriter::ToString(sample);
  return op;
}

Operation OpStream::NextIntegrate() {
  Operation op;
  op.query = lake_.integrable[rng_.NextBounded(lake_.integrable.size())];
  const QuerySource& q = lake_.queries[op.query];
  const size_t m = static_cast<size_t>(
      rng_.NextInt(1, static_cast<int64_t>(kMaxIntegrateLakeTables)));
  std::vector<std::string> tables;
  for (size_t i : rng_.SampleIndices(q.domain_tables.size(), m)) {
    tables.push_back(q.domain_tables[i]);
  }
  op.request = SetRequest(lake_, op.query, OpRequest::kIntegrate, tables);
  return op;
}

OpRequest SetRequest(const GeneratedLake& lake, size_t query,
                     OpRequest::Kind kind,
                     const std::vector<std::string>& tables) {
  OpRequest req;
  req.kind = kind;
  req.tables = tables;
  req.request.target = std::string(kind == OpRequest::kAlign ? "/align"
                                                             : "/integrate") +
                       "?tables=" + JoinNames(tables);
  req.request.body = lake.queries[query].csv;
  return req;
}

OpRequest DiscoverRequest(const GeneratedLake& lake, size_t query,
                          const std::string& algorithm) {
  const QuerySource& q = lake.queries[query];
  OpRequest req;
  req.kind = OpRequest::kDiscover;
  req.algorithm = algorithm;
  req.request.target = "/discover?algorithm=" + algorithm +
                       "&k=" + std::to_string(kTopK) +
                       "&column=" + std::to_string(q.intent_column);
  req.request.body = q.csv;
  return req;
}

}  // namespace servebench
