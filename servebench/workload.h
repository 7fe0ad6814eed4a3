#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client.h"
#include "common/rng.h"
#include "lake/lake_generator.h"
#include "table/table.h"

namespace servebench {

enum class Workload { kDiscover, kIntegrate };

/// Parses "discover" / "integrate"; false on anything else.
bool ParseWorkload(const std::string& name, Workload* out);

/// The seven discovery algorithms dialited registers, in name order.
const std::vector<std::string>& Algorithms();

/// True for the algorithms scored against joinable ground truth (they rank
/// by the intent column's values); the rest rank unionable tables.
bool IsJoinAlgorithm(const std::string& algorithm);

/// A held-out fragment: generated but not served, used as a query.
struct QuerySource {
  const dialite::Table* table = nullptr;  ///< in the generated lake
  std::string csv;                        ///< the whole fragment as CSV
  std::vector<size_t> string_columns;     ///< candidate intent columns
  size_t intent_column = 0;  ///< fixed intent column (quality probe)
  /// Served tables of the same domain, in generation order.
  std::vector<std::string> domain_tables;
};

/// Everything the driver keeps from lake generation.
struct GeneratedLake {
  dialite::SyntheticLakeGenerator::Output gen;  ///< every table + truth
  std::vector<QuerySource> queries;             ///< 4 per domain
  /// Indexes of the queries integrate and the quality probe's /align draw
  /// from: those of the domains whose full disjunction stays bounded (see
  /// IntegrableDomain).
  std::vector<size_t> integrable;
  std::vector<std::string> served;  ///< table names served
};

/// False for the two domains whose fragments often share only
/// low-cardinality columns (Continent, IsCapital, Language, Currency):
/// world_cities and country_facts. Full disjunction over such fragments
/// merges every pair of tuples with the same value and blows up; random
/// 2-6 table sets of these domains took up to 30 s, against at most tens
/// of milliseconds for the other nine domains.
bool IntegrableDomain(const std::string& domain);

/// The reference lake, the same for every workload seed:
/// SyntheticLakeGenerator with a fixed generator seed, header noise 0.5 and
/// 100 fragments for each of its 11 domains. Four fragments per domain that
/// have a string column are held back as query sources; the other 1056 are
/// served. The workload seed draws only the operations (OpStream).
GeneratedLake GenerateLake();

/// One HTTP request of an operation, with what the answer checks need.
struct OpRequest {
  enum Kind { kDiscover, kAlign, kIntegrate } kind = kDiscover;
  Request request;
  std::string algorithm;            ///< kDiscover
  std::vector<std::string> tables;  ///< kAlign / kIntegrate lake tables
};

/// One operation of the closed loop: one request about one query.
struct Operation {
  size_t query = 0;  ///< index into GeneratedLake::queries
  OpRequest request;
};

/// Deterministic per-connection operation generator: the same (seed,
/// stream) always yields the same operations.
class OpStream {
 public:
  OpStream(const GeneratedLake& lake, Workload workload, uint64_t seed,
           uint64_t stream);
  Operation Next();

 private:
  Operation NextDiscover();
  Operation NextIntegrate();

  const GeneratedLake& lake_;
  Workload workload_;
  dialite::Rng rng_;
};

/// The discovery algorithms whose hits pick the quality probe's integration
/// set, as the paper's demo flow picks it: santos, lsh_ensemble and josie.
const std::vector<std::string>& SetAlgorithms();

/// The /align or /integrate request for the whole fragment `query` plus the
/// served tables `tables`.
OpRequest SetRequest(const GeneratedLake& lake, size_t query,
                     OpRequest::Kind kind,
                     const std::vector<std::string>& tables);

/// POST /discover for the whole fragment `query` on its fixed intent column
/// (the quality probe).
OpRequest DiscoverRequest(const GeneratedLake& lake, size_t query,
                          const std::string& algorithm);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
