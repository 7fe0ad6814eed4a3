#include "integrate/full_disjunction.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "integrate/tuple_codes.h"

namespace dialite {

namespace {

/// A tuple's provenance: the sorted id list [begin, end) of the run's
/// ProvArena (ids order like their labels, see InternProvenance).
struct ProvSpan {
  size_t begin = 0;
  size_t end = 0;
};

/// Append-only store of the provenance id lists of one FD run (of one
/// component, in ParallelFullDisjunction). A list is written once, when a
/// tuple gets it, and never changes, so the worklist's snapshot of a
/// tuple's provenance is just its span.
class ProvArena {
 public:
  ProvSpan Append(const uint32_t* first, const uint32_t* last) {
    const size_t begin = ids_.size();
    ids_.insert(ids_.end(), first, last);
    return {begin, ids_.size()};
  }
  ProvSpan Append(const std::vector<uint32_t>& ids) {
    return Append(ids.data(), ids.data() + ids.size());
  }

  const uint32_t* begin(ProvSpan s) const { return ids_.data() + s.begin; }
  const uint32_t* end(ProvSpan s) const { return ids_.data() + s.end; }

 private:
  std::vector<uint32_t> ids_;
};

/// The sorted, duplicate-free union of the sorted id lists [a, a_end) and
/// [b, b_end) — what sorting their concatenation and dropping repeats
/// gives — into `*out`, a scratch list reused across merges.
void UnionIds(const uint32_t* a, const uint32_t* a_end, const uint32_t* b,
              const uint32_t* b_end, std::vector<uint32_t>* out) {
  out->clear();
  std::set_union(a, a_end, b, b_end, std::back_inserter(*out));
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

/// Working set of tuples + provenance during FD computation. Tuples are
/// flat spans of 32-bit cell codes (see tuple_codes.h): complementation,
/// merging, subsumption, and dedup all run on integers, and cells decode
/// back to Values only when the final pool becomes a Table. Provenance is
/// ids into the run's ProvArena, decoded to labels only by EmitTuple.
struct CodedPool {
  size_t width = 0;
  std::vector<uint32_t> cells;  // row-major, size() * width
  std::vector<ProvSpan> provs;

  size_t size() const { return provs.size(); }
  const uint32_t* row(size_t i) const { return cells.data() + i * width; }
  uint32_t* row(size_t i) { return cells.data() + i * width; }
  void AppendRow(const uint32_t* src, ProvSpan prov) {
    cells.insert(cells.end(), src, src + width);
    provs.push_back(prov);
  }
};

/// Every provenance label of the outer union, interned once. `labels` holds
/// the distinct labels sorted by bytes, so ids order like their labels and
/// a sorted id list decodes to the sorted label list. Row r's ids, sorted
/// with repeats kept (an input row may repeat a label), are
/// ids[row_begin[r], row_begin[r + 1]).
struct InternedProv {
  std::vector<std::string_view> labels;  // views into the outer union
  std::vector<uint32_t> ids;
  std::vector<size_t> row_begin;
};

InternedProv InternProvenance(const Table& u) {
  InternedProv out;
  out.row_begin.reserve(u.num_rows() + 1);
  out.row_begin.push_back(0);
  std::vector<std::pair<std::string_view, size_t>> refs;  // label, id slot
  for (size_t r = 0; r < u.num_rows(); ++r) {
    for (const std::string& label : u.provenance(r)) {
      refs.emplace_back(label, refs.size());
    }
    out.row_begin.push_back(refs.size());
  }
  std::sort(refs.begin(), refs.end());
  out.ids.resize(refs.size());
  for (const auto& [label, slot] : refs) {
    if (out.labels.empty() || out.labels.back() != label) {
      out.labels.push_back(label);
    }
    out.ids[slot] = static_cast<uint32_t>(out.labels.size() - 1);
  }
  for (size_t r = 0; r < u.num_rows(); ++r) {
    std::sort(out.ids.begin() + static_cast<long>(out.row_begin[r]),
              out.ids.begin() + static_cast<long>(out.row_begin[r + 1]));
  }
  return out;
}

/// Local FD tally, accumulated branch-free in the hot loops and flushed
/// into the integrate.fd.* counters once per Integrate (when enabled).
struct FdTally {
  uint64_t rows_scanned = 0;         ///< candidate tuple pairs examined
  uint64_t merges = 0;               ///< complementation merges performed
  uint64_t produced_nulls = 0;       ///< produced-null cells in the outer union
  uint64_t subsumed_tuples = 0;      ///< tuples dropped as ⊑-dominated
  uint64_t fixpoint_iterations = 0;  ///< worklist items (indexed) / rounds (naive)

  void MergeFrom(const FdTally& other) {
    rows_scanned += other.rows_scanned;
    merges += other.merges;
    produced_nulls += other.produced_nulls;
    subsumed_tuples += other.subsumed_tuples;
    fixpoint_iterations += other.fixpoint_iterations;
  }
};

/// Flushes a tally plus input/output sizes into `obs` (no-op when null).
void EmitFdCounters(ObservabilityContext* obs, const FdTally& tally,
                    size_t input_rows, size_t output_rows) {
  if (obs == nullptr) return;
  Metrics& m = obs->metrics();
  m.Add("integrate.fd.input_rows", input_rows);
  m.Add("integrate.fd.output_rows", output_rows);
  m.Add("integrate.fd.rows_scanned", tally.rows_scanned);
  m.Add("integrate.fd.merges", tally.merges);
  m.Add("integrate.fd.produced_nulls", tally.produced_nulls);
  m.Add("integrate.fd.subsumed_tuples", tally.subsumed_tuples);
  m.Add("integrate.fd.fixpoint_iterations", tally.fixpoint_iterations);
}

/// Produced-null cells the outer union padded in (the integration cost the
/// paper's Fig. 8 tracks).
uint64_t CountProducedNulls(const std::vector<uint32_t>& cells) {
  uint64_t n = 0;
  for (uint32_t c : cells) {
    if (c == kProducedNullCode) ++n;
  }
  return n;
}

/// When a merged tuple collides with an identical existing tuple, keep the
/// more informative null kinds (missing beats produced) and union
/// provenance with the sorted ids [prov, prov_end); the union goes to the
/// arena only if it adds a label. `scratch` is reused across calls.
void AbsorbDuplicate(CodedPool* pool, ProvArena* arena, size_t idx,
                     const uint32_t* row, const uint32_t* prov,
                     const uint32_t* prov_end,
                     std::vector<uint32_t>* scratch) {
  uint32_t* target = pool->row(idx);
  for (size_t c = 0; c < pool->width; ++c) {
    if (target[c] == kProducedNullCode && row[c] == kMissingNullCode) {
      target[c] = kMissingNullCode;
    }
  }
  const ProvSpan have = pool->provs[idx];
  UnionIds(arena->begin(have), arena->end(have), prov, prov_end, scratch);
  if (!std::equal(scratch->begin(), scratch->end(), arena->begin(have),
                  arena->end(have))) {
    pool->provs[idx] = arena->Append(*scratch);
  }
}

/// Key of one non-null cell for the (column, code) inverted index.
uint64_t CellKey(size_t column, uint32_t code) {
  return HashCombine(Mix64(column + 1), code);
}

// The FD kernels poll once per worklist item / round / pool row / bucket
// candidate through a CancelPoller, which reads the clock on its first poll
// and then once per stride, so a pre-expired token aborts before the first
// fixpoint iteration ticks.
bool FdCancelled(const CancelToken* cancel) {
  return cancel != nullptr && cancel->Cancelled();
}

Status FdDeadline(const char* stage) {
  return Status::DeadlineExceeded(std::string("full disjunction cancelled ") +
                                  stage);
}

/// Indexed complementation fix-point (ALITE-style candidate pruning).
Status ComplementFixpointIndexed(CodedPool* pool, ProvArena* arena,
                                 size_t max_tuples, FdTally* tally,
                                 const CancelToken* cancel) {
  const size_t width = pool->width;
  std::unordered_map<uint64_t, std::vector<size_t>> cell_index;
  std::unordered_map<uint64_t, std::vector<size_t>> dedup;

  auto index_tuple = [&](size_t idx) {
    const uint32_t* row = pool->row(idx);
    for (size_t c = 0; c < width; ++c) {
      if (!CodeIsNull(row[c])) cell_index[CellKey(c, row[c])].push_back(idx);
    }
    dedup[CodedRowKey(row, width)].push_back(idx);
  };
  /// Returns the pool index holding a tuple identical to `row`, or npos.
  auto find_identical = [&](const uint32_t* row) -> size_t {
    auto it = dedup.find(CodedRowKey(row, width));
    if (it == dedup.end()) return static_cast<size_t>(-1);
    for (size_t idx : it->second) {
      if (CodedIdentical(pool->row(idx), row, width)) return idx;
    }
    return static_cast<size_t>(-1);
  };

  std::deque<size_t> worklist;
  for (size_t i = 0; i < pool->size(); ++i) {
    index_tuple(i);
    worklist.push_back(i);
  }

  // Epoch-stamped visited marks dedup candidates per worklist item without
  // allocating a set per tuple (the hot path on skewed buckets).
  std::vector<uint32_t> visited(pool->size(), 0);
  uint32_t epoch = 0;

  std::vector<uint32_t> row(width);
  std::vector<uint32_t> merged(width);
  // Provenance scratch, reused: once warm, a merge allocates nothing.
  std::vector<uint32_t> mprov;
  std::vector<uint32_t> absorbed;
  CancelPoller poll(cancel);
  while (!worklist.empty()) {
    if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
    const size_t idx = worklist.front();
    worklist.pop_front();
    ++tally->fixpoint_iterations;
    // Snapshot: pool cells may reallocate as merges append, and an absorb
    // may repoint provs[idx] (the list it pointed at stays as it was).
    std::copy(pool->row(idx), pool->row(idx) + width, row.begin());
    const ProvSpan prov = pool->provs[idx];
    ++epoch;

    for (size_t c = 0; c < width; ++c) {
      if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
      if (CodeIsNull(row[c])) continue;
      auto it = cell_index.find(CellKey(c, row[c]));
      if (it == cell_index.end()) continue;
      // NOTE: the bucket vector may grow as merges are indexed; index-based
      // iteration stays valid, and newly appended tuples get their own
      // worklist turn anyway.
      const std::vector<size_t>& bucket = it->second;
      const size_t bucket_size = bucket.size();
      for (size_t bi = 0; bi < bucket_size; ++bi) {
        if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
        const size_t cand = bucket[bi];
        if (cand == idx) continue;
        if (cand < visited.size() && visited[cand] == epoch) continue;
        if (cand >= visited.size()) visited.resize(pool->size(), 0);
        visited[cand] = epoch;
        ++tally->rows_scanned;
        if (!CodedComplement(row.data(), pool->row(cand), width)) continue;
        ++tally->merges;
        CodedMerge(row.data(), pool->row(cand), width, merged.data());
        const ProvSpan cprov = pool->provs[cand];
        UnionIds(arena->begin(prov), arena->end(prov), arena->begin(cprov),
                 arena->end(cprov), &mprov);
        size_t existing = find_identical(merged.data());
        if (existing != static_cast<size_t>(-1)) {
          AbsorbDuplicate(pool, arena, existing, merged.data(), mprov.data(),
                          mprov.data() + mprov.size(), &absorbed);
          continue;
        }
        if (pool->size() >= max_tuples) {
          return Status::OutOfRange("full disjunction exceeded max_tuples=" +
                                    std::to_string(max_tuples));
        }
        pool->AppendRow(merged.data(), arena->Append(mprov));
        visited.push_back(0);
        index_tuple(pool->size() - 1);
        worklist.push_back(pool->size() - 1);
      }
    }
  }
  return Status::OK();
}

/// Naive complementation fix-point: rescan all pairs every round.
Status ComplementFixpointNaive(CodedPool* pool, ProvArena* arena,
                               size_t max_tuples, FdTally* tally,
                               const CancelToken* cancel) {
  const size_t width = pool->width;
  std::unordered_map<uint64_t, std::vector<size_t>> dedup;
  for (size_t i = 0; i < pool->size(); ++i) {
    dedup[CodedRowKey(pool->row(i), width)].push_back(i);
  }
  auto exists = [&](const uint32_t* row) -> size_t {
    auto it = dedup.find(CodedRowKey(row, width));
    if (it == dedup.end()) return static_cast<size_t>(-1);
    for (size_t idx : it->second) {
      if (CodedIdentical(pool->row(idx), row, width)) return idx;
    }
    return static_cast<size_t>(-1);
  };
  std::vector<uint32_t> merged(width);
  std::vector<uint32_t> mprov;
  std::vector<uint32_t> absorbed;
  CancelPoller poll(cancel);
  bool changed = true;
  while (changed) {
    if (poll.Cancelled()) return FdDeadline("in naive fixpoint");
    changed = false;
    ++tally->fixpoint_iterations;
    const size_t n = pool->size();
    for (size_t i = 0; i < n; ++i) {
      if (poll.Cancelled()) return FdDeadline("in naive fixpoint");
      for (size_t j = i + 1; j < n; ++j) {
        if (poll.Cancelled()) return FdDeadline("in naive fixpoint");
        ++tally->rows_scanned;
        if (!CodedComplement(pool->row(i), pool->row(j), width)) continue;
        ++tally->merges;
        CodedMerge(pool->row(i), pool->row(j), width, merged.data());
        const ProvSpan iprov = pool->provs[i];
        const ProvSpan jprov = pool->provs[j];
        UnionIds(arena->begin(iprov), arena->end(iprov), arena->begin(jprov),
                 arena->end(jprov), &mprov);
        size_t existing = exists(merged.data());
        if (existing != static_cast<size_t>(-1)) {
          AbsorbDuplicate(pool, arena, existing, merged.data(), mprov.data(),
                          mprov.data() + mprov.size(), &absorbed);
          continue;
        }
        if (pool->size() >= max_tuples) {
          return Status::OutOfRange("full disjunction exceeded max_tuples=" +
                                    std::to_string(max_tuples));
        }
        pool->AppendRow(merged.data(), arena->Append(mprov));
        dedup[CodedRowKey(pool->row(pool->size() - 1), width)].push_back(
            pool->size() - 1);
        changed = true;
      }
    }
  }
  return Status::OK();
}

/// Keeps only ⊑-maximal tuples into `*out`. Assumes no two pool tuples are
/// identical. Polls `cancel` once per pool row.
Status RemoveSubsumed(const CodedPool& pool, FdTally* tally,
                      const CancelToken* cancel, CodedPool* out) {
  const size_t width = pool.width;
  const size_t n = pool.size();
  // Cell index for candidate subsumers.
  std::unordered_map<uint64_t, std::vector<size_t>> cell_index;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t* row = pool.row(i);
    for (size_t c = 0; c < width; ++c) {
      if (!CodeIsNull(row[c])) cell_index[CellKey(c, row[c])].push_back(i);
    }
  }
  std::vector<bool> keep(n, true);
  size_t non_empty_tuples = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t* row = pool.row(i);
    bool all_null = true;
    for (size_t c = 0; c < width; ++c) {
      if (!CodeIsNull(row[c])) {
        all_null = false;
        break;
      }
    }
    if (!all_null) ++non_empty_tuples;
  }
  CancelPoller poll(cancel);
  for (size_t i = 0; i < n; ++i) {
    if (poll.Cancelled()) return FdDeadline("in subsumption removal");
    const uint32_t* row = pool.row(i);
    // Smallest candidate bucket among i's non-null cells.
    const std::vector<size_t>* smallest = nullptr;
    bool all_null = true;
    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(row[c])) continue;
      all_null = false;
      const std::vector<size_t>& bucket = cell_index.at(CellKey(c, row[c]));
      if (smallest == nullptr || bucket.size() < smallest->size()) {
        smallest = &bucket;
      }
    }
    if (all_null) {
      // A tuple with no facts is subsumed by any tuple that has one.
      keep[i] = non_empty_tuples == 0 && i == 0;
      continue;
    }
    for (size_t j : *smallest) {
      if (poll.Cancelled()) return FdDeadline("in subsumption removal");
      if (j == i) continue;
      if (CodedSubsumedBy(row, pool.row(j), width)) {
        keep[i] = false;
        break;
      }
    }
  }
  out->width = width;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) {
      out->AppendRow(pool.row(i), pool.provs[i]);
    } else {
      ++tally->subsumed_tuples;
    }
  }
  return Status::OK();
}

/// Deduplicates encoded rows `rows` of `ucells` into a fresh pool whose
/// provenance lives in `arena` (provenance of exact duplicates is unioned,
/// missing nulls win).
CodedPool DedupIntoPool(const std::vector<uint32_t>& ucells, size_t width,
                        const std::vector<size_t>& rows,
                        const InternedProv& interned, ProvArena* arena) {
  CodedPool pool;
  pool.width = width;
  std::unordered_map<uint64_t, std::vector<size_t>> dedup;
  std::vector<uint32_t> scratch;
  for (size_t r : rows) {
    const uint32_t* row = ucells.data() + r * width;
    const uint32_t* prov = interned.ids.data() + interned.row_begin[r];
    const uint32_t* prov_end = interned.ids.data() + interned.row_begin[r + 1];
    bool absorbed = false;
    for (size_t idx : dedup[CodedRowKey(row, width)]) {
      if (CodedIdentical(pool.row(idx), row, width)) {
        AbsorbDuplicate(&pool, arena, idx, row, prov, prov_end, &scratch);
        absorbed = true;
        break;
      }
    }
    if (absorbed) continue;
    dedup[CodedRowKey(row, width)].push_back(pool.size());
    pool.AppendRow(row, arena->Append(prov, prov_end));
  }
  return pool;
}

/// Decodes pool tuple `i` — cells and provenance labels — into a row of
/// `out`.
Status EmitTuple(const CodedPool& pool, size_t i, const ProvArena& arena,
                 const std::vector<std::string_view>& labels,
                 const TupleCodec& codec, Table* out) {
  const uint32_t* src = pool.row(i);
  Row row;
  row.reserve(pool.width);
  for (size_t c = 0; c < pool.width; ++c) row.push_back(codec.Decode(src[c]));
  const ProvSpan span = pool.provs[i];
  std::vector<std::string> prov;
  prov.reserve(span.end - span.begin);
  for (const uint32_t* id = arena.begin(span); id != arena.end(span); ++id) {
    prov.emplace_back(labels[*id]);
  }
  return out->AddRow(std::move(row), std::move(prov));
}

/// Decodes the final pool into the result table.
Status EmitPool(const CodedPool& pool, const ProvArena& arena,
                const std::vector<std::string_view>& labels,
                const TupleCodec& codec, Table* out) {
  for (size_t i = 0; i < pool.size(); ++i) {
    DIALITE_RETURN_IF_ERROR(EmitTuple(pool, i, arena, labels, codec, out));
  }
  out->RefreshColumnTypes();
  return Status::OK();
}

/// Complementation strategy for RunFd.
enum class FixpointMode {
  kIndexed,  ///< ALITE-style candidate index + worklist
  kNaive,    ///< all-pairs rescan per round
  kNone,     ///< skip complementation (minimum union)
};

/// Shared FD driver: outer union → encode → fix-point → subsumption →
/// decode into a Table. `obs` (nullable) receives the integrate.fd.*
/// counters and a span per phase — they are flushed on the cancellation
/// path too, so a deadline test can observe fixpoint_iterations == 0.
Result<Table> RunFd(const std::vector<const Table*>& tables,
                    const Alignment& alignment, const std::string& name,
                    FixpointMode mode, size_t max_tuples,
                    ObservabilityContext* obs, const CancelToken* cancel) {
  ObsSpan fd_span(obs, "integrate.full_disjunction");
  FdTally tally;
  Result<Table> union_r = BuildOuterUnion(tables, alignment, name);
  if (!union_r.ok()) return union_r.status();
  const Table& u = *union_r;
  TupleCodec codec;
  const std::vector<uint32_t> ucells = codec.EncodeTable(u);
  tally.produced_nulls = CountProducedNulls(ucells);
  const InternedProv interned = InternProvenance(u);
  std::vector<size_t> all_rows(u.num_rows());
  for (size_t r = 0; r < all_rows.size(); ++r) all_rows[r] = r;
  // Dedup exact input duplicates up front.
  ProvArena arena;
  CodedPool pool =
      DedupIntoPool(ucells, u.num_columns(), all_rows, interned, &arena);

  Status st = Status::OK();
  {
    ObsSpan span(obs, "integrate.fd.fixpoint");
    if (mode == FixpointMode::kIndexed) {
      st = ComplementFixpointIndexed(&pool, &arena, max_tuples, &tally,
                                     cancel);
    } else if (mode == FixpointMode::kNaive) {
      st = ComplementFixpointNaive(&pool, &arena, max_tuples, &tally, cancel);
    }
  }
  CodedPool final_pool;
  if (st.ok()) {
    ObsSpan span(obs, "integrate.fd.subsumption");
    st = RemoveSubsumed(pool, &tally, cancel, &final_pool);
  }
  EmitFdCounters(obs, tally, u.num_rows(), st.ok() ? final_pool.size() : 0);
  DIALITE_RETURN_IF_ERROR(st);

  Table out(name, u.schema());
  DIALITE_RETURN_IF_ERROR(
      EmitPool(final_pool, arena, interned.labels, codec, &out));
  return out;
}

}  // namespace

Result<Table> FullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "fd_result", FixpointMode::kIndexed,
               params_.max_tuples, obs_, cancel);
}

Result<Table> NaiveFullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "naive_fd_result", FixpointMode::kNaive,
               /*max_tuples=*/2000000, obs_, cancel);
}

Result<Table> MinimumUnionIntegration::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "minimum_union_result", FixpointMode::kNone,
               /*max_tuples=*/2000000, obs_, cancel);
}

Result<Table> ParallelFullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  ObsSpan fd_span(obs_, "integrate.parallel_full_disjunction");
  Result<Table> union_r = BuildOuterUnion(tables, alignment, "parallel_fd");
  if (!union_r.ok()) return union_r.status();
  const Table& u = *union_r;
  const size_t n = u.num_rows();
  const size_t width = u.num_columns();
  TupleCodec codec;
  const std::vector<uint32_t> ucells = codec.EncodeTable(u);
  const InternedProv interned = InternProvenance(u);

  // Union-find over tuples; tuples sharing a (column, code) cell join the
  // same component. Cross-component tuples can never complement or subsume
  // (except all-null tuples, which vanish anyway when any fact exists).
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) { parent[find(a)] = find(b); };
  std::unordered_map<uint64_t, size_t> first_owner;
  for (size_t r = 0; r < n; ++r) {
    const uint32_t* row = ucells.data() + r * width;
    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(row[c])) continue;
      const uint64_t key = (static_cast<uint64_t>(c) << 32) | row[c];
      auto [it, inserted] = first_owner.emplace(key, r);
      if (!inserted) unite(r, it->second);
    }
  }
  std::unordered_map<size_t, std::vector<size_t>> components;
  for (size_t r = 0; r < n; ++r) components[find(r)].push_back(r);

  // Solve each component's FD on the pool.
  std::vector<std::vector<size_t>> comps;
  comps.reserve(components.size());
  for (auto& [root, rows] : components) comps.push_back(std::move(rows));
  std::sort(comps.begin(), comps.end());  // deterministic output order

  std::vector<CodedPool> results(comps.size());
  std::vector<ProvArena> arenas(comps.size());  // one per component
  std::vector<Status> statuses(comps.size());
  // Per-component tallies, merged serially after the barrier (counter
  // updates must not contend on the hot path).
  std::vector<FdTally> tallies(comps.size());
  ThreadPool tp(num_threads_, obs_);
  tp.ParallelFor(comps.size(), [&](size_t k) {
    // Dedup within the component, then run the indexed fix-point. Each
    // component observes the shared token, so cancellation stops every
    // worker within one fixpoint iteration.
    if (FdCancelled(cancel)) {
      statuses[k] = FdDeadline("before component fixpoint");
      return;
    }
    CodedPool pool = DedupIntoPool(ucells, width, comps[k], interned,
                                   &arenas[k]);
    statuses[k] = ComplementFixpointIndexed(&pool, &arenas[k], 2000000,
                                            &tallies[k], cancel);
    if (statuses[k].ok()) {
      statuses[k] = RemoveSubsumed(pool, &tallies[k], cancel, &results[k]);
    }
  });
  for (const Status& st : statuses) {
    DIALITE_RETURN_IF_ERROR(st);
  }
  FdTally tally;
  tally.produced_nulls = CountProducedNulls(ucells);
  for (const FdTally& t : tallies) tally.MergeFrom(t);
  ObsAdd(obs_, "integrate.fd.components", comps.size());

  // Drop all-null tuples globally if any component produced facts.
  bool any_fact = false;
  for (const CodedPool& p : results) {
    for (uint32_t cell : p.cells) {
      if (!CodeIsNull(cell)) {
        any_fact = true;
        break;
      }
    }
  }
  Table out("parallel_fd_result", u.schema());
  for (size_t k = 0; k < results.size(); ++k) {
    const CodedPool& p = results[k];
    for (size_t i = 0; i < p.size(); ++i) {
      const uint32_t* row = p.row(i);
      if (any_fact) {
        bool all_null = true;
        for (size_t c = 0; c < width; ++c) {
          if (!CodeIsNull(row[c])) {
            all_null = false;
            break;
          }
        }
        if (all_null) continue;
      }
      DIALITE_RETURN_IF_ERROR(
          EmitTuple(p, i, arenas[k], interned.labels, codec, &out));
    }
  }
  out.RefreshColumnTypes();
  EmitFdCounters(obs_, tally, n, out.num_rows());
  return out;
}

}  // namespace dialite
