#include "integrate/full_disjunction.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
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

/// Append-only store of the provenance id lists of one part of an FD run
/// (see FdPart). A list is written once, when a tuple gets it, and never
/// changes, so the worklist's snapshot of a tuple's provenance is just its
/// span.
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
/// ids into its part's ProvArena, decoded to labels only by EmitTuple.
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

/// Local FD tally, accumulated branch-free in the hot loops (one per part,
/// so parts never contend) and flushed into the integrate.fd.* counters
/// once per Integrate (when enabled).
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
Status FdDeadline(const char* stage) {
  return Status::DeadlineExceeded(std::string("full disjunction cancelled ") +
                                  stage);
}

/// The tuple budget of one FD run: the tuples of all its parts' pools count
/// against one max_tuples cap. Parts claim concurrently, so the count is an
/// atomic; it publishes nothing else, hence relaxed.
class TupleBudget {
 public:
  explicit TupleBudget(size_t max_tuples) : max_tuples_(max_tuples) {}

  /// Counts the `n` tuples a part starts with (its deduplicated rows).
  void Add(size_t n) { used_.fetch_add(n, std::memory_order_relaxed); }

  /// Claims room for one more tuple; false once the run holds max_tuples.
  [[nodiscard]] bool Claim() {
    return used_.fetch_add(1, std::memory_order_relaxed) < max_tuples_;
  }

  Status Exceeded() const {
    return Status::OutOfRange("full disjunction exceeded max_tuples=" +
                              std::to_string(max_tuples_));
  }

 private:
  const size_t max_tuples_;
  std::atomic<size_t> used_{0};
};

/// Indexed complementation fix-point (ALITE-style candidate pruning).
Status ComplementFixpointIndexed(CodedPool* pool, ProvArena* arena,
                                 TupleBudget* budget, FdTally* tally,
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
        if (!budget->Claim()) return budget->Exceeded();
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
                               TupleBudget* budget, FdTally* tally,
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
        if (!budget->Claim()) return budget->Exceeded();
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
/// identical. A tuple with no facts is subsumed by any tuple that has one,
/// so it survives only when `any_fact` — whether any tuple of the whole run,
/// not just of this pool, has a fact — is false. Polls `cancel` once per
/// pool row.
Status RemoveSubsumed(const CodedPool& pool, bool any_fact, FdTally* tally,
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
      // Dedup leaves at most one fact-free tuple per run.
      keep[i] = !any_fact;
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

/// One part of an FD run: outer-union rows that never complement or
/// subsume a row of another part, and the state of their dedup →
/// fix-point → subsumption pipeline.
struct FdPart {
  std::vector<size_t> rows;  ///< outer-union rows, ascending
  ProvArena arena;
  CodedPool pool;  ///< deduplicated rows, then closure, then ⊑-maximal tuples
  FdTally tally;
  Status status;
};

/// Splits the `n` encoded outer-union rows into parts. Unsplit, the whole
/// union is one part. Split, the parts are the connected components of the
/// "shares a (column, code) cell" graph — tuples of different components
/// can never complement, and one never subsumes another unless it is
/// fact-free — with all fact-free rows in one part, so dedup still folds
/// them into one tuple. Parts are ordered by their first row.
std::vector<FdPart> SplitIntoParts(const std::vector<uint32_t>& ucells,
                                   size_t width, size_t n, bool split) {
  std::vector<FdPart> parts;
  if (!split) {
    parts.resize(1);
    parts[0].rows.resize(n);
    std::iota(parts[0].rows.begin(), parts[0].rows.end(), size_t{0});
    return parts;
  }
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&parent](size_t x) {  // with path halving
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // (column, code) → first row holding it; fact-free rows share one key.
  constexpr uint64_t kFactFreeKey = ~uint64_t{0};
  std::unordered_map<uint64_t, size_t> first_row;
  auto join = [&](size_t r, uint64_t key) {
    auto [it, inserted] = first_row.emplace(key, r);
    if (!inserted) parent[find(r)] = find(it->second);
  };
  for (size_t r = 0; r < n; ++r) {
    const uint32_t* row = ucells.data() + r * width;
    bool fact_free = true;
    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(row[c])) continue;
      fact_free = false;
      join(r, (static_cast<uint64_t>(c) << 32) | row[c]);
    }
    if (fact_free) join(r, kFactFreeKey);
  }
  std::vector<size_t> part_of_root(n, static_cast<size_t>(-1));
  for (size_t r = 0; r < n; ++r) {
    size_t& k = part_of_root[find(r)];
    if (k == static_cast<size_t>(-1)) {
      k = parts.size();
      parts.emplace_back();
    }
    parts[k].rows.push_back(r);
  }
  return parts;
}

/// Runs `fn(k)` for every part k: across `workers` when there are any,
/// else inline in part order.
template <typename Fn>
void ForEachPart(ThreadPool* workers, size_t num_parts, const Fn& fn) {
  if (workers == nullptr) {
    for (size_t k = 0; k < num_parts; ++k) fn(k);
  } else {
    workers->ParallelFor(num_parts, fn);
  }
}

/// The first failed part's status, in part order, or OK.
Status FirstError(const std::vector<FdPart>& parts) {
  for (const FdPart& part : parts) {
    if (!part.status.ok()) return part.status;
  }
  return Status::OK();
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

/// Decodes the parts' final pools, part after part, into the result table.
Status EmitParts(const std::vector<FdPart>& parts,
                 const std::vector<std::string_view>& labels,
                 const TupleCodec& codec, Table* out) {
  for (const FdPart& part : parts) {
    for (size_t i = 0; i < part.pool.size(); ++i) {
      DIALITE_RETURN_IF_ERROR(
          EmitTuple(part.pool, i, part.arena, labels, codec, out));
    }
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

/// The one FD pipeline: outer union → encode → intern provenance → split
/// into parts → per part: dedup → fix-point → subsumption → decode the
/// parts, in order, into a Table. At one thread the union is a single part;
/// at more, the fix-point and subsumption stages run the parts on a
/// ThreadPool, one barrier per stage, so the stage spans stay on the
/// calling thread. All parts draw on one TupleBudget and share the
/// run-wide fact flag, so the thread count changes only the order of the
/// output rows. `obs` (nullable) receives the integrate.fd.* counters and a
/// span per stage — they are flushed on the cancellation path too, so a
/// deadline test can observe fixpoint_iterations == 0.
Result<Table> RunFd(const std::vector<const Table*>& tables,
                    const Alignment& alignment, const std::string& name,
                    FixpointMode mode, const FullDisjunction::Params& params,
                    ObservabilityContext* obs, const CancelToken* cancel) {
  ObsSpan fd_span(obs, "integrate.full_disjunction");
  FdTally tally;
  Result<Table> union_r = BuildOuterUnion(tables, alignment, name);
  if (!union_r.ok()) return union_r.status();
  const Table& u = *union_r;
  const size_t width = u.num_columns();
  TupleCodec codec;
  const std::vector<uint32_t> ucells = codec.EncodeTable(u);
  tally.produced_nulls = CountProducedNulls(ucells);
  const InternedProv interned = InternProvenance(u);
  const bool any_fact = std::any_of(ucells.begin(), ucells.end(),
                                    [](uint32_t c) { return !CodeIsNull(c); });
  std::vector<FdPart> parts =
      SplitIntoParts(ucells, width, u.num_rows(), params.num_threads != 1);
  // Dedup exact input duplicates of every part before any merge claims
  // budget, so whether a run exceeds max_tuples hangs on its inputs alone,
  // not on thread timing.
  TupleBudget budget(params.max_tuples);
  for (FdPart& part : parts) {
    part.pool = DedupIntoPool(ucells, width, part.rows, interned, &part.arena);
    budget.Add(part.pool.size());
  }
  std::unique_ptr<ThreadPool> workers;
  if (parts.size() > 1) {
    workers = std::make_unique<ThreadPool>(params.num_threads, obs);
  }
  {
    ObsSpan span(obs, "integrate.fd.fixpoint");
    if (mode != FixpointMode::kNone) {
      ForEachPart(workers.get(), parts.size(), [&](size_t k) {
        FdPart& part = parts[k];
        part.status =
            mode == FixpointMode::kIndexed
                ? ComplementFixpointIndexed(&part.pool, &part.arena, &budget,
                                            &part.tally, cancel)
                : ComplementFixpointNaive(&part.pool, &part.arena, &budget,
                                          &part.tally, cancel);
      });
    }
  }
  Status st = FirstError(parts);
  if (st.ok()) {
    ObsSpan span(obs, "integrate.fd.subsumption");
    ForEachPart(workers.get(), parts.size(), [&](size_t k) {
      FdPart& part = parts[k];
      CodedPool kept;
      part.status =
          RemoveSubsumed(part.pool, any_fact, &part.tally, cancel, &kept);
      part.pool = std::move(kept);
    });
    st = FirstError(parts);
  }
  size_t output_rows = 0;
  for (const FdPart& part : parts) {
    tally.MergeFrom(part.tally);
    output_rows += part.pool.size();
  }
  EmitFdCounters(obs, tally, u.num_rows(), st.ok() ? output_rows : 0);
  DIALITE_RETURN_IF_ERROR(st);

  Table out(name, u.schema());
  DIALITE_RETURN_IF_ERROR(EmitParts(parts, interned.labels, codec, &out));
  return out;
}

}  // namespace

Result<Table> FullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "fd_result", FixpointMode::kIndexed,
               params_, obs_, cancel);
}

Result<Table> NaiveFullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "naive_fd_result", FixpointMode::kNaive,
               FullDisjunction::Params(), obs_, cancel);
}

Result<Table> MinimumUnionIntegration::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "minimum_union_result", FixpointMode::kNone,
               FullDisjunction::Params(), obs_, cancel);
}

}  // namespace dialite
