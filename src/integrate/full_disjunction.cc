#include "integrate/full_disjunction.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>

#include "common/thread_pool.h"
#include "integrate/tuple_codes.h"
#include "table/table_builder.h"

namespace dialite {

namespace {

/// No tuple: an empty bucket's end, or no identical tuple in a pool.
constexpr uint32_t kNoTuple = FlatIdSet::kNone;

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

/// Every provenance label of the outer union, interned once. A row's
/// labels are its table's provenance for it, or "<table>#<row>" when the
/// table has none; `generated` holds those back to back (a vector, so the
/// views survive moves). `labels` holds the distinct labels sorted by
/// bytes, so ids order like their labels and a sorted id list decodes to
/// the sorted label list. Row r's ids, sorted with repeats kept (an input
/// row may repeat a label), are ids[row_begin[r], row_begin[r + 1]).
struct InternedProv {
  std::vector<char> generated;
  std::vector<std::string_view> labels;  // views into tables, `generated`
  std::vector<uint32_t> ids;
  std::vector<size_t> row_begin;
};

InternedProv InternProvenance(const std::vector<const Table*>& tables) {
  auto own = [](const Table& t, size_t r) {
    return t.has_provenance() && !t.provenance(r).empty();
  };
  InternedProv out;
  // Generated labels first, so the views taken below stay valid.
  std::vector<size_t> generated_end;
  char digits[24];
  for (const Table* t : tables) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (own(*t, r)) continue;
      out.generated.insert(out.generated.end(), t->name().begin(),
                           t->name().end());
      out.generated.push_back('#');
      out.generated.insert(
          out.generated.end(), digits,
          std::to_chars(digits, digits + sizeof(digits), r).ptr);
      generated_end.push_back(out.generated.size());
    }
  }
  std::vector<std::pair<std::string_view, size_t>> refs;  // label, id slot
  out.row_begin.push_back(0);
  const std::string_view generated(out.generated.data(),
                                   out.generated.size());
  size_t g = 0;
  for (const Table* t : tables) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (own(*t, r)) {
        for (const std::string& label : t->provenance(r)) {
          refs.emplace_back(label, refs.size());
        }
      } else {
        const size_t begin = g == 0 ? 0 : generated_end[g - 1];
        refs.emplace_back(generated.substr(begin, generated_end[g] - begin),
                          refs.size());
        ++g;
      }
      out.row_begin.push_back(refs.size());
    }
  }
  std::sort(refs.begin(), refs.end());
  out.ids.resize(refs.size());
  for (const auto& [label, slot] : refs) {
    if (out.labels.empty() || out.labels.back() != label) {
      out.labels.push_back(label);
    }
    out.ids[slot] = static_cast<uint32_t>(out.labels.size() - 1);
  }
  for (size_t r = 0; r + 1 < out.row_begin.size(); ++r) {
    std::sort(out.ids.begin() + static_cast<long>(out.row_begin[r]),
              out.ids.begin() + static_cast<long>(out.row_begin[r + 1]));
  }
  return out;
}

/// The union column of every column of every table under `alignment`.
std::vector<std::vector<size_t>> ColumnIds(
    const std::vector<const Table*>& tables, const Alignment& alignment) {
  std::vector<std::vector<size_t>> ids(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    ids[t].resize(tables[t]->num_columns());
    for (size_t c = 0; c < ids[t].size(); ++c) {
      ids[t][c] = alignment.IdOf(tables[t]->name(), c);
    }
  }
  return ids;
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

/// The flat (column, value) candidate index over every part's tuples. A
/// code names its cell's column (tuple_codes.h), so the code is the key:
/// per code, the first and last tuple of its bucket and the bucket's size;
/// per (tuple, column) slot, the next tuple of that slot's bucket
/// (TuplePool::next). Buckets list tuples in ascending pool order. A code
/// belongs to one part, since parts are cell-disjoint, so the parts link
/// their own buckets without a lock.
struct CellIndex {
  struct Bucket {
    uint32_t head = kNoTuple;
    uint32_t tail = kNoTuple;
    uint32_t size = 0;
  };
  std::vector<Bucket> buckets;  // by code
};

/// One part's tuples: flat spans of cell codes (see tuple_codes.h) with
/// provenance spans into the part's ProvArena, their links in the
/// CellIndex's buckets, and the dedup set over them. Complementation,
/// merging, subsumption and dedup all run on integers; cells decode only
/// when the result Table is emitted.
struct TuplePool {
  size_t width = 0;
  std::vector<uint32_t> cells;  // row-major, size() * width
  std::vector<ProvSpan> provs;
  std::vector<uint32_t> next;  // per (tuple, column) slot, see CellIndex
  FlatIdSet dedup;             // tuples by CodedRowKey

  uint32_t size() const { return static_cast<uint32_t>(provs.size()); }
  const uint32_t* tuple(size_t i) const { return cells.data() + i * width; }
  uint32_t* tuple(size_t i) { return cells.data() + i * width; }

  /// The tuple identical to the codes `src`, whose CodedRowKey is `hash`,
  /// or kNoTuple.
  uint32_t FindTuple(const uint32_t* src, uint64_t hash) const {
    return dedup.FindId(hash, [&](uint32_t t) {
      return CodedIdentical(tuple(t), src, width);
    });
  }

  /// Appends the codes `src` (CodedRowKey `hash`) with provenance `prov`,
  /// at the tail of its cells' buckets in `index` and into the dedup set.
  void AppendTuple(const uint32_t* src, uint64_t hash, ProvSpan prov,
                   CellIndex* index) {
    const uint32_t t = size();
    cells.insert(cells.end(), src, src + width);
    provs.push_back(prov);
    next.resize(next.size() + width, kNoTuple);
    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(src[c])) continue;
      CellIndex::Bucket& b = index->buckets[src[c]];
      if (b.size++ == 0) {
        b.head = t;
      } else {
        next[b.tail * width + c] = t;
      }
      b.tail = t;
    }
    dedup.InsertId(hash, t);
  }
};

/// When a merged tuple collides with an identical existing tuple, keep the
/// more informative null kinds (missing beats produced) and union
/// provenance with the sorted ids [prov, prov_end); the union goes to the
/// arena only if it adds a label. True iff tuple `idx` changed. `scratch`
/// is reused across calls.
bool AbsorbDuplicate(TuplePool* pool, ProvArena* arena, uint32_t idx,
                     const uint32_t* row, const uint32_t* prov,
                     const uint32_t* prov_end,
                     std::vector<uint32_t>* scratch) {
  bool changed = false;
  uint32_t* target = pool->tuple(idx);
  for (size_t c = 0; c < pool->width; ++c) {
    if (target[c] == kProducedNullCode && row[c] == kMissingNullCode) {
      target[c] = kMissingNullCode;
      changed = true;
    }
  }
  const ProvSpan have = pool->provs[idx];
  UnionIds(arena->begin(have), arena->end(have), prov, prov_end, scratch);
  if (!std::equal(scratch->begin(), scratch->end(), arena->begin(have),
                  arena->end(have))) {
    pool->provs[idx] = arena->Append(*scratch);
    changed = true;
  }
  return changed;
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

/// Indexed complementation fix-point (ALITE-style candidate pruning). The
/// worklist is the pool in order: tuple idx's turn merges a snapshot of it
/// with every complementing tuple that shares a bucket with it, and each
/// new merge is appended and gets a turn of its own.
///
/// Each pair is evaluated once. When idx already existed as a
/// lower-indexed candidate's turn began, that turn evaluated the pair, and
/// CodedMerge and UnionIds are symmetric: evaluating it again re-derives
/// the same tuple and absorbs it without change. Unless an absorb changed
/// either tuple in between, so every changing absorb is stamped.
Status ComplementFixpoint(TuplePool* pool, ProvArena* arena,
                          CellIndex* index, TupleBudget* budget,
                          FdTally* tally, const CancelToken* cancel) {
  const size_t width = pool->width;
  // Per tuple: the pool size when its turn began; 1 + the turn in which an
  // absorb last changed it (0: none); 1 + the last turn that visited it as
  // a candidate, which marks a candidate met in several buckets.
  std::vector<uint32_t> seen(pool->size(), 0);
  std::vector<uint32_t> changed_in(pool->size(), 0);
  std::vector<uint32_t> visited(pool->size(), 0);
  std::vector<uint32_t> snap(width);
  std::vector<uint32_t> merged(width);
  // Provenance scratch, reused: once warm, a merge allocates nothing.
  std::vector<uint32_t> mprov;
  std::vector<uint32_t> absorbed;
  CancelPoller poll(cancel);
  for (uint32_t idx = 0; idx < pool->size(); ++idx) {
    if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
    ++tally->fixpoint_iterations;
    // Snapshot: pool cells may reallocate as merges append, and an absorb
    // may repoint provs[idx] (the list it pointed at stays as it was).
    std::copy(pool->tuple(idx), pool->tuple(idx) + width, snap.begin());
    const ProvSpan prov = pool->provs[idx];
    const uint32_t turn = idx + 1;
    const uint32_t idx_changed = changed_in[idx];
    seen[idx] = pool->size();
    for (size_t c = 0; c < width; ++c) {
      if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
      if (CodeIsNull(snap[c])) continue;
      // The bucket as it stands: tuples appended meanwhile get their own
      // turn.
      const CellIndex::Bucket bucket = index->buckets[snap[c]];
      uint32_t cand = kNoTuple;
      for (uint32_t n = 0; n < bucket.size; ++n) {
        cand = n == 0 ? bucket.head : pool->next[cand * width + c];
        if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
        if (cand == idx || visited[cand] == turn) continue;
        visited[cand] = turn;
        if (cand < idx && idx < seen[cand] && changed_in[cand] <= cand &&
            idx_changed <= cand) {
          continue;  // evaluated in cand's turn, neither changed since
        }
        ++tally->rows_scanned;
        if (!CodedComplement(snap.data(), pool->tuple(cand), width)) continue;
        ++tally->merges;
        CodedMerge(snap.data(), pool->tuple(cand), width, merged.data());
        const ProvSpan cprov = pool->provs[cand];
        UnionIds(arena->begin(prov), arena->end(prov), arena->begin(cprov),
                 arena->end(cprov), &mprov);
        const uint64_t hash = CodedRowKey(merged.data(), width);
        const uint32_t existing = pool->FindTuple(merged.data(), hash);
        if (existing != kNoTuple) {
          if (AbsorbDuplicate(pool, arena, existing, merged.data(),
                              mprov.data(), mprov.data() + mprov.size(),
                              &absorbed)) {
            changed_in[existing] = turn;
          }
          continue;
        }
        if (!budget->Claim()) return budget->Exceeded();
        pool->AppendTuple(merged.data(), hash, arena->Append(mprov), index);
        seen.push_back(0);
        changed_in.push_back(0);
        visited.push_back(0);
      }
    }
  }
  return Status::OK();
}

/// Naive complementation fix-point: rescan all pairs every round.
Status ComplementFixpointNaive(TuplePool* pool, ProvArena* arena,
                               CellIndex* index, TupleBudget* budget,
                               FdTally* tally, const CancelToken* cancel) {
  const size_t width = pool->width;
  std::vector<uint32_t> merged(width);
  std::vector<uint32_t> mprov;
  std::vector<uint32_t> absorbed;
  CancelPoller poll(cancel);
  bool changed = true;
  while (changed) {
    if (poll.Cancelled()) return FdDeadline("in naive fixpoint");
    changed = false;
    ++tally->fixpoint_iterations;
    const uint32_t n = pool->size();
    for (uint32_t i = 0; i < n; ++i) {
      if (poll.Cancelled()) return FdDeadline("in naive fixpoint");
      for (uint32_t j = i + 1; j < n; ++j) {
        if (poll.Cancelled()) return FdDeadline("in naive fixpoint");
        ++tally->rows_scanned;
        if (!CodedComplement(pool->tuple(i), pool->tuple(j), width)) continue;
        ++tally->merges;
        CodedMerge(pool->tuple(i), pool->tuple(j), width, merged.data());
        const ProvSpan iprov = pool->provs[i];
        const ProvSpan jprov = pool->provs[j];
        UnionIds(arena->begin(iprov), arena->end(iprov), arena->begin(jprov),
                 arena->end(jprov), &mprov);
        const uint64_t hash = CodedRowKey(merged.data(), width);
        const uint32_t existing = pool->FindTuple(merged.data(), hash);
        if (existing != kNoTuple) {
          AbsorbDuplicate(pool, arena, existing, merged.data(), mprov.data(),
                          mprov.data() + mprov.size(), &absorbed);
          continue;
        }
        if (!budget->Claim()) return budget->Exceeded();
        pool->AppendTuple(merged.data(), hash, arena->Append(mprov), index);
        changed = true;
      }
    }
  }
  return Status::OK();
}

/// Marks in `*keep` the ⊑-maximal tuples of `pool`; a tuple's candidate
/// subsumers are its smallest bucket of `index`. Assumes no two pool tuples
/// are identical. A tuple with no facts is subsumed by any tuple that has
/// one, so it survives only when `any_fact` — whether any tuple of the
/// whole run, not just of this pool, has a fact — is false. Polls `cancel`
/// once per pool row and bucket candidate.
Status MarkMaximal(const TuplePool& pool, const CellIndex& index,
                   bool any_fact, FdTally* tally, const CancelToken* cancel,
                   std::vector<uint8_t>* keep) {
  const size_t width = pool.width;
  const uint32_t n = pool.size();
  keep->assign(n, 1);
  CancelPoller poll(cancel);
  for (uint32_t i = 0; i < n; ++i) {
    if (poll.Cancelled()) return FdDeadline("in subsumption removal");
    const uint32_t* row = pool.tuple(i);
    size_t column = width;  // of the smallest bucket; width: no facts
    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(row[c])) continue;
      if (column == width || index.buckets[row[c]].size <
                                 index.buckets[row[column]].size) {
        column = c;
      }
    }
    if (column == width) {
      // Dedup leaves at most one fact-free tuple per run.
      (*keep)[i] = !any_fact;
      continue;
    }
    const CellIndex::Bucket bucket = index.buckets[row[column]];
    uint32_t j = kNoTuple;
    for (uint32_t k = 0; k < bucket.size; ++k) {
      j = k == 0 ? bucket.head : pool.next[j * width + column];
      if (poll.Cancelled()) return FdDeadline("in subsumption removal");
      if (j != i && CodedSubsumedBy(row, pool.tuple(j), width)) {
        (*keep)[i] = 0;
        break;
      }
    }
  }
  tally->subsumed_tuples +=
      static_cast<uint64_t>(std::count(keep->begin(), keep->end(), 0));
  return Status::OK();
}

/// One part of an FD run: outer-union rows that never complement or
/// subsume a row of another part, and the state of their dedup →
/// fix-point → subsumption pipeline.
struct FdPart {
  std::vector<uint32_t> rows;  ///< outer-union rows, ascending
  ProvArena arena;
  TuplePool pool;              ///< deduplicated rows, then their closure
  std::vector<uint8_t> keep;   ///< per pool tuple: ⊑-maximal
  FdTally tally;
  Status status;
};

/// Deduplicates the part's rows of the encoded outer union `cells` into its
/// pool, linking them into `index` (provenance of exact duplicates is
/// unioned, missing nulls win).
void DedupIntoPool(const std::vector<uint32_t>& cells,
                   const InternedProv& interned, CellIndex* index,
                   FdPart* part) {
  TuplePool& pool = part->pool;
  const size_t width = pool.width;
  pool.cells.reserve(part->rows.size() * width);
  pool.next.reserve(part->rows.size() * width);
  pool.provs.reserve(part->rows.size());
  pool.dedup.Reserve(part->rows.size());
  std::vector<uint32_t> scratch;
  for (uint32_t r : part->rows) {
    const uint32_t* row = cells.data() + r * width;
    const uint32_t* prov = interned.ids.data() + interned.row_begin[r];
    const uint32_t* prov_end = interned.ids.data() + interned.row_begin[r + 1];
    const uint64_t hash = CodedRowKey(row, width);
    const uint32_t existing = pool.FindTuple(row, hash);
    if (existing != kNoTuple) {
      AbsorbDuplicate(&pool, &part->arena, existing, row, prov, prov_end,
                      &scratch);
    } else {
      pool.AppendTuple(row, hash, part->arena.Append(prov, prov_end), index);
    }
  }
}

/// Splits the `n` encoded outer-union rows into parts of `width`-wide
/// pools. Unsplit, the whole union is one part. Split, the parts are the
/// connected components of the "shares a cell code" graph — tuples of
/// different components can never complement, and one never subsumes
/// another unless it is fact-free — with all fact-free rows in one part,
/// so dedup still folds them into one tuple. Parts are ordered by their
/// first row.
std::vector<FdPart> SplitIntoParts(const std::vector<uint32_t>& cells,
                                   size_t width, size_t n, size_t num_codes,
                                   bool split) {
  std::vector<FdPart> parts;
  if (!split) {
    parts.resize(1);
    parts[0].rows.resize(n);
    std::iota(parts[0].rows.begin(), parts[0].rows.end(), uint32_t{0});
  } else {
    std::vector<uint32_t> parent(n);
    std::iota(parent.begin(), parent.end(), uint32_t{0});
    auto find = [&parent](uint32_t x) {  // with path halving
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    // Code → first row holding it; the fact-free rows share key num_codes.
    std::vector<uint32_t> first_row(num_codes + 1, kNoTuple);
    auto join = [&](uint32_t r, size_t key) {
      if (first_row[key] == kNoTuple) {
        first_row[key] = r;
      } else {
        parent[find(r)] = find(first_row[key]);
      }
    };
    for (uint32_t r = 0; r < n; ++r) {
      const uint32_t* row = cells.data() + r * width;
      bool fact_free = true;
      for (size_t c = 0; c < width; ++c) {
        if (CodeIsNull(row[c])) continue;
        fact_free = false;
        join(r, row[c]);
      }
      if (fact_free) join(r, num_codes);
    }
    std::vector<size_t> part_of_root(n, static_cast<size_t>(-1));
    for (uint32_t r = 0; r < n; ++r) {
      size_t& k = part_of_root[find(r)];
      if (k == static_cast<size_t>(-1)) {
        k = parts.size();
        parts.emplace_back();
      }
      parts[k].rows.push_back(r);
    }
  }
  for (FdPart& part : parts) part.pool.width = width;
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

/// Emits the parts' ⊑-maximal tuples, part after part, as the rows of
/// `out`: cells through the codec, provenance ids as their labels.
Status EmitParts(const std::vector<FdPart>& parts,
                 const std::vector<std::string_view>& labels,
                 const TupleCodec& codec, size_t output_rows, Table* out) {
  TableBuilder builder(out);
  builder.ReserveRows(output_rows);
  for (const FdPart& part : parts) {
    const TuplePool& pool = part.pool;
    for (uint32_t i = 0; i < pool.size(); ++i) {
      if (!part.keep[i]) continue;
      const uint32_t* row = pool.tuple(i);
      for (size_t c = 0; c < pool.width; ++c) codec.AppendTo(row[c], c, &builder);
      const ProvSpan span = pool.provs[i];
      std::vector<std::string> prov;
      prov.reserve(span.end - span.begin);
      for (const uint32_t* id = part.arena.begin(span);
           id != part.arena.end(span); ++id) {
        prov.emplace_back(labels[*id]);
      }
      DIALITE_RETURN_IF_ERROR(builder.FinishRow(std::move(prov)));
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

/// The one FD pipeline: encode the outer union from the input lanes,
/// intern provenance, split into parts, dedup each part into its pool and
/// the shared cell index (span integrate.fd.encode) → per part: fix-point
/// → subsumption → decode the parts, in order, into a Table
/// (integrate.fd.decode). At one thread the union is a single part; at
/// more, the fix-point and subsumption stages run the parts on a
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
  DIALITE_RETURN_IF_ERROR(alignment.Validate(tables));
  const size_t width = alignment.num_clusters();
  size_t input_rows = 0;
  for (const Table* t : tables) input_rows += t->num_rows();
  FdTally tally;
  TupleCodec codec;
  InternedProv interned;
  std::vector<FdPart> parts;
  CellIndex index;
  bool any_fact = false;
  // Dedup exact input duplicates of every part before any merge claims
  // budget, so whether a run exceeds max_tuples hangs on its inputs alone,
  // not on thread timing.
  TupleBudget budget(params.max_tuples);
  {
    ObsSpan span(obs, "integrate.fd.encode");
    const std::vector<uint32_t> cells =
        codec.EncodeUnion(tables, ColumnIds(tables, alignment), width);
    tally.produced_nulls = CountProducedNulls(cells);
    any_fact = std::any_of(cells.begin(), cells.end(),
                           [](uint32_t c) { return !CodeIsNull(c); });
    interned = InternProvenance(tables);
    parts = SplitIntoParts(cells, width, input_rows, codec.num_codes(),
                           params.num_threads != 1);
    index.buckets.resize(codec.num_codes());
    for (FdPart& part : parts) {
      DedupIntoPool(cells, interned, &index, &part);
      budget.Add(part.pool.size());
    }
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
                ? ComplementFixpoint(&part.pool, &part.arena, &index, &budget,
                                     &part.tally, cancel)
                : ComplementFixpointNaive(&part.pool, &part.arena, &index,
                                          &budget, &part.tally, cancel);
      });
    }
  }
  Status st = FirstError(parts);
  if (st.ok()) {
    ObsSpan span(obs, "integrate.fd.subsumption");
    ForEachPart(workers.get(), parts.size(), [&](size_t k) {
      FdPart& part = parts[k];
      part.status = MarkMaximal(part.pool, index, any_fact, &part.tally,
                                cancel, &part.keep);
    });
    st = FirstError(parts);
  }
  size_t output_rows = 0;
  for (const FdPart& part : parts) {
    tally.MergeFrom(part.tally);
    output_rows += static_cast<size_t>(
        std::count(part.keep.begin(), part.keep.end(), 1));
  }
  EmitFdCounters(obs, tally, input_rows, st.ok() ? output_rows : 0);
  DIALITE_RETURN_IF_ERROR(st);

  ObsSpan span(obs, "integrate.fd.decode");
  std::vector<ColumnDef> defs;
  defs.reserve(width);
  for (size_t id = 0; id < width; ++id) {
    defs.push_back(ColumnDef{alignment.IdName(id), ValueType::kString});
  }
  Table out(name, Schema(std::move(defs)));
  DIALITE_RETURN_IF_ERROR(
      EmitParts(parts, interned.labels, codec, output_rows, &out));
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
