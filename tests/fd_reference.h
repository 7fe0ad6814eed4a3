#ifndef DIALITE_TESTS_FD_REFERENCE_H_
#define DIALITE_TESTS_FD_REFERENCE_H_

/// The one reference full disjunction the FD operators are checked
/// against: materialized Value rows with string provenance, all-pairs
/// rounds, and the library's Row tuple helpers. It shares no code with the
/// kernels' codec, tuple pool, dedup or subsumption pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "integrate/integration.h"

namespace dialite {

/// One tuple of the reference FD: materialized cells and source labels.
struct RefTuple {
  Row row;
  std::vector<std::string> prov;
};

/// Provenance union by sort-and-unique of the concatenation.
inline std::vector<std::string> RefUnion(std::vector<std::string> a,
                                         const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

inline bool RowsIdentical(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (!a[c].Identical(b[c])) return false;
  }
  return true;
}

inline bool AllNull(const Row& row) {
  for (const Value& v : row) {
    if (!v.is_null()) return false;
  }
  return true;
}

/// The reference FD, the semantics the integer kernels must reproduce. The
/// outer union's rows enter with their labels sorted, repeats kept; an
/// exact duplicate (Identical cells) is absorbed: missing nulls win over
/// produced ones and the labels are unioned. With `complement`, rounds over
/// all pairs merge TuplesComplement partners with MergeTuples, absorbing or
/// appending each merge, until a round appends nothing. Then every tuple
/// that TupleSubsumedBy another drops; a fact-free tuple survives only when
/// no tuple has a fact. Without `complement` this is minimum union.
///
/// A NaN never equals itself, while the kernels give each NaN cell of the
/// outer union one code that merges copy. So each such cell becomes a
/// sentinel string that only its own copies equal, for identity,
/// complementation, merge and subsumption alike, and turns back into its
/// NaN in the returned tuples.
inline std::vector<RefTuple> ReferenceFd(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    bool complement) {
  const std::string kNanPrefix("\0nan#", 5);
  std::vector<RefTuple> pool;
  // True when `row` was appended, false when it was absorbed.
  auto absorb_or_append = [&pool](Row row, std::vector<std::string> prov) {
    for (RefTuple& t : pool) {
      if (!RowsIdentical(t.row, row)) continue;
      for (size_t c = 0; c < row.size(); ++c) {
        if (t.row[c].is_produced_null() && row[c].is_missing_null()) {
          t.row[c] = row[c];
        }
      }
      t.prov = RefUnion(std::move(t.prov), prov);
      return false;
    }
    pool.push_back({std::move(row), std::move(prov)});
    return true;
  };
  Result<Table> u = BuildOuterUnion(tables, alignment, "u");
  EXPECT_TRUE(u.ok()) << u.status().ToString();
  if (!u.ok()) return {};
  std::vector<Value> nans;  // by sentinel number
  for (size_t r = 0; r < u->num_rows(); ++r) {
    Row row = u->row(r);
    for (Value& v : row) {
      if (v.is_string() && v.as_string().compare(0, kNanPrefix.size(),
                                                 kNanPrefix) == 0) {
        ADD_FAILURE() << "a cell collides with the NaN sentinels";
        return {};
      }
      if (v.is_double() && std::isnan(v.as_double())) {
        nans.push_back(v);
        v = Value::String(kNanPrefix + std::to_string(nans.size() - 1));
      }
    }
    std::vector<std::string> prov = u->provenance(r);
    std::sort(prov.begin(), prov.end());
    absorb_or_append(std::move(row), std::move(prov));
  }
  for (bool changed = complement; changed;) {
    changed = false;
    const size_t n = pool.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (!TuplesComplement(pool[i].row, pool[j].row)) continue;
        Row merged = MergeTuples(pool[i].row, pool[j].row);
        std::vector<std::string> prov = RefUnion(pool[i].prov, pool[j].prov);
        if (absorb_or_append(std::move(merged), std::move(prov))) {
          changed = true;
        }
      }
    }
  }
  bool any_fact = false;
  for (const RefTuple& t : pool) any_fact = any_fact || !AllNull(t.row);
  std::vector<RefTuple> out;
  for (size_t i = 0; i < pool.size(); ++i) {
    bool keep = !any_fact && i == 0;
    if (!AllNull(pool[i].row)) {
      keep = true;
      for (size_t j = 0; j < pool.size() && keep; ++j) {
        keep = j == i || !TupleSubsumedBy(pool[i].row, pool[j].row);
      }
    }
    if (keep) out.push_back(pool[i]);
  }
  for (RefTuple& t : out) {
    for (Value& v : t.row) {
      if (v.is_string() && v.as_string().compare(0, kNanPrefix.size(),
                                                 kNanPrefix) == 0) {
        v = nans[std::stoul(v.as_string().substr(kNanPrefix.size()))];
      }
    }
  }
  return out;
}

/// One tuple as text: cells (null kinds told apart) and provenance labels
/// in their stored order.
inline std::string RenderTuple(const Row& row,
                               const std::vector<std::string>& prov) {
  std::string out;
  for (const Value& v : row) {
    out += v.is_produced_null()  ? std::string("(produced null)")
           : v.is_missing_null() ? std::string("(missing null)")
                                 : v.ToCsvString();
    out += " | ";
  }
  out += "{";
  for (const std::string& label : prov) out += label + ";";
  return out + "}";
}

/// Tuples as a sorted list: the comparison ignores row order only.
inline std::vector<std::string> Rendered(const std::vector<RefTuple>& tuples) {
  std::vector<std::string> out;
  for (const RefTuple& t : tuples) out.push_back(RenderTuple(t.row, t.prov));
  std::sort(out.begin(), out.end());
  return out;
}

inline std::vector<std::string> Rendered(const Table& t) {
  std::vector<std::string> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(RenderTuple(t.row(r), t.provenance(r)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dialite

#endif  // DIALITE_TESTS_FD_REFERENCE_H_
