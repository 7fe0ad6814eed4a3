#include "sketch/lsh_ensemble.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace dialite {

LshEnsemble::LshEnsemble(Params params) : params_(params) {}

const std::vector<size_t>& LshEnsemble::CandidateRows() {
  static const std::vector<size_t> kRows = {1, 2, 4, 8, 16, 32};
  return kRows;
}

Status LshEnsemble::Add(uint64_t id, const std::vector<std::string>& tokens) {
  if (built_) return Status::InvalidArgument("LshEnsemble already built");
  std::unordered_set<std::string> distinct(tokens.begin(), tokens.end());
  Entry e{id, distinct.size(),
          MinHash(params_.num_perm, params_.seed)};
  for (const std::string& t : distinct) e.mh.Update(t);
  entries_.push_back(std::move(e));
  return Status::OK();
}

Status LshEnsemble::AddSketch(uint64_t id, size_t set_size, MinHash mh) {
  if (built_) return Status::InvalidArgument("LshEnsemble already built");
  if (mh.num_perm() != params_.num_perm || mh.seed() != params_.seed) {
    return Status::InvalidArgument(
        "MinHash signature does not match ensemble (num_perm, seed)");
  }
  entries_.push_back(Entry{id, set_size, std::move(mh)});
  return Status::OK();
}

Status LshEnsemble::Build() {
  if (built_) return Status::InvalidArgument("LshEnsemble already built");
  built_ = true;
  if (entries_.empty()) return Status::OK();

  // Equi-depth partition by set size.
  std::vector<size_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return entries_[a].set_size < entries_[b].set_size;
  });
  size_t num_parts = std::min(params_.num_partitions, entries_.size());
  size_t per_part = (entries_.size() + num_parts - 1) / num_parts;
  partitions_.clear();
  std::vector<std::pair<uint64_t, uint32_t>> band;
  for (size_t p = 0; p < num_parts; ++p) {
    size_t begin = p * per_part;
    size_t end = std::min(entries_.size(), begin + per_part);
    if (begin >= end) break;
    Partition part;
    part.lower = entries_[order[begin]].set_size;
    part.upper = entries_[order[end - 1]].set_size;
    part.members = end - begin;
    // Pre-build band tables for every candidate r.
    for (size_t r : CandidateRows()) {
      if (r > params_.num_perm) continue;
      const size_t bands = params_.num_perm / r;
      BandTables tables;
      tables.r = r;
      tables.keys.reserve(bands * part.members);
      tables.entries.reserve(bands * part.members);
      for (size_t b = 0; b < bands; ++b) {
        band.clear();
        for (size_t i = begin; i < end; ++i) {
          band.emplace_back(entries_[order[i]].mh.BandHash(b * r, (b + 1) * r),
                            static_cast<uint32_t>(order[i]));
        }
        std::sort(band.begin(), band.end());
        for (const auto& [key, idx] : band) {
          tables.keys.push_back(key);
          tables.entries.push_back(idx);
        }
      }
      part.tables.push_back(std::move(tables));
    }
    partitions_.push_back(std::move(part));
  }
  return Status::OK();
}

double LshEnsemble::ContainmentToJaccard(double containment, size_t query_size,
                                         size_t upper_bound) {
  double q = static_cast<double>(query_size);
  double u = static_cast<double>(upper_bound);
  double denom = q + u - containment * q;
  if (denom <= 0.0) return 1.0;
  return std::clamp(containment * q / denom, 0.0, 1.0);
}

std::vector<uint64_t> LshEnsemble::Query(
    const std::vector<std::string>& query_tokens,
    double containment_threshold) const {
  std::unordered_set<std::string> distinct(query_tokens.begin(),
                                           query_tokens.end());
  const size_t qsize = distinct.size();
  if (qsize == 0) return {};
  MinHash qmh(params_.num_perm, params_.seed);
  for (const std::string& t : distinct) qmh.Update(t);
  return Query(qmh, qsize, containment_threshold);
}

std::vector<uint64_t> LshEnsemble::Query(const MinHash& qmh, size_t qsize,
                                         double containment_threshold) const {
  if (!built_ || entries_.empty() || qsize == 0) return {};

  // Entries collide in several bands and partitions' tables: `seen` keeps
  // each one once in `candidates`.
  std::vector<uint8_t> seen(entries_.size(), 0);
  std::vector<uint32_t> candidates;
  for (const Partition& part : partitions_) {
    double jt =
        ContainmentToJaccard(containment_threshold, qsize, part.upper);
    // Pick the candidate r whose S-curve threshold (1/b)^(1/r) is closest
    // to jt from below-biased; this mirrors the ensemble's per-partition
    // parameter tuning with a small discrete menu.
    const BandTables* best =
        part.tables.empty() ? nullptr : &part.tables.front();
    double best_err = 1e18;
    for (const BandTables& tables : part.tables) {
      size_t bands = params_.num_perm / tables.r;
      double s_half = std::pow(1.0 / static_cast<double>(bands),
                               1.0 / static_cast<double>(tables.r));
      double err = std::fabs(s_half - jt);
      if (err < best_err) {
        best_err = err;
        best = &tables;
      }
    }
    if (best == nullptr) continue;
    const size_t r = best->r;
    const size_t n = part.members;
    for (size_t b = 0; b < params_.num_perm / r; ++b) {
      const uint64_t key = qmh.BandHash(b * r, (b + 1) * r);
      const auto first = best->keys.begin() + static_cast<std::ptrdiff_t>(b * n);
      const auto [lo, hi] =
          std::equal_range(first, first + static_cast<std::ptrdiff_t>(n), key);
      for (auto it = lo; it != hi; ++it) {
        const uint32_t idx = best->entries[static_cast<size_t>(
            it - best->keys.begin())];
        if (seen[idx]) continue;
        seen[idx] = 1;
        candidates.push_back(idx);
      }
    }
  }

  // Post-filter by estimated containment (slack absorbs MinHash variance).
  constexpr double kSlack = 0.8;
  std::vector<uint64_t> out;
  for (uint32_t idx : candidates) {
    const Entry& e = entries_[idx];
    double est = qmh.EstimateContainment(e.mh, qsize, e.set_size);
    if (est >= containment_threshold * kSlack) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dialite
