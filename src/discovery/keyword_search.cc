#include "discovery/keyword_search.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/cancel.h"
#include "snapshot/bytes.h"
#include "text/tokenizer.h"

namespace dialite {

namespace {

/// Cosine of a query against one canonical (id-sorted) document vector.
/// Accumulating the document side in sorted order keeps scores
/// bit-identical between a freshly built index and a snapshot-restored
/// one. `q_norm` is the query's precomputed L2 norm.
double CosineAgainstSorted(
    const SparseVector& q, double q_norm,
    const std::vector<std::pair<uint32_t, double>>& doc) {
  double dot = 0.0;
  double nd = 0.0;
  for (const auto& [id, w] : doc) {
    nd += w * w;
    auto it = q.find(id);
    if (it != q.end()) dot += w * it->second;
  }
  if (q_norm == 0.0 || nd == 0.0) return 0.0;
  return dot / (q_norm * std::sqrt(nd));
}

double QueryNorm(const SparseVector& q) {
  double n = 0.0;
  for (const auto& [id, v] : q) n += v * v;
  return std::sqrt(n);
}

}  // namespace

std::vector<std::string> KeywordSearch::TableDocument(
    const Table& table,
    const std::vector<std::vector<std::string>>& column_tokens) const {
  std::vector<std::string> doc;
  // Metadata tokens, boosted by repetition.
  std::vector<std::string> meta = WordTokens(table.name());
  for (const ColumnDef& c : table.schema().columns()) {
    std::vector<std::string> h = WordTokens(c.name);
    meta.insert(meta.end(), h.begin(), h.end());
  }
  for (size_t rep = 0; rep < params_.metadata_boost; ++rep) {
    doc.insert(doc.end(), meta.begin(), meta.end());
  }
  // Cell tokens, bounded per column.
  for (const std::vector<std::string>& toks : column_tokens) {
    size_t taken = 0;
    for (const std::string& tok : toks) {
      if (taken >= params_.max_tokens_per_column) break;
      std::vector<std::string> words = WordTokens(tok);
      doc.insert(doc.end(), words.begin(), words.end());
      ++taken;
    }
  }
  return doc;
}

Status KeywordSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  vectorizer_ = TfIdfVectorizer();
  documents_.clear();
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase 1: per-table documents (column tokens from the lake's
  // dictionary).
  std::shared_ptr<const LakeTokens> tokens = lake.tokens(num_threads_);
  std::vector<std::vector<std::string>> docs(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    docs[i] = TableDocument(*tables[i],
                            tokens->TableStrings(static_cast<TableId>(i)));
  }, obs_);
  // Corpus statistics must accumulate serially in lake order (document
  // frequencies assign term ids in first-seen order).
  for (const std::vector<std::string>& d : docs) vectorizer_.AddDocument(d);
  vectorizer_.Finalize();
  // Compute phase 2: vectorization is read-only after Finalize(), so the
  // transforms parallelize too.
  std::vector<SortedVector> vecs(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    const SparseVector v = vectorizer_.Transform(docs[i]);
    vecs[i].assign(v.begin(), v.end());
    std::sort(vecs[i].begin(), vecs[i].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }, obs_);
  documents_.reserve(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    documents_.emplace_back(tables[i]->name(), std::move(vecs[i]));
  }
  DerivePostings();
  ObsAdd(obs_, "discover.keyword.build.tables", tables.size());
  ObsSet(obs_, "discover.keyword.index.documents", documents_.size());
  return Status::OK();
}

namespace {
constexpr uint32_t kKeywordPayloadVersion = 1;
}  // namespace

Status KeywordSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kKeywordPayloadVersion);
  const std::vector<std::string> terms = vectorizer_.TermsById();
  const std::vector<size_t>& df = vectorizer_.doc_freq();
  w->U64(vectorizer_.num_documents());
  w->U64(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    w->Str(terms[i]);
    w->U64(df[i]);
  }
  w->U64(documents_.size());
  for (const auto& [table, vec] : documents_) {
    w->Str(table);
    w->U64(vec.size());  // entries already canonical (term-id order)
    for (const auto& [id, weight] : vec) {
      w->U32(id);
      w->F64(weight);
    }
  }
  return Status::OK();
}

Status KeywordSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kKeywordPayloadVersion) {
    return Status::ParseError("not a keyword v1 index payload");
  }
  uint64_t num_docs = 0, nterms = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&num_docs));
  DIALITE_RETURN_IF_ERROR(r->U64(&nterms));
  if (nterms > r->remaining()) {
    return Status::ParseError("keyword term count overruns the payload");
  }
  std::vector<std::string> terms(static_cast<size_t>(nterms));
  std::vector<size_t> df(static_cast<size_t>(nterms));
  for (uint64_t i = 0; i < nterms; ++i) {
    DIALITE_RETURN_IF_ERROR(r->Str(&terms[i]));
    uint64_t d = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&d));
    df[i] = static_cast<size_t>(d);
  }
  uint64_t ndocs = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&ndocs));
  if (ndocs > r->remaining()) {
    return Status::ParseError("keyword document count overruns the payload");
  }
  std::vector<std::pair<std::string, SortedVector>> docs;
  docs.reserve(static_cast<size_t>(ndocs));
  std::vector<uint8_t> indexed(lake.size(), 0);
  for (uint64_t i = 0; i < ndocs; ++i) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    Result<TableId> t = ClaimPayloadTable(lake, table, name(), &indexed);
    if (!t.ok()) return t.status();
    uint64_t nnz = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&nnz));
    if (nnz > r->remaining()) {
      return Status::ParseError("keyword vector size overruns the payload");
    }
    SortedVector vec;
    vec.reserve(static_cast<size_t>(nnz));
    for (uint64_t e = 0; e < nnz; ++e) {
      uint32_t id = 0;
      double weight = 0.0;
      DIALITE_RETURN_IF_ERROR(r->U32(&id));
      DIALITE_RETURN_IF_ERROR(r->F64(&weight));
      if (id >= nterms) {
        return Status::ParseError("keyword vector references unknown term");
      }
      if (!vec.empty() && id <= vec.back().first) {
        return Status::ParseError(
            "keyword vector entries not in canonical term-id order");
      }
      vec.emplace_back(id, weight);
    }
    docs.emplace_back(std::move(table), std::move(vec));
  }
  TfIdfVectorizer vectorizer = TfIdfVectorizer::Restore(
      terms, std::move(df), static_cast<size_t>(num_docs));
  // The derived postings hold one list per distinct term, and document
  // entries may name any id below the term count.
  if (vectorizer.vocabulary_size() != terms.size()) {
    return Status::ParseError("keyword vocabulary repeats a term");
  }
  vectorizer_ = std::move(vectorizer);
  documents_ = std::move(docs);
  DerivePostings();
  lake_ = &lake;
  return Status::OK();
}

void KeywordSearch::DerivePostings() {
  term_begin_.assign(vectorizer_.vocabulary_size() + 1, 0);
  doc_norms_.clear();
  doc_norms_.reserve(documents_.size());
  for (const auto& [table, vec] : documents_) {
    double nd = 0.0;
    for (const auto& [id, w] : vec) {
      ++term_begin_[id + 1];
      nd += w * w;
    }
    doc_norms_.push_back(std::sqrt(nd));
  }
  for (size_t t = 1; t < term_begin_.size(); ++t) {
    term_begin_[t] += term_begin_[t - 1];
  }
  // Filling in document order keeps every posting list document-sorted.
  post_docs_.resize(term_begin_.back());
  post_weights_.resize(term_begin_.back());
  std::vector<uint32_t> fill(term_begin_.begin(), term_begin_.end() - 1);
  for (size_t d = 0; d < documents_.size(); ++d) {
    for (const auto& [id, w] : documents_[d].second) {
      post_docs_[fill[id]] = static_cast<uint32_t>(d);
      post_weights_[fill[id]++] = w;
    }
  }
}

Result<std::vector<DiscoveryHit>> KeywordSearch::Search(
    const DiscoveryQuery& query) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  SparseVector qvec = vectorizer_.Transform(
      TableDocument(*query.table, TableTokens(*query.table)));
  return Rank(qvec, &query.table->name(), query.k, query.cancel);
}

Result<std::vector<DiscoveryHit>> KeywordSearch::SearchKeywords(
    const std::string& text, size_t k) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  std::vector<std::string> tokens = WordTokens(text);
  if (tokens.empty()) return Status::InvalidArgument("empty keyword query");
  return Rank(vectorizer_.Transform(tokens), nullptr, k, nullptr);
}

Result<std::vector<DiscoveryHit>> KeywordSearch::Rank(
    const SparseVector& qvec, const std::string* exclude, size_t k,
    const CancelToken* cancel) const {
  if (search_mode_ == SearchMode::kCascade) {
    return RankByPostings(qvec, exclude, k, cancel);
  }
  const double q_norm = QueryNorm(qvec);
  std::vector<double> scores(documents_.size());
  CancelPoller poller(cancel);
  for (size_t d = 0; d < documents_.size(); ++d) {
    if (poller.Cancelled()) {
      return Status::DeadlineExceeded("keyword exhaustive scan cancelled");
    }
    scores[d] = CosineAgainstSorted(qvec, q_norm, documents_[d].second);
  }
  std::vector<DiscoveryHit> hits;
  for (size_t d = 0; d < documents_.size(); ++d) {
    const std::string& name = documents_[d].first;
    if (exclude != nullptr && name == *exclude) continue;
    hits.push_back({name, scores[d]});
  }
  return RankHits(std::move(hits), k);
}

Result<std::vector<DiscoveryHit>> KeywordSearch::RankByPostings(
    const SparseVector& qvec, const std::string* exclude, size_t k,
    const CancelToken* cancel) const {
  const double q_norm = QueryNorm(qvec);
  std::vector<std::pair<uint32_t, double>> terms(qvec.begin(), qvec.end());
  std::sort(terms.begin(), terms.end());
  // Per-document dot products; documents sharing no term keep score 0,
  // which RankHits drops, so they are never touched.
  const size_t ndocs = documents_.size();
  std::vector<double> dot(ndocs, 0.0);
  std::vector<uint8_t> seen(ndocs, 0);
  std::vector<uint32_t> touched(ndocs);
  size_t ntouched = 0;
  uint64_t scanned = 0;
  CancelPoller poller(cancel);
  for (const auto& [term, qw] : terms) {
    if (poller.Cancelled()) {
      return Status::DeadlineExceeded("keyword search cancelled");
    }
    const uint32_t end = term_begin_[term + 1];
    for (uint32_t i = term_begin_[term]; i < end; ++i) {
      const uint32_t d = post_docs_[i];
      if (!seen[d]) {
        seen[d] = 1;
        touched[ntouched++] = d;
      }
      dot[d] += post_weights_[i] * qw;
    }
    scanned += end - term_begin_[term];
  }
  ObsAdd(obs_, "discover.keyword.work.postings_scanned", scanned);
  // Each touched document's cosine replaces its dot product:
  // CosineAgainstSorted's expression, with the document norm hoisted.
  std::vector<double> positive;
  positive.reserve(ntouched);
  for (size_t i = 0; i < ntouched; ++i) {
    const uint32_t d = touched[i];
    const bool excluded = exclude != nullptr && documents_[d].first == *exclude;
    dot[d] = excluded || q_norm == 0.0 || doc_norms_[d] == 0.0
                 ? 0.0
                 : dot[d] / (q_norm * doc_norms_[d]);
    if (dot[d] > 0.0) positive.push_back(dot[d]);
  }
  // Only documents scoring at least the k-th best score can rank, so
  // RankHits orders just those (ties included).
  double cut = 0.0;
  if (k > 0 && positive.size() > k) {
    std::nth_element(positive.begin(), positive.begin() + (k - 1),
                     positive.end(), std::greater<double>());
    cut = positive[k - 1];
  }
  std::vector<DiscoveryHit> hits;
  for (size_t i = 0; i < ntouched; ++i) {
    const uint32_t d = touched[i];
    if (dot[d] > 0.0 && dot[d] >= cut) {
      hits.push_back({documents_[d].first, dot[d]});
    }
  }
  return RankHits(std::move(hits), k);
}

}  // namespace dialite
