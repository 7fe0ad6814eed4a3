#ifndef DIALITE_DISCOVERY_KEYWORD_SEARCH_H_
#define DIALITE_DISCOVERY_KEYWORD_SEARCH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "discovery/discovery.h"
#include "text/tfidf.h"

namespace dialite {

/// Keyword/metadata table retrieval — the "keyword search" discovery
/// technique the paper's introduction lists alongside table search
/// (Shraga et al., SIGIR 2020 family, lexical core).
///
/// Offline: every lake table becomes a "document" — its name, headers, and
/// cell tokens — in a TF-IDF corpus. Online: either a free-text keyword
/// query (SearchKeywords) or a query table (Search — the table itself is
/// tokenized, so the common DiscoveryAlgorithm interface still applies),
/// ranked by TF-IDF cosine. The complement of the set-theoretic searches:
/// finds *topically related* tables even when value sets are disjoint.
///
/// Searches walk an inverted index derived from the document vectors
/// (term -> documents), so documents sharing no query term are never
/// touched; kExhaustive scores every document as the reference. Both give
/// bit-identical scores.
class KeywordSearch : public DiscoveryAlgorithm, public PersistentIndex {
 public:
  struct Params {
    /// Weight multiplier for header/name tokens over cell tokens (metadata
    /// is short but dense with signal); implemented by token repetition.
    size_t metadata_boost = 3;
    /// Cap on cell tokens sampled per column (keeps documents bounded).
    size_t max_tokens_per_column = 200;
  };

  KeywordSearch() : KeywordSearch(Params()) {}
  explicit KeywordSearch(Params params) : params_(params) {}

  std::string name() const override { return "keyword"; }
  Status BuildIndex(const DataLake& lake) override;

  /// Offline-index persistence: the payload carries the fitted vectorizer
  /// state (vocabulary in id order, document frequencies, corpus size) and
  /// the per-table TF-IDF vectors; idf weights are recomputed on load. A
  /// repeated term or a table listed twice fails with kParseError.
  Status SavePayload(BinaryWriter* w) const override;
  Status LoadPayload(BinaryReader* r, const DataLake& lake) override;

  /// Table-as-query: tokenizes the query table like a lake document.
  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Free-text query ("covid vaccination european cities"). Honors
  /// search_mode() like Search.
  Result<std::vector<DiscoveryHit>> SearchKeywords(const std::string& text,
                                                   size_t k) const;

 private:
  /// A document vector in canonical form: entries sorted by term id. Both
  /// BuildIndex and LoadPayload store this shape, so cosine accumulation
  /// order — and therefore every score bit — is identical for a built and
  /// a snapshot-restored index (unordered_map iteration order is not).
  using SortedVector = std::vector<std::pair<uint32_t, double>>;

  /// The table's TF-IDF document, given each column's ColumnTokens in
  /// order (the lake's dictionary strings for a lake table).
  std::vector<std::string> TableDocument(
      const Table& table,
      const std::vector<std::vector<std::string>>& column_tokens) const;

  /// Top-k documents by cosine against `qvec`, never returning the table
  /// named `*exclude` (null = none). Dispatches on search_mode(); both
  /// paths poll `cancel`.
  Result<std::vector<DiscoveryHit>> Rank(const SparseVector& qvec,
                                         const std::string* exclude, size_t k,
                                         const CancelToken* cancel) const;

  /// The fast path: accumulates dot products term at a time, in ascending
  /// query term id, over the derived postings, then ranks the touched
  /// documents with RankHits. Per document that is the addition order of
  /// the reference's sorted walk, so every score is bit-identical.
  Result<std::vector<DiscoveryHit>> RankByPostings(
      const SparseVector& qvec, const std::string* exclude, size_t k,
      const CancelToken* cancel) const;

  /// Derives the postings arrays and doc_norms_ from documents_. Every
  /// entry's term id must be below vectorizer_.vocabulary_size().
  void DerivePostings();

  Params params_;
  const DataLake* lake_ = nullptr;
  TfIdfVectorizer vectorizer_;
  std::vector<std::pair<std::string, SortedVector>> documents_;
  /// Inverted index derived from documents_ on build and load (not
  /// persisted): term t's postings, in document order, are the entries
  /// [term_begin_[t], term_begin_[t + 1]) of post_docs_ (document index)
  /// and post_weights_ (the document's weight for t).
  std::vector<uint32_t> term_begin_;
  std::vector<uint32_t> post_docs_;
  std::vector<double> post_weights_;
  /// sqrt(Σ w²) per document, summed in term-id order as the reference
  /// sums it.
  std::vector<double> doc_norms_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_KEYWORD_SEARCH_H_
