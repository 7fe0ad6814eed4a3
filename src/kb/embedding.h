#ifndef DIALITE_KB_EMBEDDING_H_
#define DIALITE_KB_EMBEDDING_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "kb/knowledge_base.h"

namespace dialite {

/// Dense embedding vector.
using Embedding = std::vector<float>;

/// "No precomputed vector" in HashEmbedder::EmbedValueSet's `row_of`.
inline constexpr uint32_t kNoValueRow = std::numeric_limits<uint32_t>::max();

/// Cosine similarity; 0 if either vector has zero norm.
double CosineSimilarity(const Embedding& a, const Embedding& b);
/// The same over `dim` floats at `a` and `b` (e.g. rows of one buffer);
/// bit-identical to the Embedding overload.
double CosineSimilarity(const float* a, const float* b, size_t dim);

/// sqrt(Σ a_i²), summed in double in index order: the exact norm
/// CosineSimilarity divides by.
double EmbeddingNorm(const float* a, size_t dim);

/// Admissible bound for pruning: never below CosineSimilarity(a, b, dim)
/// when `norm_a`/`norm_b` are EmbeddingNorm(a)/EmbeddingNorm(b). It sums
/// float products in a fixed 16-lane order, divides by the norms, and adds
/// dim·2⁻²³. That margin is at least γ_dim, the worst-case relative
/// rounding (against |a||b|) of a float dot product in any summation order,
/// with or without FMA, so the bound holds on every build. Returns 0 when a
/// norm is 0, and the exact cosine when the norms' product leaves
/// [2⁻⁶⁰, 2⁶⁰], where float under- or overflow could outgrow the margin.
double CosineUpperBound(const float* a, double norm_a, const float* b,
                        double norm_b, size_t dim);

/// L2-normalizes in place (no-op for the zero vector).
void NormalizeEmbedding(Embedding* v);
/// The same over `dim` floats at `v` (e.g. a row of one buffer);
/// bit-identical to the Embedding overload.
void NormalizeEmbedding(float* v, size_t dim);

/// Deterministic embedding model standing in for the pretrained word
/// embeddings the original pipeline leans on (SANTOS/Starmie-style
/// semantics). Two components:
///
///  - a *surface* component: hashed character trigrams and word tokens,
///    fastText-style, so misspellings and morphological variants land near
///    each other;
///  - a *semantic* component: every KB type of the value contributes a
///    pseudo-random unit vector shared by ALL values of that type, so
///    "Berlin" and "Boston" (both city) are close even with disjoint
///    surfaces, and "USA"/"United States" (same types + sameAs facts) are
///    very close.
///
/// All vectors derive from hashes — no training, fully reproducible.
///
/// Every feature is a key ("w:<word>", "g:<trigram>", "t:<type>") whose
/// HashString under `seed` picks a ±1/sqrt(dim) vector: dimension i is
/// positive iff bit 0 of HashUint64(key hash, i) is set. Each vector adds
/// into a float accumulator, feature by feature in the order words,
/// trigrams, types; the result is L2-normalized. Snapshots persist no
/// vector: LakeTokens derives its token vectors and lake-column embeddings
/// on every open. This definition is still a contract — every float of
/// every vector must stay bit-identical (DESIGN.md) — because TUS's and
/// Starmie's answers, and the pinned digests of them, depend on it.
class HashEmbedder {
 public:
  struct Params {
    size_t dim = 128;
    double semantic_weight = 2.0;  ///< weight of each KB-type component
    uint64_t seed = 11;
  };

  /// `kb` may be null: embeddings are then purely surface-based.
  HashEmbedder() : HashEmbedder(Params(), nullptr) {}
  explicit HashEmbedder(const KnowledgeBase* kb)
      : HashEmbedder(Params(), kb) {}
  HashEmbedder(Params params, const KnowledgeBase* kb);

  size_t dim() const { return params_.dim; }

  /// Surface+semantic embedding of one value, L2-normalized
  /// (zero vector for empty text).
  Embedding EmbedValue(std::string_view text) const;

  /// Mean of value embeddings, re-normalized — the column-content vector
  /// used by holistic schema matching. The one summation loop of every
  /// column embedding: each value's EmbedValue vector is added in list
  /// order, then the sum is normalized. With `rows` non-null, value i whose
  /// `row_of[i]` is not kNoValueRow reads its vector from row row_of[i] of
  /// `rows` (dim() floats each), which must hold EmbedValue(values[i]);
  /// only the other values are embedded. The floats are the same either
  /// way (DESIGN.md "Hash-embedding kernel and its bit-identity contract").
  Embedding EmbedValueSet(const std::vector<std::string>& values,
                          const float* rows = nullptr,
                          const uint32_t* row_of = nullptr) const;

  /// EmbedValueSet of `count` values whose vectors are all precomputed:
  /// value i's is row row_of[i] of `rows`, never kNoValueRow. The same
  /// summation loop, with nothing to embed and no strings to pass.
  Embedding EmbedValueSet(size_t count, const float* rows,
                          const uint32_t* row_of) const;

 private:
  /// The summation loop of both EmbedValueSet forms; `values` is null only
  /// when every value has a row.
  Embedding SumValueVectors(size_t count, const std::string* values,
                            const float* rows, const uint32_t* row_of) const;

  /// Adds the unnormalized features of `text` into `acc` (dim() floats).
  void AddFeatures(std::string_view text, float* acc) const;

  /// Adds the feature whose key hashes to `key_hash`: dimension i gets
  /// +unit or -unit by bit 0 of HashUint64(key_hash, i). `neg_unit` holds
  /// the bits of the float -unit; the hash bit flips its sign bit.
  void AddFeature(uint64_t key_hash, uint32_t neg_unit, float* acc) const;

  Params params_;
  const KnowledgeBase* kb_;
  std::vector<uint64_t> salts_;  ///< salts_[i] = HashUint64Salt(i), i < dim
  /// HashString state after the key prefixes "w:", "g:" and "t:".
  uint64_t word_prefix_ = 0;
  uint64_t gram_prefix_ = 0;
  uint64_t type_prefix_ = 0;
  /// Bits of the float -w/sqrt(dim) for words (w = 1), trigrams (w = 0.3)
  /// and KB types (w = semantic_weight).
  uint32_t word_neg_unit_ = 0;
  uint32_t gram_neg_unit_ = 0;
  uint32_t type_neg_unit_ = 0;
};

/// The one embedder of column contents: the built-in KB with default
/// Params. LakeTokens embeds every dictionary token with it and sums lake
/// columns from those vectors; TUS, Starmie and ALITE sum query and body
/// columns from them too, embedding only the values the dictionary lacks.
/// So a query column and a lake column are always compared in one space.
const HashEmbedder& ColumnEmbedder();

}  // namespace dialite

#endif  // DIALITE_KB_EMBEDDING_H_
