#include "kb/embedding.h"

#include <bit>
#include <cassert>
#include <cctype>
#include <cmath>

#include "common/hash.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace dialite {

double CosineSimilarity(const Embedding& a, const Embedding& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  return CosineSimilarity(a.data(), b.data(), a.size());
}

double CosineSimilarity(const float* a, const float* b, size_t dim) {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double EmbeddingNorm(const float* a, size_t dim) {
  double n = 0.0;
  for (size_t i = 0; i < dim; ++i) n += static_cast<double>(a[i]) * a[i];
  return std::sqrt(n);
}

double CosineUpperBound(const float* a, double norm_a, const float* b,
                        double norm_b, size_t dim) {
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  // The same product CosineSimilarity divides by, so only the dot differs.
  const double den = norm_a * norm_b;
  if (!(den >= 0x1p-60 && den <= 0x1p60)) return CosineSimilarity(a, b, dim);
  // Sixteen independent float lanes, folded in halves: vectorizes without
  // reassociation, with four accumulator chains on SSE, and the order is
  // fixed, so the bound is the same on every run.
  constexpr size_t kLanes = 16;
  float lane[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= dim; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) lane[l] += a[i + l] * b[i + l];
  }
  for (size_t l = 0; i < dim; ++i, ++l) lane[l] += a[i] * b[i];
  for (size_t width = kLanes / 2; width > 0; width /= 2) {
    for (size_t l = 0; l < width; ++l) lane[l] += lane[l + width];
  }
  return static_cast<double>(lane[0]) / den +
         static_cast<double>(dim) * 0x1p-23;
}

void NormalizeEmbedding(Embedding* v) {
  NormalizeEmbedding(v->data(), v->size());
}

void NormalizeEmbedding(float* v, size_t dim) {
  const double norm = EmbeddingNorm(v, dim);
  if (norm == 0.0) return;
  for (size_t i = 0; i < dim; ++i) v[i] = static_cast<float>(v[i] / norm);
}

namespace {

// The byte rules of WordTokens and CharQGrams (text/tokenizer.cc), which
// the streaming feature walk below reproduces without building tokens.
bool IsAlnum(unsigned char c) { return std::isalnum(c) != 0; }
unsigned char Lower(unsigned char c) {
  return static_cast<unsigned char>(std::tolower(c));
}
unsigned char GramByte(unsigned char c) {
  return std::isspace(c) != 0 ? static_cast<unsigned char>('_') : Lower(c);
}

/// Folds `bytes` into a HashString state.
uint64_t HashBytes(uint64_t state, std::string_view bytes) {
  for (unsigned char c : bytes) state = HashStringByte(state, c);
  return state;
}

/// Bits of the float -w/sqrt(dim), the value AddFeature's sign flip starts
/// from.
uint32_t NegUnitBits(double w, size_t dim) {
  const double unit = w / std::sqrt(static_cast<double>(dim));
  return std::bit_cast<uint32_t>(static_cast<float>(-unit));
}

}  // namespace

HashEmbedder::HashEmbedder(Params params, const KnowledgeBase* kb)
    : params_(params),
      kb_(kb),
      word_prefix_(HashBytes(HashStringInit(params.seed), "w:")),
      gram_prefix_(HashBytes(HashStringInit(params.seed), "g:")),
      type_prefix_(HashBytes(HashStringInit(params.seed), "t:")),
      word_neg_unit_(NegUnitBits(1.0, params.dim)),
      gram_neg_unit_(NegUnitBits(0.3, params.dim)),
      type_neg_unit_(NegUnitBits(params.semantic_weight, params.dim)) {
  salts_.reserve(params_.dim);
  for (size_t i = 0; i < params_.dim; ++i) salts_.push_back(HashUint64Salt(i));
}

void HashEmbedder::AddFeature(uint64_t key_hash, uint32_t neg_unit,
                              float* acc) const {
  // Branch-free ±unit: bit 0 of the dimension's hash, moved to the sign
  // bit, turns -unit into +unit. The float adds run in dimension order,
  // one feature at a time, so every sum rounds as it always has.
  const size_t dim = salts_.size();
  for (size_t i = 0; i < dim; ++i) {
    const uint32_t bit = static_cast<uint32_t>(Mix64(key_hash ^ salts_[i]));
    acc[i] += std::bit_cast<float>(neg_unit ^ (bit << 31));
  }
}

void HashEmbedder::AddFeatures(std::string_view text, float* acc) const {
  // Trigrams come from the trimmed text, so they exist iff it is not
  // empty; words (alphanumeric runs) can only lie inside it.
  const std::string_view trimmed = TrimView(text);
  if (trimmed.empty()) return;

  // Surface: words (weight 1) + char trigrams (down-weighted so whole-word
  // matches dominate). Trigrams come from the raw (lowercased) text so
  // punctuation patterns like "%"/"$" survive.
  uint64_t h = word_prefix_;
  bool in_word = false;
  for (unsigned char c : trimmed) {
    if (IsAlnum(c)) {
      h = HashStringByte(h, Lower(c));
      in_word = true;
    } else if (in_word) {
      AddFeature(Mix64(h), word_neg_unit_, acc);
      h = word_prefix_;
      in_word = false;
    }
  }
  if (in_word) AddFeature(Mix64(h), word_neg_unit_, acc);

  // The windows of "##" + text + "##", text lowercased with whitespace as
  // '_': slide over the last two bytes instead of building the string.
  const unsigned char pad = '#';
  auto add_gram = [&](unsigned char a, unsigned char b, unsigned char c) {
    const uint64_t g = HashStringByte(
        HashStringByte(HashStringByte(gram_prefix_, a), b), c);
    AddFeature(Mix64(g), gram_neg_unit_, acc);
  };
  unsigned char prev2 = pad;
  unsigned char prev1 = pad;
  for (unsigned char c : trimmed) {
    const unsigned char cur = GramByte(c);
    add_gram(prev2, prev1, cur);
    prev2 = prev1;
    prev1 = cur;
  }
  add_gram(prev2, prev1, pad);
  add_gram(prev1, pad, pad);

  // Semantic: one shared component per KB type of the value.
  if (kb_ != nullptr) {
    for (const std::string& t : kb_->TypesOf(NormalizeText(text))) {
      if (t == "entity") continue;
      AddFeature(Mix64(HashBytes(type_prefix_, t)), type_neg_unit_, acc);
    }
  }
}

Embedding HashEmbedder::EmbedValue(std::string_view text) const {
  Embedding acc(params_.dim, 0.0f);
  AddFeatures(text, acc.data());
  NormalizeEmbedding(&acc);
  return acc;
}

Embedding HashEmbedder::EmbedValueSet(const std::vector<std::string>& values,
                                      const float* rows,
                                      const uint32_t* row_of) const {
  return SumValueVectors(values.size(), values.data(), rows, row_of);
}

Embedding HashEmbedder::EmbedValueSet(size_t count, const float* rows,
                                      const uint32_t* row_of) const {
  return SumValueVectors(count, nullptr, rows, row_of);
}

Embedding HashEmbedder::SumValueVectors(size_t count,
                                        const std::string* values,
                                        const float* rows,
                                        const uint32_t* row_of) const {
  Embedding acc(params_.dim, 0.0f);
  Embedding e;  // a value without a row is embedded here, as EmbedValue does
  for (size_t v = 0; v < count; ++v) {
    const float* value_vector;
    if (rows != nullptr && row_of[v] != kNoValueRow) {
      value_vector = rows + size_t{row_of[v]} * params_.dim;
    } else {
      assert(values != nullptr);
      e.assign(params_.dim, 0.0f);
      AddFeatures(values[v], e.data());
      NormalizeEmbedding(&e);
      value_vector = e.data();
    }
    for (size_t i = 0; i < acc.size(); ++i) acc[i] += value_vector[i];
  }
  NormalizeEmbedding(&acc);
  return acc;
}

const HashEmbedder& ColumnEmbedder() {
  static const HashEmbedder embedder(&KnowledgeBase::BuiltIn());
  return embedder;
}

}  // namespace dialite
