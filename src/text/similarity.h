#ifndef DIALITE_TEXT_SIMILARITY_H_
#define DIALITE_TEXT_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace dialite {

/// Set-overlap measures over string token sets. These back joinability
/// search (containment/overlap), unionability signals (Jaccard), and the
/// entity-resolution feature vector.

/// |A ∩ B|.
size_t OverlapSize(const std::vector<std::string>& a,
                   const std::vector<std::string>& b);

/// |A ∩ B| / |A ∪ B|; 1.0 when both empty.
double Jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b);

/// Containment of A in B: |A ∩ B| / |A|; 0 when A empty.
double Containment(const std::vector<std::string>& a,
                   const std::vector<std::string>& b);

/// Edit-distance measures over raw strings.

/// Levenshtein distance (unit costs).
size_t Levenshtein(std::string_view a, std::string_view b);

/// 1 - lev/max(|a|,|b|); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity in [0,1].
double Jaro(std::string_view a, std::string_view b);

/// Jaro-Winkler with standard prefix scale 0.1, prefix cap 4.
double JaroWinkler(std::string_view a, std::string_view b);

/// JaroWinkler over caller-owned scratch: `flags` must hold
/// a.size() + b.size() bytes (any contents). Same value, without the
/// per-call allocation, for loops over many pairs.
double JaroWinklerScratch(std::string_view a, std::string_view b,
                          uint8_t* flags);

/// Mean over tokens of A of the best JaroWinkler match in B (Monge-Elkan);
/// symmetric variant averages both directions.
double MongeElkan(const std::vector<std::string>& a,
                  const std::vector<std::string>& b);
double MongeElkanSymmetric(const std::vector<std::string>& a,
                           const std::vector<std::string>& b);

/// Cosine similarity between sparse count vectors represented as token
/// multisets.
double TokenCosine(const std::vector<std::string>& a,
                   const std::vector<std::string>& b);

/// Q-gram (default trigram) Jaccard between two strings.
double QGramJaccard(std::string_view a, std::string_view b, size_t q = 3);

}  // namespace dialite

#endif  // DIALITE_TEXT_SIMILARITY_H_
