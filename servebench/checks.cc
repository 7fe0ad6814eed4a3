#include "checks.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string_view>

#include "obs/json.h"

namespace servebench {

namespace {

/// A parsed JSON value. Numbers keep their text.
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  std::string text;  ///< string contents or number text
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Get(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  bool ParseDocument(Json* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 16;

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          *out += e;
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          std::string hex(s_.substr(pos_, 4));
          pos_ += 4;
          long code = std::strtol(hex.c_str(), nullptr, 16);
          if (code >= 0x80) return false;  // the server escapes only < 0x20
          *out += static_cast<char>(code);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') {
      out->kind = Json::kString;
      return ParseString(&out->text);
    }
    if (c == '{') {
      ++pos_;
      out->kind = Json::kObject;
      if (Eat('}')) return true;
      do {
        std::string key;
        Json value;
        if (!ParseString(&key) || !Eat(':') || !ParseValue(&value, depth + 1)) {
          return false;
        }
        out->fields.emplace_back(std::move(key), std::move(value));
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = Json::kArray;
      if (Eat(']')) return true;
      do {
        Json value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->items.push_back(std::move(value));
      } while (Eat(','));
      return Eat(']');
    }
    for (std::string_view word : {"true", "false", "null"}) {
      if (s_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        out->kind = word == "null" ? Json::kNull : Json::kBool;
        out->text = std::string(word);
        return true;
      }
    }
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::kNumber;
    out->text = std::string(s_.substr(start, pos_ - start));
    char* end = nullptr;
    std::strtod(out->text.c_str(), &end);
    return end == out->text.c_str() + out->text.size();
  }

  std::string_view s_;
  size_t pos_ = 0;
};

const Json* Field(const Json& obj, std::string_view key, Json::Kind kind) {
  if (obj.kind != Json::kObject) return nullptr;
  const Json* v = obj.Get(key);
  return v != nullptr && v->kind == kind ? v : nullptr;
}

std::vector<std::string_view> SplitLines(std::string_view s) {
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t eol = s.find('\n', pos);
    if (eol == std::string_view::npos) eol = s.size();
    lines.push_back(s.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

}  // namespace

bool ParseHits(const std::string& body, std::vector<Hit>* hits) {
  Json doc;
  if (!JsonParser(body).ParseDocument(&doc)) return false;
  const Json* list = Field(doc, "hits", Json::kArray);
  if (list == nullptr) return false;
  hits->clear();
  for (const Json& h : list->items) {
    const Json* table = Field(h, "table", Json::kString);
    const Json* score = Field(h, "score", Json::kNumber);
    if (table == nullptr || score == nullptr) return false;
    hits->push_back(Hit{table->text, score->text});
  }
  return true;
}

bool ParseClusters(const std::string& body, std::vector<Cluster>* clusters) {
  Json doc;
  if (!JsonParser(body).ParseDocument(&doc)) return false;
  const Json* list = Field(doc, "clusters", Json::kArray);
  if (list == nullptr) return false;
  clusters->clear();
  for (const Json& c : list->items) {
    const Json* name = Field(c, "name", Json::kString);
    const Json* columns = Field(c, "columns", Json::kArray);
    if (name == nullptr || columns == nullptr) return false;
    Cluster cluster;
    cluster.name = name->text;
    for (const Json& col : columns->items) {
      const Json* table = Field(col, "table", Json::kString);
      const Json* index = Field(col, "column", Json::kNumber);
      if (table == nullptr || index == nullptr) return false;
      cluster.columns.emplace_back(
          table->text, std::strtoull(index->text.c_str(), nullptr, 10));
    }
    clusters->push_back(std::move(cluster));
  }
  return true;
}

bool ClustersPartition(
    const std::vector<Cluster>& clusters,
    const std::vector<std::pair<std::string, size_t>>& tables) {
  std::map<std::string, size_t> width(tables.begin(), tables.end());
  std::set<std::pair<std::string, size_t>> seen;
  size_t expected = 0;
  for (const auto& [name, n] : width) expected += n;
  for (const Cluster& c : clusters) {
    if (c.columns.empty()) return false;
    for (const auto& col : c.columns) {
      auto it = width.find(col.first);
      if (it == width.end() || col.second >= it->second) return false;
      if (!seen.insert(col).second) return false;
    }
  }
  return seen.size() == expected;
}

bool LooksLikeCsvTable(const std::string& body) {
  const size_t header_end = body.find('\n');
  return header_end != std::string::npos && header_end > 0 &&
         body.size() > header_end + 1 && body.back() == '\n';
}

std::vector<Hit> HitsOf(const std::vector<dialite::DiscoveryHit>& hits) {
  std::vector<Hit> out;
  for (const dialite::DiscoveryHit& h : hits) {
    out.push_back(Hit{h.table_name, dialite::FormatJsonDouble(h.score)});
  }
  return out;
}

std::vector<Cluster> ClustersOf(const dialite::Alignment& alignment) {
  std::vector<Cluster> out;
  for (size_t id = 0; id < alignment.num_clusters(); ++id) {
    Cluster c;
    c.name = alignment.IdName(id);
    for (const dialite::ColumnRef& ref : alignment.cluster(id)) {
      c.columns.emplace_back(ref.table, ref.column);
    }
    out.push_back(std::move(c));
  }
  return out;
}

bool SameRowsSorted(const std::string& a, const std::string& b) {
  std::vector<std::string_view> la = SplitLines(a);
  std::vector<std::string_view> lb = SplitLines(b);
  if (la.size() != lb.size() || la.empty()) return false;
  if (la[0] != lb[0]) return false;
  std::sort(la.begin() + 1, la.end());
  std::sort(lb.begin() + 1, lb.end());
  return la == lb;
}

}  // namespace servebench
