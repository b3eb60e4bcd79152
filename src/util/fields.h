#ifndef SPARQLOG_UTIL_FIELDS_H_
#define SPARQLOG_UTIL_FIELDS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/fnv.h"
#include "util/histogram.h"
#include "util/vbyte.h"

namespace sparqlog::util::fields {

/// One ordered field list per statistics aggregate drives its Merge
/// (shard folding), Save and Load (the vbyte snapshot blob) and Digest
/// (the counter vector behind pipeline::StatisticsDigest). An aggregate
/// declares
///
///   static auto Fields(auto& s) { return fields::List(s.a, s.b, ...); }
///
/// for const and mutable access alike; list order is blob and digest
/// order. A class whose list is private befriends `Access`. A data
/// member missing from the list fails the build (Access::Of). Counters are
/// summed; Max{f} marks one merged by max, Skip{f} working memory that
/// no operation sees. Load is strict: truncation, a malformed varint, a
/// histogram layout mismatch, a repeated map key or a dictionary id the
/// dictionary lacks fails it.

template <class T>
struct Max {
  T& value;
};

template <class T>
struct Skip {
  T& value;
};

/// Builds a field list: members are held by reference, markers by value.
template <class... F>
std::tuple<F...> List(F&&... fields) {
  return std::tuple<F...>(std::forward<F>(fields)...);
}

template <class F>
constexpr size_t kSizeOf = sizeof(std::remove_cvref_t<F>);
template <class T>
constexpr size_t kSizeOf<Max<T>> = sizeof(T);
template <class T>
constexpr size_t kSizeOf<Skip<T>> = sizeof(T);

/// Reaches T's field list, and fails the build if the listed members'
/// sizes do not add up to T's: a data member is missing from the list.
struct Access {
  template <class T>
  static auto Of(T& v) -> decltype(std::remove_const_t<T>::Fields(v)) {
    using Fields = decltype(std::remove_const_t<T>::Fields(v));
    static_assert(sizeof(T) == []<class... F>(std::tuple<F...>*) {
      return (size_t{0} + ... + kSizeOf<F>);
    }(static_cast<Fields*>(nullptr)), "a data member is not in the field list");
    return std::remove_const_t<T>::Fields(v);
  }
};

template <class T>
concept Aggregate = requires(T& v) { Access::Of(v); };

/// Save and Digest share one walk (Emit); the writers hold their
/// differences. Frame words (map sizes, histogram layouts) are blob-only;
/// a std::string key is a dictionary id in the blob, a hash in the digest.
template <class Dict>
struct BlobWriter {
  std::string& out;
  Dict& dict;
  void Word(uint64_t v) { vbyte::PutVarint(out, v); }
  void Frame(uint64_t v) { Word(v); }
  void Key(int k) { vbyte::PutZigzag(out, k); }
  void Key(const std::string& k) { Word(dict.Intern(k)); }
  void Key(auto k) { Word(static_cast<uint64_t>(k)); }
};

struct DigestWriter {
  std::vector<uint64_t>& out;
  void Word(uint64_t v) { out.push_back(v); }
  void Frame(uint64_t) {}
  void Key(const std::string& k) { Word(Fnv1aHash(k)); }
  void Key(auto k) { Word(static_cast<uint64_t>(k)); }
};

/// Dictionary stand-in for aggregates without string keys.
struct NoDictionary {};

// ---- Counters, markers, histograms ----

inline void Merge(uint64_t& into, uint64_t from) { into += from; }
void Emit(auto& w, uint64_t v) { w.Word(v); }
bool Load(std::string_view& in, uint64_t& v, const auto&) {
  return vbyte::GetVarint(in, v);
}

template <size_t N>
void Merge(uint64_t (&into)[N], const uint64_t (&from)[N]) {
  for (size_t i = 0; i < N; ++i) into[i] += from[i];
}
template <size_t N>
void Emit(auto& w, const uint64_t (&v)[N]) {
  for (uint64_t c : v) w.Word(c);
}
template <size_t N>
bool Load(std::string_view& in, uint64_t (&v)[N], const auto& dict) {
  for (uint64_t& c : v) {
    if (!Load(in, c, dict)) return false;
  }
  return true;
}

inline void Merge(Max<uint64_t> into, Max<const uint64_t> from) {
  into.value = std::max(into.value, from.value);
}
void Emit(auto& w, Max<const uint64_t> v) { w.Word(v.value); }
bool Load(std::string_view& in, Max<uint64_t> v, const auto& dict) {
  return Load(in, v.value, dict);
}

template <class T>
void Merge(Skip<T>, Skip<const T>) {}
template <class T>
void Emit(auto&, Skip<const T>) {}
template <class T>
bool Load(std::string_view&, Skip<T>, const auto&) {
  return true;
}

inline void Merge(BucketHistogram& into, const BucketHistogram& from) {
  into.Merge(from);
}
void Emit(auto& w, const BucketHistogram& h) {
  w.Frame(static_cast<uint64_t>(h.max_direct()));
  for (int i = 0; i <= h.max_direct(); ++i) w.Word(h.Count(i));
  w.Word(h.Overflow());
}
/// Adds into the buckets, so `h` must be fresh.
bool Load(std::string_view& in, BucketHistogram& h, const auto&) {
  uint64_t max_direct;
  if (!vbyte::GetVarint(in, max_direct) ||
      max_direct != static_cast<uint64_t>(h.max_direct())) {
    return false;
  }
  for (int i = 0; i <= h.max_direct() + 1; ++i) {  // + the overflow bucket
    uint64_t count;
    if (!vbyte::GetVarint(in, count)) return false;
    h.Add(i, count);
  }
  return true;
}

// ---- Aggregates: declared here, defined after the maps they contain ----

template <Aggregate T>
void Merge(T& into, const T& from);
template <Aggregate T>
void Emit(auto& w, const T& v);
template <Aggregate T, class Dict = NoDictionary>
bool Load(std::string_view& in, T& v, const Dict& dict = Dict());

template <class K, class V>
void Merge(std::map<K, V>& into, const std::map<K, V>& from) {
  for (const auto& [k, v] : from) Merge(into[k], v);
}

template <class K, class V>
void Emit(auto& w, const std::map<K, V>& m) {
  w.Frame(m.size());
  for (const auto& [k, v] : m) {
    w.Key(k);
    Emit(w, v);
  }
}

template <class K, class V>
bool Load(std::string_view& in, std::map<K, V>& m, const auto& dict) {
  uint64_t entries;
  if (!vbyte::GetVarint(in, entries)) return false;
  m.clear();
  for (uint64_t i = 0; i < entries; ++i) {
    K key{};
    if constexpr (std::is_same_v<K, int>) {
      int64_t k;
      if (!vbyte::GetZigzag(in, k)) return false;
      key = static_cast<int>(k);
    } else {
      uint64_t k;
      if (!vbyte::GetVarint(in, k)) return false;
      if constexpr (std::is_same_v<K, std::string>) {
        const std::string* term = dict.term(k);
        if (term == nullptr) return false;  // not in this dictionary
        key = *term;
      } else {
        key = static_cast<K>(k);
      }
    }
    V value{};
    if (!Load(in, value, dict) ||
        !m.emplace(std::move(key), std::move(value)).second) {
      return false;
    }
  }
  return true;
}

template <Aggregate T>
void Merge(T& into, const T& from) {
  std::apply([&](auto&&... a) {
    std::apply([&](auto&&... b) { (Merge(a, b), ...); }, Access::Of(from));
  }, Access::Of(into));
}

template <Aggregate T>
void Emit(auto& w, const T& v) {
  std::apply([&](auto&&... f) { (Emit(w, f), ...); }, Access::Of(v));
}

template <Aggregate T, class Dict>
bool Load(std::string_view& in, T& v, const Dict& dict) {
  return std::apply([&](auto&&... f) { return (Load(in, f, dict) && ...); },
                    Access::Of(v));
}

// ---- Save and Digest; Merge and Load above are called directly ----

template <Aggregate T, class Dict = NoDictionary>
void Save(std::string& out, const T& v, Dict&& dict = Dict()) {
  BlobWriter<std::remove_reference_t<Dict>> w{out, dict};
  Emit(w, v);
}

template <Aggregate T>
void Digest(const T& v, std::vector<uint64_t>& out) {
  DigestWriter w{out};
  Emit(w, v);
}

}  // namespace sparqlog::util::fields

#endif  // SPARQLOG_UTIL_FIELDS_H_
