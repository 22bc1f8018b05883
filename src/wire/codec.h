// Bounds-checked binary encoding, and the one codec every wire payload goes
// through.
//
// All integers are big-endian. Variable-length data is u32-length-prefixed.
// The Reader never reads past its input and returns Result errors instead of
// throwing: malformed input is normal, adversarial traffic.
//
// A payload struct declares its leading type octet and its fields in wire
// order, and nothing else:
//
//   struct AuthInitPayload {
//     static constexpr std::uint8_t kType = 0xA1;
//     std::string a, l;
//     crypto::ProtocolNonce n1;
//     auto fields() { return std::tie(a, l, n1); }
//   };
//
// encode(p) and decode<AuthInitPayload>(raw) do the rest: the type octet,
// every field, and the refusal of trailing bytes. Each field's wire form
// follows from its C++ type:
//
//   std::string          u32 length + characters
//   u32, u64             big-endian
//   bool                 one octet, 0 or 1 (anything else is malformed)
//   one-octet enum       one octet, known iff in the enum's EnumNames table
//   keys, nonces, tags   raw at their fixed size
//   Bytes                u32 length + bytes
//   BytesView            the same on the wire; decodes to a view borrowed
//                        from the input (decode-only structs, which must
//                        not outlive the bytes they were decoded from)
//   capped<N>(x)         an integer, or a vector's u32 count then its
//                        elements; above N is oversized
//   capped<N>(map)       u32 count, then each key and value in key order;
//                        a key not above the one before it is malformed,
//                        so a repeated key is refused and a map has one
//                        encoding
//   exact<N>(b)          Bytes whose length must be exactly N (malformed)
//   a struct with fields() and no kType: its fields (vector elements)
//   a variant of typed structs: u32 length + the alternative's type octet
//                        and fields (AdminPayload's X field)
//
// A struct without kType (the envelope, a MAC input) encodes its fields
// alone; a variant encodes as its alternative and decodes by dispatching on
// the first octet.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace enclaves::wire {

/// Maximum length accepted for any single variable-length field. Prevents a
/// forged length prefix from driving a huge allocation.
constexpr std::uint32_t kMaxFieldLen = 1 << 20;  // 1 MiB

class Writer {
 public:
  Writer() = default;
  /// Reserves room for `capacity` bytes, for callers that know the size.
  explicit Writer(std::size_t capacity) { out_.reserve(capacity); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(BytesView b);
  /// u32 length prefix + bytes.
  void var_bytes(BytesView b);
  /// u32 length prefix + characters.
  void str(std::string_view s);

  const Bytes& bytes() const& { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(BytesView in) : in_(in) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  /// Exactly `n` raw bytes, as a view into the input.
  Result<BytesView> view(std::size_t n);
  /// A u32-length-prefixed field, as a view into the input.
  Result<BytesView> var_view();
  /// Exactly `n` raw bytes.
  Result<Bytes> raw(std::size_t n);
  Result<Bytes> var_bytes();
  Result<std::string> str();

  std::size_t remaining() const { return in_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }

  /// Succeeds only if the whole input was consumed — decoders call this last
  /// so that trailing garbage is rejected rather than silently ignored.
  Status expect_end() const;

 private:
  BytesView in_;
  std::size_t pos_ = 0;
};

/// Name table of a one-octet wire enum, specialised next to the enum:
///
///   template <> struct EnumNames<E> {
///     static constexpr std::pair<E, const char*> names[] = {...};
///   };
///
/// A raw octet is a known value of E if and only if it is in the table.
template <class E>
struct EnumNames;

namespace detail {

// Octet -> name (nullptr = unknown), so lookups cost one index whatever
// the value. A value listed twice stops the build.
template <class E>
inline constexpr std::array<const char*, 256> kNameIndex = [] {
  std::array<const char*, 256> index{};
  for (const auto& [value, name] : EnumNames<E>::names) {
    const auto i = static_cast<std::uint8_t>(value);
    if (index[i] != nullptr) throw "duplicate enum value in name table";
    index[i] = name;
  }
  return index;
}();

}  // namespace detail

/// The value's name from its table; "?" for a value outside it.
template <class E>
const char* enum_name(E value) {
  const char* name = detail::kNameIndex<E>[static_cast<std::uint8_t>(value)];
  return name ? name : "?";
}

template <class E>
bool is_known(std::uint8_t raw) {
  return detail::kNameIndex<E>[raw] != nullptr;
}

/// Field wrappers: an integer or vector count bounded by Max (oversized
/// beyond it), and Bytes of exactly N octets (malformed otherwise).
template <std::uint32_t Max, class T>
struct Capped {
  static constexpr std::uint32_t kMax = Max;
  T& v;
};
template <std::uint32_t Max, class T>
Capped<Max, T> capped(T& v) {
  return {v};
}

template <std::size_t N>
struct Exact {
  static constexpr std::size_t kLen = N;
  Bytes& v;
};
template <std::size_t N>
Exact<N> exact(Bytes& v) {
  return {v};
}

/// std::tie for field lists that hold a wrapper: lvalues stay references,
/// wrappers are kept by value.
template <class... F>
std::tuple<F...> tie_fields(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

/// True when no two types of a std::tuple or std::variant share a type
/// octet: such a pair could cross-decode.
template <class List>
inline constexpr bool kDistinctTypeOctets = false;
template <template <class...> class List, class... T>
inline constexpr bool kDistinctTypeOctets<List<T...>> = [] {
  const std::uint8_t types[] = {T::kType...};
  for (std::size_t i = 0; i < sizeof...(T); ++i)
    for (std::size_t j = i + 1; j < sizeof...(T); ++j)
      if (types[i] == types[j]) return false;
  return true;
}();

namespace detail {

template <class T>
concept Record = requires(T& t) { t.fields(); };

template <class T>
concept Typed = Record<T> && requires {
  { T::kType } -> std::convertible_to<std::uint8_t>;
};

// Keys and nonces: fixed-size values with view() and from_bytes().
template <class T>
concept FixedBytes = requires(const T& t, BytesView b) {
  { t.view() } -> std::same_as<BytesView>;
  { T::from_bytes(b) } -> std::same_as<T>;
};

template <class T>
concept IsCapped = requires { T::kMax; };
template <class T>
concept IsExact = requires { T::kLen; };

template <class T>
inline constexpr bool kIsByteArray = false;
template <std::size_t N>
inline constexpr bool kIsByteArray<std::array<std::uint8_t, N>> = true;

template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V>
inline constexpr bool kIsMap<std::map<K, V>> = true;

template <class T>
inline constexpr bool kIsVariant = false;
template <class... A>
inline constexpr bool kIsVariant<std::variant<A...>> = (Typed<A> && ...);

template <class>
inline constexpr bool kNoWireForm = false;

// Writer stand-in that only counts, so encode() sizes its buffer once.
struct SizeCounter {
  std::size_t n = 0;
  void u8(std::uint8_t) { n += 1; }
  void u32(std::uint32_t) { n += 4; }
  void u64(std::uint64_t) { n += 8; }
  void raw(BytesView b) { n += b.size(); }
  void var_bytes(BytesView b) { n += 4 + b.size(); }
  void str(std::string_view s) { n += 4 + s.size(); }
};

template <class W, class T>
void put_whole(W& w, const T& t);

template <class W, class F>
void put(W& w, const F& f) {
  if constexpr (std::is_same_v<F, std::string>) {
    w.str(f);
  } else if constexpr (std::is_same_v<F, bool>) {
    w.u8(f ? 1 : 0);
  } else if constexpr (std::is_enum_v<F>) {
    static_assert(sizeof(F) == 1, "wire enums are one octet");
    w.u8(static_cast<std::uint8_t>(f));
  } else if constexpr (std::is_same_v<F, std::uint32_t>) {
    w.u32(f);
  } else if constexpr (std::is_same_v<F, std::uint64_t>) {
    w.u64(f);
  } else if constexpr (std::is_same_v<F, Bytes> ||
                       std::is_same_v<F, BytesView>) {
    w.var_bytes(f);
  } else if constexpr (kIsByteArray<F>) {
    w.raw(f);
  } else if constexpr (FixedBytes<F>) {
    w.raw(f.view());
  } else if constexpr (IsExact<F>) {
    w.var_bytes(f.v);
  } else if constexpr (IsCapped<F>) {
    using V = std::remove_cvref_t<decltype(f.v)>;
    if constexpr (std::is_integral_v<V>) {
      w.u32(f.v);
    } else if constexpr (kIsMap<V>) {
      w.u32(static_cast<std::uint32_t>(f.v.size()));
      for (const auto& [key, value] : f.v) {
        put(w, key);
        put(w, value);
      }
    } else {
      w.u32(static_cast<std::uint32_t>(f.v.size()));
      for (const auto& e : f.v) put(w, e);
    }
  } else if constexpr (kIsVariant<F>) {
    SizeCounter size;
    put_whole(size, f);
    w.u32(static_cast<std::uint32_t>(size.n));
    put_whole(w, f);
  } else if constexpr (Record<F>) {
    std::apply([&w](const auto&... x) { (put(w, x), ...); },
               const_cast<F&>(f).fields());
  } else {
    static_assert(kNoWireForm<F>, "no wire form for this field type");
  }
}

// The whole value: a variant as its alternative, a typed struct as its
// type octet and fields.
template <class W, class T>
void put_whole(W& w, const T& t) {
  if constexpr (kIsVariant<T>) {
    std::visit([&w](const auto& alt) { put_whole(w, alt); }, t);
  } else {
    if constexpr (Typed<T>) w.u8(T::kType);
    put(w, t);
  }
}

// Moves a read value into its field; false, with `err` set, on a refusal.
// Fields report through one Error rather than a Status each, so a decode
// builds no error object unless it fails.
template <class T, class F>
bool take(Result<T> r, F& out, Error& err) {
  if (!r) {
    err = r.error();
    return false;
  }
  out = *std::move(r);
  return true;
}

inline bool refuse(Error& err, Errc code, const char* what) {
  err = make_error(code, what);
  return false;
}

template <class T>
Result<T> decode_whole(BytesView raw);

template <class F>
bool get(Reader& r, F& f, Error& err) {
  if constexpr (std::is_same_v<F, std::string>) {
    return take(r.str(), f, err);
  } else if constexpr (std::is_same_v<F, bool>) {
    std::uint8_t b = 0;
    if (!take(r.u8(), b, err)) return false;
    if (b > 1) return refuse(err, Errc::malformed, "bool octet not 0/1");
    f = b == 1;
    return true;
  } else if constexpr (std::is_enum_v<F>) {
    std::uint8_t b = 0;
    if (!take(r.u8(), b, err)) return false;
    if (!is_known<F>(b))
      return refuse(err, Errc::malformed, "unknown enum value");
    f = static_cast<F>(b);
    return true;
  } else if constexpr (std::is_same_v<F, std::uint32_t>) {
    return take(r.u32(), f, err);
  } else if constexpr (std::is_same_v<F, std::uint64_t>) {
    return take(r.u64(), f, err);
  } else if constexpr (std::is_same_v<F, Bytes>) {
    return take(r.var_bytes(), f, err);
  } else if constexpr (std::is_same_v<F, BytesView>) {
    return take(r.var_view(), f, err);
  } else if constexpr (kIsByteArray<F>) {
    BytesView b;
    if (!take(r.view(f.size()), b, err)) return false;
    std::copy(b.begin(), b.end(), f.begin());
    return true;
  } else if constexpr (FixedBytes<F>) {
    BytesView b;
    if (!take(r.view(F{}.view().size()), b, err)) return false;
    f = F::from_bytes(b);
    return true;
  } else if constexpr (IsExact<F>) {
    if (!take(r.var_bytes(), f.v, err)) return false;
    if (f.v.size() != F::kLen) return refuse(err, Errc::malformed, "length");
    return true;
  } else if constexpr (IsCapped<F>) {
    std::uint32_t n = 0;
    if (!take(r.u32(), n, err)) return false;
    if (n > F::kMax) return refuse(err, Errc::oversized, "count");
    using V = std::remove_cvref_t<decltype(f.v)>;
    if constexpr (std::is_integral_v<V>) {
      f.v = n;
    } else if constexpr (kIsMap<V>) {
      f.v.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        std::pair<typename V::key_type, typename V::mapped_type> e;
        if (!get(r, e.first, err) || !get(r, e.second, err)) return false;
        if (!f.v.empty() && !(f.v.rbegin()->first < e.first))
          return refuse(err, Errc::malformed, "map key repeated or unordered");
        f.v.emplace_hint(f.v.end(), std::move(e));
      }
    } else {
      // Every element takes at least one octet: never reserve more than
      // the input could hold.
      f.v.clear();
      f.v.reserve(std::min<std::size_t>(n, r.remaining()));
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!get(r, f.v.emplace_back(), err)) return false;
      }
    }
    return true;
  } else if constexpr (kIsVariant<F>) {
    BytesView body;
    return take(r.var_view(), body, err) &&
           take(decode_whole<F>(body), f, err);
  } else if constexpr (Record<F>) {
    return std::apply(
        [&r, &err](auto&&... x) { return (get(r, x, err) && ...); },
        f.fields());
  } else {
    static_assert(kNoWireForm<F>, "no wire form for this field type");
  }
}

// Decodes the alternative whose type octet leads `raw`.
template <class V, std::size_t I = 0>
Result<V> decode_alternative(BytesView raw) {
  if constexpr (I == std::variant_size_v<V>) {
    return make_error(Errc::malformed, "unknown payload type");
  } else {
    using Alt = std::variant_alternative_t<I, V>;
    if (raw[0] != Alt::kType) return decode_alternative<V, I + 1>(raw);
    auto alt = decode_whole<Alt>(raw);
    if (!alt) return alt.error();
    return V(std::in_place_index<I>, *std::move(alt));
  }
}

template <class T>
Result<T> decode_whole(BytesView raw) {
  if constexpr (kIsVariant<T>) {
    if (raw.empty()) return make_error(Errc::truncated, "type octet");
    return decode_alternative<T>(raw);
  } else {
    Reader r(raw);
    if constexpr (Typed<T>) {
      auto type = r.u8();
      if (!type) return type.error();
      if (*type != T::kType)
        return make_error(Errc::malformed, "payload type mismatch");
    }
    T t;
    Error err;
    if (!get(r, t, err)) return err;
    if (auto end = r.expect_end(); !end) return end.error();
    return t;
  }
}

template <class T>
concept Shape = Record<T> || kIsVariant<T>;

}  // namespace detail

/// Exact encoded size of a payload, AdminBody or envelope.
template <detail::Shape T>
std::size_t encoded_size(const T& t) {
  detail::SizeCounter size;
  detail::put_whole(size, t);
  return size.n;
}

/// Appends the encoding of `t` to `w`.
template <detail::Shape T>
void write(Writer& w, const T& t) {
  detail::put_whole(w, t);
}

template <detail::Shape T>
Bytes encode(const T& t) {
  Writer w(encoded_size(t));
  write(w, t);
  return std::move(w).take();
}

/// Decodes exactly one T from `raw`: the type octet must be T's, every
/// field must parse, and no byte may follow the last one.
template <detail::Shape T>
Result<T> decode(BytesView raw) {
  return detail::decode_whole<T>(raw);
}

}  // namespace enclaves::wire
