#include "data/encoding.h"

#include <algorithm>
#include <cstring>

namespace hdsky {
namespace data {
namespace {

// Dictionary entries cost 8 bytes each before a single value is
// indexed, so past a few thousand distinct values FOR or raw always
// wins; capping the probe keeps the distinct scan cheap on
// high-cardinality runs.
constexpr size_t kDictMaxCardinality = 4096;

size_t PackedBytes(size_t n, uint32_t width) {
  // Bit-packed payloads are emitted as whole little-endian u64 words so
  // the unpacker never reads a partial word.
  size_t bits = n * width;
  return ((bits + 63) / 64) * 8;
}

uint32_t BitWidth(uint64_t v) {
  uint32_t w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &v, 8);
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  size_t at = out->size();
  out->resize(at + 4);
  std::memcpy(out->data() + at, &v, 4);
}

// Packs fn(i) for i in [0, n) at `width` bits per value.
template <typename Fn>
void PackBits(size_t n, uint32_t width, Fn fn, std::vector<uint8_t>* out) {
  size_t at = out->size();
  out->resize(at + PackedBytes(n, width), 0);
  uint8_t* dst = out->data() + at;
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  size_t word = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = fn(i);
    acc |= v << acc_bits;
    if (acc_bits + width >= 64) {
      std::memcpy(dst + word * 8, &acc, 8);
      ++word;
      uint32_t used = 64 - acc_bits;
      acc = used < 64 ? (v >> used) : 0;
      acc_bits = acc_bits + width - 64;
    } else {
      acc_bits += width;
    }
  }
  if (acc_bits > 0) std::memcpy(dst + word * 8, &acc, 8);
}

// Unpacks n values of `width` bits from src (PackedBytes(n,width) long).
template <typename Fn>
void UnpackBits(const uint8_t* src, size_t n, uint32_t width, Fn emit) {
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  size_t word = 0;
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  for (size_t i = 0; i < n; ++i) {
    if (acc_bits < width) {
      uint64_t next;
      std::memcpy(&next, src + word * 8, 8);
      ++word;
      uint64_t v = (acc | (next << acc_bits)) & mask;
      uint32_t take = width - acc_bits;
      acc = take < 64 ? (next >> take) : 0;
      acc_bits = 64 - take;
      emit(i, v);
    } else {
      emit(i, acc & mask);
      acc = width < 64 ? (acc >> width) : 0;
      acc_bits -= width;
    }
  }
}

struct RunHeader {
  Encoding enc;
  uint32_t width;
  uint32_t body_bytes;
};

void AppendHeader(std::vector<uint8_t>* out, Encoding enc, uint32_t width,
                  uint32_t body_bytes) {
  out->push_back(static_cast<uint8_t>(enc));
  out->push_back(static_cast<uint8_t>(width));
  out->push_back(0);
  out->push_back(0);
  AppendU32(out, body_bytes);
}

size_t EncodeRaw(const Value* values, size_t n, std::vector<uint8_t>* out) {
  size_t body = n * sizeof(Value);
  AppendHeader(out, Encoding::kRaw, 64, static_cast<uint32_t>(body));
  size_t at = out->size();
  out->resize(at + body);
  if (n > 0) std::memcpy(out->data() + at, values, body);
  return kRunHeaderBytes + body;
}

size_t EncodeFor(const Value* values, size_t n, std::vector<uint8_t>* out) {
  if (n == 0) return 0;
  int64_t lo = values[0], hi = values[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  // hi >= lo, so the difference fits in uint64 when computed mod 2^64.
  uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  uint32_t width = BitWidth(range);
  if (width >= 64) return 0;  // no savings possible; raw covers it
  size_t body = 8 + PackedBytes(n, width);
  AppendHeader(out, Encoding::kFor, width, static_cast<uint32_t>(body));
  AppendU64(out, static_cast<uint64_t>(lo));
  PackBits(
      n, width,
      [&](size_t i) {
        return static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(lo);
      },
      out);
  return kRunHeaderBytes + body;
}

size_t EncodeDelta(const Value* values, size_t n, std::vector<uint8_t>* out) {
  if (n < 2) return 0;
  uint32_t width = 0;
  for (size_t i = 1; i < n; ++i) {
    uint64_t d = ZigZag(static_cast<int64_t>(
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(values[i - 1])));
    width = std::max(width, BitWidth(d));
  }
  if (width >= 64) return 0;
  size_t body = 8 + PackedBytes(n - 1, width);
  AppendHeader(out, Encoding::kDelta, width, static_cast<uint32_t>(body));
  AppendU64(out, static_cast<uint64_t>(values[0]));
  PackBits(
      n - 1, width,
      [&](size_t i) {
        return ZigZag(static_cast<int64_t>(
            static_cast<uint64_t>(values[i + 1]) -
            static_cast<uint64_t>(values[i])));
      },
      out);
  return kRunHeaderBytes + body;
}

// Collects the distinct values of values[0..n) into *dict (unordered)
// through an open-addressing set reused across calls, so short runs pay
// no allocation. Returns false once more than kDictMaxCardinality are
// seen.
bool DistinctValues(const Value* values, size_t n,
                    std::vector<int64_t>* dict) {
  thread_local std::vector<int64_t> slots;
  thread_local std::vector<uint8_t> used;
  int shift = 60;  // 16 slots
  while ((size_t{1} << (64 - shift)) <
         2 * std::min(n, kDictMaxCardinality + 1)) {
    --shift;
  }
  const size_t mask = (size_t{1} << (64 - shift)) - 1;
  slots.resize(mask + 1);
  used.assign(mask + 1, 0);
  dict->clear();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = static_cast<uint64_t>(values[i]);
    size_t h = static_cast<size_t>((v * 0x9E3779B97F4A7C15ull) >> shift);
    while (used[h] != 0 && slots[h] != values[i]) h = (h + 1) & mask;
    if (used[h] != 0) continue;
    used[h] = 1;
    slots[h] = values[i];
    dict->push_back(values[i]);
    if (dict->size() > kDictMaxCardinality) return false;
  }
  return true;
}

size_t EncodeDict(const Value* values, size_t n, std::vector<uint8_t>* out) {
  if (n == 0) return 0;
  thread_local std::vector<int64_t> dict;
  if (!DistinctValues(values, n, &dict)) return 0;
  std::sort(dict.begin(), dict.end());
  uint32_t width = BitWidth(dict.size() - 1);
  size_t body = 8 + dict.size() * 8 + PackedBytes(n, width);
  AppendHeader(out, Encoding::kDict, width, static_cast<uint32_t>(body));
  AppendU64(out, dict.size());
  for (int64_t v : dict) AppendU64(out, static_cast<uint64_t>(v));
  PackBits(
      n, width,
      [&](size_t i) {
        return static_cast<uint64_t>(
            std::lower_bound(dict.begin(), dict.end(), values[i]) -
            dict.begin());
      },
      out);
  return kRunHeaderBytes + body;
}

// Predicted encoded size without materializing, for the picker.
size_t PredictFor(const Value* values, size_t n) {
  if (n == 0) return SIZE_MAX;
  int64_t lo = values[0], hi = values[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  uint32_t width =
      BitWidth(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo));
  if (width >= 64) return SIZE_MAX;
  return kRunHeaderBytes + 8 + PackedBytes(n, width);
}

size_t PredictDelta(const Value* values, size_t n) {
  if (n < 2) return SIZE_MAX;
  uint32_t width = 0;
  for (size_t i = 1; i < n; ++i) {
    width = std::max(
        width, BitWidth(ZigZag(static_cast<int64_t>(
                   static_cast<uint64_t>(values[i]) -
                   static_cast<uint64_t>(values[i - 1])))));
  }
  if (width >= 64) return SIZE_MAX;
  return kRunHeaderBytes + 8 + PackedBytes(n - 1, width);
}

size_t PredictDict(const Value* values, size_t n) {
  if (n == 0) return SIZE_MAX;
  thread_local std::vector<int64_t> seen;
  if (!DistinctValues(values, n, &seen)) return SIZE_MAX;
  uint32_t width = BitWidth(seen.size() - 1);
  return kRunHeaderBytes + 8 + seen.size() * 8 + PackedBytes(n, width);
}

common::Status Corrupt(const char* what) {
  return common::Status::IOError(std::string("corrupt encoded run: ") + what);
}

}  // namespace

size_t EncodeRun(const Value* values, size_t n, std::vector<uint8_t>* out) {
  size_t raw = kRunHeaderBytes + n * sizeof(Value);
  size_t best = raw;
  Encoding pick = Encoding::kRaw;
  size_t c = PredictFor(values, n);
  if (c < best) {
    best = c;
    pick = Encoding::kFor;
  }
  c = PredictDelta(values, n);
  if (c < best) {
    best = c;
    pick = Encoding::kDelta;
  }
  c = PredictDict(values, n);
  if (c < best) {
    best = c;
    pick = Encoding::kDict;
  }
  size_t bytes = EncodeRunAs(pick, values, n, out);
  return bytes != 0 ? bytes : EncodeRaw(values, n, out);
}

size_t EncodeRunAs(Encoding enc, const Value* values, size_t n,
                   std::vector<uint8_t>* out) {
  switch (enc) {
    case Encoding::kRaw:
      return EncodeRaw(values, n, out);
    case Encoding::kFor:
      return EncodeFor(values, n, out);
    case Encoding::kDelta:
      return EncodeDelta(values, n, out);
    case Encoding::kDict:
      return EncodeDict(values, n, out);
  }
  return 0;
}

common::Status DecodeRun(const uint8_t* encoded, size_t len, size_t n,
                         Value* values, size_t* consumed) {
  if (len < kRunHeaderBytes) return Corrupt("truncated header");
  uint8_t enc_tag = encoded[0];
  uint32_t width = encoded[1];
  if (encoded[2] != 0 || encoded[3] != 0) return Corrupt("nonzero reserved");
  uint32_t body;
  std::memcpy(&body, encoded + 4, 4);
  if (body > len - kRunHeaderBytes) return Corrupt("body past buffer");
  const uint8_t* p = encoded + kRunHeaderBytes;
  switch (static_cast<Encoding>(enc_tag)) {
    case Encoding::kRaw: {
      if (body != n * sizeof(Value)) return Corrupt("raw body size");
      if (n > 0) std::memcpy(values, p, body);
      break;
    }
    case Encoding::kFor: {
      if (width > 63) return Corrupt("FOR width");
      if (n == 0 || body != 8 + PackedBytes(n, width)) {
        return Corrupt("FOR body size");
      }
      uint64_t base;
      std::memcpy(&base, p, 8);
      UnpackBits(p + 8, n, width, [&](size_t i, uint64_t d) {
        values[i] = static_cast<Value>(base + d);
      });
      break;
    }
    case Encoding::kDelta: {
      if (width > 63) return Corrupt("delta width");
      if (n < 2 || body != 8 + PackedBytes(n - 1, width)) {
        return Corrupt("delta body size");
      }
      uint64_t first;
      std::memcpy(&first, p, 8);
      values[0] = static_cast<Value>(first);
      uint64_t prev = first;
      UnpackBits(p + 8, n - 1, width, [&](size_t i, uint64_t z) {
        prev += static_cast<uint64_t>(UnZigZag(z));
        values[i + 1] = static_cast<Value>(prev);
      });
      break;
    }
    case Encoding::kDict: {
      if (width > 63) return Corrupt("dict width");
      if (n == 0 || body < 8) return Corrupt("dict body size");
      uint64_t dict_n;
      std::memcpy(&dict_n, p, 8);
      if (dict_n == 0 || dict_n > n || dict_n > kDictMaxCardinality) {
        return Corrupt("dict cardinality");
      }
      if (body != 8 + dict_n * 8 + PackedBytes(n, width)) {
        return Corrupt("dict body size");
      }
      const uint8_t* dict = p + 8;
      const uint8_t* idx = dict + dict_n * 8;
      bool bad_index = false;
      UnpackBits(idx, n, width, [&](size_t i, uint64_t d) {
        if (d >= dict_n) {
          bad_index = true;
          d = 0;
        }
        int64_t v;
        std::memcpy(&v, dict + d * 8, 8);
        values[i] = v;
      });
      if (bad_index) return Corrupt("dict index out of range");
      break;
    }
    default:
      return Corrupt("unknown encoding");
  }
  *consumed = kRunHeaderBytes + body;
  return common::Status::OK();
}

Encoding PeekRunEncoding(const uint8_t* encoded) {
  return static_cast<Encoding>(encoded[0]);
}

}  // namespace data
}  // namespace hdsky
