#include "compress/lossless.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "compress/wire.h"
#include "tensor/check.h"
#include "tensor/fp16.h"

namespace actcomp::compress {

namespace {

// ---------------------------------------------------------------------------
// Container constants (normative layout in WIRE_FORMATS.md §4).
// ---------------------------------------------------------------------------

constexpr uint8_t kMagic = 0xAC;
constexpr uint8_t kVersion = 1;
/// Fixed header bytes before the chunk table.
constexpr int64_t kHeaderBytes = 24;
/// Per-plane prefix: u8 plane algo + u64 encoded size.
constexpr int64_t kPlanePrefixBytes = 9;
/// Longest Huffman code the encoder will emit; deeper trees (possible only
/// on adversarial distributions) fall back to the raw plane encoding.
constexpr int kMaxCodeLen = 32;
/// Huffman decode-table width: one lookup resolves any code this long or
/// shorter, or two codes whose lengths sum to at most this.
constexpr int kTableBits = 12;
/// Decoder sanity bound: PackBits expands at most 64x (2 encoded bytes ->
/// up to 128 raw) and Huffman at most 8x (>= 1 bit per symbol), so no valid
/// container's raw payload exceeds 512x its encoded size plus small headers.
constexpr int64_t kMaxExpansion = 512;

/// Bounds-checked reader over a byte span; every violation is a malformed /
/// truncated wire message, reported as std::invalid_argument.
struct ByteReader {
  const std::byte* p = nullptr;
  int64_t n = 0;
  int64_t off = 0;

  template <typename T>
  T get() {
    ACTCOMP_CHECK(off + static_cast<int64_t>(sizeof(T)) <= n,
                  "truncated lossless container");
    T v{};
    std::memcpy(&v, p + off, sizeof(T));
    off += static_cast<int64_t>(sizeof(T));
    return v;
  }
  const std::byte* take(int64_t k) {
    ACTCOMP_CHECK(k >= 0 && off + k <= n, "truncated lossless container");
    const std::byte* q = p + off;
    off += k;
    return q;
  }
};

// ---------------------------------------------------------------------------
// PackBits run-length coding (WIRE_FORMATS.md §4.4).
//
//   control c in [0, 127]   : literal run, copy the next c+1 bytes
//   control c in [129, 255] : repeat the next byte 257-c times (2..128)
//   control 128             : reserved, rejected on decode
// ---------------------------------------------------------------------------

/// Most bytes rle_encode writes for n input bytes: every run of >= 3 bytes
/// shrinks to 2, and literals add one control byte per 128, plus one.
int64_t rle_bound(int64_t n) { return n + n / 128 + 2; }

uint64_t load_u64(const std::byte* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// First j >= i where p[j] == p[j+1] == p[j+2], or n if there is none. Eight
/// candidate positions per step: a zero byte t in (w0 ^ w1) | (w1 ^ w2)
/// marks a triple at j + t, and the lowest byte the zero-byte test flags is
/// always a true zero.
int64_t next_triple(const std::byte* p, int64_t i, int64_t n) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHighs = 0x8080808080808080ull;
  int64_t j = i;
  for (; j + 10 <= n; j += 8) {
    const uint64_t w1 = load_u64(p + j + 1);
    const uint64_t x = (load_u64(p + j) ^ w1) | (w1 ^ load_u64(p + j + 2));
    const uint64_t zero = (x - kOnes) & ~x & kHighs;
    if (zero != 0) return j + std::countr_zero(zero) / 8;
  }
  for (; j + 2 < n; ++j) {
    if (p[j] == p[j + 1] && p[j + 1] == p[j + 2]) return j;
  }
  return n;
}

/// PackBits of p[0, n) into dst (rle_bound(n) bytes); returns the length.
/// Runs of >= 3 equal bytes (at most 128 per control) repeat; everything
/// between them is literal, 128 bytes per control. Like rle_decode, a
/// literal copies a whole 128 bytes where both sides have room.
int64_t rle_encode(const std::byte* p, int64_t n, std::byte* dst) {
  std::byte* o = dst;
  std::byte* const limit = dst + rle_bound(n);
  int64_t i = 0;
  while (i < n) {
    int64_t run = 1;
    while (i + run < n && run < 128 && p[i + run] == p[i]) ++run;
    if (run >= 3) {
      *o++ = static_cast<std::byte>(257 - run);
      *o++ = p[i];
      i += run;
      continue;
    }
    const int64_t end = next_triple(p, i, n);
    for (; i < end; i += 128) {
      const int64_t len = std::min<int64_t>(128, end - i);
      *o++ = static_cast<std::byte>(len - 1);
      if (i + 128 <= n && o + 128 <= limit) {
        std::memcpy(o, p + i, 128);
      } else {
        std::memcpy(o, p + i, static_cast<size_t>(len));
      }
      o += len;
    }
    i = end;
  }
  return o - dst;
}

/// Decodes exactly `expected` bytes into dst; anything else is malformed.
/// Where both sides have room, a run copies or fills a whole 128 bytes (a
/// fixed-size copy, which compiles to a few vector moves); the bytes past
/// the run are rewritten by the runs after it.
void rle_decode(const std::byte* p, int64_t n, int64_t expected, std::byte* dst) {
  int64_t i = 0, o = 0;
  while (i < n) {
    const auto c = static_cast<uint8_t>(p[i++]);
    if (c <= 127) {
      const int64_t len = c + 1;
      ACTCOMP_CHECK(i + len <= n, "truncated RLE literal run on wire");
      ACTCOMP_CHECK(o + len <= expected,
                    "RLE stream overruns its declared plane size");
      if (i + 128 <= n && o + 128 <= expected) {
        std::memcpy(dst + o, p + i, 128);
      } else {
        std::memcpy(dst + o, p + i, static_cast<size_t>(len));
      }
      i += len;
      o += len;
    } else {
      ACTCOMP_CHECK(c != 128, "reserved RLE control byte 128 on wire");
      ACTCOMP_CHECK(i < n, "truncated RLE repeat run on wire");
      const int64_t len = 257 - c;
      ACTCOMP_CHECK(o + len <= expected,
                    "RLE stream overruns its declared plane size");
      const auto v = static_cast<int>(p[i++]);
      if (o + 128 <= expected) {
        std::memset(dst + o, v, 128);
      } else {
        std::memset(dst + o, v, static_cast<size_t>(len));
      }
      o += len;
    }
  }
  ACTCOMP_CHECK(o == expected,
                "RLE stream decodes to " << o << " bytes, expected " << expected);
}

// ---------------------------------------------------------------------------
// Canonical order-0 Huffman over bytes (WIRE_FORMATS.md §4.5).
//
// Stream = u8 code_length[256], then the symbols' codes packed MSB-first
// into an LSB-first bit accumulator (bit k of the stream is byte k/8, bit
// k%8). Symbol count is implied by the plane's raw size, so the stream
// carries no explicit count; trailing pad bits fill the final byte.
// ---------------------------------------------------------------------------

/// Code lengths via the two-queue method over (count, symbol)-sorted leaves;
/// fully deterministic. Returns false when the tree exceeds kMaxCodeLen
/// (encoder then falls back to the raw plane).
bool huffman_lengths(const int64_t counts[256], uint8_t lens[256]) {
  std::fill(lens, lens + 256, uint8_t{0});
  struct Node {
    int64_t weight;
    int left, right;  // -1 for leaves
    int symbol;
  };
  std::vector<Node> nodes;
  std::vector<int> leaves;  // node ids, sorted by (weight, symbol)
  for (int s = 0; s < 256; ++s) {
    if (counts[s] > 0) {
      nodes.push_back({counts[s], -1, -1, s});
      leaves.push_back(static_cast<int>(nodes.size()) - 1);
    }
  }
  if (leaves.empty()) return true;
  if (leaves.size() == 1) {
    lens[nodes[static_cast<size_t>(leaves[0])].symbol] = 1;
    return true;
  }
  std::sort(leaves.begin(), leaves.end(), [&](int a, int b) {
    const Node& na = nodes[static_cast<size_t>(a)];
    const Node& nb = nodes[static_cast<size_t>(b)];
    if (na.weight != nb.weight) return na.weight < nb.weight;
    return na.symbol < nb.symbol;
  });
  std::vector<int> internal;
  size_t li = 0, ii = 0;
  auto pop_min = [&]() {
    // Ties prefer the leaf queue — a fixed rule keeps the tree deterministic.
    const bool take_leaf =
        li < leaves.size() &&
        (ii >= internal.size() ||
         nodes[static_cast<size_t>(leaves[li])].weight <=
             nodes[static_cast<size_t>(internal[ii])].weight);
    return take_leaf ? leaves[li++] : internal[ii++];
  };
  while (leaves.size() - li + internal.size() - ii > 1) {
    const int a = pop_min();
    const int b = pop_min();
    nodes.push_back({nodes[static_cast<size_t>(a)].weight +
                         nodes[static_cast<size_t>(b)].weight,
                     a, b, -1});
    internal.push_back(static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first walk assigning depths; the tree has < 512 nodes.
  struct Frame {
    int node;
    int depth;
  };
  std::vector<Frame> stack{{pop_min(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<size_t>(f.node)];
    if (nd.left < 0) {
      if (f.depth > kMaxCodeLen) return false;
      lens[nd.symbol] = static_cast<uint8_t>(std::max(1, f.depth));
    } else {
      stack.push_back({nd.left, f.depth + 1});
      stack.push_back({nd.right, f.depth + 1});
    }
  }
  return true;
}

/// Canonical code assignment from lengths: symbols sorted by (length,
/// symbol); codes count upward, shifting left at each length step. Returns
/// false on an inconsistent (over-full) length table.
bool canonical_codes(const uint8_t lens[256], uint32_t codes[256]) {
  std::vector<int> syms;
  for (int s = 0; s < 256; ++s) {
    if (lens[s] > 0) syms.push_back(s);
  }
  std::sort(syms.begin(), syms.end(), [&](int a, int b) {
    if (lens[a] != lens[b]) return lens[a] < lens[b];
    return a < b;
  });
  uint64_t code = 0;
  int prev_len = syms.empty() ? 0 : lens[syms[0]];
  for (size_t i = 0; i < syms.size(); ++i) {
    const int s = syms[i];
    code <<= (lens[s] - prev_len);
    prev_len = lens[s];
    if (code >> lens[s]) return false;  // over-full: not a prefix code
    codes[s] = static_cast<uint32_t>(code);
    ++code;
  }
  return true;
}

/// `code`'s low `len` bits in reverse order: the stream is LSB-first, so a
/// code's first (most significant) bit goes out first.
uint32_t reverse_code(uint32_t code, int len) {
  uint32_t rev = 0;
  for (int b = 0; b < len; ++b) rev |= ((code >> b) & 1u) << (len - 1 - b);
  return rev;
}

/// A plane's canonical code: lengths, bit-reversed codes (the stream is
/// LSB-first, so a code's first bit goes out first), and the coded size
/// Σ count × length, known before anything is emitted.
struct HuffmanCode {
  uint8_t lens[256];
  uint32_t rev[256];
  uint64_t bits = 0;

  /// Stream bytes: the length table, then the codes.
  int64_t stream_bytes() const { return 256 + static_cast<int64_t>((bits + 7) / 8); }
};

/// False when the tree exceeds kMaxCodeLen (the plane then goes raw).
bool huffman_code(const int64_t counts[256], HuffmanCode& hc) {
  uint32_t codes[256] = {};
  if (!huffman_lengths(counts, hc.lens) || !canonical_codes(hc.lens, codes)) {
    return false;
  }
  for (int s = 0; s < 256; ++s) {
    hc.rev[s] = reverse_code(codes[s], hc.lens[s]);
    hc.bits += static_cast<uint64_t>(counts[s]) * hc.lens[s];
  }
  return true;
}

/// Writes the stream for p[0, n) to dst, which has stream_bytes() + 8 bytes
/// of room. After each code the accumulator's whole bytes go out in one
/// unaligned 8-byte store (the last may spill into the slack) and at most 7
/// bits stay behind, so a code of up to 32 bits always fits: no branch per
/// code.
void huffman_emit(const std::byte* p, int64_t n, const HuffmanCode& hc,
                  std::byte* dst) {
  for (int s = 0; s < 256; ++s) dst[s] = static_cast<std::byte>(hc.lens[s]);
  std::byte* o = dst + 256;
  uint64_t acc = 0;
  int nbits = 0;
  for (int64_t i = 0; i < n; ++i) {
    const auto s = static_cast<uint8_t>(p[i]);
    acc |= static_cast<uint64_t>(hc.rev[s]) << nbits;
    nbits += hc.lens[s];
    std::memcpy(o, &acc, 8);
    o += nbits >> 3;
    acc >>= nbits & ~7;
    nbits &= 7;
  }
  if (nbits > 0) *o = static_cast<std::byte>(acc & 0xFFu);
}

/// Decodes exactly `expected` symbols into dst and requires the stream to
/// be exactly consumed (headers + ceil(bits/8) bytes).
void huffman_decode(const std::byte* p, int64_t n, int64_t expected,
                    std::byte* dst) {
  ACTCOMP_CHECK(n >= 256, "truncated Huffman length table on wire");
  uint8_t lens[256];
  for (int s = 0; s < 256; ++s) {
    lens[s] = static_cast<uint8_t>(p[s]);
    ACTCOMP_CHECK(lens[s] <= kMaxCodeLen,
                  "Huffman code length " << int{lens[s]} << " exceeds limit "
                                         << kMaxCodeLen);
  }
  // Canonical tables: per length, the first code, symbol count, and the
  // offset into the (length, symbol)-sorted symbol array.
  std::vector<int> syms;
  for (int s = 0; s < 256; ++s) {
    if (lens[s] > 0) syms.push_back(s);
  }
  ACTCOMP_CHECK(!syms.empty() || expected == 0,
                "empty Huffman alphabet for a non-empty plane");
  std::sort(syms.begin(), syms.end(), [&](int a, int b) {
    if (lens[a] != lens[b]) return lens[a] < lens[b];
    return a < b;
  });
  uint32_t first[kMaxCodeLen + 1] = {};
  uint32_t count[kMaxCodeLen + 1] = {};
  uint32_t offset[kMaxCodeLen + 1] = {};
  for (int s : syms) ++count[lens[s]];
  {
    uint64_t code = 0;
    uint32_t off = 0;
    for (int l = 1; l <= kMaxCodeLen; ++l) {
      code <<= 1;
      first[l] = static_cast<uint32_t>(code);
      offset[l] = off;
      code += count[l];
      off += count[l];
      ACTCOMP_CHECK(code <= (uint64_t{1} << l),
                    "over-full Huffman length table on wire");
    }
  }
  // Lookup table over the next kTableBits stream bits. The stream is
  // LSB-first, so a code starts at the index's lowest bit: each code of at
  // most kTableBits bits fills, bit-reversed, every entry it is a prefix of.
  // An entry packs bits used << 24 | symbols << 16 | second << 8 | first;
  // 0 marks a pattern that starts no such code (a longer code, or none).
  // Where the bits after the first code hold a whole second code, the entry
  // takes it too: one lookup, two symbols.
  constexpr uint32_t kMask = (1u << kTableBits) - 1;
  std::vector<uint32_t> table(size_t{1} << kTableBits);
  for (int l = 1; l <= kTableBits; ++l) {
    for (uint32_t c = 0; c < count[l]; ++c) {
      const uint32_t rev = reverse_code(first[l] + c, l);
      const auto entry =
          static_cast<uint32_t>(l << 24 | 1 << 16 | syms[offset[l] + c]);
      for (uint32_t pad = 0; pad < (1u << (kTableBits - l)); ++pad) {
        table[rev | pad << l] = entry;
      }
    }
  }
  for (uint32_t idx = 0; idx <= kMask; ++idx) {
    const uint32_t one = table[idx];
    const uint32_t len = one >> 24;
    if (one == 0 || len == kTableBits) continue;
    // The index's bits past the first code, zero above: a second entry
    // whose code fits in them names the code that follows.
    const uint32_t two = table[idx >> len];
    if (two != 0 && (two >> 24) <= kTableBits - len && (two >> 16 & 0xFF) == 1) {
      table[idx] = (len + (two >> 24)) << 24 | 2 << 16 | (two & 0xFF) << 8 |
                   (one & 0xFF);
    }
  }

  const std::byte* bits = p + 256;
  const int64_t nbytes = n - 256;
  int64_t bitpos = 0;
  // One symbol, one bit at a time: the path for codes longer than the table,
  // patterns no code covers, and the stream's last 8 bytes. Every malformed
  // stream is rejected here.
  const auto decode_bitwise = [&]() {
    uint32_t code = 0;
    int len = 0;
    for (;;) {
      ACTCOMP_CHECK(bitpos < nbytes * 8, "truncated Huffman bitstream on wire");
      const int bit =
          (static_cast<uint8_t>(bits[bitpos >> 3]) >> (bitpos & 7)) & 1;
      ++bitpos;
      code = (code << 1) | static_cast<uint32_t>(bit);
      ++len;
      ACTCOMP_CHECK(len <= kMaxCodeLen, "invalid Huffman code on wire");
      if (count[len] > 0 && code >= first[len] &&
          code < first[len] + count[len]) {
        return static_cast<std::byte>(syms[offset[len] + (code - first[len])]);
      }
    }
  };
  // While 8 whole bytes remain, one load holds >= 57 unread bits: room for
  // four lookups, and up to two more while a whole table index is left
  // (codes of up to 11 bits get at least five, 9 bits or less six). Each
  // lookup writes two bytes and keeps one or both; a miss keeps none and
  // consumes nothing, so the lookups after it repeat it and the bitwise
  // decoder takes over.
  constexpr int kWordBits = 57;
  constexpr int64_t kMaxPerLoad = 2 * 6;
  int64_t i = 0;
  while (i < expected) {
    int used = 0;
    if ((bitpos >> 3) + 8 <= nbytes && i + kMaxPerLoad <= expected) {
      uint64_t word = load_u64(bits + (bitpos >> 3)) >> (bitpos & 7);
      const auto lookup = [&] {
        const uint32_t entry = table[word & kMask];
        std::memcpy(dst + i, &entry, 2);
        i += entry >> 16 & 0xFF;
        used += static_cast<int>(entry >> 24);
        word >>= entry >> 24;
      };
      for (int h = 0; h < 4; ++h) lookup();
      for (int h = 0; h < 2 && used <= kWordBits - kTableBits; ++h) lookup();
      bitpos += used;
    }
    if (used == 0) dst[i++] = decode_bitwise();
  }
  ACTCOMP_CHECK((bitpos + 7) / 8 == nbytes,
                "Huffman bitstream has trailing bytes on wire");
}

// ---------------------------------------------------------------------------
// Planes, chunks and containers.
// ---------------------------------------------------------------------------

int64_t plane_raw_len(int64_t chunk_len, int stride, int plane) {
  return chunk_len / stride + (plane < chunk_len % stride ? 1 : 0);
}

/// Splits p[0, n) into its `Stride` byte planes in one pass: plane j
/// (every Stride-th byte from j) lands at planes[j], back to back.
template <int Stride>
void split_planes(const std::byte* p, int64_t n, std::byte* planes) {
  std::byte* dst[Stride];
  std::byte* at = planes;
  for (int j = 0; j < Stride; ++j) {
    dst[j] = at;
    at += plane_raw_len(n, Stride, j);
  }
  const int64_t rows = n / Stride;
  for (int64_t i = 0; i < rows; ++i) {
    for (int j = 0; j < Stride; ++j) dst[j][i] = p[i * Stride + j];
  }
  for (int j = 0; j < n % Stride; ++j) dst[j][rows] = p[rows * Stride + j];
}

/// The inverse of split_planes, reading plane j from src[j].
template <int Stride>
void merge_planes(const std::byte* const* src, int64_t n, std::byte* out) {
  const int64_t rows = n / Stride;
  for (int64_t i = 0; i < rows; ++i) {
    for (int j = 0; j < Stride; ++j) out[i * Stride + j] = src[j][i];
  }
  for (int j = 0; j < n % Stride; ++j) out[rows * Stride + j] = src[j][rows];
}

/// Appends one plane (u8 plane algo, u64 size, bytes) under the container's
/// algo, falling back to raw whenever coding would not shrink it. The
/// Huffman stream is sized from its counts first, so a plane headed for
/// the raw fallback is never emitted. `scratch` holds the PackBits stream.
void encode_plane(const std::byte* p, int64_t n, LosslessAlgo algo,
                  std::vector<std::byte>& scratch, std::vector<std::byte>& out) {
  const auto append_plane = [&](LosslessAlgo used, const std::byte* bytes,
                                int64_t len) {
    wire::append_pod<uint8_t>(out, static_cast<uint8_t>(used));
    wire::append_pod<uint64_t>(out, static_cast<uint64_t>(len));
    out.insert(out.end(), bytes, bytes + len);
  };
  const std::byte* src = p;
  int64_t len = n;
  if (algo == LosslessAlgo::kRle || algo == LosslessAlgo::kRleHuffman) {
    scratch.resize(static_cast<size_t>(rle_bound(n)));
    len = rle_encode(p, n, scratch.data());
    src = scratch.data();
    if (algo == LosslessAlgo::kRle && len < n) {
      append_plane(algo, src, len);
      return;
    }
  }
  if (algo == LosslessAlgo::kHuffman || algo == LosslessAlgo::kRleHuffman) {
    int64_t counts[256] = {};
    for (int64_t i = 0; i < len; ++i) ++counts[static_cast<uint8_t>(src[i])];
    HuffmanCode hc;
    const int64_t prefix = algo == LosslessAlgo::kRleHuffman ? 8 : 0;
    if (huffman_code(counts, hc) && prefix + hc.stream_bytes() < n) {
      wire::append_pod<uint8_t>(out, static_cast<uint8_t>(algo));
      wire::append_pod<uint64_t>(out,
                                 static_cast<uint64_t>(prefix + hc.stream_bytes()));
      if (prefix > 0) wire::append_pod<uint64_t>(out, static_cast<uint64_t>(len));
      const size_t at = out.size();
      out.resize(at + static_cast<size_t>(hc.stream_bytes()) + 8);
      huffman_emit(src, len, hc, out.data() + at);
      out.resize(at + static_cast<size_t>(hc.stream_bytes()));
      return;
    }
  }
  append_plane(LosslessAlgo::kRaw, p, n);
}

/// Decodes one plane's `n` coded bytes into exactly `expected` bytes at dst.
void decode_plane(LosslessAlgo algo, const std::byte* p, int64_t n,
                  int64_t expected, std::byte* dst) {
  switch (algo) {
    case LosslessAlgo::kRaw:
      ACTCOMP_CHECK(n == expected, "raw plane size mismatch on wire");
      if (n > 0) std::memcpy(dst, p, static_cast<size_t>(n));  // dst may be null
      return;
    case LosslessAlgo::kRle:
      rle_decode(p, n, expected, dst);
      return;
    case LosslessAlgo::kHuffman:
      huffman_decode(p, n, expected, dst);
      return;
    case LosslessAlgo::kRleHuffman: {
      ByteReader r{p, n};
      const auto rle_len = static_cast<int64_t>(r.get<uint64_t>());
      ACTCOMP_CHECK(rle_len >= 0 && rle_len <= kMaxExpansion * (n - r.off) + 8,
                    "implausible RLE stream size on wire");
      std::vector<std::byte> rle(static_cast<size_t>(rle_len));
      huffman_decode(p + r.off, n - r.off, rle_len, rle.data());
      rle_decode(rle.data(), rle_len, expected, dst);
      return;
    }
  }
  ACTCOMP_CHECK(false, "unknown plane algo id on wire");
}

void encode_chunk(const std::byte* p, int64_t n, LosslessAlgo algo, int stride,
                  std::vector<std::byte>& scratch, std::vector<std::byte>& out) {
  if (stride == 1) {
    encode_plane(p, n, algo, scratch, out);
    return;
  }
  std::vector<std::byte> planes(static_cast<size_t>(n));
  if (stride == 2) {
    split_planes<2>(p, n, planes.data());
  } else {
    split_planes<4>(p, n, planes.data());
  }
  const std::byte* plane = planes.data();
  for (int j = 0; j < stride; ++j) {
    const int64_t len = plane_raw_len(n, stride, j);
    encode_plane(plane, len, algo, scratch, out);
    plane += len;
  }
}

/// Decodes one chunk of `expected_raw` bytes into out. Planes decode one
/// after another (raw ones are read in place), then one pass interleaves
/// them.
void decode_chunk(const std::byte* p, int64_t n, int64_t expected_raw,
                  LosslessAlgo container_algo, int stride, std::byte* out) {
  ByteReader r{p, n};
  std::vector<std::byte> planes(stride == 1 ? 0 : static_cast<size_t>(expected_raw));
  const std::byte* src[4] = {};
  int64_t at = 0;
  for (int plane = 0; plane < stride; ++plane) {
    const auto algo_id = r.get<uint8_t>();
    ACTCOMP_CHECK(algo_id == static_cast<uint8_t>(LosslessAlgo::kRaw) ||
                      algo_id == static_cast<uint8_t>(container_algo),
                  "plane algo id " << int{algo_id}
                                   << " is neither raw nor the container's");
    const auto coded_len = static_cast<int64_t>(r.get<uint64_t>());
    const std::byte* coded = r.take(coded_len);
    const int64_t expected = plane_raw_len(expected_raw, stride, plane);
    ACTCOMP_CHECK(expected <= kMaxExpansion * coded_len + 8,
                  "implausible plane expansion on wire");
    const auto algo = static_cast<LosslessAlgo>(algo_id);
    if (stride == 1) {
      decode_plane(algo, coded, coded_len, expected, out);
    } else if (algo == LosslessAlgo::kRaw) {
      ACTCOMP_CHECK(coded_len == expected, "raw plane size mismatch on wire");
      src[plane] = coded;
    } else {
      decode_plane(algo, coded, coded_len, expected, planes.data() + at);
      src[plane] = planes.data() + at;
    }
    at += expected;
  }
  ACTCOMP_CHECK(r.off == n, "trailing bytes after the chunk's last plane");
  if (stride == 2) merge_planes<2>(src, expected_raw, out);
  if (stride == 4) merge_planes<4>(src, expected_raw, out);
}

/// Appends the container for data[0, n) to out.
void encode_container(const LosslessCodec& codec, const std::byte* data,
                      int64_t n, std::vector<std::byte>& out) {
  ACTCOMP_CHECK(n >= 0, "negative payload size");
  ACTCOMP_CHECK(n == 0 || data != nullptr, "null payload");
  const int chunks = codec.num_chunks(n);
  const int64_t chunk_raw = chunks == 1 ? n : codec.chunk_bytes;
  const int stride = plane_count(codec.split);
  // The raw fallback bounds every plane, so nothing below reallocates
  // (the 8 spare bytes are the Huffman emitter's slack).
  out.reserve(out.size() + static_cast<size_t>(codec.max_encoded_bytes(n)) + 8);
  wire::append_pod<uint8_t>(out, kMagic);
  wire::append_pod<uint8_t>(out, kVersion);
  wire::append_pod<uint8_t>(out, static_cast<uint8_t>(codec.algo));
  wire::append_pod<uint8_t>(out, static_cast<uint8_t>(codec.split));
  wire::append_pod<uint64_t>(out, static_cast<uint64_t>(n));
  wire::append_pod<uint32_t>(out, static_cast<uint32_t>(chunks));
  wire::append_pod<uint64_t>(out, static_cast<uint64_t>(chunk_raw));
  const size_t table = out.size();
  out.resize(table + 8 * static_cast<size_t>(chunks));
  std::vector<std::byte> scratch;
  for (int c = 0; c < chunks; ++c) {
    const int64_t begin = static_cast<int64_t>(c) * chunk_raw;
    const size_t start = out.size();
    encode_chunk(data + begin, std::min(chunk_raw, n - begin), codec.algo, stride,
                 scratch, out);
    const auto size = static_cast<uint64_t>(out.size() - start);
    std::memcpy(out.data() + table + 8 * static_cast<size_t>(c), &size, 8);
  }
}

/// Decodes the container buf[0, n) and appends its payload to out.
void decode_container(const std::byte* buf, int64_t n, std::vector<std::byte>& out) {
  ByteReader r{buf, n};
  ACTCOMP_CHECK(r.get<uint8_t>() == kMagic, "bad lossless container magic");
  ACTCOMP_CHECK(r.get<uint8_t>() == kVersion,
                "unsupported lossless container version");
  const auto algo_id = r.get<uint8_t>();
  ACTCOMP_CHECK(algo_id <= static_cast<uint8_t>(LosslessAlgo::kRleHuffman),
                "unknown lossless algo id " << int{algo_id});
  const auto split_id = r.get<uint8_t>();
  ACTCOMP_CHECK(split_id <= static_cast<uint8_t>(PlaneSplit::kStride4),
                "unknown plane split id " << int{split_id});
  const auto raw = static_cast<int64_t>(r.get<uint64_t>());
  ACTCOMP_CHECK(raw >= 0 && raw <= kMaxExpansion * n,
                "implausible raw payload size on wire");
  const auto chunks = static_cast<int64_t>(r.get<uint32_t>());
  ACTCOMP_CHECK(chunks >= 1, "lossless container needs >= 1 chunk");
  const auto chunk_raw = static_cast<int64_t>(r.get<uint64_t>());
  if (chunks == 1) {
    ACTCOMP_CHECK(chunk_raw == raw,
                  "single-chunk container must have chunk_raw == raw_bytes");
  } else {
    ACTCOMP_CHECK(chunk_raw >= 1, "multi-chunk container needs chunk_raw >= 1");
    ACTCOMP_CHECK(chunk_raw * (chunks - 1) < raw && raw <= chunk_raw * chunks,
                  "chunk table inconsistent with raw_bytes");
  }
  std::vector<int64_t> sizes(static_cast<size_t>(chunks));
  int64_t total = 0;
  for (auto& s : sizes) {
    s = static_cast<int64_t>(r.get<uint64_t>());
    ACTCOMP_CHECK(s >= 0 && s <= n, "chunk size out of range on wire");
    total += s;
  }
  ACTCOMP_CHECK(r.off + total == n,
                "container size does not match its chunk table (truncated or "
                "trailing bytes)");

  const size_t base = out.size();
  out.resize(base + static_cast<size_t>(raw));
  const auto algo = static_cast<LosslessAlgo>(algo_id);
  const int stride = plane_count(static_cast<PlaneSplit>(split_id));
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t expected =
        c + 1 == chunks ? raw - chunk_raw * (chunks - 1) : chunk_raw;
    const std::byte* p = r.take(sizes[static_cast<size_t>(c)]);
    decode_chunk(p, sizes[static_cast<size_t>(c)], expected, algo, stride,
                 out.data() + base + static_cast<size_t>(c * chunk_raw));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Labels / registries.
// ---------------------------------------------------------------------------

std::string lossless_algo_label(LosslessAlgo algo) {
  switch (algo) {
    case LosslessAlgo::kRaw: return "raw";
    case LosslessAlgo::kRle: return "rle";
    case LosslessAlgo::kHuffman: return "huffman";
    case LosslessAlgo::kRleHuffman: return "rle+huffman";
  }
  ACTCOMP_ASSERT(false, "unreachable lossless algo enum");
}

std::string plane_split_label(PlaneSplit split) {
  switch (split) {
    case PlaneSplit::kNone: return "none";
    case PlaneSplit::kStride2: return "bp2";
    case PlaneSplit::kStride4: return "bp4";
  }
  ACTCOMP_ASSERT(false, "unreachable plane split enum");
}

int plane_count(PlaneSplit split) {
  switch (split) {
    case PlaneSplit::kNone: return 1;
    case PlaneSplit::kStride2: return 2;
    case PlaneSplit::kStride4: return 4;
  }
  ACTCOMP_ASSERT(false, "unreachable plane split enum");
}

const std::vector<LosslessCodec>& standard_lossless_codecs() {
  static const std::vector<LosslessCodec> kCodecs = {
      {LosslessAlgo::kRle, PlaneSplit::kStride2, 0},
      {LosslessAlgo::kHuffman, PlaneSplit::kStride2, 0},
      {LosslessAlgo::kRleHuffman, PlaneSplit::kStride2, 0},
      {LosslessAlgo::kRleHuffman, PlaneSplit::kStride4, 0},
  };
  return kCodecs;
}

// ---------------------------------------------------------------------------
// LosslessCodec.
// ---------------------------------------------------------------------------

std::string LosslessCodec::name() const {
  return lossless_algo_label(algo) + "/" + plane_split_label(split);
}

int LosslessCodec::num_chunks(int64_t raw_bytes) const {
  ACTCOMP_CHECK(raw_bytes >= 0, "negative payload size");
  if (chunk_bytes <= 0 || raw_bytes == 0) return 1;
  return static_cast<int>((raw_bytes + chunk_bytes - 1) / chunk_bytes);
}

int64_t LosslessCodec::max_encoded_bytes(int64_t raw_bytes) const {
  const int chunks = num_chunks(raw_bytes);
  // Header + chunk table + per-chunk per-plane prefixes + raw-fallback data.
  return kHeaderBytes + 8 * chunks +
         static_cast<int64_t>(chunks) * plane_count(split) * kPlanePrefixBytes +
         raw_bytes;
}

std::vector<std::byte> LosslessCodec::encode(const std::byte* data,
                                             int64_t n) const {
  std::vector<std::byte> out;
  encode_container(*this, data, n, out);
  return out;
}

std::vector<std::byte> LosslessCodec::encode(
    const std::vector<std::byte>& data) const {
  return encode(data.data(), static_cast<int64_t>(data.size()));
}

std::vector<std::byte> LosslessCodec::decode(
    const std::vector<std::byte>& buf) const {
  std::vector<std::byte> out;
  decode_container(buf.data(), static_cast<int64_t>(buf.size()), out);
  return out;
}

// ---------------------------------------------------------------------------
// LosslessCompressor.
// ---------------------------------------------------------------------------

LosslessCompressor::LosslessCompressor(LosslessCodec codec) : codec_(codec) {}

std::string LosslessCompressor::name() const {
  return "lossless(" + codec_.name() + ")";
}

CompressedMessage LosslessCompressor::do_encode(const tensor::Tensor& x) {
  std::vector<std::byte> fp16;
  fp16.reserve(static_cast<size_t>(x.numel()) * 2);
  wire::append_fp16(fp16, x);
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body = codec_.encode(fp16);
  return msg;
}

tensor::Tensor LosslessCompressor::do_decode(const CompressedMessage& msg) const {
  tensor::Shape shape{msg.shape_dims};
  const std::vector<std::byte> fp16 = codec_.decode(msg.body);
  ACTCOMP_CHECK(static_cast<int64_t>(fp16.size()) == shape.numel() * 2,
                "lossless payload decodes to " << fp16.size()
                                               << " bytes, expected "
                                               << shape.numel() * 2);
  size_t off = 0;
  std::vector<float> vals = wire::read_fp16(fp16, off, shape.numel());
  return tensor::Tensor(shape, std::move(vals));
}

tensor::Tensor LosslessCompressor::round_trip(const tensor::Tensor& x) {
  return tensor::fp16_round(x);
}

WireFormat LosslessCompressor::wire_size(const tensor::Shape& shape) const {
  const int64_t raw = fp16_bytes(shape);
  const int64_t header = kHeaderBytes + 8 * codec_.num_chunks(raw);
  return WireFormat{.payload_bytes = codec_.max_encoded_bytes(raw) - header,
                    .metadata_bytes = header};
}

// ---------------------------------------------------------------------------
// Segment layouts.
// ---------------------------------------------------------------------------

SegmentLayoutFn segment_whole(PlaneSplit split) {
  return [split](const tensor::Shape&, int64_t body_bytes) {
    return std::vector<BodySegment>{{0, body_bytes, split}};
  };
}

SegmentLayoutFn segments_topk() {
  return [](const tensor::Shape&, int64_t body_bytes) {
    ACTCOMP_CHECK(body_bytes % 6 == 0,
                  "top-k body is not 6 bytes per kept element: " << body_bytes);
    const int64_t k = body_bytes / 6;
    return std::vector<BodySegment>{{0, 4 * k, PlaneSplit::kStride4},
                                    {4 * k, 2 * k, PlaneSplit::kStride2}};
  };
}

SegmentLayoutFn segments_quantize() {
  return [](const tensor::Shape& shape, int64_t body_bytes) {
    ACTCOMP_CHECK(shape.rank() >= 1, "quantize body needs a ranked shape");
    const int64_t cols = shape.dim(-1);
    const int64_t rows = cols == 0 ? 0 : shape.numel() / cols;
    const int64_t header = rows * 4;
    ACTCOMP_CHECK(header <= body_bytes,
                  "quantize body smaller than its row-params header");
    return std::vector<BodySegment>{
        {0, header, PlaneSplit::kStride2},
        {header, body_bytes - header, PlaneSplit::kNone}};
  };
}

// ---------------------------------------------------------------------------
// StackedCompressor.
// ---------------------------------------------------------------------------

StackedCompressor::StackedCompressor(CompressorPtr inner, LosslessCodec codec,
                                     SegmentLayoutFn layout)
    : inner_(std::move(inner)), codec_(codec), layout_(std::move(layout)) {
  ACTCOMP_CHECK(inner_ != nullptr, "stacked compressor needs an inner codec");
  if (!layout_) layout_ = segment_whole(codec_.split);
}

std::string StackedCompressor::name() const {
  return inner_->name() + "+lossless(" + lossless_algo_label(codec_.algo) + ")";
}

std::vector<BodySegment> StackedCompressor::layout_for(
    const tensor::Shape& shape, int64_t body_bytes) const {
  std::vector<BodySegment> segs = layout_(shape, body_bytes);
  ACTCOMP_CHECK(!segs.empty(), "segment layout produced no segments");
  int64_t off = 0;
  for (const BodySegment& s : segs) {
    ACTCOMP_CHECK(s.offset == off && s.bytes >= 0,
                  "segment layout must tile the body in order without gaps");
    off += s.bytes;
  }
  ACTCOMP_CHECK(off == body_bytes,
                "segment layout covers " << off << " of " << body_bytes
                                         << " body bytes");
  return segs;
}

CompressedMessage StackedCompressor::do_encode(const tensor::Tensor& x) {
  CompressedMessage inner = inner_->encode(x);
  const auto body_bytes = static_cast<int64_t>(inner.body.size());
  const std::vector<BodySegment> segs = layout_for(x.shape(), body_bytes);

  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  wire::append_pod<uint32_t>(msg.body, static_cast<uint32_t>(segs.size()));
  const size_t table = msg.body.size();
  msg.body.resize(table + 8 * segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    LosslessCodec c = codec_;
    c.split = segs[i].split;
    const size_t start = msg.body.size();
    encode_container(c, inner.body.data() + segs[i].offset, segs[i].bytes, msg.body);
    const auto size = static_cast<uint64_t>(msg.body.size() - start);
    std::memcpy(msg.body.data() + table + 8 * i, &size, 8);
  }
  return msg;
}

tensor::Tensor StackedCompressor::do_decode(const CompressedMessage& msg) const {
  size_t off = 0;
  const auto nseg = static_cast<int64_t>(wire::read_pod<uint32_t>(msg.body, off));
  ACTCOMP_CHECK(nseg >= 1, "stacked message needs >= 1 segment");
  std::vector<int64_t> sizes(static_cast<size_t>(nseg));
  for (auto& s : sizes) {
    s = static_cast<int64_t>(wire::read_pod<uint64_t>(msg.body, off));
  }
  CompressedMessage inner;
  inner.shape_dims = msg.shape_dims;
  for (int64_t i = 0; i < nseg; ++i) {
    const int64_t len = sizes[static_cast<size_t>(i)];
    ACTCOMP_CHECK(len >= 0 && static_cast<uint64_t>(len) <= msg.body.size() - off,
                  "truncated stacked segment on wire");
    // The container header carries its own split, so decode needs no layout.
    decode_container(msg.body.data() + off, len, inner.body);
    off += static_cast<size_t>(len);
  }
  ACTCOMP_CHECK(off == msg.body.size(),
                "trailing bytes after the stacked message's last segment");
  ACTCOMP_CHECK(
      static_cast<int64_t>(layout_for(tensor::Shape{msg.shape_dims},
                                      static_cast<int64_t>(inner.body.size()))
                               .size()) == nseg,
      "stacked segment count disagrees with the layout");
  return inner_->decode(inner);
}

tensor::Tensor StackedCompressor::round_trip(const tensor::Tensor& x) {
  return inner_->round_trip(x);
}

autograd::Variable StackedCompressor::apply(const autograd::Variable& x) {
  return inner_->apply(x);
}

WireFormat StackedCompressor::wire_size(const tensor::Shape& shape) const {
  const WireFormat inner = inner_->wire_size(shape);
  const std::vector<BodySegment> segs =
      layout_for(shape, inner.total_bytes());
  int64_t payload = 0;
  int64_t metadata = 4 + 8 * static_cast<int64_t>(segs.size());
  for (const BodySegment& s : segs) {
    LosslessCodec c = codec_;
    c.split = s.split;
    payload += c.max_encoded_bytes(s.bytes);
  }
  return WireFormat{.payload_bytes = payload, .metadata_bytes = metadata};
}

std::vector<autograd::Variable> StackedCompressor::parameters() {
  return inner_->parameters();
}

}  // namespace actcomp::compress
