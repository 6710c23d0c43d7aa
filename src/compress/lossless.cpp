#include "compress/lossless.h"

#include <algorithm>
#include <cstring>
#include <optional>
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
/// shorter.
constexpr int kTableBits = 11;
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

void rle_flush_literals(std::vector<std::byte>& out, const std::byte* p,
                        int64_t begin, int64_t end) {
  while (begin < end) {
    const int64_t len = std::min<int64_t>(128, end - begin);
    out.push_back(static_cast<std::byte>(len - 1));
    out.insert(out.end(), p + begin, p + begin + len);
    begin += len;
  }
}

std::vector<std::byte> rle_encode(const std::byte* p, int64_t n) {
  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(n / 2 + 16));
  int64_t i = 0;
  auto run_at = [&](int64_t j) {
    int64_t run = 1;
    while (j + run < n && run < 128 && p[j + run] == p[j]) ++run;
    return run;
  };
  while (i < n) {
    int64_t run = run_at(i);
    if (run >= 3) {
      out.push_back(static_cast<std::byte>(257 - run));
      out.push_back(p[i]);
      i += run;
      continue;
    }
    const int64_t lit = i;
    while (i < n) {
      run = run_at(i);
      if (run >= 3) break;
      i += run;
    }
    rle_flush_literals(out, p, lit, i);
  }
  return out;
}

/// Decodes exactly `expected` bytes; anything else is malformed.
std::vector<std::byte> rle_decode(const std::byte* p, int64_t n,
                                  int64_t expected) {
  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(expected));
  int64_t i = 0;
  while (i < n) {
    const auto c = static_cast<uint8_t>(p[i++]);
    if (c <= 127) {
      const int64_t len = c + 1;
      ACTCOMP_CHECK(i + len <= n, "truncated RLE literal run on wire");
      ACTCOMP_CHECK(static_cast<int64_t>(out.size()) + len <= expected,
                    "RLE stream overruns its declared plane size");
      out.insert(out.end(), p + i, p + i + len);
      i += len;
    } else {
      ACTCOMP_CHECK(c != 128, "reserved RLE control byte 128 on wire");
      ACTCOMP_CHECK(i < n, "truncated RLE repeat run on wire");
      const int64_t len = 257 - c;
      ACTCOMP_CHECK(static_cast<int64_t>(out.size()) + len <= expected,
                    "RLE stream overruns its declared plane size");
      out.insert(out.end(), static_cast<size_t>(len), p[i++]);
    }
  }
  ACTCOMP_CHECK(static_cast<int64_t>(out.size()) == expected,
                "RLE stream decodes to " << out.size() << " bytes, expected "
                                         << expected);
  return out;
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

std::optional<std::vector<std::byte>> huffman_encode(const std::byte* p,
                                                     int64_t n) {
  int64_t counts[256] = {};
  for (int64_t i = 0; i < n; ++i) ++counts[static_cast<uint8_t>(p[i])];
  uint8_t lens[256];
  if (!huffman_lengths(counts, lens)) return std::nullopt;
  uint32_t codes[256] = {};
  if (!canonical_codes(lens, codes)) return std::nullopt;

  // Bit-reverse each code once so emission is a single shift-or per symbol.
  uint32_t rev[256];
  uint64_t total_bits = 0;
  for (int s = 0; s < 256; ++s) {
    rev[s] = reverse_code(codes[s], lens[s]);
    total_bits += static_cast<uint64_t>(counts[s]) * lens[s];
  }
  std::vector<std::byte> out(static_cast<size_t>(256 + (total_bits + 7) / 8));
  for (int s = 0; s < 256; ++s) {
    out[static_cast<size_t>(s)] = static_cast<std::byte>(lens[s]);
  }
  // A 64-bit accumulator flushed a little-endian 32-bit word at a time: it
  // holds < 32 bits before each code and codes are <= 32 bits, so it never
  // overflows, and each stored word is four whole stream bytes.
  std::byte* dst = out.data() + 256;
  uint64_t acc = 0;
  int nbits = 0;
  for (int64_t i = 0; i < n; ++i) {
    const auto s = static_cast<uint8_t>(p[i]);
    acc |= static_cast<uint64_t>(rev[s]) << nbits;
    nbits += lens[s];
    if (nbits >= 32) {
      const auto word = static_cast<uint32_t>(acc);
      std::memcpy(dst, &word, 4);
      dst += 4;
      acc >>= 32;
      nbits -= 32;
    }
  }
  for (; nbits > 0; nbits -= 8, acc >>= 8) *dst++ = static_cast<std::byte>(acc & 0xFFu);
  return out;
}

/// Decodes exactly `expected` symbols and requires the stream to be exactly
/// consumed (headers + ceil(bits/8) bytes).
std::vector<std::byte> huffman_decode(const std::byte* p, int64_t n,
                                      int64_t expected) {
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
  // An entry packs length << 8 | symbol; 0 marks a pattern that starts no
  // such code (a longer code, or none at all).
  uint16_t table[1 << kTableBits] = {};
  for (int l = 1; l <= kTableBits; ++l) {
    for (uint32_t c = 0; c < count[l]; ++c) {
      const uint32_t rev = reverse_code(first[l] + c, l);
      const auto entry = static_cast<uint16_t>(l << 8 | syms[offset[l] + c]);
      for (uint32_t pad = 0; pad < (1u << (kTableBits - l)); ++pad) {
        table[rev | pad << l] = entry;
      }
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
  std::vector<std::byte> out(static_cast<size_t>(expected));
  int64_t i = 0;
  while (i < expected) {
    // While 8 whole bytes remain, one load holds >= 57 unread bits: room for
    // five table hits of <= 11 bits each.
    int used = 0;
    if ((bitpos >> 3) + 8 <= nbytes) {
      uint64_t word = 0;
      std::memcpy(&word, bits + (bitpos >> 3), 8);
      word >>= bitpos & 7;
      for (int hit = 0; hit < 5 && i < expected; ++hit) {
        const uint16_t entry = table[(word >> used) & ((1u << kTableBits) - 1)];
        if (entry == 0) break;
        out[static_cast<size_t>(i++)] = static_cast<std::byte>(entry & 0xFF);
        used += entry >> 8;
      }
      bitpos += used;
    }
    if (used == 0) out[static_cast<size_t>(i++)] = decode_bitwise();
  }
  ACTCOMP_CHECK((bitpos + 7) / 8 == nbytes,
                "Huffman bitstream has trailing bytes on wire");
  return out;
}

// ---------------------------------------------------------------------------
// Plane split / merge.
// ---------------------------------------------------------------------------

int64_t plane_raw_len(int64_t chunk_len, int stride, int plane) {
  return chunk_len / stride + (plane < chunk_len % stride ? 1 : 0);
}

std::vector<std::byte> gather_plane(const std::byte* p, int64_t n, int stride,
                                    int plane) {
  std::vector<std::byte> out(static_cast<size_t>(plane_raw_len(n, stride, plane)));
  size_t j = 0;
  for (int64_t i = plane; i < n; i += stride) out[j++] = p[i];
  return out;
}

/// Encodes one plane under the container's requested algo, falling back to
/// raw whenever coding would not shrink it. Returns (plane algo used, bytes).
std::pair<LosslessAlgo, std::vector<std::byte>> encode_plane(
    const std::byte* p, int64_t n, LosslessAlgo algo) {
  std::optional<std::vector<std::byte>> coded;
  switch (algo) {
    case LosslessAlgo::kRaw:
      break;
    case LosslessAlgo::kRle:
      coded = rle_encode(p, n);
      break;
    case LosslessAlgo::kHuffman:
      coded = huffman_encode(p, n);
      break;
    case LosslessAlgo::kRleHuffman: {
      const std::vector<std::byte> rle = rle_encode(p, n);
      if (auto h = huffman_encode(rle.data(), static_cast<int64_t>(rle.size()))) {
        std::vector<std::byte> stream;
        stream.reserve(8 + h->size());
        wire::append_pod<uint64_t>(stream, static_cast<uint64_t>(rle.size()));
        stream.insert(stream.end(), h->begin(), h->end());
        coded = std::move(stream);
      }
      break;
    }
  }
  if (coded && static_cast<int64_t>(coded->size()) < n) {
    return {algo, std::move(*coded)};
  }
  return {LosslessAlgo::kRaw, std::vector<std::byte>(p, p + n)};
}

std::vector<std::byte> decode_plane(LosslessAlgo algo, const std::byte* p,
                                    int64_t n, int64_t expected) {
  switch (algo) {
    case LosslessAlgo::kRaw:
      ACTCOMP_CHECK(n == expected, "raw plane size mismatch on wire");
      return std::vector<std::byte>(p, p + n);
    case LosslessAlgo::kRle:
      return rle_decode(p, n, expected);
    case LosslessAlgo::kHuffman:
      return huffman_decode(p, n, expected);
    case LosslessAlgo::kRleHuffman: {
      ByteReader r{p, n};
      const auto rle_len = static_cast<int64_t>(r.get<uint64_t>());
      ACTCOMP_CHECK(rle_len >= 0 && rle_len <= kMaxExpansion * (n - r.off) + 8,
                    "implausible RLE stream size on wire");
      const std::vector<std::byte> rle =
          huffman_decode(p + r.off, n - r.off, rle_len);
      return rle_decode(rle.data(), static_cast<int64_t>(rle.size()), expected);
    }
  }
  ACTCOMP_CHECK(false, "unknown plane algo id on wire");
}

void encode_chunk(const std::byte* p, int64_t n, LosslessAlgo algo, int stride,
                  std::vector<std::byte>& out) {
  for (int plane = 0; plane < stride; ++plane) {
    std::vector<std::byte> plane_bytes = gather_plane(p, n, stride, plane);
    auto [used, coded] = encode_plane(
        plane_bytes.data(), static_cast<int64_t>(plane_bytes.size()), algo);
    wire::append_pod<uint8_t>(out, static_cast<uint8_t>(used));
    wire::append_pod<uint64_t>(out, static_cast<uint64_t>(coded.size()));
    out.insert(out.end(), coded.begin(), coded.end());
  }
}

void decode_chunk(const std::byte* p, int64_t n, int64_t expected_raw,
                  LosslessAlgo container_algo, int stride,
                  std::vector<std::byte>& out) {
  ByteReader r{p, n};
  const size_t base = out.size();
  out.resize(base + static_cast<size_t>(expected_raw));
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
    const std::vector<std::byte> raw = decode_plane(
        static_cast<LosslessAlgo>(algo_id), coded, coded_len, expected);
    size_t j = 0;
    for (int64_t i = plane; i < expected_raw; i += stride) {
      out[base + static_cast<size_t>(i)] = raw[j++];
    }
  }
  ACTCOMP_CHECK(r.off == n, "trailing bytes after the chunk's last plane");
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
  ACTCOMP_CHECK(n >= 0, "negative payload size");
  ACTCOMP_CHECK(n == 0 || data != nullptr, "null payload");
  const int chunks = num_chunks(n);
  const int64_t chunk_raw = chunks == 1 ? n : chunk_bytes;
  const int stride = plane_count(split);

  std::vector<std::vector<std::byte>> chunk_streams(
      static_cast<size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    const int64_t begin = static_cast<int64_t>(c) * chunk_raw;
    const int64_t len = std::min(chunk_raw, n - begin);
    encode_chunk(data + begin, len, algo, stride,
                 chunk_streams[static_cast<size_t>(c)]);
  }

  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(kHeaderBytes + 8 * chunks));
  wire::append_pod<uint8_t>(out, kMagic);
  wire::append_pod<uint8_t>(out, kVersion);
  wire::append_pod<uint8_t>(out, static_cast<uint8_t>(algo));
  wire::append_pod<uint8_t>(out, static_cast<uint8_t>(split));
  wire::append_pod<uint64_t>(out, static_cast<uint64_t>(n));
  wire::append_pod<uint32_t>(out, static_cast<uint32_t>(chunks));
  wire::append_pod<uint64_t>(out, static_cast<uint64_t>(chunk_raw));
  for (const auto& cs : chunk_streams) {
    wire::append_pod<uint64_t>(out, static_cast<uint64_t>(cs.size()));
  }
  for (const auto& cs : chunk_streams) out.insert(out.end(), cs.begin(), cs.end());
  return out;
}

std::vector<std::byte> LosslessCodec::encode(
    const std::vector<std::byte>& data) const {
  return encode(data.data(), static_cast<int64_t>(data.size()));
}

std::vector<std::byte> LosslessCodec::decode(
    const std::vector<std::byte>& buf) const {
  ByteReader r{buf.data(), static_cast<int64_t>(buf.size())};
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
  ACTCOMP_CHECK(raw >= 0 &&
                    raw <= kMaxExpansion * static_cast<int64_t>(buf.size()),
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
    ACTCOMP_CHECK(s >= 0 && s <= static_cast<int64_t>(buf.size()),
                  "chunk size out of range on wire");
    total += s;
  }
  ACTCOMP_CHECK(r.off + total == static_cast<int64_t>(buf.size()),
                "container size does not match its chunk table (truncated or "
                "trailing bytes)");

  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(raw));
  const auto algo = static_cast<LosslessAlgo>(algo_id);
  const int stride = plane_count(static_cast<PlaneSplit>(split_id));
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t expected =
        c + 1 == chunks ? raw - chunk_raw * (chunks - 1) : chunk_raw;
    const std::byte* p = r.take(sizes[static_cast<size_t>(c)]);
    decode_chunk(p, sizes[static_cast<size_t>(c)], expected, algo, stride, out);
  }
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
  std::vector<std::vector<std::byte>> containers;
  containers.reserve(segs.size());
  for (const BodySegment& s : segs) {
    LosslessCodec c = codec_;
    c.split = s.split;
    containers.push_back(c.encode(inner.body.data() + s.offset, s.bytes));
    wire::append_pod<uint64_t>(msg.body,
                               static_cast<uint64_t>(containers.back().size()));
  }
  for (const auto& c : containers) {
    msg.body.insert(msg.body.end(), c.begin(), c.end());
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
    ACTCOMP_CHECK(off + static_cast<size_t>(len) <= msg.body.size(),
                  "truncated stacked segment on wire");
    // The container header carries its own split, so decode needs no layout.
    const std::vector<std::byte> container(
        msg.body.begin() + static_cast<int64_t>(off),
        msg.body.begin() + static_cast<int64_t>(off) + len);
    const std::vector<std::byte> raw = codec_.decode(container);
    inner.body.insert(inner.body.end(), raw.begin(), raw.end());
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
