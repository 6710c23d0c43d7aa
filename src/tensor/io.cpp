#include "tensor/io.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

#include "tensor/check.h"

namespace actcomp::tensor {

namespace {

constexpr uint32_t kMagic = 0xAC7C0301;  // "actcomp" v3.1 tensor container

template <typename T>
void write_pod(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  ACTCOMP_CHECK(static_cast<bool>(is), "truncated tensor stream");
  return v;
}

}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  write_pod<uint32_t>(os, static_cast<uint32_t>(t.rank()));
  for (int i = 0; i < t.rank(); ++i) write_pod<int64_t>(os, t.dim(i));
  const auto d = t.data();
  os.write(reinterpret_cast<const char*>(d.data()),
           static_cast<std::streamsize>(d.size() * sizeof(float)));
}

Tensor read_tensor(std::istream& is) {
  const uint32_t rank = read_pod<uint32_t>(is);
  ACTCOMP_CHECK(rank <= 8, "implausible tensor rank " << rank << " in stream");
  std::vector<int64_t> dims(rank);
  for (uint32_t i = 0; i < rank; ++i) dims[i] = read_pod<int64_t>(is);
  Shape shape(dims);
  // Grow the values by at most 1 Mi floats per read, so their size tracks
  // the bytes the stream holds, not what a forged shape claims.
  const size_t numel = static_cast<size_t>(shape.numel());
  std::vector<float> values;
  while (values.size() < numel) {
    const size_t have = values.size();
    values.resize(have + std::min<size_t>(numel - have, size_t{1} << 20));
    const size_t bytes = (values.size() - have) * sizeof(float);
    is.read(reinterpret_cast<char*>(values.data() + have),
            static_cast<std::streamsize>(bytes));
    ACTCOMP_CHECK(static_cast<bool>(is), "truncated tensor payload");
  }
  return Tensor(std::move(shape), std::move(values));
}

void write_tensor_map(std::ostream& os, const TensorMap& m) {
  write_pod<uint32_t>(os, kMagic);
  write_pod<uint64_t>(os, m.size());
  for (const auto& [name, t] : m) {
    write_pod<uint64_t>(os, name.size());
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_tensor(os, t);
  }
}

TensorMap read_tensor_map(std::istream& is) {
  ACTCOMP_CHECK(read_pod<uint32_t>(is) == kMagic, "bad tensor-map magic");
  const uint64_t count = read_pod<uint64_t>(is);
  TensorMap m;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t len = read_pod<uint64_t>(is);
    ACTCOMP_CHECK(len <= 4096, "implausible name length " << len);
    std::string name(len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(len));
    ACTCOMP_CHECK(static_cast<bool>(is), "truncated tensor name");
    m.emplace(std::move(name), read_tensor(is));
  }
  return m;
}

}  // namespace actcomp::tensor
