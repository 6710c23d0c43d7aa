#include "obs/registry.h"

#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <variant>

namespace actcomp::obs {

namespace {

/// CAS-update an atomic double (stored as bits) with `f(old, v)`.
template <typename F>
void update_double(std::atomic<int64_t>& bits, double v, F f) {
  int64_t old = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double updated = f(std::bit_cast<double>(old), v);
    if (bits.compare_exchange_weak(old, std::bit_cast<int64_t>(updated),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  update_double(sum_bits_, v, [](double a, double b) { return a + b; });
  update_double(min_bits_, v, [](double a, double b) { return b < a ? b : a; });
  update_double(max_bits_, v, [](double a, double b) { return b > a ? b : a; });
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  if (s.count > 0) {
    s.min = std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
    s.max = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  }
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(std::bit_cast<int64_t>(0.0), std::memory_order_relaxed);
  min_bits_.store(
      std::bit_cast<int64_t>(std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
  max_bits_.store(
      std::bit_cast<int64_t>(-std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
}

json::Value Histogram::to_json() const {
  const Snapshot s = snapshot();
  json::Value v = json::Value::object();
  v.set("count", s.count);
  v.set("sum", s.sum);
  v.set("min", s.min);
  v.set("max", s.max);
  return v;
}

struct Registry::Impl {
  using Metric = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                              std::unique_ptr<Histogram>>;
  mutable std::mutex mu;
  std::map<std::string, Metric, std::less<>> metrics;  // sorted by name
};

Registry::Impl& Registry::impl() const {
  // Leaked so metric references cached in static locals stay valid through
  // process teardown.
  static Impl* impl = new Impl;
  return *impl;
}

Registry& Registry::instance() {
  static Registry* r = new Registry;
  return *r;
}

namespace {

template <typename T>
T& find_or_create(Registry::Impl& impl, std::string_view name) {
  std::lock_guard<std::mutex> lock(impl.mu);
  auto it = impl.metrics.find(name);
  if (it == impl.metrics.end()) {
    it = impl.metrics
             .emplace(std::string(name),
                      Registry::Impl::Metric(std::make_unique<T>()))
             .first;
  }
  auto* slot = std::get_if<std::unique_ptr<T>>(&it->second);
  if (slot == nullptr) {
    throw std::logic_error("obs metric '" + std::string(name) +
                           "' already registered with a different type");
  }
  return **slot;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create<Counter>(impl(), name);
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create<Gauge>(impl(), name);
}

Histogram& Registry::histogram(std::string_view name) {
  return find_or_create<Histogram>(impl(), name);
}

json::Value Registry::snapshot() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  json::Value out = json::Value::object();
  for (const auto& [name, metric] : i.metrics) {
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
      out.set(name, (*c)->value());
    } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
      out.set(name, (*g)->value());
    } else if (const auto* h = std::get_if<std::unique_ptr<Histogram>>(&metric)) {
      out.set(name, (*h)->to_json());
    }
  }
  return out;
}

}  // namespace actcomp::obs
