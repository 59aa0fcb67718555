#include "stage/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "stage/common/macros.h"

namespace stage::obs {

namespace {

// Relaxed fetch-add for atomic<double> via CAS (libstdc++'s native
// floating fetch_add is C++20 but this spelling is portable and TSan-visible).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double seen = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(seen, seen + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double seen = target->load(std::memory_order_relaxed);
  while (value > seen && !target->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

// "name{a=\"b\"}" -> {"name", "a=\"b\""}; "name" -> {"name", ""}.
void SplitName(const std::string& name, std::string* family,
               std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *family = name;
    labels->clear();
    return;
  }
  *family = name.substr(0, brace);
  const size_t close = name.rfind('}');
  STAGE_CHECK_MSG(close != std::string::npos && close > brace,
                  "metric name has an unterminated label block");
  *labels = name.substr(brace + 1, close - brace - 1);
}

std::string FormatNumber(double value) {
  char buffer[64];
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  }
  return buffer;
}

std::string SampleName(const std::string& family, const std::string& labels) {
  if (labels.empty()) return family;
  return family + "{" + labels + "}";
}

std::string BucketSampleName(const std::string& family,
                             const std::string& labels,
                             const std::string& le) {
  std::string merged = labels.empty() ? "" : labels + ",";
  merged += "le=\"" + le + "\"";
  return family + "_bucket{" + merged + "}";
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram.

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  STAGE_CHECK_MSG(!bounds_.empty(), "Histogram needs at least one bound");
  for (size_t i = 1; i < bounds_.size(); ++i) {
    STAGE_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                    "Histogram bounds must be strictly increasing");
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(double value) {
  // Prometheus `le` semantics: a value equal to a bound belongs to that
  // bound's bucket (first bound >= value), hence lower_bound.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMax(&max_, value);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.buckets.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snapshot.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snapshot.count += snapshot.buckets[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  return snapshot;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i == bounds.size()) return max;  // Overflow bucket.
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, within));
    }
    cumulative += in_bucket;
  }
  return max;
}

std::vector<double> Histogram::LatencyBucketsNanos() {
  return {250,    500,    1e3,   2.5e3, 5e3,   1e4,   2.5e4, 5e4,  1e5,
          2.5e5,  5e5,    1e6,   2.5e6, 5e6,   1e7,   2.5e7, 5e7,  1e8,
          2.5e8,  5e8,    1e9};
}

std::vector<double> Histogram::UncertaintyBuckets() {
  return {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0,
          1.25, 1.5, 2.0,  2.5, 3.0, 4.0};
}

// ---------------------------------------------------------------------------
// LatencyHistograms.

LatencyHistograms::LatencyHistograms(size_t num_slots) {
  STAGE_CHECK(num_slots > 0);
  slots_.reserve(num_slots);
  for (size_t i = 0; i < num_slots; ++i) {
    slots_.push_back(
        std::make_unique<Histogram>(Histogram::LatencyBucketsNanos()));
  }
}

void LatencyHistograms::Record(size_t slot, uint64_t nanos) {
  STAGE_DCHECK(slot < slots_.size());
  slots_[slot]->Record(static_cast<double>(nanos));
}

Histogram::Snapshot LatencyHistograms::histogram_snapshot(size_t slot) const {
  STAGE_DCHECK(slot < slots_.size());
  return slots_[slot]->TakeSnapshot();
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    STAGE_CHECK_MSG(it->second.type == Type::kCounter && it->second.counter,
                    name.c_str());
    return *it->second.counter;
  }
  Entry entry;
  entry.type = Type::kCounter;
  entry.counter = std::make_unique<Counter>();
  Counter& out = *entry.counter;
  entries_.emplace(name, std::move(entry));
  return out;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    STAGE_CHECK_MSG(it->second.type == Type::kGauge && it->second.gauge,
                    name.c_str());
    return *it->second.gauge;
  }
  Entry entry;
  entry.type = Type::kGauge;
  entry.gauge = std::make_unique<Gauge>();
  Gauge& out = *entry.gauge;
  entries_.emplace(name, std::move(entry));
  return out;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    STAGE_CHECK_MSG(
        it->second.type == Type::kHistogram && it->second.histogram,
        name.c_str());
    return *it->second.histogram;
  }
  Entry entry;
  entry.type = Type::kHistogram;
  entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram& out = *entry.histogram;
  entries_.emplace(name, std::move(entry));
  return out;
}

void MetricsRegistry::RegisterCounterCallback(const void* owner,
                                              const std::string& name,
                                              std::function<uint64_t()> fn) {
  STAGE_CHECK(owner != nullptr && fn != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.type = Type::kCounter;
  entry.owner = owner;
  entry.counter_fn = std::move(fn);
  const bool inserted = entries_.emplace(name, std::move(entry)).second;
  STAGE_CHECK_MSG(inserted, name.c_str());
}

void MetricsRegistry::RegisterGaugeCallback(const void* owner,
                                            const std::string& name,
                                            std::function<double()> fn) {
  STAGE_CHECK(owner != nullptr && fn != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.type = Type::kGauge;
  entry.owner = owner;
  entry.gauge_fn = std::move(fn);
  const bool inserted = entries_.emplace(name, std::move(entry)).second;
  STAGE_CHECK_MSG(inserted, name.c_str());
}

void MetricsRegistry::RegisterHistogramCallback(
    const void* owner, const std::string& name,
    std::function<Histogram::Snapshot()> fn) {
  STAGE_CHECK(owner != nullptr && fn != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.type = Type::kHistogram;
  entry.owner = owner;
  entry.histogram_fn = std::move(fn);
  const bool inserted = entries_.emplace(name, std::move(entry)).second;
  STAGE_CHECK_MSG(inserted, name.c_str());
}

void MetricsRegistry::UnregisterAll(const void* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.owner == owner) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::string MetricsRegistry::RenderText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  std::map<std::string, bool> family_emitted;
  for (const auto& [name, entry] : entries_) {
    std::string family;
    std::string labels;
    SplitName(name, &family, &labels);
    if (!family_emitted[family]) {
      const char* type = entry.type == Type::kCounter    ? "counter"
                         : entry.type == Type::kGauge    ? "gauge"
                                                         : "histogram";
      out << "# TYPE " << family << " " << type << "\n";
      family_emitted[family] = true;
    }
    switch (entry.type) {
      case Type::kCounter: {
        const uint64_t value =
            entry.counter ? entry.counter->value() : entry.counter_fn();
        out << SampleName(family, labels) << " " << value << "\n";
        break;
      }
      case Type::kGauge: {
        const double value =
            entry.gauge ? entry.gauge->value() : entry.gauge_fn();
        out << SampleName(family, labels) << " " << FormatNumber(value)
            << "\n";
        break;
      }
      case Type::kHistogram: {
        const Histogram::Snapshot snapshot = entry.histogram
                                                 ? entry.histogram->TakeSnapshot()
                                                 : entry.histogram_fn();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < snapshot.buckets.size(); ++i) {
          cumulative += snapshot.buckets[i];
          const std::string le = i < snapshot.bounds.size()
                                     ? FormatNumber(snapshot.bounds[i])
                                     : "+Inf";
          out << BucketSampleName(family, labels, le) << " " << cumulative
              << "\n";
        }
        out << SampleName(family + "_sum", labels) << " "
            << FormatNumber(snapshot.sum) << "\n";
        out << SampleName(family + "_count", labels) << " " << snapshot.count
            << "\n";
        break;
      }
    }
  }
  return out.str();
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":";
    switch (entry.type) {
      case Type::kCounter:
        out << (entry.counter ? entry.counter->value() : entry.counter_fn());
        break;
      case Type::kGauge:
        out << FormatNumber(entry.gauge ? entry.gauge->value()
                                        : entry.gauge_fn());
        break;
      case Type::kHistogram: {
        const Histogram::Snapshot snapshot = entry.histogram
                                                 ? entry.histogram->TakeSnapshot()
                                                 : entry.histogram_fn();
        out << "{\"count\":" << snapshot.count
            << ",\"sum\":" << FormatNumber(snapshot.sum)
            << ",\"max\":" << FormatNumber(snapshot.max) << ",\"buckets\":[";
        for (size_t i = 0; i < snapshot.buckets.size(); ++i) {
          if (i > 0) out << ",";
          out << "{\"le\":";
          if (i < snapshot.bounds.size()) {
            out << FormatNumber(snapshot.bounds[i]);
          } else {
            out << "\"+Inf\"";
          }
          out << ",\"count\":" << snapshot.buckets[i] << "}";
        }
        out << "]}";
        break;
      }
    }
  }
  out << "}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// ValidateTextExposition.

namespace {

struct HistogramSeries {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative).
  bool has_inf = false;
  double inf_value = 0.0;
  bool has_count = false;
  double count_value = 0.0;
  bool has_sum = false;
};

bool ParseSampleLine(const std::string& line, std::string* name,
                     double* value) {
  const size_t space = line.rfind(' ');
  if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
    return false;
  }
  *name = line.substr(0, space);
  const std::string value_text = line.substr(space + 1);
  char* end = nullptr;
  *value = std::strtod(value_text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

// Splits "family{a=\"b\",le=\"1\"}" into base family, the labels WITHOUT
// the le pair (the series key), and the le value (+Inf -> infinity).
bool ExtractLe(const std::string& labels, std::string* rest, double* le) {
  const size_t at = labels.find("le=\"");
  if (at == std::string::npos) return false;
  const size_t value_start = at + 4;
  const size_t value_end = labels.find('"', value_start);
  if (value_end == std::string::npos) return false;
  const std::string le_text = labels.substr(value_start, value_end - value_start);
  if (le_text == "+Inf") {
    *le = std::numeric_limits<double>::infinity();
  } else {
    char* end = nullptr;
    *le = std::strtod(le_text.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
  }
  // Series key: labels minus the le pair (and a neighbouring comma).
  size_t cut_begin = at;
  size_t cut_end = value_end + 1;
  if (cut_begin > 0 && labels[cut_begin - 1] == ',') {
    --cut_begin;
  } else if (cut_end < labels.size() && labels[cut_end] == ',') {
    ++cut_end;
  }
  *rest = labels.substr(0, cut_begin) + labels.substr(cut_end);
  return true;
}

}  // namespace

bool ValidateTextExposition(std::string_view text, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  std::map<std::string, std::string> family_type;
  std::map<std::string, HistogramSeries> series;  // key: family + "\0" + labels.
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, family, type;
      comment >> hash >> keyword >> family >> type;
      if (keyword == "TYPE") {
        if (type != "counter" && type != "gauge" && type != "histogram") {
          return fail("unknown TYPE '" + type + "' for " + family);
        }
        if (family_type.count(family) != 0) {
          return fail("duplicate TYPE line for " + family);
        }
        family_type[family] = type;
      }
      continue;
    }

    std::string name;
    double value = 0.0;
    if (!ParseSampleLine(line, &name, &value)) {
      return fail("unparseable sample line: " + line);
    }
    if (!std::isfinite(value)) return fail("non-finite value: " + line);

    std::string family, labels;
    SplitName(name, &family, &labels);

    // Histogram component samples reference family minus the suffix.
    std::string base = family;
    std::string suffix;
    for (const char* candidate : {"_bucket", "_sum", "_count"}) {
      const std::string c(candidate);
      if (family.size() > c.size() &&
          family.compare(family.size() - c.size(), c.size(), c) == 0) {
        const std::string stripped = family.substr(0, family.size() - c.size());
        auto it = family_type.find(stripped);
        if (it != family_type.end() && it->second == "histogram") {
          base = stripped;
          suffix = c;
          break;
        }
      }
    }

    auto type_it = family_type.find(base);
    if (type_it == family_type.end()) {
      return fail("sample without a TYPE line: " + name);
    }
    const std::string& type = type_it->second;

    if (type == "counter") {
      if (value < 0.0) return fail("negative counter: " + line);
      continue;
    }
    if (type == "gauge") continue;

    // Histogram bookkeeping.
    if (suffix == "_bucket") {
      std::string rest;
      double le = 0.0;
      if (!ExtractLe(labels, &rest, &le)) {
        return fail("histogram bucket without le label: " + line);
      }
      if (value < 0.0) return fail("negative bucket count: " + line);
      HistogramSeries& s = series[base + '\0' + rest];
      if (!s.buckets.empty()) {
        if (le <= s.buckets.back().first) {
          return fail("histogram le bounds not increasing: " + line);
        }
        if (value < s.buckets.back().second) {
          return fail("histogram bucket counts not cumulative: " + line);
        }
      }
      s.buckets.emplace_back(le, value);
      if (std::isinf(le)) {
        s.has_inf = true;
        s.inf_value = value;
      }
    } else if (suffix == "_count") {
      if (value < 0.0) return fail("negative histogram count: " + line);
      HistogramSeries& s = series[base + '\0' + labels];
      s.has_count = true;
      s.count_value = value;
    } else if (suffix == "_sum") {
      series[base + '\0' + labels].has_sum = true;
    } else {
      return fail("bare sample for histogram family: " + line);
    }
  }

  for (const auto& [key, s] : series) {
    const std::string name = key.substr(0, key.find('\0'));
    if (!s.has_inf) return fail("histogram missing +Inf bucket: " + name);
    if (!s.has_count) return fail("histogram missing _count: " + name);
    if (!s.has_sum) return fail("histogram missing _sum: " + name);
    if (s.inf_value != s.count_value) {
      return fail("histogram +Inf bucket != _count: " + name);
    }
  }
  return true;
}

}  // namespace stage::obs
