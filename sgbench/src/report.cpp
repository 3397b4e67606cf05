#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace sgbench {

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) throw std::logic_error("duplicate metric " + name);
  }
  if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
  metrics_.push_back(Metric{name, value, unit});
}

double host_speed() {
  // Keys, index and hash buffer are built once and reused.
  struct Fixture {
    std::vector<std::string> keys;
    std::map<std::string, int> index;
    std::vector<std::uint64_t> hashes;
    Fixture() {
      for (int i = 0; i < 512; ++i) {
        keys.push_back("key-" + std::to_string(i * 7919 % 1000));
        index[keys.back()] = i;
      }
      hashes.resize(2048);
    }
  };
  static Fixture fixture;

  std::uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < 10; ++round) {
    for (int pass = 0; pass < 4; ++pass) {
      for (const std::string& key : fixture.keys) {
        sink += static_cast<std::uint64_t>(fixture.index.find(key)->second);
      }
    }
    for (std::size_t i = 0; i < fixture.hashes.size(); ++i) {
      fixture.hashes[i] = fnv1a(fixture.keys[i % fixture.keys.size()], i + static_cast<std::size_t>(round));
    }
    std::sort(fixture.hashes.begin(), fixture.hashes.end());
    sink += fixture.hashes[7];
  }
  for (int round = 0; round < 4; ++round) {
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> buckets;
    for (std::uint64_t i = 0; i < 1024; ++i) buckets[i * 2654435761u].push_back(i);
    for (const auto& [key, values] : buckets) sink += values.size();
    std::vector<std::string> names;
    for (int i = 0; i < 512; ++i) names.emplace_back(40, static_cast<char>('a' + i % 26));
    sink += names.back().size();
  }
  if (sink == 0) throw std::logic_error("reference work optimized away");
  return 1.0 / seconds_between(start, Clock::now()) / kReferenceRunsPerS;
}

Spans::Spans() : origin_(Clock::now()) {}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

Spans::Scope::Scope(Spans& spans, std::string name) : spans_(spans), index_(spans.spans_.size()) {
  const long parent = spans.open_.empty() ? -1 : static_cast<long>(spans.open_.back());
  spans.spans_.push_back(Span{std::move(name), spans.now_us(), 0.0, parent});
  spans.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  spans_.spans_[index_].end_us = spans_.now_us();
  spans_.open_.pop_back();
}

void Spans::write_chrome(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i != 0) out << ",";
    out << "\n{\"name\":\"" << json_escape(span.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << json_number(span.start_us)
        << ",\"dur\":" << json_number(span.end_us - span.start_us) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

Spans& spans() {
  static Spans instance;
  return instance;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace sgbench
