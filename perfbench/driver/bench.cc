#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Rng::Rng(uint64_t seed, std::string_view tag, uint64_t index)
    : state_(Fnv1a(tag, seed * 0x9e3779b97f4a7c15ull + index)) {}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

std::string InjectedFault(const Options& options) {
  static bool injected = false;
  if (!options.inject_wrong_digest || injected) return "";
  injected = true;
  return "<injected>";
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string AnswerText(const std::vector<std::vector<gqe::Term>>& answers) {
  std::vector<std::string> lines;
  lines.reserve(answers.size());
  for (const auto& tuple : answers) {
    std::string line;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) line += ',';
      line += tuple[i].ToString();
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

void Tracer::Span(std::string name, const char* layer, Clock::time_point start,
                  Clock::time_point end, int64_t op, int track) {
  if (!enabled_) return;
  spans_.push_back(Record{std::move(name), layer,
                          MsBetween(origin_, start) * 1000.0,
                          MsBetween(start, end) * 1000.0, op, track});
}

namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

bool Tracer::WriteChrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << "{\"name\": " << JsonString(r.name) << ", \"cat\": "
        << JsonString(r.layer) << ", \"ph\": \"X\", \"ts\": "
        << JsonNumber(r.start_us) << ", \"dur\": " << JsonNumber(r.dur_us)
        << ", \"pid\": 1, \"tid\": " << r.track << ", \"args\": {\"op\": "
        << r.op << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::string Report::ToJson(const Options& options) const {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed << ", \"trace\": "
      << (options.trace ? 1 : 0) << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures[i]);
  }
  out << "], \"end_to_end\": " << MetricsJson(end_to_end)
      << ", \"per_layer\": " << MetricsJson(per_layer) << ", \"sizes\": {";
  bool first = true;
  for (const auto& [name, value] : sizes) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "}, \"counts\": {";
  first = true;
  for (const auto& [name, value] : counts) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "}, \"notes\": {";
  for (size_t i = 0; i < notes.size(); ++i) {
    out << (i ? ", " : "") << JsonString(notes[i].first) << ": "
        << JsonString(notes[i].second);
  }
  out << "}, \"digests\": [";
  for (size_t i = 0; i < digests.size(); ++i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(digests[i]));
    out << (i ? "," : "") << buf;
  }
  out << "]}";
  return out.str();
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<double> MedianBandMeans(
    const std::vector<double>& wall,
    const std::vector<std::vector<double>>& parts) {
  const size_t width = parts.empty() ? 0 : parts.front().size();
  std::vector<double> sums(width, 0.0);
  if (wall.empty()) return sums;
  const double lo = Percentile(wall, 0.4);
  const double hi = Percentile(wall, 0.6);
  size_t count = 0;
  for (size_t i = 0; i < wall.size(); ++i) {
    if (wall[i] < lo || wall[i] > hi) continue;
    for (size_t k = 0; k < width; ++k) sums[k] += parts[i][k];
    ++count;
  }
  for (double& s : sums) s /= static_cast<double>(count);
  return sums;
}

}  // namespace perfbench
