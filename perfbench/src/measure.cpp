#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace pb {

std::uint32_t Tracer::Intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_[name] = id;
  self_.emplace_back();
  total_.emplace_back();
  return id;
}

void Tracer::Begin(std::uint32_t name, std::uint64_t id, std::int64_t now_ns) {
  const std::int64_t now = now_ns >= 0 ? now_ns : NowNs();
  std::uint32_t kept = 0;
  if (spans_.size() < keep_) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? 0 : stack_.back().kept_index;
    span.id = id;
    span.start_ns = now;
    spans_.push_back(span);
    kept = static_cast<std::uint32_t>(spans_.size());
  }
  stack_.push_back(Open{name, id, now, 0, kept});
}

void Tracer::End(std::int64_t now_ns) {
  const std::int64_t now = now_ns >= 0 ? now_ns : NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t total = now - open.start;
  self_[open.name].push_back(static_cast<float>(total - open.child_ns));
  total_[open.name].push_back(static_cast<float>(total));
  if (!stack_.empty()) stack_.back().child_ns += total;
  if (open.kept_index != 0) spans_[open.kept_index - 1].end_ns = now;
}

const std::vector<float>& Tracer::SelfNs(const std::string& name) const {
  static const std::vector<float> kEmpty;
  const auto it = ids_.find(name);
  return it == ids_.end() ? kEmpty : self_[it->second];
}

const std::vector<float>& Tracer::TotalNs(const std::string& name) const {
  static const std::vector<float> kEmpty;
  const auto it = ids_.find(name);
  return it == ids_.end() ? kEmpty : total_[it->second];
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# id\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%llu\t%zu\t%u\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id), i + 1, s.parent,
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures[i]);
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
        << ", \"samples\": " << m.samples;
    if (m.percentile > 0.0) out << ", \"percentile\": " << JsonNumber(m.percentile);
    out << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  // Percentile rule: 1..n, p99 target.
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  Tail t = TailPercentile(ramp(1000), 0.99);
  expect(t.value == 990.0 && t.percentile == 0.99 && t.samples == 1000,
         "p99 of 1000 samples is rank 990 with 10 beyond");
  t = TailPercentile(ramp(500), 0.99);
  expect(t.value == 490.0 && t.percentile == 0.98,
         "500 samples support p98, not p99");
  t = TailPercentile(ramp(100), 0.99);
  expect(t.value == 90.0 && t.percentile == 0.9, "100 samples support p90");
  t = TailPercentile(ramp(5000), 0.5);
  expect(t.value == 2500.0 && t.percentile == 0.5,
         "p50 is untouched when the sample supports it");
  t = TailPercentile(ramp(7), 0.99);
  expect(t.value == 7.0 && t.percentile == 1.0, "tiny sets report the max");
  expect(TailPercentile(std::vector<double>{}, 0.99).samples == 0, "empty set has no samples");
  expect(Median(std::vector<double>{3.0, 1.0, 2.0}) == 2.0 &&
             Median(std::vector<double>{4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median of odd and even sets");

  // Chunked tails: a burst confined to one slice does not move the result.
  std::vector<double> bursty;
  for (std::size_t i = 0; i < 5500; ++i) {
    const double v = static_cast<double>(i % 1100 + 1);
    bursty.push_back(i / 1100 == 1 ? 1000.0 * v : v);
  }
  t = ChunkedTail(bursty, 0.99, 5);
  expect(t.value == 1089.0 && t.samples == 5500 && t.percentile == 0.99,
         "chunked p99 is the median of five slice p99s");
  t = ChunkedTail(std::vector<double>(ramp(500)), 0.99);
  expect(t.value == 490.0 && t.percentile == 0.98, "too few samples to slice");

  // Self time on a synthetic span tree:
  //   root [0,100) > a [10,40) > a1 [15,25)
  //               > b [50,90)
  Tracer tracer(16);
  const auto root = tracer.Intern("root");
  const auto a = tracer.Intern("a");
  const auto a1 = tracer.Intern("a1");
  const auto b = tracer.Intern("b");
  tracer.Begin(root, 7, 0);
  tracer.Begin(a, 7, 10);
  tracer.Begin(a1, 7, 15);
  tracer.End(25);
  tracer.End(40);
  tracer.Begin(b, 7, 50);
  tracer.End(90);
  tracer.End(100);
  expect(tracer.SelfNs("root") == std::vector<float>{30.0f},
         "root self = 100 - 30 - 40");
  expect(tracer.SelfNs("a") == std::vector<float>{20.0f}, "a self = 30 - 10");
  expect(tracer.SelfNs("a1") == std::vector<float>{10.0f}, "leaf self = total");
  expect(tracer.TotalNs("b") == std::vector<float>{40.0f}, "b total");
  const auto& spans = tracer.spans();
  expect(spans.size() == 4 && spans[0].parent == 0 && spans[1].parent == 1 &&
             spans[2].parent == 2 && spans[3].parent == 1 &&
             spans[3].id == 7 && spans[2].end_ns == 25,
         "kept span records carry parent links and the shared id");
  return failures;
}

}  // namespace pb
