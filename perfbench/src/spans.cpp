#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

// Per-thread stack of open span ids, so nested scopes find their parent.
thread_local std::vector<int> t_open;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::vector<double> self_time_us(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  std::map<int, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) children[it->second].emplace_back(s.start_us, s.end_us);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto& [b, e] : kids) {
      const double from = std::max(b, cursor);
      const double to = std::min(e, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_time_us(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i] / 1e3;
  return out;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name, int rank, int parent)
    : recorder_(recorder), id_(recorder.open(std::move(name), rank, parent)) {}

SpanRecorder::Scope::~Scope() { recorder_.close(id_); }

double SpanRecorder::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

int SpanRecorder::open(std::string name, int rank, int parent) {
  if (parent == kInherit) parent = t_open.empty() ? -1 : t_open.back();
  const double start = now_us();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), start, start, id, parent, rank});
  }
  t_open.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  const double end = now_us();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_chrome(const std::string& path,
                                const std::string& metadata_json) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_time_us(all);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
      << R"("args":{"name":"perfbench"}})";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << ",\n{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.rank << ",\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"self_us\":" << self[i] << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
