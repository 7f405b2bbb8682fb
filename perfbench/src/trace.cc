#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t op,
                      int tid) {
  if (!enabled_) return 0;
  const double now = NowS();
  return Add(name, now, now, parent, op, tid);
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mutex_);
  if (Span* s = Find(id)) s->end_s = now;
}

int64_t Tracer::Add(const std::string& name, double start_s, double end_s,
                    int64_t parent, int64_t op, int tid) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  s.id = next_id_++;
  s.parent = parent;
  s.op = op;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::Arg(int64_t id, const std::string& key, double value) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (Span* s = Find(id)) s->args.emplace_back(key, value);
}

Span* Tracer::Find(int64_t id) {
  // Spans are appended in id order, and the span being closed is almost
  // always near the end.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return nullptr;
}

void Tracer::Encode(ByteWriter* w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  w->U64(spans_.size());
  for (const Span& s : spans_) {
    w->Str(s.name);
    w->F64(s.start_s);
    w->F64(s.end_s);
    w->I64(s.id);
    w->I64(s.parent);
    w->I64(s.op);
    w->I64(s.tid);
    w->U64(s.args.size());
    for (const auto& [k, v] : s.args) {
      w->Str(k);
      w->F64(v);
    }
  }
}

bool Tracer::Adopt(ByteReader* r) {
  const uint64_t n = r->U64();
  std::vector<Span> in;
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    Span s;
    s.name = r->Str();
    s.start_s = r->F64();
    s.end_s = r->F64();
    s.id = r->I64();
    s.parent = r->I64();
    s.op = r->I64();
    s.tid = static_cast<int>(r->I64());
    const uint64_t args = r->U64();
    for (uint64_t a = 0; a < args && r->ok(); ++a) {
      std::string k = r->Str();
      s.args.emplace_back(std::move(k), r->F64());
    }
    in.push_back(std::move(s));
  }
  if (!r->ok() || !enabled_) return r->ok();
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<int64_t, int64_t> remap;
  for (Span& s : in) {
    const int64_t fresh = next_id_++;
    remap[s.id] = fresh;
    s.id = fresh;
  }
  for (Span& s : in) {
    // A parent outside the adopted set is a span of this tracer.
    auto it = remap.find(s.parent);
    if (it != remap.end()) s.parent = it->second;
    spans_.push_back(std::move(s));
  }
  return true;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, LayerTime> Tracer::SelfTimeByLayer() const {
  const std::vector<Span> all = spans();
  std::unordered_map<int64_t, double> child_time;
  for (const Span& s : all) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : all) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    LayerTime& t = out[layer];
    const double self = (s.end_s - s.start_s) - child_time[s.id];
    t.self_s += self > 0 ? self : 0.0;
    ++t.spans;
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double t0 = all.empty() ? 0.0 : all.front().start_s;
  for (const Span& s : all) t0 = std::min(t0, s.start_s);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"span_id\": %lld, \"parent_id\": %lld, "
                 "\"op\": %lld",
                 s.name.c_str(), layer.c_str(), (s.start_s - t0) * 1e6,
                 (s.end_s - s.start_s) * 1e6, s.tid,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op));
    for (const auto& [k, v] : s.args) {
      std::fprintf(f, ", \"%s\": %.9g", k.c_str(), v);
    }
    std::fprintf(f, "}}%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
