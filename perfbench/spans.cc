#include "spans.h"

#include "obs/json.h"

namespace perfbench {

int64_t SpanLog::NowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanLog::Begin(std::string name, int64_t stmt) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.stmt = stmt;
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNanos();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanLog::WriteJson(const std::string& path) const {
  xbench::obs::JsonWriter json;
  json.BeginArray();
  for (const Span& span : spans_) {
    json.BeginObject()
        .Key("name").String(span.name)
        .Key("start_ns").Int(span.start_ns)
        .Key("end_ns").Int(span.end_ns)
        .Key("parent").Int(span.parent)
        .Key("stmt").Int(span.stmt)
        .EndObject();
  }
  json.EndArray();
  return xbench::obs::WriteFile(path, json.str()).ok();
}

}  // namespace perfbench
