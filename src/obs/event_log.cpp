#include "obs/event_log.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/check.h"
#include "common/json.h"

namespace heterog::obs {

const std::vector<std::string>& all_event_types() {
  // The emit-side schema. Adding a type here without a matching section in
  // docs/observability.md fails tests/obs_test.cpp:DocsCoverEveryEventType.
  static const std::vector<std::string> types = {
      // Strategy search (rl::Trainer).
      "search_start", "search_phase", "search_episode", "search_end",
      "pretrain_round",
      // Fault/checkpoint runner (heterog::DistRunner).
      "run_start", "run_step", "run_retry", "run_recovery", "run_checkpoint",
      "run_end",
      // Deployed-schedule statistics (heterog::get_runner, heterog_cli
      // evaluate).
      "schedule", "device_utilization", "link_utilization",
      // Online health monitoring (health::HealthMonitor, heterog::DistRunner
      // degraded re-planning).
      "suspicion", "quarantine", "breaker_open", "degraded_replan",
      // Correlated fault domains: a rack burst attributed by the monitor and
      // the runner's one-shot domain-wide replan.
      "domain_suspicion", "domain_replan",
      // Persistent plan/eval store (store::PlanStore).
      "store_open", "store_quarantine",
      // Plan server (server::PlanServer): lifecycle, per-request outcomes,
      // typed rejections, deadline degradation and graceful drain.
      "server_start", "server_request", "server_reject", "server_degraded",
      "server_drain",
  };
  return types;
}

Event::Event(const std::string& type) : type_(type) {
  const auto& types = all_event_types();
  check_lazy(std::find(types.begin(), types.end(), type) != types.end(),
             [&] { return "Event: undocumented event type '" + type + "'"; });
}

Event& Event::with(const std::string& key, int64_t value) {
  Field f;
  f.key = key;
  f.kind = Kind::kInt;
  f.int_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, int value) {
  return with(key, static_cast<int64_t>(value));
}

Event& Event::with(const std::string& key, uint64_t value) {
  return with(key, static_cast<int64_t>(value));
}

Event& Event::with(const std::string& key, double value) {
  Field f;
  f.key = key;
  f.kind = Kind::kDouble;
  f.double_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, bool value) {
  Field f;
  f.key = key;
  f.kind = Kind::kBool;
  f.bool_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, const std::string& value) {
  Field f;
  f.key = key;
  f.kind = Kind::kString;
  f.string_value = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(const std::string& key, const char* value) {
  return with(key, std::string(value));
}

std::string Event::to_json(uint64_t seq) const {
  std::string out = "{\"v\":" + std::to_string(EventLog::kSchemaVersion) +
                    ",\"seq\":" + std::to_string(seq) + ",\"type\":" + json::quoted(type_);
  for (const Field& f : fields_) {
    out += ',';
    out += json::quoted(f.key);
    out += ':';
    switch (f.kind) {
      case Kind::kInt: out += std::to_string(f.int_value); break;
      case Kind::kDouble: out += json::number_shortest(f.double_value); break;
      case Kind::kBool: out += f.bool_value ? "true" : "false"; break;
      case Kind::kString: out += json::quoted(f.string_value); break;
    }
  }
  out += '}';
  return out;
}

EventLog::EventLog(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
}

EventLog::~EventLog() {
  if (file_ != nullptr) std::fclose(file_);
}

void EventLog::emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  const std::string line = event.to_json(seq_++);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void EventLog::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

uint64_t EventLog::events_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

double ParsedEvent::number(const std::string& key, double fallback) const {
  const auto it = fields.find(key);
  // A non-finite double is written as null: it reads back as absent.
  if (it == fields.end() || it->second == "null") return fallback;
  // Booleans count as numbers for aggregation (true=1, false=0).
  if (it->second == "true") return 1.0;
  if (it->second == "false") return 0.0;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  return end == text ? fallback : value;
}

std::string ParsedEvent::str(const std::string& key) const {
  const auto it = fields.find(key);
  return it != fields.end() ? it->second : std::string();
}

namespace {

[[noreturn]] void parse_fail(int line_no, const std::string& why) {
  throw EventLogError("event log line " + std::to_string(line_no) + ": " + why);
}

/// `v` and `seq` are whole JSON integers: no sign games, fractions or
/// exponents, and in range of the envelope field's type.
template <typename Int>
Int envelope_int(const json::Value& value, const char* key, int line_no) {
  Int out = 0;
  if (value.type == json::Value::Type::kNumber) {
    const char* end = value.text.data() + value.text.size();
    const auto [ptr, ec] = std::from_chars(value.text.data(), end, out);
    if (ec == std::errc() && ptr == end) return out;
  }
  parse_fail(line_no, std::string("\"") + key + "\" must be an integer in range");
}

/// A scalar's text as ParsedEvent keeps it: strings decoded, numbers as
/// their source lexeme.
std::string scalar_text(const json::Value& value) {
  switch (value.type) {
    case json::Value::Type::kNull: return "null";
    case json::Value::Type::kBool: return value.boolean ? "true" : "false";
    default: return value.text;
  }
}

ParsedEvent parse_line(const std::string& line, int line_no) {
  const json::Value root = json::parse_or_throw<EventLogError>(
      line, "event log line " + std::to_string(line_no) + ": ");
  if (root.type != json::Value::Type::kObject) parse_fail(line_no, "expected an object");
  ParsedEvent event;
  for (const auto& [key, value] : root.object) {
    if (value.type == json::Value::Type::kArray || value.type == json::Value::Type::kObject) {
      parse_fail(line_no, "nested values are not part of the v1 schema");
    }
    if (key == "v") {
      event.version = envelope_int<int>(value, "v", line_no);
    } else if (key == "seq") {
      event.seq = envelope_int<uint64_t>(value, "seq", line_no);
    } else if (key == "type") {
      if (value.type != json::Value::Type::kString) {
        parse_fail(line_no, "\"type\" must be a string");
      }
      event.type = value.text;
    } else {
      event.fields[key] = scalar_text(value);
    }
  }
  if (event.version <= 0 || event.version > EventLog::kSchemaVersion) {
    parse_fail(line_no, "unsupported schema version " + std::to_string(event.version));
  }
  if (event.type.empty()) parse_fail(line_no, "missing \"type\"");
  return event;
}

}  // namespace

std::vector<ParsedEvent> read_events(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw EventLogError("cannot read " + path);
  std::vector<ParsedEvent> events;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) events.push_back(parse_line(line, line_no));
  }
  return events;
}

}  // namespace heterog::obs
