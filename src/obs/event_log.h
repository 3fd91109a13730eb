// Unified observability: the JSONL event sink.
//
// An EventLog streams structured records, one JSON object per line, with a
// fixed versioned envelope:
//
//   {"v":1,"seq":12,"type":"search_episode","episode":3,"best_ms":412.7,...}
//
// `v` is the schema version (bumped on breaking layout changes), `seq` a
// per-log monotonic sequence number (events from one log are totally
// ordered even after files are concatenated out of order), `type` one of
// all_event_types(). Every type and field is documented field-by-field in
// docs/observability.md; tests/obs_test.cpp cross-checks that the doc covers
// every type the code can emit, and constructing an Event with an
// undocumented type throws — the vocabulary below IS the schema.
//
// Producers: rl::Trainer (search_* / pretrain_round), heterog::DistRunner
// (run_*), heterog::get_runner + the CLI (schedule / *_utilization).
// Consumers: obs/report.h (the `heterog_cli report` renderer) and anything
// that can read JSON lines (jq, pandas, ...).
//
// Thread-safety: emit()/flush() may be called from any thread (one mutex
// serialises writes; a line is never torn). Telemetry is strictly
// write-only: attaching a log to a search or run never changes its results
// — tests/obs_test.cpp pins bit-identical searches with metrics on and off.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace heterog::obs {

/// Thrown by read_events() on unreadable files or lines that are not flat
/// JSON objects of the envelope above.
class EventLogError : public std::runtime_error {
 public:
  explicit EventLogError(const std::string& what) : std::runtime_error(what) {}
};

/// Every event type the library can emit. docs/observability.md documents
/// each one; the obs test enumerates this list against the doc.
const std::vector<std::string>& all_event_types();

/// One structured record under construction. Fields keep insertion order so
/// emitted lines are stable; values are scalars only (flat objects).
class Event {
 public:
  /// Throws CheckError when `type` is not in all_event_types().
  explicit Event(const std::string& type);

  Event& with(const std::string& key, int64_t value);
  Event& with(const std::string& key, int value);
  Event& with(const std::string& key, uint64_t value);
  Event& with(const std::string& key, double value);
  Event& with(const std::string& key, bool value);
  Event& with(const std::string& key, const std::string& value);
  Event& with(const std::string& key, const char* value);

  const std::string& type() const { return type_; }

  /// The record as one JSON line (no trailing newline), with the given
  /// sequence number in the envelope.
  std::string to_json(uint64_t seq) const;

 private:
  enum class Kind : uint8_t { kInt, kDouble, kBool, kString };
  struct Field {
    std::string key;
    Kind kind;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
  };

  std::string type_;
  std::vector<Field> fields_;
};

/// Append-structured-records-to-a-file sink. Opens (truncating) at
/// construction; ok() reports open failure instead of throwing so callers
/// can degrade to "no telemetry" gracefully.
class EventLog {
 public:
  static constexpr int kSchemaVersion = 1;

  explicit EventLog(const std::string& path);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog();

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Writes one line; thread-safe, line-atomic, flushed per event (the log
  /// must survive a crash mid-run — it is a forensic artifact).
  void emit(const Event& event);

  void flush();

  /// Events written so far (== the next event's seq).
  uint64_t events_emitted() const;

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mu_;
  uint64_t seq_ = 0;
};

/// One record read back from a JSONL file: the envelope plus every field as
/// its raw JSON scalar text (numbers unparsed, strings unescaped).
struct ParsedEvent {
  int version = 0;
  uint64_t seq = 0;
  std::string type;
  std::map<std::string, std::string> fields;  // key -> scalar value (decoded)

  bool has(const std::string& key) const { return fields.count(key) > 0; }
  /// Field as double; `fallback` when absent, null (a non-finite double
  /// written by Event) or non-numeric.
  double number(const std::string& key, double fallback = 0.0) const;
  /// Field as decoded string; empty when absent.
  std::string str(const std::string& key) const;
};

/// Parses every line of `path`. Throws EventLogError on an unreadable file,
/// a malformed line, or an unsupported schema version (> kSchemaVersion).
std::vector<ParsedEvent> read_events(const std::string& path);

}  // namespace heterog::obs
